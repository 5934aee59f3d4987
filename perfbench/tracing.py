"""Traced in-process run of ``interestprof.cli.main``, instrumented from outside.

Run as a script, it imports interestprof, wraps the public functions of every
interestprof module in every interestprof namespace (and module-level table)
that refers to them, runs ``cli.main`` on the given arguments, and writes

* ``SPANS`` (JSON lines): one span per stage-level call, with its name,
  parent span, start, end and self time, relative to the start of ``main``;
* ``SUMMARY`` (JSON): per-function calls, self and inclusive time, per-module
  self and inclusive time, counters and the traced wall time.

Per-label, per-image and per-value leaves (``LEAVES``) get counters and
aggregate timers instead of spans, so a run does not record millions of spans.
A frame's self time is its duration minus the time of the wrapped calls made
inside it, so the module self times add up to the traced wall time.

    python3 perfbench/tracing.py SUMMARY SPANS pipeline --taxonomy ... --out ...

``layer_metrics`` turns a summary into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
import types

LEAVES = frozenset({
    "taxonomy.topic_of_instance", "taxonomy.normalize_term", "taxonomy.resolve_compound",
    "taxonomy.topic_index", "taxonomy.topic_at",
    "scoring.score_image_prob", "scoring.score_image_occ",
    "profiling.argmax_topics", "profiling.predict_topic",
    "evaluation.label_rank", "correlation.band_of",
    "reporting.fmt_float", "reporting.round9", "reporting.json_ready",
    "reporting.distribution_payload", "reporting.profile_payload",
})

# Counters read from a wrapped function's result: qualname -> (counter, function of result).
RESULT_COUNTERS = {
    "ingest.load_predictions": ("ingest.records", lambda dataset: dataset.n_records()),
}


class Tracer:
    """Spans and per-function aggregates, kept in memory until the run ends."""

    def __init__(self):
        self.stack: list[list] = [[0.0, None]]  # frames: [time of wrapped calls inside, span id]
        self.spans: list = []                   # (name, parent id, start, end, self)
        self.stats: dict[str, list] = {}        # name -> [calls, self, inclusive, depth]
        self.counters: dict[str, int] = {}

    def wrap(self, name: str, fn):
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        push, pop = stack.append, stack.pop
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        counter = RESULT_COUNTERS.get(name)

        # The leaf and span bodies repeat the same bookkeeping inline: leaves run
        # millions of times, and a shared helper call would add to every one.
        if name in LEAVES:
            def wrapper(*args, **kwargs):
                frame = [0.0, stack[-1][1]]
                push(frame)
                stat[3] += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    pop()
                    stack[-1][0] += dur
                    stat[0] += 1
                    stat[1] += dur - frame[0]
                    stat[3] -= 1
                    if not stat[3]:  # count recursive calls once in the inclusive time
                        stat[2] += dur
        else:
            def wrapper(*args, **kwargs):
                sid = len(spans)
                spans.append(None)
                frame = [0.0, sid]
                parent = stack[-1][1]
                push(frame)
                stat[3] += 1
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    dur = t1 - t0
                    pop()
                    stack[-1][0] += dur
                    stat[0] += 1
                    stat[1] += dur - frame[0]
                    stat[3] -= 1
                    if not stat[3]:
                        stat[2] += dur
                    spans[sid] = (name, parent, t0, t1, dur - frame[0])
                if counter is not None:
                    key, count = counter
                    self.counters[key] = self.counters.get(key, 0) + count(result)
                return result
        return functools.update_wrapper(wrapper, fn)

    def summary(self, wall_s: float) -> dict:
        functions = {
            name: {"calls": calls, "self_s": self_s, "incl_s": incl_s}
            for name, (calls, self_s, incl_s, _) in sorted(self.stats.items())
            if calls
        }
        modules_self: dict[str, float] = {}
        for name, f in functions.items():
            module = name.split(".", 1)[0]
            modules_self[module] = modules_self.get(module, 0.0) + f["self_s"]
        # A module's inclusive time: spans with no ancestor span in the same module.
        modules_incl: dict[str, float] = {}
        for name, parent, start, end, _ in self.spans:
            module = name.split(".", 1)[0]
            node = parent
            while node is not None and self.spans[node][0].split(".", 1)[0] != module:
                node = self.spans[node][1]
            if node is None:
                modules_incl[module] = modules_incl.get(module, 0.0) + (end - start)
        # Stage table: direct children of each command span, grouped by name.
        stages: dict[str, dict] = {}
        for name, parent, start, end, _ in self.spans:
            if parent is not None and self.spans[parent][0].startswith("cli.cmd_"):
                row = stages.setdefault(name, {"calls": 0, "incl_s": 0.0})
                row["calls"] += 1
                row["incl_s"] += end - start
        return {
            "wall_s": wall_s,
            "n_spans": len(self.spans),
            "functions": functions,
            "modules_self_s": dict(sorted(modules_self.items())),
            "modules_incl_s": dict(sorted(modules_incl.items())),
            "stages": stages,
            "counters": dict(self.counters),
        }


def instrument(tracer: Tracer, package: types.ModuleType) -> None:
    """Replace every reference to a public interestprof function with a traced wrapper."""
    modules = [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]
    wrapped = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                    and not name.startswith("_"):
                wrapped[obj] = tracer.wrap(f"{short}.{name}", obj)
    for mod in [package, *modules]:
        for name, obj in list(vars(mod).items()):
            if name.startswith("__"):
                continue
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
            elif isinstance(obj, dict):  # dispatch tables such as cli._COMMANDS
                for key, value in list(obj.items()):
                    if isinstance(value, types.FunctionType) and value in wrapped:
                        obj[key] = wrapped[value]


def layer_metrics(summary: dict, n_images: int, n_labels: int) -> dict[str, float]:
    """Per-layer metrics from a trace summary; absent functions read 0."""
    functions = summary["functions"]
    mod_self = summary["modules_self_s"]

    def fn(name: str, key: str):
        return functions.get(name, {}).get(key, 0.0 if key.endswith("_s") else 0)

    lookups = fn("taxonomy.topic_of_instance", "calls")
    ingest_s = summary["modules_incl_s"].get("ingest", 0.0)
    records = summary["counters"].get("ingest.records", 0)
    scored = fn("scoring.score_image_prob", "calls")
    metrics = {
        "taxonomy.load_s": fn("taxonomy.load_taxonomy", "incl_s"),
        "taxonomy.lookups": lookups,
        "taxonomy.lookup_s": fn("taxonomy.topic_of_instance", "incl_s"),
        "taxonomy.lookups_per_label": lookups / n_labels,
        "ingest.load_s": ingest_s,
        "ingest.records": records,
        "ingest.records_per_s": records / ingest_s if ingest_s else 0.0,
        "scoring.images_scored": scored,
        "scoring.scored_per_image": scored / n_images,
        "profiling.profiles_built": fn("profiling.profile_user", "calls"),
        "profiling.sweep_s": fn("profiling.sweep_profiles", "incl_s"),
        "evaluation.roc_s": fn("evaluation.roc_series", "incl_s"),
        "reporting.write_scores_s": fn("reporting.write_scores", "incl_s"),
        "reporting.write_profiles_s": fn("reporting.write_profiles", "incl_s"),
        "reporting.write_evaluation_s": fn("reporting.write_evaluation", "incl_s"),
        "trace.wall_s": summary["wall_s"],
    }
    for module in ("taxonomy", "ingest", "scoring", "profiling", "evaluation", "correlation",
                   "reporting", "svgchart", "ontometrics", "config", "cli"):
        metrics[f"{module}.self_s"] = mod_self.get(module, 0.0)
    return metrics


def main(argv: list[str]) -> int:
    summary_path, spans_path, cli_args = argv[1], argv[2], argv[3:]
    import interestprof

    tracer = Tracer()
    instrument(tracer, interestprof)
    from interestprof import cli

    t0 = time.perf_counter()
    try:
        rc = cli.main(cli_args)
    finally:
        wall = time.perf_counter() - t0
        with open(spans_path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, start, end, self_s) in enumerate(tracer.spans):
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start": start - t0, "end": end - t0,
                                     "self_s": self_s}) + "\n")
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(wall), fh, indent=1)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
