"""Benchmark entry point: one workload, one seed, one measuring period.

    python3 perfbench/run.py --workload paper-480x100 --seed 1 --seconds 60 --trace 0

Generates the workload's inputs from the seed (not timed), times
``interestprof validate-ontology`` on them several times (set-up), then runs
``interestprof pipeline`` as a subprocess in a closed loop from this single
process, one run at a time, as many runs as fit in the measuring period. The
wall time and peak RSS reported are medians over those runs. The artifacts
of every run are checked (verify.py); a run that exits non-zero or fails the
check counts as failed. Each measured program is started through spawn.py,
which keeps this process's memory out of the program's peak RSS.

With ``--trace 1`` the untraced loop takes half the period and one traced
in-process run follows (tracing.py); the per-layer metrics are reported
instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; BENCHMARK.json names the metrics and units.
Runs work under ``.perfbench/`` in the checkout and remove what they wrote.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import verify
from tracing import layer_metrics
from workloads import ROOT, SRC, TAXONOMY, WORKLOADS, Workload, generate

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
TRACING = Path(__file__).resolve().parent / "tracing.py"
SPAWN = Path(__file__).resolve().parent / "spawn.py"
WORK = ROOT / ".perfbench" / "work"
SETUP_RUNS = 7
RUN_TIMEOUT_S = 60  # a pipeline run takes 8-25 s; the whole benchmark must end in 180 s


def child_env() -> dict[str, str]:
    """The caller's environment without interestprof settings, importing from src/."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("INTERESTPROF_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], log: Path) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MiB, exit status) of one child, measured by spawn.py."""
    proc = subprocess.run(
        [sys.executable, str(SPAWN), str(log), str(RUN_TIMEOUT_S), "--", *argv],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"spawn.py failed: {proc.stderr.strip()}")
    result = json.loads(proc.stdout)
    return result["wall_s"], result["peak_rss_mb"], result["returncode"]


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  workdir: Path) -> tuple[dict, dict]:
    """Measure one workload; returns (all metrics, details of every run)."""
    inputs = generate(workload, seed, workdir / "inputs")
    reference = verify.Reference(inputs, workload.topk, workload.mechanism, seed)
    check = verify.Checker(reference)
    n_labels = sum(len(img) for imgs in reference.images.values() for img in imgs)
    log = workdir / "child.log"
    python = sys.executable
    failures: list[str] = []

    setup = []
    for _ in range(SETUP_RUNS):
        wall, _, rc = run_child(
            [python, "-m", "interestprof.cli", "validate-ontology",
             "--taxonomy", str(inputs["taxonomy"])], log)
        setup.append(wall)
        if rc != 0:
            failures.append(f"validate-ontology exited with status {rc}")
    failed = len(failures)

    def pipeline(index: int, traced: bool) -> dict:
        nonlocal failed
        out = workdir / f"out-{index}"
        args = ["pipeline", "--taxonomy", str(inputs["taxonomy"]),
                "--predictions", str(inputs["predictions"]), "--out", str(out)]
        if "labels" in inputs:
            args += ["--labels", str(inputs["labels"])]
        args += workload.pipeline_flags()
        if traced:
            argv = [python, str(TRACING), str(workdir / "summary.json"),
                    str(workdir / "spans.jsonl")] + args
        else:
            argv = [python, "-m", "interestprof.cli"] + args
        wall, rss, rc = run_child(argv, log)
        problems = [f"pipeline exited with status {rc}"] if rc != 0 else check(out)
        failures.extend(f"run {index}: {p}" for p in problems)
        failed += bool(problems)
        run = {"wall_s": wall, "peak_rss_mb": rss,
               "bytes_written": sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0}
        shutil.rmtree(out, ignore_errors=True)
        return run

    # Another run starts only if, at the mean pace so far, it ends within the
    # period, so the benchmark takes about its set-up plus the period.
    period = seconds / 2 if trace else seconds
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(pipeline(len(runs), traced=False))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(runs) > period:
            break
    wall_s = statistics.median(r["wall_s"] for r in runs)
    metrics = {
        "wall_s": wall_s,
        "images_per_s": workload.n_images / wall_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "setup_s": statistics.median(setup),
    }
    details = {"setup_s": setup, "runs": runs}
    if trace:
        traced = pipeline(len(runs), traced=True)
        summary = json.loads((workdir / "summary.json").read_text(encoding="utf-8"))
        metrics.update(layer_metrics(summary, workload.n_images, n_labels))
        metrics["reporting.bytes_written"] = traced["bytes_written"]
        metrics["trace.overhead_s"] = traced["wall_s"] - wall_s
        details["summary"] = summary
    attempted = len(setup) + len(runs) + bool(trace)
    details.update(attempted=attempted, failed=failed, failures=failures)
    return metrics, details


def result_line(metrics: dict, details: dict, trace: bool) -> dict:
    """The contract's result object, with the metrics BENCHMARK.json lists."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": with_units(metrics, spec["per_layer" if trace else "end_to_end"]),
    }


def with_units(metrics: dict, listed: list[dict]) -> dict:
    """The listed metrics as {name: {"value", "unit"}}, in BENCHMARK.json order."""
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}


def load_program() -> None:
    """Import interestprof from this checkout's src/, or exit 1 if it is not there."""
    if not (SRC / "interestprof" / "__init__.py").is_file() or not TAXONOMY.is_file() \
            or not BENCHMARK_JSON.is_file():
        sys.exit(f"error: {ROOT} holds no interestprof checkout (src/, data/, BENCHMARK.json)")
    sys.path.insert(0, str(SRC))
    import interestprof

    if Path(interestprof.__file__).resolve().parent != SRC / "interestprof":
        sys.exit(f"error: imported interestprof from {interestprof.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        metrics, details = run_benchmark(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir
        )
        for line in details["failures"][:20]:
            print(f"failed: {line}", file=sys.stderr)
        print(json.dumps(result_line(metrics, details, bool(args.trace))))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
