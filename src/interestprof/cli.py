"""Command-line entry point orchestrating the profiling pipeline.

Subcommands: validate-ontology, metrics, score, profile, correlate, evaluate,
fixture, pipeline. Exit status is 0 on success, 1 on validation failure,
2 on I/O or configuration errors and 130 on an interrupt (SIGINT). Given
identical inputs, seed and flags, every subcommand writes byte-identical
artifacts.

The data subcommands run one chain, ``_run_chain``: load the taxonomy, build
its one ``LabelIndex`` (all but ``metrics`` alone, which reads no data), check
``--out``, read the ``--labels``, load the dataset through that index, make
one pass over the users, then write; ``reporting`` makes the directory as it
opens the first file, and a topic that is not canonical, a bad ``--out`` or a
bad labels file fails before the dataset is loaded or the classifier is run.
Only ``evaluate`` and ``pipeline`` read ``--labels``, into a table of the
chain's own. An error in the taxonomy, predictions, labels or manifest names
``file:line``. Each subcommand is a row of ``_CHAINS``, the steps it runs in
chain order (metrics, scores, profiles, correlation, evaluation) and its
summary line, so ``score`` writes the same bytes as the score tables of
``pipeline``. Prediction records are only what ``fixture`` writes; every load
is one ``ingest.load_score_cells`` call, which scores each prediction line as
it is read, from the ``--predictions`` file or from the output file
``--classifier-cmd`` wrote for ``--manifest``, and ``--skip-bad`` applies to
both. ``--classifier-cmd`` is killed after ``classifier_timeout`` seconds
(default 600). The pass takes each user's cells out of the dataset as a
ScoreBlock, writes its score rows (its touched cells between runs of ``"0"``
cells, one write per table per user) and derives the full profile and every
sweep point from it, so the cells are freed user by user before the profile
files are streamed. A subcommand named for one step fails (exit 1) when that
step has no input, such as fewer than 2 profiles to correlate or no labeled
profile to evaluate; ``pipeline`` skips the step with a note instead.

A step's modules are imported where the step runs, in ``_run_chain``,
``_load_dataset`` or ``cmd_fixture``; ``reporting``, which every step of the
chain writes through, is imported as the chain starts. At module level this
file needs only the taxonomy, config and errors modules, so
``validate-ontology`` loads no other, ``metrics`` loads no data module, and a
``--predictions`` run does not load the fixture generator or the subprocess
machinery.

Every input file is opened through ``errors.open_input``. The package uses
only the standard library.
"""

from __future__ import annotations

import argparse
import gc
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .config import RunConfig, build_config, env_overrides, flag_overrides, parse_config_file
from .errors import (
    ConfigError,
    ExternalClassifierError,
    ValidationFailure,
    escape_control,
    open_input,
)
from .taxonomy import LabelIndex, load_taxonomy

if TYPE_CHECKING:
    from .scoring import ScoredDataset
    from .taxonomy import Taxonomy


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _require(value, flag: str):
    if value is None:
        raise ConfigError(f"missing required setting: {flag}")
    return value


def _load_tax(cfg: RunConfig) -> Taxonomy:
    tax = load_taxonomy(_require(cfg.taxonomy, "--taxonomy"))
    for w in tax.warnings:
        _note(f"warning: {w}")
    return tax


def _load_dataset(cfg: RunConfig, index: LabelIndex) -> ScoredDataset:
    """Score cells of the predictions (or classifier output)."""
    from .ingest import load_score_cells, read_manifest, run_external_classifier

    manifest = None
    if cfg.predictions is not None:
        source = open_input(cfg.predictions, "predictions")
    elif cfg.classifier_cmd is not None:
        manifest_path = _require(cfg.manifest, "--manifest")
        with open_input(manifest_path, "manifest", newline="") as fh:
            manifest = read_manifest(fh, path=manifest_path)
        source = run_external_classifier(manifest, cfg.classifier_cmd, cfg.classifier_timeout)
    else:
        raise ConfigError("missing required setting: --predictions (or --classifier-cmd)")
    with source as lines:
        dataset = load_score_cells(lines, index, cfg.topk, cfg.skip_bad, manifest, cfg.predictions)
    for w in dataset.warnings:
        _note(f"warning: {w}")
    return dataset


def _prepare_outdir(cfg: RunConfig) -> Path:
    """The --out path, refused when it holds files and --force is not given,
    or when its nearest existing ancestor is not a directory.

    The directory is not made here: ``reporting`` makes it as it opens the
    first file, so a step that fails first leaves no --out behind.
    """
    out = Path(_require(cfg.out, "--out"))
    shown = escape_control(str(out))
    if out.exists():
        if not out.is_dir():
            raise ConfigError(f"output directory {shown} is not a directory")
        if any(out.iterdir()) and not cfg.force:
            raise ConfigError(f"output directory {shown} is not empty (use --force to overwrite)")
    else:
        ancestor = next(p for p in out.parents if p.exists())
        if not ancestor.is_dir():
            raise ConfigError(f"output directory {shown} cannot be created: "
                              f"{escape_control(str(ancestor))} is not a directory")
    return out


def cmd_validate(cfg: RunConfig) -> int:
    tax = _load_tax(cfg)
    print(
        f"ontology OK: {len(tax.parent)} concepts, {len(tax.topics)} topics, "
        f"{len(tax.instances)} instances"
    )
    return 0


def cmd_fixture(cfg: RunConfig) -> int:
    from .fixtures import generate_fixture
    from .ingest import serialize_labels, serialize_predictions
    from .reporting import write_text

    tax = _load_tax(cfg)
    out = _prepare_outdir(cfg)
    dataset = generate_fixture(
        cfg.users_per_topic, cfg.images, cfg.purity, cfg.seed, tax, cfg.topk
    )
    write_text(out / "predictions.jsonl", serialize_predictions(dataset))
    write_text(out / "labels.csv", serialize_labels(dataset.labels))
    print(f"wrote fixture ({len(dataset.users())} users) into {escape_control(str(out))}")
    return 0


_COMMANDS = {
    "validate-ontology": cmd_validate,
    "fixture": cmd_fixture,
}

# Each data subcommand: the steps it runs, in chain order, and its summary line.
_CHAINS = {
    "metrics": (("metrics",), "wrote ontology metrics to {out}"),
    "score": (("scores",), "scored {images} images for {users} users into {out}"),
    "profile": (("profiles",), "profiled {profiled} users into {out}"),
    "correlate": (("correlation",), "wrote correlation matrices for {profiled} users into {out}"),
    "evaluate": (("evaluation",), "evaluated {labeled} labeled users into {out}"),
    "pipeline": (
        ("metrics", "scores", "profiles", "correlation", "evaluation"),
        "pipeline complete: {profiled} users profiled into {out}",
    ),
}


def _run_chain(cfg: RunConfig, command: str) -> int:
    # Every step writes through reporting, so it is imported once, as the chain
    # starts. Where no bytecode is cached, importing compiles it; after the
    # load, that compile's memory adds to the peak RSS.
    from .reporting import (
        open_score_tables,
        write_correlation,
        write_evaluation,
        write_metrics,
        write_profiles,
        write_score_rows,
    )

    steps, summary = _CHAINS[command]
    single = len(steps) == 1  # a single step fails where pipeline would skip it
    tax = _load_tax(cfg)
    # metrics alone reads no data, so it accepts topics that are not canonical;
    # a data run builds its one index here, so a bad topic fails before any output.
    data = steps != ("metrics",)
    index = LabelIndex(tax) if data else None
    evaluating = "evaluation" in steps
    if single and evaluating:
        _require(cfg.labels, "--labels")
    out = _prepare_outdir(cfg)
    # Only evaluation reads the labels, before the load, so a bad labels file
    # fails before any classifier runs; a label with no records warns after it.
    labels: dict[str, str] = {}
    if evaluating and cfg.labels is not None:
        from .ingest import load_labels

        with open_input(cfg.labels, "labels", newline="") as fh:
            labels = load_labels(fh, cfg.labels)
    dataset = _load_dataset(cfg, index) if data else None
    for user_id in labels:
        if user_id not in dataset.cells:
            _note(f"warning: label for user '{escape_control(user_id)}' "
                  "matches no prediction records")

    if "metrics" in steps:
        from .ontometrics import semiotic_report, size_metrics, structural_metrics

        write_metrics(
            out,
            size_metrics(tax),
            structural_metrics(tax),
            semiotic_report(tax, accuracy_attested=cfg.attest_accuracy),
        )

    # One pass: each user's cells are taken out of the dataset, and the user
    # is profiled only for a later step, so score alone warns about no user.
    # Users with no mappable mass are skipped with a warning and left out of
    # the sweep as well. metrics alone has no dataset and makes no pass.
    facts = {"out": escape_control(str(out))}
    profiles = []
    sweep_map = {n: [] for n in cfg.sweep}
    if data:
        users = dataset.users()
        facts.update(images=dataset.n_images(), users=len(users))
        profiling = not {"profiles", "correlation", "evaluation"}.isdisjoint(steps)
        if profiling:
            from .profiling import profile_prefixes
        tables = open_score_tables(out, cfg.topk) if "scores" in steps else nullcontext()
        with tables as score_tables:
            for user in users:
                block = dataset.pop_block(user)
                if score_tables is not None:
                    write_score_rows(score_tables, block)
                if not profiling:
                    continue
                full, *swept = profile_prefixes(
                    block, (block.n_images(), *cfg.sweep), cfg.mechanism
                )
                if full.predicted_topic is None:
                    _note(f"warning: skipping user '{escape_control(user)}': "
                          "no prediction label maps to any topic")
                    continue
                profiles.append(full)
                for n, profile in zip(cfg.sweep, swept):
                    sweep_map[n].append(profile)
        del score_tables  # closed, but its files hold their write buffers until freed
    facts["profiled"] = len(profiles)

    if "profiles" in steps:
        write_profiles(out, profiles, sweep_map if profiles else {})
    if "correlation" in steps:
        if single or len(profiles) >= 2:
            from .correlation import co_interest_matrix, pearson_matrix

            corr = pearson_matrix(profiles, cfg.mechanism)
            co = co_interest_matrix(profiles, cfg.tau, cfg.mechanism)
            write_correlation(out, corr, co)
        else:
            _note("note: fewer than 2 profiles, correlation step skipped")
    if evaluating:
        if single or any(p.user_id in labels for p in profiles):
            from .evaluation import evaluate

            report = evaluate(sweep_map, labels, cfg.mechanism)
            write_evaluation(out, report)
            facts["labeled"] = report.n_labeled
        else:
            _note("note: no labeled users, evaluation step skipped")

    print(summary.format_map(facts))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interestprof",
        description="Taxonomy-driven user interest profiling from top-k classifier outputs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--taxonomy", help="taxonomy file path")
    common.add_argument("--out", help="output directory")
    common.add_argument("--force", action="store_true", help="allow writing into a non-empty output directory")
    common.add_argument("--topk", help="top-k predictions per image (default 5)")
    common.add_argument("--mechanism", help="scoring mechanism, prob or occ (default occ)")
    common.add_argument("--seed", help="seed for fixture generation")

    data = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    data.add_argument("--predictions", help="prediction lines (JSONL) path")
    data.add_argument("--labels", help="self-assessed labels CSV path")
    data.add_argument("--skip-bad", dest="skip_bad", action="store_true",
                      help="skip malformed prediction lines instead of aborting")
    data.add_argument("--classifier-cmd", dest="classifier_cmd",
                      help="external classifier command template with {input} and {output}")
    data.add_argument("--manifest", help="user_id,image_id,image_path CSV for --classifier-cmd")
    data.add_argument("--classifier-timeout", dest="classifier_timeout",
                      help="seconds --classifier-cmd may run before it is killed (default 600)")
    data.add_argument("--sweep",
                      help="comma-separated image-count sweep (default 5,10,50,75,100)")
    data.add_argument("--tau", help="co-interest threshold in (0,1] (default 0.1)")

    attest = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    attest.add_argument("--attest-accuracy", dest="attest_accuracy", action="store_true",
                        help="attest that the modeled content is truthful")

    sub.add_parser("validate-ontology", parents=[common],
                   help="parse and validate a taxonomy file")
    sub.add_parser("metrics", parents=[common, attest],
                   help="emit ontology size/structural/semiotic metrics")
    sub.add_parser("score", parents=[common, data],
                   help="write per-image topic score matrices as CSV")
    sub.add_parser("profile", parents=[common, data],
                   help="write per-user interest vectors as JSON")
    sub.add_parser("correlate", parents=[common, data],
                   help="write Pearson and co-interest matrices")
    sub.add_parser("evaluate", parents=[common, data],
                   help="write the evaluation report against self-assessed labels")
    fx = sub.add_parser("fixture", parents=[common], argument_default=argparse.SUPPRESS,
                        help="generate a seeded synthetic dataset")
    fx.add_argument("--users-per-topic", dest="users_per_topic",
                    help="users per topic (default 10)")
    fx.add_argument("--images", help="images per user (default 100)")
    fx.add_argument("--purity",
                    help="probability a label comes from the user's topic (default 1.0)")
    sub.add_parser("pipeline", parents=[common, data, attest],
                   help="run the full chain: metrics, score, profile, correlate, evaluate")
    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    values = dict(vars(ns))
    command = values.pop("command")
    config_path = values.pop("config", None)
    # A command's data is acyclic. The only cycles are the encoder closures
    # each json.dumps(..., indent=2) call leaves, about 2.5 KB a call, and the
    # writers make a fixed few such calls per command (see reporting). Cyclic
    # collections would find next to nothing, so they are off for its duration.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # Flag values are converted here, where a bad one is a one-line error.
        file_values = parse_config_file(config_path) if config_path else {}
        cfg = build_config(file_values, env_overrides(), flag_overrides(values))
        if command in _COMMANDS:
            return _COMMANDS[command](cfg)
        return _run_chain(cfg, command)
    except ValidationFailure as exc:
        _note(f"error: {exc}")
        return 1
    except (ConfigError, ExternalClassifierError, OSError) as exc:
        _note(f"error: {exc}")
        return 2
    except KeyboardInterrupt:
        _note("error: interrupted")
        return 130
    finally:
        if gc_was_enabled:
            gc.enable()


def run_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run_main()
