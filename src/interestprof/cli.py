"""Command-line entry point orchestrating the profiling pipeline.

Subcommands: validate-ontology, metrics, score, profile, correlate, evaluate,
fixture, pipeline. Exit status is 0 on success, 1 on validation failure and
2 on I/O or configuration errors. Given identical inputs, seed and flags,
every subcommand writes byte-identical artifacts.

The data subcommands run one chain, ``_run_chain``: load the taxonomy, load
the dataset, check ``--out``, make one pass over the users, then write; the
directory is made just before its first file. Each subcommand is a row of
``_CHAINS``, the steps it runs in chain order (metrics, scores, profiles,
correlation, evaluation) and its summary line, so ``score`` writes the same
bytes as the score tables of ``pipeline``. The dataset holds score cells, not
records: ``scoring.load_score_cells`` scores each prediction line (or each
record of the classifier's output) as it is read; ``--classifier-cmd`` is
killed after ``classifier_timeout`` seconds (default 600). The pass takes each
user's cells out of the dataset as a ScoreBlock, writes its score rows (text
from a row template, one write per table per user) and derives the full
profile and every sweep point from it, so the cells are freed user by user
before the profile files are streamed. A subcommand named for one step fails
(exit 1) when that step has no input, such as fewer than 2 profiles to
correlate or no labeled profile to evaluate; ``pipeline`` skips the step with a
note instead.

Every input file is opened through ``errors.open_input``. The package uses
only the standard library.
"""

from __future__ import annotations

import argparse
import gc
import sys
from contextlib import nullcontext
from functools import partial
from pathlib import Path

from . import __version__
from .config import RunConfig, build_config, env_overrides, flag_overrides, parse_config_file
from .correlation import co_interest_matrix, pearson_matrix
from .errors import (
    ConfigError,
    ExternalClassifierError,
    ValidationFailure,
    escape_control,
    open_input,
)
from .evaluation import evaluate
from .fixtures import generate_fixture
from .ingest import (
    attach_labels,
    load_labels,
    read_manifest,
    run_external_classifier,
    serialize_labels,
    serialize_predictions,
)
from .ontometrics import semiotic_report, size_metrics, structural_metrics
from .profiling import profile_prefixes
from .reporting import (
    open_score_tables,
    write_correlation,
    write_evaluation,
    write_metrics,
    write_profiles,
    write_score_rows,
    write_text,
)
from .scoring import ScoredDataset, load_score_cells
from .taxonomy import Taxonomy, load_taxonomy


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


def _load_dataset(cfg: RunConfig, tax: Taxonomy) -> ScoredDataset:
    """Score cells of the predictions (or classifier output), labels attached."""
    if cfg.predictions is not None:
        with open_input(cfg.predictions, "predictions") as fh:
            dataset = load_score_cells(fh, tax, cfg.topk, cfg.skip_bad)
    elif cfg.classifier_cmd is not None:
        manifest_path = _require(cfg.manifest, "--manifest")
        with open_input(manifest_path, "manifest", newline="") as fh:
            manifest = read_manifest(fh, path=manifest_path)
        dataset = run_external_classifier(
            manifest, cfg.classifier_cmd, k=cfg.topk, load=partial(load_score_cells, tax=tax),
            timeout=cfg.classifier_timeout,
        )
    else:
        raise ConfigError("missing required setting: --predictions (or --classifier-cmd)")

    if cfg.labels is not None:
        with open_input(cfg.labels, "labels", newline="") as fh:
            dataset = attach_labels(dataset, load_labels(fh))
    for w in dataset.warnings:
        _note(f"warning: {w}")
    return dataset


def _prepare_outdir(cfg: RunConfig) -> Path:
    """The --out path, refused when it holds files and --force is not given.

    The directory is not made here: ``_made`` makes it just before the first
    file is written, so a step that fails first leaves no --out behind.
    """
    out = Path(_require(cfg.out, "--out"))
    if out.exists() and any(out.iterdir()) and not cfg.force:
        raise ConfigError(f"output directory {out} is not empty (use --force to overwrite)")
    return out


def _made(out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_validate(cfg: RunConfig) -> int:
    tax = _load_tax(cfg)
    print(
        f"ontology OK: {len(tax.parent)} concepts, {len(tax.topics)} topics, "
        f"{len(tax.instances)} instances"
    )
    return 0


def cmd_fixture(cfg: RunConfig) -> int:
    tax = _load_tax(cfg)
    out = _prepare_outdir(cfg)
    dataset = generate_fixture(
        cfg.users_per_topic, cfg.images, cfg.purity, cfg.seed, tax, cfg.topk
    )
    write_text(_made(out) / "predictions.jsonl", serialize_predictions(dataset))
    write_text(out / "labels.csv", serialize_labels(dataset.labels))
    print(f"wrote fixture ({len(dataset.users())} users) into {out}")
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
    steps, summary = _CHAINS[command]
    single = len(steps) == 1  # a single step fails where pipeline would skip it
    tax = _load_tax(cfg)
    # metrics alone reads no data, so it accepts topics that are not canonical.
    data = steps != ("metrics",)
    if data:
        tax.label_index  # compiled on first access, so a bad topic fails before any output
    if single and "evaluation" in steps:
        _require(cfg.labels, "--labels")
    dataset = _load_dataset(cfg, tax) if data else ScoredDataset(cfg.topk)
    out = _prepare_outdir(cfg)

    if "metrics" in steps:
        write_metrics(
            _made(out),
            size_metrics(tax),
            structural_metrics(tax),
            semiotic_report(tax, accuracy_attested=cfg.attest_accuracy),
        )

    # One pass: each user's cells are taken out of the dataset, and the user
    # is profiled only for a later step, so score alone warns about no user.
    # Users with no mappable mass are skipped with a warning and left out of
    # the sweep as well.
    profiling = not {"profiles", "correlation", "evaluation"}.isdisjoint(steps)
    users = dataset.users()
    facts = {"out": out, "images": dataset.n_images(), "users": len(users)}
    profiles = []
    sweep_map = {n: [] for n in cfg.sweep}
    tables = open_score_tables(_made(out), cfg.topk) if "scores" in steps else nullcontext()
    with tables as score_tables:
        for user in users:
            block = dataset.pop_block(user)
            if score_tables is not None:
                write_score_rows(score_tables, block)
            if not profiling:
                continue
            full, *swept = profile_prefixes(block, (block.n_images(), *cfg.sweep), cfg.mechanism)
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
        write_profiles(_made(out), profiles, sweep_map if profiles else {})
    if "correlation" in steps:
        if single or len(profiles) >= 2:
            corr = pearson_matrix(profiles, cfg.mechanism)
            co = co_interest_matrix(profiles, cfg.tau, cfg.mechanism)
            write_correlation(_made(out), corr, co)
        else:
            _note("note: fewer than 2 profiles, correlation step skipped")
    if "evaluation" in steps:
        if single or any(p.user_id in dataset.labels for p in profiles):
            report = evaluate(sweep_map, dataset.labels, cfg.mechanism)
            write_evaluation(_made(out), report)
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
    common.add_argument("--mechanism", choices=("prob", "occ"), help="scoring mechanism (default occ)")
    common.add_argument("--jobs",
                        help="accepted for compatibility; has no effect (runs are single-threaded)")
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

    sub.add_parser("validate-ontology", parents=[common],
                   help="parse and validate a taxonomy file")
    mp = sub.add_parser("metrics", parents=[common],
                        help="emit ontology size/structural/semiotic metrics")
    mp.add_argument("--attest-accuracy", dest="attest_accuracy", action="store_true",
                    default=argparse.SUPPRESS,
                    help="attest that the modeled content is truthful")
    sub.add_parser("score", parents=[common, data],
                   help="write per-image topic score matrices as CSV")
    sub.add_parser("profile", parents=[common, data],
                   help="write per-user interest vectors as JSON")
    sub.add_parser("correlate", parents=[common, data],
                   help="write Pearson and co-interest matrices")
    sub.add_parser("evaluate", parents=[common, data],
                   help="write the evaluation report against self-assessed labels")
    fx = sub.add_parser("fixture", parents=[common],
                        help="generate a seeded synthetic dataset")
    fx.add_argument("--users-per-topic", dest="users_per_topic",
                    default=argparse.SUPPRESS, help="users per topic (default 10)")
    fx.add_argument("--images", default=argparse.SUPPRESS,
                    help="images per user (default 100)")
    fx.add_argument("--purity", default=argparse.SUPPRESS,
                    help="probability a label comes from the user's topic (default 1.0)")
    pp = sub.add_parser("pipeline", parents=[common, data],
                        help="run the full chain: metrics, score, profile, correlate, evaluate")
    pp.add_argument("--attest-accuracy", dest="attest_accuracy", action="store_true",
                    default=argparse.SUPPRESS,
                    help="attest that the modeled content is truthful")
    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    values = dict(vars(ns))
    command = values.pop("command")
    config_path = values.pop("config", None)
    # A command builds only acyclic data, so cyclic collections would find
    # nothing; they are switched off for its duration.
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
    finally:
        if gc_was_enabled:
            gc.enable()


def run_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run_main()
