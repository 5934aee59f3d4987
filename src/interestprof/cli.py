"""Command-line entry point orchestrating the profiling pipeline.

Subcommands: validate-ontology, metrics, score, profile, correlate, evaluate,
fixture, pipeline. Exit status is 0 on success, 1 on validation failure and
2 on I/O or configuration errors. Given identical inputs, seed and flags,
every subcommand writes byte-identical artifacts.

Each user's records are scored once into a ScoreBlock; the score CSV rows,
the full profile and every sweep point come from that block.
"""

from __future__ import annotations

import argparse
import gc
import sys
from contextlib import nullcontext
from pathlib import Path

from . import __version__
from .config import RunConfig, build_config, env_overrides, parse_config_file, parse_sweep
from .errors import ConfigError, ExternalClassifierError, ValidationFailure
from .evaluation import evaluate
from .fixtures import generate_fixture
from .ingest import (
    ProfileDataset,
    attach_labels,
    load_labels,
    load_manifest,
    load_predictions,
    run_external_classifier,
    serialize_labels,
    serialize_predictions,
)
from .ontometrics import semiotic_report, size_metrics, structural_metrics
from .profiling import UserProfile, profile_prefixes
from .reporting import (
    open_score_tables,
    write_correlation,
    write_evaluation,
    write_metrics,
    write_profiles,
    write_score_rows,
    write_scores,
    write_text,
)
from .scoring import score_block
from .taxonomy import Taxonomy, load_taxonomy


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _require(value, flag: str):
    if value is None:
        raise ConfigError(f"missing required setting: {flag}")
    return value


def _load_tax(cfg: RunConfig) -> Taxonomy:
    path = _require(cfg.taxonomy, "--taxonomy")
    if not Path(path).exists():
        raise ConfigError(f"taxonomy file not found: {path}")
    tax = load_taxonomy(path)
    for w in tax.warnings:
        _note(f"warning: {w}")
    return tax


def _load_scoring_tax(cfg: RunConfig) -> Taxonomy:
    """Taxonomy with its label index compiled, so a bad topic fails before any output."""
    tax = _load_tax(cfg)
    tax.label_index  # compiled on first access
    return tax


def _load_dataset(cfg: RunConfig) -> ProfileDataset:
    """Predictions (or classifier output) with labels attached.

    Input files may start with a BOM. Undecodable bytes are kept as lone
    surrogates, which the parsers report with their line number.
    """
    if cfg.predictions is not None:
        if not Path(cfg.predictions).exists():
            raise ConfigError(f"predictions file not found: {cfg.predictions}")
        with open(cfg.predictions, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
            dataset = load_predictions(fh, k_max=cfg.topk, skip_bad=cfg.skip_bad)
    elif cfg.classifier_cmd is not None:
        manifest_path = _require(cfg.manifest, "--manifest")
        if not Path(manifest_path).exists():
            raise ConfigError(f"manifest file not found: {manifest_path}")
        with open(manifest_path, "r", encoding="utf-8-sig", errors="surrogateescape",
                  newline="") as fh:
            rows = load_manifest(fh, path=manifest_path)
        dataset = run_external_classifier(rows, cfg.classifier_cmd, k=cfg.topk)
    else:
        raise ConfigError("missing required setting: --predictions (or --classifier-cmd)")

    if cfg.labels is not None:
        if not Path(cfg.labels).exists():
            raise ConfigError(f"labels file not found: {cfg.labels}")
        with open(cfg.labels, "r", encoding="utf-8-sig", errors="surrogateescape",
                  newline="") as fh:
            dataset = attach_labels(dataset, load_labels(fh))
    for w in dataset.warnings:
        _note(f"warning: {w}")
    return dataset


def _prepare_outdir(cfg: RunConfig) -> Path:
    out = Path(_require(cfg.out, "--out"))
    if out.exists() and any(out.iterdir()) and not cfg.force:
        raise ConfigError(f"output directory {out} is not empty (use --force to overwrite)")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _profile_dataset(
    dataset: ProfileDataset,
    tax: Taxonomy,
    cfg: RunConfig,
    sweep: tuple[int, ...] = (),
    scores_dir: Path | None = None,
) -> tuple[list[UserProfile], dict[int, list[UserProfile]]]:
    """Full profiles and sweep profiles, scoring each user's records once.

    With ``scores_dir`` the image score tables are written in the same pass.
    Users with no mappable mass are skipped with a warning and left out of
    the sweep as well.
    """
    profiles: list[UserProfile] = []
    sweep_map: dict[int, list[UserProfile]] = {n: [] for n in sweep}
    tables = open_score_tables(scores_dir, cfg.topk) if scores_dir else nullcontext()
    with tables as score_tables:
        for user in dataset.users():
            block = score_block(dataset.records[user], tax, cfg.topk)
            if score_tables is not None:
                write_score_rows(score_tables, block)
            full, *swept = profile_prefixes(block, (block.n_images(), *sweep), cfg.mechanism)
            if full.predicted_topic is None:
                _note(f"warning: skipping user '{user}': no prediction label maps to any topic")
                continue
            profiles.append(full)
            for n, profile in zip(sweep, swept):
                sweep_map[n].append(profile)
    return profiles, sweep_map


def cmd_validate(cfg: RunConfig) -> int:
    tax = _load_tax(cfg)
    print(
        f"ontology OK: {len(tax.parent)} concepts, {len(tax.topics)} topics, "
        f"{len(tax.instances)} instances"
    )
    return 0


def cmd_metrics(cfg: RunConfig) -> int:
    tax = _load_tax(cfg)
    out = _prepare_outdir(cfg)
    write_metrics(
        out,
        size_metrics(tax),
        structural_metrics(tax),
        semiotic_report(tax, accuracy_attested=cfg.attest_accuracy),
    )
    print(f"wrote ontology metrics to {out}")
    return 0


def cmd_score(cfg: RunConfig) -> int:
    tax = _load_scoring_tax(cfg)
    dataset = _load_dataset(cfg)
    out = _prepare_outdir(cfg)
    write_scores(out, dataset, tax, cfg.topk)
    print(f"scored {dataset.n_records()} images for {len(dataset.users())} users into {out}")
    return 0


def cmd_profile(cfg: RunConfig) -> int:
    tax = _load_scoring_tax(cfg)
    dataset = _load_dataset(cfg)
    out = _prepare_outdir(cfg)
    profiles, sweep_map = _profile_dataset(dataset, tax, cfg, cfg.sweep)
    write_profiles(out, profiles, sweep_map if profiles else {})
    print(f"profiled {len(profiles)} users into {out}")
    return 0


def cmd_correlate(cfg: RunConfig) -> int:
    from .correlation import co_interest_matrix, pearson_matrix  # numpy, only when correlating

    tax = _load_scoring_tax(cfg)
    dataset = _load_dataset(cfg)
    out = _prepare_outdir(cfg)
    profiles, _ = _profile_dataset(dataset, tax, cfg)
    corr = pearson_matrix(profiles, cfg.mechanism)
    co = co_interest_matrix(profiles, cfg.tau, cfg.mechanism)
    write_correlation(out, corr, co)
    print(f"wrote correlation matrices for {len(profiles)} users into {out}")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    tax = _load_scoring_tax(cfg)
    _require(cfg.labels, "--labels")
    dataset = _load_dataset(cfg)
    out = _prepare_outdir(cfg)
    _, sweep_map = _profile_dataset(dataset, tax, cfg, cfg.sweep)
    report = evaluate(sweep_map, dataset.labels, cfg.mechanism)
    write_evaluation(out, report)
    print(f"evaluated {report.n_labeled} labeled users into {out}")
    return 0


def cmd_fixture(cfg: RunConfig) -> int:
    tax = _load_tax(cfg)
    out = _prepare_outdir(cfg)
    dataset = generate_fixture(
        cfg.users_per_topic, cfg.images, cfg.purity, cfg.seed, tax, cfg.topk
    )
    write_text(out / "predictions.jsonl", serialize_predictions(dataset))
    write_text(out / "labels.csv", serialize_labels(dataset.labels))
    print(f"wrote fixture ({len(dataset.users())} users) into {out}")
    return 0


def cmd_pipeline(cfg: RunConfig) -> int:
    from .correlation import co_interest_matrix, pearson_matrix  # numpy, only when correlating

    tax = _load_scoring_tax(cfg)
    dataset = _load_dataset(cfg)
    out = _prepare_outdir(cfg)

    write_metrics(
        out,
        size_metrics(tax),
        structural_metrics(tax),
        semiotic_report(tax, accuracy_attested=cfg.attest_accuracy),
    )
    profiles, sweep_map = _profile_dataset(dataset, tax, cfg, cfg.sweep, scores_dir=out)
    if not profiles:
        sweep_map = {}
    write_profiles(out, profiles, sweep_map)

    if len(profiles) >= 2:
        corr = pearson_matrix(profiles, cfg.mechanism)
        co = co_interest_matrix(profiles, cfg.tau, cfg.mechanism)
        write_correlation(out, corr, co)
    else:
        _note("note: fewer than 2 profiles, correlation step skipped")

    labeled = [p for p in profiles if p.user_id in dataset.labels]
    if labeled:
        report = evaluate(sweep_map, dataset.labels, cfg.mechanism)
        write_evaluation(out, report)
    else:
        _note("note: no labeled users, evaluation step skipped")

    print(f"pipeline complete: {len(profiles)} users profiled into {out}")
    return 0


_COMMANDS = {
    "validate-ontology": cmd_validate,
    "metrics": cmd_metrics,
    "score": cmd_score,
    "profile": cmd_profile,
    "correlate": cmd_correlate,
    "evaluate": cmd_evaluate,
    "fixture": cmd_fixture,
    "pipeline": cmd_pipeline,
}


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
    common.add_argument("--topk", type=int, help="top-k predictions per image (default 5)")
    common.add_argument("--mechanism", choices=("prob", "occ"), help="scoring mechanism (default occ)")
    common.add_argument("--jobs", type=int,
                        help="accepted for compatibility; has no effect (runs are single-threaded)")
    common.add_argument("--seed", type=int, help="seed for fixture generation")

    data = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    data.add_argument("--predictions", help="prediction lines (JSONL) path")
    data.add_argument("--labels", help="self-assessed labels CSV path")
    data.add_argument("--skip-bad", dest="skip_bad", action="store_true",
                      help="skip malformed prediction lines instead of aborting")
    data.add_argument("--classifier-cmd", dest="classifier_cmd",
                      help="external classifier command template with {input} and {output}")
    data.add_argument("--manifest", help="user_id,image_id,image_path CSV for --classifier-cmd")
    data.add_argument("--sweep", type=parse_sweep,
                      help="comma-separated image-count sweep (default 5,10,50,75,100)")
    data.add_argument("--tau", type=float, help="co-interest threshold in (0,1] (default 0.1)")

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
    fx.add_argument("--users-per-topic", dest="users_per_topic", type=int,
                    default=argparse.SUPPRESS, help="users per topic (default 10)")
    fx.add_argument("--images", type=int, default=argparse.SUPPRESS,
                    help="images per user (default 100)")
    fx.add_argument("--purity", type=float, default=argparse.SUPPRESS,
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
        file_values = parse_config_file(config_path) if config_path else {}
        cfg = build_config(file_values, env_overrides(), values)
        return _COMMANDS[command](cfg)
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
