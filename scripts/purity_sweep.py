#!/usr/bin/env python3
"""Accuracy vs fixture purity and images-per-user, both mechanisms.

Generates seeded synthetic datasets at several purity levels, runs the full
profiling chain and prints the overall-accuracy grid. A desk-scale view of
how recovery degrades as users share more off-topic images.

Usage: python scripts/purity_sweep.py [--users-per-topic N] [--seed S]
"""

import argparse
from pathlib import Path

from interestprof.evaluation import evaluate
from interestprof.fixtures import generate_fixture
from interestprof.ingest import load_score_cells, serialize_predictions
from interestprof.profiling import profile_prefixes
from interestprof.taxonomy import LabelIndex, load_taxonomy

ROOT = Path(__file__).resolve().parent.parent
PURITIES = (1.0, 0.8, 0.6, 0.4, 0.3)
SWEEP = (5, 10, 25, 50)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--users-per-topic", type=int, default=5)
    ap.add_argument("--images", type=int, default=50)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    tax = load_taxonomy(ROOT / "data" / "uio-starter.taxonomy")
    index = LabelIndex(tax)
    header = "purity  mech  " + "  ".join(f"k={k:<4d}" for k in SWEEP)
    print(header)
    print("-" * len(header))
    for purity in PURITIES:
        dataset = generate_fixture(args.users_per_topic, args.images, purity,
                                   args.seed, tax)
        scored = load_score_cells(serialize_predictions(dataset), index)
        per_user = [profile_prefixes(scored.pop_block(u), SWEEP, "occ") for u in scored.users()]
        profiles = {n: [row[j] for row in per_user] for j, n in enumerate(SWEEP)}
        report = evaluate(profiles, dataset.labels, "occ")
        for mech in ("occ", "prob"):
            accs = report.overall_accuracy_by_mechanism[mech]
            cells = "  ".join(f"{accs[k]:<6.3f}" for k in SWEEP)
            print(f"{purity:<6.1f}  {mech:<4}  {cells}")


if __name__ == "__main__":
    main()
