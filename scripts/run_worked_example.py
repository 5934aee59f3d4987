#!/usr/bin/env python3
"""Score the shipped single-image example and print both mechanisms' output.

Usage: python scripts/run_worked_example.py
"""

from pathlib import Path

from interestprof.ingest import load_predictions
from interestprof.profiling import profile_prefixes
from interestprof.scoring import score_block
from interestprof.taxonomy import N_TOPICS, TOPICS, load_taxonomy, topic_of_instance

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    tax = load_taxonomy(ROOT / "data" / "uio-starter.taxonomy")
    with open(ROOT / "data" / "worked-example.jsonl", encoding="utf-8") as fh:
        dataset = load_predictions(fh)
    (record,) = dataset.records["u1"]

    print(f"user {record.user_id}, image {record.image_id}")
    for label, prob in record.predictions:
        print(f"  {label:<10} p={prob:.2f}  ->  {topic_of_instance(tax, label)}")

    block = score_block([record], tax, k=5)
    cells = iter(block.rows[0])
    topic_cells = [(TOPICS[pos], p, c) for pos, p, c in zip(cells, cells, cells) if pos < N_TOPICS]
    print("\nimage-level probability scores:", {t: p for t, p, _ in topic_cells if p > 0})
    print("image-level occurrence scores: ", {t: c / block.k for t, _, c in topic_cells if c})

    (profile,) = profile_prefixes(block, (1,), mechanism="occ")
    print("\nuser vector (prob):", {t: round(s, 4) for t, s in profile.v_prob.nonzero().items()})
    print("user vector (occ): ", profile.v_occ.nonzero())
    print("predicted topic:   ", profile.predicted_topic)


if __name__ == "__main__":
    main()
