#!/usr/bin/env python3
"""Score the shipped single-image example and print both mechanisms' output.

Usage: python scripts/run_worked_example.py
"""

import json
from pathlib import Path

from interestprof.ingest import load_score_cells
from interestprof.profiling import TopicDistribution, profile_prefixes
from interestprof.taxonomy import N_TOPICS, TOPICS, LabelIndex, load_taxonomy, topic_of_instance

ROOT = Path(__file__).resolve().parent.parent


def nonzero(v: TopicDistribution) -> dict[str, float]:
    """The topics with a positive score in ``v``, in canonical order."""
    return {name: s for name, s in zip(TOPICS, v.scores) if s > 0}


def main() -> None:
    tax = load_taxonomy(ROOT / "data" / "uio-starter.taxonomy")
    line = (ROOT / "data" / "worked-example.jsonl").read_text(encoding="utf-8")
    record = json.loads(line)

    print(f"user {record['user_id']}, image {record['image_id']}")
    for pred in record["predictions"]:
        label = pred["label"]
        print(f"  {label:<10} p={pred['prob']:.2f}  ->  {topic_of_instance(tax, label)}")

    block = load_score_cells(line, LabelIndex(tax), 5).pop_block(record["user_id"])
    topic_cells = [(TOPICS[pos], p, c) for pos, p, c in block.rows[0] if pos < N_TOPICS]
    print("\nimage-level probability scores:", {t: p for t, p, _ in topic_cells if p > 0})
    print("image-level occurrence scores: ", {t: c / block.k for t, _, c in topic_cells if c})

    (profile,) = profile_prefixes(block, (1,), mechanism="occ")
    print("\nuser vector (prob):", {t: round(s, 4) for t, s in nonzero(profile.v_prob).items()})
    print("user vector (occ): ", nonzero(profile.v_occ))
    print("predicted topic:   ", profile.predicted_topic)


if __name__ == "__main__":
    main()
