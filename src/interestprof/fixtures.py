"""Seeded synthetic dataset generator for desk-scale validation runs.

Each generated user is labeled with one topic; each of their images carries
top-k labels drawn from that topic's instance vocabulary with probability
``purity`` and from a uniformly random other topic otherwise. Identical
(spec, seed) arguments reproduce the dataset byte for byte.
"""

from __future__ import annotations

import random
from typing import Mapping

from .errors import ValidationFailure
from .config import DEFAULT_TOP_K
from .ingest import PredictionRecord, ProfileDataset
from .taxonomy import TOPICS, Taxonomy


def topic_instance_table(tax: Taxonomy) -> dict[str, list[str]]:
    """Instance terms per topic, in taxonomy file order."""
    table: dict[str, list[str]] = {t: [] for t in TOPICS}
    for term, concept in tax.instances.items():
        topic = tax.nearest_topic[concept]
        if topic in table:
            table[topic].append(term)
    return table


def generate_fixture(
    users_per_topic: int | Mapping[str, int],
    images_per_user: int,
    purity: float,
    seed: int,
    tax: Taxonomy,
    top_k: int = DEFAULT_TOP_K,
) -> ProfileDataset:
    """Labeled synthetic prediction dataset, deterministic under (spec, seed).

    ``users_per_topic`` is either one count applied to all 24 topics or an
    explicit topic -> count mapping. Probabilities are drawn descending in
    (0, 1). Raises when a needed topic has no instances in the taxonomy.
    """
    if isinstance(users_per_topic, int):
        counts = {t: users_per_topic for t in TOPICS}
    else:
        unknown = set(users_per_topic) - set(TOPICS)
        if unknown:
            raise ValidationFailure(f"unknown topics in fixture spec: {sorted(unknown)}")
        counts = {t: users_per_topic.get(t, 0) for t in TOPICS}
    if any(c < 0 for c in counts.values()):
        raise ValidationFailure("per-topic user counts must be nonnegative")
    if images_per_user < 1:
        raise ValidationFailure("images_per_user must be at least 1")
    if not 0.0 <= purity <= 1.0:
        raise ValidationFailure(f"purity must be in [0, 1], got {purity}")

    table = topic_instance_table(tax)
    label_topics = [t for t in TOPICS if counts[t] > 0]
    for topic in label_topics:
        if not table[topic]:
            raise ValidationFailure(f"topic '{topic}' has no instances in the taxonomy")
    with_instances = [t for t in TOPICS if table[t]]

    rng = random.Random(seed)
    records: dict[str, list[PredictionRecord]] = {}
    labels: dict[str, str] = {}
    for topic in label_topics:
        others = [t for t in with_instances if t != topic]
        if purity < 1.0 and not others:
            raise ValidationFailure(
                f"impure draws for '{topic}' need another topic with instances"
            )
        for u in range(counts[topic]):
            user_id = f"user_{topic.lower()}_{u + 1:03d}"
            labels[user_id] = topic
            user_records = []
            for j in range(images_per_user):
                drawn = []
                for _ in range(top_k):
                    t = topic if rng.random() < purity else rng.choice(others)
                    drawn.append(rng.choice(table[t]))
                probs = sorted((rng.random() for _ in range(top_k)), reverse=True)
                user_records.append(
                    PredictionRecord(
                        user_id=user_id,
                        image_id=f"img_{j + 1:03d}",
                        predictions=tuple(zip(drawn, probs)),
                    )
                )
            records[user_id] = user_records
    return ProfileDataset(records=records, labels=labels, warnings=[])
