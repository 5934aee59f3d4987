"""Image-level topic scoring: probability-based and occurrence-based rows.

Each prediction record becomes two length-24 rows. The probability row sums
classifier probabilities per topic; the occurrence row counts how many of the
top-k labels map to each topic and divides by k (the configured top-k, not the
record length, so short records lose mass to ``unmapped``). Mass belonging to
labels with no topic ancestor is tracked in ``unmapped_mass`` instead of being
renormalized away, so coverage gaps of the taxonomy stay visible downstream.

``score_block`` scores one user's records once into exact per-image rows
(a ScoreBlock); every other view of the image scores (the row objects below,
the score CSVs, user profiles at every sweep point) is derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .ingest import DEFAULT_TOP_K, PredictionRecord
from .taxonomy import N_TOPICS, TOPICS, Taxonomy


@dataclass(frozen=True)
class TopicDistribution:
    """Nonnegative scores indexed by the canonical topic order."""

    scores: tuple[float, ...]
    unmapped_mass: float = 0.0

    def __post_init__(self):
        if len(self.scores) != N_TOPICS:
            raise ValueError(f"expected {N_TOPICS} topic scores, got {len(self.scores)}")
        if any(s < 0 for s in self.scores) or self.unmapped_mass < 0:
            raise ValueError("topic scores and unmapped mass must be nonnegative")

    def total(self) -> float:
        return sum(self.scores) + self.unmapped_mass

    def topic_score(self, topic: str) -> float:
        return self.scores[TOPICS.index(topic)]

    def as_dict(self) -> dict[str, float]:
        d = {name: self.scores[i] for i, name in enumerate(TOPICS)}
        d["unmapped"] = self.unmapped_mass
        return d

    def nonzero(self) -> dict[str, float]:
        return {name: s for name, s in zip(TOPICS, self.scores) if s > 0}


@dataclass(frozen=True)
class ImageLevelMatrices:
    """Per-image topic rows for one user, aligned with image_ids."""

    image_ids: tuple[str, ...]
    prob_rows: tuple[TopicDistribution, ...]
    occ_rows: tuple[TopicDistribution, ...]

    def __post_init__(self):
        if not (len(self.image_ids) == len(self.prob_rows) == len(self.occ_rows)):
            raise ValueError("image_ids, prob_rows and occ_rows must have equal length")

    def n_images(self) -> int:
        return len(self.image_ids)


@dataclass(frozen=True)
class ScoreBlock:
    """Exact image-level scores of one user's records, in record order.

    Row j describes image j in N_TOPICS + 1 cells, the last one for unmapped
    mass. ``prob[j]`` holds the math.fsum of the image's label probabilities
    per topic; ``counts[j]`` its integer label counts, where the labels a
    short record lacks (k minus its length) count as unmapped.
    """

    user_id: str
    image_ids: tuple[str, ...]
    k: int
    prob: tuple[tuple[float, ...], ...]
    counts: tuple[tuple[int, ...], ...]

    def n_images(self) -> int:
        return len(self.image_ids)

    def matrices(self) -> ImageLevelMatrices:
        """The block as TopicDistribution rows; occurrence cells are counts / k."""
        k = self.k
        return ImageLevelMatrices(
            image_ids=self.image_ids,
            prob_rows=tuple(
                TopicDistribution(scores=row[:N_TOPICS], unmapped_mass=row[N_TOPICS])
                for row in self.prob
            ),
            occ_rows=tuple(
                TopicDistribution(
                    scores=tuple(c / k for c in row[:N_TOPICS]),
                    unmapped_mass=row[N_TOPICS] / k,
                )
                for row in self.counts
            ),
        )


def _score_record(
    predictions: tuple[tuple[str, float], ...], position: Callable[[str], int], k: int
) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """(prob row, count row) of one image; see ScoreBlock."""
    if k < len(predictions):
        raise ValueError(
            f"divisor k={k} is smaller than the record's {len(predictions)} predictions"
        )
    counts = [0] * (N_TOPICS + 1)
    counts[N_TOPICS] = k - len(predictions)
    per_topic: dict[int, list[float]] = {}
    for label, prob in predictions:
        pos = position(label)
        counts[pos] += 1
        bucket = per_topic.get(pos)
        if bucket is None:
            per_topic[pos] = [prob]
        else:
            bucket.append(prob)
    row = [0.0] * (N_TOPICS + 1)
    for pos, bucket in per_topic.items():
        row[pos] = math.fsum(bucket)
    return tuple(row), tuple(counts)


def score_block(
    records: Sequence[PredictionRecord], tax: Taxonomy, k: int = DEFAULT_TOP_K
) -> ScoreBlock:
    """Score every record of one user once, preserving record order.

    Sums use math.fsum, so each cell is exactly invariant to prediction order.
    """
    users = {rec.user_id for rec in records}
    if len(users) > 1:
        raise ValueError(f"records span multiple users: {sorted(users)}")
    position = tax.label_index.position
    rows = [_score_record(rec.predictions, position, k) for rec in records]
    return ScoreBlock(
        user_id=records[0].user_id if records else "",
        image_ids=tuple(rec.image_id for rec in records),
        k=k,
        prob=tuple(prob for prob, _ in rows),
        counts=tuple(counts for _, counts in rows),
    )


def score_image_prob(record: PredictionRecord, tax: Taxonomy) -> TopicDistribution:
    """Probability scoring: per-topic sum of prediction probabilities."""
    row, _ = _score_record(record.predictions, tax.label_index.position, len(record.predictions))
    return TopicDistribution(scores=row[:N_TOPICS], unmapped_mass=row[N_TOPICS])


def score_image_occ(record: PredictionRecord, tax: Taxonomy, k: int = DEFAULT_TOP_K) -> TopicDistribution:
    """Occurrence scoring: per-topic label counts over a fixed divisor k."""
    return score_block([record], tax, k).matrices().occ_rows[0]


def build_matrices(
    records: list[PredictionRecord], tax: Taxonomy, k: int = DEFAULT_TOP_K
) -> ImageLevelMatrices:
    """Score every record of one user, preserving record order."""
    return score_block(records, tax, k).matrices()
