"""Image-level topic scoring: probability-based and occurrence-based rows.

Each prediction record becomes two length-24 rows. The probability row sums
classifier probabilities per topic; the occurrence row counts how many of the
top-k labels map to each topic and divides by k (the configured top-k, not the
record length, so short records lose mass to ``unmapped``). Mass belonging to
labels with no topic ancestor is tracked in ``unmapped_mass`` instead of being
renormalized away, so coverage gaps of the taxonomy stay visible downstream.

Each image is scored once into exact sparse cells: an image touches at most
k + 1 of the 25 positions (24 topics plus unmapped), so it holds one
``(position, prob, count)`` cell per position it touches, in position order,
and every other cell is zero. A user's cell rows form a ScoreBlock, and every
other view of the image scores (the row objects below, the score CSVs, user
profiles at every sweep point) is derived from it. An image's cells come from
its (position, prob) pairs as run-length sums: the pairs are sorted by
position and each run of one position becomes one cell.

The pipeline path, ``load_score_cells``, scores each prediction line into
its cells as it is read and keeps no PredictionRecord: the dataset it returns
holds cells only. The loader's per-load label memo hands it each label's
position, so ``LabelIndex.position`` runs once per distinct label of a load.
``score_block`` gives the same blocks from records, for the fixture, the
scripts and the tests. Cells use ``fsum`` and counts, so they do not depend
on the order of an image's predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Iterable, Sequence

from .ingest import DEFAULT_TOP_K, PredictionRecord, group_predictions
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


Cell = tuple[int, float, int]  # (position, fsum of probabilities, label count)


@dataclass(frozen=True)
class ScoreBlock:
    """Exact image-level scores of one user's records, in record order.

    ``rows[j]`` describes image j over N_TOPICS + 1 positions, the last one
    for unmapped mass, by one ``(position, prob, count)`` cell per position
    its labels touch, in position order; all other cells are zero. ``prob``
    is the math.fsum of those labels' probabilities and ``count`` their
    number. The labels a short record lacks (k minus its length) count as
    unmapped.
    """

    user_id: str
    image_ids: tuple[str, ...]
    k: int
    rows: tuple[tuple[Cell, ...], ...]

    def n_images(self) -> int:
        return len(self.image_ids)

    def matrices(self) -> ImageLevelMatrices:
        """The block as dense TopicDistribution rows; occurrence cells are counts / k."""
        k = self.k
        prob_rows, occ_rows = [], []
        for row in self.rows:
            prob = [0.0] * (N_TOPICS + 1)
            occ = [0.0] * (N_TOPICS + 1)
            for pos, p, c in row:
                prob[pos] = p
                occ[pos] = c / k
            prob_rows.append(_distribution(prob))
            occ_rows.append(_distribution(occ))
        return ImageLevelMatrices(
            image_ids=self.image_ids, prob_rows=tuple(prob_rows), occ_rows=tuple(occ_rows)
        )


def _distribution(cells: list[float]) -> TopicDistribution:
    return TopicDistribution(scores=tuple(cells[:N_TOPICS]), unmapped_mass=cells[N_TOPICS])


_POSITION = itemgetter(0)


def _score_record(pairs: list[tuple[int, float]], k: int) -> tuple[Cell, ...]:
    """Sparse cells of one image from its (position, prob) pairs; see ScoreBlock.

    Sorts ``pairs`` by position in place and fsums each run of one position.
    The sort is stable, so every run keeps its line order.
    """
    missing = k - len(pairs)
    if missing < 0:
        raise ValueError(
            f"divisor k={k} is smaller than the record's {len(pairs)} predictions"
        )
    pairs.sort(key=_POSITION)
    cells = []
    pos, probs = -1, []
    for p, prob in pairs:
        if p == pos:
            probs.append(prob)
        else:
            if probs:
                cells.append((pos, math.fsum(probs), len(probs)))
            pos, probs = p, [prob]
    if pos == N_TOPICS:  # the unmapped run sorts last
        cells.append((pos, math.fsum(probs), len(probs) + missing))
    else:
        if probs:
            cells.append((pos, math.fsum(probs), len(probs)))
        if missing:
            cells.append((N_TOPICS, 0.0, missing))
    return tuple(cells)


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
    return ScoreBlock(
        user_id=records[0].user_id if records else "",
        image_ids=tuple(rec.image_id for rec in records),
        k=k,
        rows=tuple(
            _score_record([(position(label), prob) for label, prob in rec.predictions], k)
            for rec in records
        ),
    )


@dataclass
class ScoredDataset:
    """Each image's cells grouped per user (file order), plus optional labels.

    ``cells[user]`` maps each image id to its cells, in file order.
    ``pop_block`` takes a user's cells out as a ScoreBlock, so a pass over the
    users frees each user's cells once it is done with them.
    """

    k: int
    cells: dict[str, dict[str, tuple[Cell, ...]]] = field(default_factory=dict)
    labels: dict[str, str] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def users(self) -> list[str]:
        return list(self.cells)

    def n_images(self) -> int:
        return sum(map(len, self.cells.values()))

    def pop_block(self, user_id: str) -> ScoreBlock:
        images = self.cells.pop(user_id)
        return ScoreBlock(
            user_id=user_id, image_ids=tuple(images), k=self.k, rows=tuple(images.values())
        )


def load_score_cells(
    source: str | Iterable[str],
    tax: Taxonomy,
    k_max: int = DEFAULT_TOP_K,
    skip_bad: bool = False,
    listed: dict[tuple[str, str], int] | None = None,
) -> ScoredDataset:
    """Prediction lines scored straight into cells, with k = ``k_max``.

    The lines, checks, errors and warnings are those of ``load_predictions``,
    and each user's block equals ``score_block`` of that user's records.
    """
    cells, warnings = group_predictions(
        source, partial(_score_record, k=k_max), k_max, skip_bad, listed,
        key=tax.label_index.position,
    )
    return ScoredDataset(k=k_max, cells=cells, warnings=warnings)


def score_image_prob(record: PredictionRecord, tax: Taxonomy) -> TopicDistribution:
    """Probability scoring: per-topic sum of prediction probabilities."""
    return score_block([record], tax, len(record.predictions)).matrices().prob_rows[0]


def score_image_occ(record: PredictionRecord, tax: Taxonomy, k: int = DEFAULT_TOP_K) -> TopicDistribution:
    """Occurrence scoring: per-topic label counts over a fixed divisor k."""
    return score_block([record], tax, k).matrices().occ_rows[0]


def build_matrices(
    records: list[PredictionRecord], tax: Taxonomy, k: int = DEFAULT_TOP_K
) -> ImageLevelMatrices:
    """Score every record of one user, preserving record order."""
    return score_block(records, tax, k).matrices()
