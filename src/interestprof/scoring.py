"""Image-level topic scoring: probability-based and occurrence-based cells.

Each image is scored under two mechanisms. Its probability scores sum
classifier probabilities per topic; its occurrence scores count how many of
the top-k labels map to each topic, over k (the configured top-k, not the
number of predictions, so short lines lose mass to ``unmapped``). Mass
belonging to labels with no topic ancestor is kept at the unmapped position
instead of being renormalized away, so coverage gaps of the taxonomy stay
visible downstream.

Each image is scored once into exact sparse cells: an image touches at most
k + 1 of the 25 positions (24 topics plus unmapped), so it holds one
``(position, prob, count)`` cell per position it touches, in position order,
and every other cell is zero. A user's cell rows form a ScoreBlock, and every
other view of the image scores (the score CSVs, user profiles at every sweep
point) is derived from it. An image's cells come from its (position, prob)
pairs as run-length sums: the pairs are sorted by position and each run of
one position becomes one cell.

This module holds the cell format only. ``ingest.load_score_cells`` reads
prediction lines and hands each image's (position, prob) pairs to
``pack_cells``, which scores them into cells and packs them into one ``bytes``
record of 13 bytes a cell (``struct`` ``"<BdI"``: the position as one byte,
the probability as an IEEE double, the count as an unsigned 32-bit int, so k
is at most ``config.MAX_TOPK``). That is one object per image and no float
object at all, about 72 bytes for an image of three cells.
``ScoredDataset.pop_block`` unpacks a user's records into cell tuples once,
and ``"d"`` keeps every bit of a double, -0.0 and subnormals included. Cells
use ``fsum`` and counts, so they do not depend on the order of an image's
predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from struct import Struct

from .taxonomy import N_TOPICS, TOPICS, topic_index


@dataclass(frozen=True, slots=True)
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
        return self.scores[topic_index(topic)]

    def as_dict(self) -> dict[str, float]:
        d = {name: self.scores[i] for i, name in enumerate(TOPICS)}
        d["unmapped"] = self.unmapped_mass
        return d

    def nonzero(self) -> dict[str, float]:
        return {name: s for name, s in zip(TOPICS, self.scores) if s > 0}


# One image's cells: (position, fsum of probabilities, label count) each.
Cells = tuple[tuple[int, float, int], ...]


@dataclass(frozen=True)
class ScoreBlock:
    """Exact image-level scores of one user's images, in file order.

    ``rows[j]`` describes image j over N_TOPICS + 1 positions, the last one
    for unmapped mass, by one ``(position, prob, count)`` cell per position
    its labels touch, in position order; all other cells are zero.
    ``prob`` is the math.fsum of those labels' probabilities and ``count``
    their number. The labels a short line lacks (k minus its predictions)
    count as unmapped.
    """

    user_id: str
    image_ids: tuple[str, ...]
    k: int
    rows: tuple[Cells, ...]

    def n_images(self) -> int:
        return len(self.image_ids)


_POSITION = itemgetter(0)


def pack_cells(pairs: list[tuple[int, float]], k: int) -> bytes:
    """The packed cells of one image from its (position, prob) pairs; see ScoreBlock.

    Sorts ``pairs``, at most k of them, by position in place and fsums each
    run of one position. The sort is stable, so every run keeps its line order.
    """
    missing = k - len(pairs)
    pairs.sort(key=_POSITION)
    flat: list[int | float] = []
    pos, probs = -1, []
    for p, prob in pairs:
        if p == pos:
            probs.append(prob)
        else:
            if probs:
                flat += (pos, math.fsum(probs), len(probs))
            pos, probs = p, [prob]
    if pos == N_TOPICS:  # the unmapped run sorts last
        flat += (pos, math.fsum(probs), len(probs) + missing)
    else:
        if probs:
            flat += (pos, math.fsum(probs), len(probs))
        if missing:
            flat += (N_TOPICS, 0.0, missing)
    return _PACKED[len(flat) // 3].pack(*flat)


# One image's cells packed as "<BdI" per cell, by cell count; an image touches
# at most N_TOPICS + 1 positions.
_PACKED = tuple(Struct("<" + "BdI" * n) for n in range(N_TOPICS + 2))
_unpack_cells = _PACKED[1].iter_unpack


@dataclass
class ScoredDataset:
    """Each image's cells grouped per user (file order), and the load's warnings.

    ``cells[user]`` maps each image id to its cells packed into one bytes
    record (see the module docstring), in file order. ``pop_block`` takes a
    user's cells out as a ScoreBlock of cell tuples, unpacking each record
    once, so a pass over the users frees each user's cells once it is done
    with them.
    """

    k: int
    cells: dict[str, dict[str, bytes]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def users(self) -> list[str]:
        return list(self.cells)

    def n_images(self) -> int:
        return sum(map(len, self.cells.values()))

    def pop_block(self, user_id: str) -> ScoreBlock:
        images = self.cells.pop(user_id)
        return ScoreBlock(
            user_id=user_id, image_ids=tuple(images), k=self.k,
            rows=tuple([tuple(_unpack_cells(b)) for b in images.values()]),
        )

