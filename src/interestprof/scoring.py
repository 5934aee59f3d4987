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

This module owns the cell format and its packed layout; the user vectors built
from cells are ``profiling.TopicDistribution``. ``ingest.load_score_cells``
reads prediction lines and hands each kept image's (position, prob) pairs to
``ScoredDataset.add``, which scores them into cells with ``pack_cells`` and
packs them into one record of 13 bytes a cell (``struct`` ``"<BdI"``: the
position as one byte, the probability as an IEEE double, the count as an
unsigned 32-bit int, so k is at most ``config.MAX_TOPK``). ``add`` appends the
record to one ``bytearray`` per user, in place, and keeps the image's cell
count under its id: one buffer per user and no float object at all, 39 bytes
for an image of three cells. ``ScoredDataset.pop_block`` unpacks a user's
buffer with one ``iter_unpack`` and cuts it into rows by the counts, and
``"d"`` keeps every bit of a double, -0.0 and subnormals included. Cells use
``fsum`` and counts, so they do not depend on the order of an image's
predictions.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import itemgetter
from struct import Struct
from typing import NamedTuple

from .taxonomy import N_TOPICS


# One image's cells: (position, fsum of probabilities, label count) each.
Cells = tuple[tuple[int, float, int], ...]


class ScoreBlock(NamedTuple):
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
_CELL_SIZE = _PACKED[1].size
_unpack_cells = _PACKED[1].iter_unpack


class ScoredDataset:
    """Each image's cells grouped per user (file order).

    ``add`` packs an image's cells (see the module docstring) onto
    ``packed[user]``, so it holds the user's images' cells back to back in
    file order, and ``cells[user]`` maps each of those image ids to its number
    of cells, in the same order. ``pop_block`` takes a user's cells out as a
    ScoreBlock of cell tuples, unpacking the buffer once, so a pass over the
    users frees each user's cells once it is done with them.
    """

    def __init__(self, k: int):
        self.k = k
        self.cells: dict[str, dict[str, int]] = {}
        self.packed: dict[str, bytearray] = {}

    def add(self, user_id: str, image_id: str, pairs: list[tuple[int, float]]) -> None:
        """Score one image from its (position, prob) pairs (see ``pack_cells``)
        and append its cells to its user's."""
        record = pack_cells(pairs, self.k)
        images = self.cells.get(user_id)
        if images is None:
            images = self.cells[user_id] = {}
            self.packed[user_id] = bytearray()
        # += extends the buffer in place; bytes + bytes would copy it per image.
        self.packed[user_id] += record
        images[image_id] = len(record) // _CELL_SIZE

    def users(self) -> list[str]:
        return list(self.cells)

    def n_images(self) -> int:
        return sum(map(len, self.cells.values()))

    def pop_block(self, user_id: str) -> ScoreBlock:
        counts = self.cells.pop(user_id)
        # Each row is a slice of the user's cells, so it is made at its size;
        # tuple() of an iterator without a length is made larger, then cut.
        cells = tuple(_unpack_cells(self.packed.pop(user_id)))
        ends = accumulate(counts.values())
        return ScoreBlock(
            user_id=user_id, image_ids=tuple(counts), k=self.k,
            rows=tuple([cells[end - n:end] for n, end in zip(counts.values(), ends)]),
        )
