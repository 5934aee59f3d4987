"""Topic correlation across users: Pearson matrix with bands, co-interest index.

Both matrices are 24x24 over a few hundred to a few thousand user vectors, so
they are computed in plain Python: Pearson from exactly summed (``fsum``)
cross products of centred columns, co-interest from one integer bitmask of
interested users per topic. A topic's column is an ``array("d")`` cut from
the users' packed vectors by ``profiling.topic_columns``, which owns their
layout, and a centred column is an array too, so no column holds float objects.
"""

from __future__ import annotations

import math
import operator
from array import array
from typing import NamedTuple, Sequence

from .errors import EmptyInputError
from .profiling import UserProfile, topic_columns

BAND_HIGH_POSITIVE = "high-positive"
BAND_POSITIVE = "positive"
BAND_NEGATIVE = "negative"
BAND_HIGH_NEGATIVE = "high-negative"
BAND_UNDEFINED = "undefined"


def band_of(rho: float) -> str:
    """Correlation band. Intervals: (0.5,1] / (0,0.5] / [-0.5,0] / [-1,-0.5)."""
    if math.isnan(rho):
        return BAND_UNDEFINED
    if rho > 0.5:
        return BAND_HIGH_POSITIVE
    if rho > 0.0:
        return BAND_POSITIVE
    if rho >= -0.5:
        return BAND_NEGATIVE
    return BAND_HIGH_NEGATIVE


class CorrelationMatrix(NamedTuple):
    """24x24 Pearson coefficients (NaN where undefined) and their bands."""

    rho: tuple[tuple[float, ...], ...]
    bands: tuple[tuple[str, ...], ...]

    def value(self, i: int, j: int) -> float | None:
        v = self.rho[i][j]
        return None if math.isnan(v) else v


def _ratio(cross: float, denom: float) -> float:
    """cross / denom clipped to [-1, 1]; a zero denominator (underflow) as IEEE division."""
    if denom:
        return max(-1.0, min(1.0, cross / denom))
    return math.copysign(1.0, cross) if cross else math.nan


def pearson_matrix(profiles: Sequence[UserProfile], mechanism: str) -> CorrelationMatrix:
    """Sample Pearson coefficients between topic score columns across users.

    Columns that are exactly constant have no variance; their rows and columns
    are undefined (NaN) rather than forced to zero. The diagonal is exactly 1
    wherever the column varies. Cross products are summed exactly and the
    upper triangle is mirrored, so the matrix is symmetric by construction.
    """
    n = len(profiles)
    if n < 2:
        raise EmptyInputError(f"correlation needs at least 2 profiled users, got {n}")
    columns = topic_columns([p.vector(mechanism) for p in profiles])
    m = len(columns)
    varying = [j for j, col in enumerate(columns) if col.count(col[0]) != n]
    centred, spread = {}, {}
    for j in varying:
        mean = math.fsum(columns[j]) / n
        cj = centred[j] = array("d", [v - mean for v in columns[j]])
        spread[j] = math.sqrt(math.fsum(map(operator.mul, cj, cj)))

    rho = [[math.nan] * m for _ in range(m)]
    for a, i in enumerate(varying):
        rho[i][i] = 1.0
        ci = centred[i]
        for j in varying[a + 1:]:
            cross = math.fsum(map(operator.mul, ci, centred[j]))
            rho[i][j] = rho[j][i] = _ratio(cross, spread[i] * spread[j])

    rows = tuple(tuple(row) for row in rho)
    bands = tuple(tuple(band_of(v) for v in row) for row in rows)
    return CorrelationMatrix(rho=rows, bands=bands)


def co_interest_matrix(
    profiles: Sequence[UserProfile], tau: float, mechanism: str
) -> list[list[float]]:
    """Jaccard-style ratio of users interested in both topics over either.

    A user counts as interested in a topic when their score is >= tau.
    Entries with no interested user on either side are 0. Each topic's
    interested users are one integer bitmask (bit r for user r), so a pair's
    shared count is the popcount of an AND. ``tau`` is taken as
    ``RunConfig.validate`` left it, in (0, 1].
    """
    if not profiles:
        raise EmptyInputError("co-interest needs at least 1 profiled user, got 0")
    masks = []
    for col in topic_columns([p.vector(mechanism) for p in profiles]):
        mask = 0
        for r, v in enumerate(col):
            if v >= tau:
                mask |= 1 << r
        masks.append(mask)
    per_topic = [mask.bit_count() for mask in masks]
    matrix = []
    for mi, per_i in zip(masks, per_topic):
        row = []
        for mj, per_j in zip(masks, per_topic):
            both = (mi & mj).bit_count()
            either = per_i + per_j - both
            row.append(both / either if either else 0.0)
        matrix.append(row)
    return matrix
