"""User-level aggregation of image rows into normalized interest vectors.

The probability mechanism column-sums the per-image probability rows and
divides by the grand total, so the user vector is a distribution. The
occurrence mechanism gives each image one unit of mass, split evenly across
the topics where its occurrence row attains its maximum (fractional credit on
ties, exact through integer votes); images with all-zero rows push their mass
into ``unmapped``. Both vectors therefore sum to 1 including unmapped mass.

Every view is derived from one ScoreBlock per user: ``profile_prefixes``
builds the full profile and each sweep point from prefixes of the block, in
one running pass over its sparse rows of ``(position, prob, count)`` cells.
The pass keeps each column's nonzero probabilities and the integer vote
totals so far, and reads off a prefix size when it reaches it: ``fsum`` per
column (the nonzeros sum exactly to the dense column's fsum, zero sums
included, which fsum returns as +0.0) and the vote totals over ``scale * n``.
A topic with no mass reads the one shared ``0.0`` instead of a new float from
dividing: it would be +0.0 either way, and most of a profile's topics are
zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .config import MECHANISMS
from .errors import EmptyInputError
from .scoring import Cells, ScoreBlock, TopicDistribution
from .taxonomy import N_TOPICS, TOPICS


@dataclass(frozen=True, slots=True)
class UserProfile:
    user_id: str
    n_images: int
    v_prob: TopicDistribution
    v_occ: TopicDistribution
    mechanism: str
    predicted_topic: str | None  # None only for a sweep prefix with no mapped mass
    ties: tuple[str, ...] = ()  # tied argmax topics, empty when the argmax is unique

    def vector(self, mechanism: str | None = None) -> TopicDistribution:
        m = mechanism or self.mechanism
        if m not in MECHANISMS:
            raise ValueError(f"unknown mechanism '{m}'")
        return self.v_prob if m == "prob" else self.v_occ


def _vote_scale(max_ties: int) -> int:
    """Votes per image: divisible by every possible number of tied topics."""
    return math.lcm(*range(1, min(max_ties, N_TOPICS) + 1))


def _prefix_vectors(
    rows: Iterable[Cells], sizes: Collection[int], scale: int
) -> dict[int, tuple[TopicDistribution, TopicDistribution]]:
    """(v_prob, v_occ) over the first n rows for each n in sizes, in one pass.

    Rows hold sparse ``(position, prob, count)`` cells. Probability columns
    are fsums normalized by their grand fsum; with no mass at all, the whole
    unit is unmapped. Each image casts ``scale`` occurrence votes, split
    evenly over the topics where its count peaks, or to unmapped when no
    topic has a count. Vote totals over ``scale * n`` are integer true
    divisions, correctly rounded, so each cell is the float of the exact
    fraction of credit.
    """
    last = max(sizes, default=0)
    columns: list[list[float]] = [[] for _ in range(N_TOPICS + 1)]
    votes = [0] * (N_TOPICS + 1)
    vectors = {}
    for n, row in enumerate(rows, start=1):
        peak = 0
        tied: list[int] = []
        for pos, prob, count in row:
            if prob:
                columns[pos].append(prob)
            if count and pos < N_TOPICS:
                if count > peak:
                    peak, tied = count, [pos]
                elif count == peak:
                    tied.append(pos)
        if tied:
            share = scale // len(tied)
            for pos in tied:
                votes[pos] += share
        else:
            votes[N_TOPICS] += scale
        if n in sizes:
            vectors[n] = (_prob_vector(columns), _occ_vector(votes, scale * n))
            if n == last:
                break
    return vectors


def _prob_vector(columns: Sequence[Sequence[float]]) -> TopicDistribution:
    sums = [math.fsum(col) for col in columns]
    grand = math.fsum(sums)
    if grand == 0.0:
        return TopicDistribution(scores=(0.0,) * N_TOPICS, unmapped_mass=1.0)
    return TopicDistribution(
        scores=tuple([c / grand if c else 0.0 for c in sums[:N_TOPICS]]),
        unmapped_mass=sums[N_TOPICS] / grand,
    )


def _occ_vector(votes: Sequence[int], denom: int) -> TopicDistribution:
    return TopicDistribution(
        scores=tuple([v / denom if v else 0.0 for v in votes[:N_TOPICS]]),
        unmapped_mass=votes[N_TOPICS] / denom,
    )


def argmax_topics(v: TopicDistribution) -> tuple[str, ...]:
    """Topics attaining the maximum score, in canonical order; empty if all zero."""
    peak = max(v.scores)
    if peak <= 0.0:
        return ()
    return tuple(TOPICS[i] for i, s in enumerate(v.scores) if s == peak)


def profile_prefixes(
    block: ScoreBlock, sizes: Sequence[int], mechanism: str = "occ"
) -> list[UserProfile]:
    """Profiles of one user over the first n images of a score block, per n in sizes.

    An n beyond the block's length means all its images. A prefix with no
    positive score under the mechanism gets ``predicted_topic`` None.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism '{mechanism}'")
    total = block.n_images()
    if not total:
        raise EmptyInputError("cannot profile a user with zero records")
    if any(n < 1 for n in sizes):
        raise ValueError(f"prefix sizes must be positive: {sizes}")
    vectors = _prefix_vectors(block.rows, {min(n, total) for n in sizes}, _vote_scale(block.k))
    by_size: dict[int, UserProfile] = {}
    for n, (v_prob, v_occ) in vectors.items():
        best = argmax_topics(v_prob if mechanism == "prob" else v_occ)
        by_size[n] = UserProfile(
            user_id=block.user_id,
            n_images=n,
            v_prob=v_prob,
            v_occ=v_occ,
            mechanism=mechanism,
            predicted_topic=best[0] if best else None,
            ties=best if len(best) > 1 else (),
        )
    return [by_size[min(n, total)] for n in sizes]
