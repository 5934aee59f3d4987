"""User-level aggregation of image rows into normalized interest vectors.

A user's vectors are TopicDistributions, one per mechanism, and the run's
mechanism picks the one a UserProfile's predicted topic comes from. The
probability mechanism column-sums the per-image probability rows and divides
by the grand total, so the user vector is a distribution. The occurrence
mechanism gives each image one unit of mass, split evenly across the topics
where its occurrence row attains its maximum (fractional credit on ties, exact
through integer votes); images with all-zero rows push their mass into
``unmapped``. Both vectors therefore sum to 1 including unmapped mass.

Every view is derived from one ScoreBlock per user: ``profile_prefixes``
builds the full profile and each sweep point from prefixes of the block, in
one running pass over its sparse rows of ``(position, prob, count)`` cells.
The pass keeps each column's nonzero probabilities and the integer vote
totals so far, and reads off a prefix size when it reaches it: ``fsum`` per
column (the nonzeros sum exactly to the dense column's fsum, zero sums
included, which fsum returns as +0.0) and the vote totals over ``scale * n``.

Profiles outlive the pass, so a vector holds no float objects: its 24 scores
and its unmapped mass are one packed record of 25 doubles (``struct``
``"=25d"``, 200 bytes, native byte order). ``struct`` and ``array`` keep every
bit of a double, so a value read back is the value computed. This module
owns the record layout: ``values`` reads all 25 at once, and
``topic_columns`` cuts many vectors' records into one ``array("d")`` per
topic, a topic's values across users (correlation, the ROC series).
"""

from __future__ import annotations

import math
from array import array
from struct import Struct
from typing import Collection, Iterable, NamedTuple, Sequence

from .errors import EmptyInputError
from .scoring import Cells, ScoreBlock
from .taxonomy import N_TOPICS, TOPICS


# A vector's record: the 24 topic scores in canonical order, then the unmapped mass.
_RECORD_WIDTH = N_TOPICS + 1
_RECORD = Struct(f"={_RECORD_WIDTH}d")
_SCORES = Struct(f"={N_TOPICS}d")


class TopicDistribution:
    """Nonnegative scores indexed by the canonical topic order, and the unmapped
    mass, held as one packed record (``record``, read-only)."""

    __slots__ = ("record",)

    def __init__(self, scores: Sequence[float], unmapped_mass: float = 0.0):
        if len(scores) != N_TOPICS:
            raise ValueError(f"expected {N_TOPICS} topic scores, got {len(scores)}")
        # "not >= 0" holds for NaN too, which "< 0" lets through.
        if any(not s >= 0 for s in scores) or not unmapped_mass >= 0:
            raise ValueError("topic scores and unmapped mass must be nonnegative, not NaN")
        self.record = _RECORD.pack(*scores, unmapped_mass)

    @property
    def scores(self) -> tuple[float, ...]:
        return _SCORES.unpack_from(self.record)

    @property
    def unmapped_mass(self) -> float:
        return self.values()[N_TOPICS]

    def values(self) -> tuple[float, ...]:
        """The 24 scores, then the unmapped mass."""
        return _RECORD.unpack(self.record)

    def as_dict(self) -> dict[str, float]:
        return dict(zip((*TOPICS, "unmapped"), self.values()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.values() == other.values()

    def __hash__(self):
        return hash(self.values())


def topic_columns(vectors: Iterable[TopicDistribution]) -> list[array]:
    """Each topic's scores across the vectors, in vector order: 24 arrays of
    doubles, in TOPICS order."""
    values = array("d", b"".join([v.record for v in vectors]))
    return [values[j::_RECORD_WIDTH] for j in range(N_TOPICS)]


class UserProfile(NamedTuple):
    user_id: str
    n_images: int
    v_prob: TopicDistribution
    v_occ: TopicDistribution
    mechanism: str
    predicted_topic: str | None  # None only for a sweep prefix with no mapped mass
    ties: tuple[str, ...] = ()  # tied argmax topics, empty when the argmax is unique

    def vector(self, mechanism: str) -> TopicDistribution:
        """``v_prob`` or ``v_occ``; any other mechanism is an AttributeError."""
        return getattr(self, "v_" + mechanism)


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
        scores=[c / grand for c in sums[:N_TOPICS]],
        unmapped_mass=sums[N_TOPICS] / grand,
    )


def _occ_vector(votes: Sequence[int], denom: int) -> TopicDistribution:
    return TopicDistribution(
        scores=[v / denom for v in votes[:N_TOPICS]],
        unmapped_mass=votes[N_TOPICS] / denom,
    )


def argmax_topics(v: TopicDistribution) -> tuple[str, ...]:
    """Topics attaining the maximum score, in canonical order; empty if all zero."""
    scores = v.scores
    peak = max(scores)
    if peak <= 0.0:
        return ()
    if scores.count(peak) == 1:
        return (TOPICS[scores.index(peak)],)
    return tuple(TOPICS[i] for i, s in enumerate(scores) if s == peak)


def profile_prefixes(
    block: ScoreBlock, sizes: Sequence[int], mechanism: str
) -> list[UserProfile]:
    """Profiles of one user over the first n images of a score block, per n in sizes.

    An n beyond the block's length means all its images. A prefix with no
    positive score under the mechanism gets ``predicted_topic`` None. The
    mechanism and the sizes are taken as ``RunConfig.validate`` left them: a
    mechanism other than ``prob`` or ``occ``, or a size below 1, is a KeyError.
    """
    total = block.n_images()
    if not total:
        raise EmptyInputError("cannot profile a user with zero records")
    vectors = _prefix_vectors(block.rows, {min(n, total) for n in sizes}, _vote_scale(block.k))
    by_size: dict[int, UserProfile] = {}
    for n, (v_prob, v_occ) in vectors.items():
        best = argmax_topics({"prob": v_prob, "occ": v_occ}[mechanism])
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
