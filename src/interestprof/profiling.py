"""User-level aggregation of image rows into normalized interest vectors.

The probability mechanism column-sums the per-image probability rows and
divides by the grand total, so the user vector is a distribution. The
occurrence mechanism gives each image one unit of mass, split evenly across
the topics where its occurrence row attains its maximum (fractional credit on
ties, exact through integer votes); images with all-zero rows push their mass
into ``unmapped``. Both vectors therefore sum to 1 including unmapped mass.

Every view is derived from one ScoreBlock per user: ``profile_prefixes``
builds the full profile and each sweep point from prefixes of the block, in
one running pass over its sparse rows. The pass keeps each column's nonzero
probabilities and the integer vote totals so far, and reads off a prefix
size when it reaches it: ``fsum`` per column (the nonzeros sum exactly to the
dense column's fsum, zero sums included, which fsum returns as +0.0) and the
vote totals over ``scale * n``. The dense adapters ``aggregate_prob`` and
``aggregate_occ`` turn their rows into the same sparse cells and share the
pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .errors import EmptyInputError, NoPredictionError
from .ingest import DEFAULT_TOP_K, PredictionRecord, ProfileDataset
from .scoring import Cell, ImageLevelMatrices, ScoreBlock, TopicDistribution, score_block
from .taxonomy import N_TOPICS, TOPICS, Taxonomy

MECHANISMS = ("prob", "occ")

DEFAULT_SWEEP = (5, 10, 50, 75, 100)


@dataclass(frozen=True)
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
    rows: Iterable[Sequence[Cell]], sizes: Collection[int], scale: int
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
        scores=tuple(c / grand for c in sums[:N_TOPICS]), unmapped_mass=sums[N_TOPICS] / grand
    )


def _occ_vector(votes: Sequence[int], denom: int) -> TopicDistribution:
    return TopicDistribution(
        scores=tuple(v / denom for v in votes[:N_TOPICS]), unmapped_mass=votes[N_TOPICS] / denom
    )


def aggregate_prob(m: ImageLevelMatrices) -> TopicDistribution:
    """Column-sum of the probability rows, normalized to total mass 1.

    Column sums use math.fsum, so the vector is exactly invariant to the
    order of the user's images.
    """
    n = m.n_images()
    if n == 0:
        raise EmptyInputError("cannot aggregate zero images")
    rows = (
        [(pos, v, 0) for pos, v in enumerate((*row.scores, row.unmapped_mass)) if v]
        for row in m.prob_rows
    )
    return _prefix_vectors(rows, (n,), _vote_scale(N_TOPICS))[n][0]


def aggregate_occ(m: ImageLevelMatrices) -> TopicDistribution:
    """Per-image argmax voting over the occurrence rows, fractional on ties."""
    n = m.n_images()
    if n == 0:
        raise EmptyInputError("cannot aggregate zero images")
    rows = (
        [(pos, 0.0, v) for pos, v in enumerate((*row.scores, row.unmapped_mass)) if v]
        for row in m.occ_rows
    )
    return _prefix_vectors(rows, (n,), _vote_scale(N_TOPICS))[n][1]


def argmax_topics(v: TopicDistribution) -> tuple[str, ...]:
    """Topics attaining the maximum score, in canonical order; empty if all zero."""
    peak = max(v.scores)
    if peak <= 0.0:
        return ()
    return tuple(TOPICS[i] for i, s in enumerate(v.scores) if s == peak)


def predict_topic(v: TopicDistribution) -> str:
    """Argmax topic; ties break toward the lowest canonical topic index."""
    best = argmax_topics(v)
    if not best:
        raise NoPredictionError("all topic scores are zero, no topic can be predicted")
    return best[0]


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


def profile_user(
    records: Sequence[PredictionRecord],
    tax: Taxonomy,
    k: int = DEFAULT_TOP_K,
    mechanism: str = "occ",
) -> UserProfile:
    """Score, aggregate and predict for one user's records (order preserved)."""
    (profile,) = profile_prefixes(score_block(records, tax, k), (len(records),), mechanism)
    if profile.predicted_topic is None:
        raise NoPredictionError(
            f"user '{profile.user_id}': no prediction label maps to any topic"
        )
    return profile


def profile_users(
    dataset: ProfileDataset,
    tax: Taxonomy,
    k: int = DEFAULT_TOP_K,
    mechanism: str = "occ",
) -> list[UserProfile]:
    """Profile every user over their full record list, dataset order."""
    return [profile_user(dataset.records[u], tax, k, mechanism) for u in dataset.users()]


def sweep_profiles(
    dataset: ProfileDataset,
    tax: Taxonomy,
    k: int = DEFAULT_TOP_K,
    sweep: Sequence[int] = DEFAULT_SWEEP,
    mechanism: str = "occ",
) -> dict[int, list[UserProfile]]:
    """Profiles per sweep value, using each user's first n records.

    Users with fewer than n records contribute all their records at that
    sweep point; a prefix with no mapped mass gets ``predicted_topic`` None.
    Sweep values must be positive and strictly increasing.
    """
    if not sweep or any(s <= 0 for s in sweep) or list(sweep) != sorted(set(sweep)):
        raise ValueError(f"sweep values must be positive and strictly increasing: {sweep}")
    per_user = [
        profile_prefixes(score_block(dataset.records[u], tax, k), sweep, mechanism)
        for u in dataset.users()
    ]
    return {n: [row[j] for row in per_user] for j, n in enumerate(sweep)}
