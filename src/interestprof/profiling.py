"""User-level aggregation of image rows into normalized interest vectors.

The probability mechanism column-sums the per-image probability rows and
divides by the grand total, so the user vector is a distribution. The
occurrence mechanism gives each image one unit of mass, split evenly across
the topics where its occurrence row attains its maximum (fractional credit on
ties, exact through integer votes); images with all-zero rows push their mass
into ``unmapped``. Both vectors therefore sum to 1 including unmapped mass.

Every view is derived from one ScoreBlock per user: ``profile_prefixes``
builds the full profile and each sweep point from prefixes of the block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import EmptyInputError, NoPredictionError
from .ingest import DEFAULT_TOP_K, PredictionRecord, ProfileDataset
from .scoring import ImageLevelMatrices, ScoreBlock, TopicDistribution, score_block
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


def _prob_vector(rows: Sequence[Sequence[float]]) -> TopicDistribution:
    """Column fsums of probability rows (topics, then unmapped), normalized to mass 1."""
    columns = [math.fsum(col) for col in zip(*rows)]
    grand = math.fsum(columns)
    if grand == 0.0:
        # No probability mass anywhere: the whole unit is unmapped.
        return TopicDistribution(scores=(0.0,) * N_TOPICS, unmapped_mass=1.0)
    return TopicDistribution(
        scores=tuple(c / grand for c in columns[:N_TOPICS]),
        unmapped_mass=columns[N_TOPICS] / grand,
    )


def _vote_scale(max_ties: int) -> int:
    """Votes per image: divisible by every possible number of tied topics."""
    return math.lcm(*range(1, min(max_ties, N_TOPICS) + 1))


def _votes(scores: Sequence[float], scale: int) -> list[int]:
    """One image's occurrence vote over topics then unmapped.

    ``scale`` is split evenly over the topics where the first N_TOPICS scores
    attain their maximum, or goes to unmapped when they are all zero.
    """
    topics = scores[:N_TOPICS]
    votes = [0] * (N_TOPICS + 1)
    peak = max(topics)
    if peak == 0:
        votes[N_TOPICS] = scale
        return votes
    tied = [i for i, s in enumerate(topics) if s == peak]
    share = scale // len(tied)
    for i in tied:
        votes[i] = share
    return votes


def _occ_vector(votes: Sequence[Sequence[int]], scale: int) -> TopicDistribution:
    """Vote totals over ``scale`` times the image count.

    Integer true division is correctly rounded, so each cell equals the float
    of the exact fraction of credit.
    """
    denom = scale * len(votes)
    cells = [sum(col) / denom for col in zip(*votes)]
    return TopicDistribution(scores=tuple(cells[:N_TOPICS]), unmapped_mass=cells[N_TOPICS])


def aggregate_prob(m: ImageLevelMatrices) -> TopicDistribution:
    """Column-sum of the probability rows, normalized to total mass 1.

    Column sums use math.fsum, so the vector is exactly invariant to the
    order of the user's images.
    """
    if m.n_images() == 0:
        raise EmptyInputError("cannot aggregate zero images")
    return _prob_vector([row.scores + (row.unmapped_mass,) for row in m.prob_rows])


def aggregate_occ(m: ImageLevelMatrices) -> TopicDistribution:
    """Per-image argmax voting over the occurrence rows, fractional on ties."""
    if m.n_images() == 0:
        raise EmptyInputError("cannot aggregate zero images")
    scale = _vote_scale(N_TOPICS)
    return _occ_vector([_votes(row.scores, scale) for row in m.occ_rows], scale)


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
    if not block.n_images():
        raise EmptyInputError("cannot profile a user with zero records")
    scale = _vote_scale(block.k)
    votes = [_votes(row, scale) for row in block.counts]
    by_size: dict[int, UserProfile] = {}
    for n in sizes:
        n = min(n, block.n_images())
        if n not in by_size:
            v_prob = _prob_vector(block.prob[:n])
            v_occ = _occ_vector(votes[:n], scale)
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
    return [by_size[min(n, block.n_images())] for n in sizes]


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
