"""Pearson matrix, band assignment and co-interest index."""

import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import oracles
from conftest import profile_from_scores, vector
from interestprof.correlation import (
    BAND_HIGH_NEGATIVE,
    BAND_HIGH_POSITIVE,
    BAND_NEGATIVE,
    BAND_POSITIVE,
    BAND_UNDEFINED,
    band_of,
    co_interest_matrix,
    pearson_matrix,
)
from interestprof.errors import EmptyInputError
from interestprof.profiling import TopicDistribution, UserProfile
from interestprof.taxonomy import N_TOPICS, TOPICS

DRINK = TOPICS.index("Drink")
FOOD = TOPICS.index("Food")
SPORT = TOPICS.index("Sport")


def profiles_from_columns(columns: dict[int, list[float]]):
    """Build one profile per observation row from topic-index -> column values."""
    n = len(next(iter(columns.values())))
    profiles = []
    for r in range(n):
        scores = [0.0] * N_TOPICS
        for idx, col in columns.items():
            scores[idx] = col[r]
        profiles.append(profile_from_scores(f"u{r}", scores))
    return profiles


def test_identical_columns_are_perfectly_correlated():
    col = [0.1, 0.5, 0.9, 0.3]
    corr = pearson_matrix(profiles_from_columns({DRINK: col, FOOD: list(col)}), "occ")
    assert corr.value(DRINK, FOOD) == pytest.approx(1.0, abs=1e-12)
    assert corr.bands[DRINK][FOOD] == BAND_HIGH_POSITIVE


def test_negated_columns_are_anticorrelated():
    col = [0.1, 0.5, 0.9, 0.3]
    flipped = [1.0 - v for v in col]
    corr = pearson_matrix(profiles_from_columns({DRINK: col, FOOD: flipped}), "occ")
    assert corr.value(DRINK, FOOD) == pytest.approx(-1.0, abs=1e-12)
    assert corr.bands[DRINK][FOOD] == BAND_HIGH_NEGATIVE


def test_five_profiles_match_two_pass_oracle():
    rng = random.Random(42)
    profiles = [
        profile_from_scores(f"u{r}", [rng.random() for _ in range(N_TOPICS)])
        for r in range(5)
    ]
    corr = pearson_matrix(profiles, "occ")
    x = [[p.v_occ.scores[c] for c in range(N_TOPICS)] for p in profiles]
    want = oracles.bf_pearson(x)
    for i in range(N_TOPICS):
        for j in range(N_TOPICS):
            if want[i][j] is None:
                assert corr.value(i, j) is None
            else:
                assert corr.value(i, j) == pytest.approx(want[i][j], abs=1e-12)


def test_constant_columns_are_undefined():
    profiles = profiles_from_columns(
        {DRINK: [0.3, 0.3, 0.3], FOOD: [0.1, 0.2, 0.7], SPORT: [0.0, 0.0, 0.0]}
    )
    corr = pearson_matrix(profiles, "occ")
    assert corr.value(DRINK, FOOD) is None
    assert corr.value(SPORT, FOOD) is None
    assert corr.value(DRINK, DRINK) is None
    assert corr.bands[DRINK][FOOD] == BAND_UNDEFINED
    assert corr.value(FOOD, FOOD) == 1.0


def test_rho_is_symmetric():
    rng = random.Random(3)
    rows = [[rng.random() for _ in range(N_TOPICS)] for _ in range(8)]
    with_constant = [[0.25 if c == FOOD else v for c, v in enumerate(row)] for row in rows]
    for data, undefined in ((rows, set()), (with_constant, {FOOD})):
        profiles = [profile_from_scores(f"u{r}", row) for r, row in enumerate(data)]
        rho = pearson_matrix(profiles, "occ").rho
        assert len(rho) == N_TOPICS and all(len(row) == N_TOPICS for row in rho)
        for i in range(N_TOPICS):
            for j in range(N_TOPICS):
                nan = math.isnan(rho[i][j])
                assert nan == math.isnan(rho[j][i]) == bool({i, j} & undefined)
                assert nan or rho[i][j] == rho[j][i]
            assert rho[i][i] == 1.0 or i in undefined


def test_exact_zero_covariance_is_zero():
    # Balanced orthogonal patterns over dyadic values: the covariance is exactly 0.
    profiles = profiles_from_columns(
        {DRINK: [0.25, 0.75, 0.25, 0.75] * 2, FOOD: [0.5, 0.5, 1.0, 1.0] * 2}
    )
    corr = pearson_matrix(profiles, "occ")
    assert corr.value(DRINK, FOOD) == 0.0 and corr.value(FOOD, DRINK) == 0.0
    assert corr.bands[DRINK][FOOD] == BAND_NEGATIVE


def test_underflowing_spread_divides_as_ieee():
    # A varying column whose squared deviations underflow has spread 0: like
    # IEEE division, a nonzero covariance over it saturates at +-1 and 0/0 is
    # undefined; its diagonal is still 1.
    profiles = profiles_from_columns(
        {DRINK: [1e-200, 0.0, 0.0], FOOD: [0.5, 0.1, 0.2], SPORT: [0.5, 0.1, 0.2]}
    )
    corr = pearson_matrix(profiles, "occ")
    assert corr.value(DRINK, DRINK) == 1.0
    assert corr.value(DRINK, FOOD) == corr.value(FOOD, DRINK) == 1.0
    assert corr.bands[DRINK][FOOD] == BAND_HIGH_POSITIVE
    flipped = profiles_from_columns({DRINK: [0.0, 1e-200, 1e-200], FOOD: [0.5, 0.1, 0.2]})
    assert pearson_matrix(flipped, "occ").value(DRINK, FOOD) == -1.0


def test_needs_two_profiles():
    with pytest.raises(EmptyInputError) as err:
        pearson_matrix([profile_from_scores("u", vector(Drink=0.5))], "occ")
    assert str(err.value) == "correlation needs at least 2 profiled users, got 1"
    with pytest.raises(EmptyInputError) as err:
        co_interest_matrix([], 0.1, "occ")
    assert str(err.value) == "co-interest needs at least 1 profiled user, got 0"


@pytest.mark.parametrize(
    "rho,band",
    [
        (1.0, BAND_HIGH_POSITIVE),
        (0.7, BAND_HIGH_POSITIVE),
        (0.5, BAND_POSITIVE),       # boundary: (0, 0.5]
        (0.2, BAND_POSITIVE),
        (0.0, BAND_NEGATIVE),       # boundary: [-0.5, 0]
        (-0.3, BAND_NEGATIVE),
        (-0.5, BAND_NEGATIVE),      # boundary: [-0.5, 0]
        (-0.51, BAND_HIGH_NEGATIVE),
        (-1.0, BAND_HIGH_NEGATIVE),
        (float("nan"), BAND_UNDEFINED),
    ],
)
def test_band_boundaries(rho, band):
    assert band_of(rho) == band


def test_co_interest_all_shared():
    profiles = profiles_from_columns({DRINK: [0.5, 0.8], FOOD: [0.4, 0.9]})
    m = co_interest_matrix(profiles, 0.1, "occ")
    assert m[DRINK][FOOD] == 1.0


def test_co_interest_disjoint():
    profiles = profiles_from_columns({DRINK: [0.5, 0.0], FOOD: [0.0, 0.9]})
    m = co_interest_matrix(profiles, 0.1, "occ")
    assert m[DRINK][FOOD] == 0.0


def test_co_interest_half_overlap():
    # 4 users: 2 interested in both, 1 in i only, 1 in j only -> 2/4
    profiles = profiles_from_columns(
        {DRINK: [0.5, 0.5, 0.5, 0.0], FOOD: [0.5, 0.5, 0.0, 0.5]}
    )
    m = co_interest_matrix(profiles, 0.1, "occ")
    assert m[DRINK][FOOD] == pytest.approx(0.5)


def test_co_interest_symmetric_with_unit_diagonal():
    rng = random.Random(9)
    profiles = [
        profile_from_scores(f"u{r}", [rng.choice([0.0, 0.05, 0.2, 0.6]) for _ in range(N_TOPICS)])
        for r in range(20)
    ]
    m = co_interest_matrix(profiles, 0.1, "occ")
    assert len(m) == N_TOPICS and all(len(row) == N_TOPICS for row in m)
    for i in range(N_TOPICS):
        interested = sum(1 for p in profiles if p.v_occ.scores[i] >= 0.1)
        assert m[i][i] == (1.0 if interested >= 1 else 0.0)
        for j in range(N_TOPICS):
            assert m[i][j] == m[j][i]
            assert 0.0 <= m[i][j] <= 1.0


def test_threshold_is_inclusive():
    profiles = profiles_from_columns({DRINK: [0.1, 0.0], FOOD: [0.1, 0.1]})
    m = co_interest_matrix(profiles, 0.1, "occ")
    assert m[DRINK][FOOD] == pytest.approx(0.5)  # one of two FOOD users shares DRINK


# Dyadic values keep means and centred values exact; the decimals do not.
GRID = (0.0, 0.0625, 0.1, 0.25, 0.3, 1 / 3, 0.5, 0.7, 0.75, 0.875, 1.0)


@st.composite
def score_columns(draw, n):
    """One column of n user scores: constant, two-level patterns or free grid values.

    The two patterns with period 2 and period 4 have exactly zero covariance
    over dyadic levels when n is a multiple of 4.
    """
    kind = draw(st.sampled_from(["constant", "parity", "half-parity", "grid"]))
    if kind == "grid":
        return draw(st.lists(st.sampled_from(GRID), min_size=n, max_size=n))
    lo, hi = draw(st.sampled_from(GRID)), draw(st.sampled_from(GRID))
    if kind == "constant":
        return [lo] * n
    period = 2 if kind == "parity" else 4
    return [lo if r % period < period // 2 else hi for r in range(n)]


@st.composite
def user_vectors(draw):
    """(occ rows, prob rows) of 2-60 users, 24 topic columns each."""
    n = draw(st.one_of(st.integers(2, 60), st.sampled_from([4, 8, 12, 16])))
    tables = []
    for _ in range(2):
        columns = [draw(score_columns(n)) for _ in range(N_TOPICS)]
        tables.append([list(row) for row in zip(*columns)])
    return tables


def _profiles(occ_rows, prob_rows):
    return [
        UserProfile(user_id=f"u{r}", n_images=1,
                    v_prob=TopicDistribution(scores=tuple(prob_row)),
                    v_occ=TopicDistribution(scores=tuple(occ_row)),
                    mechanism="occ", predicted_topic=TOPICS[0])
        for r, (occ_row, prob_row) in enumerate(zip(occ_rows, prob_rows))
    ]


@settings(max_examples=100, deadline=None)
@given(user_vectors(), st.sampled_from(["occ", "prob"]), st.sampled_from([0.1, 0.25, 0.5, 1.0]))
def test_correlation_matches_oracles(tables, mechanism, tau):
    occ_rows, prob_rows = tables
    profiles = _profiles(occ_rows, prob_rows)
    x = occ_rows if mechanism == "occ" else prob_rows

    corr = pearson_matrix(profiles, mechanism)
    want = oracles.bf_pearson(x)
    for i in range(N_TOPICS):
        for j in range(N_TOPICS):
            got = corr.value(i, j)
            if want[i][j] is None:
                assert got is None
                assert corr.bands[i][j] == BAND_UNDEFINED
            else:
                assert got == pytest.approx(want[i][j], abs=1e-12)
                assert -1.0 <= got <= 1.0
                assert corr.bands[i][j] == band_of(got)

    assert co_interest_matrix(profiles, tau, mechanism) == oracles.bf_co_interest(x, tau)
