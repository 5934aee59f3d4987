"""User-level aggregation, prediction and sweeps."""

import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import oracles
from conftest import make_record, prediction_pairs, starter_taxonomy, vector
from interestprof.errors import EmptyInputError, NoPredictionError
from interestprof.ingest import ProfileDataset
from interestprof.profiling import (
    aggregate_occ,
    aggregate_prob,
    argmax_topics,
    predict_topic,
    profile_user,
    sweep_profiles,
)
from interestprof.scoring import ImageLevelMatrices, TopicDistribution, build_matrices
from interestprof.taxonomy import N_TOPICS, TOPICS


def matrices_from_rows(rows):
    """ImageLevelMatrices whose occurrence and probability rows are the same."""
    dists = tuple(TopicDistribution(scores=s, unmapped_mass=u) for s, u in rows)
    return ImageLevelMatrices(
        image_ids=tuple(f"i{n}" for n in range(len(rows))),
        prob_rows=dists,
        occ_rows=dists,
    )


OUTDOORS_TERMS = ["alp", "volcano", "cliff", "valley", "lakeside"]
PLACES_TERMS = ["castle", "palace", "monastery", "church", "mosque"]


def five_image_user(mechanism="occ"):
    records = [
        make_record("u1", f"img{n}", [(t, 0.1) for t in OUTDOORS_TERMS]) for n in range(4)
    ]
    records.append(make_record("u1", "img4", [(t, 0.1) for t in PLACES_TERMS]))
    return profile_user(records, starter_taxonomy(), k=5, mechanism=mechanism)


def test_majority_user_occurrence_vector():
    prof = five_image_user("occ")
    assert prof.v_occ.topic_score("Outdoors") == pytest.approx(0.8, abs=1e-12)
    assert prof.v_occ.topic_score("Places") == pytest.approx(0.2, abs=1e-12)
    assert prof.predicted_topic == "Outdoors"
    assert prof.ties == ()


def test_majority_user_probability_vector_with_equal_masses():
    prof = five_image_user("prob")
    assert prof.v_prob.topic_score("Outdoors") == pytest.approx(0.8, abs=1e-12)
    assert prof.v_prob.topic_score("Places") == pytest.approx(0.2, abs=1e-12)
    assert prof.predicted_topic == "Outdoors"


def test_aggregate_prob_single_topic_mass():
    m = matrices_from_rows([(vector(Drink=0.3), 0.0), (vector(Drink=0.1), 0.0)])
    v = aggregate_prob(m)
    assert v.topic_score("Drink") == pytest.approx(1.0, abs=1e-12)
    assert v.total() == pytest.approx(1.0, abs=1e-9)


def test_aggregate_prob_uniform_rows_stay_uniform():
    row = tuple(1.0 / N_TOPICS for _ in range(N_TOPICS))
    m = matrices_from_rows([(row, 0.0)] * 3)
    v = aggregate_prob(m)
    assert all(s == pytest.approx(1.0 / N_TOPICS, abs=1e-12) for s in v.scores)


def test_aggregate_prob_zero_mass_goes_unmapped():
    m = matrices_from_rows([((0.0,) * N_TOPICS, 0.0)])
    v = aggregate_prob(m)
    assert v.unmapped_mass == 1.0
    with pytest.raises(NoPredictionError):
        predict_topic(v)


def test_aggregate_occ_fractional_tie_credit():
    m = matrices_from_rows(
        [
            (vector(Drink=0.4, Food=0.4), 0.2),
            (vector(Drink=1.0), 0.0),
        ]
    )
    v = aggregate_occ(m)
    assert v.topic_score("Drink") == pytest.approx(0.75, abs=1e-12)
    assert v.topic_score("Food") == pytest.approx(0.25, abs=1e-12)


def test_aggregate_occ_unanimous():
    m = matrices_from_rows([(vector(Food=0.6), 0.4)] * 7)
    assert aggregate_occ(m).topic_score("Food") == 1.0


def test_aggregate_occ_all_zero_rows_go_unmapped():
    m = matrices_from_rows([((0.0,) * N_TOPICS, 1.0), (vector(Food=0.2), 0.8)])
    v = aggregate_occ(m)
    assert v.unmapped_mass == pytest.approx(0.5, abs=1e-12)
    assert v.topic_score("Food") == pytest.approx(0.5, abs=1e-12)


def test_aggregate_empty_matrices_error():
    m = matrices_from_rows([])
    with pytest.raises(EmptyInputError):
        aggregate_prob(m)
    with pytest.raises(EmptyInputError):
        aggregate_occ(m)


def test_predict_topic_tie_breaks_by_canonical_order():
    v = TopicDistribution(scores=vector(Food=0.5, Drink=0.5))
    assert predict_topic(v) == "Drink"  # Drink precedes Food in canonical order
    assert argmax_topics(v) == ("Drink", "Food")


def test_predict_topic_all_zero_errors():
    with pytest.raises(NoPredictionError):
        predict_topic(TopicDistribution(scores=(0.0,) * N_TOPICS))


@given(st.sampled_from([0.25, 0.5, 2.0, 4.0]),
       st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=N_TOPICS, max_size=N_TOPICS))
def test_predict_topic_scale_invariant(c, raw):
    if max(raw) == 0.0:
        raw[0] = 0.5
    v = TopicDistribution(scores=tuple(raw))
    scaled = TopicDistribution(scores=tuple(s * c for s in raw))
    assert predict_topic(v) == predict_topic(scaled)


def test_profile_user_worked_example(worked_example_record):
    prof = profile_user([worked_example_record], starter_taxonomy(), k=5, mechanism="occ")
    assert prof.predicted_topic == "Drink"
    assert prof.n_images == 1
    # Single image whose row argmax is Drink: argmax voting puts the whole
    # unit of mass there. The probability vector keeps the row's proportions.
    assert prof.v_occ.topic_score("Drink") == pytest.approx(1.0, abs=1e-12)
    assert prof.v_prob.topic_score("Drink") == pytest.approx(0.20 / 0.30, abs=1e-12)
    assert prof.v_prob.topic_score("Food") == pytest.approx(0.06 / 0.30, abs=1e-12)
    assert prof.v_prob.topic_score("Fashion") == pytest.approx(0.04 / 0.30, abs=1e-12)


def test_profile_user_records_ties():
    records = [
        make_record("u", "a", [("espresso", 0.5)]),
        make_record("u", "b", [("dough", 0.5)]),
    ]
    prof = profile_user(records, starter_taxonomy(), k=5, mechanism="occ")
    assert prof.predicted_topic == "Drink"
    assert prof.ties == ("Drink", "Food")


def test_profile_user_zero_records():
    with pytest.raises(EmptyInputError):
        profile_user([], starter_taxonomy())


def test_profile_user_unmappable_raises():
    records = [make_record("u", "a", [("zzz_unknown", 0.9)])]
    with pytest.raises(NoPredictionError):
        profile_user(records, starter_taxonomy())


def test_sweep_uses_record_prefixes():
    records = [make_record("u", f"i{n}", [("espresso", 0.5)]) for n in range(7)]
    ds = ProfileDataset(records={"u": records})
    out = sweep_profiles(ds, starter_taxonomy(), k=5, sweep=(2, 3, 100), mechanism="occ")
    assert sorted(out) == [2, 3, 100]
    assert out[2][0].n_images == 2
    assert out[3][0].n_images == 3
    assert out[100][0].n_images == 7  # fewer records than the sweep point


def test_sweep_validates_values():
    ds = ProfileDataset(records={"u": [make_record("u", "i", [("espresso", 0.5)])]})
    for bad in ((), (0, 5), (5, 5), (10, 5)):
        with pytest.raises(ValueError):
            sweep_profiles(ds, starter_taxonomy(), sweep=bad)


@settings(max_examples=60)
@given(st.lists(prediction_pairs(), min_size=1, max_size=8))
def test_user_vectors_sum_to_one(pair_lists):
    tax = starter_taxonomy()
    records = [make_record("u", f"i{n}", pairs) for n, pairs in enumerate(pair_lists)]
    m = build_matrices(records, tax, k=5)
    for v in (aggregate_prob(m), aggregate_occ(m)):
        assert v.total() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=60)
@given(st.lists(prediction_pairs(), min_size=1, max_size=8),
       st.randoms(use_true_random=False))
def test_image_permutation_invariance(pair_lists, rng):
    tax = starter_taxonomy()
    records = [make_record("u", f"i{n}", pairs) for n, pairs in enumerate(pair_lists)]
    shuffled = list(records)
    rng.shuffle(shuffled)
    a = build_matrices(records, tax, k=5)
    b = build_matrices(shuffled, tax, k=5)
    assert aggregate_prob(a) == aggregate_prob(b)
    assert aggregate_occ(a) == aggregate_occ(b)


@settings(max_examples=60)
@given(st.lists(prediction_pairs(), min_size=1, max_size=8))
def test_adding_pure_image_increases_occ_score(pair_lists):
    tax = starter_taxonomy()
    records = [make_record("u", f"i{n}", pairs) for n, pairs in enumerate(pair_lists)]
    before = aggregate_occ(build_matrices(records, tax, k=5))
    pure = make_record("u", "pure", [("dough", 0.2)] * 5)
    after = aggregate_occ(build_matrices(records + [pure], tax, k=5))
    food = TOPICS.index("Food")
    if before.scores[food] == 1.0:
        assert after.scores[food] == 1.0
    else:
        assert after.scores[food] > before.scores[food]


@settings(max_examples=100)
@given(st.lists(
    st.tuples(
        st.lists(st.sampled_from([0.0, 0.2, 0.4, 0.6, 1.0]),
                 min_size=N_TOPICS, max_size=N_TOPICS),
        st.sampled_from([0.0, 0.2]),
    ),
    min_size=1, max_size=10,
))
def test_aggregate_occ_matches_brute_force(raw_rows):
    rows = [(tuple(scores), unmapped) for scores, unmapped in raw_rows]
    got = aggregate_occ(matrices_from_rows(rows))
    want_scores, want_unmapped = oracles.bf_aggregate_occ(rows)
    for g, w in zip(got.scores, want_scores):
        assert math.isclose(g, w, abs_tol=1e-12)
    assert math.isclose(got.unmapped_mass, want_unmapped, abs_tol=1e-12)
