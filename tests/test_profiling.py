"""User-level aggregation, prediction and sweeps, all through ``profile_prefixes``."""

import math

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

import oracles
from conftest import (
    block_from_rows,
    make_record,
    prediction_pairs,
    profile_of,
    starter_taxonomy,
    sweep_of,
    vector,
)
from interestprof.errors import EmptyInputError
from interestprof.evaluation import evaluate
from interestprof.ingest import ProfileDataset
from interestprof.profiling import TopicDistribution, argmax_topics, profile_prefixes
from interestprof.taxonomy import N_TOPICS, TOPICS


def profile_of_rows(rows, mechanism="occ"):
    """Profile over every row of ``block_from_rows(rows)``."""
    return profile_prefixes(block_from_rows(rows), (len(rows),), mechanism)[0]


OUTDOORS_TERMS = ["alp", "volcano", "cliff", "valley", "lakeside"]
PLACES_TERMS = ["castle", "palace", "monastery", "church", "mosque"]


def five_image_user(mechanism="occ"):
    records = [
        make_record("u1", f"img{n}", [(t, 0.1) for t in OUTDOORS_TERMS]) for n in range(4)
    ]
    records.append(make_record("u1", "img4", [(t, 0.1) for t in PLACES_TERMS]))
    return profile_of(records, starter_taxonomy(), k=5, mechanism=mechanism)


def test_majority_user_occurrence_vector():
    prof = five_image_user("occ")
    assert prof.v_occ.as_dict()["Outdoors"] == pytest.approx(0.8, abs=1e-12)
    assert prof.v_occ.as_dict()["Places"] == pytest.approx(0.2, abs=1e-12)
    assert prof.predicted_topic == "Outdoors"
    assert prof.ties == ()


def test_majority_user_probability_vector_with_equal_masses():
    prof = five_image_user("prob")
    assert prof.v_prob.as_dict()["Outdoors"] == pytest.approx(0.8, abs=1e-12)
    assert prof.v_prob.as_dict()["Places"] == pytest.approx(0.2, abs=1e-12)
    assert prof.predicted_topic == "Outdoors"


def test_aggregate_prob_single_topic_mass():
    v = profile_of_rows([(vector(Drink=0.3), 0.0), (vector(Drink=0.1), 0.0)]).v_prob
    assert v.as_dict()["Drink"] == pytest.approx(1.0, abs=1e-12)
    assert math.fsum(v.as_dict().values()) == pytest.approx(1.0, abs=1e-9)


def test_aggregate_prob_uniform_rows_stay_uniform():
    row = tuple(1.0 / N_TOPICS for _ in range(N_TOPICS))
    v = profile_of_rows([(row, 0.0)] * 3).v_prob
    assert all(s == pytest.approx(1.0 / N_TOPICS, abs=1e-12) for s in v.scores)


def test_aggregate_prob_zero_mass_goes_unmapped():
    prof = profile_of_rows([((0.0,) * N_TOPICS, 0.0)], "prob")
    assert prof.v_prob.unmapped_mass == 1.0
    assert prof.predicted_topic is None


def test_aggregate_occ_fractional_tie_credit():
    v = profile_of_rows(
        [
            (vector(Drink=0.4, Food=0.4), 0.2),
            (vector(Drink=1.0), 0.0),
        ]
    ).v_occ
    assert v.as_dict()["Drink"] == pytest.approx(0.75, abs=1e-12)
    assert v.as_dict()["Food"] == pytest.approx(0.25, abs=1e-12)


def test_aggregate_occ_unanimous():
    assert profile_of_rows([(vector(Food=0.6), 0.4)] * 7).v_occ.as_dict()["Food"] == 1.0


def test_aggregate_occ_all_zero_rows_go_unmapped():
    v = profile_of_rows([((0.0,) * N_TOPICS, 1.0), (vector(Food=0.2), 0.8)]).v_occ
    assert v.unmapped_mass == pytest.approx(0.5, abs=1e-12)
    assert v.as_dict()["Food"] == pytest.approx(0.5, abs=1e-12)


def test_aggregate_empty_matrices_error():
    for mechanism in ("prob", "occ"):
        with pytest.raises(EmptyInputError):
            profile_prefixes(block_from_rows([]), (1,), mechanism)


def test_predict_topic_tie_breaks_by_canonical_order():
    prof = profile_of_rows([(vector(Food=0.5, Drink=0.5), 0.0)], "prob")
    assert prof.predicted_topic == "Drink"  # Drink precedes Food in canonical order
    assert prof.ties == argmax_topics(prof.v_prob) == ("Drink", "Food")


def test_predict_topic_all_zero_is_none():
    assert argmax_topics(TopicDistribution(scores=(0.0,) * N_TOPICS)) == ()
    for mechanism in ("prob", "occ"):
        assert profile_of_rows([((0.0,) * N_TOPICS, 0.2)], mechanism).predicted_topic is None


@given(st.sampled_from([0.25, 0.5, 2.0, 4.0]),
       st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=N_TOPICS, max_size=N_TOPICS))
def test_predict_topic_scale_invariant(c, raw):
    if max(raw) == 0.0:
        raw[0] = 0.5
    # Only exact scalings keep the order; a subnormal can round or underflow.
    assume(all(s * c / c == s for s in raw))
    v = TopicDistribution(scores=tuple(raw))
    scaled = TopicDistribution(scores=tuple(s * c for s in raw))
    assert argmax_topics(v) == argmax_topics(scaled)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=N_TOPICS, max_size=N_TOPICS),
       st.sets(st.integers(0, N_TOPICS - 1)))
def test_argmax_topics_is_the_brute_force_tie_set(raw, tied):
    # Every position in ``tied`` is forced up to the largest score.
    peak = max(raw)
    scores = [peak if i in tied else s for i, s in enumerate(raw)]
    want = tuple(t for t, s in zip(TOPICS, scores) if s == peak) if peak > 0.0 else ()
    assert argmax_topics(TopicDistribution(scores=scores)) == want


def test_profile_user_worked_example(worked_example_record):
    prof = profile_of([worked_example_record], starter_taxonomy(), k=5, mechanism="occ")
    assert prof.predicted_topic == "Drink"
    assert prof.n_images == 1
    # Single image whose row argmax is Drink: argmax voting puts the whole
    # unit of mass there. The probability vector keeps the row's proportions.
    assert prof.v_occ.as_dict()["Drink"] == pytest.approx(1.0, abs=1e-12)
    assert prof.v_prob.as_dict()["Drink"] == pytest.approx(0.20 / 0.30, abs=1e-12)
    assert prof.v_prob.as_dict()["Food"] == pytest.approx(0.06 / 0.30, abs=1e-12)
    assert prof.v_prob.as_dict()["Fashion"] == pytest.approx(0.04 / 0.30, abs=1e-12)


def test_profile_user_records_ties():
    records = [
        make_record("u", "a", [("espresso", 0.5)]),
        make_record("u", "b", [("dough", 0.5)]),
    ]
    prof = profile_of(records, starter_taxonomy(), k=5, mechanism="occ")
    assert prof.predicted_topic == "Drink"
    assert prof.ties == ("Drink", "Food")


def test_profile_user_zero_records():
    with pytest.raises(EmptyInputError):
        profile_of([], starter_taxonomy())


def test_a_bad_mechanism_raises():
    # RunConfig.validate is the one check of a mechanism; past it, an unknown
    # one still fails loudly instead of scoring as occ.
    block = block_from_rows([(vector(Drink=1.0), 0.0)])
    with pytest.raises(KeyError):
        profile_prefixes(block, (1,), "bogus")
    (profile,) = profile_prefixes(block, (1,), "occ")
    with pytest.raises(AttributeError):
        profile.vector("bogus")
    with pytest.raises((KeyError, AttributeError)):
        evaluate({1: [profile]}, {"u": "Drink"}, "bogus")


def test_profile_user_unmappable_has_no_prediction():
    records = [make_record("u", "a", [("zzz_unknown", 0.9)])]
    prof = profile_of(records, starter_taxonomy())
    assert prof.predicted_topic is None
    assert prof.v_occ.unmapped_mass == 1.0


def test_sweep_uses_record_prefixes():
    records = [make_record("u", f"i{n}", [("espresso", 0.5)]) for n in range(7)]
    ds = ProfileDataset(records={"u": records})
    out = sweep_of(ds, starter_taxonomy(), k=5, sweep=(2, 3, 100), mechanism="occ")
    assert sorted(out) == [2, 3, 100]
    assert out[2][0].n_images == 2
    assert out[3][0].n_images == 3
    assert out[100][0].n_images == 7  # fewer records than the sweep point


@settings(max_examples=60)
@given(st.lists(prediction_pairs(), min_size=1, max_size=8))
def test_user_vectors_sum_to_one(pair_lists):
    tax = starter_taxonomy()
    records = [make_record("u", f"i{n}", pairs) for n, pairs in enumerate(pair_lists)]
    prof = profile_of(records, tax, k=5)
    for v in (prof.v_prob, prof.v_occ):
        assert math.fsum(v.as_dict().values()) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=60)
@given(st.lists(prediction_pairs(), min_size=1, max_size=8),
       st.randoms(use_true_random=False))
def test_image_permutation_invariance(pair_lists, rng):
    tax = starter_taxonomy()
    records = [make_record("u", f"i{n}", pairs) for n, pairs in enumerate(pair_lists)]
    shuffled = list(records)
    rng.shuffle(shuffled)
    a = profile_of(records, tax, k=5)
    b = profile_of(shuffled, tax, k=5)
    assert a.v_prob == b.v_prob
    assert a.v_occ == b.v_occ


@settings(max_examples=60)
@given(st.lists(prediction_pairs(), min_size=1, max_size=8))
def test_adding_pure_image_increases_occ_score(pair_lists):
    tax = starter_taxonomy()
    records = [make_record("u", f"i{n}", pairs) for n, pairs in enumerate(pair_lists)]
    before = profile_of(records, tax, k=5).v_occ
    pure = make_record("u", "pure", [("dough", 0.2)] * 5)
    after = profile_of(records + [pure], tax, k=5).v_occ
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
    # block_from_rows sets k = N_TOPICS, so a tie of up to 24 topics splits its votes exactly
    got = profile_of_rows(rows).v_occ
    want_scores, want_unmapped = oracles.bf_aggregate_occ(rows)
    for g, w in zip(got.scores, want_scores):
        assert math.isclose(g, w, abs_tol=1e-12)
    assert math.isclose(got.unmapped_mass, want_unmapped, abs_tol=1e-12)
