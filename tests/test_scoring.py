"""Image-level scoring mechanisms: probability sums and occurrence counts."""

from collections import Counter

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import make_record, prediction_pairs, starter_taxonomy
from interestprof.fixtures import generate_fixture
from interestprof.ingest import serialize_predictions
from interestprof.scoring import (
    TopicDistribution,
    build_matrices,
    load_score_cells,
    score_image_occ,
    score_image_prob,
)
from interestprof.taxonomy import TOPICS, topic_of_instance


def test_worked_example_probability_scores(worked_example_record):
    dist = score_image_prob(worked_example_record, starter_taxonomy())
    assert dist.topic_score("Drink") == pytest.approx(0.20, abs=1e-12)
    assert dist.topic_score("Food") == pytest.approx(0.06, abs=1e-12)
    assert dist.topic_score("Fashion") == pytest.approx(0.04, abs=1e-12)
    assert dist.unmapped_mass == 0.0
    others = [s for name, s in zip(TOPICS, dist.scores) if name not in ("Drink", "Food", "Fashion")]
    assert all(s == 0.0 for s in others)


def test_worked_example_occurrence_scores(worked_example_record):
    dist = score_image_occ(worked_example_record, starter_taxonomy(), k=5)
    assert dist.topic_score("Drink") == pytest.approx(0.6, abs=1e-12)
    assert dist.topic_score("Food") == pytest.approx(0.2, abs=1e-12)
    assert dist.topic_score("Fashion") == pytest.approx(0.2, abs=1e-12)
    assert dist.unmapped_mass == 0.0


def test_all_unmapped_labels():
    rec = make_record("u", "i", [("zzz_a", 0.4), ("zzz_b", 0.3)])
    dist = score_image_prob(rec, starter_taxonomy())
    assert all(s == 0.0 for s in dist.scores)
    assert dist.unmapped_mass == pytest.approx(0.7, abs=1e-12)


def test_single_full_probability_prediction():
    rec = make_record("u", "i", [("espresso", 1.0)])
    dist = score_image_prob(rec, starter_taxonomy())
    assert dist.topic_score("Drink") == 1.0
    assert dist.total() == 1.0


def test_occ_all_predictions_one_topic():
    rec = make_record("u", "i", [("groom", 0.5), ("crowd", 0.2), ("portrait", 0.1),
                                 ("selfie", 0.05), ("pedestrian", 0.01)])
    dist = score_image_occ(rec, starter_taxonomy(), k=5)
    assert dist.topic_score("People") == 1.0
    assert dist.unmapped_mass == 0.0


def test_occ_short_record_loses_mass_to_unmapped():
    rec = make_record("u", "i", [("dough", 0.3), ("pizza", 0.2), ("zzz_x", 0.1)])
    dist = score_image_occ(rec, starter_taxonomy(), k=5)
    assert dist.topic_score("Food") == pytest.approx(0.4, abs=1e-12)
    assert dist.unmapped_mass == pytest.approx(0.6, abs=1e-12)


def test_occ_divisor_must_cover_record():
    rec = make_record("u", "i", [("dough", 0.3), ("pizza", 0.2)])
    with pytest.raises(ValueError, match="divisor"):
        score_image_occ(rec, starter_taxonomy(), k=1)


def test_build_matrices_composition(worked_example_record):
    tax = starter_taxonomy()
    m = build_matrices([worked_example_record], tax, k=5)
    assert m.n_images() == 1
    assert m.image_ids == ("img1",)
    assert m.prob_rows[0] == score_image_prob(worked_example_record, tax)
    assert m.occ_rows[0] == score_image_occ(worked_example_record, tax, 5)


def test_build_matrices_rejects_mixed_users(worked_example_record):
    other = make_record("someone_else", "img9", [("cup", 0.5)])
    with pytest.raises(ValueError, match="multiple users"):
        build_matrices([worked_example_record, other], starter_taxonomy(), k=5)


def test_build_matrices_empty_is_valid():
    m = build_matrices([], starter_taxonomy(), k=5)
    assert m.n_images() == 0


def test_topic_pure_records_give_permutation_style_rows():
    tax = starter_taxonomy()
    pure_terms = {"Drink": "espresso", "Food": "dough", "Sport": "racket"}
    records = [
        make_record("u", f"i{n}", [(term, 0.5)])
        for n, term in enumerate(pure_terms.values())
    ]
    m = build_matrices(records, tax, k=1)
    for row, topic in zip(m.occ_rows, pure_terms):
        assert row.topic_score(topic) == 1.0
        assert sum(row.scores) == 1.0


def test_distribution_validates_shape_and_sign():
    with pytest.raises(ValueError):
        TopicDistribution(scores=(0.0,) * 23)
    with pytest.raises(ValueError):
        TopicDistribution(scores=(-0.1,) + (0.0,) * 23)
    with pytest.raises(ValueError):
        TopicDistribution(scores=(0.0,) * 24, unmapped_mass=-1.0)


@given(prediction_pairs(), st.randoms(use_true_random=False))
def test_permutation_invariance(pairs, rng):
    tax = starter_taxonomy()
    rec = make_record("u", "i", pairs)
    shuffled = list(rec.predictions)
    rng.shuffle(shuffled)
    twin = rec.__class__(user_id="u", image_id="i", predictions=tuple(shuffled))
    assert score_image_prob(rec, tax) == score_image_prob(twin, tax)
    assert score_image_occ(rec, tax, k=5) == score_image_occ(twin, tax, k=5)


@given(prediction_pairs(), st.sampled_from([0.25, 0.5, 2.0, 4.0]))
def test_probability_scoring_is_homogeneous(pairs, c):
    # powers of two scale floats exactly
    tax = starter_taxonomy()
    if any(p * c > 1.0 for _, p in pairs):
        c = 0.5
    base = score_image_prob(make_record("u", "i", pairs), tax)
    scaled = score_image_prob(
        make_record("u", "i", [(l, p * c) for l, p in pairs]), tax
    )
    for got, expect in zip(scaled.scores, base.scores):
        assert got == pytest.approx(c * expect, abs=1e-12)
    assert scaled.unmapped_mass == pytest.approx(c * base.unmapped_mass, abs=1e-12)


@given(prediction_pairs(), st.sampled_from([0.25, 0.5, 2.0, 4.0]))
def test_occurrence_scoring_ignores_prob_rescaling(pairs, c):
    tax = starter_taxonomy()
    if any(p * c > 1.0 for _, p in pairs):
        c = 0.25
    base = score_image_occ(make_record("u", "i", pairs), tax, k=5)
    scaled = score_image_occ(make_record("u", "i", [(l, p * c) for l, p in pairs]), tax, k=5)
    assert base == scaled


@given(st.sampled_from(["espresso", "dough", "sandal", "alp", "laptop"]),
       st.integers(min_value=1, max_value=5))
def test_argmax_agreement_on_pure_images(term, n_preds):
    tax = starter_taxonomy()
    topic = topic_of_instance(tax, term)
    rec = make_record("u", "i", [(term, 0.1 * (j + 1)) for j in range(n_preds)])
    prob = score_image_prob(rec, tax)
    occ = score_image_occ(rec, tax, k=5)
    assert sum(prob.scores) == pytest.approx(prob.topic_score(topic), abs=1e-12)
    assert sum(occ.scores) == pytest.approx(occ.topic_score(topic), abs=1e-12)


@given(st.lists(st.sampled_from(["espresso", "dough", "sandal", "alp", "laptop"]),
                min_size=5, max_size=5))
def test_full_mapped_occ_rows_lie_on_simplex(terms):
    tax = starter_taxonomy()
    rec = make_record("u", "i", [(t, 0.1) for t in terms])
    dist = score_image_occ(rec, tax, k=5)
    assert dist.unmapped_mass == 0.0
    assert sum(dist.scores) == pytest.approx(1.0, abs=1e-9)


@given(prediction_pairs())
def test_row_mass_accounting(pairs):
    # occurrence rows always carry total mass 1; probability rows carry the
    # record's total input probability, unmapped mass included.
    tax = starter_taxonomy()
    rec = make_record("u", "i", pairs)
    occ = score_image_occ(rec, tax, k=5)
    assert occ.total() == pytest.approx(1.0, abs=1e-9)
    prob = score_image_prob(rec, tax)
    assert prob.total() == pytest.approx(sum(p for _, p in pairs), abs=1e-9)


def test_load_resolves_each_distinct_label_once(monkeypatch):
    tax = starter_taxonomy()
    dataset = generate_fixture(2, 30, 0.6, 7, tax)
    index = tax.label_index
    calls = Counter()

    def counting(label, position=index.position):
        calls[label] += 1
        return position(label)

    monkeypatch.setattr(index, "position", counting)
    scored = load_score_cells(serialize_predictions(dataset), tax)
    labels = [label for rec in dataset.iter_records() for label, _ in rec.predictions]
    assert scored.n_images() == dataset.n_records() == 1440
    assert len(labels) > 2 * len(set(labels))
    assert calls == Counter(set(labels))
