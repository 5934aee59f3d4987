"""Image-level scoring mechanisms: probability sums and occurrence counts."""

import json
import math
import struct
from collections import Counter

import pytest
from hypothesis import given
import hypothesis.strategies as st

import oracles
from conftest import (
    block_of, dense_rows, image_rows, make_record, prediction_pairs, starter_taxonomy,
)
from interestprof.config import MAX_TOPK
from interestprof.fixtures import generate_fixture
from interestprof.ingest import load_score_cells, serialize_predictions
from interestprof.profiling import TopicDistribution
from interestprof.taxonomy import N_TOPICS, TOPICS, LabelIndex, topic_of_instance


def prob_row(record, tax):
    return image_rows(record, tax)[0]


def occ_row(record, tax, k=5):
    return image_rows(record, tax, k)[1]


def test_worked_example_probability_scores(worked_example_record):
    dist = prob_row(worked_example_record, starter_taxonomy())
    assert dist.as_dict()["Drink"] == pytest.approx(0.20, abs=1e-12)
    assert dist.as_dict()["Food"] == pytest.approx(0.06, abs=1e-12)
    assert dist.as_dict()["Fashion"] == pytest.approx(0.04, abs=1e-12)
    assert dist.unmapped_mass == 0.0
    others = [s for name, s in zip(TOPICS, dist.scores) if name not in ("Drink", "Food", "Fashion")]
    assert all(s == 0.0 for s in others)


def test_worked_example_occurrence_scores(worked_example_record):
    dist = occ_row(worked_example_record, starter_taxonomy(), k=5)
    assert dist.as_dict()["Drink"] == pytest.approx(0.6, abs=1e-12)
    assert dist.as_dict()["Food"] == pytest.approx(0.2, abs=1e-12)
    assert dist.as_dict()["Fashion"] == pytest.approx(0.2, abs=1e-12)
    assert dist.unmapped_mass == 0.0


def test_all_unmapped_labels():
    rec = make_record("u", "i", [("zzz_a", 0.4), ("zzz_b", 0.3)])
    dist = prob_row(rec, starter_taxonomy())
    assert all(s == 0.0 for s in dist.scores)
    assert dist.unmapped_mass == pytest.approx(0.7, abs=1e-12)


def test_single_full_probability_prediction():
    rec = make_record("u", "i", [("espresso", 1.0)])
    dist = prob_row(rec, starter_taxonomy())
    assert dist.as_dict()["Drink"] == 1.0
    assert math.fsum(dist.as_dict().values()) == 1.0


def test_occ_all_predictions_one_topic():
    rec = make_record("u", "i", [("groom", 0.5), ("crowd", 0.2), ("portrait", 0.1),
                                 ("selfie", 0.05), ("pedestrian", 0.01)])
    dist = occ_row(rec, starter_taxonomy(), k=5)
    assert dist.as_dict()["People"] == 1.0
    assert dist.unmapped_mass == 0.0


def test_occ_short_record_loses_mass_to_unmapped():
    rec = make_record("u", "i", [("dough", 0.3), ("pizza", 0.2), ("zzz_x", 0.1)])
    dist = occ_row(rec, starter_taxonomy(), k=5)
    assert dist.as_dict()["Food"] == pytest.approx(0.4, abs=1e-12)
    assert dist.unmapped_mass == pytest.approx(0.6, abs=1e-12)


def test_topic_pure_records_give_permutation_style_rows():
    tax = starter_taxonomy()
    pure_terms = {"Drink": "espresso", "Food": "dough", "Sport": "racket"}
    records = [
        make_record("u", f"i{n}", [(term, 0.5)])
        for n, term in enumerate(pure_terms.values())
    ]
    for (_, row), topic in zip(dense_rows(block_of(records, tax, k=1)), pure_terms):
        assert row.as_dict()[topic] == 1.0
        assert sum(row.scores) == 1.0


def test_distribution_validates_shape_and_sign():
    with pytest.raises(ValueError):
        TopicDistribution(scores=(0.0,) * 23)
    with pytest.raises(ValueError):
        TopicDistribution(scores=(-0.1,) + (0.0,) * 23)
    with pytest.raises(ValueError):
        TopicDistribution(scores=(0.0,) * 24, unmapped_mass=-1.0)


@pytest.mark.parametrize("at", [0, 1, N_TOPICS - 1, "unmapped"])
def test_distribution_rejects_nan(at):
    # A NaN score would make argmax_topics answer by where the NaN sits.
    scores = [0.5] * N_TOPICS
    unmapped = 0.0
    if at == "unmapped":
        unmapped = math.nan
    else:
        scores[at] = math.nan
    with pytest.raises(ValueError, match="NaN"):
        TopicDistribution(scores=scores, unmapped_mass=unmapped)


@pytest.mark.parametrize("value", [-0.0, 5e-324, 1.0, 0.1 + 0.2, 1e-300])
def test_distribution_keeps_every_bit(value):
    """Each value comes back from the packed record bit for bit, as a score at
    every position and as the unmapped mass; ``==`` does not tell -0.0 from
    0.0, ``struct.pack`` does. Equality is by value, so -0.0 equals 0.0."""
    def bits(*values):
        return struct.pack(f"<{len(values)}d", *values)

    scores = tuple(value if i % 2 else 0.25 for i in range(N_TOPICS))
    v = TopicDistribution(scores=scores, unmapped_mass=value)
    assert bits(*v.scores) == bits(*scores)
    assert bits(v.unmapped_mass) == bits(value)
    assert bits(*v.values()) == bits(*scores, value)
    assert bits(*v.as_dict().values()) == bits(*scores, value)
    assert v == v
    assert v == TopicDistribution(scores=list(scores), unmapped_mass=value)
    assert v == TopicDistribution(scores=[s + 0.0 for s in scores], unmapped_mass=value + 0.0)
    assert v != TopicDistribution(scores=scores, unmapped_mass=value + 1.0)


@given(prediction_pairs(), st.randoms(use_true_random=False))
def test_permutation_invariance(pairs, rng):
    tax = starter_taxonomy()
    rec = make_record("u", "i", pairs)
    shuffled = list(rec.predictions)
    rng.shuffle(shuffled)
    twin = rec.__class__(user_id="u", image_id="i", predictions=tuple(shuffled))
    assert prob_row(rec, tax) == prob_row(twin, tax)
    assert occ_row(rec, tax, k=5) == occ_row(twin, tax, k=5)


@given(prediction_pairs(), st.sampled_from([0.25, 0.5, 2.0, 4.0]))
def test_probability_scoring_is_homogeneous(pairs, c):
    # powers of two scale floats exactly
    tax = starter_taxonomy()
    if any(p * c > 1.0 for _, p in pairs):
        c = 0.5
    base = prob_row(make_record("u", "i", pairs), tax)
    scaled = prob_row(
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
    base = occ_row(make_record("u", "i", pairs), tax, k=5)
    scaled = occ_row(make_record("u", "i", [(l, p * c) for l, p in pairs]), tax, k=5)
    assert base == scaled


@given(st.sampled_from(["espresso", "dough", "sandal", "alp", "laptop"]),
       st.integers(min_value=1, max_value=5))
def test_argmax_agreement_on_pure_images(term, n_preds):
    tax = starter_taxonomy()
    topic = topic_of_instance(tax, term)
    rec = make_record("u", "i", [(term, 0.1 * (j + 1)) for j in range(n_preds)])
    prob = prob_row(rec, tax)
    occ = occ_row(rec, tax, k=5)
    assert sum(prob.scores) == pytest.approx(prob.as_dict()[topic], abs=1e-12)
    assert sum(occ.scores) == pytest.approx(occ.as_dict()[topic], abs=1e-12)


@given(st.lists(st.sampled_from(["espresso", "dough", "sandal", "alp", "laptop"]),
                min_size=5, max_size=5))
def test_full_mapped_occ_rows_lie_on_simplex(terms):
    tax = starter_taxonomy()
    rec = make_record("u", "i", [(t, 0.1) for t in terms])
    dist = occ_row(rec, tax, k=5)
    assert dist.unmapped_mass == 0.0
    assert sum(dist.scores) == pytest.approx(1.0, abs=1e-9)


@given(prediction_pairs())
def test_row_mass_accounting(pairs):
    # occurrence rows always carry total mass 1; probability rows carry the
    # record's total input probability, unmapped mass included.
    tax = starter_taxonomy()
    rec = make_record("u", "i", pairs)
    occ = occ_row(rec, tax, k=5)
    assert math.fsum(occ.as_dict().values()) == pytest.approx(1.0, abs=1e-9)
    prob = prob_row(rec, tax)
    assert math.fsum(prob.as_dict().values()) == pytest.approx(sum(p for _, p in pairs), abs=1e-9)


@pytest.mark.parametrize("k_max", [0, MAX_TOPK + 1])
def test_load_rejects_a_k_its_counts_cannot_pack(k_max):
    def lines():
        raise AssertionError("a line was read")
        yield

    with pytest.raises(ValueError, match=f"^k_max must be in 1 to {MAX_TOPK}, got {k_max}$"):
        load_score_cells(lines(), LabelIndex(starter_taxonomy()), k_max)


def test_load_resolves_each_distinct_label_once(monkeypatch):
    tax = starter_taxonomy()
    dataset = generate_fixture(2, 30, 0.6, 7, tax)
    index = LabelIndex(tax)
    calls = Counter()

    def counting(label, position=index.position):
        calls[label] += 1
        return position(label)

    monkeypatch.setattr(index, "position", counting)
    scored = load_score_cells(serialize_predictions(dataset), index)
    labels = [label for rec in dataset.iter_records() for label, _ in rec.predictions]
    assert scored.n_images() == len(list(dataset.iter_records())) == 1440
    assert len(labels) > 2 * len(set(labels))
    assert calls == Counter(set(labels))


def test_loaded_cells_unpack_bit_for_bit():
    """A loaded image's packed record unpacks to the oracle's rows exactly.

    The lines hold -0.0, a subnormal, int and float ones, a repeated label, an
    all-unmapped image and an image touching every position, and k reaches
    the largest value the configuration accepts. ``repr`` tells -0.0 from
    0.0, ``==`` does not.
    """
    tax = starter_taxonomy()
    one_per_topic = {}
    for term in tax.instances:
        one_per_topic.setdefault(topic_of_instance(tax, term), term)
    every_position = [(one_per_topic[t], 0.5) for t in TOPICS] + [("zzz_unknown", 0.5)]
    images = [
        ("u1", [("espresso", -0.0), ("dough", 5e-324)]),
        ("u1", [("espresso", 0), ("cup", 1), ("sandal", 1.0), ("zzz_unknown", -0.0)]),
        ("u2", [("espresso", 0.25), ("espresso", 5e-324), ("espresso", 0.5)]),
        ("u2", [("zzz_unknown", 0.3), ("not_a_label", -0.0)]),
        ("u1", [("sandal", 5e-324), ("sandal", -0.0)]),
        ("u3", every_position),
    ]
    assert len(every_position) == N_TOPICS + 1
    lines = [json.dumps({"user_id": user, "image_id": f"i{n}",
                         "predictions": [{"label": l, "prob": p} for l, p in preds]})
             for n, (user, preds) in enumerate(images)]
    assert '"prob": -0.0' in lines[0] and '"prob": 5e-324' in lines[0]
    assert '"prob": 0}' in lines[1] and '"prob": 1}' in lines[1]
    for k in (N_TOPICS + 1, MAX_TOPK):
        dataset = load_score_cells(lines, LabelIndex(tax), k)
        blocks = {user: dataset.pop_block(user) for user in ("u1", "u2", "u3")}
        for user, block in blocks.items():
            assert block.image_ids == tuple(f"i{n}" for n, (u, _) in enumerate(images) if u == user)
            got = [repr((p.scores, p.unmapped_mass, o.scores, o.unmapped_mass))
                   for p, o in dense_rows(block)]
            assert got == [repr(oracles.bf_image_rows(tax, TOPICS, preds, k))
                           for u, preds in images if u == user]
        assert dataset.cells == {}
    # The all-unmapped image counts k labels: its own two and the k - 2 it lacks.
    assert blocks["u2"].rows[1] == ((N_TOPICS, 0.3, MAX_TOPK),)
