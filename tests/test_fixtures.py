"""Synthetic fixture generator: determinism, purity, error handling."""

import pytest

from conftest import starter_taxonomy
from interestprof.errors import ValidationFailure
from interestprof.fixtures import generate_fixture, topic_instance_table
from interestprof.ingest import serialize_predictions
from interestprof.taxonomy import TOPICS, parse_taxonomy, topic_of_instance


def test_pure_fixture_images_stay_on_label_topic():
    tax = starter_taxonomy()
    ds = generate_fixture({"Drink": 2, "Sport": 2}, images_per_user=4, purity=1.0,
                          seed=1, tax=tax)
    assert len(ds.labels) == 4
    for user, recs in ds.records.items():
        topic = ds.labels[user]
        for rec in recs:
            for label, prob in rec.predictions:
                assert topic_of_instance(tax, label) == topic
                assert 0.0 <= prob < 1.0


def test_probs_are_descending():
    ds = generate_fixture({"Drink": 1}, 3, 1.0, seed=2, tax=starter_taxonomy())
    for rec in ds.iter_records():
        probs = [p for _, p in rec.predictions]
        assert probs == sorted(probs, reverse=True)
        assert len(rec.predictions) == 5


def test_same_seed_is_byte_identical():
    tax = starter_taxonomy()
    a = generate_fixture(3, 10, 0.8, seed=99, tax=tax)
    b = generate_fixture(3, 10, 0.8, seed=99, tax=tax)
    assert serialize_predictions(a) == serialize_predictions(b)
    assert a.labels == b.labels


def test_different_seed_differs():
    tax = starter_taxonomy()
    a = generate_fixture({"Drink": 2}, 10, 0.8, seed=1, tax=tax)
    b = generate_fixture({"Drink": 2}, 10, 0.8, seed=2, tax=tax)
    assert serialize_predictions(a) != serialize_predictions(b)


def test_uniform_count_covers_all_topics():
    ds = generate_fixture(1, 2, 1.0, seed=5, tax=starter_taxonomy())
    assert len(ds.records) == 24
    assert sorted(set(ds.labels.values())) == sorted(TOPICS)


def test_topic_without_instances_rejected():
    tax = parse_taxonomy(
        "root R\nconcept Drink parent R topic\ninstance espresso concept Drink\n"
        "concept Sport parent R topic\n"
    )
    with pytest.raises(ValidationFailure, match="Sport"):
        generate_fixture({"Sport": 1}, 2, 1.0, seed=1, tax=tax)


def test_impure_draws_need_a_second_topic():
    tax = parse_taxonomy(
        "root R\nconcept Drink parent R topic\ninstance espresso concept Drink\n"
    )
    with pytest.raises(ValidationFailure):
        generate_fixture({"Drink": 1}, 2, 0.5, seed=1, tax=tax)
    # pure draws are fine with a single covered topic
    ds = generate_fixture({"Drink": 1}, 2, 1.0, seed=1, tax=tax)
    assert len(list(ds.iter_records())) == 2


def test_parameter_validation():
    tax = starter_taxonomy()
    with pytest.raises(ValidationFailure):
        generate_fixture({"NotATopic": 1}, 2, 1.0, seed=1, tax=tax)
    with pytest.raises(ValidationFailure):
        generate_fixture(1, 0, 1.0, seed=1, tax=tax)
    with pytest.raises(ValidationFailure):
        generate_fixture(1, 2, 1.5, seed=1, tax=tax)
    with pytest.raises(ValidationFailure):
        generate_fixture({"Drink": -1}, 2, 1.0, seed=1, tax=tax)


def test_instance_table_covers_every_starter_topic():
    table = topic_instance_table(starter_taxonomy())
    assert set(table) == set(TOPICS)
    assert all(len(terms) >= 5 for terms in table.values())
