"""Evaluation harness: accuracy sweep, confusion, precision/recall, CMC, ROC."""

import json

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import profile_from_scores, starter_taxonomy, sweep_of, vector
from interestprof.config import MECHANISMS
from interestprof.errors import EmptyInputError
from interestprof.evaluation import cmc_curve, evaluate, label_rank, roc_series
from interestprof.fixtures import generate_fixture
from interestprof.profiling import TopicDistribution, UserProfile
from interestprof.reporting import write_evaluation
from interestprof.taxonomy import N_TOPICS, TOPICS
from oracles import bf_evaluate, json_ready


def small_eval(purity, seed, users=3, images=6, topics=("Drink", "Sport", "Places", "Family")):
    tax = starter_taxonomy()
    ds = generate_fixture({t: users for t in topics}, images, purity, seed, tax)
    sweep = tuple(sorted({2, 4, images}))
    profs = sweep_of(ds, tax, k=5, sweep=sweep, mechanism="occ")
    return evaluate(profs, ds.labels, "occ"), ds


def test_noiseless_dataset_is_perfectly_recovered():
    report, ds = small_eval(purity=1.0, seed=100)
    for k, acc in report.overall_accuracy.items():
        assert acc == 1.0, f"accuracy at k={k}"
    for i in range(N_TOPICS):
        for j in range(N_TOPICS):
            if i != j:
                assert report.confusion[i][j] == 0
    assert sum(report.confusion[i][i] for i in range(N_TOPICS)) == len(ds.labels)
    assert report.cmc[0] == (1, 1.0)


def test_single_wrong_user():
    profile = profile_from_scores("u1", vector(Drink=1.0))
    report = evaluate({1: [profile]}, {"u1": "Sport"}, "occ")
    assert report.overall_accuracy[1] == 0.0
    assert report.precision["Drink"] == 0.0
    assert report.recall["Sport"] == 0.0
    assert "Sport" not in report.undefined_recall
    assert "Drink" not in report.undefined_precision
    assert "Food" in report.undefined_precision  # never predicted
    assert "Food" in report.undefined_recall     # never labeled


def test_unlabeled_topics_get_none_accuracy():
    report, _ = small_eval(purity=1.0, seed=7)
    assert report.per_topic_accuracy["Wellness"][2] is None
    assert report.per_topic_accuracy["Drink"][2] == 1.0


def test_confusion_row_sums_match_labeled_counts():
    report, ds = small_eval(purity=0.5, seed=21)
    for i, topic in enumerate(TOPICS):
        expected = sum(1 for t in ds.labels.values() if t == topic)
        assert sum(report.confusion[i]) == expected


def test_cmc_properties_on_noisy_datasets():
    for seed in range(6):
        report, _ = small_eval(purity=0.45, seed=seed, users=4, images=5)
        fractions = [f for _, f in report.cmc]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))
        assert report.cmc[-1] == (N_TOPICS, 1.0)


def test_micro_precision_equals_recall_equals_accuracy():
    for seed in (11, 12, 13):
        report, _ = small_eval(purity=0.6, seed=seed, users=4, images=4)
        n = report.n_labeled
        tp_total = sum(report.confusion[i][i] for i in range(N_TOPICS))
        predictions_total = sum(sum(row) for row in report.confusion)
        assert predictions_total == n  # one prediction per labeled user
        k_max = max(report.overall_accuracy)
        assert report.overall_accuracy[k_max] == tp_total / n


def test_overall_accuracy_reported_for_both_mechanisms():
    report, _ = small_eval(purity=1.0, seed=5)
    assert set(report.overall_accuracy_by_mechanism) == {"prob", "occ"}
    for accs in report.overall_accuracy_by_mechanism.values():
        assert set(accs) == set(report.sweep)


def test_label_rank_tie_shares_best_rank():
    v = TopicDistribution(scores=vector(Drink=0.4, Food=0.4, Sport=0.2))
    assert label_rank(v, "Drink") == 1
    assert label_rank(v, "Food") == 1
    assert label_rank(v, "Sport") == 3
    assert label_rank(v, "Wellness") == 4


def test_cmc_curve_requires_labeled_users():
    profile = profile_from_scores("u1", vector(Drink=1.0))
    with pytest.raises(EmptyInputError):
        cmc_curve([profile], {"someone_else": "Drink"}, "occ")


def test_evaluate_requires_labeled_users():
    profile = profile_from_scores("u1", vector(Drink=1.0))
    with pytest.raises(EmptyInputError):
        evaluate({1: [profile]}, {}, "occ")
    with pytest.raises(EmptyInputError):
        evaluate({}, {"u1": "Drink"}, "occ")


def test_roc_series_endpoints():
    scores = [0.9, 0.7, 0.4, 0.2]
    positives = [True, False, True, False]
    points = roc_series(scores, positives)
    assert points[0] == (0.9, 0.0, 0.5)
    th, fpr, tpr = points[-1]
    assert th == 0.2 and fpr == 1.0 and tpr == 1.0
    for _, f, t in points:
        assert 0.0 <= f <= 1.0 and 0.0 <= t <= 1.0

    # Tied scores form one threshold that admits every user holding that score.
    tied = roc_series([0.5, 0.9, 0.5, 0.2, 0.5], [True, False, False, True, True])
    assert tied == ((0.9, 0.5, 0.0), (0.5, 1.0, 2 / 3), (0.2, 1.0, 1.0))


def test_roc_handles_empty_classes():
    points = roc_series([0.5, 0.1], [False, False])
    assert all(t == 0.0 for _, _, t in points)
    assert points[-1][1] == 1.0


def test_roc_in_report_covers_every_topic():
    report, _ = small_eval(purity=1.0, seed=3)
    assert set(report.roc_points) == set(TOPICS)
    for pts in report.roc_points.values():
        assert len(pts) >= 1


def test_roc_points_iterate_in_topic_order_and_know_no_other_key():
    # write_evaluation writes each series as it reads it, in this order.
    roc_points = small_eval(purity=1.0, seed=3)[0].roc_points
    assert list(roc_points) == list(TOPICS)
    assert len(roc_points) == N_TOPICS
    assert "NotATopic" not in roc_points
    with pytest.raises(KeyError):
        roc_points["NotATopic"]


# Scores sit on a few topics and a coarse grid, so argmax ties, shared ROC
# thresholds and correct guesses are common. One labeled topic is never scored.
SCORED = (0, 1, 2, N_TOPICS - 1)
LABEL_TOPICS = (TOPICS[0], TOPICS[1], TOPICS[2], TOPICS[10], TOPICS[-1])
grid = st.sampled_from((0.0, 0.0, 0.125, 0.25, 0.5))


@st.composite
def distributions(draw, zero=False):
    scores = [0.0] * N_TOPICS
    if not zero:
        for i in SCORED:
            scores[i] = draw(grid)
    return TopicDistribution(tuple(scores), unmapped_mass=0.0 if any(scores) else 1.0)


@st.composite
def eval_inputs(draw):
    """Sweep profiles, labels and a mechanism.

    One to four sweep points, each holding its own subset of the users in its
    own order; any vector may be all zero (a null prediction), and sometimes
    every vector at the largest point is, under the evaluated mechanism.
    Profiles record either mechanism as their own, and labels name users
    that appear at no sweep point.
    """
    mechanism = draw(st.sampled_from(MECHANISMS))
    users = [f"u{i}" for i in range(draw(st.integers(min_value=1, max_value=6)))]
    ks = draw(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=4,
                       unique=True))
    null_at_max = draw(st.integers(min_value=0, max_value=3)) == 0
    profiles_by_k = {}
    for k in ks:
        zero = null_at_max and k == max(ks)
        profiles_by_k[k] = [
            UserProfile(user_id=user, n_images=k,
                        v_prob=draw(distributions(zero and mechanism == "prob")),
                        v_occ=draw(distributions(zero and mechanism == "occ")),
                        mechanism=draw(st.sampled_from(MECHANISMS)), predicted_topic=None)
            for user in draw(st.lists(st.sampled_from(users), unique=True,
                                      min_size=int(k == max(ks))))
        ]
    labeled = [user for user in users if draw(st.integers(min_value=0, max_value=3))]
    labeled += draw(st.lists(st.sampled_from(["absent", "gone"]), unique=True))
    labels = {user: draw(st.sampled_from(LABEL_TOPICS)) for user in labeled}
    return profiles_by_k, labels, mechanism


def list_and_str_payload(report):
    """report.json's payload as the earlier writer built it: lists and str keys."""
    return {
        "mechanism": report.mechanism,
        "sweep": list(report.sweep),
        "n_labeled": report.n_labeled,
        "overall_accuracy": {str(k): v for k, v in report.overall_accuracy.items()},
        "overall_accuracy_by_mechanism": {
            m: {str(k): v for k, v in accs.items()}
            for m, accs in report.overall_accuracy_by_mechanism.items()
        },
        "per_topic_accuracy": {
            t: {str(k): v for k, v in accs.items()}
            for t, accs in report.per_topic_accuracy.items()
        },
        "precision": report.precision,
        "recall": report.recall,
        "undefined_precision": list(report.undefined_precision),
        "undefined_recall": list(report.undefined_recall),
        "confusion": [list(row) for row in report.confusion],
        "cmc": [list(point) for point in report.cmc],
        "roc": {t: [list(p) for p in pts] for t, pts in report.roc_points.items()},
    }


@given(eval_inputs())
def test_evaluate_matches_brute_force(tmp_path_factory, data):
    profiles_by_k, labels, mechanism = data
    expected = bf_evaluate(profiles_by_k, labels, mechanism, TOPICS)
    if expected is None:
        with pytest.raises(EmptyInputError):
            evaluate(profiles_by_k, labels, mechanism)
        return
    report = evaluate(profiles_by_k, labels, mechanism)
    assert report._asdict() == expected
    out = tmp_path_factory.mktemp("evaluation")
    write_evaluation(out, report)
    assert (out / "report.json").read_text(encoding="utf-8") == \
        json.dumps(json_ready(list_and_str_payload(report)), indent=2) + "\n"
