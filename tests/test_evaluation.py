"""Evaluation harness: accuracy sweep, confusion, precision/recall, CMC, ROC."""

import pytest

from conftest import profile_from_scores, starter_taxonomy, vector
from interestprof.errors import EmptyInputError
from interestprof.evaluation import cmc_curve, evaluate, label_rank, roc_series
from interestprof.fixtures import generate_fixture
from interestprof.profiling import sweep_profiles
from interestprof.scoring import TopicDistribution
from interestprof.taxonomy import N_TOPICS, TOPICS


def small_eval(purity, seed, users=3, images=6, topics=("Drink", "Sport", "Places", "Family")):
    tax = starter_taxonomy()
    ds = generate_fixture({t: users for t in topics}, images, purity, seed, tax)
    sweep = tuple(sorted({2, 4, images}))
    profs = sweep_profiles(ds, tax, k=5, sweep=sweep, mechanism="occ")
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
        cmc_curve([profile], {"someone_else": "Drink"})


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
