"""Evaluation harness: accuracy sweep, precision/recall, confusion, CMC, ROC data.

All measures compare the predicted topic (argmax of a user vector) against the
user's self-assessed topic. The accuracy sweep runs over prefix sizes of each
user's image list. ``evaluate`` makes one pass per sweep point, tallying each
labeled profile under its label, and a hit for each mechanism whose argmax
(``profiling.argmax_topics``) is that label; overall and per-topic accuracy
are read from the tallies. One more pass over the largest sweep point's
labeled profiles fills the confusion matrix with those that have a prediction,
and precision and recall (and the topics where either is undefined) are read
from its column and row sums. CMC and ROC run over the same users, or over
every labeled user at that point when none has a prediction.

The ROC series are not kept: ``EvalReport.roc_points`` is a read-only mapping
(``RocPoints``) that holds the population's topic columns
(``profiling.topic_columns``) and their labels, and computes a topic's series
from its column on each lookup, so a writer holds one series at a time. It
iterates in TOPICS order, the order both ROC artifacts are written in.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Mapping, Sequence
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .errors import EmptyInputError
from .config import MECHANISMS
from .profiling import TopicDistribution, UserProfile, argmax_topics, topic_columns
from .taxonomy import N_TOPICS, TOPICS, topic_index

RocSeries = tuple[tuple[float, float, float], ...]  # (threshold, fpr, tpr) points


class EvalReport(NamedTuple):
    """report.json's values, as its keys in its order; ``roc_points`` closes it as "roc".

    ``roc_points`` iterates in TOPICS order; the writer relies on it.
    """

    mechanism: str
    sweep: tuple[int, ...]
    n_labeled: int
    overall_accuracy: dict[int, float]
    overall_accuracy_by_mechanism: dict[str, dict[int, float]]
    per_topic_accuracy: dict[str, dict[int, float | None]]
    precision: dict[str, float]
    recall: dict[str, float]
    undefined_precision: tuple[str, ...]
    undefined_recall: tuple[str, ...]
    confusion: tuple[tuple[int, ...], ...]  # rows: self-assessed, cols: predicted
    cmc: tuple[tuple[int, float], ...]      # (rank, fraction matched at or below)
    roc_points: Mapping[str, RocSeries]


def _rates(
    confusion: Sequence[Sequence[int]], totals: Sequence[int]
) -> tuple[dict[str, float], tuple[str, ...]]:
    """topic -> its diagonal count over its total (0.0 for a zero total), and
    the topics whose total is zero."""
    rates = {t: confusion[i][i] / n if n else 0.0 for i, (t, n) in enumerate(zip(TOPICS, totals))}
    return rates, tuple(t for t, n in zip(TOPICS, totals) if not n)


def label_rank(v: TopicDistribution, topic: str) -> int:
    """1-based rank of a topic by descending score; tied topics share the best rank."""
    scores = v.scores
    own = scores[topic_index(topic)]
    return 1 + sum(1 for s in scores if s > own)


def cmc_curve(
    profiles: Sequence[UserProfile],
    labels: Mapping[str, str],
    mechanism: str,
) -> tuple[tuple[int, float], ...]:
    """Fraction of labeled users whose true topic ranks within the top r, r=1..24."""
    ranks = [
        label_rank(p.vector(mechanism), labels[p.user_id])
        for p in profiles
        if p.user_id in labels
    ]
    if not ranks:
        raise EmptyInputError("cmc_curve needs at least one labeled user")
    n = len(ranks)
    return tuple(
        (r, sum(1 for rank in ranks if rank <= r) / n) for r in range(1, N_TOPICS + 1)
    )


def roc_series(scores: Sequence[float], positives: Sequence[bool]) -> RocSeries:
    """One-vs-rest ROC points from a descending threshold sweep over the scores.

    Each point is (threshold, fpr, tpr) for the rule ``score >= threshold``.
    Empty positive or negative sets contribute 0 rates. One sort, then
    cumulative counts per distinct threshold: O(n log n).
    """
    n_pos = sum(positives)
    n_neg = len(positives) - n_pos
    ranked = sorted(zip(scores, positives), key=itemgetter(0), reverse=True)
    points = []
    tp = fp = 0
    for th, group in groupby(ranked, key=itemgetter(0)):
        for _, pos in group:
            if pos:
                tp += 1
            else:
                fp += 1
        points.append(
            (th, fp / n_neg if n_neg else 0.0, tp / n_pos if n_pos else 0.0)
        )
    return tuple(points)


class RocPoints(Mapping[str, RocSeries]):
    """topic -> its ROC series over a population, in canonical topic order.

    Each lookup computes the series (``roc_series``) from the topic's column
    of the population's vectors against the users whose label it is.
    """

    def __init__(self, vectors: Sequence[TopicDistribution], truth: Sequence[str]):
        self._columns = dict(zip(TOPICS, topic_columns(vectors)))
        self._truth = truth

    def __getitem__(self, topic: str) -> RocSeries:
        return roc_series(self._columns[topic], [t == topic for t in self._truth])

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)


def evaluate(
    profiles_by_k: Mapping[int, Sequence[UserProfile]],
    labels: Mapping[str, str],
    mechanism: str,
) -> EvalReport:
    """Full report over sweep profiles and a self-assessed label table.

    Per-topic and overall accuracy are computed for every sweep point under
    the selected mechanism (overall accuracy under the other mechanism is
    reported alongside). Everything rank- or confusion-based uses the largest
    sweep point. Topics with no labeled users get None accuracy; precision or
    recall denominators of zero yield 0 and the topic is flagged. A mechanism
    other than ``prob`` or ``occ`` is a KeyError or an AttributeError
    (``UserProfile.vector``); ``RunConfig.validate`` rejects one first.
    """
    if not profiles_by_k:
        raise EmptyInputError("no sweep profiles to evaluate")
    ks = sorted(profiles_by_k)

    # One tally per sweep point: its labeled profiles per label, and per
    # mechanism the ones whose argmax is their label.
    per_topic: dict[str, dict[int, float | None]] = {t: {} for t in TOPICS}
    overall_by_mech: dict[str, dict[int, float]] = {m: {} for m in MECHANISMS}
    for k in ks:
        labeled: Counter[str] = Counter()
        hits: dict[str, Counter[str]] = {m: Counter() for m in MECHANISMS}
        for p in profiles_by_k[k]:
            label = labels.get(p.user_id)
            if label is not None:
                labeled[label] += 1
                for mech, tally in hits.items():
                    if argmax_topics(p.vector(mech))[:1] == (label,):
                        tally[label] += 1
        n = labeled.total()
        for mech, tally in hits.items():
            overall_by_mech[mech][k] = tally.total() / n if n else 0.0
        for topic in TOPICS:
            n_topic = labeled[topic]
            per_topic[topic][k] = hits[mechanism][topic] / n_topic if n_topic else None

    # The largest sweep point's labeled profiles with a prediction fill the
    # confusion matrix and make the population of CMC and ROC.
    top = profiles_by_k[ks[-1]]
    confusion = [[0] * N_TOPICS for _ in range(N_TOPICS)]
    predicted = []
    for p in top:
        if p.user_id in labels:
            best = argmax_topics(p.vector(mechanism))
            if best:
                confusion[topic_index(labels[p.user_id])][topic_index(best[0])] += 1
                predicted.append(p)
    population = predicted or [p for p in top if p.user_id in labels]
    if not population:
        raise EmptyInputError("no labeled users present in the profiles")
    precision, undefined_p = _rates(confusion, [sum(col) for col in zip(*confusion)])
    recall, undefined_r = _rates(confusion, [sum(row) for row in confusion])
    cmc = cmc_curve(population, labels, mechanism)
    roc = RocPoints([p.vector(mechanism) for p in population],
                    [labels[p.user_id] for p in population])

    return EvalReport(
        mechanism=mechanism,
        sweep=tuple(ks),
        n_labeled=len(predicted),
        overall_accuracy=dict(overall_by_mech[mechanism]),
        overall_accuracy_by_mechanism=overall_by_mech,
        per_topic_accuracy=per_topic,
        precision=precision,
        recall=recall,
        undefined_precision=undefined_p,
        undefined_recall=undefined_r,
        confusion=tuple(tuple(row) for row in confusion),
        cmc=cmc,
        roc_points=roc,
    )
