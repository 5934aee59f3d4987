"""Evaluation harness: accuracy sweep, precision/recall, confusion, CMC, ROC data.

All measures compare the predicted topic (argmax of a user vector) against the
user's self-assessed topic. The accuracy sweep runs over prefix sizes of each
user's image list, one tally per sweep point giving overall and per-topic
accuracy; confusion, precision/recall, CMC and ROC are computed at the largest
sweep point. Confusion and precision/recall count only the labeled users with
a prediction there. CMC and ROC run over the same users, or over every labeled
user at that point when none has a prediction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Mapping, Sequence

from .errors import EmptyInputError
from .profiling import MECHANISMS, UserProfile, argmax_topics
from .scoring import TopicDistribution
from .taxonomy import N_TOPICS, TOPICS


@dataclass
class EvalReport:
    mechanism: str
    sweep: tuple[int, ...]
    n_labeled: int
    per_topic_accuracy: dict[str, dict[int, float | None]]
    overall_accuracy: dict[int, float]
    overall_accuracy_by_mechanism: dict[str, dict[int, float]]
    precision: dict[str, float]
    recall: dict[str, float]
    undefined_precision: tuple[str, ...]
    undefined_recall: tuple[str, ...]
    confusion: tuple[tuple[int, ...], ...]  # rows: self-assessed, cols: predicted
    cmc: tuple[tuple[int, float], ...]      # (rank, fraction matched at or below)
    roc_points: dict[str, tuple[tuple[float, float, float], ...]]  # (threshold, fpr, tpr)


def _predicted_or_none(v: TopicDistribution) -> str | None:
    best = argmax_topics(v)
    return best[0] if best else None


def label_rank(v: TopicDistribution, topic: str) -> int:
    """1-based rank of a topic by descending score; tied topics share the best rank."""
    own = v.scores[TOPICS.index(topic)]
    return 1 + sum(1 for s in v.scores if s > own)


def cmc_curve(
    profiles: Sequence[UserProfile],
    labels: Mapping[str, str],
    mechanism: str = "occ",
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


def roc_series(
    scores: Sequence[float], positives: Sequence[bool]
) -> tuple[tuple[float, float, float], ...]:
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


def evaluate(
    profiles_by_k: Mapping[int, Sequence[UserProfile]],
    labels: Mapping[str, str],
    mechanism: str = "occ",
) -> EvalReport:
    """Full report over sweep profiles and a self-assessed label table.

    Per-topic and overall accuracy are computed for every sweep point under
    the selected mechanism (overall accuracy under the other mechanism is
    reported alongside). Everything rank- or confusion-based uses the largest
    sweep point. Topics with no labeled users get None accuracy; precision or
    recall denominators of zero yield 0 and the topic is flagged.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism '{mechanism}'")
    if not profiles_by_k:
        raise EmptyInputError("no sweep profiles to evaluate")
    ks = sorted(profiles_by_k)

    per_topic: dict[str, dict[int, float | None]] = {t: {} for t in TOPICS}
    overall_by_mech: dict[str, dict[int, float]] = {m: {} for m in MECHANISMS}
    for k in ks:
        rows = [(p, labels[p.user_id]) for p in profiles_by_k[k] if p.user_id in labels]
        guesses = {m: [_predicted_or_none(p.vector(m)) for p, _ in rows] for m in MECHANISMS}
        for mech, guessed in guesses.items():
            hits = sum(g == label for g, (_, label) in zip(guessed, rows))
            overall_by_mech[mech][k] = hits / len(rows) if rows else 0.0
        labeled = Counter(label for _, label in rows)
        correct = Counter(label for g, (_, label) in zip(guesses[mechanism], rows) if g == label)
        for topic in TOPICS:
            per_topic[topic][k] = correct[topic] / labeled[topic] if labeled[topic] else None
    # The loop ends on the largest sweep point; everything below uses its rows.
    if not rows:
        raise EmptyInputError("no labeled users present in the profiles")

    confusion = [[0] * N_TOPICS for _ in range(N_TOPICS)]
    predicted = [(p, g) for (p, _), g in zip(rows, guesses[mechanism]) if g is not None]
    for p, g in predicted:
        confusion[TOPICS.index(labels[p.user_id])][TOPICS.index(g)] += 1

    precision: dict[str, float] = {}
    recall: dict[str, float] = {}
    undefined_p: list[str] = []
    undefined_r: list[str] = []
    for i, topic in enumerate(TOPICS):
        tp = confusion[i][i]
        col = sum(confusion[r][i] for r in range(N_TOPICS))
        row = sum(confusion[i])
        if col == 0:
            precision[topic] = 0.0
            undefined_p.append(topic)
        else:
            precision[topic] = tp / col
        if row == 0:
            recall[topic] = 0.0
            undefined_r.append(topic)
        else:
            recall[topic] = tp / row

    population = [p for p, _ in predicted] or [p for p, _ in rows]
    cmc = cmc_curve(population, labels, mechanism)
    scores = [p.vector(mechanism).scores for p in population]
    truth = [labels[p.user_id] for p in population]
    roc = {
        topic: roc_series([s[i] for s in scores], [t == topic for t in truth])
        for i, topic in enumerate(TOPICS)
    }

    return EvalReport(
        mechanism=mechanism,
        sweep=tuple(ks),
        n_labeled=len(predicted),
        per_topic_accuracy=per_topic,
        overall_accuracy=dict(overall_by_mech[mechanism]),
        overall_accuracy_by_mechanism=overall_by_mech,
        precision=precision,
        recall=recall,
        undefined_precision=tuple(undefined_p),
        undefined_recall=tuple(undefined_r),
        confusion=tuple(tuple(row) for row in confusion),
        cmc=cmc,
        roc_points=roc,
    )
