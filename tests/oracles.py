"""Brute-force reference implementations used to cross-check the library.

These deliberately take the dumbest correct path (exhaustive enumeration,
two-pass loops) and share no code with the implementations they verify.
"""

import csv
import io
import math
from collections.abc import Mapping
from fractions import Fraction


def _children(parent):
    kids = {}
    for c, p in parent.items():
        if p is not None:
            kids.setdefault(p, []).append(c)
    return kids


def enumerate_root_leaf_paths(parent):
    """Every simple root-to-leaf path, by exhaustive DFS."""
    kids = _children(parent)
    paths = []

    def walk(node, path):
        below = kids.get(node, [])
        if not below:
            paths.append(path)
            return
        for nxt in below:
            walk(nxt, path + [nxt])

    for root in [c for c, p in parent.items() if p is None]:
        walk(root, [root])
    return paths


def bf_max_spl(parent):
    return max((len(p) - 1 for p in enumerate_root_leaf_paths(parent)), default=0)


def bf_reachable(parent):
    """Nodes reachable from roots, by fixpoint expansion over the edge list."""
    reach = {c for c, p in parent.items() if p is None}
    changed = True
    while changed:
        changed = False
        for c, p in parent.items():
            if p in reach and c not in reach:
                reach.add(c)
                changed = True
    return reach


def bf_aggregate_occ(rows):
    """rows: [(scores tuple, unmapped)] -> (scores list, unmapped float).

    Enumerates every row's argmax set and hands out float credit directly.
    """
    n = len(rows)
    n_topics = len(rows[0][0])
    scores = [0.0] * n_topics
    unmapped = 0.0
    for row_scores, _ in rows:
        peak = max(row_scores)
        if peak == 0.0:
            unmapped += 1.0 / n
            continue
        tied = [i for i, s in enumerate(row_scores) if s == peak]
        for i in tied:
            scores[i] += 1.0 / (len(tied) * n)
    return scores, unmapped


def bf_pearson(x):
    """Naive two-pass Pearson over columns of x (rows are observations).

    Returns a square list-of-lists with None where either column is constant.
    """
    n = len(x)
    m = len(x[0])
    means = [sum(x[r][c] for r in range(n)) / n for c in range(m)]
    constant = [all(x[r][c] == x[0][c] for r in range(n)) for c in range(m)]
    spread = [
        math.sqrt(sum((x[r][c] - means[c]) ** 2 for r in range(n))) for c in range(m)
    ]
    rho = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if constant[i] or constant[j]:
                continue
            cov = sum((x[r][i] - means[i]) * (x[r][j] - means[j]) for r in range(n))
            rho[i][j] = cov / (spread[i] * spread[j])
    return rho


def bf_co_interest(x, tau):
    """Co-interest ratios by counting users per topic pair, in exact Fractions.

    Rows of x are users. A user is interested in a column when its value is
    >= tau. Returns a square list-of-lists of float(both / either), 0.0 where
    no user is interested in either column.
    """
    tau = Fraction(tau)
    interested = [[Fraction(v) >= tau for v in row] for row in x]
    m = len(x[0])
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            both = sum(1 for r in interested if r[i] and r[j])
            either = sum(1 for r in interested if r[i] or r[j])
            row.append(float(Fraction(both, either)) if either else 0.0)
        out.append(row)
    return out


def bf_normalize(label):
    """Instance-term matching rule, restated: casefold, '_' is a space, runs collapse."""
    return " ".join(label.replace("_", " ").casefold().split())


def bf_topic_position(tax, topic_names, label):
    """Canonical position of the nearest topic above a label's concept, else None."""
    concept = tax.instances.get(bf_normalize(label))
    while concept is not None:
        if concept in tax.topics:
            return topic_names.index(concept)
        concept = tax.parent[concept]
    return None


def bf_image_rows(tax, topic_names, predictions, k):
    """(prob scores, prob unmapped, occ scores, occ unmapped) of one image.

    Probability cells are fsums of the label probabilities per topic;
    occurrence cells are label counts over k, and labels missing from a short
    record count as unmapped.
    """
    n_topics = len(topic_names)
    probs = [[] for _ in range(n_topics)]
    counts = [0] * n_topics
    unmapped_probs = []
    unmapped_count = k - len(predictions)
    for label, prob in predictions:
        pos = bf_topic_position(tax, topic_names, label)
        if pos is None:
            unmapped_probs.append(prob)
            unmapped_count += 1
        else:
            probs[pos].append(prob)
            counts[pos] += 1
    return (
        tuple(math.fsum(p) for p in probs),
        math.fsum(unmapped_probs),
        tuple(c / k for c in counts),
        unmapped_count / k,
    )


def bf_profile(rows, topic_names, mechanism):
    """Vectors and prediction of one user over image rows from bf_image_rows.

    Returns (prob scores, prob unmapped, occ scores, occ unmapped, predicted
    topic or None, tied topics). Probability columns take a second fsum over
    the per-image fsums; occurrence voting hands each image one unit of
    Fraction credit, split evenly over its tied argmax topics.
    """
    n_topics = len(topic_names)
    n = len(rows)
    columns = [math.fsum(r[0][i] for r in rows) for i in range(n_topics)]
    unmapped = math.fsum(r[1] for r in rows)
    grand = math.fsum(columns + [unmapped])
    if grand == 0.0:
        v_prob, u_prob = (0.0,) * n_topics, 1.0
    else:
        v_prob, u_prob = tuple(c / grand for c in columns), unmapped / grand
    credit = [Fraction(0)] * n_topics
    no_vote = Fraction(0)
    for r in rows:
        occ = r[2]
        best = max(occ)
        if best == 0.0:
            no_vote += 1
            continue
        winners = [i for i in range(n_topics) if occ[i] == best]
        for i in winners:
            credit[i] += Fraction(1, len(winners))
    v_occ = tuple(float(c / n) for c in credit)
    u_occ = float(no_vote / n)
    chosen = v_prob if mechanism == "prob" else v_occ
    top = max(chosen)
    tied = tuple(topic_names[i] for i in range(n_topics) if top > 0.0 and chosen[i] == top)
    return (
        v_prob, u_prob, v_occ, u_occ,
        tied[0] if tied else None,
        tied if len(tied) > 1 else (),
    )


def bf_argmax(scores, topic_names):
    """Lowest-index topic holding the largest score, or None when no score is positive."""
    best = None
    for i, s in enumerate(scores):
        if s > 0.0 and (best is None or s > scores[best]):
            best = i
    return None if best is None else topic_names[best]


def bf_roc(scores, positives):
    """(threshold, fpr, tpr) for each distinct score, largest first, by counting
    the users at or above it; an empty class has rate 0."""
    n_pos = sum(1 for p in positives if p)
    n_neg = len(positives) - n_pos
    points = []
    for th in sorted(set(scores), reverse=True):
        tp = sum(1 for s, p in zip(scores, positives) if p and s >= th)
        fp = sum(1 for s, p in zip(scores, positives) if not p and s >= th)
        points.append((th, float(Fraction(fp, n_neg)) if n_neg else 0.0,
                       float(Fraction(tp, n_pos)) if n_pos else 0.0))
    return tuple(points)


def bf_evaluate(profiles_by_k, labels, mechanism, topic_names):
    """Every EvalReport field, by name, restated from the definitions.

    At each sweep point the labeled users are the profiles whose id has a
    label; accuracy is the share of them whose argmax (bf_argmax) is their
    label, 0 with none, and per-topic accuracy is None for a topic nobody
    there holds. At the largest point, the users with a prediction under the
    mechanism fill the confusion matrix (rows: label, columns: prediction);
    precision and recall divide its diagonal by column and row counts, 0 and
    flagged when a count is 0. CMC and ROC run over those users, or over all
    labeled users there when none has a prediction. A label's rank is one
    more than the number of topics scoring strictly higher. Returns None when
    no labeled user is present at the largest point.
    """
    def guess(p, m):
        return bf_argmax(getattr(p, "v_" + m).scores, topic_names)

    def share(part, whole):
        return float(Fraction(part, whole))

    ks = sorted(profiles_by_k)
    labeled = {k: [p for p in profiles_by_k[k] if p.user_id in labels] for k in ks}
    by_mech = {
        m: {k: share(sum(1 for p in labeled[k] if guess(p, m) == labels[p.user_id]),
                     len(labeled[k])) if labeled[k] else 0.0 for k in ks}
        for m in ("prob", "occ")
    }
    per_topic = {}
    for t in topic_names:
        per_topic[t] = {}
        for k in ks:
            holders = [p for p in labeled[k] if labels[p.user_id] == t]
            per_topic[t][k] = share(sum(1 for p in holders if guess(p, mechanism) == t),
                                    len(holders)) if holders else None

    final = labeled[ks[-1]]
    if not final:
        return None
    predicted = [p for p in final if guess(p, mechanism) is not None]
    confusion = tuple(
        tuple(sum(1 for p in predicted
                  if labels[p.user_id] == truth and guess(p, mechanism) == said)
              for said in topic_names)
        for truth in topic_names
    )
    precision, recall, undefined_p, undefined_r = {}, {}, [], []
    for i, t in enumerate(topic_names):
        said = sum(row[i] for row in confusion)
        held = sum(confusion[i])
        precision[t] = share(confusion[i][i], said) if said else 0.0
        recall[t] = share(confusion[i][i], held) if held else 0.0
        if not said:
            undefined_p.append(t)
        if not held:
            undefined_r.append(t)

    population = predicted or final
    scores = [getattr(p, "v_" + mechanism).scores for p in population]
    ranks = [1 + sum(1 for s in v if s > v[topic_names.index(labels[p.user_id])])
             for p, v in zip(population, scores)]
    cmc = tuple((r, share(sum(1 for x in ranks if x <= r), len(ranks)))
                for r in range(1, len(topic_names) + 1))
    roc = {t: bf_roc([v[i] for v in scores], [labels[p.user_id] == t for p in population])
           for i, t in enumerate(topic_names)}
    return {
        "mechanism": mechanism,
        "sweep": tuple(ks),
        "n_labeled": len(predicted),
        "per_topic_accuracy": per_topic,
        "overall_accuracy": by_mech[mechanism],
        "overall_accuracy_by_mechanism": by_mech,
        "precision": precision,
        "recall": recall,
        "undefined_precision": tuple(undefined_p),
        "undefined_recall": tuple(undefined_r),
        "confusion": confusion,
        "cmc": cmc,
        "roc_points": roc,
    }


def dense_score_tables(tax, topic_names, records_by_user, k):
    """Text of image_scores_prob.csv and image_scores_occ.csv, dense.

    Every row spells out all topic cells plus unmapped, from bf_image_rows;
    a zero probability is written as "0", every other cell as 9 significant
    digits. Rows go through csv.writer, so ids holding , or " are quoted.
    """
    header = ("user_id", "image_id", *topic_names, "unmapped")
    prob_buf, occ_buf = io.StringIO(), io.StringIO()
    prob = csv.writer(prob_buf, lineterminator="\n")
    occ = csv.writer(occ_buf, lineterminator="\n")
    prob.writerow(header)
    occ.writerow(header)
    for user, records in records_by_user.items():
        for rec in records:
            p_scores, p_unmapped, o_scores, o_unmapped = bf_image_rows(
                tax, topic_names, rec.predictions, k
            )
            prob.writerow((user, rec.image_id,
                           *[f"{x:.9g}" if x else "0" for x in (*p_scores, p_unmapped)]))
            occ.writerow((user, rec.image_id, *[f"{x:.9g}" for x in (*o_scores, o_unmapped)]))
    return prob_buf.getvalue(), occ_buf.getvalue()


def json_ready(obj):
    """Recursively convert a payload to JSON-serializable values with 9-digit floats.

    ``json.dumps(json_ready(obj), indent=2)`` is the reference for the JSON
    artifacts' layout: rounding first and encoding second, with the stdlib.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return None if math.isnan(obj) else float(f"{obj:.9g}")
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Mapping):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        return json_ready(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj).__name__}")
