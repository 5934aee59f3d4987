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
