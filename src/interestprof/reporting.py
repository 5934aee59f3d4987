"""Artifact writers shared by the CLI subcommands.

Floats are emitted with at most 9 significant digits (shortest representation
that round-trips the rounded value), which keeps repeated runs byte-identical.
The image score tables are written through the csv module, so a user or
image id holding a comma or a quote is quoted instead of shifting columns.
Score blocks are sparse, so each row is a copy of an all-"0" template with
only the cells the image touches formatted into it.

Every JSON artifact goes through one writer, ``to_json``: in a single pass it
rounds floats and lays the text out exactly as ``json.dumps(..., indent=2)``
does. ``write_profiles`` encodes each distinct profile object once, memoized
by identity for the call, because the sweep repeats the full profile at every
point at or past a user's image count; the encoded text is re-indented to
where it sits in ``profiles.json`` or ``profiles_sweep.json``.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from .correlation import CorrelationMatrix
from .evaluation import EvalReport
from .ingest import ProfileDataset
from .ontometrics import SemioticReport, SizeMetrics, StructuralMetrics
from .profiling import UserProfile
from .scoring import ScoreBlock, TopicDistribution, score_block
from .svgchart import heatmap, line_chart
from .taxonomy import TOPICS, Taxonomy


def fmt_float(x: float) -> str:
    return f"{x:.9g}"


_FLOAT_SPECIALS = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _encode(obj, indent: str) -> str:
    """JSON text of ``obj`` as it sits at ``indent`` inside an indent-2 document."""
    if isinstance(obj, float):
        # repr of the float the 9-digit text reads back as. In fixed notation
        # the text already has repr's digits (nine digits round-trip a double)
        # and lacks only the ".0" of whole numbers. Exponent notation starts at
        # 1e9 here but at 1e16 in repr, and subnormals lose digits: ask repr.
        text = f"{obj:.9g}"
        if "e" in text:
            return repr(float(text))
        if "." in text:
            return text
        return _FLOAT_SPECIALS.get(text) or text + ".0"
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, _Encoded):  # encoded strings hold no raw newline
        return obj.text.replace("\n", "\n" + indent)
    if isinstance(obj, Fraction):
        return _quote(str(obj))
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        inner = indent + "  "
        # str() first, as json.dumps would see the keys: colliding keys keep one entry.
        items = {str(k): v for k, v in obj.items()}.items()
        return "{\n" + inner + (",\n" + inner).join(
            [_quote(k) + ": " + _encode(v, inner) for k, v in items]
        ) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        return "[\n" + inner + (",\n" + inner).join(
            [_encode(v, inner) for v in obj]
        ) + "\n" + indent + "]"
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        return _encode(obj.tolist(), indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


@dataclass(frozen=True)
class _Encoded:
    """A value already encoded by ``to_json``; the writer only re-indents it."""

    text: str


def to_json(obj) -> str:
    """``json.dumps(obj, indent=2)`` with floats rounded to 9 significant digits.

    NaN becomes null, a Fraction its string, a mapping key its str(), and
    anything with ``tolist`` (numpy arrays and scalars) that list or value.
    """
    return _encode(obj, "")


def write_text(path: Path, content: str) -> None:
    path.write_text(content, encoding="utf-8")


def write_json(path: Path, payload) -> None:
    write_text(path, to_json(payload) + "\n")


def distribution_payload(v: TopicDistribution) -> dict[str, float]:
    return v.as_dict()


def profile_payload(p: UserProfile) -> dict:
    return {
        "user_id": p.user_id,
        "n_images": p.n_images,
        "mechanism": p.mechanism,
        "v_prob": distribution_payload(p.v_prob),
        "v_occ": distribution_payload(p.v_occ),
        "predicted_topic": p.predicted_topic,
        "ties": list(p.ties),
    }


def write_profiles(outdir: Path, profiles: Sequence[UserProfile],
                   sweep_map: Mapping[int, Sequence[UserProfile]] | None = None) -> None:
    """profiles.json and, given a sweep map, profiles_sweep.json.

    The sweep repeats one profile object at every point at or past a user's
    image count, so each distinct object is encoded once and placed as text.
    """
    encoded: dict[int, _Encoded] = {}

    def placed(p: UserProfile) -> _Encoded:
        text = encoded.get(id(p))
        if text is None:
            text = encoded[id(p)] = _Encoded(to_json(profile_payload(p)))
        return text

    write_json(outdir / "profiles.json", [placed(p) for p in profiles])
    if sweep_map is not None:
        write_json(
            outdir / "profiles_sweep.json",
            {str(k): [placed(p) for p in ps] for k, ps in sweep_map.items()},
        )


def write_metrics(outdir: Path, size: SizeMetrics, structural: StructuralMetrics,
                  semiotic: SemioticReport) -> None:
    payload = {
        "size": {
            "size_c": size.size_c,
            "size_i": size.size_i,
            "size_a": size.size_a,
            "size_r": size.size_r,
            "size_total": size.size_total,
        },
        "structural": {
            "n_rn": structural.n_rn,
            "n_ln": structural.n_ln,
            "max_spl": structural.max_spl,
            "n_ic": structural.n_ic,
            "tnrnr": structural.tnrnr,
            "anrnr": structural.anrnr,
        },
        "semiotic": {
            "lawfulness": semiotic.lawfulness,
            "richness": semiotic.richness,
            "interpretability": semiotic.interpretability,
            "consistency": semiotic.consistency,
            "clarity": semiotic.clarity,
            "comprehensiveness": semiotic.comprehensiveness,
            "accuracy": semiotic.accuracy,
        },
    }
    write_json(outdir / "ontology_metrics.json", payload)
    write_text(outdir / "ontology_metrics.txt", metrics_table(payload))


def metrics_table(payload: Mapping) -> str:
    lines = []
    for section, values in payload.items():
        lines.append(section)
        width = max(len(k) for k in values)
        for key, value in values.items():
            if isinstance(value, bool):
                value = "pass" if value else "fail"
            lines.append(f"  {key:<{width}}  {value}")
        lines.append("")
    return "\n".join(lines)


@dataclass(frozen=True)
class ScoreTables:
    """CSV writers for image_scores_prob.csv and image_scores_occ.csv."""

    prob: Any
    occ: Any
    occ_cells: tuple[str, ...]  # formatted count / k for every count 0..k


@contextmanager
def open_score_tables(outdir: Path, k: int) -> Iterator[ScoreTables]:
    """Open both image score tables and write their header rows."""
    header = ("user_id", "image_id", *TOPICS, "unmapped")
    with open(outdir / "image_scores_prob.csv", "w", encoding="utf-8", newline="") as prob_fh, \
            open(outdir / "image_scores_occ.csv", "w", encoding="utf-8", newline="") as occ_fh:
        tables = ScoreTables(
            prob=csv.writer(prob_fh, lineterminator="\n"),
            occ=csv.writer(occ_fh, lineterminator="\n"),
            occ_cells=tuple(fmt_float(c / k) for c in range(k + 1)),
        )
        tables.prob.writerow(header)
        tables.occ.writerow(header)
        yield tables


def write_score_rows(tables: ScoreTables, block: ScoreBlock) -> None:
    """Append one user's image rows to both score tables.

    Each row starts as a copy of an all-"0" template; only the cells the
    image touches are filled in.
    """
    occ_cells = tables.occ_cells
    template = [block.user_id, "", *["0"] * (len(TOPICS) + 1)]
    for image_id, cells in zip(block.image_ids, block.rows):
        prob_row = template.copy()
        prob_row[1] = image_id
        occ_row = prob_row.copy()
        for pos, prob, count in cells:
            if prob:
                prob_row[pos + 2] = fmt_float(prob)
            occ_row[pos + 2] = occ_cells[count]
        tables.prob.writerow(prob_row)
        tables.occ.writerow(occ_row)


def write_scores(outdir: Path, dataset: ProfileDataset, tax: Taxonomy, k: int) -> None:
    with open_score_tables(outdir, k) as tables:
        for user in dataset.users():
            write_score_rows(tables, score_block(dataset.records[user], tax, k))


def _matrix_csv(col_labels: Sequence[str], row_labels: Sequence[str],
                cells: Sequence[Sequence[str]]) -> str:
    lines = ["topic," + ",".join(col_labels) + "\n"]
    for name, row in zip(row_labels, cells):
        lines.append(name + "," + ",".join(row) + "\n")
    return "".join(lines)


def write_correlation(outdir: Path, corr: CorrelationMatrix,
                      co_interest: Sequence[Sequence[float]]) -> None:
    n = len(TOPICS)
    values = [[corr.value(i, j) for j in range(n)] for i in range(n)]
    rho_cells = [["" if v is None else fmt_float(v) for v in row] for row in values]
    write_text(outdir / "pearson.csv", _matrix_csv(TOPICS, TOPICS, rho_cells))
    write_text(outdir / "pearson_bands.csv", _matrix_csv(TOPICS, TOPICS, corr.bands))
    write_text(
        outdir / "pearson_heatmap.svg",
        heatmap(values, TOPICS, title="Pearson correlation between topic scores"),
    )
    co_cells = [[fmt_float(v) for v in row] for row in co_interest]
    write_text(outdir / "co_interest.csv", _matrix_csv(TOPICS, TOPICS, co_cells))


def write_evaluation(outdir: Path, report: EvalReport) -> None:
    payload = {
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
    write_json(outdir / "report.json", payload)

    ks = list(report.sweep)
    lines = ["topic," + ",".join(f"k={k}" for k in ks) + "\n"]
    for topic in TOPICS:
        accs = report.per_topic_accuracy[topic]
        lines.append(
            topic + "," + ",".join(
                "" if accs[k] is None else fmt_float(accs[k]) for k in ks
            ) + "\n"
        )
    lines.append(
        "overall," + ",".join(fmt_float(report.overall_accuracy[k]) for k in ks) + "\n"
    )
    write_text(outdir / "accuracy_by_topic.csv", "".join(lines))

    write_text(
        outdir / "confusion.csv",
        _matrix_csv(TOPICS, TOPICS, [[str(c) for c in row] for row in report.confusion]),
    )

    write_text(
        outdir / "cmc.csv",
        "rank,fraction\n" + "".join(f"{r},{fmt_float(f)}\n" for r, f in report.cmc),
    )

    write_text(
        outdir / "precision_recall.csv",
        "topic,precision,recall\n" + "".join(
            f"{t},{fmt_float(report.precision[t])},{fmt_float(report.recall[t])}\n"
            for t in TOPICS
        ),
    )

    write_text(
        outdir / "roc_points.csv",
        "topic,threshold,fpr,tpr\n" + "".join(
            f"{t},{fmt_float(th)},{fmt_float(fpr)},{fmt_float(tpr)}\n"
            for t in TOPICS
            for th, fpr, tpr in report.roc_points[t]
        ),
    )

    write_text(
        outdir / "cmc.svg",
        line_chart(
            [("CMC", [(float(r), f) for r, f in report.cmc])],
            title="Cumulative match characteristic",
            x_label="rank",
            y_label="fraction matched",
            y_min=0.0,
            y_max=1.0,
        ),
    )
    sweep_series = [
        (
            mech,
            [(float(k), report.overall_accuracy_by_mechanism[mech][k]) for k in ks],
        )
        for mech in sorted(report.overall_accuracy_by_mechanism)
    ]
    write_text(
        outdir / "accuracy_sweep.svg",
        line_chart(
            sweep_series,
            title="Overall accuracy vs images per user",
            x_label="images per user",
            y_label="accuracy",
            y_min=0.0,
            y_max=1.0,
        ),
    )
