"""Artifact writers shared by the CLI subcommands.

Floats are emitted with at most 9 significant digits (shortest representation
that round-trips the rounded value), which keeps repeated runs byte-identical.
The image score tables are written through the csv module, so a user or
image id holding a comma or a quote is quoted instead of shifting columns.
Score blocks are sparse, so each row is a copy of an all-"0" template with
only the cells the image touches formatted into it.

Every JSON artifact goes through one encoder, ``to_json``: in a single pass it
rounds floats and lays the text out exactly as ``json.dumps(..., indent=2)``
does. ``write_profiles`` encodes each distinct profile object once, memoized
by identity for the call, because the sweep repeats the full profile at every
point at or past a user's image count. It streams ``profiles.json`` and
``profiles_sweep.json``: each profile's text is re-indented to where it sits
and written to the open file, so neither document is ever one string. The
metrics and evaluation payloads are the result objects' own values, passed as
they are.

Every other CSV artifact (the accuracy sweep, confusion, CMC, precision and
recall, ROC points and the three correlation matrices) is text from one
helper, ``_csv``. Its cells are fixed names, topics and numbers, none of which
needs quoting; None is an empty cell.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence, TextIO

from .correlation import CorrelationMatrix
from .evaluation import EvalReport
from .ontometrics import SemioticReport, SizeMetrics, StructuralMetrics
from .profiling import UserProfile
from .scoring import ScoreBlock
from .svgchart import heatmap, line_chart
from .taxonomy import TOPICS


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
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json(obj) -> str:
    """``json.dumps(obj, indent=2)`` with floats rounded to 9 significant digits.

    NaN becomes null, a Fraction its string and a mapping key its str().
    """
    return _encode(obj, "")


def write_text(path: Path, content: str) -> None:
    path.write_text(content, encoding="utf-8")


def write_json(path: Path, payload) -> None:
    write_text(path, to_json(payload) + "\n")


def profile_payload(p: UserProfile) -> dict:
    return {
        "user_id": p.user_id,
        "n_images": p.n_images,
        "mechanism": p.mechanism,
        "v_prob": p.v_prob.as_dict(),
        "v_occ": p.v_occ.as_dict(),
        "predicted_topic": p.predicted_topic,
        "ties": list(p.ties),
    }


def _write_array(fh: TextIO, texts: Iterable[str], indent: str) -> None:
    """Write a JSON array of encoded texts as it sits at ``indent`` in an
    indent-2 document. Encoded text holds no raw newline but its own layout's."""
    inner = "\n" + indent + "  "
    sep = "[" + inner
    for text in texts:
        fh.write(sep)
        fh.write(text.replace("\n", inner))
        sep = "," + inner
    fh.write("[]" if sep[0] == "[" else "\n" + indent + "]")


def write_profiles(outdir: Path, profiles: Sequence[UserProfile],
                   sweep_map: Mapping[int, Sequence[UserProfile]] | None = None) -> None:
    """profiles.json and, given a sweep map, profiles_sweep.json, streamed.

    The sweep repeats one profile object at every point at or past a user's
    image count, so each distinct object is encoded once and placed as text.
    """
    encoded: dict[int, str] = {}

    def text(p: UserProfile) -> str:
        t = encoded.get(id(p))
        if t is None:
            t = encoded[id(p)] = to_json(profile_payload(p))
        return t

    with open(outdir / "profiles.json", "w", encoding="utf-8") as fh:
        _write_array(fh, map(text, profiles), "")
        fh.write("\n")
    if sweep_map is None:
        return
    with open(outdir / "profiles_sweep.json", "w", encoding="utf-8") as fh:
        sep = "{\n  "
        for n, ps in sweep_map.items():
            fh.write(sep + _quote(str(n)) + ": ")
            _write_array(fh, map(text, ps), "  ")
            sep = ",\n  "
        fh.write("{}\n" if sep[0] == "{" else "\n}\n")


def write_metrics(outdir: Path, size: SizeMetrics, structural: StructuralMetrics,
                  semiotic: SemioticReport) -> None:
    payload = {"size": vars(size), "structural": vars(structural), "semiotic": vars(semiotic)}
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


def _csv(rows: Iterable[Sequence]) -> str:
    """CSV text, one line per row: None is an empty cell, a float has 9
    significant digits and any other value is its str()."""
    return "".join([
        ",".join([fmt_float(c) if isinstance(c, float) else "" if c is None else str(c)
                  for c in row]) + "\n"
        for row in rows
    ])


def _topic_matrix(cells: Sequence[Sequence]) -> list[Sequence]:
    """Rows of a 24 x 24 topic matrix: a header, then one row per topic."""
    return [("topic", *TOPICS), *[(topic, *row) for topic, row in zip(TOPICS, cells)]]


def write_correlation(outdir: Path, corr: CorrelationMatrix,
                      co_interest: Sequence[Sequence[float]]) -> None:
    n = len(TOPICS)
    values = [[corr.value(i, j) for j in range(n)] for i in range(n)]
    write_text(outdir / "pearson.csv", _csv(_topic_matrix(values)))
    write_text(outdir / "pearson_bands.csv", _csv(_topic_matrix(corr.bands)))
    write_text(
        outdir / "pearson_heatmap.svg",
        heatmap(values, TOPICS, title="Pearson correlation between topic scores"),
    )
    write_text(outdir / "co_interest.csv", _csv(_topic_matrix(co_interest)))


# report.json keys, in file order; each holds the EvalReport field of that name.
_REPORT_KEYS = ("mechanism", "sweep", "n_labeled", "overall_accuracy",
                "overall_accuracy_by_mechanism", "per_topic_accuracy", "precision", "recall",
                "undefined_precision", "undefined_recall", "confusion", "cmc")


def write_evaluation(outdir: Path, report: EvalReport) -> None:
    payload = {key: getattr(report, key) for key in _REPORT_KEYS}
    payload["roc"] = report.roc_points
    write_json(outdir / "report.json", payload)

    ks = report.sweep
    write_text(outdir / "accuracy_by_topic.csv", _csv([
        ("topic", *[f"k={k}" for k in ks]),
        *[(topic, *[report.per_topic_accuracy[topic][k] for k in ks]) for topic in TOPICS],
        ("overall", *[report.overall_accuracy[k] for k in ks]),
    ]))
    write_text(outdir / "confusion.csv", _csv(_topic_matrix(report.confusion)))
    write_text(outdir / "cmc.csv", _csv([("rank", "fraction"), *report.cmc]))
    write_text(outdir / "precision_recall.csv", _csv([
        ("topic", "precision", "recall"),
        *[(topic, report.precision[topic], report.recall[topic]) for topic in TOPICS],
    ]))
    write_text(outdir / "roc_points.csv", _csv([
        ("topic", "threshold", "fpr", "tpr"),
        *[(topic, *point) for topic in TOPICS for point in report.roc_points[topic]],
    ]))

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
