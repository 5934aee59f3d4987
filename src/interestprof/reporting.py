"""Artifact writers shared by the CLI subcommands.

Floats are emitted with at most 9 significant digits (shortest representation
that round-trips the rounded value), which keeps repeated runs byte-identical.

The image score tables are plain text. Score blocks are sparse, so each row
is a copy of an all-"0" template with only the cells the image touches, the
row's ``(position, prob, count)`` cells, formatted into it, joined with
commas. An occurrence cell's text, count / k, is formatted the first time its
count is seen, so the memory it takes follows the counts in the data, not k.
Each user's rows go to a table as one string. A user id is quoted once per
user and an image id once per row, by ``_csv_field``: an id holding a comma,
a quote or a line break is quoted by the csv module itself, so it reads back
as one cell instead of shifting columns, and every other id is written as it
is.

JSON artifacts are laid out by ``json.dumps(..., indent=2)``: ``to_json``
rounds a payload's floats (``_plain``) and hands it to the stdlib encoder. The
two fixed-shape records written in bulk, a profile (``_PROFILE``) and a ROC
point of ``report.json`` (``_ROC_POINT``), are ``%`` templates taken at import
from the stdlib's layout of a placeholder payload and filled with the same
float rule (``_float_json``). ``json.dumps`` runs a fixed number of times per
command, never per record: each call leaves a reference cycle, and commands
run with the cyclic collector off (see ``cli.main``). ``write_profiles``
renders each distinct profile object once and keeps a listed profile's sweep
text by identity, because the sweep repeats the full profile at every point
at or past a user's image count. It streams ``profiles.json`` and
``profiles_sweep.json``, so neither document is ever one string.
``report.json`` and ``roc_points.csv`` are streamed one ROC series at a time.

Every other CSV artifact (the accuracy sweep, confusion, CMC, precision and
recall and the three correlation matrices) is text from one helper, ``_csv``.
Its cells are fixed names, topics and numbers, none of which needs quoting;
None is an empty cell. ``roc_points.csv`` holds the same text as ``_csv``
would give, one row template per topic.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import copysign, isnan
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from .svgchart import heatmap, line_chart
from .taxonomy import TOPICS

if TYPE_CHECKING:
    from .correlation import CorrelationMatrix
    from .evaluation import EvalReport
    from .ontometrics import SemioticReport, SizeMetrics, StructuralMetrics
    from .profiling import UserProfile
    from .scoring import ScoreBlock


def fmt_float(x: float) -> str:
    return f"{x:.9g}"


_FLOAT_SPECIALS = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _float_json(x: float) -> str:
    """JSON text of a float rounded to 9 significant digits; NaN is null."""
    # repr of the float the 9-digit text reads back as. In fixed notation the
    # text already has repr's digits (nine digits round-trip a double) and
    # lacks only the ".0" of whole numbers. Exponent notation starts at 1e9
    # here but at 1e16 in repr, and subnormals lose digits: ask repr.
    text = f"{x:.9g}"
    if "e" in text:
        return repr(float(text))
    if "." in text:
        return text
    return _FLOAT_SPECIALS.get(text) or text + ".0"


_ZERO_JSON = {1.0: "0.0", -1.0: "-0.0"}  # by the sign of a zero


def _floats_json(xs: Iterable[float]) -> list[str]:
    """``_float_json`` of each value; a zero, the commonest, is looked up."""
    return [_float_json(x) if x else _ZERO_JSON[copysign(1.0, x)] for x in xs]


def _plain(obj):
    """``obj`` for ``json.dumps``: a float rounded to 9 significant digits (NaN
    to None), a Fraction as its string and a mapping key as its str()."""
    if isinstance(obj, float):
        return None if isnan(obj) else float(f"{obj:.9g}")
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def to_json(obj) -> str:
    """``json.dumps(obj, indent=2)`` with floats rounded to 9 significant digits.

    NaN becomes null, a Fraction its string and a mapping key its str().
    """
    return json.dumps(_plain(obj), indent=2)


def _template(payload) -> str:
    """``json.dumps(payload, indent=2)`` as a ``%`` template, a hole for each None."""
    return json.dumps(payload, indent=2).replace("%", "%%").replace("null", "%s")


def write_text(path: Path, content: str) -> None:
    path.write_text(content, encoding="utf-8")


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


_VECTOR_HOLES = dict.fromkeys((*TOPICS, "unmapped"))
# The text of profile_payload(p) as to_json lays it out, with a hole per value.
_PROFILE = _template({
    "user_id": None, "n_images": None, "mechanism": None,
    "v_prob": _VECTOR_HOLES, "v_occ": _VECTOR_HOLES, "predicted_topic": None, "ties": None,
})


def _profile_json(p: UserProfile) -> str:
    """``to_json(profile_payload(p))``, filled into the profile template."""
    ties = "[\n    " + ",\n    ".join(map(_quote, p.ties)) + "\n  ]" if p.ties else "[]"
    return _PROFILE % (
        _quote(p.user_id), int.__repr__(p.n_images), _quote(p.mechanism),
        *_floats_json((*p.v_prob.scores, p.v_prob.unmapped_mass)),
        *_floats_json((*p.v_occ.scores, p.v_occ.unmapped_mass)),
        "null" if p.predicted_topic is None else _quote(p.predicted_topic), ties,
    )


def _write_array(fh: TextIO, texts: Iterable[str], indent: str) -> None:
    """Write a JSON array as it sits at ``indent`` in an indent-2 document, of
    encoded texts already laid out one level deeper."""
    inner = "\n" + indent + "  "
    sep = "[" + inner
    for text in texts:
        fh.write(sep)
        fh.write(text)
        sep = "," + inner
    fh.write("[]" if sep[0] == "[" else "\n" + indent + "]")


def write_profiles(outdir: Path, profiles: Sequence[UserProfile],
                   sweep_map: Mapping[int, Sequence[UserProfile]]) -> None:
    """profiles.json and profiles_sweep.json, streamed.

    The sweep places a user's full profile, the object listed in
    profiles.json, at every point at or past the user's image count, and each
    shorter prefix's profile at one point. So each object is rendered once, a
    listed profile is indented once for each file, and its sweep text is kept
    for the points that repeat it.
    """
    swept: dict[int, str] = {}  # id -> a listed profile's text, indented for the sweep

    def listed_text(p: UserProfile) -> str:
        t = _profile_json(p).replace("\n", "\n  ")
        swept[id(p)] = t.replace("\n", "\n  ")
        return t

    def sweep_text(p: UserProfile) -> str:
        # A prefix profile is placed once, so only listed ones are kept.
        return swept.get(id(p)) or _profile_json(p).replace("\n", "\n    ")

    with open(outdir / "profiles.json", "w", encoding="utf-8") as fh:
        _write_array(fh, map(listed_text, profiles), "")
        fh.write("\n")
    with open(outdir / "profiles_sweep.json", "w", encoding="utf-8") as fh:
        sep = "{\n  "
        for n, ps in sweep_map.items():
            fh.write(sep + _quote(str(n)) + ": ")
            _write_array(fh, map(sweep_text, ps), "  ")
            sep = ",\n  "
        fh.write("{}\n" if sep[0] == "{" else "\n}\n")


def write_metrics(outdir: Path, size: SizeMetrics, structural: StructuralMetrics,
                  semiotic: SemioticReport) -> None:
    payload = {"size": vars(size), "structural": vars(structural), "semiotic": vars(semiotic)}
    write_text(outdir / "ontology_metrics.json", to_json(payload) + "\n")
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


# Characters that make the csv module quote a field, at least on some Python.
_CSV_SPECIAL = re.compile('[,"\r\n]')


def _csv_field(text: str) -> str:
    """``text`` as the csv module writes it as one cell of a row: an id
    holding none of , " \\r \\n as it is, any other through csv.writer."""
    if _CSV_SPECIAL.search(text) is None:
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text,))
    return buf.getvalue()[:-1]


class _OccCells(dict):
    """count -> the formatted count / k, filled in on a count's first lookup."""

    def __init__(self, k: int):
        super().__init__()
        self.k = k

    def __missing__(self, count: int) -> str:
        text = self[count] = fmt_float(count / self.k)
        return text


@dataclass(frozen=True)
class ScoreTables:
    """The open image_scores_prob.csv and image_scores_occ.csv."""

    prob: TextIO
    occ: TextIO
    occ_cells: Mapping[int, str]  # count -> formatted count / k, see _OccCells


@contextmanager
def open_score_tables(outdir: Path, k: int) -> Iterator[ScoreTables]:
    """Open both image score tables and write their header rows."""
    header = ",".join(("user_id", "image_id", *TOPICS, "unmapped")) + "\n"
    with open(outdir / "image_scores_prob.csv", "w", encoding="utf-8", newline="") as prob_fh, \
            open(outdir / "image_scores_occ.csv", "w", encoding="utf-8", newline="") as occ_fh:
        prob_fh.write(header)
        occ_fh.write(header)
        yield ScoreTables(prob_fh, occ_fh, _OccCells(k))


def write_score_rows(tables: ScoreTables, block: ScoreBlock) -> None:
    """Append one user's image rows to both score tables.

    Each row starts as a copy of an all-"0" template; only the cells the
    image touches are filled in. Each table gets the user's rows as one write.
    """
    if not block.image_ids:
        return
    occ_cells = tables.occ_cells
    template = [_csv_field(block.user_id), "", *["0"] * (len(TOPICS) + 1)]
    image_ids = block.image_ids
    if _CSV_SPECIAL.search("".join(image_ids)) is not None:
        image_ids = map(_csv_field, image_ids)
    prob_lines, occ_lines = [], []
    for image_id, cells in zip(image_ids, block.rows):
        prob_row = template.copy()
        prob_row[1] = image_id
        occ_row = prob_row.copy()
        for pos, prob, count in cells:
            if prob:
                prob_row[pos + 2] = fmt_float(prob)
            occ_row[pos + 2] = occ_cells[count]
        prob_lines.append(",".join(prob_row))
        occ_lines.append(",".join(occ_row))
    tables.prob.write("\n".join(prob_lines) + "\n")
    tables.occ.write("\n".join(occ_lines) + "\n")


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


# A (threshold, fpr, tpr) point as to_json lays it out in report.json's "roc".
_ROC_POINT = _template([None] * 3).replace("\n", "\n      ")


def _write_roc(fh: TextIO, roc_points: Mapping[str, Sequence[tuple[float, float, float]]]
               ) -> None:
    """Write the ROC series as ``to_json`` lays them out at their depth in
    report.json, one topic at a time; every point holds three floats."""
    sep = "{\n    "
    for topic, points in roc_points.items():
        fh.write(sep + _quote(str(topic)) + ": ")
        fh.write("[\n      " + ",\n      ".join([
            _ROC_POINT % tuple(_floats_json(point)) for point in points
        ]) + "\n    ]" if points else "[]")
        sep = ",\n    "
    fh.write("{}" if sep[0] == "{" else "\n  }")


def write_evaluation(outdir: Path, report: EvalReport) -> None:
    # report.json holds EvalReport's fields in their order, the ROC series
    # last under "roc".
    head = to_json({key: value for key, value in vars(report).items() if key != "roc_points"})
    with open(outdir / "report.json", "w", encoding="utf-8") as fh:
        # The "roc" series close the document, in place of the last "\n}".
        fh.write(head[:-2] + ',\n  "roc": ')
        _write_roc(fh, report.roc_points)
        fh.write("\n}\n")

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
    with open(outdir / "roc_points.csv", "w", encoding="utf-8") as fh:
        # _csv's rows, one topic at a time: "%.9g" is fmt_float.
        fh.write("topic,threshold,fpr,tpr\n")
        for topic in TOPICS:
            row = topic + ",%.9g,%.9g,%.9g\n"
            fh.write("".join([row % point for point in report.roc_points[topic]]))

    write_text(
        outdir / "cmc.svg",
        line_chart(
            [("CMC", [(float(r), f) for r, f in report.cmc])],
            title="Cumulative match characteristic",
            x_label="rank",
            y_label="fraction matched",
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
        ),
    )
