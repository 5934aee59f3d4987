"""Artifact writers shared by the CLI subcommands.

Floats are emitted with at most 9 significant digits (shortest representation
that round-trips the rounded value), which keeps repeated runs byte-identical.

The image score tables are plain text. Score blocks are sparse, so a row is
written as the cells the image touches, the row's ``(position, prob, count)``
cells, formatted, with the runs of "0" cells between them taken from a table
of runs (``_ZEROS``). An occurrence cell's text, count / k, is formatted the
first time its count is seen, so the memory it takes follows the counts in
the data, not k.
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
renders each distinct profile object once; it reads each packed vector's 25
values in one unpack. It streams ``profiles.json`` and ``profiles_sweep.json``,
so neither document is ever one string. The sweep repeats a user's full
profile at every point at or past the user's image count, and each repeat is
read back from ``profiles.json`` by its byte span: every text here is ASCII
(``_quote`` escapes the rest, and the templates come from ``json.dumps``), so
its bytes are its characters. ``write_evaluation`` reads each ROC
series from the report's mapping once, which computes it, and writes it to
``report.json`` and ``roc_points.csv`` as it reads it, so one series is held
at a time; the mapping (``evaluation.RocPoints``) owns their order. Each ROC
point is formatted once: its CSV text gives its JSON numbers (``_json_of_9g``).

Every artifact is opened through ``_open_output``, which makes the output
directory (``--out``) if it is missing, so it exists once its first file is
opened: a directory that cannot be made is a ConfigError that names it. A
directory in the place of an artifact is a ConfigError that names the
artifact, and a symlink in its place is removed first, so the artifact
replaces the link and never writes through it.

Every other CSV artifact (the accuracy sweep, confusion, CMC, precision and
recall and the three correlation matrices) is text from one helper, ``_csv``.
Its cells are fixed names, topics and numbers, none of which needs quoting;
None is an empty cell. ``roc_points.csv`` holds the same text as ``_csv``
would give.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _quote
from math import copysign, isnan
from pathlib import Path
from typing import IO, TYPE_CHECKING, NamedTuple, TextIO

from .errors import ConfigError, escape_control
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
    return _json_of_9g(f"{x:.9g}")


def _json_of_9g(text: str) -> str:
    """``_float_json`` of the float whose ``%.9g`` text is ``text``."""
    # repr of the float the 9-digit text reads back as. In fixed notation the
    # text already has repr's digits (nine digits round-trip a double) and
    # lacks only the ".0" of whole numbers. Exponent notation starts at 1e9
    # here but at 1e16 in repr, and subnormals lose digits: ask repr.
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
    to None) and a mapping key as its str()."""
    if isinstance(obj, float):
        return None if isnan(obj) else float(f"{obj:.9g}")
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def to_json(obj) -> str:
    """``json.dumps(obj, indent=2)`` with floats rounded to 9 significant digits.

    NaN becomes null and a mapping key its str().
    """
    return json.dumps(_plain(obj), indent=2)


def _template(payload) -> str:
    """``json.dumps(payload, indent=2)`` as a ``%`` template, a hole for each None."""
    return json.dumps(payload, indent=2).replace("%", "%%").replace("null", "%s")


def _open_output(path: Path, mode: str = "w", newline: str | None = None) -> IO:
    """Open an artifact for writing, as text unless ``mode`` is binary, making
    its directory first; a directory that cannot be made, or a directory in the
    artifact's place, is a ConfigError that names it. A symlink in its place is
    replaced by the artifact, so no write lands outside ``--out``."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {escape_control(str(path.parent))} cannot be "
                          f"created: {exc.strerror or exc}") from exc
    if path.is_symlink():
        path.unlink()
    try:
        if "b" in mode:
            return open(path, mode)
        return open(path, mode, encoding="utf-8", newline=newline)
    except IsADirectoryError:
        raise ConfigError(f"output file {escape_control(str(path))} is a directory") from None


def write_text(path: Path, content: str) -> None:
    with _open_output(path) as fh:
        fh.write(content)


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
        *_floats_json(p.v_prob.values()),
        *_floats_json(p.v_occ.values()),
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
    shorter prefix's profile at one point. So each object is rendered once:
    where the sweep repeats a listed profile, its text is read back from
    profiles.json, whose byte span is kept by identity. Every text is ASCII,
    so profiles.json is written as bytes and a span's bytes are its text.
    """
    spans: dict[int, tuple[int, int]] = {}  # id -> a listed profile's (offset, length)
    with _open_output(outdir / "profiles.json", "w+b") as listed:
        sep = b"[\n  "
        for p in profiles:
            text = _profile_json(p).replace("\n", "\n  ").encode()
            listed.write(sep)
            spans[id(p)] = (listed.tell(), len(text))
            listed.write(text)
            sep = b",\n  "
        listed.write(b"[]\n" if sep == b"[\n  " else b"\n]\n")

        def sweep_text(p: UserProfile) -> str:
            span = spans.get(id(p))
            if span is None:  # a prefix profile, placed once
                return _profile_json(p).replace("\n", "\n    ")
            listed.seek(span[0])
            return listed.read(span[1]).decode().replace("\n", "\n  ")

        with _open_output(outdir / "profiles_sweep.json") as fh:
            sep = "{\n  "
            for n, ps in sweep_map.items():
                fh.write(sep + _quote(str(n)) + ": ")
                _write_array(fh, map(sweep_text, ps), "  ")
                sep = ",\n  "
            fh.write("{}\n" if sep[0] == "{" else "\n}\n")


def write_metrics(outdir: Path, size: SizeMetrics, structural: StructuralMetrics,
                  semiotic: SemioticReport) -> None:
    payload = {"size": size._asdict(), "structural": structural._asdict(),
               "semiotic": semiotic._asdict()}
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
    """count -> "," and the formatted count / k, filled in on a count's first lookup."""

    def __init__(self, k: int):
        super().__init__()
        self.k = k

    def __missing__(self, count: int) -> str:
        text = self[count] = "," + fmt_float(count / self.k)
        return text


class ScoreTables(NamedTuple):
    """The open image_scores_prob.csv and image_scores_occ.csv."""

    prob: TextIO
    occ: TextIO
    occ_cells: Mapping[int, str]  # count -> its cell after its comma, see _OccCells


@contextmanager
def open_score_tables(outdir: Path, k: int) -> Iterator[ScoreTables]:
    """Open both image score tables and write their header rows."""
    header = ",".join(("user_id", "image_id", *TOPICS, "unmapped")) + "\n"
    with _open_output(outdir / "image_scores_prob.csv", newline="") as prob_fh, \
            _open_output(outdir / "image_scores_occ.csv", newline="") as occ_fh:
        prob_fh.write(header)
        occ_fh.write(header)
        yield ScoreTables(prob_fh, occ_fh, _OccCells(k))


_ROW_CELLS = len(TOPICS) + 1  # score cells per row: the topics, then unmapped
# _ZEROS[n]: n "0" cells, each after its comma.
_ZEROS = tuple(",0" * n for n in range(_ROW_CELLS + 1))


def write_score_rows(tables: ScoreTables, block: ScoreBlock) -> None:
    """Append one user's image rows to both score tables.

    A row is its ids, then each cell the image touches after the run of "0"
    cells before it, then the run of "0" cells after the last one. Each
    table gets the user's rows as one write.
    """
    if not block.image_ids:
        return
    occ_cells = tables.occ_cells
    zeros = _ZEROS
    user = _csv_field(block.user_id) + ","
    image_ids = block.image_ids
    if _CSV_SPECIAL.search("".join(image_ids)) is not None:
        image_ids = map(_csv_field, image_ids)
    prob_parts, occ_parts = [], []
    prob_add, occ_add = prob_parts.append, occ_parts.append
    for image_id, cells in zip(image_ids, block.rows):
        ids = user + image_id
        prob_add(ids)
        occ_add(ids)
        end = 0  # the position after the last cell written
        for pos, prob, count in cells:
            run = zeros[pos - end]
            prob_add(run)
            prob_add(f",{prob:.9g}" if prob else ",0")  # "%.9g" is fmt_float
            occ_add(run)
            occ_add(occ_cells[count])
            end = pos + 1
        run = zeros[_ROW_CELLS - end] + "\n"
        prob_add(run)
        occ_add(run)
    tables.prob.write("".join(prob_parts))
    tables.occ.write("".join(occ_parts))


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


def _write_roc(json_fh: TextIO, csv_fh: TextIO,
               roc_points: Mapping[str, Sequence[tuple[float, float, float]]]) -> None:
    """Write each ROC series as it is read, in the mapping's order: to
    report.json as ``to_json`` lays it out at its depth there, and to
    roc_points.csv as ``_csv`` rows. Every point holds three floats, and is
    formatted once: its "%.9g" (fmt_float) texts are the CSV cells, and each
    JSON number is derived from its cell's text."""
    sep = "{\n    "
    for topic, points in roc_points.items():
        json_fh.write(sep + _quote(str(topic)) + ": ")
        sep = ",\n    "
        if not points:
            json_fh.write("[]")
            continue
        texts = ["%.9g,%.9g,%.9g" % point for point in points]
        json_fh.write("[\n      " + ",\n      ".join([
            _ROC_POINT % tuple(map(_json_of_9g, text.split(","))) for text in texts
        ]) + "\n    ]")
        row = "\n" + topic + ","
        csv_fh.write(row[1:] + row.join(texts) + "\n")
        del texts  # before the next series' texts are made
    json_fh.write("{}" if sep[0] == "{" else "\n  }")


def write_evaluation(outdir: Path, report: EvalReport) -> None:
    # report.json holds EvalReport's fields in their order, the ROC series
    # last under "roc"; roc_points.csv holds the same series.
    head = to_json({key: value for key, value in report._asdict().items() if key != "roc_points"})
    with _open_output(outdir / "report.json") as json_fh, \
            _open_output(outdir / "roc_points.csv") as csv_fh:
        # The "roc" series close the document, in place of the last "\n}".
        json_fh.write(head[:-2] + ',\n  "roc": ')
        csv_fh.write("topic,threshold,fpr,tpr\n")
        _write_roc(json_fh, csv_fh, report.roc_points)
        json_fh.write("\n}\n")

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
