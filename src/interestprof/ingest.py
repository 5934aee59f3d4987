"""Load prediction records and self-assessed labels; drive an external classifier.

Prediction wire format is one JSON object per line:

    {"user_id": "u1", "image_id": "img1",
     "predictions": [{"label": "espresso", "prob": 0.08}, ...]}

Labels are CSV with header ``user_id,topic``. The external-classifier adapter
reads a ``user_id,image_id,image_path`` CSV manifest, invokes a user-supplied
command once per batch with ``{input}`` and ``{output}`` placeholders and
ingests whatever it wrote.

Every parse error is a DataFormatError naming the line. Text that cannot be
written back as UTF-8 is rejected here, before any output exists: open input
files with ``errors.open_input`` so an undecodable byte reaches the parser as
a lone surrogate, which is then reported like a ``\\ud800`` escape.
"""

from __future__ import annotations

import csv
import io
import json
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

from .errors import (
    ConfigError,
    DataFormatError,
    ExternalClassifierError,
    check_utf8,
    escape_control,
    open_input,
)
from .taxonomy import TOPICS, resolve_compound

DEFAULT_TOP_K = 5


@dataclass(frozen=True, slots=True)
class PredictionRecord:
    """Top-k classifier output for one image, probabilities nonincreasing."""

    user_id: str
    image_id: str
    predictions: tuple[tuple[str, float], ...]


@dataclass(eq=True)
class ProfileDataset:
    """Prediction records grouped per user (file order), plus optional labels."""

    records: dict[str, list[PredictionRecord]] = field(default_factory=dict)
    labels: dict[str, str] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list, compare=False)

    def users(self) -> list[str]:
        return list(self.records)

    def n_records(self) -> int:
        return sum(len(recs) for recs in self.records.values())

    def iter_records(self) -> Iterator[PredictionRecord]:
        for recs in self.records.values():
            yield from recs


def _lines(source: str | Iterable[str]) -> Iterator[str]:
    if isinstance(source, str):
        yield from source.splitlines()
    else:
        yield from source


_BY_PROB = itemgetter(1)


def _parse_prediction_line(
    line: str, no: int, k_max: int, strings: dict[str, str]
) -> PredictionRecord:
    """One record; ``strings`` interns user ids and labels across a load.

    ``json`` yields only exact dict/list/str/int/float/bool/None, so exact
    type checks suffice (and keep bool out of the numbers).
    """
    if not line.isascii():
        check_utf8(line, "line", no)
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"malformed JSON: {exc.msg}", line=no) from None
    except ValueError as exc:  # an integer literal beyond the int/str digit limit
        raise DataFormatError(f"malformed JSON: {exc}", line=no) from None
    except RecursionError:
        raise DataFormatError("malformed JSON: nested too deeply", line=no) from None
    if type(obj) is not dict:
        raise DataFormatError("expected a JSON object", line=no)

    user_id = obj.get("user_id")
    image_id = obj.get("image_id")
    preds = obj.get("predictions")
    if type(user_id) is not str or not user_id:
        raise DataFormatError("missing or empty 'user_id'", line=no)
    if type(image_id) is not str or not image_id:
        raise DataFormatError("missing or empty 'image_id'", line=no)
    known = strings.get(user_id)
    if known is None:
        if not user_id.isascii():
            check_utf8(user_id, "'user_id'", no)
        known = strings[user_id] = user_id
    user_id = known
    if not image_id.isascii():
        check_utf8(image_id, "'image_id'", no)
    if type(preds) is not list or not preds:
        raise DataFormatError("'predictions' must be a nonempty list", line=no)
    if len(preds) > k_max:
        raise DataFormatError(
            f"{len(preds)} predictions exceed the configured top-k of {k_max}", line=no
        )

    pairs = []
    for item in preds:
        if type(item) is not dict:
            raise DataFormatError("prediction entries must be objects", line=no)
        label = item.get("label")
        prob = item.get("prob")
        if type(label) is not str or not label:
            raise DataFormatError("prediction missing a 'label' string", line=no)
        known = strings.get(label)
        if known is None:
            if not label.isascii():
                check_utf8(label, "'label'", no)
            known = strings[label] = label
        if type(prob) is float:
            if not 0.0 <= prob <= 1.0:
                raise DataFormatError(
                    f"prob {prob} for '{escape_control(label)}' out of range [0, 1]", line=no
                )
        elif type(prob) is int:
            # Range-checked as an int: float() of a huge int would overflow.
            if not 0 <= prob <= 1:
                raise DataFormatError(
                    f"prob {prob} for '{escape_control(label)}' out of range [0, 1]", line=no
                )
            prob = float(prob)
        else:
            raise DataFormatError(f"prob for '{escape_control(label)}' is not a number", line=no)
        pairs.append((known, prob))
    # Classifiers normally emit descending scores already; sorting makes the
    # nonincreasing invariant hold by construction (stable, also in reverse,
    # so equal probs keep their input order).
    pairs.sort(key=_BY_PROB, reverse=True)
    return PredictionRecord(user_id=user_id, image_id=image_id, predictions=tuple(pairs))


def load_predictions(
    source: str | Iterable[str],
    k_max: int = DEFAULT_TOP_K,
    skip_bad: bool = False,
) -> ProfileDataset:
    """Read prediction lines into a dataset grouped by user, preserving file order.

    Any malformed or invalid line aborts the load unless ``skip_bad`` is set,
    in which case it is skipped and reported in ``dataset.warnings``.
    """
    records: dict[str, list[PredictionRecord]] = {}
    seen: dict[str, set[str]] = {}  # image ids per user
    strings: dict[str, str] = {}
    warnings: list[str] = []
    for no, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            rec = _parse_prediction_line(line, no, k_max, strings)
            images = seen.get(rec.user_id)
            if images is None:
                images = seen[rec.user_id] = set()
                records[rec.user_id] = []
            elif rec.image_id in images:
                raise DataFormatError(
                    f"duplicate record for user '{escape_control(rec.user_id)}' "
                    f"image '{escape_control(rec.image_id)}'",
                    line=no,
                )
        except DataFormatError as exc:
            if skip_bad:
                warnings.append(f"skipped {exc}")
                continue
            raise
        images.add(rec.image_id)
        records[rec.user_id].append(rec)
    return ProfileDataset(records=records, labels={}, warnings=warnings)


def serialize_predictions(dataset: ProfileDataset) -> str:
    """Inverse of load_predictions: one JSON line per record, load order."""
    out = []
    for rec in dataset.iter_records():
        out.append(
            json.dumps(
                {
                    "user_id": rec.user_id,
                    "image_id": rec.image_id,
                    "predictions": [{"label": l, "prob": p} for l, p in rec.predictions],
                }
            )
        )
    return "\n".join(out) + ("\n" if out else "")


def _csv_rows(
    source: str | Iterable[str], path: str | None = None
) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) of each CSV row.

    A csv error or a cell that is not valid UTF-8 raises DataFormatError.
    """
    reader = csv.reader(_lines(source))
    try:
        for row in reader:
            for cell in row:
                if not cell.isascii():
                    check_utf8(cell, "cell", reader.line_num, path)
            yield reader.line_num, row
    except csv.Error as exc:
        raise DataFormatError(f"malformed CSV: {exc}", line=reader.line_num, path=path) from None


def load_labels(source: str | Iterable[str]) -> dict[str, str]:
    """Read a ``user_id,topic`` CSV into a user -> canonical topic table."""
    labels: dict[str, str] = {}
    header_seen = False
    for no, row in _csv_rows(source):
        if not row or not any(cell.strip() for cell in row):
            continue
        if not header_seen:
            if [c.strip() for c in row] != ["user_id", "topic"]:
                raise DataFormatError("expected header 'user_id,topic'", line=no)
            header_seen = True
            continue
        if len(row) != 2:
            raise DataFormatError(f"expected 2 columns, got {len(row)}", line=no)
        user_id, topic = row[0].strip(), row[1].strip()
        if not user_id:
            raise DataFormatError("empty user_id", line=no)
        if topic not in TOPICS:
            atoms = resolve_compound(topic)
            if atoms is not None:
                raise DataFormatError(
                    f"compound topic '{escape_control(topic)}': use {' or '.join(atoms)}",
                    line=no,
                )
            raise DataFormatError(f"unknown topic '{escape_control(topic)}'", line=no)
        if user_id in labels:
            raise DataFormatError(f"duplicate label for user '{escape_control(user_id)}'", line=no)
        labels[user_id] = topic
    if not header_seen:
        raise DataFormatError("empty labels file: expected header 'user_id,topic'", line=1)
    return labels


def serialize_labels(labels: dict[str, str]) -> str:
    """Inverse of load_labels: the ``user_id,topic`` CSV, table order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("user_id", "topic"))
    writer.writerows(labels.items())
    return buf.getvalue()


MANIFEST_HEADER = ("user_id", "image_id", "image_path")


def load_manifest(
    source: str | Iterable[str], path: str | None = None
) -> list[tuple[str, str, str]]:
    """Read a ``user_id,image_id,image_path`` CSV (header optional) into rows.

    Errors name ``path:line`` when ``path`` is given.
    """
    rows: list[tuple[str, str, str]] = []
    for no, row in _csv_rows(source, path):
        cells = tuple(cell.strip() for cell in row)
        if not any(cells) or (no == 1 and cells == MANIFEST_HEADER):
            continue
        if len(cells) != 3:
            raise DataFormatError(
                f"expected user_id,image_id,image_path, got {len(cells)} columns",
                line=no, path=path,
            )
        for name, cell in zip(MANIFEST_HEADER, cells):
            if not cell:
                raise DataFormatError(f"empty {name}", line=no, path=path)
        rows.append(cells)
    return rows


def attach_labels(dataset: ProfileDataset, labels: dict[str, str]) -> ProfileDataset:
    """Dataset with labels attached; labels for absent users become warnings."""
    warnings = list(dataset.warnings)
    for user_id in labels:
        if user_id not in dataset.records:
            warnings.append(
                f"label for user '{escape_control(user_id)}' matches no prediction records"
            )
    return ProfileDataset(records=dataset.records, labels=dict(labels), warnings=warnings)


def run_external_classifier(
    manifest: list[tuple[str, str, str]],
    command_template: str,
    k: int = DEFAULT_TOP_K,
) -> ProfileDataset:
    """Run a classifier command over a batch manifest and ingest its output.

    ``manifest`` rows are (user_id, image_id, image_path). The command template
    must contain ``{input}`` (manifest CSV path) and ``{output}`` (path where
    the command writes prediction lines) and is invoked exactly once. Parse
    errors in its output name ``classifier output:<line>``, and the tail of its
    stderr is quoted with control characters escaped.
    """
    if "{input}" not in command_template or "{output}" not in command_template:
        raise ConfigError("classifier command template needs {input} and {output} placeholders")
    if not manifest:
        return ProfileDataset()

    with tempfile.TemporaryDirectory(prefix="interestprof-") as tmp:
        in_path = Path(tmp) / "manifest.csv"
        out_path = Path(tmp) / "predictions.jsonl"
        with open(in_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(MANIFEST_HEADER)
            writer.writerows(manifest)

        argv = [
            tok.replace("{input}", str(in_path)).replace("{output}", str(out_path))
            for tok in shlex.split(command_template)
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, errors="backslashreplace")
        if proc.returncode != 0:
            raise ExternalClassifierError(
                f"classifier command exited with status {proc.returncode}: "
                f"{escape_control(proc.stderr.strip()[-500:])}"
            )
        if not out_path.exists():
            raise ExternalClassifierError("classifier command wrote no output file")
        with open_input(out_path, "classifier output") as fh:
            try:
                return load_predictions(fh, k_max=k)
            except DataFormatError as exc:
                raise DataFormatError(exc.detail, exc.line, "classifier output") from None
