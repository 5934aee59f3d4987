"""Load prediction lines and self-assessed labels; drive an external classifier.

Prediction wire format is one JSON object per line:

    {"user_id": "u1", "image_id": "img1",
     "predictions": [{"label": "espresso", "prob": 0.08}, ...]}

One per-line validator checks every line, and one loop, ``group_predictions``,
groups the valid lines per user and image in file order, rejecting duplicates
and (with ``--skip-bad``) skipping bad lines with a warning. What each image
becomes is the caller's choice: ``load_predictions`` makes PredictionRecords,
for the fixture, the scripts and the tests; the pipeline path,
``scoring.load_score_cells``, makes each image's sparse score cells at once
and holds no record.

Each line is read once. The default JSON decoder's scanner decodes it, and
only a line the scanner does not read whole goes through ``json.loads``
again, so every value and message is that of ``json.loads``. A per-load memo
maps each label to its key (the label itself for records, its topic position
for cells): a label is checked and resolved on its first sight, and each
later occurrence is one dict probe.

Labels are CSV with header ``user_id,topic``. The external-classifier adapter
reads a ``user_id,image_id,image_path`` CSV manifest, invokes a user-supplied
command once per batch with ``{input}`` and ``{output}`` placeholders and
ingests what it wrote, which must be one record per manifest row.

Every parse error is a DataFormatError naming the line. Text that cannot be
written back as UTF-8 is rejected here, before any output exists: open input
files with ``errors.open_input`` so an undecodable byte reaches the parser as
a lone surrogate, which is then reported like a ``\\ud800`` escape.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shlex
import signal
import subprocess
import tempfile
from dataclasses import dataclass, field, replace
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

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


K = TypeVar("K")  # what a load makes of each label
Pairs = list[tuple[K, float]]  # (key of the label, prob) in line order
T = TypeVar("T")
D = TypeVar("D")  # a dataset: ProfileDataset or scoring.ScoredDataset

# The default decoder's scanner, called without json.loads' two wrapper layers.
_scan_once = json.JSONDecoder().scan_once


def _parse_prediction_line(
    line: str, no: int, k_max: int, strings: dict[str, str], keys: dict[str, K],
    key: Callable[[str], K] | None,
) -> tuple[str, str, Pairs]:
    """(user_id, image_id, pairs) of one stripped line.

    ``strings`` interns user ids across a load. ``keys`` memoizes each label's
    key across a load (``key(label)``, or the label itself when ``key`` is
    None): a label is type-checked, UTF-8-checked and resolved on its first
    sight only, and each later occurrence costs one dict probe.

    ``json`` yields only exact dict/list/str/int/float/bool/None, so exact
    type checks suffice (and keep bool out of the numbers).
    """
    if not line.isascii():
        check_utf8(line, "line", no)
    try:
        # The line has no whitespace left at either end, so json.loads accepts
        # it exactly when the scanner reads one value that ends where the line
        # ends; any other outcome re-runs json.loads for its value or message.
        try:
            obj, end = _scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):
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
        try:
            label_key = keys[label]
        except (KeyError, TypeError):  # not seen in this load, or unhashable
            if type(label) is not str or not label:
                raise DataFormatError("prediction missing a 'label' string", line=no) from None
            if not label.isascii():
                check_utf8(label, "'label'", no)
            label_key = keys[label] = label if key is None else key(label)
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
        pairs.append((label_key, prob))
    return user_id, image_id, pairs


def group_predictions(
    source: str | Iterable[str],
    image: Callable[[Pairs], T],
    k_max: int = DEFAULT_TOP_K,
    skip_bad: bool = False,
    listed: dict[tuple[str, str], int] | None = None,
    key: Callable[[str], K] | None = None,
) -> tuple[dict[str, dict[str, T]], list[str]]:
    """Valid prediction lines as user -> image_id -> ``image(pairs)``, file order,
    and the warnings for skipped lines.

    Each pair holds ``key(label)``, or the label itself when ``key`` is None;
    ``key`` runs once per distinct label of a load, on its first valid sight.
    Any malformed or invalid line, or a second record of one image, aborts the
    load unless ``skip_bad`` is set, in which case it is skipped and reported.
    ``listed`` maps every expected (user_id, image_id) to its manifest line:
    each record takes its pair out of it, a record whose pair is not there is
    an error, and the pairs left over had no record.
    """
    groups: dict[str, dict[str, T]] = {}
    strings: dict[str, str] = {}
    keys: dict[str, K] = {}
    warnings: list[str] = []
    for no, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            user_id, image_id, pairs = _parse_prediction_line(
                line, no, k_max, strings, keys, key
            )
            images = groups.get(user_id)
            if images is not None and image_id in images:
                raise DataFormatError(
                    f"duplicate record for user '{escape_control(user_id)}' "
                    f"image '{escape_control(image_id)}'",
                    line=no,
                )
            if listed is not None and listed.pop((user_id, image_id), None) is None:
                raise DataFormatError(
                    f"user '{escape_control(user_id)}' image '{escape_control(image_id)}' "
                    "is not listed in the manifest",
                    line=no,
                )
        except DataFormatError as exc:
            if skip_bad:
                warnings.append(f"skipped {exc}")
                continue
            raise
        if images is None:
            images = groups[user_id] = {}
        images[image_id] = image(pairs)
    return groups, warnings


_BY_PROB = itemgetter(1)


def _by_prob(pairs: Pairs) -> tuple[tuple[str, float], ...]:
    # Classifiers normally emit descending scores already; sorting makes the
    # nonincreasing invariant hold by construction (stable, also in reverse,
    # so equal probs keep their input order).
    pairs.sort(key=_BY_PROB, reverse=True)
    return tuple(pairs)


def load_predictions(
    source: str | Iterable[str],
    k_max: int = DEFAULT_TOP_K,
    skip_bad: bool = False,
    listed: dict[tuple[str, str], int] | None = None,
) -> ProfileDataset:
    """Read prediction lines into records grouped by user, preserving file order.

    Checks, errors and warnings are those of ``group_predictions``.
    """
    groups, warnings = group_predictions(source, _by_prob, k_max, skip_bad, listed)
    records = {
        user_id: [PredictionRecord(user_id, image_id, preds) for image_id, preds in images.items()]
        for user_id, images in groups.items()
    }
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


@dataclass(frozen=True)
class Manifest:
    """Rows of a ``user_id,image_id,image_path`` CSV, the line of each, and its path."""

    rows: list[tuple[str, str, str]]
    lines: list[int]
    path: str | None = None


def read_manifest(source: str | Iterable[str], path: str | None = None) -> Manifest:
    """Read a ``user_id,image_id,image_path`` CSV (header optional).

    Errors name ``path:line`` when ``path`` is given.
    """
    rows: list[tuple[str, str, str]] = []
    lines: list[int] = []
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
        lines.append(no)
    return Manifest(rows, lines, path)


def load_manifest(
    source: str | Iterable[str], path: str | None = None
) -> list[tuple[str, str, str]]:
    """The rows of ``read_manifest``."""
    return read_manifest(source, path).rows


def attach_labels(dataset: D, labels: dict[str, str]) -> D:
    """Dataset with labels attached; labels for absent users become warnings."""
    users = set(dataset.users())
    warnings = list(dataset.warnings)
    for user_id in labels:
        if user_id not in users:
            warnings.append(
                f"label for user '{escape_control(user_id)}' matches no prediction records"
            )
    return replace(dataset, labels=dict(labels), warnings=warnings)


def run_external_classifier(
    manifest: Manifest | Sequence[tuple[str, str, str]],
    command_template: str,
    k: int = DEFAULT_TOP_K,
    load: Callable[..., D] = load_predictions,
    timeout: float | None = None,
) -> D:
    """Run a classifier command over a batch manifest and ingest its output.

    ``manifest`` rows are (user_id, image_id, image_path); a plain sequence of
    rows numbers them from 1. The command template must contain ``{input}``
    (manifest CSV path) and ``{output}`` (path where the command writes
    prediction lines) and is invoked exactly once. ``load(lines, k_max=k,
    listed=...)`` reads its output. Errors in the output name
    ``classifier output:<line>``, a record of a (user_id, image_id) pair the
    manifest does not list included; a manifest row with no record names its
    own line. The tail of the command's stderr is quoted with control
    characters escaped. A command that cannot be started, or that runs longer
    than ``timeout`` seconds (None: no limit) and is killed, is an
    ExternalClassifierError.
    """
    if "{input}" not in command_template or "{output}" not in command_template:
        raise ConfigError("classifier command template needs {input} and {output} placeholders")
    try:
        tokens = shlex.split(command_template)
    except ValueError as exc:
        raise ConfigError(f"classifier command template: {exc}") from None
    if not isinstance(manifest, Manifest):
        manifest = Manifest(list(manifest), list(range(1, len(manifest) + 1)))
    if not manifest.rows:
        return load([], k_max=k)

    listed: dict[tuple[str, str], int] = {}
    for (user_id, image_id, _), no in zip(manifest.rows, manifest.lines):
        listed.setdefault((user_id, image_id), no)
    with tempfile.TemporaryDirectory(prefix="interestprof-") as tmp:
        in_path = Path(tmp) / "manifest.csv"
        out_path = Path(tmp) / "predictions.jsonl"
        with open(in_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(MANIFEST_HEADER)
            writer.writerows(manifest.rows)

        argv = [
            tok.replace("{input}", str(in_path)).replace("{output}", str(out_path))
            for tok in tokens
        ]
        # The command leads a process group of its own, so a timeout kills
        # whatever it started as well.
        try:
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                    text=True, errors="backslashreplace",
                                    start_new_session=True)
        except OSError as exc:
            raise ExternalClassifierError(
                f"classifier command '{escape_control(argv[0])}' could not be started: "
                f"{exc.strerror or exc}"
            ) from None
        with proc:
            try:
                _, stderr = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise ExternalClassifierError(
                    f"classifier command timed out after {timeout:g} s"
                ) from None
        if proc.returncode != 0:
            raise ExternalClassifierError(
                f"classifier command exited with status {proc.returncode}: "
                f"{escape_control(stderr.strip()[-500:])}"
            )
        if not out_path.exists():
            raise ExternalClassifierError("classifier command wrote no output file")
        with open_input(out_path, "classifier output") as fh:
            try:
                dataset = load(fh, k_max=k, listed=listed)
            except DataFormatError as exc:
                raise DataFormatError(exc.detail, exc.line, "classifier output") from None
    if listed:
        (user_id, image_id), no = next(iter(listed.items()))
        raise DataFormatError(
            f"no classifier output for user '{escape_control(user_id)}' "
            f"image '{escape_control(image_id)}'",
            line=no, path=manifest.path,
        )
    return dataset
