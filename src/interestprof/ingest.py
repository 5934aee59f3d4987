"""Load prediction lines and self-assessed labels; drive an external classifier.

Prediction wire format is one JSON object per line:

    {"user_id": "u1", "image_id": "img1",
     "predictions": [{"label": "espresso", "prob": 0.08}, ...]}

PredictionRecords are what the fixture generator builds and
``serialize_predictions`` writes. Every load, from a predictions file or from
a classifier's output, goes through ``load_score_cells``, which builds no
record: one per-line validator checks every line, and one loop groups the
valid lines per user and image in file order, rejecting duplicates, and hands
each kept image's pairs to ``ScoredDataset.add``, which owns the packed cell
layout (see ``scoring``). A bad line aborts the load, or, given a ``skip``
callback (``--skip-bad``), is passed to it as it is met: no message is kept.

Each line is read once. The default JSON decoder's scanner decodes it, and
only a line the scanner does not read whole goes through ``json.loads`` again,
so every value and message is that of ``json.loads``. A per-load memo maps
each label to its key, the label's topic position in the caller's
``LabelIndex``: a label is checked and resolved on its first sight, and each
later occurrence is one dict probe. A line nested ``MAX_NESTING`` levels deep
is rejected before it is decoded, wherever the load is called from.

Labels are CSV with header ``user_id,topic``, read by ``load_labels`` into a
table of their own; no load carries them. The external-classifier adapter
reads a ``user_id,image_id,image_path`` CSV manifest into one map from each
(user_id, image_id) pair to its image path and line, invokes a user-supplied
command once per batch with ``{input}`` and ``{output}`` placeholders and
hands back what it wrote, which ``load_score_cells`` checks against that map:
one line per manifest row.

Every parse error is a DataFormatError naming the file and line. Text that
cannot be written back as UTF-8 is rejected here, before any output exists:
open input files with ``errors.open_input`` so an undecodable byte reaches the
parser as a lone surrogate, which is then reported like a ``\\ud800`` escape.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .config import DEFAULT_TOP_K, MAX_TOPK
from .errors import (
    ConfigError,
    DataFormatError,
    ExternalClassifierError,
    check_utf8,
    escape_control,
    input_lines,
    open_input,
)
from .scoring import ScoredDataset
from .taxonomy import TOPICS, LabelIndex, resolve_compound


class PredictionRecord(NamedTuple):
    """Top-k classifier output for one image, as the fixture generator builds it."""

    user_id: str
    image_id: str
    predictions: tuple[tuple[str, float], ...]


class ProfileDataset:
    """Prediction records grouped per user (file order), plus optional labels."""

    def __init__(self, records: dict[str, list[PredictionRecord]] | None = None,
                 labels: dict[str, str] | None = None, warnings: list[str] | None = None):
        self.records = {} if records is None else records
        self.labels = {} if labels is None else labels
        self.warnings = [] if warnings is None else warnings

    def users(self) -> list[str]:
        return list(self.records)

    def iter_records(self) -> Iterator[PredictionRecord]:
        for recs in self.records.values():
            yield from recs


Pairs = list[tuple[int, float]]  # (topic position of the label, prob) in line order

# The default decoder's scanner, called without json.loads' two wrapper layers.
_scan_once = json.JSONDecoder().scan_once

# A line nested this deep is rejected before it is decoded. The decoder
# recurses once per level, so without a cap whether a line loads would depend
# on the recursion depth the caller has left.
MAX_NESTING = 256
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"?')  # an unterminated string runs to the end
_BRACKET = re.compile(r"[][{}]")


def _nests_too_deeply(line: str) -> bool:
    """Whether the brackets of ``line`` outside its strings open MAX_NESTING levels.

    A well-formed line nested MAX_NESTING deep holds that many openers and as
    many closers, so the caller skips a line shorter than ``2 * MAX_NESTING``
    (one that leaves brackets open is malformed and rejected by the decoder),
    and a line with fewer openers is decided without a scan.
    """
    if line.count("[") + line.count("{") < MAX_NESTING:
        return False
    depth = 0
    for bracket in _BRACKET.findall(_STRING.sub("", line)):
        if bracket in "[{":
            depth += 1
            if depth >= MAX_NESTING:
                return True
        else:
            depth -= 1
    return False


def _parse_prediction_line(
    line: str, no: int, k_max: int, keys: dict[str, int], key: Callable[[str], int],
) -> tuple[str, str, Pairs]:
    """(user_id, image_id, pairs) of one stripped line.

    ``keys`` memoizes each label's ``key(label)`` across a load: a label is
    type-checked, UTF-8-checked and resolved on its first sight only, and each
    later occurrence costs one dict probe.

    ``json`` yields only exact dict/list/str/int/float/bool/None, so exact
    type checks suffice (and keep bool out of the numbers).
    """
    if not line.isascii():
        check_utf8(line, "line", no)
    if len(line) >= 2 * MAX_NESTING and _nests_too_deeply(line):
        raise DataFormatError("malformed JSON: nested too deeply", line=no)
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
    if not user_id.isascii():
        check_utf8(user_id, "'user_id'", no)
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
            label_key = keys[label] = key(label)
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


def serialize_predictions(dataset: ProfileDataset) -> str:
    """One prediction line per record, in dataset order."""
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
    reader = csv.reader(input_lines(source))
    try:
        for row in reader:
            for cell in row:
                if not cell.isascii():
                    check_utf8(cell, "cell", reader.line_num, path)
            yield reader.line_num, row
    except csv.Error as exc:
        raise DataFormatError(f"malformed CSV: {exc}", line=reader.line_num, path=path) from None


def load_labels(source: str | Iterable[str], path: str | None = None) -> dict[str, str]:
    """A ``user_id,topic`` CSV as a user -> canonical topic table; errors name ``path:line``."""
    labels: dict[str, str] = {}
    header_seen = False
    for no, row in _csv_rows(source, path):
        if not row or not any(cell.strip() for cell in row):
            continue
        if not header_seen:
            if [c.strip() for c in row] != ["user_id", "topic"]:
                raise DataFormatError("expected header 'user_id,topic'", line=no, path=path)
            header_seen = True
            continue
        if len(row) != 2:
            raise DataFormatError(f"expected 2 columns, got {len(row)}", line=no, path=path)
        user_id, topic = row[0].strip(), row[1].strip()
        if not user_id:
            raise DataFormatError("empty user_id", line=no, path=path)
        if topic not in TOPICS:
            atoms = resolve_compound(topic)
            if atoms is not None:
                raise DataFormatError(
                    f"compound topic '{escape_control(topic)}': use {' or '.join(atoms)}",
                    line=no, path=path,
                )
            raise DataFormatError(f"unknown topic '{escape_control(topic)}'", line=no, path=path)
        if user_id in labels:
            raise DataFormatError(f"duplicate label for user '{escape_control(user_id)}'",
                                  line=no, path=path)
        labels[user_id] = topic
    if not header_seen:
        raise DataFormatError("empty labels file: expected header 'user_id,topic'",
                              line=1, path=path)
    return labels


def serialize_labels(labels: dict[str, str]) -> str:
    """Inverse of load_labels: the ``user_id,topic`` CSV, table order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("user_id", "topic"))
    writer.writerows(labels.items())
    return buf.getvalue()


MANIFEST_HEADER = ("user_id", "image_id", "image_path")


class Manifest(NamedTuple):
    """A ``user_id,image_id,image_path`` CSV as (user_id, image_id) -> (image_path,
    line), in file order, and its path."""

    rows: dict[tuple[str, str], tuple[str, int]]
    path: str | None = None


def read_manifest(source: str | Iterable[str], path: str | None = None) -> Manifest:
    """Read a ``user_id,image_id,image_path`` CSV; a header, optional, is its
    first non-blank row. A (user_id, image_id) pair may be listed once.

    Errors name ``path:line`` when ``path`` is given.
    """
    rows: dict[tuple[str, str], tuple[str, int]] = {}
    header_possible = True  # until the first non-blank row
    for no, row in _csv_rows(source, path):
        cells = tuple(cell.strip() for cell in row)
        if not any(cells):
            continue
        if header_possible:
            header_possible = False
            if cells == MANIFEST_HEADER:
                continue
        if len(cells) != 3:
            raise DataFormatError(
                f"expected user_id,image_id,image_path, got {len(cells)} columns",
                line=no, path=path,
            )
        for name, cell in zip(MANIFEST_HEADER, cells):
            if not cell:
                raise DataFormatError(f"empty {name}", line=no, path=path)
        user_id, image_id, image_path = cells
        first = rows.get((user_id, image_id))
        if first is not None:
            raise DataFormatError(
                f"duplicate row for user '{escape_control(user_id)}' "
                f"image '{escape_control(image_id)}' (first on line {first[1]})",
                line=no, path=path,
            )
        rows[user_id, image_id] = (image_path, no)
    return Manifest(rows, path)


def load_score_cells(
    source: str | Iterable[str],
    index: LabelIndex,
    k_max: int = DEFAULT_TOP_K,
    skip: Callable[[str], None] | None = None,
    manifest: Manifest | None = None,
    path: str | None = None,
) -> ScoredDataset:
    """Valid prediction lines as packed score cells with k = ``k_max``, grouped per
    user and image in file order.

    ``index.position`` runs once per distinct label of a load, on its
    first valid sight. Any malformed or invalid line, or a second record of one
    image, aborts the load when ``skip`` is None. Otherwise the line is skipped
    and ``skip`` is called, as the line is met, with ``skipped <error>``; the
    load keeps no message. Errors name ``<path>:<line>`` (``line <line>`` with
    no ``path``). With a ``manifest`` the lines are a classifier's
    output for its rows: errors name ``classifier output:<line>``, a record of
    a (user_id, image_id) pair the manifest does not list is one of them, and a
    row left with no record is an error naming the manifest line (passed to
    ``skip`` as it is, after the last line). A ``k_max`` outside 1 to
    ``MAX_TOPK`` is a ValueError before any line is read.
    """
    if not 1 <= k_max <= MAX_TOPK:
        raise ValueError(f"k_max must be in 1 to {MAX_TOPK}, got {k_max}")
    key = index.position
    dataset = ScoredDataset(k=k_max)
    keys: dict[str, int] = {}
    for no, raw in enumerate(input_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            user_id, image_id, pairs = _parse_prediction_line(line, no, k_max, keys, key)
            if image_id in dataset.cells.get(user_id, ()):
                raise DataFormatError(
                    f"duplicate record for user '{escape_control(user_id)}' "
                    f"image '{escape_control(image_id)}'",
                    line=no,
                )
            if manifest is not None and (user_id, image_id) not in manifest.rows:
                raise DataFormatError(
                    f"user '{escape_control(user_id)}' image '{escape_control(image_id)}' "
                    "is not listed in the manifest",
                    line=no,
                )
        except DataFormatError as exc:
            exc = DataFormatError(exc.detail, no, "classifier output" if manifest else path)
            if skip is None:
                raise exc from None
            skip(f"skipped {exc}")
            continue
        dataset.add(user_id, image_id, pairs)
    for (user_id, image_id), (_, no) in (manifest.rows if manifest else {}).items():
        if image_id in dataset.cells.get(user_id, ()):
            continue
        missing = DataFormatError(
            f"no classifier output for user '{escape_control(user_id)}' "
            f"image '{escape_control(image_id)}'",
            line=no, path=manifest.path,
        )
        if skip is None:
            raise missing
        skip(str(missing))
    return dataset


@contextmanager
def run_external_classifier(
    manifest: Manifest, command_template: str, timeout: float | None = None
) -> Iterator[Iterable[str]]:
    """Run a classifier command once over the manifest's rows and yield its output
    file, open; load it with ``load_score_cells(..., manifest)``.

    The command template must contain ``{input}`` (manifest CSV path) and
    ``{output}`` (path where the command writes prediction lines). An empty
    manifest yields no lines and starts no command. The tail of the command's
    stderr is quoted with control characters escaped. A command that cannot be
    started, exits non-zero, writes no output or runs longer than ``timeout``
    seconds (None: no limit) is an ExternalClassifierError. The command leads a
    process group of its own, which is killed on a timeout and on any other
    exception, such as KeyboardInterrupt, that interrupts the wait, so nothing
    it started outlives the run.
    """
    import shlex
    import signal
    import subprocess
    import tempfile

    if "{input}" not in command_template or "{output}" not in command_template:
        raise ConfigError("classifier command template needs {input} and {output} placeholders")
    try:
        tokens = shlex.split(command_template)
    except ValueError as exc:
        raise ConfigError(f"classifier command template: {exc}") from None
    if not manifest.rows:
        yield ()
        return

    with tempfile.TemporaryDirectory(prefix="interestprof-") as tmp:
        in_path = Path(tmp) / "manifest.csv"
        out_path = Path(tmp) / "predictions.jsonl"
        with open(in_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(MANIFEST_HEADER)
            writer.writerows((user_id, image_id, image_path)
                             for (user_id, image_id), (image_path, _) in manifest.rows.items())

        argv = [
            tok.replace("{input}", str(in_path)).replace("{output}", str(out_path))
            for tok in tokens
        ]
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
            except BaseException as exc:  # a timeout, or an interrupt such as SIGINT
                with suppress(ProcessLookupError):  # the whole group has exited
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                if isinstance(exc, subprocess.TimeoutExpired):
                    raise ExternalClassifierError(
                        f"classifier command timed out after {timeout:g} s"
                    ) from None
                raise
        status = proc.returncode
        if status:
            if status > 0:
                failure = f"exited with status {status}"
            else:
                failure = f"killed by signal {-status}"
                with suppress(ValueError):  # a signal without a name
                    failure += f" ({signal.Signals(-status).name})"
            tail = escape_control(stderr.strip()[-500:])
            raise ExternalClassifierError(
                f"classifier command {failure}" + (f": {tail}" if tail else "")
            )
        if not out_path.exists():
            raise ExternalClassifierError("classifier command wrote no output file")
        with open_input(out_path, "classifier output") as fh:
            yield fh
