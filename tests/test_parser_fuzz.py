"""Parser fuzzing: arbitrary input either loads or raises DataFormatError.

Arbitrary text lines (lone surrogates included) and JSON-shaped lines with
random values go to ``load_predictions`` and ``load_labels``; any other
exception is a parser bug. Whatever loads must be writable as UTF-8. The CLI
must turn rejected input files, arbitrary bytes included, into exit 1 with a
line-numbered message and no traceback. The pipeline's loader,
``load_score_cells``, must agree with ``load_predictions`` followed by
``score_block`` on every input: the same blocks and warnings, or the same
error.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from conftest import KNOWN_TERMS, STARTER_PATH, UNKNOWN_TERMS, WORKED_EXAMPLE_PATH, starter_taxonomy
from interestprof.cli import main
from interestprof.errors import DataFormatError
from interestprof.ingest import load_labels, load_predictions
from interestprof.scoring import load_score_cells, score_block
from interestprof.taxonomy import TOPICS

chars = st.one_of(st.characters(), st.characters(categories=["Cs"]))
texts = st.text(chars, max_size=12)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), texts),
    lambda children: st.one_of(
        st.lists(children, max_size=3), st.dictionaries(texts, children, max_size=3)
    ),
    max_leaves=6,
)
predictions = st.fixed_dictionaries({}, optional={
    "label": st.one_of(st.sampled_from(KNOWN_TERMS), texts, json_values),
    "prob": st.one_of(st.floats(min_value=0.0, max_value=1.0), st.integers(-1, 2), json_values),
})
records = st.fixed_dictionaries({}, optional={
    "user_id": st.one_of(st.sampled_from(["u1", "u2"]), texts, json_values),
    "image_id": st.one_of(st.sampled_from(["i1", "i2"]), texts, json_values),
    "predictions": st.one_of(st.lists(st.one_of(predictions, json_values), max_size=7),
                             json_values),
})
json_lines = st.builds(
    lambda obj, ascii_only: json.dumps(obj, ensure_ascii=ascii_only), records, st.booleans()
)
# Inputs that used to escape the parser as other exceptions.
odd_lines = st.sampled_from([
    "[" * 100_000,
    '{"user_id": "u", "image_id": "i", "predictions": [{"label": "cup", "prob": '
    + "1" * 5000 + "}]}",
    '{"user_id": "\\ud800", "image_id": "i", "predictions": [{"label": "cup", "prob": 0.5}]}',
    "\udcff",
])
prediction_lines = st.one_of(texts, json_lines, odd_lines)
# Well-formed lines, so that a differential run also compares loads that succeed.
valid_lines = st.builds(
    lambda user, image, preds: json.dumps({"user_id": user, "image_id": image, "predictions": [
        {"label": label, "prob": prob} for label, prob in preds]}),
    st.sampled_from(["u1", "u2", "u,3"]),
    st.sampled_from(["i1", "i2", "i3"]),
    st.lists(st.tuples(st.sampled_from(KNOWN_TERMS + UNKNOWN_TERMS),
                       st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1]))),
             min_size=1, max_size=7),
)

cells = st.one_of(st.sampled_from(["user_id", "topic", "u1", *TOPICS[:3], "Food & Drink"]), texts)
csv_lines = st.lists(cells, min_size=1, max_size=3).map(",".join)
label_lines = st.one_of(
    texts, csv_lines, st.sampled_from(["user_id,topic", '"a\nb",Food', "x" * 200_000])
)


def assert_utf8(*strings):
    for s in strings:
        s.encode("utf-8")


@given(st.lists(prediction_lines, max_size=5), st.integers(min_value=1, max_value=7))
def test_load_predictions_raises_only_data_format_errors(lines, k_max):
    for source in (lines, "\n".join(lines)):
        try:
            dataset = load_predictions(source, k_max=k_max)
        except DataFormatError:
            dataset = load_predictions(source, k_max=k_max, skip_bad=True)
        for rec in dataset.iter_records():
            assert_utf8(rec.user_id, rec.image_id, *(label for label, _ in rec.predictions))
            assert 0 < len(rec.predictions) <= k_max


@given(st.lists(st.one_of(prediction_lines, valid_lines), max_size=6),
       st.integers(min_value=1, max_value=7), st.booleans())
def test_load_score_cells_matches_records_then_score_block(lines, k_max, skip_bad):
    tax = starter_taxonomy()
    for source in (lines, "\n".join(lines)):
        try:
            expected = load_predictions(source, k_max=k_max, skip_bad=skip_bad)
        except DataFormatError as exc:
            with pytest.raises(DataFormatError) as err:
                load_score_cells(source, tax, k_max, skip_bad)
            assert (str(err.value), err.value.line) == (str(exc), exc.line)
            continue
        dataset = load_score_cells(source, tax, k_max, skip_bad)
        assert dataset.warnings == expected.warnings
        assert dataset.users() == expected.users()
        assert dataset.n_images() == expected.n_records()
        blocks = [dataset.pop_block(user) for user in expected.users()]
        assert blocks == [score_block(expected.records[user], tax, k_max)
                          for user in expected.users()]
        assert dataset.cells == {}


@given(st.lists(label_lines, max_size=5))
def test_load_labels_raises_only_data_format_errors(lines):
    for source in (lines, "\n".join(lines)):
        try:
            labels = load_labels(source)
        except DataFormatError:
            continue
        assert_utf8(*labels)
        assert set(labels.values()) <= set(TOPICS)


def _rejected(path: Path, loader, newline=None) -> bool:
    """Whether the loader rejects the file, opened as the CLI opens it."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline=newline) as fh:
        try:
            loader(fh)
        except DataFormatError:
            return True
    return False


file_contents = st.one_of(
    st.binary(max_size=60),
    st.lists(prediction_lines, min_size=1, max_size=3).map(
        lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass")
    ),
    st.lists(label_lines, min_size=1, max_size=3).map(
        lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass")
    ),
)


@settings(max_examples=40)
@given(file_contents, st.sampled_from(["predictions", "labels"]))
def test_cli_exits_1_on_rejected_input_without_traceback(content, which):
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "input"
        bad.write_bytes(content)
        if which == "predictions":
            assume(_rejected(bad, load_predictions))
            inputs = ["--predictions", bad]
        else:
            assume(_rejected(bad, load_labels, newline=""))
            inputs = ["--predictions", WORKED_EXAMPLE_PATH, "--labels", bad]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["pipeline", "--taxonomy", str(STARTER_PATH),
                       *map(str, inputs), "--out", str(Path(tmp) / "out")])
        assert rc == 1
        assert "Traceback" not in err.getvalue()
        assert re.search(r"error: line \d+: ", err.getvalue())
        assert not (Path(tmp) / "out").exists()
