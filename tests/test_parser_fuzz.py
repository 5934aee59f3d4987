"""Parser fuzzing: arbitrary input either loads or raises DataFormatError.

Arbitrary text lines (lone surrogates included) and JSON-shaped lines with
random values go to ``load_score_cells`` and ``load_labels``; any other
exception is a parser bug. Whatever loads must be writable as UTF-8, and
every row ``load_score_cells`` gives is flat cells, three values a cell, with
strictly increasing positions up to N_TOPICS (unmapped) and counts summing to
k. On well-formed lines it must give the rows of ``oracles.bf_image_rows``,
and skip or reject, naming the line, exactly the lines with more than k
predictions or a repeated (user, image) pair. The CLI must turn rejected input
files, arbitrary bytes included, into exit 1 with a line-numbered message and
no traceback.
"""

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

import oracles
from conftest import (
    KNOWN_TERMS, STARTER_PATH, UNKNOWN_TERMS, WORKED_EXAMPLE_PATH, dense_rows, starter_taxonomy,
)
from test_ingest import STUB_OK
from interestprof.cli import main
from interestprof.errors import DataFormatError
from interestprof.ingest import load_labels, load_score_cells
from interestprof.taxonomy import N_TOPICS, TOPICS, LabelIndex

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
# Well-formed lines: only a count over k or a repeated (user, image) pair is bad.
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


@given(st.lists(st.one_of(prediction_lines, valid_lines), max_size=6),
       st.integers(min_value=1, max_value=7))
def test_load_score_cells_raises_only_data_format_errors(lines, k_max):
    index = LabelIndex(starter_taxonomy())
    for source in (lines, "\n".join(lines)):
        try:
            dataset = load_score_cells(source, index, k_max)
        except DataFormatError:
            dataset = load_score_cells(source, index, k_max, skip=lambda msg: None)
        n_images = dataset.n_images()
        blocks = [dataset.pop_block(user) for user in dataset.users()]
        assert dataset.cells == {}
        assert sum(block.n_images() for block in blocks) == n_images
        for block in blocks:
            assert_utf8(block.user_id, *block.image_ids)
            for row in block.rows:
                assert all(len(cell) == 3 for cell in row)
                positions, _, counts = zip(*row)
                assert all(a < b for a, b in zip(positions, positions[1:]))
                assert all(0 <= pos <= N_TOPICS for pos in positions)
                assert sum(counts) == k_max


@given(st.lists(valid_lines, max_size=6), st.integers(min_value=1, max_value=7), st.booleans())
def test_load_score_cells_matches_the_oracle(lines, k_max, skip_bad):
    tax = starter_taxonomy()
    index = LabelIndex(tax)
    images, bad = {}, []
    for no, line in enumerate(lines, start=1):
        obj = json.loads(line)
        pair = (obj["user_id"], obj["image_id"])
        if len(obj["predictions"]) > k_max or pair in images:
            bad.append(no)
        else:
            images[pair] = [(p["label"], p["prob"]) for p in obj["predictions"]]
    for source in (lines, "\n".join(lines)):
        if bad and not skip_bad:
            with pytest.raises(DataFormatError) as err:
                load_score_cells(source, index, k_max)
            assert err.value.line == bad[0]
            continue
        warnings = []
        dataset = load_score_cells(source, index, k_max, warnings.append if skip_bad else None)
        assert [int(w.split()[2].rstrip(":")) for w in warnings] == bad
        assert dataset.users() == list(dict.fromkeys(user for user, _ in images))
        for user in dataset.users():
            block = dataset.pop_block(user)
            assert block.image_ids == tuple(i for u, i in images if u == user)
            got = [(p.scores, p.unmapped_mass, o.scores, o.unmapped_mass)
                   for p, o in dense_rows(block)]
            assert got == [oracles.bf_image_rows(tax, TOPICS, preds, k_max)
                           for (u, _), preds in images.items() if u == user]


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
            assume(_rejected(bad, lambda fh: load_score_cells(fh, LabelIndex(starter_taxonomy()))))
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
        assert re.search(rf"error: {re.escape(str(bad))}:\d+: ", err.getvalue())
        assert not (Path(tmp) / "out").exists()


def mutations(base: bytes):
    """``base`` after one to four random edits, each deleting, inserting or
    overwriting up to 3 bytes."""
    edits = st.lists(st.tuples(st.integers(0, len(base)), st.sampled_from("dio"),
                               st.binary(min_size=1, max_size=3)), min_size=1, max_size=4)

    def apply(edits):
        data = bytearray(base)
        for at, op, chunk in edits:
            end = at + (0 if op == "i" else len(chunk))
            data[at:end] = b"" if op == "d" else chunk
        return bytes(data)

    return edits.map(apply)


# Small valid files, so that most edits make them invalid.
SETUP_FILES = {
    "taxonomy": b"root Interest\nconcept Drink parent Interest topic\n"
                b"concept Food parent Drink topic\ninstance espresso concept Drink\n"
                b"instance dough concept Food\n",
    "config": b"topk = 5\nmechanism = occ\nsweep = 1,2\ntau = 0.5\n# done\n",
    "manifest": b"user_id,image_id,image_path\nu1,i1,/img/a.jpg\nu1,i2,/img/b.jpg\n",
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SETUP_FILES)).flatmap(
    lambda which: st.tuples(st.just(which), mutations(SETUP_FILES[which]))))
def test_cli_exits_1_or_2_on_rejected_setup_file_without_traceback(case):
    which, content = case
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "input"
        bad.write_bytes(content)
        inputs = ["--taxonomy", STARTER_PATH, "--predictions", WORKED_EXAMPLE_PATH]
        if which == "taxonomy":
            inputs[1] = bad
        elif which == "config":
            inputs += ["--config", bad]
        else:
            stub = Path(tmp) / "stub.py"
            stub.write_text(STUB_OK)
            inputs[2:] = ["--classifier-cmd", f"{sys.executable} {stub} {{input}} {{output}}",
                          "--manifest", bad]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["pipeline", *map(str, inputs), "--out", str(Path(tmp) / "out")])
        assume(rc != 0)  # an edit that leaves the file valid
        assert rc in (1, 2)
        assert "Traceback" not in err.getvalue()
        assert err.getvalue().splitlines()[-1].startswith("error: ")
        assert not (Path(tmp) / "out").exists()
