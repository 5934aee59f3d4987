"""Prediction/label ingestion and the external-classifier adapter."""

import json
import math
import os
import signal
import sys
import time

import pytest

from conftest import make_record, starter_taxonomy
from interestprof import ingest, scoring
from interestprof.config import parse_config_file
from interestprof.errors import (
    ConfigError,
    DataFormatError,
    ExternalClassifierError,
    TaxonomyError,
    escape_control,
    open_input,
)
from interestprof.ingest import (
    Manifest,
    ProfileDataset,
    load_labels,
    load_score_cells,
    read_manifest,
    run_external_classifier,
    serialize_labels,
    serialize_predictions,
)
from interestprof.scoring import ScoredDataset, pack_cells
from interestprof.taxonomy import N_TOPICS, TOPICS, LabelIndex, load_taxonomy, parse_taxonomy

INDEX = LabelIndex(starter_taxonomy())
WORKED_LINE = json.dumps(
    {
        "user_id": "u1",
        "image_id": "img1",
        "predictions": [
            {"label": "espresso", "prob": 0.08},
            {"label": "cup", "prob": 0.07},
            {"label": "dough", "prob": 0.06},
            {"label": "ladle", "prob": 0.05},
            {"label": "sandal", "prob": 0.04},
        ],
    }
)


def test_load_single_record():
    ds = load_score_cells(WORKED_LINE, INDEX)
    assert ds.users() == ["u1"]
    block = ds.pop_block("u1")
    assert block.image_ids == ("img1",)
    drink, fashion, food = map(TOPICS.index, ("Drink", "Fashion", "Food"))
    assert block.rows == (((drink, math.fsum([0.08, 0.07, 0.05]), 3),
                           (fashion, 0.04, 1), (food, 0.06, 1)),)


def test_empty_stream_gives_empty_dataset():
    ds = load_score_cells("", INDEX)
    assert ds.users() == []
    assert ds.n_images() == 0


def test_prob_out_of_range_names_line():
    bad = WORKED_LINE + "\n" + json.dumps(
        {"user_id": "u2", "image_id": "i", "predictions": [{"label": "x", "prob": 1.3}]}
    )
    with pytest.raises(DataFormatError, match="line 2") as err:
        load_score_cells(bad, INDEX)
    assert "1.3" in str(err.value)


def test_malformed_json_aborts_with_line_number():
    with pytest.raises(DataFormatError, match="line 1"):
        load_score_cells("{not json", INDEX)


def _outcome(source):
    """Each user's image ids and cell rows as load_score_cells reads them from
    ``source``, or its error message. A row is compared by its repr, which
    tells -0.0 from 0.0 as the packed bytes do."""
    try:
        ds = load_score_cells(source, INDEX)
    except DataFormatError as exc:
        return str(exc)
    blocks = map(ds.pop_block, ds.users())
    return {b.user_id: dict(zip(b.image_ids, map(repr, b.rows))) for b in blocks}


def _cup(prob):
    return '{"user_id": "u", "image_id": "i", "predictions": [{"label": "cup", "prob": %s}]}' % prob


# Lines at the edges of what the decoder's scanner reads without json.loads.
SCANNER_LINES = {
    "plain": WORKED_LINE,
    "trailing word": WORKED_LINE + " x",
    "two objects": WORKED_LINE + WORKED_LINE,
    "leading BOM": "\ufeff" + WORKED_LINE,
    "trailing BOM": WORKED_LINE + "\ufeff",
    "non-object": json.dumps([WORKED_LINE]),
    "bare string": '"u"',
    "deep nesting": "[" * 100_000,
    "5000-digit integer": _cup("1" * 5000),
    "NaN prob": _cup("NaN"),
    "Infinity prob": _cup("Infinity"),
    "negative Infinity prob": _cup("-Infinity"),
    "duplicate keys": '{"user_id": "x", "image_id": "i", "user_id": "u", '
                      '"predictions": [{"label": "cup", "prob": 0.2, "prob": 0.5}]}',
    "truncated": WORKED_LINE[:-1],
}


@pytest.mark.parametrize("line", SCANNER_LINES.values(), ids=SCANNER_LINES)
def test_scanner_gives_what_json_loads_gives(line, monkeypatch):
    got = _outcome(line)
    try:
        json.loads(line)
    except json.JSONDecodeError as exc:
        assert got == f"line 1: malformed JSON: {exc.msg}"
        return
    except ValueError as exc:
        assert got == f"line 1: malformed JSON: {exc}"
        return
    except RecursionError:
        assert got == "line 1: malformed JSON: nested too deeply"
        return

    def no_scan(line, idx):
        raise StopIteration(idx)

    monkeypatch.setattr(ingest, "_scan_once", no_scan)  # every line through json.loads
    assert got == _outcome(line)


def _nested_line(depth):
    """A valid prediction line nested ``depth`` deep, with brackets in a string besides."""
    lists = depth - 1  # the line's own object is the first level
    return ('{"user_id": "u", "image_id": "i", "note": "%s", "x": %s%s, '
            '"predictions": [{"label": "cup", "prob": 0.5}]}'
            % ("[{" * ingest.MAX_NESTING, "[" * lists, "]" * lists))


def _at_depth(frames, fn, *args):
    """``fn(*args)`` called ``frames`` Python frames deeper than the caller."""
    return fn(*args) if frames == 0 else _at_depth(frames - 1, fn, *args)


@pytest.mark.parametrize("frames", [0, 500])
def test_nesting_cap_does_not_depend_on_the_callers_depth(frames):
    at_cap = _nested_line(ingest.MAX_NESTING)
    below = _nested_line(ingest.MAX_NESTING - 1)
    assert _at_depth(frames, _outcome, at_cap) == "line 1: malformed JSON: nested too deeply"
    assert list(_at_depth(frames, _outcome, below)) == ["u"]


def test_duplicate_keys_keep_the_last_and_nan_is_out_of_range():
    assert _outcome(SCANNER_LINES["duplicate keys"]) == _outcome(_cup(0.5))
    assert _outcome(SCANNER_LINES["NaN prob"]) == "line 1: prob nan for 'cup' out of range [0, 1]"


def test_skip_bad_collects_warnings():
    text = "{broken\n" + WORKED_LINE + "\n"
    ds = load_score_cells(text, INDEX, skip_bad=True)
    assert ds.users() == ["u1"]
    assert len(ds.warnings) == 1
    assert "line 1" in ds.warnings[0]


def test_each_kept_image_is_packed_once(monkeypatch):
    packed = []

    def counting_pack(pairs, k):
        packed.append(pairs)
        return pack_cells(pairs, k)

    monkeypatch.setattr(scoring, "pack_cells", counting_pack)
    u2 = json.dumps({"user_id": "u2", "image_id": "a",
                     "predictions": [{"label": "alp", "prob": 0.5}]})
    # A malformed line, a second record of one image and a prob out of range
    # are skipped before their cells are packed.
    text = "\n".join(["{broken", WORKED_LINE, WORKED_LINE, u2, _cup(1.5), _cup(0.5)])
    ds = load_score_cells(text, INDEX, skip_bad=True)
    assert len(ds.warnings) == 3
    assert len(packed) == ds.n_images() == 3
    # So is a line the manifest does not list.
    packed.clear()
    manifest = Manifest({("u1", "img1"): ("/a.jpg", 2), ("u", "i"): ("/b.jpg", 3)})
    ds = load_score_cells(text, INDEX, skip_bad=True, manifest=manifest)
    assert len(packed) == ds.n_images() == 2


def test_duplicate_user_image_rejected():
    with pytest.raises(DataFormatError, match="duplicate record"):
        load_score_cells(WORKED_LINE + "\n" + WORKED_LINE, INDEX)


def test_record_length_bounds():
    empty = json.dumps({"user_id": "u", "image_id": "i", "predictions": []})
    with pytest.raises(DataFormatError, match="nonempty"):
        load_score_cells(empty, INDEX)
    six = json.dumps(
        {
            "user_id": "u",
            "image_id": "i",
            "predictions": [{"label": f"l{n}", "prob": 0.1} for n in range(6)],
        }
    )
    with pytest.raises(DataFormatError, match="top-k"):
        load_score_cells(six, INDEX)
    assert load_score_cells(six, INDEX, k_max=6).n_images() == 1


def test_round_trip_serialize_load():
    lines = [
        WORKED_LINE,
        json.dumps(
            {"user_id": "u2", "image_id": "a", "predictions": [{"label": "alp", "prob": 0.5}]}
        ),
        json.dumps(
            {"user_id": "u1", "image_id": "img2", "predictions": [{"label": "cup", "prob": 0.25}]}
        ),
    ]
    worked = [(p["label"], p["prob"]) for p in json.loads(WORKED_LINE)["predictions"]]
    records = ProfileDataset(records={
        "u1": [make_record("u1", "img1", worked), make_record("u1", "img2", [("cup", 0.25)])],
        "u2": [make_record("u2", "a", [("alp", 0.5)])],
    })
    ds = load_score_cells("\n".join(lines), INDEX)
    again = load_score_cells(serialize_predictions(records), INDEX)
    assert vars(again) == vars(ds)
    assert [list(images) for images in again.cells.values()] == [["img1", "img2"], ["a"]]
    assert again.n_images() == 3  # grouping preserves multiplicity


def test_load_labels_basic():
    assert load_labels("user_id,topic\nu1,Sport\n") == {"u1": "Sport"}


def test_load_labels_rejects_compound_with_hint():
    with pytest.raises(DataFormatError, match="use Food or Drink"):
        load_labels("user_id,topic\nu1,Food and Drink\n")


def test_load_labels_unknown_topic():
    with pytest.raises(DataFormatError, match="unknown topic 'Sports'"):
        load_labels("user_id,topic\nu1,Sports\n")


def test_load_labels_duplicate_user():
    with pytest.raises(DataFormatError, match="duplicate label"):
        load_labels("user_id,topic\nu1,Sport\nu1,Drink\n")


def test_load_labels_requires_header():
    with pytest.raises(DataFormatError, match="header"):
        load_labels("u1,Sport\n")


def test_labels_balanced_across_topics():
    rows = ["user_id,topic"]
    for t, topic in enumerate(TOPICS):
        rows += [f"user_{t}_{i},{topic}" for i in range(10)]
    labels = load_labels("\n".join(rows))
    assert len(labels) == 240
    per_topic = {topic: sum(1 for v in labels.values() if v == topic) for topic in TOPICS}
    assert set(per_topic.values()) == {10}


def test_serialize_labels_round_trips_and_keeps_plain_ids_unquoted():
    assert serialize_labels({"u1": "Drink", "user_food_002": "Food"}) == \
        "user_id,topic\nu1,Drink\nuser_food_002,Food\n"
    labels = {"a,b": "Drink", 'q"x': "Food", "plain": "Sport"}
    assert load_labels(serialize_labels(labels)) == labels


def test_load_manifest_header_optional_and_quoted_paths():
    body = 'u1,i1,"/img/a,b.jpg"\n\n u2 , i2 ,/img/c.jpg\n'

    def rows(first_line):
        return {("u1", "i1"): ("/img/a,b.jpg", first_line),
                ("u2", "i2"): ("/img/c.jpg", first_line + 2)}

    assert read_manifest(body).rows == rows(1)
    assert read_manifest("user_id,image_id,image_path\n" + body).rows == rows(2)
    # The header is the first non-blank row, wherever that is.
    assert read_manifest("\n , ,\nuser_id,image_id,image_path\n" + body).rows == rows(4)


@pytest.mark.parametrize("row, message", [
    ("u1,i1", "m.csv:2: expected user_id,image_id,image_path, got 2 columns"),
    ("u1,i1,/a.jpg,extra", "m.csv:2: expected user_id,image_id,image_path, got 4 columns"),
    ("u1,,/a.jpg", "m.csv:2: empty image_id"),
    # A pair listed twice is the second row's error, whatever its path.
    (" u0 , i0 ,/other.jpg", "m.csv:2: duplicate row for user 'u0' image 'i0' (first on line 1)"),
])
def test_load_manifest_bad_row_names_path_and_line(row, message):
    with pytest.raises(DataFormatError) as err:
        read_manifest(f"u0,i0,/z.jpg\n{row}\n", path="m.csv")
    assert str(err.value) == message


STUB_OK = """\
import csv, json, sys
rows = list(csv.DictReader(open(sys.argv[1])))
with open(sys.argv[2], "w") as fh:
    for r in rows:
        fh.write(json.dumps({
            "user_id": r["user_id"], "image_id": r["image_id"],
            "predictions": [{"label": "espresso", "prob": 0.5},
                            {"label": "dough", "prob": 0.25}],
        }) + "\\n")
"""

STUB_FAIL = """\
import sys
sys.stderr.write("boom\\n")
sys.exit(3)
"""


def _stub(tmp_path, body, name="stub.py"):
    path = tmp_path / name
    path.write_text(body)
    return f"{sys.executable} {path} {{input}} {{output}}"


def classify(manifest, template, timeout=None, skip_bad=False):
    """What the command writes for ``manifest`` (a Manifest, or rows numbered from 1),
    loaded as the CLI loads it."""
    if not isinstance(manifest, Manifest):
        manifest = Manifest({(u, i): (p, no) for no, (u, i, p) in enumerate(manifest, 1)})
    with run_external_classifier(manifest, template, timeout) as lines:
        return load_score_cells(lines, INDEX, 5, skip_bad, manifest)


# Characters str.splitlines breaks at and a file read keeps inside the line.
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=ascii)
def test_text_and_file_break_lines_at_the_same_places(tmp_path, char):
    taxonomy = f"root R\n# note {char} here\nconcept A parent Nope\n"
    path = tmp_path / "t.taxonomy"
    path.write_text(taxonomy, encoding="utf-8")
    for load, source, where in ((parse_taxonomy, taxonomy, "line 3"),
                                (load_taxonomy, path, f"{path}:3")):
        with pytest.raises(TaxonomyError) as err:
            load(source)
        assert str(err.value) == f"{where}: concept 'A' references unknown parent 'Nope'"

    config = tmp_path / "c.cfg"
    config.write_text(f"# c {char} x\ntopk = abc\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        parse_config_file(config)
    assert str(err.value) == f"{config}:2: topk: expected an integer, got 'abc'"

    lines = [json.dumps({"user_id": "u", "image_id": f"i{n}",
                         "predictions": [{"label": "cup", "prob": 0.5}]}) for n in range(3)]
    lines[1] = lines[1].replace("cup", f"cup{char}")  # raw, as json.dumps would not write it
    predictions = tmp_path / "p.jsonl"
    predictions.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with open_input(predictions, "predictions") as fh:
        from_file = _outcome(fh)
    assert _outcome("\n".join(lines)) == from_file
    if char in "\x85\u2028\u2029":
        assert list(from_file["u"]) == ["i0", "i1", "i2"]
    else:  # a raw control character is not valid inside a JSON string
        assert from_file == "line 2: malformed JSON: Invalid control character at"


def test_escape_control_spells_out_c0_del_and_c1():
    controls = "".join(map(chr, (*range(0x20), 0x7F, *range(0x80, 0xA0))))
    escaped = escape_control(controls)
    assert escaped.isascii() and escaped.isprintable()
    assert escaped.startswith("\\x00\\x01") and "\\t\\n" in escaped
    assert escaped.endswith("\\x7f\\x80" + "".join(f"\\x{c:x}" for c in range(0x81, 0xA0)))
    ordinary = "user_42 Ünïcödé, 'quoted' \\back\\slash \u00a0\u2603"
    assert escape_control(ordinary) == ordinary


def test_messages_quote_ids_as_before_and_escape_controls():
    line = json.dumps({"user_id": "u1", "image_id": "img1",
                       "predictions": [{"label": "cup", "prob": 0.5}]})
    with pytest.raises(DataFormatError) as plain:
        load_score_cells(line + "\n" + line, INDEX)
    assert str(plain.value) == "line 2: duplicate record for user 'u1' image 'img1'"
    bad = json.dumps({"user_id": "u\x1b[2J", "image_id": "i\r1",
                      "predictions": [{"label": "c\x9bup", "prob": 1.5}]})
    with pytest.raises(DataFormatError) as escaped:
        load_score_cells(bad, INDEX)
    assert str(escaped.value) == "line 1: prob 1.5 for 'c\\x9bup' out of range [0, 1]"
    with pytest.raises(DataFormatError) as dup:
        load_score_cells(bad.replace("1.5", "0.5") + "\n" + bad.replace("1.5", "0.5"), INDEX)
    assert str(dup.value) == "line 2: duplicate record for user 'u\\x1b[2J' image 'i\\r1'"


def test_external_classifier_identity(tmp_path):
    template = _stub(tmp_path, STUB_OK)
    manifest = [("u1", "i1", "/tmp/a.jpg"), ("u1", "i2", "/tmp/b.jpg"), ("u2", "i1", "/tmp/c.jpg")]
    ds = classify(manifest, template)
    assert ds.users() == ["u1", "u2"]
    assert ds.n_images() == 3
    cells = ((TOPICS.index("Drink"), 0.5, 1), (TOPICS.index("Food"), 0.25, 1), (N_TOPICS, 0.0, 3))
    assert [ds.pop_block(u).rows for u in ("u1", "u2")] == [(cells, cells), (cells,)]


def _writing_stub(tmp_path, pairs, name="writer.py"):
    """A classifier that ignores its manifest and writes one record per (user, image)."""
    text = "".join(json.dumps({"user_id": u, "image_id": i,
                               "predictions": [{"label": "espresso", "prob": 0.5}]}) + "\n"
                   for u, i in pairs)
    return _stub(tmp_path, f"import sys\nopen(sys.argv[2], 'w').write({text!r})\n", name)


@pytest.mark.parametrize("listed, written, message", [
    ([("u1", "i1")], [("u1", "i1"), ("u1", "i2")],
     "classifier output:2: user 'u1' image 'i2' is not listed in the manifest"),
    ([("u1", "i1"), ("u1", "i2"), ("u2", "i1")], [("u2", "i1"), ("u1", "i1")],
     "line 2: no classifier output for user 'u1' image 'i2'"),
    ([("u1", "img1")], [("ghost", "zzz")],
     "classifier output:1: user 'ghost' image 'zzz' is not listed in the manifest"),
])
def test_external_classifier_output_must_match_the_manifest(tmp_path, listed, written, message):
    manifest = [(u, i, f"/img/{u}-{i}.jpg") for u, i in listed]
    with pytest.raises(DataFormatError) as err:
        classify(manifest, _writing_stub(tmp_path, written))
    assert str(err.value) == message


def test_missing_classifier_output_names_the_manifest_line(tmp_path):
    manifest = read_manifest("user_id,image_id,image_path\nu1,i1,/a.jpg\n\nu1,i2,/b.jpg\n",
                             path="m.csv")
    assert manifest.rows == {("u1", "i1"): ("/a.jpg", 2), ("u1", "i2"): ("/b.jpg", 4)}
    with pytest.raises(DataFormatError) as err:
        classify(manifest, _writing_stub(tmp_path, [("u1", "i1")]))
    assert str(err.value) == "m.csv:4: no classifier output for user 'u1' image 'i2'"


def test_unlisted_record_skipped_under_skip_bad_leaves_no_empty_user():
    lines = [json.dumps({"user_id": u, "image_id": i,
                         "predictions": [{"label": "cup", "prob": 0.5}]})
             for u, i in (("u1", "i1"), ("ghost", "zzz"))]
    manifest = Manifest({("u1", "i1"): ("/a.jpg", 2), ("u1", "i2"): ("/b.jpg", 3)}, "m.csv")
    ds = load_score_cells(lines, INDEX, skip_bad=True, manifest=manifest)
    assert ds.users() == ["u1"]
    assert ds.warnings == [
        "skipped classifier output:2: user 'ghost' image 'zzz' is not listed in the manifest",
        "m.csv:3: no classifier output for user 'u1' image 'i2'",
    ]


def test_external_classifier_failure_carries_exit_code(tmp_path):
    template = _stub(tmp_path, STUB_FAIL)
    with pytest.raises(ExternalClassifierError) as err:
        classify([("u", "i", "p")], template)
    assert str(err.value) == "classifier command exited with status 3: boom"


def test_external_classifier_output_errors_name_the_output(tmp_path):
    # The second output line has an empty image id.
    template = _stub(tmp_path, STUB_OK.replace(
        '"image_id": r["image_id"],', '"image_id": r["image_id"] if r["user_id"] == "u1" else "",'))
    manifest = [("u1", "i1", "/tmp/a.jpg"), ("u2", "i1", "/tmp/b.jpg")]
    with pytest.raises(DataFormatError) as err:
        classify(manifest, template)
    assert str(err.value) == "classifier output:2: missing or empty 'image_id'"


def test_external_classifier_empty_manifest_not_invoked():
    # The binary does not exist; if the adapter invoked it this would blow up.
    ds = classify([], "/nonexistent/classifier {input} {output}")
    assert vars(ds) == vars(ScoredDataset(k=5))
    with pytest.raises(ConfigError, match="placeholder"):
        classify([], "/nonexistent/classifier")


def test_external_classifier_template_needs_placeholders():
    with pytest.raises(ConfigError, match="placeholder"):
        classify([("u", "i", "p")], "classify --fast")


def test_external_classifier_timeout_kills_the_command(tmp_path):
    template = _stub(tmp_path, "import time\ntime.sleep(5)\n")
    started = time.monotonic()
    with pytest.raises(ExternalClassifierError) as err:
        classify([("u", "i", "p")], template, timeout=0.5)
    assert time.monotonic() - started < 4
    assert str(err.value) == "classifier command timed out after 0.5 s"


def _gone_or_zombie(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    with open(f"/proc/{pid}/stat") as fh:
        return fh.read().rsplit(")", 1)[1].split()[0] == "Z"


def test_external_classifier_timeout_kills_what_the_command_started(tmp_path):
    pid_file = tmp_path / "sleeper.pid"
    template = f"sh -c 'sleep 30 & echo $! > {pid_file}; wait' sh {{input}} {{output}}"
    with pytest.raises(ExternalClassifierError) as err:
        classify([("u", "i", "p")], template, timeout=0.5)
    assert str(err.value) == "classifier command timed out after 0.5 s"
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 2
    while not _gone_or_zombie(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    survived = not _gone_or_zombie(pid)
    if survived:  # do not leave it running past the test
        os.kill(pid, signal.SIGKILL)
    assert not survived
