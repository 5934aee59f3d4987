"""Prediction/label ingestion and the external-classifier adapter."""

import json
import sys

import pytest

from interestprof.errors import (
    ConfigError,
    DataFormatError,
    ExternalClassifierError,
    escape_control,
)
from interestprof.ingest import (
    ProfileDataset,
    attach_labels,
    load_labels,
    load_manifest,
    load_predictions,
    run_external_classifier,
    serialize_labels,
    serialize_predictions,
)
from interestprof.taxonomy import TOPICS

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
    ds = load_predictions(WORKED_LINE)
    assert ds.users() == ["u1"]
    rec = ds.records["u1"][0]
    assert rec.image_id == "img1"
    assert [l for l, _ in rec.predictions] == ["espresso", "cup", "dough", "ladle", "sandal"]


def test_empty_stream_gives_empty_dataset():
    ds = load_predictions("")
    assert ds.users() == []
    assert ds.n_records() == 0


def test_predictions_sorted_descending():
    line = json.dumps(
        {
            "user_id": "u",
            "image_id": "i",
            "predictions": [
                {"label": "cup", "prob": 0.1},
                {"label": "espresso", "prob": 0.9},
            ],
        }
    )
    rec = load_predictions(line).records["u"][0]
    assert rec.predictions == (("espresso", 0.9), ("cup", 0.1))


def test_prob_out_of_range_names_line():
    bad = WORKED_LINE + "\n" + json.dumps(
        {"user_id": "u2", "image_id": "i", "predictions": [{"label": "x", "prob": 1.3}]}
    )
    with pytest.raises(DataFormatError, match="line 2") as err:
        load_predictions(bad)
    assert "1.3" in str(err.value)


def test_malformed_json_aborts_with_line_number():
    with pytest.raises(DataFormatError, match="line 1"):
        load_predictions("{not json")


def test_skip_bad_collects_warnings():
    text = "{broken\n" + WORKED_LINE + "\n"
    ds = load_predictions(text, skip_bad=True)
    assert ds.users() == ["u1"]
    assert len(ds.warnings) == 1
    assert "line 1" in ds.warnings[0]


def test_duplicate_user_image_rejected():
    with pytest.raises(DataFormatError, match="duplicate record"):
        load_predictions(WORKED_LINE + "\n" + WORKED_LINE)


def test_record_length_bounds():
    empty = json.dumps({"user_id": "u", "image_id": "i", "predictions": []})
    with pytest.raises(DataFormatError, match="nonempty"):
        load_predictions(empty)
    six = json.dumps(
        {
            "user_id": "u",
            "image_id": "i",
            "predictions": [{"label": f"l{n}", "prob": 0.1} for n in range(6)],
        }
    )
    with pytest.raises(DataFormatError, match="top-k"):
        load_predictions(six)
    assert load_predictions(six, k_max=6).n_records() == 1


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
    ds = load_predictions("\n".join(lines))
    again = load_predictions(serialize_predictions(ds))
    assert again == ds
    assert again.n_records() == 3  # grouping preserves multiplicity


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
    rows = [("u1", "i1", "/img/a,b.jpg"), ("u2", "i2", "/img/c.jpg")]
    body = 'u1,i1,"/img/a,b.jpg"\n\n u2 , i2 ,/img/c.jpg\n'
    assert load_manifest(body) == rows
    assert load_manifest("user_id,image_id,image_path\n" + body) == rows


@pytest.mark.parametrize("row, message", [
    ("u1,i1", "m.csv:2: expected user_id,image_id,image_path, got 2 columns"),
    ("u1,i1,/a.jpg,extra", "m.csv:2: expected user_id,image_id,image_path, got 4 columns"),
    ("u1,,/a.jpg", "m.csv:2: empty image_id"),
])
def test_load_manifest_bad_row_names_path_and_line(row, message):
    with pytest.raises(DataFormatError) as err:
        load_manifest(f"u0,i0,/z.jpg\n{row}\n", path="m.csv")
    assert str(err.value) == message


def test_attach_labels_warns_on_missing_users():
    ds = load_predictions(WORKED_LINE)
    out = attach_labels(ds, {"u1": "Drink", "ghost": "Sport"})
    assert out.labels["u1"] == "Drink"
    assert any("ghost" in w for w in out.warnings)


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
        load_predictions(line + "\n" + line)
    assert str(plain.value) == "line 2: duplicate record for user 'u1' image 'img1'"
    bad = json.dumps({"user_id": "u\x1b[2J", "image_id": "i\r1",
                      "predictions": [{"label": "c\x9bup", "prob": 1.5}]})
    with pytest.raises(DataFormatError) as escaped:
        load_predictions(bad)
    assert str(escaped.value) == "line 1: prob 1.5 for 'c\\x9bup' out of range [0, 1]"
    with pytest.raises(DataFormatError) as dup:
        load_predictions(bad.replace("1.5", "0.5") + "\n" + bad.replace("1.5", "0.5"))
    assert str(dup.value) == "line 2: duplicate record for user 'u\\x1b[2J' image 'i\\r1'"


def test_external_classifier_identity(tmp_path):
    template = _stub(tmp_path, STUB_OK)
    manifest = [("u1", "i1", "/tmp/a.jpg"), ("u1", "i2", "/tmp/b.jpg"), ("u2", "i1", "/tmp/c.jpg")]
    ds = run_external_classifier(manifest, template, k=5)
    assert ds.users() == ["u1", "u2"]
    assert ds.n_records() == 3
    for rec in ds.iter_records():
        assert rec.predictions == (("espresso", 0.5), ("dough", 0.25))


def test_external_classifier_failure_carries_exit_code(tmp_path):
    template = _stub(tmp_path, STUB_FAIL)
    with pytest.raises(ExternalClassifierError) as err:
        run_external_classifier([("u", "i", "p")], template, k=5)
    assert err.value.exit_code == 3
    assert "boom" in str(err.value)


def test_external_classifier_empty_manifest_not_invoked():
    # The binary does not exist; if the adapter invoked it this would blow up.
    ds = run_external_classifier([], "/nonexistent/classifier {input} {output}", k=5)
    assert ds == ProfileDataset()


def test_external_classifier_template_needs_placeholders():
    with pytest.raises(ConfigError, match="placeholder"):
        run_external_classifier([("u", "i", "p")], "classify --fast", k=5)
