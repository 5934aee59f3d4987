"""The JSON writer against the stdlib encoder, the profile files and report.json
against it, and the sparse score tables against the dense reference writer."""

import csv
import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from conftest import KNOWN_TERMS, UNKNOWN_TERMS, block_of, make_record, starter_taxonomy
from interestprof import reporting
from interestprof.evaluation import EvalReport
from interestprof.ontometrics import semiotic_report, size_metrics, structural_metrics
from interestprof.profiling import UserProfile, profile_prefixes
from interestprof.reporting import (
    open_score_tables, profile_payload, to_json, write_evaluation, write_metrics,
    write_profiles, write_score_rows,
)
from interestprof.scoring import TopicDistribution
from interestprof.taxonomy import N_TOPICS, TOPICS
from oracles import dense_score_tables, json_ready


def reference(obj) -> str:
    return json.dumps(json_ready(obj), indent=2)


EDGE_FLOATS = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.225073858507201e-308, 1e-4,
    9.99999999e-5, 1e9, 999999999.5, 123456789.0, 1e16, 1.5e20, 1.7976931348623157e308,
)
floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
# All of unicode but surrogates: control characters, non-ASCII and astral code points.
text = st.text(st.characters(exclude_categories=("Cs",)), max_size=8)
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), floats, text,
    st.fractions(max_denominator=10**6),
)
payloads = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(text, st.integers(), st.booleans()), children, max_size=4),
    ),
    max_leaves=40,
)


@given(payloads)
@example({"a": [], "b": {}, "c": [{}], "": ()})
@example([True, 1, False, 0, 1.0, -0.0, Fraction(-1, 3)])
@example({1: "int key", "1": "str key", True: "bool key"})
@example({"é\n\x00 ": "tab\tquote\"slash\\\\ \U0001f600"})
def test_to_json_matches_stdlib_layout(payload):
    assert to_json(payload) == reference(payload)


def test_to_json_rejects_unknown_types():
    with pytest.raises(TypeError, match="set"):
        to_json({"s": {1, 2}})


def _profiles(user_ids, sweep):
    """Full and sweep profiles as the pipeline builds them, sharing objects."""
    tax = starter_taxonomy()
    images = [[("espresso", 0.5), ("dough", 0.25)], [("sandal", 0.9)],
              [("alp", 0.3), ("castle", 0.3), ("zzz_unknown", 0.2)]]
    profiles, sweep_map = [], {n: [] for n in sweep}
    for user in user_ids:
        records = [make_record(user, f"img{j}", pairs) for j, pairs in enumerate(images)]
        full, *swept = profile_prefixes(
            block_of(records, tax, 5), (len(records), *sweep), "occ"
        )
        profiles.append(full)
        for n, p in zip(sweep, swept):
            sweep_map[n].append(p)
    return profiles, sweep_map


def _reference_files(profiles, sweep_map):
    return (
        reference([profile_payload(p) for p in profiles]) + "\n",
        reference({str(k): [profile_payload(p) for p in ps] for k, ps in sweep_map.items()})
        + "\n",
    )


def test_write_profiles_places_shared_profiles_at_every_depth(tmp_path):
    # A user id with an escaped newline and quote checks that re-indenting
    # encoded text only touches the layout's own line breaks.
    profiles, sweep_map = _profiles(["u1", 'line\nbreak "q"', "ué"], (1, 2, 3, 50))
    assert sweep_map[3][0] is profiles[0] and sweep_map[50][0] is profiles[0]
    write_profiles(tmp_path, profiles, sweep_map)
    expected = _reference_files(profiles, sweep_map)
    assert (tmp_path / "profiles.json").read_text(encoding="utf-8") == expected[0]
    assert (tmp_path / "profiles_sweep.json").read_text(encoding="utf-8") == expected[1]


def test_write_profiles_empty_inputs(tmp_path):
    write_profiles(tmp_path, [], {})
    assert (tmp_path / "profiles.json").read_bytes() == b"[]\n"
    assert (tmp_path / "profiles_sweep.json").read_bytes() == b"{}\n"
    assert _reference_files([], {}) == ("[]\n", "{}\n")


ids = st.text(st.sampled_from('ab,"\' é\n'), min_size=1, max_size=6)
probs = st.one_of(st.sampled_from([0.0, 0.0, 0.1, 0.25, 1.0]),
                  st.floats(min_value=0.0, max_value=1.0))


@st.composite
def score_inputs(draw, ids=ids):
    """k from 1 to 10, short records, zero probs, all-unmapped images, awkward ids."""
    k = draw(st.integers(min_value=1, max_value=10))
    users = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    records = {}
    for user in users:
        image_ids = draw(st.lists(ids, min_size=1, max_size=5, unique=True))
        records[user] = []
        for image_id in image_ids:
            all_unmapped = draw(st.integers(min_value=0, max_value=3)) == 0
            terms = UNKNOWN_TERMS if all_unmapped else KNOWN_TERMS + UNKNOWN_TERMS
            pairs = draw(st.lists(st.tuples(st.sampled_from(terms), probs),
                                  min_size=1, max_size=k))
            records[user].append(make_record(user, image_id, pairs))
    return k, records


@given(score_inputs())
def test_sparse_score_rows_match_dense_reference(tmp_path_factory, data):
    k, records = data
    tax = starter_taxonomy()
    out = tmp_path_factory.mktemp("scores")
    with open_score_tables(out, k) as tables:
        for user_records in records.values():
            write_score_rows(tables, block_of(user_records, tax, k))
    expected = dense_score_tables(tax, TOPICS, records, k)
    got = tuple((out / f"image_scores_{m}.csv").read_bytes() for m in ("prob", "occ"))
    assert got == tuple(text.encode("utf-8") for text in expected)


# Carriage returns (which csv.writer quotes on some Python versions and not on
# others), tabs, spaces at either end, non-ASCII and astral characters.
awkward_ids = st.one_of(
    st.text(st.sampled_from('ab,"\' \t\r\né\U0001f600'), min_size=1, max_size=6),
    st.sampled_from([" lead", "trail ", "\r", "a\rb", "\tx", "naïve", "\U0001f600"]),
)


@given(score_inputs(ids=awkward_ids))
def test_score_rows_quote_ids_as_csv_writer_does(tmp_path_factory, data):
    k, records = data
    tax = starter_taxonomy()
    out = tmp_path_factory.mktemp("scores")
    with open_score_tables(out, k) as tables:
        for user_records in records.values():
            write_score_rows(tables, block_of(user_records, tax, k))
    expected = dense_score_tables(tax, TOPICS, records, k)
    got = tuple((out / f"image_scores_{m}.csv").read_bytes() for m in ("prob", "occ"))
    assert got == tuple(text.encode("utf-8") for text in expected)


def test_score_tables_format_only_the_counts_they_write(tmp_path):
    """A huge --topk costs no memory of its own: occurrence cells are
    formatted per count met, not for every count 0..k."""
    k = 10**6
    tax = starter_taxonomy()
    records = {"u1": [make_record("u1", "img1", [("espresso", 0.5), ("cup", 0.25),
                                                 ("zzz_unknown", 0.125)]),
                      make_record("u1", "img2", [("sandal", 0.5)])]}
    block = block_of(records["u1"], tax, k)
    tracemalloc.start()
    try:
        with open_score_tables(tmp_path, k) as tables:
            write_score_rows(tables, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = dense_score_tables(tax, TOPICS, records, k)
    got = tuple((tmp_path / f"image_scores_{m}.csv").read_bytes() for m in ("prob", "occ"))
    assert got == tuple(text.encode("utf-8") for text in expected)
    assert peak < 2**20


_csv_writer = csv.writer


class CountingWriter:
    """A csv.writer that counts its writerow calls."""

    calls = 0

    def __init__(self, *args, **kwargs):
        self.writer = _csv_writer(*args, **kwargs)

    def writerow(self, row):
        CountingWriter.calls += 1
        return self.writer.writerow(row)


def test_writers_make_no_call_per_record(tmp_path, monkeypatch):
    """Score rows with plain ids make no csv.writer call, write_profiles renders
    every profile without the general JSON encoder, and each JSON document other
    than the profile files takes one json.dumps call."""
    CountingWriter.calls = 0
    monkeypatch.setattr(csv, "writer", CountingWriter)
    tax = starter_taxonomy()
    records = [make_record("u1", f"img{j}", [("espresso", 0.5), ("sandal", 0.25)])
               for j in range(20)]
    with open_score_tables(tmp_path, 5) as tables:
        write_score_rows(tables, block_of(records, tax, 5))
        assert CountingWriter.calls == 0
        # An id the csv module quotes goes through it, once per id.
        write_score_rows(tables, block_of([make_record("u,2", "i1", [("cup", 0.5)])], tax, 5))
    assert CountingWriter.calls == 1

    encoded = []

    def counting_encode(obj):
        encoded.append(obj)
        return "null"

    # json.dumps(..., indent=2) leaves a reference cycle per call, and commands
    # run with the cyclic collector off: a fixed few calls, none per record.
    dumps, dumped = json.dumps, []

    def counting_dumps(obj, **kwargs):
        dumped.append(obj)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(reporting, "_plain", counting_encode)
    profiles, sweep_map = _profiles(["u1", "u2"], (1, 2, 50))
    monkeypatch.setattr(reporting, "to_json", counting_encode)
    monkeypatch.setattr(json, "dumps", counting_dumps)
    write_profiles(tmp_path, profiles, sweep_map)
    assert encoded == []
    assert dumped == []
    monkeypatch.undo()
    assert (tmp_path / "profiles_sweep.json").read_text(encoding="utf-8") == \
        _reference_files(profiles, sweep_map)[1]

    monkeypatch.setattr(json, "dumps", counting_dumps)
    write_evaluation(tmp_path, _report({t: ((0.5, 0.25, 0.75),) * 50 for t in TOPICS}))
    assert len(dumped) == 1
    write_metrics(tmp_path, size_metrics(tax), structural_metrics(tax), semiotic_report(tax))
    assert len(dumped) == 2


# Profile values are nonnegative: the edge floats without -0.0 and -inf.
vector_floats = st.one_of(
    st.floats(min_value=0.0), st.just(math.nan),
    st.sampled_from([x for x in EDGE_FLOATS if not math.copysign(1.0, x) < 0]),
)
vectors = st.builds(
    TopicDistribution,
    st.lists(vector_floats, min_size=N_TOPICS, max_size=N_TOPICS).map(tuple),
    vector_floats,
)
user_profiles = st.builds(
    UserProfile,
    user_id=text,
    n_images=st.integers(min_value=0, max_value=10**12),
    v_prob=vectors,
    v_occ=vectors,
    mechanism=st.sampled_from(("prob", "occ")),
    predicted_topic=st.one_of(st.none(), st.sampled_from(TOPICS), text),
    ties=st.one_of(st.just(()), st.lists(st.sampled_from(TOPICS), min_size=1, max_size=4)
                   .map(tuple), st.lists(text, max_size=3).map(tuple)),
)


@st.composite
def profile_sets(draw):
    """Full profiles and a sweep map whose points share objects, as the pipeline's do."""
    pool = draw(st.lists(user_profiles, min_size=1, max_size=4))
    pick = st.sampled_from(pool)
    profiles = draw(st.lists(pick, max_size=4))
    points = draw(st.lists(st.integers(min_value=1, max_value=200), max_size=4, unique=True))
    return profiles, {n: draw(st.lists(pick, max_size=4)) for n in sorted(points)}


@given(profile_sets())
def test_profile_template_matches_the_stdlib_layout(tmp_path_factory, data):
    profiles, sweep_map = data
    out = tmp_path_factory.mktemp("profiles")
    write_profiles(out, profiles, sweep_map)
    expected = _reference_files(profiles, sweep_map)
    assert (out / "profiles.json").read_text(encoding="utf-8") == expected[0]
    assert (out / "profiles_sweep.json").read_text(encoding="utf-8") == expected[1]


roc_floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS + (1.0, 0.0)))
roc_series = st.lists(st.tuples(roc_floats, roc_floats, roc_floats), max_size=4).map(tuple)


def _report(roc_points) -> EvalReport:
    sweep = (1, 5)
    return EvalReport(
        mechanism="occ", sweep=sweep, n_labeled=3,
        per_topic_accuracy={t: {1: None, 5: 0.5} for t in TOPICS},
        overall_accuracy={1: 0.25, 5: 1.0},
        overall_accuracy_by_mechanism={"prob": {1: 0.0, 5: 1 / 3}, "occ": {1: 0.25, 5: 1.0}},
        precision={t: 0.5 for t in TOPICS}, recall={t: 1.0 for t in TOPICS},
        undefined_precision=("Drink",), undefined_recall=(),
        confusion=tuple(tuple(int(i == j) for j in range(N_TOPICS)) for i in range(N_TOPICS)),
        cmc=tuple((r, r / N_TOPICS) for r in range(1, N_TOPICS + 1)),
        roc_points=roc_points,
    )


@given(st.permutations(TOPICS).flatmap(
    lambda order: st.fixed_dictionaries({t: roc_series for t in order})))
@example({t: () for t in TOPICS})
@example({t: ((1.0, 0.0, 0.0), (0.5, 1e-5, 5e-324), (0.0, 1.0, 1.0)) if t == "Drink" else
          ((1e16, 1.7976931348623157e308, 1e9),) for t in TOPICS})
def test_roc_templates_match_the_general_writers(tmp_path_factory, roc_points):
    out = tmp_path_factory.mktemp("report")
    report = _report(roc_points)
    write_evaluation(out, report)
    payload = {field.name: getattr(report, field.name) for field in dataclasses.fields(report)}
    payload["roc"] = payload.pop("roc_points")
    assert (out / "report.json").read_text(encoding="utf-8") == to_json(payload) + "\n"
    assert to_json(payload) == reference(payload)
    assert (out / "roc_points.csv").read_text(encoding="utf-8") == reporting._csv([
        ("topic", "threshold", "fpr", "tpr"),
        *[(topic, *point) for topic in TOPICS for point in roc_points[topic]],
    ])
