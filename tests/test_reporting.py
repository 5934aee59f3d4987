"""The JSON writer against the stdlib encoder, the profile files it writes, and
the sparse score tables against the dense reference writer."""

import json
import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from conftest import KNOWN_TERMS, UNKNOWN_TERMS, make_record, starter_taxonomy
from interestprof.profiling import profile_prefixes
from interestprof.reporting import (
    open_score_tables, profile_payload, to_json, write_profiles, write_score_rows,
)
from interestprof.scoring import score_block
from interestprof.taxonomy import TOPICS
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
            score_block(records, tax, 5), (len(records), *sweep), "occ"
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


def test_write_profiles_without_sweep_writes_one_file(tmp_path):
    profiles, _ = _profiles(["u1"], ())
    write_profiles(tmp_path, profiles)
    assert [p.name for p in tmp_path.iterdir()] == ["profiles.json"]
    assert (tmp_path / "profiles.json").read_text(encoding="utf-8") == \
        _reference_files(profiles, {})[0]


ids = st.text(st.sampled_from('ab,"\' é\n'), min_size=1, max_size=6)
probs = st.one_of(st.sampled_from([0.0, 0.0, 0.1, 0.25, 1.0]),
                  st.floats(min_value=0.0, max_value=1.0))


@st.composite
def score_inputs(draw):
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
            write_score_rows(tables, score_block(user_records, tax, k))
    expected = dense_score_tables(tax, TOPICS, records, k)
    got = tuple((out / f"image_scores_{m}.csv").read_bytes() for m in ("prob", "occ"))
    assert got == tuple(text.encode("utf-8") for text in expected)
