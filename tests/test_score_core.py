"""Differential test of the scoring core against the brute-force oracle.

Random multi-user datasets (k from 1 to 8, unknown labels, case and
underscore variants of known terms, short records) are scored by the library
and by ``oracles.bf_image_rows`` / ``oracles.bf_profile``. Image rows, full
profiles and every sweep point must agree exactly.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import oracles
from conftest import KNOWN_TERMS, UNKNOWN_TERMS, make_record, starter_taxonomy
from interestprof.errors import NoPredictionError
from interestprof.ingest import ProfileDataset
from interestprof.profiling import profile_user, profile_users, sweep_profiles
from interestprof.scoring import build_matrices
from interestprof.taxonomy import TOPICS

VARIANTS = (
    lambda t: t,
    str.upper,
    str.title,
    lambda t: t.replace("_", " "),
    lambda t: "  " + t.replace("_", "  ") + " ",
)


@st.composite
def labels(draw):
    term = draw(st.sampled_from(KNOWN_TERMS + UNKNOWN_TERMS))
    return draw(st.sampled_from(VARIANTS))(term)


PROBS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def datasets(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    records = {}
    for u in range(draw(st.integers(min_value=1, max_value=4))):
        uid = f"u{u}"
        n_images = draw(st.integers(min_value=1, max_value=9))
        records[uid] = [
            make_record(uid, f"i{j}", draw(st.lists(
                st.tuples(labels(), PROBS), min_size=1, max_size=k,
            )))
            for j in range(n_images)
        ]
    sweep = sorted(draw(st.sets(st.integers(min_value=1, max_value=12), min_size=1, max_size=4)))
    return ProfileDataset(records=records), k, tuple(sweep)


def expected_profile(records, k, mechanism):
    tax = starter_taxonomy()
    rows = [oracles.bf_image_rows(tax, TOPICS, r.predictions, k) for r in records]
    return oracles.bf_profile(rows, TOPICS, mechanism)


def as_tuple(profile):
    return (
        profile.v_prob.scores, profile.v_prob.unmapped_mass,
        profile.v_occ.scores, profile.v_occ.unmapped_mass,
        profile.predicted_topic, profile.ties,
    )


@settings(max_examples=150)
@given(datasets(), st.sampled_from(["occ", "prob"]))
def test_core_matches_oracle(data, mechanism):
    dataset, k, sweep = data
    tax = starter_taxonomy()
    full = []
    for user, records in dataset.records.items():
        m = build_matrices(records, tax, k)
        for record, prob_row, occ_row in zip(records, m.prob_rows, m.occ_rows):
            want = oracles.bf_image_rows(tax, TOPICS, record.predictions, k)
            assert (prob_row.scores, prob_row.unmapped_mass,
                    occ_row.scores, occ_row.unmapped_mass) == want

        want = expected_profile(records, k, mechanism)
        if want[4] is None:
            with pytest.raises(NoPredictionError):
                profile_user(records, tax, k, mechanism)
        else:
            got = profile_user(records, tax, k, mechanism)
            assert got.n_images == len(records)
            assert as_tuple(got) == want
            full.append(got)
    if len(full) == len(dataset.records):
        assert profile_users(dataset, tax, k, mechanism) == full

    swept = sweep_profiles(dataset, tax, k, sweep, mechanism)
    assert list(swept) == list(sweep)
    for n, profiles in swept.items():
        assert [p.user_id for p in profiles] == dataset.users()
        for p in profiles:
            prefix = dataset.records[p.user_id][:n]
            assert p.n_images == len(prefix)
            assert p.mechanism == mechanism
            assert as_tuple(p) == expected_profile(prefix, k, mechanism)
