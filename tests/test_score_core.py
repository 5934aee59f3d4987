"""Differential test of the scoring core against the brute-force oracle.

Random multi-user datasets (k from 1 to 8, unknown labels, case and
underscore variants of known terms, short records) are written as prediction
lines and scored by the library, which reads them back the one way it reads
any lines, and by ``oracles.bf_image_rows`` / ``oracles.bf_profile``. Image rows, full
profiles and every sweep point must agree exactly. Prediction lines of the
same kind, read by the pipeline's loader ``load_score_cells``, must give the
oracle's image rows bit for bit.
"""

import json

import hypothesis.strategies as st
from hypothesis import given, settings

import oracles
from conftest import (
    KNOWN_TERMS,
    UNKNOWN_TERMS,
    block_of,
    dense_rows,
    make_record,
    profile_of,
    starter_taxonomy,
    sweep_of,
)
from interestprof.ingest import ProfileDataset, load_score_cells
from interestprof.taxonomy import TOPICS, LabelIndex

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
    for user, records in dataset.records.items():
        rows = dense_rows(block_of(records, tax, k))
        for record, (prob_row, occ_row) in zip(records, rows):
            want = oracles.bf_image_rows(tax, TOPICS, record.predictions, k)
            assert (prob_row.scores, prob_row.unmapped_mass,
                    occ_row.scores, occ_row.unmapped_mass) == want

        got = profile_of(records, tax, k, mechanism)
        assert got.n_images == len(records)
        assert as_tuple(got) == expected_profile(records, k, mechanism)

    swept = sweep_of(dataset, tax, k, sweep, mechanism)
    assert list(swept) == list(sweep)
    for n, profiles in swept.items():
        assert [p.user_id for p in profiles] == dataset.users()
        for p in profiles:
            prefix = dataset.records[p.user_id][:n]
            assert p.n_images == len(prefix)
            assert p.mechanism == mechanism
            assert as_tuple(p) == expected_profile(prefix, k, mechanism)


LINE_PROBS = st.one_of(PROBS, st.sampled_from([-0.0, 0, 1]))


@st.composite
def prediction_lines(draw):
    """(k, lines, the (user, predictions) of each line) with labels repeated
    within and across lines, unmapped labels, short records, -0.0 and int probs."""
    k = draw(st.integers(min_value=1, max_value=8))
    vocabulary = draw(st.lists(labels(), min_size=1, max_size=6))
    lines, images = [], []
    for i in range(draw(st.integers(min_value=1, max_value=12))):
        user = draw(st.sampled_from(["u0", "u1", "u2"]))
        preds = draw(st.lists(st.tuples(st.sampled_from(vocabulary), LINE_PROBS),
                              min_size=1, max_size=k))
        lines.append(json.dumps({"user_id": user, "image_id": f"i{i}", "predictions": [
            {"label": label, "prob": prob} for label, prob in preds]}))
        images.append((user, [(label, float(prob)) for label, prob in preds]))
    return k, lines, images


@settings(max_examples=150)
@given(prediction_lines())
def test_load_score_cells_matches_oracle_rows(data):
    k, lines, images = data
    tax = starter_taxonomy()
    dataset = load_score_cells(lines, LabelIndex(tax), k)
    users = dataset.users()
    assert users == list(dict.fromkeys(user for user, _ in images))
    got = []
    for user in users:
        got += [repr((p.scores, p.unmapped_mass, o.scores, o.unmapped_mass))
                for p, o in dense_rows(dataset.pop_block(user))]
    # repr tells -0.0 from 0.0
    want = [repr(oracles.bf_image_rows(tax, TOPICS, preds, k))
            for user in users for u, preds in images if u == user]
    assert got == want
