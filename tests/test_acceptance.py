"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import json
import math
import random
from contextlib import contextmanager

import oracles
from conftest import (
    COUNTS_PATH,
    STARTER_PATH,
    WORKED_EXAMPLE_PATH,
    block_from_rows,
    dense_rows,
    make_record,
    profile_of,
    starter_taxonomy,
    sweep_of,
)
from interestprof.cli import main
from interestprof.correlation import pearson_matrix
from interestprof.evaluation import evaluate
from interestprof.fixtures import generate_fixture
from interestprof.ingest import ProfileDataset, load_score_cells
from interestprof.ontometrics import size_metrics, structural_metrics
from interestprof.profiling import profile_prefixes
from interestprof.taxonomy import N_TOPICS, TOPICS, LabelIndex, parse_taxonomy

# Committed reference for criterion 6, measured once at first build from the
# frozen fixture below (24 topics x 10 users x 50 images, purity 0.8).
REGRESSION_SEED = 20260810
REGRESSION_REFERENCE_ACCURACY = 1.0

MIXED_TERMS = (
    "espresso", "cup", "dough", "pizza", "sandal", "alp", "castle", "laptop",
    "racket", "groom", "zzz_unknown", "another_mystery",
)


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_c1_worked_example_image_scores():
    with criterion("1 (worked-example image scores)"):
        tax = starter_taxonomy()
        with open(WORKED_EXAMPLE_PATH, encoding="utf-8") as fh:
            ds = load_score_cells(fh, LabelIndex(tax), 5)
        ((prob, occ),) = dense_rows(ds.pop_block("u1"))
        for topic, expected in (("Drink", 0.20), ("Food", 0.06), ("Fashion", 0.04)):
            assert abs(prob.as_dict()[topic] - expected) <= 1e-12
        for topic, expected in (("Drink", 0.6), ("Food", 0.2), ("Fashion", 0.2)):
            assert abs(occ.as_dict()[topic] - expected) <= 1e-12
        assert prob.unmapped_mass == 0.0 and occ.unmapped_mass == 0.0
        mapped = {"Drink", "Food", "Fashion"}
        for name in set(TOPICS) - mapped:
            assert prob.as_dict()[name] == 0.0
            assert occ.as_dict()[name] == 0.0


def test_c2_five_image_majority_user():
    with criterion("2 (five-image majority user)"):
        tax = starter_taxonomy()
        outdoors = ["alp", "volcano", "cliff", "valley", "lakeside"]
        places = ["castle", "palace", "monastery", "church", "mosque"]
        records = [
            make_record("u1", f"img{n}", [(t, 0.1) for t in outdoors]) for n in range(4)
        ]
        records.append(make_record("u1", "img4", [(t, 0.1) for t in places]))
        prof = profile_of(records, tax, k=5, mechanism="occ")
        assert abs(prof.v_occ.as_dict()["Outdoors"] - 0.8) <= 1e-12
        assert abs(prof.v_occ.as_dict()["Places"] - 0.2) <= 1e-12
        assert prof.predicted_topic == "Outdoors"


def _random_dataset(rng, max_users=20, max_images=20):
    records = {}
    for u in range(rng.randint(1, max_users)):
        uid = f"u{u}"
        records[uid] = [
            make_record(
                uid,
                f"i{j}",
                [
                    (rng.choice(MIXED_TERMS), rng.random())
                    for _ in range(rng.randint(1, 5))
                ],
            )
            for j in range(rng.randint(1, max_images))
        ]
    return ProfileDataset(records=records)


def test_c3_normalization_over_random_datasets():
    with criterion("3 (normalization suite, 1000 random datasets)"):
        tax = starter_taxonomy()
        rng = random.Random(33)
        for _ in range(1000):
            ds = _random_dataset(rng)
            for user in ds.users():
                prof = profile_of(ds.records[user], tax, k=5)
                for v in (prof.v_prob, prof.v_occ):
                    assert abs(math.fsum(v.as_dict().values()) - 1.0) <= 1e-9


def _random_occ_rows(rng, max_rows=10):
    rows = []
    for _ in range(rng.randint(1, max_rows)):
        scores = tuple(rng.choice((0.0, 0.0, 0.2, 0.4, 0.6)) for _ in range(N_TOPICS))
        rows.append((scores, rng.choice((0.0, 0.2))))
    return rows


def _random_taxonomy_source(rng, max_concepts=12):
    n = rng.randint(1, max_concepts)
    lines = []
    names = []
    for i in range(n):
        parent = "R" if not names or rng.random() < 0.3 else rng.choice(names)
        name = f"C{i}"
        flag = " topic" if rng.random() < 0.5 else ""
        lines.append(f"concept {name} parent {parent}{flag}")
        names.append(name)
    rng.shuffle(lines)  # a child may come before its parent
    lines.insert(0, "root R")
    for j in range(rng.randint(0, 6)):
        lines.append(f"instance t{j} concept {rng.choice(['R'] + names)}")
    return "\n".join(lines)


def test_c4_oracle_equivalence():
    with criterion("4 (brute-force oracle equivalence, 200+ instances each)"):
        rng = random.Random(44)

        for _ in range(220):
            rows = _random_occ_rows(rng)
            # k = N_TOPICS, so a tie of up to 24 topics splits its votes exactly
            got = profile_prefixes(block_from_rows(rows), (len(rows),), "occ")[0].v_occ
            want_scores, want_unmapped = oracles.bf_aggregate_occ(rows)
            assert all(
                abs(g - w) <= 1e-12 for g, w in zip(got.scores, want_scores)
            )
            assert abs(got.unmapped_mass - want_unmapped) <= 1e-12

        for _ in range(220):
            tax = parse_taxonomy(_random_taxonomy_source(rng))
            s = structural_metrics(tax)
            assert s.max_spl == oracles.bf_max_spl(tax.parent)
            assert s.tnrnr == len(oracles.bf_reachable(tax.parent))

        from conftest import profile_from_scores

        for _ in range(220):
            n_users = rng.randint(2, 50)
            profiles = [
                profile_from_scores(
                    f"u{r}",
                    [rng.choice((0.0, rng.random())) for _ in range(N_TOPICS)],
                )
                for r in range(n_users)
            ]
            corr = pearson_matrix(profiles, "occ")
            x = [[p.v_occ.scores[c] for c in range(N_TOPICS)] for p in profiles]
            want = oracles.bf_pearson(x)
            for i in range(N_TOPICS):
                for j in range(N_TOPICS):
                    if want[i][j] is None:
                        assert corr.value(i, j) is None
                    else:
                        assert abs(corr.value(i, j) - want[i][j]) <= 1e-12


def test_c5_noiseless_synthetic_recovery():
    with criterion("5 (noiseless synthetic recovery, 240 users)"):
        tax = starter_taxonomy()
        ds = generate_fixture(10, 100, 1.0, seed=500, tax=tax)
        assert len(ds.labels) == 240
        sweep = (5, 10, 50, 75, 100)
        profs = sweep_of(ds, tax, k=5, sweep=sweep, mechanism="occ")
        report = evaluate(profs, ds.labels, "occ")
        for k in sweep:
            assert report.overall_accuracy[k] == 1.0
        for i in range(N_TOPICS):
            for j in range(N_TOPICS):
                assert report.confusion[i][j] == (10 if i == j else 0)
        assert report.cmc[0] == (1, 1.0)


def test_c6_frozen_fixture_regression_bound():
    with criterion("6 (frozen fixture regression bound)"):
        tax = starter_taxonomy()
        ds = generate_fixture(10, 50, 0.8, seed=REGRESSION_SEED, tax=tax)
        profs = sweep_of(ds, tax, k=5, sweep=(5, 10, 50), mechanism="occ")
        report = evaluate(profs, ds.labels, "occ")
        accuracy = report.overall_accuracy[50]
        assert abs(accuracy - REGRESSION_REFERENCE_ACCURACY) <= 0.02
        assert accuracy >= 0.95


def test_c7_metrics_sanity():
    with criterion("7 (starter taxonomy metrics vs committed hand counts)"):
        tax = starter_taxonomy()
        committed = json.loads(COUNTS_PATH.read_text())
        size = size_metrics(tax)
        for key, value in committed["size"].items():
            assert getattr(size, key) == value, key
        s = structural_metrics(tax)
        for key, value in committed["structural"].items():
            got = getattr(s, key)
            got = str(got) if key == "anrnr" else got
            assert got == value, key

        chain = parse_taxonomy(
            "root R\nconcept A parent R topic\nconcept B parent A\ninstance x concept B\n"
        )
        c = structural_metrics(chain)
        assert (c.n_rn, c.max_spl, c.tnrnr) == (1, 2, 3)


def test_c8_cmc_and_micro_average_properties():
    with criterion("8 (CMC and micro-average properties)"):
        tax = starter_taxonomy()
        rng = random.Random(88)
        for round_no in range(12):
            topics = rng.sample(TOPICS, rng.randint(2, 8))
            users = rng.randint(1, 4)
            images = rng.randint(2, 10)
            purity = rng.choice((0.3, 0.5, 0.7, 1.0))
            ds = generate_fixture(
                {t: users for t in topics}, images, purity, seed=round_no, tax=tax
            )
            sweep = tuple(sorted({1, max(1, images // 2), images}))
            report = evaluate(
                sweep_of(ds, tax, k=5, sweep=sweep, mechanism="occ"),
                ds.labels,
                "occ",
            )
            fractions = [f for _, f in report.cmc]
            assert all(b >= a for a, b in zip(fractions, fractions[1:]))
            assert report.cmc[-1] == (N_TOPICS, 1.0)
            n = report.n_labeled
            tp = sum(report.confusion[i][i] for i in range(N_TOPICS))
            col_total = sum(sum(row) for row in report.confusion)
            assert col_total == n
            micro_precision = tp / col_total
            micro_recall = tp / n
            assert micro_precision == micro_recall == report.overall_accuracy[max(sweep)]


def test_c9_pipeline_determinism(tmp_path):
    with criterion("9 (pipeline determinism)"):
        fix = tmp_path / "fix"
        assert main([
            "fixture", "--taxonomy", str(STARTER_PATH), "--out", str(fix),
            "--users-per-topic", "2", "--images", "12", "--purity", "0.8", "--seed", "7",
        ]) == 0

        def pipeline_args(out):
            return [
                "pipeline", "--taxonomy", str(STARTER_PATH),
                "--predictions", str(fix / "predictions.jsonl"),
                "--labels", str(fix / "labels.csv"),
                "--out", str(out), "--sweep", "3,6,12",
            ]

        def run_inproc(out):
            assert main(pipeline_args(out)) == 0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        first = run_inproc(tmp_path / "run1")
        repeated = run_inproc(tmp_path / "run3")

        # A fresh interpreter gets its own hash seed, so equality here also
        # shows the output is independent of set/dict hash ordering.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import interestprof

        # The child runs the package under test, however this process found it.
        env = dict(os.environ, PYTHONPATH=str(Path(interestprof.__file__).resolve().parents[1]))
        out2 = tmp_path / "run2"
        proc = subprocess.run(
            [sys.executable, "-m", "interestprof.cli"] + pipeline_args(out2),
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        second = {p.name: p.read_bytes() for p in sorted(out2.iterdir())}

        assert first == second
        assert first == repeated
        assert "report.json" in first and "pearson.csv" in first
