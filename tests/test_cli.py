"""CLI behavior: subcommands, exit codes, config precedence, artifacts."""

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import interestprof
from conftest import STARTER_PATH, WORKED_EXAMPLE_PATH, make_record
from interestprof import cli, ingest
from interestprof.cli import main
from interestprof.config import ENV_PREFIX
from interestprof.ingest import ProfileDataset, load_labels
from test_ingest import STUB_OK, _stub, _writing_stub

BOM = "\ufeff"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    import os

    for key in list(os.environ):
        if key.startswith(ENV_PREFIX):
            monkeypatch.delenv(key)


def run(*args):
    return main([str(a) for a in args])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run("--version")
    assert exit_info.value.code == 0
    assert "interestprof" in capsys.readouterr().out


def test_validate_ontology_ok(capsys):
    assert run("validate-ontology", "--taxonomy", STARTER_PATH) == 0
    out = capsys.readouterr().out
    assert "25 concepts" in out and "200 instances" in out


def test_validate_ontology_cycle_exits_1(tmp_path, capsys):
    bad = tmp_path / "cyclic.taxonomy"
    bad.write_text("root R\nconcept A parent B\nconcept B parent A\n")
    assert run("validate-ontology", "--taxonomy", bad) == 1
    err = capsys.readouterr().err
    assert "cycle" in err and "A" in err


def test_missing_predictions_exits_2(tmp_path):
    assert run("score", "--taxonomy", STARTER_PATH,
               "--predictions", tmp_path / "nope.jsonl", "--out", tmp_path / "out") == 2


def test_predictions_flag_required(tmp_path):
    assert run("score", "--taxonomy", STARTER_PATH, "--out", tmp_path / "out") == 2


def test_metrics_artifacts(tmp_path):
    out = tmp_path / "metrics"
    assert run("metrics", "--taxonomy", STARTER_PATH, "--out", out, "--attest-accuracy") == 0
    payload = json.loads((out / "ontology_metrics.json").read_text())
    assert payload["size"]["size_c"] == 25
    assert payload["structural"]["n_rn"] == 1
    assert payload["semiotic"]["accuracy"] is True
    assert "size_total" in (out / "ontology_metrics.txt").read_text()


def test_pipeline_worked_example(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("pipeline", "--taxonomy", STARTER_PATH,
               "--predictions", WORKED_EXAMPLE_PATH, "--out", out) == 0
    err = capsys.readouterr().err
    assert "correlation step skipped" in err
    assert "evaluation step skipped" in err

    profiles = json.loads((out / "profiles.json").read_text())
    assert len(profiles) == 1
    prof = profiles[0]
    assert prof["predicted_topic"] == "Drink"
    assert prof["v_occ"]["Drink"] == 1.0
    assert prof["v_prob"]["Drink"] == pytest.approx(0.2 / 0.3, abs=1e-9)

    occ_csv = (out / "image_scores_occ.csv").read_text().splitlines()
    assert occ_csv[0].startswith("user_id,image_id,Activities,")
    row = dict(zip(occ_csv[0].split(","), occ_csv[1].split(",")))
    assert (row["Drink"], row["Food"], row["Fashion"]) == ("0.6", "0.2", "0.2")
    assert not (out / "report.json").exists()


def test_refuses_nonempty_outdir_without_force(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "existing.txt").write_text("keep me?")
    args = ("metrics", "--taxonomy", STARTER_PATH, "--out", out)
    assert run(*args) == 2
    assert run(*args, "--force") == 0


def test_fixture_and_full_pipeline(tmp_path):
    fix = tmp_path / "fix"
    assert run("fixture", "--taxonomy", STARTER_PATH, "--out", fix,
               "--users-per-topic", 1, "--images", 6, "--seed", 3) == 0
    predictions = fix / "predictions.jsonl"
    labels = fix / "labels.csv"
    assert len(predictions.read_text().splitlines()) == 24 * 6
    assert len(labels.read_text().splitlines()) == 24 + 1

    out = tmp_path / "run"
    assert run("pipeline", "--taxonomy", STARTER_PATH, "--predictions", predictions,
               "--labels", labels, "--out", out, "--sweep", "2,6") == 0
    report = json.loads((out / "report.json").read_text())
    assert report["overall_accuracy"] == {"2": 1.0, "6": 1.0}
    for name in (
        "ontology_metrics.json", "ontology_metrics.txt",
        "image_scores_prob.csv", "image_scores_occ.csv",
        "profiles.json", "profiles_sweep.json",
        "pearson.csv", "pearson_bands.csv", "pearson_heatmap.svg", "co_interest.csv",
        "report.json", "accuracy_by_topic.csv", "confusion.csv", "cmc.csv",
        "precision_recall.csv", "roc_points.csv", "cmc.svg", "accuracy_sweep.svg",
    ):
        assert (out / name).exists(), name


def test_score_command(tmp_path):
    out = tmp_path / "scores"
    assert run("score", "--taxonomy", STARTER_PATH,
               "--predictions", WORKED_EXAMPLE_PATH, "--out", out) == 0
    text = (out / "image_scores_prob.csv").read_text()
    assert text.splitlines()[0].endswith(",unmapped")
    assert len(text.splitlines()) == 2


def test_profile_command_sweep_artifact(tmp_path):
    out = tmp_path / "profiles"
    assert run("profile", "--taxonomy", STARTER_PATH,
               "--predictions", WORKED_EXAMPLE_PATH, "--out", out, "--sweep", "1") == 0
    sweep = json.loads((out / "profiles_sweep.json").read_text())
    assert list(sweep) == ["1"]


def test_profile_mechanism_flag(tmp_path):
    out = tmp_path / "profiles"
    assert run("profile", "--taxonomy", STARTER_PATH, "--predictions", WORKED_EXAMPLE_PATH,
               "--out", out, "--mechanism", "prob") == 0
    prof = json.loads((out / "profiles.json").read_text())[0]
    assert prof["mechanism"] == "prob"
    assert prof["predicted_topic"] == "Drink"


def test_evaluate_requires_labels(tmp_path):
    assert run("evaluate", "--taxonomy", STARTER_PATH,
               "--predictions", WORKED_EXAMPLE_PATH, "--out", tmp_path / "e") == 2


def test_evaluate_standalone(tmp_path):
    labels = tmp_path / "labels.csv"
    labels.write_text("user_id,topic\nu1,Drink\n")
    out = tmp_path / "eval"
    assert run("evaluate", "--taxonomy", STARTER_PATH, "--predictions", WORKED_EXAMPLE_PATH,
               "--labels", labels, "--out", out, "--sweep", "1") == 0
    report = json.loads((out / "report.json").read_text())
    assert report["overall_accuracy"] == {"1": 1.0}
    assert report["n_labeled"] == 1


def test_correlate_single_user_exits_1(tmp_path):
    assert run("correlate", "--taxonomy", STARTER_PATH,
               "--predictions", WORKED_EXAMPLE_PATH, "--out", tmp_path / "c") == 1


def test_config_file_env_and_flag_precedence(tmp_path, monkeypatch):
    config = tmp_path / "run.conf"
    config.write_text(
        f"taxonomy = {STARTER_PATH}\nimages = 2\nusers_per_topic = 1\nseed = 4\n"
    )
    out1 = tmp_path / "o1"
    assert run("fixture", "--config", config, "--out", out1) == 0
    assert len((out1 / "predictions.jsonl").read_text().splitlines()) == 24 * 2

    monkeypatch.setenv(ENV_PREFIX + "IMAGES", "3")
    out2 = tmp_path / "o2"
    assert run("fixture", "--config", config, "--out", out2) == 0
    assert len((out2 / "predictions.jsonl").read_text().splitlines()) == 24 * 3

    out3 = tmp_path / "o3"
    assert run("fixture", "--config", config, "--out", out3, "--images", 4) == 0
    assert len((out3 / "predictions.jsonl").read_text().splitlines()) == 24 * 4


def test_bad_config_values_exit_2(tmp_path, capsys, monkeypatch):
    config = tmp_path / "bad.conf"
    config.write_text("seed = 1\ntopk = zero\n")
    assert run("validate-ontology", "--config", config, "--taxonomy", STARTER_PATH) == 2
    assert capsys.readouterr().err == \
        f"error: {config}:2: topk: expected an integer, got 'zero'\n"
    config.write_text("mystery = 1\n")
    assert run("validate-ontology", "--config", config, "--taxonomy", STARTER_PATH) == 2
    config.write_bytes(b"seed = 1\ntau = 0.2  # caf\xff\n")
    capsys.readouterr()
    assert run("validate-ontology", "--config", config, "--taxonomy", STARTER_PATH) == 2
    assert capsys.readouterr().err == f"error: {config}:2: line is not valid UTF-8 text\n"
    assert run("profile", "--taxonomy", STARTER_PATH, "--predictions", WORKED_EXAMPLE_PATH,
               "--out", tmp_path / "m", "--sweep", "5,5") == 2
    capsys.readouterr()
    # A bad --sweep list is parsed inside main, so it is one line and no traceback.
    assert run("profile", "--taxonomy", STARTER_PATH, "--predictions", WORKED_EXAMPLE_PATH,
               "--out", tmp_path / "m", "--sweep", "5,x") == 2
    assert capsys.readouterr().err == "error: --sweep: expected comma-separated integers, " \
        "got '5,x'\n"
    assert not (tmp_path / "m").exists()
    monkeypatch.setenv(ENV_PREFIX + "TAU", "abc")
    assert run("validate-ontology", "--taxonomy", STARTER_PATH) == 2
    assert capsys.readouterr().err == "error: INTERESTPROF_TAU: expected a number, got 'abc'\n"
    monkeypatch.setenv(ENV_PREFIX + "TAU", "0.2")
    monkeypatch.setenv(ENV_PREFIX + "FORCE", "maybe")
    assert run("validate-ontology", "--taxonomy", STARTER_PATH) == 2
    assert capsys.readouterr().err == \
        "error: INTERESTPROF_FORCE: expected a boolean, got 'maybe'\n"
    monkeypatch.delenv(ENV_PREFIX + "FORCE")
    # An out-of-range value names its source like an unreadable one.
    monkeypatch.setenv(ENV_PREFIX + "TAU", "5")
    assert run("validate-ontology", "--taxonomy", STARTER_PATH) == 2
    assert capsys.readouterr().err == "error: INTERESTPROF_TAU: tau must be in (0, 1], got 5.0\n"
    monkeypatch.delenv(ENV_PREFIX + "TAU")
    config.write_text("seed = 1\ntau = 5\n")
    assert run("validate-ontology", "--config", config, "--taxonomy", STARTER_PATH) == 2
    assert capsys.readouterr().err == f"error: {config}:2: tau: tau must be in (0, 1], got 5.0\n"
    # A value that a later layer overrides is not checked, as before.
    monkeypatch.setenv(ENV_PREFIX + "TAU", "0.5")
    assert run("validate-ontology", "--config", config, "--taxonomy", STARTER_PATH) == 0
    monkeypatch.delenv(ENV_PREFIX + "TAU")
    capsys.readouterr()
    data_args = ["profile", "--taxonomy", STARTER_PATH, "--predictions", WORKED_EXAMPLE_PATH,
                 "--out", tmp_path / "m"]
    fixture_args = ["fixture", "--taxonomy", STARTER_PATH, "--out", tmp_path / "m"]
    for args, shown in [
        (data_args + ["--sweep", "5,5"],
         "--sweep: sweep values must be positive and strictly increasing: [5, 5]"),
        (data_args + ["--tau", "5"], "--tau: tau must be in (0, 1], got 5.0"),
        (data_args + ["--topk", "0"], "--topk: topk must be >= 1, got 0"),
        (fixture_args + ["--images", "0"], "--images: fixture sizes must be positive"),
        (fixture_args + ["--purity", "2"], "--purity: purity must be in [0, 1], got 2.0"),
        # Typed flags are converted inside main: one line, no usage block.
        (data_args + ["--topk", "abc"], "--topk: expected an integer, got 'abc'"),
        (data_args + ["--tau", "abc"], "--tau: expected a number, got 'abc'"),
        (data_args + ["--seed", "1.5"], "--seed: expected an integer, got '1.5'"),
        (data_args + ["--jobs", "two"], "--jobs: expected an integer, got 'two'"),
        (fixture_args + ["--users-per-topic", "x"],
         "--users-per-topic: expected an integer, got 'x'"),
        (fixture_args + ["--images", "x"], "--images: expected an integer, got 'x'"),
        (fixture_args + ["--purity", "x"], "--purity: expected a number, got 'x'"),
    ]:
        assert run(*args) == 2
        assert capsys.readouterr() == ("", f"error: {shown}\n")
    assert not (tmp_path / "m").exists()


def test_unmappable_user_skipped_with_warning(tmp_path, capsys):
    predictions = tmp_path / "p.jsonl"
    predictions.write_text(
        json.dumps({"user_id": "ghost", "image_id": "i",
                    "predictions": [{"label": "zzz_unknown", "prob": 0.9}]}) + "\n"
        + WORKED_EXAMPLE_PATH.read_text()
    )
    out = tmp_path / "out"
    assert run("profile", "--taxonomy", STARTER_PATH,
               "--predictions", predictions, "--out", out) == 0
    assert "ghost" in capsys.readouterr().err
    profiles = json.loads((out / "profiles.json").read_text())
    assert [p["user_id"] for p in profiles] == ["u1"]


def test_prefix_without_mapped_mass_is_kept_with_null_prediction(tmp_path):
    lines = [
        json.dumps({"user_id": "late", "image_id": f"x{n}",
                    "predictions": [{"label": "zzz_unknown", "prob": 0.9}]})
        for n in range(5)
    ]
    lines.append(json.dumps({"user_id": "late", "image_id": "x5",
                             "predictions": [{"label": "espresso", "prob": 0.8}]}))
    predictions = tmp_path / "p.jsonl"
    predictions.write_text("\n".join(lines) + "\n" + WORKED_EXAMPLE_PATH.read_text())
    labels = tmp_path / "labels.csv"
    labels.write_text("user_id,topic\nlate,Drink\nu1,Drink\n")
    out = tmp_path / "out"
    assert run("pipeline", "--taxonomy", STARTER_PATH, "--predictions", predictions,
               "--labels", labels, "--out", out, "--sweep", "5,6") == 0
    profiles = json.loads((out / "profiles.json").read_text())
    assert [(p["user_id"], p["predicted_topic"]) for p in profiles] == [
        ("late", "Drink"), ("u1", "Drink"),
    ]
    sweep = json.loads((out / "profiles_sweep.json").read_text())
    assert [(p["user_id"], p["predicted_topic"]) for p in sweep["5"]] == [
        ("late", None), ("u1", "Drink"),
    ]
    assert sweep["5"][0]["v_occ"]["unmapped"] == 1.0
    report = json.loads((out / "report.json").read_text())
    assert report["overall_accuracy"] == {"5": 0.5, "6": 1.0}


def test_non_canonical_topic_exits_1_naming_the_concept(tmp_path, capsys):
    taxonomy = tmp_path / "gadgets.taxonomy"
    taxonomy.write_text(
        "root Thing\nconcept Gadgets parent Thing topic\ninstance widget concept Gadgets\n"
    )
    assert run("validate-ontology", "--taxonomy", taxonomy) == 0
    predictions = tmp_path / "p.jsonl"
    predictions.write_text(json.dumps({
        "user_id": "u", "image_id": "i", "predictions": [{"label": "widget", "prob": 0.9}],
    }) + "\n")
    capsys.readouterr()
    out = tmp_path / "out"
    assert run("pipeline", "--taxonomy", taxonomy, "--predictions", predictions,
               "--out", out) == 1
    err = capsys.readouterr().err
    assert "Gadgets" in err and "canonical" in err
    assert not out.exists()


def test_score_tables_quote_ids_with_commas_and_quotes(tmp_path):
    predictions = tmp_path / "p.jsonl"
    predictions.write_text(json.dumps({
        "user_id": "a,b", "image_id": 'say "cheese"',
        "predictions": [{"label": "espresso", "prob": 0.5}, {"label": "dough", "prob": 0.25}],
    }) + "\n")
    out = tmp_path / "out"
    assert run("score", "--taxonomy", STARTER_PATH, "--predictions", predictions,
               "--out", out) == 0
    for name in ("image_scores_prob.csv", "image_scores_occ.csv"):
        with open(out / name, newline="", encoding="utf-8") as fh:
            header, row = list(csv.reader(fh))
        assert len(row) == len(header) == 2 + 24 + 1
        assert row[:2] == ["a,b", 'say "cheese"']
        cells = dict(zip(header, row))
        expected = ("0.5", "0.25") if name.endswith("prob.csv") else ("0.2", "0.2")
        assert (cells["Drink"], cells["Food"]) == expected
        assert cells["unmapped"] == ("0" if name.endswith("prob.csv") else "0.6")


def test_validate_ontology_leaves_numpy_unimported(tmp_path, small_fixture):
    predictions, labels = small_fixture
    data = ["--taxonomy", str(STARTER_PATH), "--predictions", str(predictions),
            "--labels", str(labels)]
    commands = [
        ["validate-ontology", "--taxonomy", str(STARTER_PATH)],
        ["pipeline", *data, "--out", str(tmp_path / "pipeline")],
        ["correlate", *data, "--out", str(tmp_path / "correlate")],
    ]
    code = (
        "import sys\n"
        "from interestprof.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    print('result', main(argv), 'numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(interestprof.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = [line.split()[1:] for line in proc.stdout.splitlines() if line.startswith("result")]
    assert results == [["0", "False"]] * 3
    assert (tmp_path / "pipeline" / "pearson.csv").exists()
    assert (tmp_path / "correlate" / "co_interest.csv").exists()


FORGED = "a\nFAKE: line 9: \u001b[31mred"
RED, PLAIN = "\x1b[31m", "\x1b[0m"


@pytest.mark.parametrize("case", ["bad-prob", "skip-bad", "duplicate", "labels", "unmappable",
                                  "concept", "instance", "config", "classifier"])
def test_quoted_input_text_cannot_forge_stderr_lines(tmp_path, capsys, case):
    def line(user, image, label, prob):
        return json.dumps({"user_id": user, "image_id": image,
                           "predictions": [{"label": label, "prob": prob}]}) + "\n"

    predictions = tmp_path / "p.jsonl"
    labels = tmp_path / "labels.csv"
    taxonomy = tmp_path / "t.taxonomy"
    args = ["score", "--taxonomy", STARTER_PATH, "--predictions", predictions,
            "--out", tmp_path / "out"]
    shown = repr(FORGED)[1:-1]
    good = line("u1", "i1", "espresso", 0.5)
    if case == "bad-prob":
        predictions.write_text(good + line("u2", "i2", FORGED, 2))
    elif case == "skip-bad":
        predictions.write_text(good + line("u2", "i2", FORGED, 2))
        args.append("--skip-bad")
    elif case == "duplicate":
        predictions.write_text(line(FORGED, "i1", "espresso", 0.5) * 2)
    elif case == "labels":
        predictions.write_text(good)
        labels.write_text(f'user_id,topic\n"{FORGED}",Drink\n')
        args += ["--labels", labels]
    elif case == "unmappable":
        predictions.write_text(good + line(FORGED, "i1", "no such label", 0.5))
        args[0] = "profile"
    elif case == "concept":
        taxonomy.write_text(f"root R\nconcept A{RED} parent Q\n")
        args = ["validate-ontology", "--taxonomy", taxonomy]
        shown = "error: line 2: concept 'A\\x1b[31m' references unknown parent 'Q'\n"
    elif case == "instance":
        taxonomy.write_text(
            f"root R\nconcept C parent R topic\ninstance caf{RED}e concept Foo{PLAIN}\n"
        )
        args = ["validate-ontology", "--taxonomy", taxonomy]
        shown = "error: line 3: instance 'caf\\x1b[31me' references unknown concept 'Foo\\x1b[0m'\n"
    elif case == "config":
        config = tmp_path / "run.conf"
        config.write_text(f"topk = 5{RED}\n")
        args = ["validate-ontology", "--taxonomy", STARTER_PATH, "--config", config]
        shown = f"error: {config}:1: topk: expected an integer, got '5\\x1b[31m'\n"
    else:
        stub = ("import sys\nsys.stderr.buffer.write(b'boom \\xff\\x1b[31mRED\\nFAKE: line 9')\n"
                "sys.exit(3)\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(MANIFEST)
        args = ["score", "--taxonomy", STARTER_PATH, "--classifier-cmd", _stub(tmp_path, stub),
                "--manifest", manifest, "--out", tmp_path / "out"]
        shown = ("error: classifier command exited with status 3: "
                 "boom \\xff\\x1b[31mRED\\nFAKE: line 9\n")
    rc = run(*args)
    err = capsys.readouterr().err
    expected_rc = {"bad-prob": 1, "duplicate": 1, "concept": 1, "instance": 1, "config": 2,
                   "classifier": 2}
    assert rc == expected_rc.get(case, 0)
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "\x1b" not in err
    assert shown in err


def _artifacts(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _with_bom(path, dest):
    dest.write_text(BOM + path.read_text(encoding="utf-8"), encoding="utf-8")
    return dest


@pytest.fixture
def small_fixture(tmp_path):
    fix = tmp_path / "fix"
    assert run("fixture", "--taxonomy", STARTER_PATH, "--out", fix,
               "--users-per-topic", 1, "--images", 3, "--purity", 0.7, "--seed", 5) == 0
    return fix / "predictions.jsonl", fix / "labels.csv"


def _pipeline(out, predictions, labels, taxonomy, config):
    assert run("pipeline", "--taxonomy", taxonomy, "--predictions", predictions,
               "--labels", labels, "--config", config, "--out", out, "--sweep", "1,3") == 0
    return _artifacts(out)


@pytest.mark.parametrize("bom_file", ["predictions", "labels", "taxonomy", "config"])
def test_bom_prefixed_input_gives_same_artifacts(tmp_path, small_fixture, bom_file):
    config = tmp_path / "run.conf"
    config.write_text("tau = 0.3\n")
    inputs = dict(zip(("predictions", "labels"), small_fixture),
                  taxonomy=STARTER_PATH, config=config)
    plain = _pipeline(tmp_path / "plain", **inputs)
    inputs[bom_file] = _with_bom(inputs[bom_file], tmp_path / f"bom-{bom_file}")
    assert _pipeline(tmp_path / "bom", **inputs) == plain


MANIFEST = 'user_id,image_id,image_path\nu1,i1,"/img/a,b.jpg"\nu1,i2,/img/c.jpg\nu2,i1,/img/d.jpg\n'


def test_bom_prefixed_manifest_gives_same_artifacts(tmp_path):
    stub_bom = STUB_OK.replace('open(sys.argv[2], "w")',
                               'open(sys.argv[2], "w", encoding="utf-8-sig")')
    outputs = []
    for name, prefix, stub in (("plain", "", STUB_OK), ("bom", BOM, STUB_OK),
                               ("bom-output", "", stub_bom)):
        manifest = tmp_path / f"{name}.csv"
        manifest.write_text(prefix + MANIFEST, encoding="utf-8")
        out = tmp_path / name
        assert run("score", "--taxonomy", STARTER_PATH,
                   "--classifier-cmd", _stub(tmp_path, stub, f"{name}.py"),
                   "--manifest", manifest, "--out", out) == 0
        outputs.append(_artifacts(out))
    assert outputs[0] == outputs[1] == outputs[2]
    rows = outputs[0]["image_scores_prob.csv"].decode().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["u1", "i1"], ["u1", "i2"], ["u2", "i1"]]


def test_bad_manifest_row_exits_1_naming_path_and_line(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("user_id,image_id,image_path\nu1,i1,/img/a.jpg\nu1,i2\n")
    assert run("score", "--taxonomy", STARTER_PATH, "--manifest", manifest,
               "--classifier-cmd", _stub(tmp_path, STUB_OK), "--out", tmp_path / "out") == 1
    assert f"{manifest}:3: expected user_id,image_id,image_path" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["extra image", "missing image", "unknown user"])
def test_classifier_output_off_the_manifest_exits_1(tmp_path, capsys, case):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST)
    written, shown = {
        "extra image": ([("u1", "i1"), ("u1", "i2"), ("u2", "i1"), ("u2", "i2")],
                        "classifier output:4: user 'u2' image 'i2' is not listed in the manifest"),
        "missing image": ([("u1", "i1"), ("u2", "i1")],
                          f"{manifest}:3: no classifier output for user 'u1' image 'i2'"),
        "unknown user": ([("ghost", "zzz")],
                         "classifier output:1: user 'ghost' image 'zzz' is not listed in the manifest"),
    }[case]
    assert run("profile", "--taxonomy", STARTER_PATH, "--manifest", manifest,
               "--classifier-cmd", _writing_stub(tmp_path, written),
               "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err == f"error: {shown}\n"
    assert not (tmp_path / "out").exists()


SLEEPER = f'{sys.executable} -c "import time; time.sleep(5)" {{input}} {{output}}'


@pytest.mark.parametrize("command, shown", [
    (SLEEPER, "classifier command timed out after 0.5 s"),
    ("/nonexistent/classifier {input} {output}",
     "classifier command '/nonexistent/classifier' could not be started: "
     "No such file or directory"),
    ('classify "{input} {output}', "classifier command template: No closing quotation"),
])
def test_classifier_that_cannot_finish_exits_2_in_one_line(tmp_path, capsys, command, shown):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST)
    started = time.monotonic()
    assert run("pipeline", "--taxonomy", STARTER_PATH, "--manifest", manifest,
               "--classifier-cmd", command, "--classifier-timeout", "0.5",
               "--out", tmp_path / "out") == 2
    assert time.monotonic() - started < 4
    assert capsys.readouterr() == ("", f"error: {shown}\n")
    assert not (tmp_path / "out").exists()


def test_classifier_timeout_is_set_like_every_other_key(tmp_path, capsys, monkeypatch):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST)
    config = tmp_path / "run.conf"
    config.write_text("classifier_timeout = 0.5\n")
    args = ["score", "--taxonomy", STARTER_PATH, "--manifest", manifest,
            "--classifier-cmd", SLEEPER, "--out", tmp_path / "out"]
    assert run(*args, "--config", config) == 2
    assert capsys.readouterr().err == "error: classifier command timed out after 0.5 s\n"
    monkeypatch.setenv(ENV_PREFIX + "CLASSIFIER_TIMEOUT", "0.5")
    assert run(*args) == 2
    assert capsys.readouterr().err == "error: classifier command timed out after 0.5 s\n"
    monkeypatch.delenv(ENV_PREFIX + "CLASSIFIER_TIMEOUT")
    config.write_text("seed = 1\nclassifier_timeout = 0\n")
    rule = "classifier_timeout must be a finite number of seconds > 0, got"
    for extra, env, shown in [
        (["--config", config], None, f"{config}:2: classifier_timeout: {rule} 0.0"),
        (["--classifier-timeout", "-1"], None, f"--classifier-timeout: {rule} -1.0"),
        (["--classifier-timeout", "inf"], None, f"--classifier-timeout: {rule} inf"),
        (["--classifier-timeout", "soon"], None,
         "--classifier-timeout: expected a number, got 'soon'"),
        ([], "nan", f"INTERESTPROF_CLASSIFIER_TIMEOUT: {rule} nan"),
    ]:
        if env is not None:
            monkeypatch.setenv(ENV_PREFIX + "CLASSIFIER_TIMEOUT", env)
        assert run(*args, *extra) == 2
        assert capsys.readouterr() == ("", f"error: {shown}\n")
    assert not (tmp_path / "out").exists()
    # The default lets a classifier that finishes run to the end.
    monkeypatch.delenv(ENV_PREFIX + "CLASSIFIER_TIMEOUT")
    assert run("score", "--taxonomy", STARTER_PATH, "--manifest", manifest,
               "--classifier-cmd", _stub(tmp_path, STUB_OK), "--out", tmp_path / "out") == 0


def test_pipeline_builds_no_prediction_record(tmp_path, monkeypatch, capsys):
    built = []
    record = ingest.PredictionRecord

    def counting(*args, **kwargs):
        built.append(args)
        return record(*args, **kwargs)

    monkeypatch.setattr(ingest, "PredictionRecord", counting)
    assert run("pipeline", "--taxonomy", STARTER_PATH, "--predictions", WORKED_EXAMPLE_PATH,
               "--out", tmp_path / "out") == 0
    assert built == []
    # The patch does see the records that load_predictions builds.
    ingest.load_predictions(WORKED_EXAMPLE_PATH.read_text())
    assert built


def test_fixture_labels_quote_ids_with_commas_and_quotes(tmp_path, monkeypatch):
    labels = {"a,b": "Drink", 'say "hi"': "Food", "plain": "Sport"}
    dataset = ProfileDataset(
        records={u: [make_record(u, "i1", [("espresso", 0.5)])] for u in labels},
        labels=labels,
    )
    monkeypatch.setattr(cli, "generate_fixture", lambda *args: dataset)
    assert run("fixture", "--taxonomy", STARTER_PATH, "--out", tmp_path / "fix") == 0
    with open(tmp_path / "fix" / "labels.csv", encoding="utf-8", newline="") as fh:
        assert load_labels(fh) == labels


def test_import_leaves_http_client_unimported():
    code = "import sys\nimport interestprof.cli\nprint('http.client' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=str(Path(interestprof.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_gc_is_off_during_a_command_and_on_after_main(tmp_path, monkeypatch):
    import gc

    during = []
    validate = cli._COMMANDS["validate-ontology"]
    monkeypatch.setitem(cli._COMMANDS, "validate-ontology",
                        lambda cfg: during.append(gc.isenabled()) or validate(cfg))
    assert gc.isenabled()
    assert run("validate-ontology", "--taxonomy", STARTER_PATH) == 0
    assert gc.isenabled()
    bad = tmp_path / "cyclic.taxonomy"
    bad.write_text("root R\nconcept A parent B\nconcept B parent A\n")
    assert run("validate-ontology", "--taxonomy", bad) == 1
    assert gc.isenabled()
    assert during == [False, False]


GOOD_LINE = '{"user_id": "u1", "image_id": "i1", "predictions": [{"label": "cup", "prob": 0.5}]}'


def _pipeline_rejects(tmp_path, capsys, predictions: bytes, labels: bytes | None = None,
                      taxonomy: bytes | None = None):
    """Run pipeline on raw input bytes; expect exit 1 and nothing written."""
    pred_path = tmp_path / "predictions.jsonl"
    pred_path.write_bytes(predictions)
    tax_path = STARTER_PATH
    if taxonomy is not None:
        tax_path = tmp_path / "t.taxonomy"
        tax_path.write_bytes(taxonomy)
    args = ["pipeline", "--taxonomy", tax_path, "--predictions", pred_path,
            "--out", tmp_path / "out"]
    if labels is not None:
        (tmp_path / "labels.csv").write_bytes(labels)
        args += ["--labels", tmp_path / "labels.csv"]
    assert run(*args) == 1
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


def test_prob_integer_beyond_digit_limit_exits_1(tmp_path, capsys):
    huge = GOOD_LINE.replace("0.5", "1" * 5000)
    err = _pipeline_rejects(tmp_path, capsys, f"{GOOD_LINE}\n{huge}\n".encode())
    assert "error: line 2: malformed JSON: " in err


def test_deeply_nested_line_exits_1(tmp_path, capsys):
    err = _pipeline_rejects(tmp_path, capsys, b"[" * 100_000 + b"\n")
    assert "error: line 1: malformed JSON: nested too deeply" in err


def test_lone_surrogate_user_id_exits_1_before_any_output(tmp_path, capsys):
    line = GOOD_LINE.replace('"u1"', '"\\ud800"')
    err = _pipeline_rejects(tmp_path, capsys, f"{GOOD_LINE}\n{line}\n".encode())
    assert "error: line 2: 'user_id' is not valid UTF-8 text" in err


@pytest.mark.parametrize("bad_file", ["predictions", "labels", "taxonomy"])
def test_non_utf8_byte_exits_1_naming_the_line(tmp_path, capsys, bad_file):
    predictions = f"{GOOD_LINE}\n".encode()
    labels = b"user_id,topic\nu1,Drink\n"
    taxonomy = None
    if bad_file == "predictions":
        predictions += GOOD_LINE.replace("i1", "i\xff").encode("latin-1") + b"\n"
    elif bad_file == "labels":
        labels += b"u\xff2,Food\n"
    else:
        taxonomy = b"root R\n# caf\xff\n" + STARTER_PATH.read_bytes()
    err = _pipeline_rejects(tmp_path, capsys, predictions, labels, taxonomy)
    assert f"error: line {dict(predictions=2, labels=3, taxonomy=2)[bad_file]}: " in err
    assert "is not valid UTF-8 text" in err


GHOST = json.dumps({"user_id": "ghost", "image_id": "g1",
                    "predictions": [{"label": "zzz_unknown", "prob": 0.9}]}) + "\n"
SKIP_GHOST = "warning: skipping user 'ghost': no prediction label maps to any topic\n"


@pytest.mark.parametrize("mechanism", ["occ", "prob"])
def test_each_subcommand_writes_the_pipeline_bytes(tmp_path, small_fixture, mechanism):
    fixture_predictions, labels = small_fixture
    predictions = tmp_path / "p.jsonl"
    predictions.write_text(fixture_predictions.read_text() + GHOST)
    common = ["--taxonomy", STARTER_PATH, "--mechanism", mechanism]
    data = [*common, "--predictions", predictions, "--labels", labels, "--sweep", "1,2,7"]
    assert run("pipeline", *data, "--out", tmp_path / "pipeline") == 0
    pipeline = _artifacts(tmp_path / "pipeline")
    written = {}
    for command in ("metrics", "score", "profile", "correlate", "evaluate"):
        out = tmp_path / command
        assert run(command, *(common if command == "metrics" else data), "--out", out) == 0
        artifacts = _artifacts(out)
        assert artifacts == {name: pipeline[name] for name in artifacts}, command
        written.update(artifacts)
    assert written == pipeline


@pytest.mark.parametrize("command, records, label_rows, rc, err, files", [
    ("correlate", "worked", None, 1, "error: pearson_matrix needs at least 2 profiles\n", {}),
    ("evaluate", "worked+ghost", "ghost,Drink\n", 1,
     SKIP_GHOST + "error: no labeled users present in the profiles\n", {}),
    ("score", "ghost", None, 0, "", None),
    ("profile", "ghost", None, 0, SKIP_GHOST,
     {"profiles.json": b"[]\n", "profiles_sweep.json": b"{}\n"}),
    ("pipeline", "worked", None, 0, "note: fewer than 2 profiles, correlation step skipped\n"
     "note: no labeled users, evaluation step skipped\n", None),
])
def test_single_step_fails_where_pipeline_skips(tmp_path, capsys, command, records, label_rows,
                                               rc, err, files):
    text = {"worked": WORKED_EXAMPLE_PATH.read_text(), "ghost": GHOST}
    predictions = tmp_path / "p.jsonl"
    predictions.write_text("".join(text[part] for part in records.split("+")))
    args = [command, "--taxonomy", STARTER_PATH, "--predictions", predictions,
            "--out", tmp_path / "out"]
    if label_rows is not None:
        (tmp_path / "labels.csv").write_text("user_id,topic\n" + label_rows)
        args += ["--labels", tmp_path / "labels.csv"]
    assert run(*args) == rc
    assert capsys.readouterr().err == err
    if rc:  # a failed step leaves no --out behind, not even an empty one
        assert not (tmp_path / "out").exists()
    elif files is not None:
        assert _artifacts(tmp_path / "out") == files
