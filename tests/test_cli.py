"""CLI behavior: subcommands, exit codes, config precedence, artifacts."""

import argparse
import csv
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import interestprof
from conftest import STARTER_PATH, WORKED_EXAMPLE_PATH, make_record
from interestprof import cli, errors, fixtures, ingest
from interestprof.cli import main
from interestprof import config
from interestprof.config import ENV_PREFIX, RunConfig
from interestprof.ingest import ProfileDataset, load_labels
from interestprof.taxonomy import LabelIndex
from test_ingest import STUB_OK, _gone_or_zombie, _stub, _writing_stub

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


def test_unreadable_inputs_and_a_file_as_out_exit_2_naming_them(tmp_path, capsys, monkeypatch):
    pred = tmp_path / "p.jsonl"
    pred.write_text(WORKED_EXAMPLE_PATH.read_text())
    assert run("score", "--taxonomy", STARTER_PATH,
               "--predictions", tmp_path, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: predictions file is a directory: {tmp_path}\n"

    def denied(path, *args, **kwargs):
        if Path(path) == pred:
            raise PermissionError(13, "Permission denied", str(path))
        return open(path, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(errors, "open", denied, raising=False)
        assert run("score", "--taxonomy", STARTER_PATH,
                   "--predictions", pred, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == (
        f"error: predictions file cannot be read (permission denied): {pred}\n"
    )

    for data in (("--predictions", pred), ()):
        assert run("score" if data else "metrics", "--taxonomy", STARTER_PATH, *data,
                   "--out", pred, "--force") == 2
        assert capsys.readouterr().err == f"error: output directory {pred} is not a directory\n"
    assert not (tmp_path / "out").exists()


def test_out_under_a_file_exits_2_naming_it(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("keep")
    out = afile / "sub" / "deeper"
    for command, args in (
        ("score", ("--predictions", WORKED_EXAMPLE_PATH)),
        ("fixture", ("--users-per-topic", "1", "--images", "2")),
    ):
        assert run(command, "--taxonomy", STARTER_PATH, *args, "--out", out) == 2
        assert capsys.readouterr() == (
            "", f"error: output directory {out} cannot be created: {afile} is not a directory\n"
        )
    assert sorted(tmp_path.iterdir()) == [afile] and afile.read_text() == "keep"


def test_bad_out_exits_2_before_the_dataset_is_loaded(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the dataset was loaded before --out was checked")

    monkeypatch.setattr(cli, "_load_dataset", never)
    afile = tmp_path / "afile"
    afile.write_text("keep")
    full = tmp_path / "full"
    full.mkdir()
    (full / "existing.txt").write_text("keep")
    bad_outs = {
        afile / "sub": f"{afile / 'sub'} cannot be created: {afile} is not a directory",
        afile: f"{afile} is not a directory",
        full: f"{full} is not empty (use --force to overwrite)",
    }
    for inputs in (("--predictions", WORKED_EXAMPLE_PATH),
                   ("--classifier-cmd", "classify {input} {output}",
                    "--manifest", tmp_path / "manifest.csv")):
        for command in ("score", "pipeline"):
            for out, why in bad_outs.items():
                assert run(command, "--taxonomy", STARTER_PATH, *inputs, "--out", out) == 2
                assert capsys.readouterr() == ("", f"error: output directory {why}\n")
    assert sorted(tmp_path.iterdir()) == [afile, full]


def test_out_that_mkdir_refuses_exits_2_naming_it(tmp_path, capsys, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "mkdir", refuse)
    out = tmp_path / "out\x1b"
    assert run("fixture", "--taxonomy", STARTER_PATH, "--users-per-topic", "1",
               "--images", "2", "--out", out) == 2
    assert capsys.readouterr().err == (
        f"error: output directory {tmp_path}/out\\x1b cannot be created: Permission denied\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_summary_line_escapes_control_characters_in_out(tmp_path, capsys):
    fix = tmp_path / "f\n\x1b"
    assert run("fixture", "--taxonomy", STARTER_PATH, "--users-per-topic", "1",
               "--images", "2", "--out", fix) == 0
    assert capsys.readouterr() == (f"wrote fixture (24 users) into {tmp_path}/f\\n\\x1b\n", "")
    assert run("pipeline", "--taxonomy", STARTER_PATH, "--predictions", WORKED_EXAMPLE_PATH,
               "--out", tmp_path / "p\n\x1b") == 0
    assert capsys.readouterr().out == \
        f"pipeline complete: 1 users profiled into {tmp_path}/p\\n\\x1b\n"


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


@pytest.mark.parametrize("artifact", ["profiles.json", "profiles_sweep.json", "report.json"])
def test_a_directory_in_the_way_of_an_artifact_exits_2_naming_it(tmp_path, capsys, artifact):
    fix = tmp_path / "fix"
    assert run("fixture", "--taxonomy", STARTER_PATH, "--users-per-topic", 1, "--images", 3,
               "--out", fix) == 0
    out = tmp_path / "out\x1b"
    (out / artifact).mkdir(parents=True)
    capsys.readouterr()
    assert run("pipeline", "--taxonomy", STARTER_PATH, "--predictions", fix / "predictions.jsonl",
               "--labels", fix / "labels.csv", "--out", out, "--force") == 2
    assert capsys.readouterr() == (
        "", f"error: output file {tmp_path}/out\\x1b/{artifact} is a directory\n"
    )


@pytest.mark.parametrize("artifact", ["profiles.json", "image_scores_occ.csv"])
def test_force_replaces_a_symlink_in_out_and_leaves_its_target(tmp_path, artifact):
    args = ("pipeline", "--taxonomy", STARTER_PATH, "--predictions", WORKED_EXAMPLE_PATH)
    assert run(*args, "--out", tmp_path / "fresh") == 0
    victim = tmp_path / "victim"
    victim.write_text("keep")
    out = tmp_path / "out"
    out.mkdir()
    (out / artifact).symlink_to(Path("..") / "victim")
    (out / "ontology_metrics.json").symlink_to(tmp_path / "absent")  # dangling
    assert run(*args, "--out", out, "--force") == 0
    assert victim.read_text() == "keep"
    assert not (tmp_path / "absent").exists()
    for name in (artifact, "ontology_metrics.json"):
        assert not (out / name).is_symlink()
        assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


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


def test_a_later_layer_data_source_replaces_an_earlier_one(tmp_path, capsys, monkeypatch):
    """predictions and classifier_cmd are one setting: a later layer's replaces an
    earlier layer's, and one layer may not set both."""
    manifest = tmp_path / "man.csv"
    manifest.write_text(MANIFEST)
    stub = _stub(tmp_path, STUB_OK)
    config = tmp_path / "run.conf"
    config.write_text(f"predictions = {WORKED_EXAMPLE_PATH}\n")

    def profiled(out, *args):
        assert run("profile", "--taxonomy", STARTER_PATH, *args, "--out", out) == 0
        return [p["user_id"] for p in json.loads((out / "profiles.json").read_text())]

    assert profiled(tmp_path / "oc", "--config", config,
                    "--classifier-cmd", stub, "--manifest", manifest) == ["u1", "u2"]
    monkeypatch.setenv(ENV_PREFIX + "CLASSIFIER_CMD", stub)
    assert profiled(tmp_path / "op", "--predictions", WORKED_EXAMPLE_PATH) == ["u1"]
    monkeypatch.delenv(ENV_PREFIX + "CLASSIFIER_CMD")
    capsys.readouterr()

    out = tmp_path / "both"
    assert run("profile", "--taxonomy", STARTER_PATH, "--predictions", WORKED_EXAMPLE_PATH,
               "--classifier-cmd", stub, "--manifest", manifest, "--out", out) == 2
    assert capsys.readouterr() == ("", "error: --classifier-cmd: classifier_cmd cannot be "
                                   "combined with predictions (--predictions)\n")
    config.write_text(f"predictions = {WORKED_EXAMPLE_PATH}\nclassifier_cmd = {stub}\n")
    assert run("profile", "--config", config, "--taxonomy", STARTER_PATH,
               "--manifest", manifest, "--out", out) == 2
    assert capsys.readouterr() == ("", f"error: {config}:2: classifier_cmd: classifier_cmd "
                                   f"cannot be combined with predictions ({config}:1: "
                                   "predictions)\n")
    assert not out.exists()


def test_every_setting_has_a_kind_that_reads_its_default():
    # config._KINDS is derived from RunConfig's defaults; it must cover RunConfig and read
    # each default back.
    assert list(config._KINDS) == list(RunConfig._fields)
    for key, kind in config._KINDS.items():
        default = RunConfig._field_defaults[key]
        if default is None:
            assert kind == "str", key
            continue
        text = ",".join(map(str, default)) if kind == "sweep" else str(default)
        assert config._coerce(key, text, key) == default, key


def test_every_flag_is_named_for_its_setting():
    # flag_overrides names a bad value's source "--" + key with "_" as "-", so each flag
    # but --config must be that name of its RunConfig key, and each key must have one.
    subcommands = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    flags = {}
    for parser in subcommands.choices.values():
        for action in parser._actions:
            if not isinstance(action, argparse._HelpAction) and action.dest != "config":
                flags.update((flag, action.dest) for flag in action.option_strings)
    assert flags == {"--" + key.replace("_", "-"): key for key in RunConfig._fields}


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
        (data_args + ["--mechanism", "bogus"],
         "--mechanism: mechanism must be 'prob' or 'occ', got 'bogus'"),
        # Counts are packed as unsigned 32-bit ints.
        (data_args + ["--topk", "4294967296"],
         "--topk: topk must be <= 4294967295, got 4294967296"),
        (fixture_args + ["--images", "0"], "--images: images must be >= 1, got 0"),
        (fixture_args + ["--users-per-topic", "-1"],
         "--users-per-topic: users_per_topic must be >= 0, got -1"),
        (fixture_args + ["--purity", "2"], "--purity: purity must be in [0, 1], got 2.0"),
        # Typed flags are converted inside main: one line, no usage block.
        (data_args + ["--topk", "abc"], "--topk: expected an integer, got 'abc'"),
        (data_args + ["--tau", "abc"], "--tau: expected a number, got 'abc'"),
        (data_args + ["--seed", "1.5"], "--seed: expected an integer, got '1.5'"),
        (fixture_args + ["--users-per-topic", "x"],
         "--users-per-topic: expected an integer, got 'x'"),
        (fixture_args + ["--images", "x"], "--images: expected an integer, got 'x'"),
        (fixture_args + ["--purity", "x"], "--purity: expected a number, got 'x'"),
    ]:
        assert run(*args) == 2
        assert capsys.readouterr() == ("", f"error: {shown}\n")
    assert not (tmp_path / "m").exists()


def test_jobs_is_no_setting(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("jobs = 2\n")
    assert run("validate-ontology", "--config", config, "--taxonomy", STARTER_PATH) == 2
    assert capsys.readouterr() == ("", f"error: {config}:1: unknown config key 'jobs'\n")
    with pytest.raises(SystemExit) as exc:
        run("validate-ontology", "--taxonomy", STARTER_PATH, "--jobs", "2")
    assert exc.value.code == 2


def test_label_warnings_follow_the_load_warnings(tmp_path, capsys):
    predictions = tmp_path / "p.jsonl"
    predictions.write_text(WORKED_EXAMPLE_PATH.read_text() + "{broken\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("user_id,topic\nghost,Sport\nu1,Drink\n")
    assert run("pipeline", "--taxonomy", STARTER_PATH, "--predictions", predictions,
               "--labels", labels, "--skip-bad", "--out", tmp_path / "out") == 0
    assert capsys.readouterr().err == (
        f"warning: skipped {predictions}:2: malformed JSON: "
        "Expecting property name enclosed in double quotes\n"
        "warning: label for user 'ghost' matches no prediction records\n"
        "note: fewer than 2 profiles, correlation step skipped\n"
    )
    assert json.loads((tmp_path / "out" / "report.json").read_text())["n_labeled"] == 1


def test_taxonomy_warning_reaches_stderr_and_the_run_succeeds(tmp_path, capsys):
    taxonomy = tmp_path / "t.taxonomy"
    taxonomy.write_text(STARTER_PATH.read_text() + "concept Lonely parent Interest topic\n")
    assert run("profile", "--taxonomy", taxonomy, "--predictions", WORKED_EXAMPLE_PATH,
               "--out", tmp_path / "out") == 0
    assert capsys.readouterr().err == (
        "warning: topic 'Lonely' is not on the ancestry path of any instance\n"
    )


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


def test_a_data_run_builds_one_label_index_and_metrics_none(tmp_path, monkeypatch):
    built = []
    init = LabelIndex.__init__

    def counting(self, tax):
        built.append(tax)
        init(self, tax)

    monkeypatch.setattr(LabelIndex, "__init__", counting)
    assert run("pipeline", "--taxonomy", STARTER_PATH, "--predictions", WORKED_EXAMPLE_PATH,
               "--out", tmp_path / "p") == 0
    assert len(built) == 1
    assert run("metrics", "--taxonomy", STARTER_PATH, "--out", tmp_path / "m") == 0
    assert len(built) == 1


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


@pytest.mark.parametrize("case", ["bad-prob", "skip-bad", "duplicate", "labels", "labels-path",
                                  "unmappable", "concept", "instance", "config", "classifier"])
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
        labels.write_text(f'user_id,topic\n"{FORGED}",Drink\nu1,Drink\n')
        args[0] = "evaluate"
        args += ["--labels", labels]
    elif case == "labels-path":
        predictions.write_text(good)
        labels = tmp_path / f"{FORGED}.csv"
        labels.write_text("user_id,topic\nu1,Sports\n")
        args[0] = "evaluate"
        args += ["--labels", labels]
    elif case == "unmappable":
        predictions.write_text(good + line(FORGED, "i1", "no such label", 0.5))
        args[0] = "profile"
    elif case == "concept":
        taxonomy.write_text(f"root R\nconcept A{RED} parent Q\n")
        args = ["validate-ontology", "--taxonomy", taxonomy]
        shown = f"error: {taxonomy}:2: concept 'A\\x1b[31m' references unknown parent 'Q'\n"
    elif case == "instance":
        taxonomy.write_text(
            f"root R\nconcept C parent R topic\ninstance caf{RED}e concept Foo{PLAIN}\n"
        )
        args = ["validate-ontology", "--taxonomy", taxonomy]
        shown = (f"error: {taxonomy}:3: instance 'caf\\x1b[31me' "
                 "references unknown concept 'Foo\\x1b[0m'\n")
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
    expected_rc = {"bad-prob": 1, "duplicate": 1, "labels-path": 1, "concept": 1, "instance": 1,
                   "config": 2, "classifier": 2}
    assert rc == expected_rc.get(case, 0)
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "\x1b" not in err
    assert shown in err


@pytest.mark.parametrize("text, shown", [
    ("jobs = 2\n", "1: unknown config key 'jobs'"),
    ("topk = 5\nsweep\n", "2: expected key = value"),
    ("topk = 0\n", "1: topk: topk must be >= 1, got 0"),
], ids=["unknown-key", "no-equals", "out-of-range"])
def test_config_path_is_escaped_in_every_message(tmp_path, capsys, text, shown):
    config = tmp_path / f"c{RED}.conf"
    config.write_text(text)
    assert run("validate-ontology", "--config", config, "--taxonomy", STARTER_PATH) == 2
    assert capsys.readouterr() == ("", f"error: {tmp_path}/c\\x1b[31m.conf:{shown}\n")


@pytest.mark.parametrize("taxonomy_text, shown", [
    ("root R\nconcept A parent Q\n", ":2: concept 'A' references unknown parent 'Q'"),
    ("root R\nroot S\n", ":2:6: duplicate root statement (root is 'R')"),
    ("root R\nconcept A parent A\n", ": is-a cycle: A -> A"),
    ("concept A parent R\n", ": missing root statement"),
    ("root R\nroot A B\n", ":2:1: root statement takes exactly one name"),
    ("root R\ninstance x concept\n", ":2:1: expected: instance <term> concept <name>"),
    ("root R\nconcept A parent R\ninstance ___ concept A\n",
     ":3:10: instance term '___' is empty after normalization"),
    ("root R\nrelation r A\n", ":2:1: expected: relation <name> <conceptA> <conceptB>"),
    ("root R\nattribute A x\n", ":2:1: expected: attribute <concept> <attr-name> <value-type>"),
], ids=["unknown-parent", "syntax", "cycle", "no-root", "root-arity", "instance-arity",
        "empty-term", "relation-arity", "attribute-arity"])
def test_taxonomy_errors_name_the_escaped_file(tmp_path, capsys, taxonomy_text, shown):
    taxonomy = tmp_path / f"t{RED}.taxonomy"
    taxonomy.write_text(taxonomy_text)
    assert run("validate-ontology", "--taxonomy", taxonomy, "--out", tmp_path / "out") == 1
    assert capsys.readouterr() == ("", f"error: {tmp_path}/t\\x1b[31m.taxonomy{shown}\n")
    assert not (tmp_path / "out").exists()


def test_predictions_errors_name_the_escaped_file(tmp_path, capsys):
    predictions = tmp_path / f"p{RED}.jsonl"
    predictions.write_text(WORKED_EXAMPLE_PATH.read_text().splitlines()[0] + "\n{broken\n")
    assert run("score", "--taxonomy", STARTER_PATH, "--predictions", predictions,
               "--out", tmp_path / "out") == 1
    assert capsys.readouterr() == ("", f"error: {tmp_path}/p\\x1b[31m.jsonl:2: malformed JSON: "
                                       "Expecting property name enclosed in double quotes\n")


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


@pytest.mark.parametrize("command", ["echo", "dedupe"])
@pytest.mark.parametrize("skip_bad", [[], ["--skip-bad"]])
def test_duplicate_manifest_row_exits_1_naming_the_manifest(tmp_path, capsys, command, skip_bad):
    """A repeated (user, image) row is the manifest's error, not the classifier's,
    whether the classifier writes a record per row or one per pair."""
    manifest = tmp_path / "m.csv"
    manifest.write_text("user_id,image_id,image_path\nu1,img1,/a.jpg\nu1,img1,/b.jpg\n")
    stub = {"echo": _stub(tmp_path, STUB_OK),
            "dedupe": _writing_stub(tmp_path, [("u1", "img1")])}[command]
    assert run("score", "--taxonomy", STARTER_PATH, "--manifest", manifest,
               "--classifier-cmd", stub, *skip_bad, "--out", tmp_path / "out") == 1
    assert capsys.readouterr() == (
        "", f"error: {manifest}:3: duplicate row for user 'u1' image 'img1' (first on line 2)\n")
    assert not (tmp_path / "out").exists()


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
    (f'{sys.executable} -c "pass" {{input}} {{output}}',
     "classifier command wrote no output file"),
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


@pytest.mark.parametrize("stub, shown", [
    ("import sys\nsys.exit(1)\n", "classifier command exited with status 1"),
    ("import os, signal\nos.kill(os.getpid(), signal.SIGKILL)\n",
     "classifier command killed by signal 9 (SIGKILL)"),
])
def test_classifier_failure_without_stderr_names_status_or_signal(tmp_path, capsys, stub, shown):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST)
    assert run("score", "--taxonomy", STARTER_PATH, "--manifest", manifest,
               "--classifier-cmd", _stub(tmp_path, stub), "--out", tmp_path / "out") == 2
    assert capsys.readouterr() == ("", f"error: {shown}\n")


def test_bad_labels_fail_before_the_classifier_runs(tmp_path, capsys):
    marker = tmp_path / "classifier-ran"
    stub = _stub(tmp_path, f"open({str(marker)!r}, 'w').close()\n" + STUB_OK)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST)
    labels = tmp_path / "labels.csv"
    labels.write_text("user_id,topic\nu1,Drink\nu2,Sports\n")
    args = ["pipeline", "--taxonomy", STARTER_PATH, "--manifest", manifest,
            "--classifier-cmd", stub, "--labels", labels, "--out", tmp_path / "out"]
    assert run(*args) == 1
    assert capsys.readouterr() == ("", f"error: {labels}:3: unknown topic 'Sports'\n")
    assert not marker.exists()
    assert not (tmp_path / "out").exists()
    # With the row mended the same command runs the classifier.
    labels.write_text("user_id,topic\nu1,Drink\nu2,Sport\n")
    assert run(*args) == 0
    assert marker.exists()


def test_only_evaluate_and_pipeline_read_the_labels(tmp_path, capsys, small_fixture):
    predictions, _ = small_fixture
    capsys.readouterr()
    labels = tmp_path / "labels.csv"
    labels.write_text("user_id,topic\nu1,Sports\n")
    data = ["--taxonomy", STARTER_PATH, "--predictions", predictions]
    for command in ("score", "profile", "correlate"):
        plain, labeled = tmp_path / f"{command}-plain", tmp_path / f"{command}-labeled"
        assert run(command, *data, "--out", plain) == 0
        without = capsys.readouterr()
        assert run(command, *data, "--labels", labels, "--out", labeled) == 0
        out, err = capsys.readouterr()
        assert (out.replace(str(labeled), str(plain)), err) == without
        assert "warning: label" not in err
        assert _artifacts(labeled) == _artifacts(plain)
    # The labels are read before the predictions, so a missing predictions
    # file is not reached.
    missing = ["--taxonomy", STARTER_PATH, "--predictions", tmp_path / "missing.jsonl"]
    for command in ("evaluate", "pipeline"):
        assert run(command, *missing, "--labels", labels, "--out", tmp_path / command) == 1
        assert capsys.readouterr() == ("", f"error: {labels}:2: unknown topic 'Sports'\n")
        assert not (tmp_path / command).exists()


def test_skip_bad_applies_to_classifier_output(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("user_id,image_id,image_path\nu1,i1,/img/a.jpg\nu1,i2,/img/b.jpg\n")
    good = json.dumps({"user_id": "u1", "image_id": "i1",
                       "predictions": [{"label": "espresso", "prob": 0.5}]}) + "\n"
    written = good + "{broken\n"
    stub = _stub(tmp_path, f"import sys\nopen(sys.argv[2], 'w').write({written!r})\n")
    args = ["score", "--taxonomy", STARTER_PATH, "--manifest", manifest, "--classifier-cmd", stub]
    malformed = ("classifier output:2: malformed JSON: "
                 "Expecting property name enclosed in double quotes")
    assert run(*args, "--out", tmp_path / "strict") == 1
    assert capsys.readouterr() == ("", f"error: {malformed}\n")
    assert not (tmp_path / "strict").exists()

    assert run(*args, "--skip-bad", "--out", tmp_path / "classified") == 0
    out, err = capsys.readouterr()
    assert err == (f"warning: skipped {malformed}\n"
                   f"warning: {manifest}:3: no classifier output for user 'u1' image 'i2'\n")
    predictions = tmp_path / "p.jsonl"
    predictions.write_text(good)
    assert run("score", "--taxonomy", STARTER_PATH, "--predictions", predictions,
               "--out", tmp_path / "read") == 0
    assert _artifacts(tmp_path / "classified") == _artifacts(tmp_path / "read")


def test_sigint_during_a_classifier_run_exits_130_and_kills_the_command(tmp_path):
    pid_file = tmp_path / "classifier.pid"
    stub = _stub(tmp_path, "import os, time\n"
                           f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
                           "time.sleep(30)\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST)
    env = dict(os.environ, PYTHONPATH=str(Path(interestprof.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "interestprof.cli", "score", "--taxonomy", STARTER_PATH,
         "--manifest", manifest, "--classifier-cmd", stub, "--out", tmp_path / "out"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    deadline = time.monotonic() + 30
    while not (pid_file.exists() and pid_file.read_text()) and time.monotonic() < deadline:
        time.sleep(0.05)
    pid = int(pid_file.read_text())
    time.sleep(0.2)  # the CLI waits on the command by now
    proc.send_signal(signal.SIGINT)
    try:
        out, err = proc.communicate(timeout=30)
    finally:
        survived = not _gone_or_zombie(pid)
        if survived:  # do not leave it running past the test
            os.kill(pid, signal.SIGKILL)
    assert (proc.returncode, out, err) == (130, "", "error: interrupted\n")
    assert not survived


def test_pipeline_builds_no_prediction_record(tmp_path, monkeypatch, capsys):
    built = []
    new = ingest.PredictionRecord.__new__  # a NamedTuple is built in __new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(ingest.PredictionRecord, "__new__", counting)
    assert run("pipeline", "--taxonomy", STARTER_PATH, "--predictions", WORKED_EXAMPLE_PATH,
               "--out", tmp_path / "out") == 0
    assert built == []
    # The patch does see the records that the fixture generator builds.
    assert run("fixture", "--taxonomy", STARTER_PATH, "--out", tmp_path / "fix",
               "--users-per-topic", 1, "--images", 1) == 0
    assert len(built) == 24


def test_fixture_labels_quote_ids_with_commas_and_quotes(tmp_path, monkeypatch):
    labels = {"a,b": "Drink", 'say "hi"': "Food", "plain": "Sport"}
    dataset = ProfileDataset(
        records={u: [make_record(u, "i1", [("espresso", 0.5)])] for u in labels},
        labels=labels,
    )
    monkeypatch.setattr(fixtures, "generate_fixture", lambda *args: dataset)
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


def _modules_loaded_by(*args):
    """The modules a subprocess running ``main(args)`` imports after start-up."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from interestprof.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(*sorted(set(sys.modules) - before))\n"
        "raise SystemExit(rc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(interestprof.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _package_modules(modules):
    return {m for m in modules if m.split(".")[0] == "interestprof"}


def test_each_subcommand_imports_only_the_modules_of_its_steps(tmp_path):
    assert _package_modules(_modules_loaded_by("validate-ontology", "--taxonomy", STARTER_PATH)) \
        == {"interestprof", "interestprof.cli", "interestprof.config", "interestprof.errors",
            "interestprof.taxonomy"}

    metrics = _modules_loaded_by("metrics", "--taxonomy", STARTER_PATH, "--out", tmp_path / "m")
    data_modules = {f"interestprof.{m}" for m in
                    ("ingest", "scoring", "profiling", "correlation", "evaluation", "fixtures")}
    assert "interestprof.ontometrics" in metrics and not metrics & data_modules

    fix = tmp_path / "fix"
    assert run("fixture", "--taxonomy", STARTER_PATH, "--out", fix,
               "--users-per-topic", 1, "--images", 3) == 0
    pipeline = _modules_loaded_by(
        "pipeline", "--taxonomy", STARTER_PATH, "--predictions", fix / "predictions.jsonl",
        "--labels", fix / "labels.csv", "--out", tmp_path / "p",
    )
    assert {"interestprof.correlation", "interestprof.evaluation"} <= pipeline
    assert "subprocess" not in pipeline and "interestprof.fixtures" not in pipeline


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


@pytest.mark.parametrize("bad_file, bad, shown", [
    ("predictions", [1], "prediction entries must be objects"),
    ("predictions", [{"prob": 0.5}], "prediction missing a 'label' string"),
    ("predictions", [{"label": 7, "prob": 0.5}], "prediction missing a 'label' string"),
    ("predictions", [{"label": "cup", "prob": "0.5"}], "prob for 'cup' is not a number"),
    ("predictions", [{"label": "cup", "prob": True}], "prob for 'cup' is not a number"),
    ("labels", "u,Drink,x", "expected 2 columns, got 3"),
    ("labels", " ,Drink", "empty user_id"),
], ids=["entry-not-an-object", "no-label", "label-not-a-string", "prob-string", "prob-bool",
        "three-columns", "empty-user-id"])
def test_bad_entry_exits_1_naming_its_line(tmp_path, capsys, bad_file, bad, shown):
    predictions = f"{GOOD_LINE}\n"
    labels = "user_id,topic\nu1,Drink\n"
    if bad_file == "predictions":
        predictions += json.dumps({"user_id": "u1", "image_id": "i2", "predictions": bad}) + "\n"
    else:
        labels += bad + "\n"
    err = _pipeline_rejects(tmp_path, capsys, predictions.encode(), labels.encode())
    where = {"predictions": f"{tmp_path / 'predictions.jsonl'}:2",
             "labels": f"{tmp_path / 'labels.csv'}:3"}[bad_file]
    assert err == f"error: {where}: {shown}\n"


def test_prob_integer_beyond_digit_limit_exits_1(tmp_path, capsys):
    huge = GOOD_LINE.replace("0.5", "1" * 5000)
    err = _pipeline_rejects(tmp_path, capsys, f"{GOOD_LINE}\n{huge}\n".encode())
    assert f"error: {tmp_path / 'predictions.jsonl'}:2: malformed JSON: " in err


def test_deeply_nested_line_exits_1(tmp_path, capsys):
    err = _pipeline_rejects(tmp_path, capsys, b"[" * 100_000 + b"\n")
    assert f"error: {tmp_path / 'predictions.jsonl'}:1: malformed JSON: nested too deeply" in err


def test_lone_surrogate_user_id_exits_1_before_any_output(tmp_path, capsys):
    line = GOOD_LINE.replace('"u1"', '"\\ud800"')
    err = _pipeline_rejects(tmp_path, capsys, f"{GOOD_LINE}\n{line}\n".encode())
    assert f"error: {tmp_path / 'predictions.jsonl'}:2: 'user_id' is not valid UTF-8 text" in err


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
    where = {"predictions": f"{tmp_path / 'predictions.jsonl'}:2",
             "labels": f"{tmp_path / 'labels.csv'}:3",
             "taxonomy": f"{tmp_path / 't.taxonomy'}:2"}[bad_file]
    assert f"error: {where}: " in err
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
    ("correlate", "worked", None, 1,
     "error: correlation needs at least 2 profiled users, got 1\n", {}),
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
