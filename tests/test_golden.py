"""Golden digests: every ``pipeline`` artifact, byte for byte, on a fixed input.

The input is a seeded fixture plus hand-written users that exercise the edges
of scoring: labels the taxonomy does not know, records shorter than top-k,
case and underscore variants of known terms, per-image occurrence ties and a
user-level tie, and a user with no mappable label at all. The digests were
computed once and are pinned here, so any change to the bytes of any artifact
under either mechanism fails this test, whether the lines are read from
``--predictions`` or written by a ``--classifier-cmd``, and whichever CPython
3.10 or later runs the pipeline.
"""

import csv
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import interestprof
from conftest import STARTER_PATH
from interestprof.cli import main
from interestprof.config import ENV_PREFIX

HAND_USERS = {
    "edge_short": [
        [("espresso", 0.5), ("dough", 0.2)],
        [("Coffee_Mug", 0.4), ("zzz_unknown", 0.3), ("cup", 0.1)],
        [("ESPRESSO", 0.6)],
        [("pizza", 0.3), ("not a label", 0.25), ("banana", 0.2), ("mystery_object", 0.1)],
    ],
    "edge_tie": [
        [("espresso", 0.3), ("cup", 0.2), ("dough", 0.2), ("pizza", 0.1), ("zzz_unknown", 0.1)],
        [("sandal", 0.4), ("alp", 0.3)],
        [("alp", 0.3), ("castle", 0.3), ("sandal", 0.2), ("kimono", 0.1), ("palace", 0.05)],
        [("volcano", 0.5), ("kimono", 0.1), ("gown", 0.1)],
        [("tent", 0.2), ("Soccer Ball", 0.2), ("racket", 0.2), ("laptop", 0.2), ("mouse", 0.2)],
        [("sandal", 0.9)],
    ],
    "edge_ghost": [
        [("zzz_unknown", 0.9), ("mystery_object", 0.05)],
        [("not_a_label", 0.7)],
    ],
}
HAND_LABELS = {"edge_short": "Drink", "edge_tie": "Fashion"}

GOLDEN = {
    "occ": {
        "accuracy_by_topic.csv": "4727ff9543d140f4bb059d048c5a7e92c0c32aa691db22805a47effe86d3775e",
        "accuracy_sweep.svg": "20e400afcb90779c653ef901f72fb9728e8641e2e7f4d3ca4302551b6d9ae485",
        "cmc.csv": "4ba5a87b936add188b2651bc838844ca1e87a8e4a26a5f39f0e01adc8889ea3a",
        "cmc.svg": "cef7a4ef056e85f59c3d78f1584951c63268497d28104f984aa3785b790a883f",
        "co_interest.csv": "a0d81d1477d871c55a60522d3f83bc62bf0728029cab8e5bcdbc9d7d499306b9",
        "confusion.csv": "fd41130677caa569d150272c5914e4ad12211405b0d5721ae21f37f31b0d7508",
        "image_scores_occ.csv": "dbc18d300a57b9ebc869061bd699d2d8d25057aa3e90a167ea220febc37c1633",
        "image_scores_prob.csv": "624f212531b4e3ab7242051b27e35b16e716bfde2e497bfd324c0007932ba3ee",
        "ontology_metrics.json": "cf2d4a7cb554f6bcda04b31e819e1b21505038893e8e440c1ebc698f23b2da4d",
        "ontology_metrics.txt": "7e54fbc490810c90f6ea7fdc728ec881ce1b4a8206354bda28989459f4c16201",
        "pearson.csv": "39745fb182233f0f168dc2664d8318ac6c42903a658270fc69ae71cfb423c96d",
        "pearson_bands.csv": "b260c110dd06fa0ccdf2834777acd02f1e5891f3898574a088559c7e41111aec",
        "pearson_heatmap.svg": "f588f89a60f92ac8bb81a0f36d5b32e02030aa6f1dadc2b4ec665edace144a99",
        "precision_recall.csv": "20aecd42c9c53c0438cf133f0ba04797af540213ba50286f4e643184010c00e0",
        "profiles.json": "47af8d1e56683677ea54e4efd4a06a76427e604e8f019a35bef1052422e2a7ac",
        "profiles_sweep.json": "372724598ae93447fb8d43328b390d9bb466b9f65cc9d484a22373b77eb9f386",
        "report.json": "754d82a7c8cc14d3ed4a979a7408797ddd1dafd043a8cfc22aef4eae0b712939",
        "roc_points.csv": "5d5e98ec816886a21efe93aefb47598c1e341f7e2ae42895bedfdd9f01d76f70",
    },
    "prob": {
        "accuracy_by_topic.csv": "0fbe7e83d707814e5c7024968c99b0659322d6a27abdb63c3f72ae161a5c56b0",
        "accuracy_sweep.svg": "20e400afcb90779c653ef901f72fb9728e8641e2e7f4d3ca4302551b6d9ae485",
        "cmc.csv": "4ba5a87b936add188b2651bc838844ca1e87a8e4a26a5f39f0e01adc8889ea3a",
        "cmc.svg": "cef7a4ef056e85f59c3d78f1584951c63268497d28104f984aa3785b790a883f",
        "co_interest.csv": "0a89c6e01c4bce3239847c46a0ca272b027d76642cfc1b1c824ab04be702cce9",
        "confusion.csv": "fd41130677caa569d150272c5914e4ad12211405b0d5721ae21f37f31b0d7508",
        "image_scores_occ.csv": "dbc18d300a57b9ebc869061bd699d2d8d25057aa3e90a167ea220febc37c1633",
        "image_scores_prob.csv": "624f212531b4e3ab7242051b27e35b16e716bfde2e497bfd324c0007932ba3ee",
        "ontology_metrics.json": "cf2d4a7cb554f6bcda04b31e819e1b21505038893e8e440c1ebc698f23b2da4d",
        "ontology_metrics.txt": "7e54fbc490810c90f6ea7fdc728ec881ce1b4a8206354bda28989459f4c16201",
        "pearson.csv": "550b9e4d2d546e56b96e59fd800a65921ca497ee179a7e6c19b2dcf7fc2f2eb1",
        "pearson_bands.csv": "ae95b0d877bd971dec8b83d704025dbf0bccadbcabbee8cb2aa71e17f1e8f3ae",
        "pearson_heatmap.svg": "abc8466d196978e9ee73e89fe1015feec73009cb476e14b436625e57533f50a0",
        "precision_recall.csv": "20aecd42c9c53c0438cf133f0ba04797af540213ba50286f4e643184010c00e0",
        "profiles.json": "fdc7828159cc01476fcba609779761802a46f47f39dc5b73cb78e7244c534917",
        "profiles_sweep.json": "c17fb051bcb41d3aef63f6583a78e38fb4a8e6a9473824bda0b299987a1626c6",
        "report.json": "d55198bd91b6cffa703bda1f55db04d6cfdaf6bf527aeee1bce6d3587eec1f12",
        "roc_points.csv": "af3b6b92384bfff7d84f842022bffa5a94764b0277ce7f3ed59b3b887465b347",
    },
}


def _write_inputs(tmp_path):
    fix = tmp_path / "fix"
    assert main([
        "fixture", "--taxonomy", str(STARTER_PATH), "--out", str(fix),
        "--users-per-topic", "1", "--images", "7", "--purity", "0.6", "--seed", "11",
    ]) == 0
    lines = [(fix / "predictions.jsonl").read_text()]
    for user, images in HAND_USERS.items():
        for n, preds in enumerate(images):
            lines.append(json.dumps({
                "user_id": user, "image_id": f"{user}_{n}",
                "predictions": [{"label": label, "prob": p} for label, p in preds],
            }) + "\n")
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text("".join(lines))
    labels = tmp_path / "labels.csv"
    labels.write_text(
        (fix / "labels.csv").read_text()
        + "".join(f"{u},{t}\n" for u, t in HAND_LABELS.items())
    )
    return predictions, labels


def _pipeline_args(out, labels, mechanism, *inputs):
    return ["pipeline", "--taxonomy", str(STARTER_PATH), *map(str, inputs),
            "--labels", str(labels), "--out", str(out), "--sweep", "2,5,20",
            "--mechanism", mechanism]


def _digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _pipeline_digests(out, labels, mechanism, *inputs):
    assert main(_pipeline_args(out, labels, mechanism, *inputs)) == 0
    return _digests(out)


@pytest.mark.parametrize("mechanism", ["occ", "prob"])
def test_pipeline_artifacts_match_golden_digests(tmp_path, mechanism):
    predictions, labels = _write_inputs(tmp_path)
    digests = _pipeline_digests(tmp_path / "out", labels, mechanism, "--predictions", predictions)
    assert digests == GOLDEN[mechanism]


@pytest.mark.parametrize("mechanism", ["occ", "prob"])
def test_classifier_artifacts_match_golden_digests(tmp_path, mechanism):
    """A classifier that writes the same lines for a manifest of their (user,
    image) pairs gives the same artifacts."""
    predictions, labels = _write_inputs(tmp_path)
    manifest = tmp_path / "manifest.csv"
    with open(manifest, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("user_id", "image_id", "image_path"))
        for line in predictions.read_text().splitlines():
            ids = json.loads(line)
            writer.writerow((ids["user_id"], ids["image_id"], f"/img/{ids['image_id']}.jpg"))
    stub = tmp_path / "classify.py"
    stub.write_text(f"import shutil, sys\nshutil.copyfile({str(predictions)!r}, sys.argv[2])\n")
    command = f"{shlex.quote(sys.executable)} {shlex.quote(str(stub))} {{input}} {{output}}"
    digests = _pipeline_digests(tmp_path / "out", labels, mechanism,
                                "--manifest", manifest, "--classifier-cmd", command)
    assert digests == GOLDEN[mechanism]


def _other_interpreters():
    """Every CPython 3.10 or later installed by pyenv or miniconda in the home
    directory, other than the one running the tests."""
    running = Path(sys.executable).resolve()
    found = {}
    home = Path.home()
    for path in [*home.glob(".pyenv/versions/3.1*/bin/python3"),
                 *home.glob("miniconda*/bin/python3")]:
        real = path.resolve()
        if real == running or real in found:
            continue
        probe = subprocess.run(
            [str(path), "-c", "import sys; print(sys.implementation.name == 'cpython'"
             " and sys.version_info >= (3, 10), sys.version.split()[0])"],
            capture_output=True, text=True, timeout=60,
        )
        if probe.returncode == 0 and probe.stdout.split()[0] == "True":
            found[real] = probe.stdout.split()[1]
    return sorted(found.items(), key=lambda item: str(item[0]))


@pytest.mark.parametrize("mechanism", ["occ", "prob"])
def test_other_interpreters_match_golden_digests(tmp_path, mechanism):
    """The pipeline run as a command under each other CPython writes the
    golden bytes for inputs this interpreter wrote."""
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython 3.10 or later found")
    predictions, labels = _write_inputs(tmp_path)
    env = {k: v for k, v in os.environ.items() if not k.startswith(ENV_PREFIX)}
    env["PYTHONPATH"] = str(Path(interestprof.__file__).resolve().parents[1])
    mismatched = {}
    for n, (python, version) in enumerate(interpreters):
        out = tmp_path / f"out{n}"
        proc = subprocess.run(
            [str(python), "-m", "interestprof.cli",
             *_pipeline_args(out, labels, mechanism, "--predictions", predictions)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, f"{python} ({version}): {proc.stderr}"
        digests = _digests(out)
        if digests != GOLDEN[mechanism]:
            mismatched[version] = sorted(
                name for name in GOLDEN[mechanism].keys() | digests.keys()
                if digests.get(name) != GOLDEN[mechanism].get(name)
            )
    assert mismatched == {}
