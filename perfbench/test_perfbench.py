"""Self-tests of the benchmark: seeded generation, the output check, the trace.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import sys

import pytest

import run
import verify
from workloads import WORKLOADS, Workload, generate

run.load_program()


def small(name: str, **sizes) -> Workload:
    return dataclasses.replace(WORKLOADS[name], **(sizes or {"users_per_topic": 1, "images": 12}))


def read_all(paths: dict) -> dict:
    return {key: path.read_bytes() for key, path in paths.items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_seeded(tmp_path, name):
    workload = small(name)
    first = read_all(generate(workload, 3, tmp_path / "a"))
    again = read_all(generate(workload, 3, tmp_path / "b"))
    other = read_all(generate(workload, 4, tmp_path / "c"))
    assert first == again
    assert first["predictions"] != other["predictions"]
    assert ("labels" in first) == workload.labels


def test_oov_substitution(tmp_path):
    workload = small("oov-96x500-top10", users_per_topic=2, images=50)
    inputs = generate(workload, 5, tmp_path)
    ref = verify.Reference(inputs, workload.topk, workload.mechanism, seed=5)
    labels = [topic for imgs in ref.images.values() for img in imgs for topic, _ in img]
    assert len(labels) == workload.n_images * workload.topk
    unmapped = sum(topic is None for topic in labels) / len(labels)
    # 2 of 48 users fully out of vocabulary, the rest at 40%.
    assert unmapped == pytest.approx((2 + 46 * 0.4) / 48, abs=0.02)
    assert len(ref.profiled) == workload.n_users - 2


@pytest.fixture(scope="module")
def good_run(tmp_path_factory):
    """A labeled workload's inputs and one untouched pipeline output directory."""
    root = tmp_path_factory.mktemp("run")
    workload = small("paper-480x100")
    inputs = generate(workload, 9, root / "inputs")
    out = root / "out"
    argv = [sys.executable, "-m", "interestprof.cli", "pipeline",
            "--taxonomy", str(inputs["taxonomy"]), "--predictions", str(inputs["predictions"]),
            "--labels", str(inputs["labels"]), "--out", str(out), "--sweep", "3,6,12",
            *workload.pipeline_flags()]
    _, _, rc = run.run_child(argv, root / "log")
    assert rc == 0, (root / "log").read_text()
    return verify.Reference(inputs, workload.topk, workload.mechanism, seed=9), out


def corrupted_copy(out, dest, edit):
    shutil.copytree(out, dest)
    edit(dest)
    return dest


def flip_byte(dest):
    path = dest / "profiles.json"
    data = bytearray(path.read_bytes())
    at = random.Random(1).randrange(len(data))
    data[at] ^= 0x01
    path.write_bytes(bytes(data))


def drop_row(dest):
    path = dest / "image_scores_prob.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    del lines[len(lines) // 2]
    path.write_text("".join(lines), encoding="utf-8")


def test_checker_accepts_a_good_run(good_run):
    reference, out = good_run
    assert verify.Checker(reference)(out) == []


@pytest.mark.parametrize("edit", [flip_byte, drop_row])
def test_checker_fails_a_corrupted_run(good_run, tmp_path, edit):
    reference, out = good_run
    bad = corrupted_copy(out, tmp_path / "bad", edit)
    after_good = verify.Checker(reference)
    assert after_good(out) == []
    assert after_good(bad) != []  # a later run: digests differ from the first run


def test_full_check_catches_a_dropped_row(good_run, tmp_path):
    reference, out = good_run
    bad = corrupted_copy(out, tmp_path / "bad", drop_row)
    assert any("rows" in p for p in verify.Checker(reference)(bad))


def test_full_check_catches_a_changed_vector(good_run, tmp_path):
    reference, out = good_run
    user = reference.sample[0]

    def edit(dest):
        path = dest / "profiles.json"
        text = path.read_text(encoding="utf-8")
        head, tail = text.split(f'"user_id": "{user}"', 1)
        tail = tail.replace('"unmapped": ', '"unmapped": 1', 1)
        path.write_text(head + f'"user_id": "{user}"' + tail, encoding="utf-8")

    bad = corrupted_copy(out, tmp_path / "bad", edit)
    assert verify.Checker(reference)(bad) != []


def test_traced_self_times_sum_to_traced_wall(tmp_path):
    workload = small("paper-480x100", users_per_topic=2, images=50)
    metrics, details = run.run_benchmark(workload, 2, 0.1, True, tmp_path)
    assert details["failed"] == 0, details["failures"]
    self_total = sum(details["summary"]["modules_self_s"].values())
    assert metrics["trace.overhead_s"] > 0
    assert abs(self_total - metrics["trace.wall_s"]) <= metrics["trace.overhead_s"]
    assert metrics["ingest.records"] == workload.n_images
    assert details["summary"]["n_spans"] > 0


def test_peak_rss_excludes_the_benchmark_process(tmp_path):
    ballast = bytearray(150 * 1024 * 1024)
    ballast[::4096] = b"\x01" * len(ballast[::4096])  # touch every page
    _, rss_mb, rc = run.run_child([sys.executable, "-c", "pass"], tmp_path / "log")
    assert rc == 0
    assert rss_mb < 100, rss_mb
