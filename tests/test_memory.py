"""Peak memory of a pipeline run, relative to the size of its predictions file.

Two fixtures, each a 1.6 MB predictions file: the tall one has 2 users per
topic with 100 images each (48 users), the wide one 20 users per topic with 10
images each (480 users). Each is run cold, in a fresh interpreter whose run
imports the modules of the later steps while the peak is traced, and warm,
after a first run and after a full collection, which empties the interpreter's
free lists (the first run leaves thousands of tuples there, which the traced
run would take back unseen), so that the peak is the data's own. Each of the
four is tested once, at its tightest bound: cold 1.0x and 1.25x, warm 0.6x
and 1.0x of the file.

The run holds each image's score cells, not its parsed record, frees each
user's cells once the user is written and profiled, and streams the profile
files, so Python's traced peak stays within a small multiple of the input.
Holding every record, or building ``profiles_sweep.json`` as one string,
puts the peak near 3x the file on the tall fixture and near 9x on the wide one.
A loaded user's cells are one buffer of packed records, a block's rows are
tuples of (position, prob, count) cells, each profile vector is one packed
record of 25 doubles, the ROC series are computed one at a time as they are
written, the sweep file reads each repeated full profile back from
profiles.json, and evaluation tallies each sweep point without a list of its
rows. Warm, that puts the peak near 0.54x the file on the tall fixture and
0.76x on the wide one; cold, near 0.63x and 0.98x.

Earlier designs, warm: with a memo of each vector's argmax and each sweep
point's rows kept, near 0.54x and 0.93x; with a bytes record per image and a
kept sweep text per listed profile, near 0.63x and 1.11x; with each vector a
tuple of float objects and all 24 ROC series held at once, near 0.63x and
1.36x; with every image's cells as tuples with a float object per cell, near
0.93x and 1.69x. Cold, the first bounds were 2.0x and 3.5x, with cells and
imports near 0.75x on the tall fixture and the profile files near 1.38x on the
wide one; float-object vectors put the wide one near 1.37x.

A line skipped under ``--skip-bad`` is printed as the load meets it and not
kept. Keeping each message until the load ended put the warm peak of a
``profile --skip-bad`` run on the tall fixture, with a bad line after every
good one, near 2.0x the clean file's; printing them as they come puts it
within 1% of it.
"""

import contextlib
import gc
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import interestprof
from conftest import STARTER_PATH
from interestprof.cli import main


def quiet_main(args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in args])


def traced_peak_ratio(tmp_path, users_per_topic, images, warm):
    """Traced peak of a pipeline run over the size of its predictions file."""
    fix = tmp_path / "fix"
    assert quiet_main(["fixture", "--taxonomy", STARTER_PATH, "--out", fix, "--seed", 3,
                       "--users-per-topic", users_per_topic, "--images", images,
                       "--purity", 0.6]) == 0
    predictions = fix / "predictions.jsonl"
    args = ["pipeline", "--taxonomy", STARTER_PATH, "--predictions", predictions,
            "--labels", fix / "labels.csv"]
    if warm:
        assert quiet_main([*args, "--out", tmp_path / "warm"]) == 0
        gc.collect()
    tracemalloc.start()
    try:
        rc = quiet_main([*args, "--out", tmp_path / "out"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    return peak / predictions.stat().st_size


@pytest.mark.parametrize("users_per_topic, images, bound", [(2, 100, 1.0), (20, 10, 1.25)])
def test_pipeline_traced_peak_stays_near_the_input_size(tmp_path, users_per_topic, images,
                                                        bound):
    code = ("import sys\nfrom pathlib import Path\nfrom test_memory import traced_peak_ratio\n"
            "print(traced_peak_ratio(Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3]),"
            " warm=False))\n")
    paths = (Path(__file__).resolve().parent, Path(interestprof.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path), str(users_per_topic),
                           str(images)], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < bound


# After a first run has imported every module, the peak is the data's own.
@pytest.mark.parametrize("users_per_topic, images, bound", [(2, 100, 0.6), (20, 10, 1.0)])
def test_warm_pipeline_traced_peak_is_the_data_s_own(tmp_path, users_per_topic, images, bound):
    assert traced_peak_ratio(tmp_path, users_per_topic, images, warm=True) < bound


def test_skipped_lines_are_not_kept(tmp_path):
    fix = tmp_path / "fix"
    assert quiet_main(["fixture", "--taxonomy", STARTER_PATH, "--out", fix, "--seed", 3,
                       "--users-per-topic", 2, "--images", 100, "--purity", 0.6]) == 0
    clean = fix / "predictions.jsonl"
    bad = tmp_path / "bad.jsonl"
    with open(clean, encoding="utf-8") as src, open(bad, "w", encoding="utf-8") as dst:
        for line in src:
            dst.write(line + '{"user_id": "x"}\n')
    peaks = {}
    # A StringIO would keep the warnings itself, so they go to the null device.
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), \
            contextlib.redirect_stderr(null):
        for predictions in (clean, bad):
            args = ["profile", "--taxonomy", STARTER_PATH, "--predictions", predictions,
                    "--skip-bad", "--out"]
            assert main([str(a) for a in (*args, tmp_path / f"warm-{predictions.stem}")]) == 0
            gc.collect()
            tracemalloc.start()
            try:
                rc = main([str(a) for a in (*args, tmp_path / predictions.stem)])
                peaks[predictions] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc == 0
    assert peaks[bad] < 1.1 * peaks[clean]
