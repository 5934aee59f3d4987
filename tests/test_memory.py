"""Peak memory of a pipeline run, relative to the size of its predictions file.

The run holds each image's score cells, not its parsed record, frees each
user's cells once the user is written and profiled, and streams the profile
files, so Python's traced peak stays within a small multiple of the input.
Holding every record, or building ``profiles_sweep.json`` as one string,
puts the peak near 3x the file on the tall fixture and near 9x on the wide one.
A loaded image's cells are one packed bytes record, a block's rows are flat
tuples and a profile's zero topics share one float. Measured after a first
run, so that no module is imported while the peak is traced, and after a full
collection, which empties the interpreter's free lists (the first run leaves
thousands of tuples there, which the traced run would take back unseen), that
puts the peak near 0.62x the file on the tall fixture and 1.37x on the wide
one. Flat tuples with a float object per cell put it near 0.93x and 1.69x.
The cold cases run in a fresh interpreter, whose first pipeline run imports
the modules of the later steps while the peak is traced.
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


@pytest.mark.parametrize("users_per_topic, images, bound", [
    (2, 100, 2.0),  # 48 users x 100 images, 1.6 MB: cells and imports at about 0.75x
    (20, 10, 3.5),  # 480 users x 10 images, 1.6 MB: the profile files at about 1.38x
])
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
@pytest.mark.parametrize("users_per_topic, images, bound", [
    (2, 100, 0.85),  # about 0.62x
    (20, 10, 1.6),  # about 1.37x; flat tuples with their floats, 1.69x
    (2, 100, 0.72),  # a packed record per image; flat tuples with their floats, 0.93x
])
def test_warm_pipeline_traced_peak_is_the_data_s_own(tmp_path, users_per_topic, images, bound):
    assert traced_peak_ratio(tmp_path, users_per_topic, images, warm=True) < bound
