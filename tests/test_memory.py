"""Peak memory of a pipeline run, relative to the size of its predictions file.

The run holds each image's score cells, not its parsed record, frees each
user's cells once the user is written and profiled, and streams the profile
files, so Python's traced peak stays within a small multiple of the input.
Holding every record, or building ``profiles_sweep.json`` as one string,
puts the peak near 3x the file on the tall fixture and near 9x on the wide one.
"""

import contextlib
import io
import tracemalloc

import pytest

from conftest import STARTER_PATH
from interestprof.cli import main


def quiet_main(args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in args])


@pytest.mark.parametrize("users_per_topic, images, bound", [
    (2, 100, 2.0),  # 48 users x 100 images, 1.6 MB: cells at about 1.4x
    (20, 10, 3.5),  # 480 users x 10 images, 1.6 MB: the profile files at about 2.2x
])
def test_pipeline_traced_peak_stays_near_the_input_size(tmp_path, users_per_topic, images,
                                                        bound):
    fix = tmp_path / "fix"
    assert quiet_main(["fixture", "--taxonomy", STARTER_PATH, "--out", fix, "--seed", 3,
                       "--users-per-topic", users_per_topic, "--images", images,
                       "--purity", 0.6]) == 0
    predictions = fix / "predictions.jsonl"
    tracemalloc.start()
    try:
        rc = quiet_main(["pipeline", "--taxonomy", STARTER_PATH, "--predictions", predictions,
                         "--labels", fix / "labels.csv", "--out", tmp_path / "out"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < bound * predictions.stat().st_size
