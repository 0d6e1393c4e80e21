"""Kernel micro-benchmark for replaying a recorded run.

``test_load_recorded_matcher`` times ``load_recorded_matcher`` on inputs the
size of a 60 s corridor run, which ``localize`` loads once before its first
frame: a frame index of 600 rows and one correspondence file holding 414,899
pixel pairs (691 or 692 per frame, 13.3 MB).

Run with

    PYTHONPATH=src python -m pytest benchmarks/bench_scenario.py

The ``bench_`` prefix and ``testpaths = ["tests"]`` keep the file out of the
default test run.
"""

from types import SimpleNamespace

import numpy as np

from topoloc.io import CORRESPONDENCE_FILE, write_correspondences
from topoloc.scenario import load_recorded_matcher

FRAMES = 600
PAIRS = 414_899


def test_load_recorded_matcher(benchmark, tmp_path):
    rng = np.random.default_rng(600)
    counts = np.diff(np.linspace(0, PAIRS, FRAMES + 1).astype(int))
    pixels = [(rng.uniform(0, 640, (n, 2)), rng.uniform(0, 640, (n, 2))) for n in counts]
    (tmp_path / "frames").mkdir()
    (tmp_path / "correspondences").mkdir()
    write_correspondences(tmp_path / "correspondences" / CORRESPONDENCE_FILE, pixels)
    rows = [f"{k},{0.1 * k:.9f},{k // 7}\n" for k in range(FRAMES)]
    index = tmp_path / "frames" / "index.csv"
    index.write_text("frame,timestamp,node_id\n" + "".join(rows))
    matcher, frames = benchmark(load_recorded_matcher, tmp_path / "correspondences", index)
    assert len(frames) == FRAMES
    k = FRAMES // 2
    matches = matcher.match(frames[k], SimpleNamespace(node_id=k // 7))
    assert matches.cur.tobytes() == pixels[k][0].tobytes()
    assert matches.node.tobytes() == pixels[k][1].tobytes()
