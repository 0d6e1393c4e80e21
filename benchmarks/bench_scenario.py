"""Kernel micro-benchmarks for replaying a recorded run.

Both run on inputs the size of a 60 s corridor run: a frame index of 600 rows
and one correspondence file holding 414,899 pixel pairs (691 or 692 per
frame, 13.3 MB). ``load_recorded_matcher`` maps the file, checks it a chunk at
a time and builds every frame's pairs as views of the mapping.

* ``test_load_recorded_matcher`` times the load alone, which ``localize`` does
  once before its first frame.
* ``test_replay_every_frame`` times the load plus ``match`` on all 600 frames:
  the replay's page faults, and the dropping of the pages behind the frame
  handed out, are in this figure.

Run with

    PYTHONPATH=src python -m pytest benchmarks/bench_scenario.py

The ``bench_`` prefix and ``testpaths = ["tests"]`` keep the file out of the
default test run.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from topoloc.io import CORRESPONDENCE_FILE, write_correspondences
from topoloc.scenario import load_recorded_matcher

FRAMES = 600
PAIRS = 414_899


@pytest.fixture
def recorded_run(tmp_path):
    """``(pixels, corr_dir, index)`` of a corridor-sized recorded run."""
    rng = np.random.default_rng(600)
    counts = np.diff(np.linspace(0, PAIRS, FRAMES + 1).astype(int))
    pixels = [(rng.uniform(0, 640, (n, 2)), rng.uniform(0, 640, (n, 2))) for n in counts]
    (tmp_path / "frames").mkdir()
    (tmp_path / "correspondences").mkdir()
    write_correspondences(tmp_path / "correspondences" / CORRESPONDENCE_FILE, pixels)
    rows = [f"{k},{0.1 * k:.9f},{k // 7}\n" for k in range(FRAMES)]
    index = tmp_path / "frames" / "index.csv"
    index.write_text("frame,timestamp,node_id\n" + "".join(rows))
    return pixels, tmp_path / "correspondences", index


def test_load_recorded_matcher(benchmark, recorded_run):
    pixels, corr_dir, index = recorded_run
    matcher, frames = benchmark(load_recorded_matcher, corr_dir, index)
    assert len(frames) == FRAMES
    k = FRAMES // 2
    matches = matcher.match(frames[k], SimpleNamespace(node_id=k // 7))
    assert matches.cur.tobytes() == pixels[k][0].tobytes()
    assert matches.node.tobytes() == pixels[k][1].tobytes()


def replay(corr_dir, index) -> float:
    """Load the run and read every frame's pairs in order, as ``localize`` does;
    returns the sum of all pixel coordinates."""
    matcher, frames = load_recorded_matcher(corr_dir, index)
    total = 0.0
    for k, frame in enumerate(frames):
        matches = matcher.match(frame, SimpleNamespace(node_id=k // 7))
        total += matches.cur.sum() + matches.node.sum()
    return total


def test_replay_every_frame(benchmark, recorded_run):
    pixels, corr_dir, index = recorded_run
    total = sum(cur.sum() + node.sum() for cur, node in pixels)
    assert benchmark(replay, corr_dir, index) == pytest.approx(total, rel=1e-12)
