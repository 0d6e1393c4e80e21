"""Kernel micro-benchmarks for recording a run and replaying it.

Three benchmarks time ``simulate``'s largest passes on the criterion-3
corridor (seed 3, 60 s, 2500 landmarks, 1 px noise and 20 % outliers):

* ``test_gen_world_corridor`` times ``sim.gen_world``, whose 12,001-pose
  list is built from stacked arrays (``geometry.pose_list``).
* ``test_count_visible_corridor`` times ``sim.count_visible`` over the 600
  frames and 2500 landmarks, a few frames per landmark-major pass.
* ``test_match_every_corridor_frame`` times ``scenario.match_frames``:
  ``simulate``'s matching of its 600 frames against the 94-node reference
  map. It finds each node's stored landmarks once, projects them into that
  node's frames in one pass, then draws every frame's noise in frame order.

The replay benchmarks run on inputs the size of a 60 s corridor run: a frame index of 600 rows
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

from topoloc.config import from_json
from topoloc.io import CORRESPONDENCE_FILE, write_correspondences
from topoloc.scenario import ScenarioConfig, load_recorded_matcher, match_frames
from topoloc.sim import build_reference_map, count_visible, frame_times, gen_world
from topoloc.topomap import NODE_SPACING_M

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


CORRIDOR = {
    "trajectory": {"shape": "corridor-with-turns", "duration_s": 60.0, "seed": 3},
    "world": {"landmark_count": 2500},
    "noise": {"sigma_pixel": 1.0, "outlier_fraction": 0.2},
    "matcher_seed": 99,
}


@pytest.fixture(scope="module")
def corridor_world():
    """The corridor's scenario and world."""
    cfg = from_json(ScenarioConfig, CORRIDOR, "scenario")
    return cfg, gen_world(cfg.trajectory, cfg.world.landmark_count, cfg.world.corridor)


@pytest.fixture(scope="module")
def corridor_frames(corridor_world):
    """``match_frames``' arguments for the corridor: landmarks, reference map,
    true camera poses, frame times and scenario."""
    cfg, world = corridor_world
    extr = cfg.camera.imu_to_cam
    topo_map = build_reference_map(world, cfg.camera.intrinsics, NODE_SPACING_M, extr)
    ft = frame_times(world)
    cam_poses = [pose @ extr.inverse() for pose in world.poses_at(ft)]
    return world.landmarks, topo_map, cam_poses, ft, cfg


def test_match_every_corridor_frame(benchmark, corridor_frames):
    _, topo_map, cam_poses, _, _ = corridor_frames
    assert (len(topo_map), len(cam_poses)) == (94, 600)
    node_ids, pairs = benchmark(match_frames, *corridor_frames)
    assert len(set(node_ids)) == len(topo_map)
    assert min(len(cur) for cur, _ in pairs) > 100


def test_gen_world_corridor(benchmark, corridor_world):
    cfg, _ = corridor_world
    world = benchmark(gen_world, cfg.trajectory, cfg.world.landmark_count, cfg.world.corridor)
    assert (len(world.poses), len(world.landmarks)) == (12_001, 2500)


def test_count_visible_corridor(benchmark, corridor_world):
    cfg, world = corridor_world
    ft = frame_times(world)
    counts = benchmark(count_visible, world, cfg.camera.intrinsics, cfg.camera.imu_to_cam, ft)
    assert len(counts) == 600
    assert counts.min() >= 20  # simulate's MIN_VISIBLE_PER_FRAME
