"""Scenario configs and the file-level pipeline glue used by the CLI.

A scenario JSON fully describes a synthetic run: trajectory, world, sensor
noise and camera mounting. ``write_scenario_outputs`` emits
every artifact the localization and map-generation paths consume (point
cloud, ground truth, sensor CSVs, map bundle, frame index, recorded
correspondences, and a ready-to-use localization config).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path

import numpy as np

from .config import to_json
from .errors import InputError, NoVisibleLandmarks
from .evaluate import Trajectory
from .geometry import CameraIntrinsics, Pose, Rotation, project_in_views
from .ieskf import FilterParams, LocalizationFilter, split_imu_stream
from .io import (
    CORRESPONDENCE_FILE,
    _read_table,
    read_correspondences,
    write_correspondences,
    write_correspondences_csv,  # noqa: F401  (perfbench/spans.py wraps this name here)
    write_imu_csv,
    write_ply,
    write_speed_csv,
    write_tum,
)
from .matching import (
    SYNTHETIC_MIN_DEPTH_M,
    CameraFrame,
    CorrespondenceSet,
    RecordedMatcher,
    draw_matches,
    frame_seed,
    node_landmarks,
)
from .sim import (
    CorridorGeometry,
    SensorNoiseSpec,
    TrajectorySpec,
    build_reference_map,
    frame_times,
    gen_world,
    synthesize_imu,
    synthesize_speed,
    validate_visibility,
)
from .topomap import NODE_SPACING_M, TopologicalMap, save_map

# Forward-looking camera: optical axis along body x, image y down.
DEFAULT_R_IMU_TO_CAM = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
DEFAULT_CAM_IN_BODY = np.array([0.3, 0.0, 0.1])
# Generation fails loudly when a frame sees fewer landmarks than this.
MIN_VISIBLE_PER_FRAME = 20


def default_extrinsics() -> Pose:
    r = Rotation.from_matrix(DEFAULT_R_IMU_TO_CAM)
    return Pose(r, -DEFAULT_R_IMU_TO_CAM @ DEFAULT_CAM_IN_BODY)


def default_intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)


@dataclass
class WorldSpec:
    landmark_count: int = 2500
    corridor: CorridorGeometry = field(default_factory=CorridorGeometry)


@dataclass
class CameraSpec:
    intrinsics: CameraIntrinsics = field(default_factory=default_intrinsics)
    imu_to_cam: Pose = field(default_factory=default_extrinsics)


@dataclass
class ScenarioConfig:
    """The scenario JSON (``config.from_json``/``to_json`` read and write it)."""

    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    world: WorldSpec = field(default_factory=WorldSpec)
    noise: SensorNoiseSpec = field(default_factory=SensorNoiseSpec)
    camera: CameraSpec = field(default_factory=CameraSpec)
    matcher_seed: int = 99


@dataclass
class LocalizeConfig:
    """The localize config JSON, which ``simulate`` writes for its scenario."""

    intrinsics: CameraIntrinsics
    imu_to_cam: Pose
    init_window_s: float = 1.0  # stationary prefix, s after the first IMU row (simulate: hold_s)
    filter: FilterParams = field(default_factory=FilterParams)

    def __post_init__(self):
        if not self.init_window_s > 0:  # the filter initializes on the IMU rows inside it
            raise ValueError(f"init_window_s must be positive, got {self.init_window_s!r}")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(to_json(obj), indent=1))


# ---------------------------------------------------------------------------
# simulate: build world and emit all artifacts

def match_frames(landmarks: np.ndarray, topo_map: TopologicalMap, cam_poses, times, cfg: ScenarioConfig):
    """Match each frame, at true camera pose ``cam_poses[k]`` and time
    ``times[k]``, against the node nearest to that pose (the node the filter
    is expected to retrieve). Each node's ``node_landmarks`` are found once
    and projected into each run of consecutive frames on that node in one
    ``project_in_views`` pass; each frame's noise and outliers are then drawn
    in frame order (``draw_matches``), as ``synthetic_match`` draws them.

    Returns the node ids and the (cur, node) pixel pairs, one per frame; a
    frame that sees none of its node's landmarks gets no pairs.
    """
    intr, noise = cfg.camera.intrinsics, cfg.noise
    stored = [node_landmarks(landmarks, node) for node in topo_map.nodes]
    node_ids = [topo_map.nearest_node(pose.translation).node_id for pose in cam_poses]
    pairs = []
    for node_id, run in groupby(range(len(cam_poses)), key=node_ids.__getitem__):
        run = list(run)
        node, views = stored[node_id], [cam_poses[k].inverse() for k in run]
        uv, visible, _ = project_in_views(intr, views, node.points, SYNTHETIC_MIN_DEPTH_M)
        for k, uv_k, visible_k in zip(run, uv, visible):
            try:  # not SyntheticMatcher.match, which the benchmark traces as a localize stage
                matches = draw_matches(
                    node.pixels, uv_k, visible_k, intr, noise.sigma_pixel, noise.outlier_fraction,
                    frame_seed(cfg.matcher_seed, times[k]),
                )
            except NoVisibleLandmarks:
                pairs.append((np.zeros((0, 2)), np.zeros((0, 2))))
            else:
                pairs.append((matches.cur, matches.node))
    return node_ids, pairs


def write_scenario_outputs(cfg: ScenarioConfig, out_dir) -> dict:
    """Generate the world and write every pipeline artifact; returns paths.

    Each frame is matched against its nearest map node (``match_frames``);
    the frame index and the correspondence file are written from those
    matches.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    world = gen_world(cfg.trajectory, cfg.world.landmark_count, cfg.world.corridor)
    intr = cfg.camera.intrinsics
    extr = cfg.camera.imu_to_cam
    ft = frame_times(world)
    validate_visibility(world, intr, extr, ft, MIN_VISIBLE_PER_FRAME)

    imu = synthesize_imu(world, cfg.noise)
    speeds = synthesize_speed(world, cfg.noise)
    topo_map = build_reference_map(world, intr, NODE_SPACING_M, extr)
    frame_poses = world.poses_at(ft)
    cam_to_body = extr.inverse()
    cam_poses = [pose @ cam_to_body for pose in frame_poses]

    _write_json(out / "scenario.json", cfg)
    write_ply(out / "landmarks.ply", world.landmarks, world.landmark_intensity)
    write_imu_csv(out / "imu.csv", imu)
    write_speed_csv(out / "speed.csv", speeds)
    write_tum(out / "ground_truth_frames.tum", ft, frame_poses)
    write_tum(out / "ground_truth_cam.tum", ft, cam_poses)
    write_tum(out / "initial_pose.tum", [0.0], [world.poses[0]])
    write_tum(out / "initial_pose_cam.tum", [float(ft[0])], [cam_poses[0]])
    # body odometry (exact) and the camera-to-baseline extrinsic for mapgen
    write_tum(out / "odometry_body.tum", ft, frame_poses)
    _write_json(out / "cam_to_base.json", cam_to_body)
    _write_json(out / "intrinsics.json", intr)
    save_map(topo_map, out / "map")

    node_ids, pairs = match_frames(world.landmarks, topo_map, cam_poses, ft, cfg)
    frames_dir = out / "frames"
    corr_dir = out / "correspondences"
    frames_dir.mkdir(exist_ok=True)
    corr_dir.mkdir(exist_ok=True)
    index_lines = ["frame,timestamp,node_id\n"]
    for k, (t, node_id) in enumerate(zip(ft, node_ids)):
        index_lines.append(f"{k},{t:.9f},{node_id}\n")
    (frames_dir / "index.csv").write_text("".join(index_lines))
    write_correspondences(corr_dir / CORRESPONDENCE_FILE, pairs)

    localize_cfg = LocalizeConfig(intr, extr, init_window_s=cfg.trajectory.hold_s)
    _write_json(out / "localize_config.json", localize_cfg)
    return {"out": out, "n_frames": len(ft), "n_nodes": len(topo_map), "world": world}


# ---------------------------------------------------------------------------
# localize: drive the filter over in-memory streams

@dataclass
class LocalizationRun:
    timestamps: np.ndarray
    poses: list[Pose]
    diagnostics: list

    def trajectory(self) -> Trajectory:
        return Trajectory(self.timestamps, self.poses)


def run_localization(
    topo_map: TopologicalMap,
    imu: np.ndarray,
    speeds: np.ndarray,
    frames: list[CameraFrame],
    matcher,
    initial_pose: Pose,
    intr: CameraIntrinsics,
    extr: Pose,
    params: FilterParams,
    init_window_s: float = 1.0,
    use_speed: bool = True,
    dead_reckoning: bool = False,
) -> LocalizationRun:
    """Initialize on the stationary prefix, the IMU rows within
    ``init_window_s`` of the first, then process every later frame.

    ``imu`` holds (N, 7) IMU rows (t, ax, ay, az, wx, wy, wz) and ``speeds``
    (M, 2) speed rows (t, vx), both in time order; a frame whose timestamp
    equals a speed row's to 9 decimals gets that row's vx.
    """
    filt = LocalizationFilter(intr, extr, params)
    t_init = (imu[0, 0] if len(imu) else 0.0) + init_window_s - 1e-9
    filt.initialize(initial_pose, imu[imu[:, 0] < t_init])
    proc = [f for f in frames if f.timestamp >= t_init]
    if not proc:
        raise InputError("no camera frames after the initialization window")
    times = np.array([f.timestamp for f in proc])
    buckets = split_imu_stream(imu, times, filt.time)
    speed_by_t = {round(t, 9): vx for t, vx in speeds.tolist()}
    out_poses, diags = [], []
    for k, frame in enumerate(proc):
        if dead_reckoning:
            filt.propagate_to(buckets[k], frame.timestamp)
            diags.append(None)
        else:
            sp = speed_by_t.get(round(frame.timestamp, 9)) if use_speed else None
            _, _, dg = filt.process_frame(buckets[k], frame, sp, topo_map, matcher)
            diags.append(dg)
        out_poses.append(filt.state.pose())
    return LocalizationRun(timestamps=times, poses=out_poses, diagnostics=diags)


def read_frame_index(index_path) -> tuple[list[CameraFrame], list[int]]:
    """The frame stubs and node ids that a frames directory's ``index.csv``
    lists: ``frame,timestamp,node_id`` rows in ``io._read_table``'s grammar,
    with whole-number frame and node ids and strictly increasing timestamps.
    The frame number is checked, not used: the rows are in frame order."""
    rows = _read_table(index_path, 3, "frame index", time_column=1, check=_fractional_id)
    return [CameraFrame(timestamp=t) for t in rows[:, 1].tolist()], rows[:, 2].astype(int).tolist()


def _fractional_id(rows):
    """The first row whose frame or node id is not a whole number that int64 holds."""
    ids = rows[:, [0, 2]]
    bad = np.flatnonzero(~((ids == np.round(ids)) & (np.abs(ids) < 2.0**63)).all(axis=1))
    return (bad[0], "frame or node id is not a whole number") if len(bad) else None


def load_recorded_matcher(corr_dir, index_path) -> tuple[RecordedMatcher, list[CameraFrame]]:
    """The correspondences recorded in ``corr_dir`` (its ``CORRESPONDENCE_FILE``,
    one entry per row of ``index_path``) as a replay matcher, and the frame
    stubs of ``read_frame_index``. The pairs are views of the file's mapping;
    the matcher drops the pages behind the frames it has handed out."""
    frames, node_ids = read_frame_index(index_path)
    pairs, window = read_correspondences(Path(corr_dir) / CORRESPONDENCE_FILE, len(frames))
    recordings = [
        (frame.timestamp, node_id, CorrespondenceSet(cur=cur, node=node_px))
        for frame, node_id, (cur, node_px) in zip(frames, node_ids, pairs)
    ]
    return RecordedMatcher(recordings, window.release_before), frames
