"""Scenario configs and the file-level pipeline glue used by the CLI.

A scenario JSON fully describes a synthetic run: trajectory, world, sensor
noise, camera mounting, and map spacing. ``write_scenario_outputs`` emits
every artifact the localization and map-generation paths consume (point
cloud, ground truth, sensor CSVs, map bundle, rendered frames, recorded
correspondences, and a ready-to-use localization config).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .config import to_json
from .errors import InputError, NoVisibleLandmarks, ResourceExhausted
from .evaluate import Trajectory
from .geometry import CameraIntrinsics, Pose, Rotation
from .ieskf import FilterParams, LocalizationFilter, split_imu_stream
from .io import (
    CORRESPONDENCE_FILE,
    _text_lines,
    read_correspondences,
    write_correspondences,
    write_correspondences_csv,  # noqa: F401  (perfbench/spans.py wraps this name here)
    write_imu_csv,
    write_ply,
    write_speed_csv,
    write_tum,
)
from .matching import (
    CameraFrame,
    CorrespondenceSet,
    RecordedMatcher,
    frame_seed,
    synthetic_match,
)
from .mapgen import rasterize
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
from .topomap import TopologicalMap, save_map, write_pgm

# Forward-looking camera: optical axis along body x, image y down.
DEFAULT_R_IMU_TO_CAM = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
DEFAULT_CAM_IN_BODY = np.array([0.3, 0.0, 0.1])


def default_extrinsics() -> Pose:
    r = Rotation.from_matrix(DEFAULT_R_IMU_TO_CAM)
    return Pose(r, -DEFAULT_R_IMU_TO_CAM @ DEFAULT_CAM_IN_BODY)


def default_intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)


@dataclass
class WorldSpec:
    landmark_count: int = 2500
    min_visible_per_frame: int = 20
    corridor: CorridorGeometry = field(default_factory=CorridorGeometry)


@dataclass
class CameraSpec:
    intrinsics: CameraIntrinsics = field(default_factory=default_intrinsics)
    imu_to_cam: Pose = field(default_factory=default_extrinsics)


@dataclass
class MapSpec:
    node_spacing_m: float = 5.0


@dataclass
class ScenarioConfig:
    """The scenario JSON (``config.from_json``/``to_json`` read and write it)."""

    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    world: WorldSpec = field(default_factory=WorldSpec)
    noise: SensorNoiseSpec = field(default_factory=SensorNoiseSpec)
    camera: CameraSpec = field(default_factory=CameraSpec)
    map: MapSpec = field(default_factory=MapSpec)
    matcher_seed: int = 99
    init_window_s: float = 1.0


@dataclass
class LocalizeConfig:
    """The localize config JSON, which ``simulate`` writes for its scenario."""

    intrinsics: CameraIntrinsics
    imu_to_cam: Pose
    init_window_s: float = 1.0  # stationary prefix, in seconds after the first IMU row
    use_speed: bool = True
    filter: FilterParams = field(default_factory=FilterParams)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(to_json(obj), indent=1))


# ---------------------------------------------------------------------------
# simulate: build world and emit all artifacts

# What every frame of ``simulate`` reads (a SimpleNamespace, not a class, to
# keep the CLI's import cheap); set while the frames run, inherited by fork.
_FRAME_JOB = None


def _as_printed(px: np.ndarray) -> np.ndarray:
    """``px`` as printing it with 6 decimals and parsing the text gives it, as
    a correspondence CSV holds it: the recorded pixels, which replays see
    bit for bit.

    ``rint(x * 1e6) / 1e6`` is that value wherever ``x * 1e6`` lies at least
    1e-3 from a half-integer and below 2**40: its rounding error (under
    2**-13) then cannot move it across the half-integer that decides the
    printed digits, and the division rounds to the nearest double as parsing
    does. The few values near a half-integer are printed and parsed."""
    with np.errstate(over="ignore", invalid="ignore"):  # a huge value takes the text path
        scaled = px * 1e6
        value = np.rint(scaled) / 1e6
        unsure = ~((np.abs(scaled - np.floor(scaled) - 0.5) >= 1e-3) & (np.abs(scaled) < 2.0**40))
    value[unsure] = [float(f"{x:.6f}") for x in px[unsure].tolist()]
    return value


def _emit_frame(k: int):
    """Render and write frame ``k`` of ``_FRAME_JOB`` and match it against the
    node nearest to the true camera pose (the node the filter is expected to
    retrieve); returns that node's id and the (cur, node) pixel pairs."""
    job = _FRAME_JOB
    cam_pose = job.cam_poses[k]
    inten, _ = rasterize(job.cloud, cam_pose, job.intr)
    write_pgm(job.frames_dir / f"frame_{k:05d}.pgm", inten)
    node = job.topo_map.nearest_node(cam_pose.translation)
    try:
        matches = synthetic_match(
            job.cloud.points, cam_pose, node, job.intr,
            sigma_px=job.noise.sigma_pixel,
            outlier_fraction=job.noise.outlier_fraction,
            seed=frame_seed(job.matcher_seed, job.times[k]),
        )
    except NoVisibleLandmarks:
        return node.node_id, np.zeros((0, 2)), np.zeros((0, 2))
    return node.node_id, _as_printed(matches.cur), _as_printed(matches.node)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _submit_frames(n_frames: int):
    """``(pool, results)``: every frame submitted to a fork pool with one
    worker per available CPU, its ``_emit_frame`` results a lazy iterator in
    frame order.
    With one CPU, no fork on this platform, or a fork that failed, the pool is
    None and the iterator renders each frame inline when it is consumed.
    Forked workers share the parent's world and map pages; spawn would pickle
    the node depths to each."""
    inline = None, map(_emit_frame, range(n_frames))
    n_workers = min(_available_cpus(), n_frames)
    if n_workers < 2:
        return inline
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return inline
    others = set(multiprocessing.active_children())
    pool = ProcessPoolExecutor(n_workers, mp_context=multiprocessing.get_context("fork"))
    try:  # 8 frames per task: chunks of 2, 8 and 32 time alike
        return pool, pool.map(_emit_frame, range(n_frames), chunksize=8)
    except OSError:  # the first submit forks every worker; stop those it started
        for worker in set(multiprocessing.active_children()) - others:
            worker.terminate()
            worker.join()
        pool.shutdown(cancel_futures=True)
        return inline


def _collect(pending) -> list[tuple]:
    """The frame results that ``_submit_frames`` yields, in frame order. A frame's
    exception is re-raised as it is; a worker that died is ResourceExhausted."""
    from concurrent.futures.process import BrokenProcessPool

    try:
        return list(pending)
    except BrokenProcessPool:
        raise ResourceExhausted(
            "simulate: a frame worker process ended abruptly (killed, or out of memory)"
        ) from None


def write_scenario_outputs(cfg: ScenarioConfig, out_dir) -> dict:
    """Generate the world and write every pipeline artifact; returns paths.

    The frames (image, correspondences) come from a pool of worker processes
    while this process writes the other artifacts; it then writes the frame
    index and the correspondence file from their results. The bytes are the
    same whatever the number of workers.
    """
    global _FRAME_JOB
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    world = gen_world(cfg.trajectory, cfg.world.landmark_count, cfg.world.corridor)
    intr = cfg.camera.intrinsics
    extr = cfg.camera.imu_to_cam
    ft = frame_times(world)
    validate_visibility(world, intr, extr, ft, cfg.world.min_visible_per_frame)

    imu = synthesize_imu(world, cfg.noise)
    speeds = synthesize_speed(world, cfg.noise)
    topo_map = build_reference_map(world, intr, cfg.map.node_spacing_m, extr)
    frame_poses = world.poses_at(ft)
    cam_to_body = extr.inverse()
    cam_poses = [pose @ cam_to_body for pose in frame_poses]
    frames_dir = out / "frames"
    corr_dir = out / "correspondences"
    frames_dir.mkdir(exist_ok=True)
    corr_dir.mkdir(exist_ok=True)

    _FRAME_JOB = SimpleNamespace(
        cloud=world.point_cloud(), cam_poses=cam_poses, times=ft, topo_map=topo_map,
        intr=intr, noise=cfg.noise, matcher_seed=cfg.matcher_seed,
        frames_dir=frames_dir,
    )
    pool, pending = _submit_frames(len(ft))
    try:
        _write_json(out / "scenario.json", cfg)
        write_ply(out / "landmarks.ply", world.landmarks, world.landmark_intensity)
        write_imu_csv(out / "imu.csv", imu)
        write_speed_csv(out / "speed.csv", speeds)
        write_tum(out / "ground_truth_imu.tum", world.times, world.poses)
        write_tum(out / "ground_truth_frames.tum", ft, frame_poses)
        write_tum(out / "ground_truth_cam.tum", ft, cam_poses)
        write_tum(out / "initial_pose.tum", [0.0], [world.poses[0]])
        write_tum(out / "initial_pose_cam.tum", [float(ft[0])], [cam_poses[0]])
        # body odometry (exact) and the camera-to-baseline extrinsic for mapgen
        write_tum(out / "odometry_body.tum", ft, frame_poses)
        _write_json(out / "cam_to_base.json", cam_to_body)
        _write_json(out / "intrinsics.json", intr)
        save_map(topo_map, out / "map")
        results = _collect(pending)
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        _FRAME_JOB = None
    index_lines = ["frame,timestamp,node_id,filename\n"]
    for k, (t, (node_id, _, _)) in enumerate(zip(ft, results)):
        index_lines.append(f"{k},{t:.9f},{node_id},frame_{k:05d}.pgm\n")
    (frames_dir / "index.csv").write_text("".join(index_lines))
    write_correspondences(corr_dir / CORRESPONDENCE_FILE, [(cur, px) for _, cur, px in results])

    localize_cfg = LocalizeConfig(intr, extr, init_window_s=cfg.init_window_s)
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
    lists: a header, then ``frame,timestamp,node_id,filename`` rows with
    strictly increasing timestamps. Each frame carries its image file's path;
    no image is read here (see ``read_frame_images``)."""
    index_path = Path(index_path)
    if not index_path.exists():
        raise InputError(f"frame index not found: {index_path}")
    frames, node_ids = [], []
    t_prev = -np.inf
    for lineno, line in enumerate(_text_lines(index_path), start=1):
        if lineno == 1 or not line.strip():
            continue
        where = f"{index_path}:{lineno}"
        row = line.split(",")
        if len(row) != 4:
            raise InputError(
                f"{where}: expected 4 fields (frame,timestamp,node_id,filename), got {len(row)}"
            )
        try:
            # the frame number is checked, not used: the rows are in frame order
            _, t, node_id = int(row[0]), float(row[1]), int(row[2])
        except ValueError as exc:
            raise InputError(f"{where}: {exc}")
        if not t > t_prev:
            raise InputError(
                f"{where}: timestamp {t!r} does not follow the previous row's {t_prev!r}"
            )
        t_prev = t
        frames.append(CameraFrame(timestamp=t, image_path=index_path.parent / row[3].strip()))
        node_ids.append(node_id)
    return frames, node_ids


def load_recorded_matcher(corr_dir, index_path) -> tuple[RecordedMatcher, list[CameraFrame]]:
    """The correspondences recorded in ``corr_dir`` (its ``CORRESPONDENCE_FILE``,
    one entry per row of ``index_path``) as a replay matcher, and the frame
    stubs of ``read_frame_index``."""
    frames, node_ids = read_frame_index(index_path)
    pairs = read_correspondences(Path(corr_dir) / CORRESPONDENCE_FILE, len(frames))
    matcher = RecordedMatcher()
    for frame, node_id, (cur, node_px) in zip(frames, node_ids, pairs):
        matcher.add(frame.timestamp, node_id, CorrespondenceSet(cur=cur, node=node_px))
    return matcher, frames


def read_frame_images(frames: list[CameraFrame]) -> None:
    """Read each frame's ``image_path`` into ``frame.image``; InputError
    naming the file when one is missing."""
    from .topomap import read_pgm  # at call time, so a rebound read_pgm is used

    for frame in frames:
        if not frame.image_path.exists():
            raise InputError(f"frame image not found: {frame.image_path}")
        frame.image = read_pgm(frame.image_path)
