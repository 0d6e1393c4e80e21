"""Scenario configs and the file-level pipeline glue used by the CLI.

A scenario JSON fully describes a synthetic run: trajectory, world, sensor
noise, camera mounting, and map spacing. ``write_scenario_outputs`` emits
every artifact the localization and map-generation paths consume (point
cloud, ground truth, sensor CSVs, map bundle, rendered frames, recorded
correspondences, and a ready-to-use localization config).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError, NoVisibleLandmarks
from .evaluate import Trajectory
from .geometry import (
    CameraIntrinsics,
    Pose,
    Rotation,
    intrinsics_dict,
    parse_intrinsics,
    parse_vector,
)
from .ieskf import (
    Extrinsics,
    FilterParams,
    ImuSample,
    LocalizationFilter,
    NoiseParams,
    SpeedSample,
    split_imu_stream,
)
from .io import (
    write_correspondences_csv,
    write_imu_csv,
    write_ply,
    write_speed_csv,
    write_tum,
)
from .matching import CameraFrame, RecordedMatcher, synthetic_match
from .mapgen import rasterize
from .sim import (
    CorridorGeometry,
    SensorNoiseSpec,
    TrajectorySpec,
    build_reference_map,
    camera_pose_at,
    frame_times,
    gen_world,
    synthesize_imu,
    synthesize_speed,
    validate_visibility,
)
from .topomap import IntensityImage, TopologicalMap, save_map, write_pgm

# Forward-looking camera: optical axis along body x, image y down.
DEFAULT_R_IMU_TO_CAM = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
DEFAULT_CAM_IN_BODY = np.array([0.3, 0.0, 0.1])


def default_extrinsics() -> Extrinsics:
    r = Rotation.from_matrix(DEFAULT_R_IMU_TO_CAM)
    return Extrinsics(r, -DEFAULT_R_IMU_TO_CAM @ DEFAULT_CAM_IN_BODY)


def default_intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)


@dataclass
class ScenarioConfig:
    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    corridor: CorridorGeometry = field(default_factory=CorridorGeometry)
    noise: SensorNoiseSpec = field(default_factory=SensorNoiseSpec)
    intrinsics: CameraIntrinsics = field(default_factory=default_intrinsics)
    imu_to_cam: Extrinsics = field(default_factory=default_extrinsics)
    landmark_count: int = 2500
    node_spacing_m: float = 5.0
    min_visible_per_frame: int = 20
    matcher_seed: int = 99
    init_window_s: float = 1.0


def _take(d: dict, allowed: dict, where: str) -> dict:
    unknown = set(d) - set(allowed)
    if unknown:
        raise InputError(f"unknown {where} key(s): {', '.join(sorted(unknown))}")
    return {k: d[k] for k in d}


def parse_scenario(raw: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a JSON dict, rejecting unknown keys."""
    cfg = ScenarioConfig()
    top = _take(
        raw,
        {
            "trajectory": 1, "world": 1, "noise": 1, "camera": 1, "map": 1,
            "matcher_seed": 1, "init_window_s": 1,
        },
        "scenario",
    )
    if "trajectory" in top:
        t = _take(
            top["trajectory"],
            {
                "shape": 1, "duration_s": 1, "speed_mps": 1, "imu_rate_hz": 1,
                "frame_rate_hz": 1, "seed": 1, "radius_m": 1, "hold_s": 1,
                "ramp_s": 1, "turns": 1,
            },
            "trajectory",
        )
        if "turns" in t:
            t["turns"] = tuple(tuple(turn) for turn in t["turns"])
        cfg.trajectory = TrajectorySpec(**t)
    if "world" in top:
        w = _take(
            top["world"], {"landmark_count": 1, "corridor": 1, "min_visible_per_frame": 1}, "world"
        )
        if "landmark_count" in w:
            cfg.landmark_count = int(w["landmark_count"])
        if "min_visible_per_frame" in w:
            cfg.min_visible_per_frame = int(w["min_visible_per_frame"])
        if "corridor" in w:
            c = _take(
                w["corridor"],
                {
                    "wall_offset_m": 1, "wall_jitter_m": 1, "z_min_m": 1, "z_max_m": 1,
                    "ground_fraction": 1, "lookahead_m": 1, "sparse_window": 1,
                    "sparse_count": 1,
                },
                "corridor",
            )
            if c.get("sparse_window") is not None:
                c["sparse_window"] = tuple(c["sparse_window"])
            cfg.corridor = CorridorGeometry(**c)
    if "noise" in top:
        nz = _take(
            top["noise"],
            {
                "sigma_accel": 1, "sigma_gyro": 1, "bias_accel": 1, "bias_gyro": 1,
                "sigma_pixel": 1, "sigma_speed": 1, "outlier_fraction": 1,
            },
            "noise",
        )
        cfg.noise = SensorNoiseSpec(**nz)
    if "camera" in top:
        cam = _take(top["camera"], {"intrinsics": 1, "imu_to_cam": 1}, "camera")
        if "intrinsics" in cam:
            cfg.intrinsics = parse_intrinsics(cam["intrinsics"])
        if "imu_to_cam" in cam:
            cfg.imu_to_cam = parse_extrinsics(cam["imu_to_cam"])
    if "map" in top:
        m = _take(top["map"], {"node_spacing_m": 1}, "map")
        if "node_spacing_m" in m:
            cfg.node_spacing_m = float(m["node_spacing_m"])
    if "matcher_seed" in top:
        cfg.matcher_seed = int(top["matcher_seed"])
    if "init_window_s" in top:
        cfg.init_window_s = float(top["init_window_s"])
    return cfg


def parse_extrinsics(d: dict) -> Extrinsics:
    k = _take(d, {"q_xyzw": 1, "t": 1}, "extrinsics")
    try:
        q, t = k["q_xyzw"], k["t"]
    except KeyError as exc:
        raise InputError(f"extrinsics missing key {exc}")
    return Extrinsics(
        Rotation.from_quat_xyzw(parse_vector(q, 4, "extrinsics 'q_xyzw'")),
        parse_vector(t, 3, "extrinsics 't'"),
    )


def extrinsics_dict(extr: Extrinsics | Pose) -> dict:
    """The JSON object of a rigid transform (``parse_extrinsics`` reads it back)."""
    return {
        "q_xyzw": [float(v) for v in extr.rotation.as_quat_xyzw()],
        "t": [float(v) for v in extr.translation],
    }


def scenario_dict(cfg: ScenarioConfig) -> dict:
    t = cfg.trajectory
    c = cfg.corridor
    nz = cfg.noise
    return {
        "trajectory": {
            "shape": t.shape, "duration_s": t.duration_s, "speed_mps": t.speed_mps,
            "imu_rate_hz": t.imu_rate_hz, "frame_rate_hz": t.frame_rate_hz,
            "seed": t.seed, "radius_m": t.radius_m, "hold_s": t.hold_s,
            "ramp_s": t.ramp_s, "turns": [list(x) for x in t.turns],
        },
        "world": {
            "landmark_count": cfg.landmark_count,
            "min_visible_per_frame": cfg.min_visible_per_frame,
            "corridor": {
                "wall_offset_m": c.wall_offset_m, "wall_jitter_m": c.wall_jitter_m,
                "z_min_m": c.z_min_m, "z_max_m": c.z_max_m,
                "ground_fraction": c.ground_fraction, "lookahead_m": c.lookahead_m,
                "sparse_window": list(c.sparse_window) if c.sparse_window else None,
                "sparse_count": c.sparse_count,
            },
        },
        "noise": {
            "sigma_accel": nz.sigma_accel, "sigma_gyro": nz.sigma_gyro,
            "bias_accel": [float(v) for v in nz.bias_accel],
            "bias_gyro": [float(v) for v in nz.bias_gyro],
            "sigma_pixel": nz.sigma_pixel, "sigma_speed": nz.sigma_speed,
            "outlier_fraction": nz.outlier_fraction,
        },
        "camera": {
            "intrinsics": intrinsics_dict(cfg.intrinsics),
            "imu_to_cam": extrinsics_dict(cfg.imu_to_cam),
        },
        "map": {"node_spacing_m": cfg.node_spacing_m},
        "matcher_seed": cfg.matcher_seed,
        "init_window_s": cfg.init_window_s,
    }


# ---------------------------------------------------------------------------
# simulate: build world and emit all artifacts

def write_scenario_outputs(cfg: ScenarioConfig, out_dir) -> dict:
    """Generate the world and write every pipeline artifact; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    world = gen_world(cfg.trajectory, cfg.landmark_count, cfg.corridor)
    intr = cfg.intrinsics
    extr = cfg.imu_to_cam
    ft = frame_times(world)
    validate_visibility(world, intr, extr, ft, cfg.min_visible_per_frame)

    imu = synthesize_imu(world, cfg.noise)
    speeds = synthesize_speed(world, cfg.noise)
    topo_map = build_reference_map(world, intr, cfg.node_spacing_m, extr)

    (out / "scenario.json").write_text(json.dumps(scenario_dict(cfg), indent=1))
    write_ply(out / "landmarks.ply", world.landmarks, world.landmark_intensity)
    write_imu_csv(out / "imu.csv", imu)
    write_speed_csv(out / "speed.csv", speeds)
    write_tum(out / "ground_truth_imu.tum", world.times, world.poses)
    frame_poses = [world.eval(t)[0] for t in ft]
    write_tum(out / "ground_truth_frames.tum", ft, frame_poses)
    cam_poses = [camera_pose_at(world, t, extr) for t in ft]
    write_tum(out / "ground_truth_cam.tum", ft, cam_poses)
    write_tum(out / "initial_pose.tum", [0.0], [world.poses[0]])
    write_tum(out / "initial_pose_cam.tum", [float(ft[0])], [cam_poses[0]])
    # body odometry (exact) and the camera-to-baseline extrinsic for mapgen
    write_tum(out / "odometry_body.tum", ft, frame_poses)
    cam_to_base = Pose(extr.rotation, extr.translation).inverse()
    (out / "cam_to_base.json").write_text(json.dumps(extrinsics_dict(cam_to_base), indent=1))
    (out / "intrinsics.json").write_text(json.dumps(intrinsics_dict(intr), indent=1))
    save_map(topo_map, out / "map")

    # Rendered camera frames plus recorded correspondences against the node
    # the filter is expected to retrieve (nearest to the true camera pose).
    frames_dir = out / "frames"
    corr_dir = out / "correspondences"
    frames_dir.mkdir(exist_ok=True)
    corr_dir.mkdir(exist_ok=True)
    cloud = world.point_cloud()
    index_lines = ["frame,timestamp,node_id,filename\n"]
    for k, t in enumerate(ft):
        cam_pose = cam_poses[k]
        inten, _ = rasterize(cloud, cam_pose, intr)
        name = f"frame_{k:05d}.pgm"
        write_pgm(frames_dir / name, inten)
        node = topo_map.nearest_node(cam_pose.translation)
        frame_seed = (cfg.matcher_seed * 1_000_003 + int(round(t * 1e6))) % (2**63)
        try:
            matches = synthetic_match(
                world.landmarks, cam_pose, node, intr,
                sigma_px=cfg.noise.sigma_pixel,
                outlier_fraction=cfg.noise.outlier_fraction,
                seed=frame_seed,
            )
            write_correspondences_csv(corr_dir / f"frame_{k:05d}.csv", matches.cur, matches.node)
        except NoVisibleLandmarks:
            write_correspondences_csv(corr_dir / f"frame_{k:05d}.csv", np.zeros((0, 2)), np.zeros((0, 2)))
        index_lines.append(f"{k},{t:.9f},{node.node_id},{name}\n")
    (frames_dir / "index.csv").write_text("".join(index_lines))

    localize_cfg = {
        "intrinsics": intrinsics_dict(intr),
        "imu_to_cam": extrinsics_dict(extr),
        "init_window_s": cfg.init_window_s,
        "use_speed": True,
        "filter": default_filter_dict(),
    }
    (out / "localize_config.json").write_text(json.dumps(localize_cfg, indent=1))
    return {"out": out, "n_frames": len(ft), "n_nodes": len(topo_map), "world": world}


def default_filter_dict() -> dict:
    p = FilterParams()
    n = p.noise
    return {
        "sigma_gyro": n.sigma_gyro, "sigma_accel": n.sigma_accel,
        "sigma_bias_accel": n.sigma_bias_accel, "sigma_bias_gyro": n.sigma_bias_gyro,
        "r_f_px2": n.r_f_px2, "r_v": n.r_v,
        "eps": p.eps, "kappa_max": p.kappa_max, "min_features": p.min_features,
        "sigma_th_px": p.sigma_th_px, "max_node_distance_m": p.max_node_distance_m,
        "freeze_gravity": p.freeze_gravity,
        "init_sigma_rot": p.init_sigma_rot, "init_sigma_pos": p.init_sigma_pos,
        "init_sigma_vel": p.init_sigma_vel,
        "init_sigma_bias_accel": p.init_sigma_bias_accel,
        "init_sigma_bias_gyro": p.init_sigma_bias_gyro,
        "init_sigma_gravity": p.init_sigma_gravity,
    }


def parse_filter_params(d: dict) -> FilterParams:
    allowed = set(default_filter_dict())
    unknown = set(d) - allowed
    if unknown:
        raise InputError(f"unknown filter key(s): {', '.join(sorted(unknown))}")
    noise_keys = {
        "sigma_gyro", "sigma_accel", "sigma_bias_accel", "sigma_bias_gyro",
        "r_f_px2", "r_v",
    }
    noise = NoiseParams(**{k: d[k] for k in noise_keys if k in d})
    rest = {k: v for k, v in d.items() if k not in noise_keys}
    return FilterParams(noise=noise, **rest)


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
    imu: list[ImuSample],
    speeds: list[SpeedSample],
    frames: list[CameraFrame],
    matcher,
    initial_pose: Pose,
    intr: CameraIntrinsics,
    extr: Extrinsics,
    params: FilterParams,
    init_window_s: float = 1.0,
    use_speed: bool = True,
    use_features: bool = True,
    dead_reckoning: bool = False,
) -> LocalizationRun:
    """Initialize on the stationary prefix, then process every later frame."""
    filt = LocalizationFilter(intr, extr, params)
    init_window = [s for s in imu if s.timestamp < init_window_s - 1e-9]
    filt.initialize(initial_pose, init_window)
    proc = [f for f in frames if f.timestamp >= init_window_s - 1e-9]
    if not proc:
        raise InputError("no camera frames after the initialization window")
    times = np.array([f.timestamp for f in proc])
    buckets = split_imu_stream(imu, times, filt.time)
    speed_by_t = {round(s.timestamp, 9): s for s in speeds}
    out_poses, diags = [], []
    for k, frame in enumerate(proc):
        if dead_reckoning:
            filt.propagate_to(buckets[k], frame.timestamp)
            diags.append(None)
        else:
            sp = speed_by_t.get(round(frame.timestamp, 9)) if use_speed else None
            _, _, dg = filt.process_frame(
                buckets[k], frame, sp, topo_map, matcher, use_features=use_features
            )
            diags.append(dg)
        out_poses.append(filt.state.pose())
    return LocalizationRun(timestamps=times, poses=out_poses, diagnostics=diags)


def load_recorded_matcher(corr_dir, index_path) -> tuple[RecordedMatcher, list[CameraFrame]]:
    """Recorded correspondences plus frame stubs from a simulate output dir.

    Each frame carries its image file's path; no image is read here (see
    ``read_frame_images``).
    """
    from .io import read_correspondences_csv
    from .matching import CorrespondenceSet

    corr_dir = Path(corr_dir)
    index_path = Path(index_path)
    if not index_path.exists():
        raise InputError(f"frame index not found: {index_path}")
    matcher = RecordedMatcher()
    frames = []
    frames_dir = index_path.parent
    t_prev = -np.inf
    for lineno, line in enumerate(index_path.read_text().splitlines()[1:], start=2):
        if not line.strip():
            continue
        where = f"{index_path}:{lineno}"
        row = line.split(",")
        if len(row) != 4:
            raise InputError(
                f"{where}: expected 4 fields (frame,timestamp,node_id,filename), got {len(row)}"
            )
        try:
            k, t, node_id = int(row[0]), float(row[1]), int(row[2])
        except ValueError as exc:
            raise InputError(f"{where}: {exc}")
        if not t > t_prev:
            raise InputError(
                f"{where}: timestamp {t!r} does not follow the previous row's {t_prev!r}"
            )
        t_prev = t
        frames.append(CameraFrame(timestamp=t, image_path=frames_dir / row[3].strip()))
        csv_path = corr_dir / f"frame_{k:05d}.csv"
        if csv_path.exists():
            cur, node_px = read_correspondences_csv(csv_path)
            matcher.add(t, node_id, CorrespondenceSet(cur=cur, node=node_px))
    return matcher, frames


def read_frame_images(frames: list[CameraFrame]) -> None:
    """Read each frame's ``image_path`` into ``frame.image``; a missing file
    gives a 1x1 black image."""
    from .topomap import read_pgm  # at call time, so a rebound read_pgm is used

    for frame in frames:
        frame.image = (
            read_pgm(frame.image_path)
            if frame.image_path.exists()
            else IntensityImage(np.zeros((1, 1), dtype=np.uint8))
        )
