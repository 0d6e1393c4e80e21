"""The ``topoloc`` command line: simulate, mapgen, localize, eval, plot-data.

Exit codes: 0 success, 1 input error (missing/malformed files, bad config),
2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import from_json
from .errors import EmptyMap, InputError, TopolocError
from .evaluate import Trajectory, ape
from .geometry import CameraIntrinsics, Pose
from .io import read_imu_csv, read_ply, read_speed_csv, read_tum, write_tum
from .mapgen import MapGenParams, OdometrySequence, PointCloud, generate_map
from .matching import SyntheticMatcher
from .scenario import (
    LocalizeConfig,
    ScenarioConfig,
    load_recorded_matcher,
    read_frame_images,
    run_localization,
    write_scenario_outputs,
)
from .topomap import load_map, save_map


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit(2); bad flags are input errors
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_config(cls, path, what: str):
    """The config object ``cls`` read from the JSON file ``path``; errors name the file."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"{what} file not found: {path}")
    try:
        return from_json(cls, json.loads(path.read_text()), what)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})")
    except InputError as exc:
        raise InputError(f"{path}: {exc}")


def _single_pose(path, what: str) -> Pose:
    ts, poses = read_tum(path)
    if len(poses) == 0:
        raise InputError(f"{what} file {path} contains no pose")
    return poses[0]


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args) -> int:
    cfg = _read_config(ScenarioConfig, args.scenario, "scenario")
    info = write_scenario_outputs(cfg, args.out)
    print(f"wrote scenario to {info['out']}: {info['n_frames']} frames, {info['n_nodes']} map nodes")
    return 0


def _cmd_mapgen(args) -> int:
    points, intensity = read_ply(args.cloud)
    cloud = PointCloud(points, intensity)
    intr = _read_config(CameraIntrinsics, args.intrinsics, "intrinsics")
    odo_t, odo_poses = read_tum(args.odometry)
    cam_to_base = Pose.identity()
    if args.cam_to_base:
        cam_to_base = _read_config(Pose, args.cam_to_base, "cam-to-base")
    odo = OdometrySequence(odo_t, odo_poses, cam_to_base)
    initial_pose = _single_pose(args.initial_pose, "initial pose")

    # frames from the index; correspondences from the ground-truth matcher
    _, frames = load_recorded_matcher(Path(args.frames), Path(args.frames) / "index.csv")
    tt, tposes = read_tum(args.truth_cam)
    matcher = SyntheticMatcher(
        cloud.points,
        {float(t): p for t, p in zip(tt, tposes)},
        intr,
        sigma_px=args.sigma_px,
        outlier_fraction=args.outlier_fraction,
        seed=args.matcher_seed,
    )
    read_frame_images(frames)  # an accepted frame's image is stored in its node
    params = MapGenParams(seed=args.matcher_seed)
    result = generate_map(cloud, frames, odo, initial_pose, intr, matcher, params)
    if result.n_accepted == 0:
        why = f"frame 0: {result.reports[0].reason}" if result.reports else "no frame listed"
        raise EmptyMap(f"no frame accepted, no map written; {why}")
    save_map(result.map, args.out)
    report = [
        {
            "frame": r.frame_index, "timestamp": r.timestamp, "accepted": r.accepted,
            "reason": r.reason, "n_matches": r.n_matches, "n_inliers": r.n_inliers,
            "pnp_rms_px": None if np.isnan(r.pnp_rms_px) else r.pnp_rms_px,
        }
        for r in result.reports
    ]
    (Path(args.out) / "mapgen_report.json").write_text(json.dumps(report, indent=1))
    print(
        f"map written to {args.out}: {result.n_accepted}/{len(result.reports)} frames accepted"
    )
    return 0


def _cmd_localize(args) -> int:
    cfg = _read_config(LocalizeConfig, args.config, "localize config")

    map_dir = Path(args.map)
    if not map_dir.exists():
        raise InputError(f"map directory not found: {map_dir}")
    topo_map = load_map(map_dir)
    imu = read_imu_csv(args.imu)
    speeds = read_speed_csv(args.speed) if args.speed else np.empty((0, 2))
    initial_pose = _single_pose(args.initial_pose, "initial pose")
    matcher, frames = load_recorded_matcher(args.correspondences, Path(args.frames) / "index.csv")

    run = run_localization(
        topo_map, imu, speeds, frames, matcher, initial_pose,
        cfg.intrinsics, cfg.imu_to_cam, cfg.filter,
        init_window_s=cfg.init_window_s,
        use_speed=cfg.use_speed and not args.no_speed,
        dead_reckoning=args.dead_reckoning,
    )
    write_tum(args.out_traj, run.timestamps, run.poses)
    if args.out_diag:
        with Path(args.out_diag).open("w") as fh:
            for dg in run.diagnostics:
                if dg is not None:
                    fh.write(json.dumps(dg.as_dict()) + "\n")
    n = len(run.timestamps)
    print(f"localized {n} frames -> {args.out_traj}")
    return 0


def _cmd_eval(args) -> int:
    est_t, est_p = read_tum(args.estimate)
    tru_t, tru_p = read_tum(args.truth)
    report = ape(Trajectory(est_t, est_p), Trajectory(tru_t, tru_p), max_dt=args.max_dt)
    Path(args.out).write_text(json.dumps(report.as_dict(), indent=1))
    print(
        f"APEt={report.ape_t_m:.4f} m APEr={report.ape_r_rad:.5f} rad "
        f"lon={report.lon_m:.4f} m lat={report.lat_m:.4f} m ({report.n_pairs} pairs)"
    )
    return 0


def _cmd_plot_data(args) -> int:
    est_t, est_p = read_tum(args.estimate)
    tru_t, tru_p = read_tum(args.truth)
    report = ape(Trajectory(est_t, est_p), Trajectory(tru_t, tru_p), max_dt=args.max_dt)
    with Path(args.out).open("w") as fh:
        fh.write("t,et,er\n")
        for row in report.series:
            fh.write(f"{row['t']:.9f},{row['et']:.9g},{row['er']:.9g}\n")
    print(f"wrote {len(report.series)} error rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="topoloc", description="Topological-map visual-inertial localization")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="generate a synthetic scenario directory")
    ps.add_argument("--scenario", required=True, help="scenario JSON")
    ps.add_argument("--out", required=True, help="output directory")
    ps.set_defaults(func=_cmd_simulate)

    pm = sub.add_parser("mapgen", help="compile a point-cloud prior into a map bundle")
    pm.add_argument("--cloud", required=True, help="PLY point cloud")
    pm.add_argument("--frames", required=True, help="frames directory (with index.csv)")
    pm.add_argument("--odometry", required=True, help="TUM odometry (baseline frame)")
    pm.add_argument("--initial-pose", required=True, help="TUM file, first line = predicted camera pose of frame 0")
    pm.add_argument("--intrinsics", required=True, help="intrinsics JSON")
    pm.add_argument("--out", required=True, help="output map directory")
    pm.add_argument("--cam-to-base", default=None, help="camera-to-baseline extrinsic JSON")
    pm.add_argument("--truth-cam", required=True, help="TUM of true camera poses (synthetic matcher)")
    pm.add_argument("--sigma-px", type=float, default=0.5)
    pm.add_argument("--outlier-fraction", type=float, default=0.05)
    pm.add_argument("--matcher-seed", type=int, default=0)
    pm.set_defaults(func=_cmd_mapgen)

    pl = sub.add_parser("localize", help="run the filter over a map bundle and sensor logs")
    pl.add_argument("--map", required=True, help="map bundle directory")
    pl.add_argument("--imu", required=True, help="IMU CSV")
    pl.add_argument("--speed", default=None, help="speed CSV")
    pl.add_argument("--frames", required=True, help="frames directory (with index.csv)")
    pl.add_argument(
        "--correspondences", required=True,
        help="recorded correspondence dir (must pair with the --map it was recorded against)",
    )
    pl.add_argument("--initial-pose", required=True, help="TUM file with the known initial IMU pose")
    pl.add_argument("--config", required=True, help="localize config JSON")
    pl.add_argument("--out-traj", required=True, help="output TUM trajectory")
    pl.add_argument("--out-diag", default=None, help="output JSON-lines diagnostics")
    pl.add_argument("--no-speed", action="store_true", help="ignore speed measurements")
    pl.add_argument("--dead-reckoning", action="store_true", help="propagate only, no updates")
    pl.set_defaults(func=_cmd_localize)

    pe = sub.add_parser("eval", help="absolute pose error between estimate and truth")
    pe.add_argument("--estimate", required=True)
    pe.add_argument("--truth", required=True)
    pe.add_argument("--out", required=True, help="output ApeReport JSON")
    pe.add_argument("--max-dt", type=float, default=0.01)
    pe.set_defaults(func=_cmd_eval)

    pp = sub.add_parser("plot-data", help="per-frame error CSV for external plotting")
    pp.add_argument("--estimate", required=True)
    pp.add_argument("--truth", required=True)
    pp.add_argument("--out", required=True, help="output CSV")
    pp.add_argument("--max-dt", type=float, default=0.01)
    pp.set_defaults(func=_cmd_plot_data)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TopolocError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
