"""The ``topoloc`` command line: simulate, mapgen, localize, eval.

Exit codes: 0 success, 1 input error (missing/malformed files, bad config),
2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
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
    read_frame_index,
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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: invalid JSON ({exc})")
    except InputError as exc:
        raise InputError(f"{path}: {exc}")


def _check_output(path, flag: str, directory: bool = False) -> None:
    """Fail before any work, naming ``flag``, if ``path`` cannot take the
    command's output: a file, or with ``directory`` a directory that may be
    made together with its parents."""
    path = Path(path)
    if path.exists():
        if path.is_dir() != directory:
            raise InputError(f"{flag} {path}: {'not' if directory else 'is'} a directory")
        base = path
    else:  # the directory the output is made in
        ancestors = path.parents if directory else path.parents[:1]
        base = next((p for p in ancestors if p.exists()), path.parent)
        if not base.is_dir():
            raise InputError(f"{flag} {path}: no directory {base} to write in")
    if not os.access(base, os.W_OK):
        raise InputError(f"{flag} {path}: permission denied")


def _odometry_at(path, frames, cam_to_base: Pose) -> OdometrySequence:
    """The odometry rows of the TUM file ``path`` at the timestamps of
    ``frames``, matched to 9 decimals; a frame without a row is an input error."""
    odo_t, odo_poses = read_tum(path)
    by_t = {round(t, 9): p for t, p in zip(odo_t.tolist(), odo_poses)}
    times = [f.timestamp for f in frames]
    for t in times:
        if round(t, 9) not in by_t:
            raise InputError(f"{path}: no odometry row at frame timestamp {t:.9f}")
    return OdometrySequence(times, [by_t[round(t, 9)] for t in times], cam_to_base)


def _single_pose(path, what: str) -> Pose:
    ts, poses = read_tum(path)
    if len(poses) == 0:
        raise InputError(f"{what} file {path} contains no pose")
    return poses[0]


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args) -> int:
    _check_output(args.out, "--out", directory=True)
    cfg = _read_config(ScenarioConfig, args.scenario, "scenario")
    info = write_scenario_outputs(cfg, args.out)
    print(f"wrote scenario to {info['out']}: {info['n_frames']} frames, {info['n_nodes']} map nodes")
    return 0


def _cmd_mapgen(args) -> int:
    _check_output(args.out, "--out", directory=True)
    points, intensity = read_ply(args.cloud)
    cloud = PointCloud(points, intensity)
    intr = _read_config(CameraIntrinsics, args.intrinsics, "intrinsics")
    cam_to_base = Pose.identity()
    if args.cam_to_base:
        cam_to_base = _read_config(Pose, args.cam_to_base, "cam-to-base")
    initial_pose = _single_pose(args.initial_pose, "initial pose")

    # frames from the index; correspondences from the ground-truth matcher
    frames, _ = read_frame_index(Path(args.frames) / "index.csv")
    odo = _odometry_at(args.odometry, frames, cam_to_base)
    tt, tposes = read_tum(args.truth_cam)
    try:
        matcher = SyntheticMatcher(
            cloud.points,
            {float(t): p for t, p in zip(tt, tposes)},
            intr,
            sigma_px=args.sigma_px,
            outlier_fraction=args.outlier_fraction,
            seed=args.matcher_seed,
        )
    except ValueError as exc:  # the message starts with the parameter's name
        raise InputError(f"--{str(exc).split()[0].replace('_', '-')}: {exc}")
    if args.matcher_seed < 0:  # numpy seeds only from non-negative integers
        raise InputError(f"--matcher-seed: must be non-negative, got {args.matcher_seed}")
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
    _check_output(args.out_traj, "--out-traj")
    if args.out_diag:
        _check_output(args.out_diag, "--out-diag")
    cfg = _read_config(LocalizeConfig, args.config, "localize config")

    topo_map = load_map(args.map)
    imu = read_imu_csv(args.imu)
    speeds = read_speed_csv(args.speed) if args.speed else np.empty((0, 2))
    initial_pose = _single_pose(args.initial_pose, "initial pose")
    matcher, frames = load_recorded_matcher(args.correspondences, Path(args.frames) / "index.csv")

    run = run_localization(
        topo_map, imu, speeds, frames, matcher, initial_pose,
        cfg.intrinsics, cfg.imu_to_cam, cfg.filter,
        init_window_s=cfg.init_window_s,
        dead_reckoning=args.dead_reckoning,
    )
    write_tum(args.out_traj, run.timestamps, run.poses)
    if args.out_diag:
        with Path(args.out_diag).open("w") as fh:
            for dg in run.diagnostics:
                if dg is not None:
                    fh.write(json.dumps(vars(dg)) + "\n")
    n = len(run.timestamps)
    print(f"localized {n} frames -> {args.out_traj}")
    return 0


def _cmd_eval(args) -> int:
    if not args.max_dt >= 0.0:  # NaN too; inf is no limit
        raise InputError(f"--max-dt: must be non-negative, got {args.max_dt}")
    _check_output(args.out, "--out")
    est_t, est_p = read_tum(args.estimate)
    tru_t, tru_p = read_tum(args.truth)
    report = ape(Trajectory(est_t, est_p), Trajectory(tru_t, tru_p), max_dt=args.max_dt)
    Path(args.out).write_text(json.dumps(vars(report), indent=1))
    print(
        f"APEt={report.ape_t_m:.4f} m APEr={report.ape_r_rad:.5f} rad "
        f"lon={report.lon_m:.4f} m lat={report.lat_m:.4f} m ({report.n_pairs} pairs)"
    )
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
    pl.add_argument("--speed", default=None, help="speed CSV; without it no frame uses speed")
    pl.add_argument("--frames", required=True, help="frames directory (with index.csv)")
    pl.add_argument(
        "--correspondences", required=True,
        help="recorded correspondence dir, holding matches.bin (must pair with the --map it was recorded against)",
    )
    pl.add_argument("--initial-pose", required=True, help="TUM file with the known initial IMU pose")
    pl.add_argument("--config", required=True, help="localize config JSON")
    pl.add_argument("--out-traj", required=True, help="output TUM trajectory")
    pl.add_argument("--out-diag", default=None, help="output JSON-lines diagnostics")
    pl.add_argument("--dead-reckoning", action="store_true", help="propagate only, no updates")
    pl.set_defaults(func=_cmd_localize)

    pe = sub.add_parser("eval", help="absolute pose error between estimate and truth")
    pe.add_argument("--estimate", required=True)
    pe.add_argument("--truth", required=True)
    pe.add_argument("--out", required=True, help="output ApeReport JSON, per-frame errors in 'series'")
    pe.add_argument("--max-dt", type=float, default=0.01)
    pe.set_defaults(func=_cmd_eval)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError, PermissionError) as exc:
        # the OSErrors: a path names nothing, a directory where a file belongs
        # (or the reverse), or a file that may not be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TopolocError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
