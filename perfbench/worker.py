"""One phase of one workload run, in a fresh interpreter.

    python3 perfbench/worker.py <phase> '<spec JSON>'

``perfbench/run.py`` starts this script once per phase so that the import
time and the peak RSS it reports belong to that phase alone. The phases:

* ``setup``   generates a workload's inputs on disk and times that.
* ``measure`` runs the timed phase for ``spec["seconds"]`` and checks every
  output; with ``spec["trace"]`` it alternates untraced and traced passes.
* ``import``  only times ``import topoloc.cli`` and exits.

The last line of stdout is one JSON object with the phase's results.
"""

import sys
import time

t_import = time.perf_counter()
import topoloc.cli as cli  # noqa: E402  (timed: this is the import_s sample)

IMPORT_S = time.perf_counter() - t_import

import calib  # noqa: E402

IMPORT_CALIB = calib.burst()  # the host's speed right after the import

import json  # noqa: E402

if __name__ == "__main__" and sys.argv[1:2] == ["import"]:
    print(json.dumps({"import_s": IMPORT_S, "import_calib_s": IMPORT_CALIB}))
    sys.exit(0)

import hashlib  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from topoloc import evaluate, geometry, io, scenario, sim  # noqa: E402
from topoloc.ieskf import FilterParams  # noqa: E402
from topoloc.matching import CameraFrame, SyntheticMatcher  # noqa: E402
from topoloc.topomap import IntensityImage  # noqa: E402

from spans import Tracer, tail_percentile  # noqa: E402

NOISE = {
    "sigma_accel": 0.02,
    "sigma_gyro": 0.002,
    "bias_accel": [0.02, -0.01, 0.015],
    "bias_gyro": [0.001, -0.0005, 0.0008],
    "sigma_pixel": 1.0,
    "sigma_speed": 0.1,
    "outlier_fraction": 0.2,
}
INIT_WINDOW_S = 1.0
# Acceptance bounds checked on every pass (criteria 3 and 7).
CORRIDOR_APE_T_M, CORRIDOR_APE_R_RAD = 0.10, 0.01
MAPGEN_ACCEPTED, MAPGEN_NODE_T_M, MAPGEN_NODE_R_RAD = 0.95, 0.02, 0.005
STARVED_WORLDS = 6


def derived_seed(base: int, seed: int) -> int:
    """``base + seed``, kept non-negative; the default seeds give the tests' values."""
    return (base + seed) % 2**31


# The worlds of corridor and mapgen are the acceptance tests' (seeds 3 and 7);
# the benchmark seed varies the measurement noise drawn in them. Varying the
# world too spreads APE across seeds by more than the largest allowed bound.
def corridor_scenario(seed: int, smoke: bool) -> dict:
    """Criterion 3: 60 s corridor, 200 Hz IMU, 10 Hz frames, 20 % outliers."""
    return {
        "trajectory": {
            "shape": "corridor-with-turns", "duration_s": 6.0 if smoke else 60.0,
            "speed_mps": 8.0, "imu_rate_hz": 200.0, "frame_rate_hz": 10.0, "seed": 3,
        },
        "world": {"landmark_count": 2500},
        "noise": NOISE,
        "matcher_seed": derived_seed(96, seed),
    }


def mapgen_scenario(smoke: bool) -> dict:
    """Criterion 7: 12 s, 100 Hz IMU, 2000 landmarks."""
    return {
        "trajectory": {
            "shape": "corridor-with-turns", "duration_s": 3.0 if smoke else 12.0,
            "speed_mps": 8.0, "imu_rate_hz": 100.0, "frame_rate_hz": 10.0, "seed": 7,
            "turns": [[30.0, 30.0, 4.0]],
        },
        "world": {"landmark_count": 2000},
    }


def flush(directory: Path) -> None:
    """fsync every file under ``directory``.

    Called after a set-up, outside its timing: ``simulate`` leaves up to
    340 MB of dirty pages, and their writeback would otherwise land in the
    measured passes that follow.
    """
    for root, _, files in os.walk(directory):
        for name in files:
            fd = os.open(os.path.join(root, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def timed_setup(argv: list[str], tracer: Tracer) -> tuple[int, float, list[float]]:
    """``timed_main`` with reference-kernel samples taken just before and after."""
    before = calib.burst()
    rc, wall = timed_main(argv, tracer)
    return rc, wall, before + calib.burst()


def timed_main(argv: list[str], tracer: Tracer) -> tuple[int, float]:
    with tracer.span(f"cli.{argv[0]}"):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        return rc, time.perf_counter() - t0


def pose_errors(poses, truth_poses) -> np.ndarray:
    """Per-pose (translation m, rotation rad) error against the truth."""
    return np.array(
        [(np.linalg.norm(p.translation - q.translation), p.rotation.angle_to(q.rotation))
         for p, q in zip(poses, truth_poses)]
    ).reshape(-1, 2)


def error_figures(errors: np.ndarray) -> dict:
    tail = np.percentile(errors, tail_percentile(len(errors)), axis=0)
    worst = errors.max(axis=0)
    return {
        "err_tail_t_m": float(tail[0]), "err_tail_r_rad": float(tail[1]),
        "worst_err_t_m": float(worst[0]), "worst_err_r_rad": float(worst[1]),
    }


def nees(frame_states, truth_poses) -> dict:
    """Mean NEES of position and rotation, from process_frame's covariance."""
    pos, rot = [], []
    for (t, p, q, p_rot, p_pos), true in zip(frame_states, truth_poses, strict=True):
        e_p = p - true.translation
        e_r = geometry.so3_log(geometry.Rotation(q).inverse() @ true.rotation)
        pos.append(float(e_p @ np.linalg.solve(p_pos, e_p)))
        rot.append(float(e_r @ np.linalg.solve(p_rot, e_r)))
    return {"ieskf.nees_pos_mean": float(np.mean(pos)), "ieskf.nees_rot_mean": float(np.mean(rot))}


def run_passes(spec: dict, tracer: Tracer, one_pass) -> list[dict]:
    """Repeat ``one_pass`` until ``spec["seconds"]`` have gone by.

    Untraced runs do one or more untraced passes. Traced runs alternate
    untraced and traced passes, at least one of each; the spans of the first
    traced pass are written to ``spec["spans"]``.
    """
    passes = []
    start = time.perf_counter()
    while True:
        k = len(passes)
        traced = bool(spec["trace"]) and k % 2 == 1
        tracer.reset()
        tracer.install(full=traced)
        try:
            result = one_pass(k, traced)
        finally:
            tracer.uninstall()
        result["traced"] = traced
        result["frame_s"] = list(tracer.frame_s)
        result["calib_s"] = list(tracer.calib_s)
        result["calib_wall_s"] = tracer.calib_wall_s
        if traced and not any(p["traced"] for p in passes):
            tracer.write(spec["spans"])
            if tracer.frame_states:
                result["frame_states"] = list(tracer.frame_states)
        passes.append(result)
        enough = len(passes) >= (2 if spec["trace"] else 1)
        if enough and time.perf_counter() - start >= spec["seconds"]:
            return passes


# ---------------------------------------------------------------------------
# corridor: file replay through the CLI

def simulate(out: Path, scenario_json: dict, tracer: Tracer) -> tuple[int, float, list[float]]:
    """Timed ``cli simulate`` of ``scenario_json`` into a fresh ``out/sim``."""
    shutil.rmtree(out / "sim", ignore_errors=True)
    (out / "scenario.json").write_text(json.dumps(scenario_json))
    return timed_setup(["simulate", "--scenario", str(out / "scenario.json"), "--out", str(out / "sim")], tracer)


def corridor_setup(spec: dict, tracer: Tracer) -> dict:
    out = Path(spec["dir"])
    rc, wall, calib_s = simulate(out, corridor_scenario(spec["seed"], spec["smoke"]), tracer)
    flush(out / "sim")
    return {"ok": rc == 0, "setup_s": wall, "calib_s": calib_s}


def corridor_measure(spec: dict, tracer: Tracer) -> dict:
    out = Path(spec["dir"])
    simdir = out / "sim"
    index = (simdir / "frames" / "index.csv").read_text().splitlines()[1:]
    n_expected = sum(1 for line in index if float(line.split(",")[1]) >= INIT_WINDOW_S - 1e-9)
    truth_t, truth_poses = io.read_tum(simdir / "ground_truth_frames.tum")
    truth = {round(t, 9): p for t, p in zip(truth_t, truth_poses)}

    def one_pass(k, traced):
        est, diag, report = out / f"est_{k}.tum", out / f"diag_{k}.jsonl", out / f"ape_{k}.json"
        rc1, t_loc = timed_main(
            [
                "localize", "--map", str(simdir / "map"), "--imu", str(simdir / "imu.csv"),
                "--speed", str(simdir / "speed.csv"), "--frames", str(simdir / "frames"),
                "--correspondences", str(simdir / "correspondences"),
                "--initial-pose", str(simdir / "initial_pose.tum"),
                "--config", str(simdir / "localize_config.json"),
                "--out-traj", str(est), "--out-diag", str(diag),
            ],
            tracer,
        )
        rc2, t_eval = timed_main(
            ["eval", "--estimate", str(est), "--truth", str(simdir / "ground_truth_frames.tum"), "--out", str(report)],
            tracer,
        )
        res = {"wall_s": t_loc + t_eval, "errors": []}
        if rc1 != 0 or rc2 != 0:
            res["errors"].append(f"exit codes localize={rc1} eval={rc2}")
            return res
        rep = json.loads(report.read_text())
        flags = [json.loads(line)["flags"] for line in diag.read_text().splitlines()]
        est_t, est_poses = io.read_tum(est)
        res.update(
            frames=len(est_t),
            ok_frames=sum(1 for f in flags if "speed_only" not in f and "no_update" not in f),
            ape_t_m=rep["ape_t_m"], ape_r_rad=rep["ape_r_rad"],
            digest=hashlib.sha256(est.read_bytes()).hexdigest(),
            **error_figures(pose_errors(est_poses, [truth[round(t, 9)] for t in est_t])),
        )
        if len(est_t) != n_expected:
            res["errors"].append(f"{len(est_t)} trajectory poses, expected {n_expected}")
        if not (rep["ape_t_m"] < CORRIDOR_APE_T_M and rep["ape_r_rad"] < CORRIDOR_APE_R_RAD):
            res["errors"].append(f"APE {rep['ape_t_m']:.4f} m / {rep['ape_r_rad']:.5f} rad over bounds")
        return res

    passes = run_passes(spec, tracer, one_pass)
    for p in passes:
        if "frame_states" in p:
            states = p.pop("frame_states")
            p["layer"] = nees(states, [truth[round(s[0], 9)] for s in states])
    return {"passes": passes}


# ---------------------------------------------------------------------------
# mapgen: the offline map compiler through the CLI

def mapgen_setup(spec: dict, tracer: Tracer) -> dict:
    out = Path(spec["dir"])
    rc, wall, calib_s = simulate(out, mapgen_scenario(spec["smoke"]), tracer)
    if rc != 0:
        return {"ok": False, "setup_s": wall, "calib_s": calib_s}
    # Criterion 7's start: the first camera pose moved by 0.5 m and 2 degrees.
    t0 = time.perf_counter()
    rng = np.random.default_rng(derived_seed(100, spec["seed"]))
    axis = rng.normal(0, 1, 3)
    axis /= np.linalg.norm(axis)
    direction = rng.normal(0, 1, 3)
    direction /= np.linalg.norm(direction)
    perturb = geometry.Pose(geometry.so3_exp(axis * np.deg2rad(2.0)), direction * 0.5)
    ts, poses = io.read_tum(out / "sim" / "initial_pose_cam.tum")
    io.write_tum(out / "sim" / "start_perturbed.tum", ts, [poses[0] @ perturb])
    setup_s = wall + time.perf_counter() - t0
    flush(out / "sim")
    return {"ok": True, "setup_s": setup_s, "calib_s": calib_s}


def mapgen_measure(spec: dict, tracer: Tracer) -> dict:
    out = Path(spec["dir"])
    simdir = out / "sim"
    truth_t, truth_poses = io.read_tum(simdir / "ground_truth_cam.tum")
    truth = {round(t, 9): p for t, p in zip(truth_t, truth_poses)}

    def one_pass(k, traced):
        mapdir = out / f"map_{k}"
        rc, wall = timed_main(
            [
                "mapgen", "--cloud", str(simdir / "landmarks.ply"), "--frames", str(simdir / "frames"),
                "--odometry", str(simdir / "odometry_body.tum"),
                "--initial-pose", str(simdir / "start_perturbed.tum"),
                "--intrinsics", str(simdir / "intrinsics.json"),
                "--cam-to-base", str(simdir / "cam_to_base.json"),
                "--truth-cam", str(simdir / "ground_truth_cam.tum"),
                "--matcher-seed", str(derived_seed(10, spec["seed"])), "--out", str(mapdir),
            ],
            tracer,
        )
        res = {"wall_s": wall, "errors": []}
        if rc != 0:
            res["errors"].append(f"mapgen exit code {rc}")
            return res
        report = json.loads((mapdir / "mapgen_report.json").read_text())
        nodes = json.loads((mapdir / "manifest.json").read_text())["nodes"]
        node_t = np.array([n["timestamp"] for n in nodes])
        node_poses = [geometry.Pose(geometry.Rotation.from_quat_xyzw(n["q"]), n["t"]) for n in nodes]
        shutil.rmtree(mapdir)
        accepted = sum(1 for r in report if r["accepted"])
        rep = evaluate.ape(evaluate.Trajectory(node_t, node_poses), evaluate.Trajectory(truth_t, truth_poses))
        res.update(
            frames=len(report), ok_frames=accepted, ape_t_m=rep.ape_t_m, ape_r_rad=rep.ape_r_rad,
            **error_figures(pose_errors(node_poses, [truth[round(t, 9)] for t in node_t])),
        )
        if accepted != len(nodes) or accepted < MAPGEN_ACCEPTED * len(report):
            res["errors"].append(f"{accepted}/{len(report)} frames accepted, {len(nodes)} nodes")
        if not (res["worst_err_t_m"] < MAPGEN_NODE_T_M and res["worst_err_r_rad"] < MAPGEN_NODE_R_RAD):
            res["errors"].append(
                f"worst node error {res['worst_err_t_m']:.4f} m / {res['worst_err_r_rad']:.5f} rad over bounds"
            )
        return res

    return {"passes": run_passes(spec, tracer, one_pass)}


# ---------------------------------------------------------------------------
# starved: criterion-4 feature-starved corridors, in memory

def starved_world(seed: int, tracer: Tracer) -> dict:
    intr, extr = scenario.default_intrinsics(), scenario.default_extrinsics()
    spec = sim.TrajectorySpec(
        shape="corridor-with-turns", duration_s=27.0, speed_mps=8.0, imu_rate_hz=200.0,
        frame_rate_hz=10.0, seed=derived_seed(200, seed), turns=((20.0, 60.0, 4.0),),
    )
    noise = sim.SensorNoiseSpec(**NOISE)
    with tracer.span("sim.gen_world"):
        world = sim.gen_world(
            spec, landmark_count=1500,
            corridor=sim.CorridorGeometry(sparse_window=(16.0, 376.0), sparse_count=8),
        )
    with tracer.span("sim.synthesize_imu"):
        imu = sim.synthesize_imu(world, noise)
    with tracer.span("sim.synthesize_speed"):
        speeds = sim.synthesize_speed(world, noise)
    with tracer.span("sim.build_reference_map"):
        topo = sim.build_reference_map(world, intr, 5.0, extr)
    ft = sim.frame_times(world)
    cam_poses = {t: sim.camera_pose_at(world, t, extr) for t in ft}
    matcher = SyntheticMatcher(
        world.landmarks, cam_poses, intr, sigma_px=1.0, outlier_fraction=0.2,
        seed=derived_seed(300, seed),
    )
    image = IntensityImage(np.zeros((intr.height, intr.width), np.uint8))
    frames = [CameraFrame(timestamp=t, image=image) for t in ft]
    kept = [t for t in ft if t >= INIT_WINDOW_S - 1e-9]
    truth = evaluate.Trajectory(np.array(kept), [world.eval(t)[0] for t in kept])
    args = (topo, imu, speeds, frames, matcher, world.poses[0], intr, extr, FilterParams())
    return {"args": args, "truth": truth}


def starved_measure(spec: dict, tracer: Tracer) -> dict:
    n_worlds = 1 if spec["smoke"] else STARVED_WORLDS
    seeds = [n_worlds * spec["seed"] + i for i in range(n_worlds)]
    worlds, setup_s, calib_s = [], [], calib.burst()
    for s in seeds:
        t0 = time.perf_counter()
        worlds.append(starved_world(s, Tracer()))
        setup_s.append(time.perf_counter() - t0)
    calib_s += calib.burst()

    def one_pass(k, traced):
        res = {"wall_s": 0.0, "frames": 0, "ok_frames": 0, "errors": [], "ape": [], "pose_err": []}
        if traced:  # one traced world set-up, so that sim.* is measured
            with tracer.span("sim.starved_world"):
                starved_world(seeds[0], tracer)
        for w in worlds:
            t0 = time.perf_counter()
            with tracer.span("scenario.run_localization"):
                run = scenario.run_localization(*w["args"])
            with tracer.span("evaluate.ape"):
                rep = evaluate.ape(run.trajectory(), w["truth"])
            res["wall_s"] += time.perf_counter() - t0
            flags = [d.flags for d in run.diagnostics]
            res["frames"] += len(run.timestamps)
            res["ok_frames"] += sum(1 for f in flags if "speed_only" not in f and "no_update" not in f)
            res["ape"].append((rep.ape_t_m, rep.ape_r_rad))
            res["pose_err"].append(pose_errors(run.poses, w["truth"].poses))
            if len(run.timestamps) != len(w["truth"]):
                res["errors"].append(f"{len(run.timestamps)} poses, expected {len(w['truth'])}")
        res["digest"] = json.dumps(res["ape"])
        res["ape_t_m"], res["ape_r_rad"] = (float(v) for v in np.mean(res.pop("ape"), axis=0))
        res.update(error_figures(np.concatenate(res.pop("pose_err"))))
        return res

    passes = run_passes(spec, tracer, one_pass)
    for p in passes:
        if "frame_states" in p:
            p["layer"] = nees(p.pop("frame_states"), [pose for w in worlds for pose in w["truth"].poses])
    return {"passes": passes, "setup_s": setup_s, "setup_calib_s": calib_s}


# ---------------------------------------------------------------------------

PHASES = {
    ("setup", "corridor"): corridor_setup,
    ("measure", "corridor"): corridor_measure,
    ("setup", "mapgen"): mapgen_setup,
    ("measure", "mapgen"): mapgen_measure,
    ("measure", "starved"): starved_measure,
}


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def main(argv: list[str]) -> int:
    phase, spec = argv[0], json.loads(argv[1])
    result = {"import_s": IMPORT_S, "import_calib_s": IMPORT_CALIB}
    tracer = Tracer()
    if phase == "setup" and spec["trace"]:
        tracer.install(full=True)
    result.update(PHASES[(phase, spec["workload"])](spec, tracer))
    if tracer.full:
        tracer.uninstall()
        tracer.write(spec["spans"])
    if phase == "measure":
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
