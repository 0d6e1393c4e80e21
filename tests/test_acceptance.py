"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The corridor scenario shared by criteria 3, 9 and 10 runs once via the
CLI (simulate -> localize x2 -> dead-reckoning run) in a module fixture.
"""

import json
import time

import numpy as np
import pytest

from topoloc.cli import main
from topoloc.evaluate import Trajectory, ape
from topoloc.geometry import (
    CameraIntrinsics,
    Pose,
    Rotation,
    project,
    so3_exp,
    so3_log,
    unproject,
)
from topoloc.ieskf import (
    ERR_DIM,
    FilterParams,
    box_minus,
    box_plus,
    error_transition_matrix,
    jacobian_feature,
    jacobian_speed,
    propagate_state,
    residual_feature,
    residual_speed,
)
from topoloc.io import read_tum
from topoloc.mapgen import (
    MapGenParams,
    OdometrySequence,
    generate_map,
    solve_pnp,
)
from topoloc.matching import (
    CameraFrame,
    Matched3D2D,
    ReprojectedSet,
    SyntheticMatcher,
    statistical_outlier_removal,
)
from topoloc.scenario import (
    default_extrinsics,
    default_intrinsics,
    run_localization,
)
from topoloc.sim import (
    CorridorGeometry,
    SensorNoiseSpec,
    TrajectorySpec,
    build_reference_map,
    count_visible,
    frame_times,
    gen_world,
    synthesize_imu,
    synthesize_speed,
)
from topoloc.topomap import DepthImage, IntensityImage, TopoNode, TopologicalMap

from conftest import imu_row, random_state

FD_STEP = 1e-6

# Criterion-3 scenario: 60 s corridor, 200 Hz IMU, 10 Hz frames,
# sigma_pixel = 1 px, sigma_speed = 0.1 m/s, 20 % match outliers, fixed seed.
CORRIDOR_SCENARIO = {
    "trajectory": {
        "shape": "corridor-with-turns",
        "duration_s": 60.0,
        "speed_mps": 8.0,
        "imu_rate_hz": 200.0,
        "frame_rate_hz": 10.0,
        "seed": 3,
    },
    "world": {"landmark_count": 2500},
    "noise": {
        "sigma_accel": 0.02,
        "sigma_gyro": 0.002,
        "bias_accel": [0.02, -0.01, 0.015],
        "bias_gyro": [0.001, -0.0005, 0.0008],
        "sigma_pixel": 1.0,
        "sigma_speed": 0.1,
        "outlier_fraction": 0.2,
    },
}


def fd_state_jacobian(fun, x, out_dim):
    jac = np.zeros((out_dim, ERR_DIM))
    for j in range(ERR_DIM):
        e = np.zeros(ERR_DIM)
        e[j] = FD_STEP
        jac[:, j] = (fun(box_plus(x, e)) - fun(box_plus(x, -e))) / (2 * FD_STEP)
    return jac


@pytest.fixture(scope="module")
def corridor_run(tmp_path_factory):
    """simulate + localize (twice) + dead reckoning + no-update diagnostics."""
    root = tmp_path_factory.mktemp("acceptance")
    scen = root / "scenario.json"
    scen.write_text(json.dumps(CORRIDOR_SCENARIO))
    sim = root / "sim"
    assert main(["simulate", "--scenario", str(scen), "--out", str(sim)]) == 0

    def localize(tag, extra=()):
        out_traj = root / f"est_{tag}.tum"
        out_diag = root / f"diag_{tag}.jsonl"
        args = [
            "localize",
            "--map", str(sim / "map"),
            "--imu", str(sim / "imu.csv"),
            "--speed", str(sim / "speed.csv"),
            "--frames", str(sim / "frames"),
            "--correspondences", str(sim / "correspondences"),
            "--initial-pose", str(sim / "initial_pose.tum"),
            "--config", str(sim / "localize_config.json"),
            "--out-traj", str(out_traj),
            "--out-diag", str(out_diag),
            *extra,
        ]
        assert main(args) == 0
        return out_traj, out_diag

    t0 = time.time()
    est_a, diag_a = localize("a")
    localize_runtime = time.time() - t0
    est_b, _ = localize("b")
    est_dr, _ = localize("dr", ["--dead-reckoning"])

    truth = sim / "ground_truth_frames.tum"
    rep = ape(
        Trajectory(*read_tum(est_a)), Trajectory(*read_tum(truth))
    )
    rep_dr = ape(
        Trajectory(*read_tum(est_dr)), Trajectory(*read_tum(truth))
    )
    return {
        "est_a": est_a,
        "est_b": est_b,
        "diag_a": diag_a,
        "ape": rep,
        "ape_dr": rep_dr,
        "localize_runtime": localize_runtime,
    }


def test_criterion_1_jacobian_suite(intr, forward_extrinsics):
    """H_i, H_v, F_x match central finite differences, 100+ configs, <1e-5."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_f = worst_h = worst_v = 0.0
    for _ in range(100):
        x = random_state(rng)
        imu = imu_row(
            0.0, accel=rng.normal(0, 3, 3) + [0, 0, 9.81], gyro=rng.normal(0, 1.0, 3)
        )
        dt = rng.uniform(0.002, 0.01)
        f_analytic = error_transition_matrix(x, imu, dt)
        fd = np.zeros((ERR_DIM, ERR_DIM))
        for j in range(ERR_DIM):
            e = np.zeros(ERR_DIM)
            e[j] = FD_STEP
            fd[:, j] = box_minus(
                propagate_state(box_plus(x, e), imu, dt),
                propagate_state(box_plus(x, -e), imu, dt),
            ) / (2 * FD_STEP)
        worst_f = max(worst_f, np.linalg.norm(f_analytic - fd) / np.linalg.norm(fd))

        q_target = np.array([rng.normal(0, 2), rng.normal(0, 2), rng.uniform(2, 40)])
        m = (x.pose() @ forward_extrinsics.inverse()).apply(q_target)
        f_px = rng.uniform([0, 0], [intr.width, intr.height])
        h = jacobian_feature(x, m, forward_extrinsics, intr)
        fd_h = fd_state_jacobian(
            lambda s: residual_feature(s, m, f_px, forward_extrinsics, intr), x, 2
        )
        worst_h = max(worst_h, np.linalg.norm(h - fd_h) / np.linalg.norm(fd_h))

        sp = rng.uniform(0, 20)
        hv = jacobian_speed(x, sp)
        fd_v = fd_state_jacobian(lambda s: residual_speed(s, sp), x, 3)
        worst_v = max(worst_v, np.linalg.norm(hv - fd_v) / max(np.linalg.norm(fd_v), 1e-12))
    runtime = time.time() - t0
    assert worst_f < 1e-5
    assert worst_h < 1e-5
    assert worst_v < 1e-5
    assert runtime < 10.0
    print(
        f"\ncriterion 1 PASS: Jacobians vs finite differences over 100 configs "
        f"(F_x {worst_f:.2e}, H_i {worst_h:.2e}, H_v {worst_v:.2e}; {runtime:.1f} s)"
    )


def test_criterion_2_manifold_suite(intr):
    """exp/log, box ops, project/unproject round-trips; 10k cases, <5 s."""
    t0 = time.time()
    rng = np.random.default_rng(102)

    worst_log = 0.0
    for _ in range(4000):
        t = rng.normal(0, 1, 3)
        n = np.linalg.norm(t)
        if n >= np.pi:
            t *= (np.pi - 1e-6) / n
        worst_log = max(worst_log, float(np.linalg.norm(so3_log(so3_exp(t)) - t)))
    assert worst_log < 1e-10

    worst_px = 0.0
    for _ in range(3000):
        f = rng.uniform([0, 0], [intr.width, intr.height])
        d = rng.uniform(0.1, 180.0)
        worst_px = max(worst_px, float(np.max(np.abs(project(intr, unproject(intr, f, d)) - f))))
    assert worst_px < 1e-9

    worst_box = 0.0
    for _ in range(3000):
        x = random_state(rng)
        d = rng.normal(0, 0.5, ERR_DIM)
        worst_box = max(worst_box, float(np.linalg.norm(box_minus(box_plus(x, d), x) - d)))
    assert worst_box < 1e-10

    runtime = time.time() - t0
    assert runtime < 5.0
    print(
        f"\ncriterion 2 PASS: 10k manifold round-trips "
        f"(log {worst_log:.2e}, pixel {worst_px:.2e}, box {worst_box:.2e}; {runtime:.1f} s)"
    )


def test_criterion_3_filter_consistency(corridor_run):
    """60 s corridor: APEt < 0.10 m, APEr < 0.01 rad, 10x under dead reckoning."""
    rep, rep_dr = corridor_run["ape"], corridor_run["ape_dr"]
    runtime = corridor_run["localize_runtime"]
    assert rep.ape_t_m < 0.10
    assert rep.ape_r_rad < 0.01
    assert rep_dr.ape_t_m >= 10.0 * rep.ape_t_m
    assert runtime < 60.0
    print(
        f"\ncriterion 3 PASS: APEt {rep.ape_t_m:.4f} m, APEr {rep.ape_r_rad:.5f} rad, "
        f"dead-reckoning ratio {rep_dr.ape_t_m / rep.ape_t_m:.0f}x, localize {runtime:.1f} s"
    )


def test_criterion_4_speed_aiding_ablation():
    """Feature-sparse corridor: speed aiding beats no-speed, median >= 1.5x."""
    intr = default_intrinsics()
    extr = default_extrinsics()
    ratios = []
    for seed in range(10):
        spec = TrajectorySpec(
            shape="corridor-with-turns", duration_s=27.0, speed_mps=8.0,
            imu_rate_hz=200.0, frame_rate_hz=10.0, seed=200 + seed,
            turns=((20.0, 60.0, 4.0),),
        )
        corridor = CorridorGeometry(sparse_window=(16.0, 376.0), sparse_count=8)
        world = gen_world(spec, landmark_count=1500, corridor=corridor)
        # the starved stretch: every frame in [4 s, 24 s] sees at most 10
        ft = frame_times(world)
        sparse_frames = [t for t in ft if 4.0 <= t <= 24.0]
        assert len(sparse_frames) >= 200  # 20 s at 10 Hz
        counts = [count_visible(world, intr, extr, t) for t in sparse_frames[::10]]
        assert max(counts) <= 10

        noise = SensorNoiseSpec(
            sigma_accel=0.02, sigma_gyro=0.002,
            bias_accel=[0.02, -0.01, 0.015], bias_gyro=[0.001, -0.0005, 0.0008],
            sigma_pixel=1.0, sigma_speed=0.1, outlier_fraction=0.2,
        )
        imu = synthesize_imu(world, noise)
        speeds = synthesize_speed(world, noise)
        topo = build_reference_map(world, intr, 5.0, extr)
        body_poses = world.poses_at(ft)
        cam_to_body = extr.inverse()
        cam_poses = {t: p @ cam_to_body for t, p in zip(ft, body_poses)}
        matcher = SyntheticMatcher(
            world.landmarks, cam_poses, intr, sigma_px=1.0, outlier_fraction=0.2,
            seed=300 + seed,
        )
        img = IntensityImage(np.zeros((intr.height, intr.width), np.uint8))
        frames = [CameraFrame(timestamp=t, image=img) for t in ft]
        after_init = ft >= 1.0 - 1e-9
        truth = Trajectory(ft[after_init], [p for p, keep in zip(body_poses, after_init) if keep])
        apes = {}
        for use_speed in (True, False):
            run = run_localization(
                topo, imu, speeds, frames, matcher, world.poses[0], intr, extr,
                FilterParams(), use_speed=use_speed,
            )
            apes[use_speed] = ape(run.trajectory(), truth).ape_t_m
        assert apes[True] <= apes[False], f"seed {seed}: {apes}"
        ratios.append(apes[False] / apes[True])
    median_ratio = float(np.median(ratios))
    assert median_ratio >= 1.5
    print(
        f"\ncriterion 4 PASS: speed aiding improves APEt on all 10 seeds, "
        f"median ratio {median_ratio:.2f}x (min {min(ratios):.2f})"
    )


def test_criterion_5_outlier_filter():
    """Gate equals the direct two-inequality oracle; displaced outliers die."""
    rng = np.random.default_rng(105)

    def oracle_mask(delta, sigma_th):
        mean = delta.mean(axis=0)
        return np.all(np.abs(delta - mean) < 3 * sigma_th, axis=1)

    def as_reprojected(cur, reproj):
        n = len(cur)
        return ReprojectedSet(
            cur=cur, reproj=reproj, points_global=np.zeros((n, 3)), keep=np.ones(n, bool)
        )

    for _ in range(1000):
        n = int(rng.integers(1, 80))
        cur = rng.uniform(0, 640, (n, 2))
        reproj = cur + rng.normal(0, rng.uniform(0.3, 25), (n, 2))
        sigma = float(rng.uniform(0.5, 5.0))
        kept = statistical_outlier_removal(as_reprojected(cur, reproj), sigma)
        mask = oracle_mask(reproj - cur, sigma)
        assert {tuple(p) for p in kept.cur[kept.keep]} == {tuple(p) for p in cur[mask]}

    sigma_th = 2.0
    for seed in range(100):
        r2 = np.random.default_rng(seed)
        n_in, n_out = 80, 20  # 20 % gross outliers
        cur = r2.uniform(0, 640, (n_in + n_out, 2))
        inlier_mean = r2.uniform(-3, 3, 2)
        delta = inlier_mean + r2.normal(0, 0.8, (n_in + n_out, 2))
        # displace outliers > 6 sigma_th from the inlier mean, random direction
        ang = r2.uniform(0, 2 * np.pi, n_out)
        mag = r2.uniform(6.001 * sigma_th, 9 * sigma_th, n_out)
        delta[n_in:] = inlier_mean + np.column_stack([mag * np.cos(ang), mag * np.sin(ang)])
        kept = statistical_outlier_removal(as_reprojected(cur, cur + delta), sigma_th)
        kept_set = {tuple(p) for p in kept.cur[kept.keep]}
        survivors = sum(1 for p in cur[n_in:] if tuple(p) in kept_set)
        assert survivors == 0, f"seed {seed}: {survivors} gross outliers survived"
    print("\ncriterion 5 PASS: gate == oracle on 1000 instances; 0/2000 gross outliers survive")


def test_criterion_6_pnp(intr):
    """Noiseless recovery 1e-6 m / 1e-7 rad; noisy 95th pct < 0.02 m / 0.002 rad."""
    rng = np.random.default_rng(106)

    def problem(noise_px):
        cam = Pose(so3_exp(rng.normal(0, 0.4, 3)), rng.normal(0, 5, 3))
        pts_cam = np.column_stack(
            [rng.normal(0, 4, 100), rng.normal(0, 3, 100), rng.uniform(3, 50, 100)]
        )
        world = cam.apply(pts_cam)
        px = np.column_stack(
            [
                intr.fx * pts_cam[:, 0] / pts_cam[:, 2] + intr.cx,
                intr.fy * pts_cam[:, 1] / pts_cam[:, 2] + intr.cy,
            ]
        )
        if noise_px:
            px = px + rng.normal(0, noise_px, px.shape)
        return Matched3D2D(world, px), cam.inverse()

    matches, truth = problem(0.0)
    res = solve_pnp(matches, intr)
    t_err = float(np.linalg.norm(res.pose.translation - truth.translation))
    r_err = res.pose.rotation.angle_to(truth.rotation)
    assert t_err < 1e-6 and r_err < 1e-7

    t_errs, r_errs = [], []
    for _ in range(100):
        matches, truth_i = problem(0.5)
        res_i = solve_pnp(matches, intr)
        t_errs.append(float(np.linalg.norm(res_i.pose.translation - truth_i.translation)))
        r_errs.append(res_i.pose.rotation.angle_to(truth_i.rotation))
    t95 = float(np.percentile(t_errs, 95))
    r95 = float(np.percentile(r_errs, 95))
    assert t95 < 0.02 and r95 < 0.002
    print(
        f"\ncriterion 6 PASS: noiseless ({t_err:.1e} m, {r_err:.1e} rad); "
        f"0.5 px noise 95th pct ({t95:.4f} m, {r95:.5f} rad)"
    )


def test_criterion_7_mapgen_end_to_end(intr):
    """Map build with 0.5 m / 2 deg perturbed start: nodes within tolerance."""
    rng = np.random.default_rng(107)
    extr = default_extrinsics()
    spec = TrajectorySpec(
        shape="corridor-with-turns", duration_s=12.0, speed_mps=8.0,
        imu_rate_hz=100.0, frame_rate_hz=10.0, seed=7, turns=((30.0, 30.0, 4.0),),
    )
    world = gen_world(spec, landmark_count=2000)
    cloud = world.point_cloud()
    ft = frame_times(world)
    body_poses = world.poses_at(ft)
    cam_to_body = extr.inverse()
    cam_poses = [p @ cam_to_body for p in body_poses]
    odo = OdometrySequence(ft, body_poses, cam_to_body)
    matcher = SyntheticMatcher(
        world.landmarks, {t: c for t, c in zip(ft, cam_poses)}, intr,
        sigma_px=0.5, outlier_fraction=0.05, seed=17,
    )
    img = IntensityImage(np.zeros((intr.height, intr.width), np.uint8))
    frames = [CameraFrame(timestamp=t, image=img) for t in ft]
    axis = rng.normal(0, 1, 3)
    axis /= np.linalg.norm(axis)
    direction = rng.normal(0, 1, 3)
    direction /= np.linalg.norm(direction)
    perturb = Pose(so3_exp(axis * np.deg2rad(2.0)), direction * 0.5)
    result = generate_map(
        cloud, frames, odo, cam_poses[0] @ perturb, intr, matcher, MapGenParams(seed=5)
    )
    frac = result.n_accepted / len(frames)
    assert frac >= 0.95
    worst_t = worst_r = 0.0
    truth_by_t = {round(t, 9): c for t, c in zip(ft, cam_poses)}
    for node in result.map.nodes:
        truth = truth_by_t[round(node.timestamp, 9)]
        worst_t = max(worst_t, float(np.linalg.norm(node.pose.translation - truth.translation)))
        worst_r = max(worst_r, node.pose.rotation.angle_to(truth.rotation))
    assert worst_t < 0.02
    assert worst_r < 0.005
    print(
        f"\ncriterion 7 PASS: {result.n_accepted}/{len(frames)} frames accepted, "
        f"worst node error {worst_t * 1000:.1f} mm / {worst_r * 1000:.2f} mrad"
    )


def test_criterion_8_kdtree_exact():
    """nearest_node equals the brute-force argmin on 100 queries, 1000 nodes."""
    rng = np.random.default_rng(108)
    tiny = CameraIntrinsics(fx=10.0, fy=10.0, cx=2.0, cy=2.0, width=4, height=4)
    topo = TopologicalMap(tiny)
    positions = rng.uniform(-500, 500, (1000, 3))
    depth = DepthImage.from_dense(np.ones((4, 4), np.float32))
    image = IntensityImage(np.zeros((4, 4), np.uint8))
    for i, p in enumerate(positions):
        topo.insert_node(
            TopoNode(i, depth, image, Pose(Rotation.identity(), p), float(i), tiny)
        )
    for _ in range(100):
        q = rng.uniform(-600, 600, 3)
        got = topo.nearest_node(q).node_id
        want = int(np.argmin(np.linalg.norm(positions - q, axis=1)))
        assert got == want
    print("\ncriterion 8 PASS: nearest_node == brute force on 100/100 queries")


def test_criterion_9_iterated_update_behavior(corridor_run):
    """iterations <= kappa_max in >=99 % of frames; cost never rises, 100 %."""
    lines = [json.loads(l) for l in corridor_run["diag_a"].read_text().splitlines()]
    assert lines
    kappa_max = FilterParams().kappa_max
    n_updates = [d for d in lines if "no_update" not in d["flags"]]
    within = sum(1 for d in n_updates if d["iterations"] <= kappa_max)
    assert within / len(n_updates) >= 0.99
    cost_ok = sum(1 for d in n_updates if d["cost_final"] <= d["cost0"] + 1e-9)
    assert cost_ok == len(n_updates)
    print(
        f"\ncriterion 9 PASS: {within}/{len(n_updates)} frames within kappa_max, "
        f"cost non-increasing on {cost_ok}/{len(n_updates)}"
    )


def test_criterion_10_determinism(corridor_run):
    """Two localize runs on identical inputs emit byte-identical trajectories."""
    a = corridor_run["est_a"].read_bytes()
    b = corridor_run["est_b"].read_bytes()
    assert a == b
    print(f"\ncriterion 10 PASS: trajectory files byte-identical ({len(a)} bytes)")
