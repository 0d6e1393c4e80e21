"""Filter core: propagation, residuals/Jacobians vs finite differences, the
iterated MAP update, initialization, and the per-frame pipeline."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from topoloc import ieskf
from topoloc.errors import (
    EmptyMap,
    InsufficientStationaryData,
    NoMeasurements,
    NonFiniteInput,
    NonPositiveDt,
    PointBehindCamera,
    SingularNormalMatrix,
)
from topoloc.geometry import (
    Pose,
    Rotation,
    inv_right_jacobian_so3,
    projection_jacobian,
    quat_to_matrix,
    right_jacobian_so3,
    skew,
    so3_exp,
    so3_exp_quat,
)
from topoloc.ieskf import (
    BA,
    BW,
    ERR_DIM,
    GRAV,
    H_COLS,
    MAX_IMU_DT_S,
    MIN_FEATURE_DEPTH_M,
    POS,
    ROT,
    VEL,
    FilterParams,
    FrameDiagnostics,
    LocalizationFilter,
    NoiseParams,
    NominalState,
    box_minus,
    box_plus,
    error_transition_matrix,
    initialize,
    iterated_update,
    jacobian_feature,
    jacobian_speed,
    project_features,
    propagate,
    propagate_state,
    process_noise_density,
    residual_feature,
    residual_speed,
    split_imu_stream,
    _stack_measurements,
)
from topoloc.matching import CameraFrame, CorrespondenceSet, Matched3D2D
from topoloc.topomap import DepthImage, IntensityImage, TopologicalMap, TopoNode

from conftest import imu_row, random_state

GRAVITY = np.array([0.0, 0.0, -9.81])
FD_STEP = 1e-6


def fd_jacobian(fun, x, out_dim, h=FD_STEP):
    """Central differences of fun(state) under box_plus perturbations."""
    jac = np.zeros((out_dim, ERR_DIM))
    for j in range(ERR_DIM):
        e = np.zeros(ERR_DIM)
        e[j] = h
        jac[:, j] = (fun(box_plus(x, e)) - fun(box_plus(x, -e))) / (2 * h)
    return jac


class TestBoxOps:
    def test_zero_tangent(self):
        rng = np.random.default_rng(0)
        x = random_state(rng)
        y = box_plus(x, np.zeros(ERR_DIM))
        assert np.linalg.norm(box_minus(y, x)) < 1e-15

    def test_self_difference_is_zero(self):
        rng = np.random.default_rng(1)
        x = random_state(rng)
        np.testing.assert_allclose(box_minus(x, x), np.zeros(ERR_DIM), atol=1e-15)

    def test_round_trip_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = random_state(rng)
            d = rng.normal(0, 0.5, ERR_DIM)
            np.testing.assert_allclose(box_minus(box_plus(x, d), x), d, atol=1e-10)

    def test_rotation_composes_on_the_right(self):
        rng = np.random.default_rng(3)
        x = random_state(rng)
        d = np.zeros(ERR_DIM)
        d[ROT] = [0.1, -0.2, 0.05]
        y = box_plus(x, d)
        expected = x.rotation.as_matrix() @ so3_exp(d[ROT]).as_matrix()
        np.testing.assert_allclose(y.rotation.as_matrix(), expected, atol=1e-12)


class TestPropagate:
    def test_stationary_gravity_cancellation(self):
        x = NominalState.identity()
        imu = imu_row(0.0, accel=[0.0, 0.0, 9.81], gyro=[0.0, 0.0, 0.0])
        y = propagate_state(x, imu, 0.01)
        assert np.linalg.norm(y.position) < 1e-12
        assert np.linalg.norm(y.velocity) < 1e-12
        assert y.rotation.angle_to(Rotation.identity()) < 1e-12

    def test_pure_yaw_closed_form(self):
        x = NominalState.identity()
        imu = imu_row(0.0, accel=[0.0, 0.0, 9.81], gyro=[0.0, 0.0, 1.0])
        y = propagate_state(x, imu, 0.01)
        expected = x.rotation @ so3_exp(np.array([0.0, 0.0, 0.01]))
        assert y.rotation.angle_to(expected) < 1e-14

    def test_biases_and_gravity_constant(self):
        rng = np.random.default_rng(4)
        x = random_state(rng)
        imu = imu_row(0.0, accel=rng.normal(0, 2, 3), gyro=rng.normal(0, 1, 3))
        y = propagate_state(x, imu, 0.005)
        np.testing.assert_array_equal(y.bias_accel, x.bias_accel)
        np.testing.assert_array_equal(y.bias_gyro, x.bias_gyro)
        np.testing.assert_array_equal(y.gravity, x.gravity)

    def test_transition_matrix_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(30):
            x = random_state(rng)
            imu = imu_row(
                0.0,
                accel=rng.normal(0, 3, 3) + [0, 0, 9.81],
                gyro=rng.normal(0, 1.0, 3),
            )
            dt = rng.uniform(0.002, 0.01)
            f_analytic = error_transition_matrix(x, imu, dt)
            fd = np.zeros((ERR_DIM, ERR_DIM))
            for j in range(ERR_DIM):
                e = np.zeros(ERR_DIM)
                e[j] = FD_STEP
                fp = propagate_state(box_plus(x, e), imu, dt)
                fm = propagate_state(box_plus(x, -e), imu, dt)
                fd[:, j] = box_minus(fp, fm) / (2 * FD_STEP)
            rel = np.linalg.norm(f_analytic - fd) / np.linalg.norm(fd)
            worst = max(worst, rel)
        assert worst < 1e-5

    def test_gravity_block_identity_and_no_process_noise(self):
        rng = np.random.default_rng(6)
        x = random_state(rng)
        imu = imu_row(0.0, accel=[0.1, 0.2, 9.7], gyro=[0.01, 0.0, 0.3])
        f = error_transition_matrix(x, imu, 0.005)
        np.testing.assert_array_equal(f[GRAV, GRAV], np.eye(3))
        np.testing.assert_array_equal(f[GRAV, :15], np.zeros((3, 15)))
        from topoloc.ieskf import process_noise_density

        q = process_noise_density(NoiseParams())
        np.testing.assert_array_equal(q[GRAV], np.zeros(3))

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(7)
        x = NominalState.identity()
        cov = np.eye(ERR_DIM) * 1e-4
        noise = NoiseParams()
        for _ in range(500):
            imu = imu_row(
                0.0, accel=[0, 0, 9.81] + rng.normal(0, 0.1, 3), gyro=rng.normal(0, 0.05, 3)
            )
            x, cov = propagate(x, cov, imu, 0.005, noise)
        assert np.abs(cov - cov.T).max() < 1e-9
        assert np.linalg.eigvalsh(cov).min() > -1e-9

    def test_input_guards(self):
        x = NominalState.identity()
        cov = np.eye(ERR_DIM)
        noise = NoiseParams()
        with pytest.raises(NonPositiveDt):
            propagate(x, cov, imu_row(0.0, [0, 0, 9.81], [0, 0, 0]), 0.0, noise)
        with pytest.raises(NonFiniteInput):
            propagate(x, cov, imu_row(0.0, [np.nan, 0, 9.81], [0, 0, 0]), 0.01, noise)
        with pytest.raises(ValueError):
            propagate(x, cov, imu_row(0.0, [0, 0, 9.81], [0, 0, 0]), 0.5, noise)


def fold_propagate_to(state, cov, time, samples, t_end, noise):
    """Reference zero-order hold: one ``propagate`` call per step, sample by sample."""

    def hold(state, cov, sample, dt):
        n_sub = max(1, int(np.ceil(dt / MAX_IMU_DT_S - 1e-9)))
        for _ in range(n_sub):
            state, cov = propagate(state, cov, sample, dt / n_sub, noise)
        return state, cov

    n = len(samples)
    for i, s in enumerate(samples):
        stop = min(samples[i + 1][0] if i + 1 < n else t_end, t_end)
        dt = stop - max(time, s[0])
        if dt <= 1e-12:
            continue
        state, cov = hold(state, cov, s, dt)
        time = stop
    if n and time < t_end - 1e-9:
        state, cov = hold(state, cov, samples[-1], t_end - time)
    return state, cov


def reference_propagate(state, cov, accel, gyro, dt, noise):
    """``propagate`` on a valid window in plain form: F_x assembled block by
    block from temporaries, and the covariance steps taken in pairs (a, b),
    one pair at a time, as P <- (F_b F_a) P (F_b F_a)^T + F_b Q_a F_b^T + Q_b
    with each Q a diagonal matrix; an odd last step runs alone. The
    optimized window must match it bit for bit."""
    k = len(dt)
    dt_col = dt[:, None]
    theta = (gyro - state.bias_gyro) * dt_col
    dq = so3_exp_quat(theta)
    dq /= np.sqrt((dq * dq).sum(axis=1, keepdims=True))
    w, x, y, z = state.rotation.q.tolist()
    quats = [(w, x, y, z)]
    for w2, x2, y2, z2 in dq.tolist():
        w, x, y, z = (
            w * w2 - x * x2 - y * y2 - z * z2,
            w * x2 + x * w2 + y * z2 - z * y2,
            w * y2 - x * z2 + y * w2 + z * x2,
            w * z2 + x * y2 - y * x2 + z * w2,
        )
        n = math.sqrt(w * w + x * x + y * y + z * z)
        w, x, y, z = w / n, x / n, y / n, z / n
        quats.append((w, x, y, z))
    mats = quat_to_matrix(np.vstack([quats[:-1], dq]))
    r, d_rot = mats[:k], mats[k:]
    a = accel - state.bias_accel
    accel_world = (r @ a[:, :, None])[:, :, 0] + state.gravity
    vel = np.cumsum(np.vstack([state.velocity, accel_world * dt_col]), axis=0)
    pos = np.cumsum(
        np.vstack([state.position, vel[:-1] * dt_col + 0.5 * accel_world * dt_col * dt_col]),
        axis=0,
    )
    new_state = NominalState(
        Rotation(quats[-1]), pos[-1], vel[-1], state.bias_accel, state.bias_gyro, state.gravity
    )
    dt3 = dt[:, None, None]
    r_skew_a = r @ skew(a)
    eye_dt = np.eye(3) * dt3
    f = np.zeros((k, ERR_DIM, ERR_DIM))
    f[:, np.arange(ERR_DIM), np.arange(ERR_DIM)] = 1.0
    f[:, ROT, ROT] = d_rot.transpose(0, 2, 1)
    f[:, ROT, BW] = -right_jacobian_so3(theta) * dt3
    f[:, POS, ROT] = -0.5 * r_skew_a * dt3 * dt3
    f[:, POS, VEL] = eye_dt
    f[:, POS, BA] = -0.5 * r * dt3 * dt3
    f[:, POS, GRAV] = 0.5 * eye_dt * dt3
    f[:, VEL, ROT] = -r_skew_a * dt3
    f[:, VEL, BA] = -r * dt3
    f[:, VEL, GRAV] = eye_dt
    q_mats = [np.diag(q_i) for q_i in np.outer(dt, process_noise_density(noise))]
    for a in range(0, k - 1, 2):
        f_a, f_b = f[a], f[a + 1]
        step = f_b @ f_a
        cov = step @ cov @ step.T + (f_b @ q_mats[a] @ f_b.T + q_mats[a + 1])
    if k % 2:
        cov = f[-1] @ cov @ f[-1].T + q_mats[-1]
    return new_state, 0.5 * (cov + cov.T)


def random_imu(rng, t):
    return imu_row(t, accel=[0.0, 0.0, 9.81] + rng.normal(0, 0.5, 3), gyro=rng.normal(0, 0.3, 3))


def assert_same_propagation(a, b, tol=1e-12):
    (state_a, cov_a), (state_b, cov_b) = a, b
    assert np.abs(box_minus(state_a, state_b)).max() <= tol
    assert np.abs(cov_a - cov_b).max() <= tol


class TestPropagateWindow:
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 20])
    def test_window_equals_step_by_step_fold(self, k):
        # odd k ends the window with a step outside the pairs
        rng = np.random.default_rng(30)
        noise = NoiseParams()
        for _ in range(5):
            x = random_state(rng)
            cov = np.eye(ERR_DIM) * 1e-3
            samples = [random_imu(rng, 0.0) for _ in range(k)]
            dts = rng.uniform(0.002, 0.01, k)
            fold = (x, cov)
            for s, dt in zip(samples, dts):
                fold = propagate(*fold, s, dt, noise)
            window = propagate(x, cov, np.array(samples), dts, noise)
            assert_same_propagation(window, fold)

    @pytest.mark.parametrize("k, still", [(20, False), (1, False), (7, True)])
    def test_window_matches_reference_bitwise(self, k, still):
        rng = np.random.default_rng(32)
        noise = NoiseParams()
        for _ in range(5):
            x = random_state(rng)
            mix = rng.normal(0, 1, (ERR_DIM, ERR_DIM))
            cov = 1e-3 * (mix @ mix.T / ERR_DIM + np.eye(ERR_DIM))
            accel = [0.0, 0.0, 9.81] + rng.normal(0, 0.5, (k, 3))
            gyro = rng.normal(0, 0.3, (k, 3))
            if still:  # zero rotation increments and one a few times SMALL_ANGLE
                gyro = np.tile(x.bias_gyro, (k, 1))
                gyro[1] += [1e-5, 0.0, 0.0]
            dt = rng.uniform(0.002, 0.01, k)
            imu = np.column_stack((np.zeros(k), accel, gyro))
            state, new_cov = propagate(x, cov, imu, dt, noise)
            ref_state, ref_cov = reference_propagate(x, cov, accel, gyro, dt, noise)
            np.testing.assert_array_equal(state.rotation.q, ref_state.rotation.q)
            for name in ("position", "velocity", "bias_accel", "bias_gyro", "gravity"):
                np.testing.assert_array_equal(getattr(state, name), getattr(ref_state, name))
            np.testing.assert_array_equal(new_cov, ref_cov)

    @pytest.mark.parametrize(
        "times, t_end",
        [
            (0.5 + 0.005 * np.arange(20), 0.6),  # one 200 Hz frame window
            ([0.5, 0.52, 0.87, 0.9], 1.2),  # 0.35 s and 0.3 s holds get split
            (0.5 + 0.01 * np.arange(20), 0.6),  # samples past t_end are truncated
            ([0.45, 0.48, 0.51, 0.53], 0.6),  # the first holds start at the filter time
            ([0.62, 0.65], 0.6),  # nothing held before t_end: the last sample fills the gap
            ([], 0.6),  # empty bucket
            ([0.5, 0.53, 0.51, 0.56], 0.6),  # a sample out of order is skipped as the fold skips it
        ],
    )
    def test_propagate_to_equals_per_sample_fold(self, intr, forward_extrinsics, times, t_end):
        rng = np.random.default_rng(31)
        filt = LocalizationFilter(intr, forward_extrinsics, FilterParams())
        filt.state, filt.cov, filt.time = random_state(rng), np.eye(ERR_DIM) * 1e-3, 0.5
        samples = np.array([random_imu(rng, float(t)) for t in times]).reshape(-1, 7)
        expected = fold_propagate_to(
            filt.state, filt.cov, filt.time, samples, t_end, filt.params.noise
        )
        filt.propagate_to(samples, t_end)
        assert_same_propagation((filt.state, filt.cov), expected)
        assert filt.time == t_end

    @pytest.mark.parametrize("at", [0, 9, 19])
    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("accel", np.nan, NonFiniteInput),
            ("gyro", np.inf, NonFiniteInput),
            ("dt", np.nan, NonFiniteInput),
            ("dt", 0.0, NonPositiveDt),
            ("dt", -0.005, NonPositiveDt),
            ("dt", 0.2, ValueError),
        ],
    )
    def test_bad_sample_anywhere_raises(self, at, field, value, error):
        arrays = {
            "accel": np.tile([0.0, 0.0, 9.81], (20, 1)),
            "gyro": np.zeros((20, 3)),
            "dt": np.full(20, 0.005),
        }
        arrays[field][at] = value
        with pytest.raises(error):
            propagate(
                NominalState.identity(), np.eye(ERR_DIM),
                np.column_stack((np.zeros(20), arrays["accel"], arrays["gyro"])),
                arrays["dt"], NoiseParams(),
            )


class TestFeatureMeasurement:
    def test_exact_measurement_zero_residual(self, intr):
        x = NominalState.identity()
        extr = Pose.identity()
        z = residual_feature(x, np.array([0.0, 0.0, 5.0]), np.array([intr.cx, intr.cy]), extr, intr)
        np.testing.assert_allclose(z, [0.0, 0.0], atol=1e-12)

    def test_sign_convention(self, intr):
        # measured 1 px right of the prediction -> residual (-1, 0)
        x = NominalState.identity()
        extr = Pose.identity()
        f = np.array([intr.cx + 1.0, intr.cy])
        z = residual_feature(x, np.array([0.0, 0.0, 5.0]), f, extr, intr)
        np.testing.assert_allclose(z, [-1.0, 0.0], atol=1e-12)

    def test_direct_formula_oracle(self, intr, forward_extrinsics):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = random_state(rng)
            extr = forward_extrinsics
            q_target = np.array([rng.normal(0, 2), rng.normal(0, 2), rng.uniform(1, 40)])
            m = (x.pose() @ extr.inverse()).apply(q_target)
            f = rng.uniform([0, 0], [intr.width, intr.height])
            z = residual_feature(x, m, f, extr, intr)
            # independent evaluation: rotate through the chain by matrices
            w = x.rotation.as_matrix().T @ (m - x.position)
            q = extr.rotation.as_matrix() @ w + extr.translation
            expect = np.array(
                [intr.fx * q[0] / q[2] + intr.cx, intr.fy * q[1] / q[2] + intr.cy]
            ) - f
            np.testing.assert_allclose(z, expect, atol=1e-10)

    def test_behind_camera_raises(self, intr):
        x = NominalState.identity()
        with pytest.raises(PointBehindCamera):
            residual_feature(x, np.array([0.0, 0.0, -5.0]), np.array([0.0, 0.0]), Pose.identity(), intr)

    def test_jacobian_sparsity(self, intr, forward_extrinsics):
        rng = np.random.default_rng(9)
        x = random_state(rng)
        m = (x.pose() @ forward_extrinsics.inverse()).apply(np.array([1.0, -0.5, 12.0]))
        h = jacobian_feature(x, m, forward_extrinsics, intr)
        np.testing.assert_array_equal(h[:, VEL], 0.0)
        np.testing.assert_array_equal(h[:, BA], 0.0)
        np.testing.assert_array_equal(h[:, BW], 0.0)
        np.testing.assert_array_equal(h[:, GRAV], 0.0)

    def test_jacobian_matches_finite_differences(self, intr, forward_extrinsics):
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(30):
            x = random_state(rng)
            q_target = np.array([rng.normal(0, 2), rng.normal(0, 2), rng.uniform(2, 40)])
            m = (x.pose() @ forward_extrinsics.inverse()).apply(q_target)
            f = np.array([intr.cx, intr.cy])
            h = jacobian_feature(x, m, forward_extrinsics, intr)
            fd = fd_jacobian(
                lambda s: residual_feature(s, m, f, forward_extrinsics, intr), x, 2
            )
            worst = max(worst, np.linalg.norm(h - fd) / np.linalg.norm(fd))
        assert worst < 1e-5

    def test_frontal_point_pixel_jacobian(self, intr):
        # On the optical axis d(pixel)/d(camera point) is diag(fx/Z, fy/Z)
        # with a zero third column; check through the dp block at identity.
        x = NominalState.identity()
        extr = Pose.identity()
        z0 = 8.0
        h = jacobian_feature(x, np.array([0.0, 0.0, z0]), extr, intr)
        np.testing.assert_allclose(
            h[:, POS], np.array([[-intr.fx / z0, 0, 0], [0, -intr.fy / z0, 0]]), atol=1e-12
        )


class TestSpeedMeasurement:
    def test_consistent_state_zero_residual(self):
        rng = np.random.default_rng(11)
        x = random_state(rng)
        vx = 12.3
        x.velocity = x.rotation.apply(np.array([vx, 0.0, 0.0]))
        np.testing.assert_allclose(residual_speed(x, vx), np.zeros(3), atol=1e-12)

    def test_identity_rotation_direct_value(self):
        x = NominalState.identity()
        np.testing.assert_allclose(
            residual_speed(x, 10.0), [10.0, 0.0, 0.0]
        )

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(30):
            x = random_state(rng)
            s = rng.uniform(0, 20)
            h = jacobian_speed(x, s)
            fd = fd_jacobian(lambda st: residual_speed(st, s), x, 3)
            worst = max(worst, np.linalg.norm(h - fd) / max(np.linalg.norm(fd), 1e-12))
        assert worst < 1e-6


def feature_problem(intr, extr, truth, n, rng, noise_px=0.0):
    """Exact pixel observations of random camera-frame points at ``truth``."""
    cam = truth.pose() @ extr.inverse()
    pts_cam = np.column_stack(
        [rng.normal(0, 3, n), rng.normal(0, 2, n), rng.uniform(4, 40, n)]
    )
    m = cam.apply(pts_cam)
    px = np.column_stack(
        [
            intr.fx * pts_cam[:, 0] / pts_cam[:, 2] + intr.cx,
            intr.fy * pts_cam[:, 1] / pts_cam[:, 2] + intr.cy,
        ]
    )
    if noise_px > 0:
        px = px + rng.normal(0, noise_px, px.shape)
    return Matched3D2D(m, px)


class TestStackedMeasurements:
    def test_rows_match_finite_differences_and_per_point_jacobians(self, intr, forward_extrinsics):
        rng = np.random.default_rng(20)
        noise = NoiseParams()
        worst_fd = worst_point = 0.0
        for _ in range(30):
            x = random_state(rng)
            matches = feature_problem(intr, forward_extrinsics, x, 8, rng, noise_px=1.0)
            speed = rng.uniform(0, 15)
            z, ht, rinv, n_used, _, _ = _stack_measurements(
                x, matches, speed, forward_extrinsics, intr, noise
            )
            assert n_used == 8 and ht.shape == (H_COLS.stop, 19)
            h = ht.T  # H over H_COLS
            point_rows = [
                (lambda st, m=m, f=f: residual_feature(st, m, f, forward_extrinsics, intr),
                 jacobian_feature(x, m, forward_extrinsics, intr))
                for m, f in zip(matches.points, matches.pixels)
            ]
            point_rows.append((lambda st: residual_speed(st, speed), jacobian_speed(x, speed)))
            fd = np.vstack([fd_jacobian(fun, x, len(jac)) for fun, jac in point_rows])
            per_point = np.vstack([jac for _, jac in point_rows])
            np.testing.assert_allclose(z, np.concatenate([fun(x) for fun, _ in point_rows]), atol=1e-9)
            # the update solves over H_COLS only: no measurement may touch the other columns
            assert not fd[:, H_COLS.stop:].any() and not per_point[:, H_COLS.stop:].any()
            fd, per_point = fd[:, H_COLS], per_point[:, H_COLS]
            worst_fd = max(worst_fd, np.abs(h - fd).max() / np.abs(fd).max())
            worst_point = max(worst_point, np.abs(h - per_point).max() / np.abs(per_point).max())
        assert worst_fd < 1e-6
        assert worst_point < 1e-12

    def test_residual_only_path_is_bitwise_equal(self, intr, forward_extrinsics):
        rng = np.random.default_rng(22)
        x = random_state(rng)
        matches = feature_problem(intr, forward_extrinsics, x, 40, rng, noise_px=1.0)
        cam = x.pose() @ forward_extrinsics.inverse()
        behind = cam.apply(np.array([[0.5, 0.2, -3.0], [0.0, 0.0, 0.05]]))
        matches = Matched3D2D(
            np.vstack([matches.points, behind]), np.vstack([matches.pixels, np.zeros((2, 2))])
        )
        for speed in (None, 4.0):
            full = _stack_measurements(x, matches, speed, forward_extrinsics, intr, NoiseParams())
            cheap = _stack_measurements(
                x, matches, speed, forward_extrinsics, intr, NoiseParams(), jacobian=False
            )
            assert cheap[1] is None
            np.testing.assert_array_equal(cheap[0], full[0])
            np.testing.assert_array_equal(cheap[2], full[2])
            assert cheap[3:5] == full[3:5] == (40, 2)
            np.testing.assert_array_equal(cheap[5], full[5])


class TestIteratedUpdate:
    def test_consistent_prediction_unchanged_and_contracting(self, intr, forward_extrinsics):
        rng = np.random.default_rng(13)
        truth = random_state(rng)
        matches = feature_problem(intr, forward_extrinsics, truth, 50, rng)
        cov = np.eye(ERR_DIM) * 0.01
        st, cv, diag = iterated_update(
            truth, cov, matches, None, forward_extrinsics, intr, FilterParams()
        )
        assert np.linalg.norm(box_minus(st, truth)) < 1e-10
        assert np.trace(cv) < np.trace(cov)
        assert diag.cost0 < 1e-15
        # posterior stays symmetric and PSD
        assert np.abs(cv - cv.T).max() < 1e-9
        assert np.linalg.eigvalsh(cv).min() > -1e-9

    def test_converges_from_offset(self, intr, forward_extrinsics):
        rng = np.random.default_rng(14)
        truth = random_state(rng)
        matches = feature_problem(intr, forward_extrinsics, truth, 100, rng)
        pred = truth.copy()
        pred.position = truth.position + np.array([0.2, 0.0, 0.0])
        params = FilterParams(noise=NoiseParams(r_f_px2=1.0))
        st, _, diag = iterated_update(
            pred, np.eye(ERR_DIM) * 0.04, matches, None, forward_extrinsics, intr, params
        )
        assert np.linalg.norm(st.position - truth.position) < 1e-3
        assert diag.iterations <= 5
        assert diag.cost_final <= diag.cost0

    def test_reduces_to_standard_ekf_at_one_iteration(self, intr, forward_extrinsics):
        rng = np.random.default_rng(15)
        for _ in range(10):
            truth = random_state(rng)
            matches = feature_problem(intr, forward_extrinsics, truth, 30, rng, noise_px=0.5)
            speed = rng.uniform(0, 15)
            pred = box_plus(truth, rng.normal(0, 0.02, ERR_DIM))
            cov = np.eye(ERR_DIM) * 0.01
            params = FilterParams(noise=NoiseParams(r_f_px2=1.3, r_v=0.2), kappa_max=1)
            st, cv, _ = iterated_update(
                pred, cov, matches, speed, forward_extrinsics, intr, params
            )
            # independently coded standard EKF oracle
            z, ht, rinv, _, _, _ = _stack_measurements(
                pred, matches, speed, forward_extrinsics, intr, params.noise
            )
            h = np.zeros((len(z), ERR_DIM))
            h[:, H_COLS] = ht.T
            r = np.diag(1.0 / rinv)
            k = cov @ h.T @ np.linalg.inv(h @ cov @ h.T + r)
            st_oracle = box_plus(pred, -k @ z)
            cv_oracle = (np.eye(ERR_DIM) - k @ h) @ cov
            assert np.linalg.norm(box_minus(st, st_oracle)) < 1e-8
            assert np.abs(cv - 0.5 * (cv_oracle + cv_oracle.T)).max() < 1e-8

    def test_permutation_invariance(self, intr, forward_extrinsics):
        rng = np.random.default_rng(16)
        truth = random_state(rng)
        matches = feature_problem(intr, forward_extrinsics, truth, 60, rng, noise_px=1.0)
        pred = box_plus(truth, rng.normal(0, 0.05, ERR_DIM))
        cov = np.eye(ERR_DIM) * 0.01
        params = FilterParams()
        st1, cv1, _ = iterated_update(pred, cov, matches, None, forward_extrinsics, intr, params)
        perm = rng.permutation(len(matches))
        shuffled = Matched3D2D(matches.points[perm], matches.pixels[perm])
        st2, cv2, _ = iterated_update(pred, cov, shuffled, None, forward_extrinsics, intr, params)
        assert np.linalg.norm(box_minus(st1, st2)) < 1e-10
        assert np.abs(cv1 - cv2).max() < 1e-10

    def test_no_measurements_raises(self, intr, forward_extrinsics):
        with pytest.raises(NoMeasurements):
            iterated_update(
                NominalState.identity(), np.eye(ERR_DIM), None, None,
                forward_extrinsics, intr, FilterParams(),
            )

    def test_speed_only_update_accepted(self, intr, forward_extrinsics):
        rng = np.random.default_rng(17)
        truth = random_state(rng)
        vx = float(np.linalg.norm(truth.velocity))
        truth.velocity = truth.rotation.apply([vx, 0.0, 0.0])
        pred = truth.copy()
        pred.velocity = truth.velocity + np.array([0.5, 0.0, 0.0])
        # near-certain rotation and a tight speed measurement: the correction
        # must land almost entirely in the velocity block
        cov = np.eye(ERR_DIM) * 0.04
        cov[ROT, ROT] = np.eye(3) * 1e-8
        st, cv, diag = iterated_update(
            pred, cov, None, vx,
            forward_extrinsics, intr, FilterParams(noise=NoiseParams(r_v=1e-4)),
        )
        assert np.linalg.norm(st.velocity - truth.velocity) < 0.05
        assert diag.cost_final <= diag.cost0


def reference_stack_measurements(state, matches, speed, extr, intr, noise):
    """``_stack_measurements`` in plain form: the feature columns of H^T
    (over H_COLS) are computed on their own and copied into a second,
    full-width H^T, and the speed rows of H are transposed into its last
    columns."""
    n_used = 0
    n_behind = 0
    front = None
    if matches is not None and len(matches) > 0:
        uv, ht_feat, front = project_features(state, matches.points, extr, intr)
        n_used = len(uv)
        n_behind = len(front) - n_used
    n_feat = 2 * n_used
    n_rows = n_feat + (3 if speed is not None else 0)
    z = np.empty(n_rows)
    rinv = np.empty(n_rows)
    ht = np.zeros((H_COLS.stop, n_rows))
    if n_used:
        z[:n_feat] = (uv - matches.pixels.compress(front, axis=0)).reshape(-1)
        rinv[:n_feat] = 1.0 / noise.r_f_px2
        ht[:, :n_feat] = ht_feat
    if speed is not None:
        z[n_feat:] = residual_speed(state, speed)
        rinv[n_feat:] = 1.0 / noise.r_v
        ht[:, n_feat:] = jacobian_speed(state, speed)[:, H_COLS].T
    return z, ht, rinv, n_used, n_behind, front


def reference_iterated_update(state_pred, cov_pred, matches, speed, extr, intr, params):
    """``iterated_update`` in plain form: residuals and Jacobian at every
    iterate, every pass (the first included) transforms the prior through J,
    and the MAP cost goes through ``np.sum``. A step that raises the cost
    beyond rounding is halved, at most 12 candidates per pass; when none is
    accepted the update stops. An accepted step x+ is relinearized when the
    rows at x+ differ from the current ones, or when the next Gauss-Newton
    step -d, d = S^-1 g with g = H^T R^-1 z(x+) + P^-1 (x+ [-] x_pred), would
    lower the linearized cost by 2 g^T d - d^T S d >= ``eps``. The posterior
    is that of the pass whose step was accepted last, or the prediction's
    covariance when no step was. The optimized update must match it bit for
    bit."""
    if (matches is None or len(matches) == 0) and speed is None:
        raise NoMeasurements("update called with neither features nor speed")
    noise = params.noise
    try:
        cov_pred_inv = np.linalg.inv(cov_pred)
    except np.linalg.LinAlgError:
        raise SingularNormalMatrix("predicted covariance is singular")

    def map_cost(prior, z, rinv):
        return float(prior @ cov_pred_inv @ prior) + float(np.sum(z * z * rinv))

    diag = FrameDiagnostics()
    x_cur = state_pred.copy()
    identity = np.eye(ERR_DIM)
    prior = np.zeros(ERR_DIM)
    stack = reference_stack_measurements(x_cur, matches, speed, extr, intr, noise)
    cost_cur = map_cost(prior, stack[0], stack[2])
    diag.cost0 = cost_cur
    cov_post = cov_pred.copy()

    for it in range(params.kappa_max):
        z, ht, rinv, n_used, n_behind, front = stack
        diag.iterations = it + 1
        diag.n_features_used = n_used
        diag.n_behind_camera = n_behind
        if len(z) == 0:
            raise NoMeasurements("all measurements rejected (points behind the camera)")

        dtheta = prior[ROT]
        j_rot_inv = right_jacobian_so3(dtheta)  # rotation block of J^-1
        j_inv = identity.copy()
        j_inv[ROT, ROT] = j_rot_inv
        p_mat = j_inv @ cov_pred @ j_inv.T
        p_mat = 0.5 * (p_mat + p_mat.T)
        j_full = identity.copy()
        j_full[ROT, ROT] = inv_right_jacobian_so3(dtheta)
        p_inv = j_full.T @ cov_pred_inv @ j_full

        ht_rinv = ht * rinv
        a_b = np.zeros((ERR_DIM, ERR_DIM + 1))  # [A | b]
        a_b[H_COLS, H_COLS] = ht_rinv @ ht.T
        a_b[H_COLS, ERR_DIM] = ht_rinv @ z
        s = a_b[:, :ERR_DIM] + p_inv
        try:
            kh_kz = np.linalg.solve(s, a_b)
        except np.linalg.LinAlgError:
            raise SingularNormalMatrix("H^T R^-1 H + P^-1 is not invertible")
        kh, kz = kh_kz[:, :ERR_DIM], kh_kz[:, ERR_DIM]

        prior_j = prior.copy()
        prior_j[ROT] = j_rot_inv @ prior[ROT]
        x_tilde = -kz - (identity - kh) @ prior_j
        for _ in range(12):
            x_next = box_plus(x_cur, x_tilde)
            prior_next = box_minus(x_next, state_pred)
            stack_next = reference_stack_measurements(x_next, matches, speed, extr, intr, noise)
            cost_next = map_cost(prior_next, stack_next[0], stack_next[2])
            if cost_next <= cost_cur * (1.0 + 1e-12) + 1e-15:
                break
            diag.step_rejected = True
            x_tilde = 0.5 * x_tilde
        else:
            diag.converged = True  # no step lowers the cost
            break
        x_cur, prior, stack, cost_cur = x_next, prior_next, stack_next, cost_next
        cov_post = (identity - kh) @ p_mat
        cov_post = 0.5 * (cov_post + cov_post.T)
        if front is None or (front == stack_next[5]).all():
            g = np.zeros(ERR_DIM)
            g[H_COLS] = ht_rinv @ stack_next[0]
            g = g + cov_pred_inv @ prior_next
            d = np.linalg.solve(s, g)
            if d @ (2.0 * g - s @ d) < params.eps:
                diag.converged = True
                break

    diag.cost_final = cost_cur
    return x_cur, cov_post, diag


def update_frame(rng, intr, extr, n, near=False, behind=0):
    """A prediction, its covariance and noisy matches of a random frame.

    ``near`` puts the points 0.5-3 m in front of the camera and the
    prediction up to about 0.3 rad / 0.4 m off, where Gauss-Newton steps
    often raise the cost; ``behind`` appends points behind the camera.
    """
    truth = random_state(rng)
    cam = truth.pose() @ extr.inverse()
    depth = rng.uniform(0.5, 3.0, n) if near else rng.uniform(4.0, 40.0, n)
    spread = 1.0 if near else 3.0
    pts_cam = np.column_stack([rng.normal(0, spread, n), rng.normal(0, spread, n), depth])
    pts_cam = np.vstack([pts_cam, np.column_stack([rng.normal(0, 1, (behind, 2)), -depth[:behind]])])
    px = np.column_stack(
        [
            intr.fx * pts_cam[:, 0] / np.abs(pts_cam[:, 2]) + intr.cx,
            intr.fy * pts_cam[:, 1] / np.abs(pts_cam[:, 2]) + intr.cy,
        ]
    ) + rng.normal(0, 1.0, (len(pts_cam), 2))
    sigmas = np.array([0.3] * 3 + [0.4] * 3 + [0.1] * 12) if near else np.full(ERR_DIM, 0.02)
    pred = box_plus(truth, rng.normal(0, 1, ERR_DIM) * sigmas)
    # correlated, and symmetric only up to rounding
    mix = rng.normal(0, 1, (ERR_DIM, ERR_DIM))
    cov = (sigmas[:, None] * (mix @ mix.T / ERR_DIM + np.eye(ERR_DIM))) * sigmas
    return pred, cov, Matched3D2D(cam.apply(pts_cam), px)


class TestIteratedUpdateBitwise:
    """The optimized update against ``reference_iterated_update``: state,
    covariance and every diagnostics field exactly equal."""

    def assert_same_update(self, pred, cov, matches, speed, extr, intr, params):
        st, cv, dg = iterated_update(pred, cov, matches, speed, extr, intr, params)
        ref_st, ref_cv, ref_dg = reference_iterated_update(
            pred, cov, matches, speed, extr, intr, params
        )
        for name in ("position", "velocity", "bias_accel", "bias_gyro", "gravity"):
            np.testing.assert_array_equal(getattr(st, name), getattr(ref_st, name))
        np.testing.assert_array_equal(st.rotation.q, ref_st.rotation.q)
        np.testing.assert_array_equal(cv, ref_cv)
        assert asdict(dg) == asdict(ref_dg)
        return dg

    @pytest.mark.parametrize(
        "case",
        ["features_and_speed", "speed_only", "kappa_max_1", "behind_camera"],
    )
    def test_matches_reference(self, intr, forward_extrinsics, case):
        rng = np.random.default_rng(40)
        params = FilterParams(kappa_max=1 if case == "kappa_max_1" else 5)
        behind = 3 if case == "behind_camera" else 0
        for _ in range(10):
            pred, cov, matches = update_frame(rng, intr, forward_extrinsics, 60, behind=behind)
            if case == "speed_only":
                matches = None
            speed = rng.uniform(0, 15)
            dg = self.assert_same_update(
                pred, cov, matches, speed, forward_extrinsics, intr, params
            )
            assert dg.n_behind_camera == behind

    def test_matches_reference_through_rejected_steps(self, intr, forward_extrinsics):
        rng = np.random.default_rng(41)
        rejected = 0
        for _ in range(20):
            pred, cov, matches = update_frame(rng, intr, forward_extrinsics, 20, near=True)
            dg = self.assert_same_update(
                pred, cov, matches, 3.0, forward_extrinsics, intr, FilterParams()
            )
            rejected += dg.step_rejected
        assert rejected >= 2


class TestIterationStop:
    """The update relinearizes while the next Gauss-Newton step would still
    lower the MAP cost by ``eps``, and only then."""

    @pytest.fixture
    def jacobians(self, monkeypatch):
        """Counts the feature Jacobians the update computes: one per linearization."""
        count = [0]

        def counting(intr, pts_cam):
            count[0] += 1
            return projection_jacobian(intr, pts_cam)

        monkeypatch.setattr(ieskf, "projection_jacobian", counting)
        return count

    @pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan])
    def test_threshold_must_be_positive(self, eps):
        with pytest.raises(ValueError, match="eps must be positive"):
            FilterParams(eps=eps)

    def test_large_innovation_iterates_and_beats_one_pass(self, intr, forward_extrinsics):
        rng = np.random.default_rng(41)
        better = 0
        for _ in range(40):
            pred, cov, matches = update_frame(rng, intr, forward_extrinsics, 20, near=True)
            _, _, dg = iterated_update(
                pred, cov, matches, 3.0, forward_extrinsics, intr, FilterParams()
            )
            _, _, one_pass = iterated_update(
                pred, cov, matches, 3.0, forward_extrinsics, intr, FilterParams(kappa_max=1)
            )
            # the first step is the EKF pass; later steps are kept only if they lower the cost
            assert dg.cost_final <= one_pass.cost_final
            better += dg.iterations > 1 and dg.cost_final < one_pass.cost_final
        assert better >= 20

    def test_near_linear_problem_stops_after_one_linearization(
        self, intr, forward_extrinsics, jacobians
    ):
        rng = np.random.default_rng(50)
        sigmas = np.array([1e-3] * 3 + [1e-2] * 15)
        for _ in range(10):
            truth = random_state(rng)
            matches = feature_problem(intr, forward_extrinsics, truth, 60, rng, noise_px=1.0)
            pred = box_plus(truth, rng.normal(0, 1, ERR_DIM) * sigmas)
            jacobians[0] = 0
            _, _, dg = iterated_update(
                pred, np.diag(sigmas**2), matches, 4.0, forward_extrinsics, intr, FilterParams()
            )
            assert (dg.iterations, jacobians[0], dg.converged) == (1, 1, True)

    def test_point_crossing_min_depth_forces_relinearization(
        self, intr, forward_extrinsics, jacobians
    ):
        rng = np.random.default_rng(51)
        truth = random_state(rng)
        matches = feature_problem(intr, forward_extrinsics, truth, 60, rng)
        # a point on the optical axis just short of the minimum depth; the
        # prediction sits 6 mm behind the truth along the axis, where the
        # point is in front, and the first step carries it across
        cam = truth.pose() @ forward_extrinsics.inverse()
        near = cam.apply(np.array([0.0, 0.0, MIN_FEATURE_DEPTH_M - 0.003]))
        matches = Matched3D2D(
            np.vstack([matches.points, near]), np.vstack([matches.pixels, [intr.cx, intr.cy]])
        )
        pred = truth.copy()
        pred.position = truth.position - 0.006 * cam.rotation.apply(np.array([0.0, 0.0, 1.0]))
        cov = np.eye(ERR_DIM) * 1e-4
        noise = NoiseParams()
        assert _stack_measurements(pred, matches, None, forward_extrinsics, intr, noise)[3:5] == (61, 0)
        _, _, dg = iterated_update(
            pred, cov, matches, None, forward_extrinsics, intr, FilterParams()
        )
        assert jacobians[0] >= 2 and dg.iterations >= 2
        assert (dg.n_features_used, dg.n_behind_camera) == (60, 1)
        assert dg.cost_final < dg.cost0


class TestDampedUpdate:
    """A step that raises the MAP cost is halved, and the posterior is always
    that of an accepted step."""

    def test_near_updates_lower_the_cost(self, intr, forward_extrinsics):
        rng = np.random.default_rng(41)
        for _ in range(40):
            pred, cov, matches = update_frame(rng, intr, forward_extrinsics, 20, near=True)
            _, _, dg = iterated_update(
                pred, cov, matches, 3.0, forward_extrinsics, intr, FilterParams()
            )
            assert dg.cost_final < dg.cost0

    def test_no_accepted_step_returns_the_prediction(self, intr, forward_extrinsics, monkeypatch):
        # every candidate walks the Gauss-Newton step backwards, uphill
        monkeypatch.setattr(ieskf, "box_plus", lambda state, delta: box_plus(state, -delta))
        pred, cov, matches = update_frame(np.random.default_rng(42), intr, forward_extrinsics, 60)
        st, cv, dg = iterated_update(
            pred, cov, matches, 3.0, forward_extrinsics, intr, FilterParams()
        )
        for name in ("position", "velocity", "bias_accel", "bias_gyro", "gravity"):
            np.testing.assert_array_equal(getattr(st, name), getattr(pred, name))
        np.testing.assert_array_equal(st.rotation.q, pred.rotation.q)
        np.testing.assert_array_equal(cv, cov)
        assert (dg.iterations, dg.step_rejected, dg.converged) == (1, True, True)
        assert dg.cost_final == dg.cost0


class TestSpeedAidingDropout:
    def test_speed_bounds_drift_against_dead_reckoning(self, intr, forward_extrinsics):
        """30 s of feature dropout: speed-aided drift < IMU-only drift."""
        from topoloc.sim import SensorNoiseSpec, TrajectorySpec, gen_world, synthesize_imu, synthesize_speed

        spec = TrajectorySpec(
            shape="corridor-with-turns", duration_s=30.0, speed_mps=8.0,
            imu_rate_hz=100.0, frame_rate_hz=10.0, seed=6, turns=((40.0, 40.0, 5.0),),
        )
        world = gen_world(spec, landmark_count=300)
        noise = SensorNoiseSpec(
            sigma_accel=0.02, sigma_gyro=0.002,
            bias_accel=[0.02, -0.01, 0.015], bias_gyro=[0.001, -0.0005, 0.0008],
            sigma_speed=0.1,
        )
        imu = synthesize_imu(world, noise)
        speeds = {round(t, 9): vx for t, vx in synthesize_speed(world, noise).tolist()}
        params = FilterParams()
        frames = np.arange(1.0, 30.0, 0.1)
        truth = world.poses_at(frames)

        def run(use_speed):
            filt = LocalizationFilter(intr, forward_extrinsics, params)
            filt.initialize(world.poses[0], imu[imu[:, 0] < 1.0 - 1e-9])
            errs = []
            buckets = split_imu_stream(imu, frames, filt.time)
            for k, t in enumerate(frames):
                filt.propagate_to(buckets[k], t)
                if use_speed:
                    sp = speeds.get(round(t, 9))
                    if sp is not None:
                        filt.state, filt.cov, _ = iterated_update(
                            filt.state, filt.cov, None, sp, forward_extrinsics, intr, params
                        )
                errs.append(np.linalg.norm(filt.state.position - truth[k].translation))
            return errs

        aided = run(True)
        dead = run(False)
        assert aided[-1] < dead[-1]
        assert np.mean(aided) < np.mean(dead)
        # velocity error stays bounded: final error not dominated by velocity blowup
        assert aided[-1] < 0.5 * dead[-1]


class TestInitialize:
    @staticmethod
    def window(rng=None, accel=(0.0, 0.0, 9.81), gyro=(0.0, 0.0, 0.0), n=120, dt=0.005,
               sigma_a=0.0):
        samples = []
        for k in range(n):
            a = np.asarray(accel, dtype=float)
            if sigma_a > 0:
                a = a + rng.normal(0, sigma_a, 3)
            samples.append(imu_row(k * dt, a, gyro))
        return np.array(samples)

    def test_exact_stationary_recovery(self):
        params = FilterParams()
        pose = Pose.identity()
        st, cov = initialize(pose, self.window(gyro=(0.01, 0.0, 0.0)), params)
        np.testing.assert_allclose(st.gravity, [0.0, 0.0, -9.81], atol=1e-6)
        np.testing.assert_allclose(st.bias_gyro, [0.01, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(st.velocity, np.zeros(3))
        assert cov.shape == (ERR_DIM, ERR_DIM)

    def test_short_window_rejected(self):
        with pytest.raises(InsufficientStationaryData):
            initialize(Pose.identity(), self.window(n=20), FilterParams())

    def test_noisy_gravity_within_statistical_bound(self):
        # mean of n samples with per-axis sigma: error ~ sigma/sqrt(n)
        params = FilterParams()
        sigma_a, n = 0.02, 200
        errs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            st, _ = initialize(Pose.identity(), self.window(rng, n=n, sigma_a=sigma_a), params)
            errs.append(np.linalg.norm(st.gravity - [0.0, 0.0, -9.81]))
        # 3-sigma bound on the 3-D error norm, loose by construction
        assert np.median(errs) < 3 * sigma_a / np.sqrt(n) * 3


class TestProcessFrame:
    def test_empty_map_raises(self, intr, forward_extrinsics):
        filt = LocalizationFilter(intr, forward_extrinsics, FilterParams())
        filt.initialize(Pose.identity(), TestInitialize.window())

        def snapshot():
            st = filt.state
            parts = [st.rotation.q, st.position, st.velocity, st.bias_accel, st.bias_gyro, st.gravity]
            return filt.time, np.concatenate(parts), filt.cov.copy()

        time, state, cov = snapshot()
        frame = CameraFrame(time + 1.0, IntensityImage(np.zeros((intr.height, intr.width), np.uint8)))
        imu = imu_row(time, [0.0, 0.0, 9.81], [0.0, 0.0, 0.1])[None]
        with pytest.raises(EmptyMap):
            filt.process_frame(imu, frame, 0.0, TopologicalMap(intr), None)
        # the raise leaves the filter where it was: not propagated to the frame
        after = snapshot()
        assert after[0] == time
        np.testing.assert_array_equal(after[1], state)
        np.testing.assert_array_equal(after[2], cov)

    def test_zero_matches_falls_back_to_speed(self, intr, forward_extrinsics):
        class ZeroMatcher:
            def match(self, frame, node):
                return CorrespondenceSet(np.zeros((0, 2)), np.zeros((0, 2)))

        filt = LocalizationFilter(intr, forward_extrinsics, FilterParams())
        filt.initialize(Pose.identity(), TestInitialize.window())
        topo = self.one_node_map(intr, filt.state.pose() @ forward_extrinsics.inverse())
        frame = CameraFrame(1.0, IntensityImage(np.zeros((intr.height, intr.width), np.uint8)))
        traces = []
        for k in range(10):
            imu = imu_row(1.0 + 0.1 * k, [0, 0, 9.81], [0, 0, 0])[None]
            frame = CameraFrame(1.0 + 0.1 * (k + 1), frame.image)
            _, cov, diag = filt.process_frame(imu, frame, 0.0, topo, ZeroMatcher())
            traces.append(np.trace(cov[POS, POS]))
            assert "speed_only" in diag.flags or "matcher_failure:EmptyInput" in str(diag.flags) or "insufficient_features" in diag.flags
        # position uncertainty grows monotonically while only speed is measured
        assert all(b > a for a, b in zip(traces, traces[1:]))

    @staticmethod
    def one_node_map(intr, node_pose):
        """A map of one node at ``node_pose`` that sees a wall 10 m ahead."""
        topo = TopologicalMap(intr)
        depth = DepthImage.from_dense(np.full((intr.height, intr.width), 10.0, np.float32))
        topo.insert_node(TopoNode(0, depth, np.zeros(len(depth.index), np.uint8), node_pose, 0.0, intr))
        return topo

    def test_update_frame_returns_the_update_record(self, intr, forward_extrinsics, monkeypatch):
        rng = np.random.default_rng(60)
        node_px = rng.uniform([50.0, 50.0], [intr.width - 50.0, intr.height - 50.0], (40, 2))

        class ShiftMatcher:
            def match(self, frame, node):
                return CorrespondenceSet(node_px + rng.normal(0, 0.5, node_px.shape), node_px)

        returned = []

        def recording(*args):
            returned.append(iterated_update(*args))
            return returned[-1]

        monkeypatch.setattr(ieskf, "iterated_update", recording)
        filt = LocalizationFilter(intr, forward_extrinsics, FilterParams())
        filt.initialize(Pose.identity(), TestInitialize.window())
        topo = self.one_node_map(intr, filt.state.pose() @ forward_extrinsics.inverse())
        frame = CameraFrame(1.1, IntensityImage(np.zeros((intr.height, intr.width), np.uint8)))
        imu = imu_row(1.0, [0, 0, 9.81], [0, 0, 0])[None]
        state, cov, diag = filt.process_frame(imu, frame, 0.0, topo, ShiftMatcher())
        (upd_state, upd_cov, upd_diag), = returned
        assert diag is upd_diag and state is upd_state and cov is upd_cov
        assert (diag.t, diag.n_matches, diag.n_inliers, diag.flags) == (1.1, 40, 40, [])
        assert diag.iterations >= 1 and diag.n_features_used == 40 and diag.n_behind_camera == 0
        assert diag.cost_final <= diag.cost0
        assert set(asdict(diag)) == {
            "t", "n_matches", "n_inliers", "iterations", "cost0", "cost_final",
            "n_features_used", "n_behind_camera", "converged", "step_rejected", "flags",
        }

    def test_frame_without_update_keeps_the_update_defaults(self, intr, forward_extrinsics):
        filt = LocalizationFilter(intr, forward_extrinsics, FilterParams(max_node_distance_m=1.0))
        filt.initialize(Pose.identity(), TestInitialize.window())
        topo = self.one_node_map(intr, Pose(Rotation.identity(), [100.0, 0.0, 0.0]))
        frame = CameraFrame(1.1, IntensityImage(np.zeros((intr.height, intr.width), np.uint8)))
        imu = imu_row(1.0, [0, 0, 9.81], [0, 0, 0])[None]
        _, _, diag = filt.process_frame(imu, frame, None, topo, None)
        assert diag == FrameDiagnostics(t=1.1, flags=["node_too_far", "no_update"])


class TestSplitImuStream:
    def test_buckets_match_per_sample_search(self):
        rng = np.random.default_rng(50)
        stamps = rng.uniform(0.0, 1.2, 300)
        frames = np.linspace(0.1, 1.0, 10)
        stamps[::37] = frames[rng.integers(0, 10, len(stamps[::37]))]  # on a frame time
        # rows are in time order; column 1 numbers them
        samples = np.column_stack((np.sort(stamps), np.arange(300), np.zeros((300, 5))))
        for t_start in (0.0, 0.33):
            expected = [[] for _ in frames]
            for t, row in samples[:, :2].tolist():
                if t < t_start - 1e-12:
                    continue
                k = int(np.searchsorted(frames, t + 1e-12))
                if k < len(frames):
                    expected[k].append(row)
            buckets = split_imu_stream(samples, frames, t_start)
            assert [b[:, 1].tolist() for b in buckets] == expected

    def test_buckets_partition_window_starts(self):
        samples = np.array([imu_row(0.005 * k, [0, 0, 9.81], [0, 0, 0]) for k in range(60)])
        frames = np.array([0.1, 0.2, 0.3])
        buckets = split_imu_stream(samples, frames, 0.0)
        assert [len(b) for b in buckets] == [20, 20, 20]
        assert buckets[0][0, 0] == 0.0
        assert abs(buckets[1][0, 0] - 0.1) < 1e-12
        # samples before t_start are discarded
        buckets2 = split_imu_stream(samples, frames, 0.05)
        assert [len(b) for b in buckets2] == [10, 20, 20]
