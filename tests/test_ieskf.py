"""Filter core: propagation, residuals/Jacobians vs finite differences, the
iterated MAP update, initialization, and the per-frame pipeline."""

import numpy as np
import pytest

from topoloc.errors import (
    EmptyMap,
    InsufficientStationaryData,
    NoMeasurements,
    NonFiniteInput,
    NonPositiveDt,
    PointBehindCamera,
)
from topoloc.geometry import Pose, Rotation, so3_exp
from topoloc.ieskf import (
    BA,
    BW,
    ERR_DIM,
    GRAV,
    H_COLS,
    MAX_IMU_DT_S,
    POS,
    ROT,
    VEL,
    Extrinsics,
    FilterParams,
    ImuSample,
    LocalizationFilter,
    NoiseParams,
    NominalState,
    SpeedSample,
    box_minus,
    box_plus,
    error_transition_matrix,
    initialize,
    iterated_update,
    jacobian_feature,
    jacobian_speed,
    propagate,
    propagate_state,
    propagate_window,
    residual_feature,
    residual_speed,
    split_imu_stream,
    _stack_measurements,
)
from topoloc.matching import CameraFrame, CorrespondenceSet, Matched3D2D
from topoloc.topomap import DepthImage, IntensityImage, TopologicalMap, TopoNode

from conftest import random_state

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
        imu = ImuSample(0.0, accel=[0.0, 0.0, 9.81], gyro=[0.0, 0.0, 0.0])
        y = propagate_state(x, imu, 0.01)
        assert np.linalg.norm(y.position) < 1e-12
        assert np.linalg.norm(y.velocity) < 1e-12
        assert y.rotation.angle_to(Rotation.identity()) < 1e-12

    def test_pure_yaw_closed_form(self):
        x = NominalState.identity()
        imu = ImuSample(0.0, accel=[0.0, 0.0, 9.81], gyro=[0.0, 0.0, 1.0])
        y = propagate_state(x, imu, 0.01)
        expected = x.rotation @ so3_exp(np.array([0.0, 0.0, 0.01]))
        assert y.rotation.angle_to(expected) < 1e-14

    def test_biases_and_gravity_constant(self):
        rng = np.random.default_rng(4)
        x = random_state(rng)
        imu = ImuSample(0.0, accel=rng.normal(0, 2, 3), gyro=rng.normal(0, 1, 3))
        y = propagate_state(x, imu, 0.005)
        np.testing.assert_array_equal(y.bias_accel, x.bias_accel)
        np.testing.assert_array_equal(y.bias_gyro, x.bias_gyro)
        np.testing.assert_array_equal(y.gravity, x.gravity)

    def test_transition_matrix_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(30):
            x = random_state(rng)
            imu = ImuSample(
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
        imu = ImuSample(0.0, accel=[0.1, 0.2, 9.7], gyro=[0.01, 0.0, 0.3])
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
            imu = ImuSample(
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
            propagate(x, cov, ImuSample(0.0, [0, 0, 9.81], [0, 0, 0]), 0.0, noise)
        with pytest.raises(NonFiniteInput):
            propagate(x, cov, ImuSample(0.0, [np.nan, 0, 9.81], [0, 0, 0]), 0.01, noise)
        with pytest.raises(ValueError):
            propagate(x, cov, ImuSample(0.0, [0, 0, 9.81], [0, 0, 0]), 0.5, noise)


def fold_propagate_to(state, cov, time, samples, t_end, noise):
    """Reference zero-order hold: one ``propagate`` call per step, sample by sample."""

    def hold(state, cov, sample, dt):
        n_sub = max(1, int(np.ceil(dt / MAX_IMU_DT_S - 1e-9)))
        for _ in range(n_sub):
            state, cov = propagate(state, cov, sample, dt / n_sub, noise)
        return state, cov

    n = len(samples)
    for i, s in enumerate(samples):
        stop = min(samples[i + 1].timestamp if i + 1 < n else t_end, t_end)
        dt = stop - max(time, s.timestamp)
        if dt <= 1e-12:
            continue
        state, cov = hold(state, cov, s, dt)
        time = stop
    if n and time < t_end - 1e-9:
        state, cov = hold(state, cov, samples[-1], t_end - time)
    return state, cov


def random_imu(rng, t):
    return ImuSample(t, accel=[0.0, 0.0, 9.81] + rng.normal(0, 0.5, 3), gyro=rng.normal(0, 0.3, 3))


def assert_same_propagation(a, b, tol=1e-12):
    (state_a, cov_a), (state_b, cov_b) = a, b
    assert np.abs(box_minus(state_a, state_b)).max() <= tol
    assert np.abs(cov_a - cov_b).max() <= tol


class TestPropagateWindow:
    def test_window_equals_step_by_step_fold(self):
        rng = np.random.default_rng(30)
        noise = NoiseParams()
        for _ in range(5):
            x = random_state(rng)
            cov = np.eye(ERR_DIM) * 1e-3
            samples = [random_imu(rng, 0.0) for _ in range(20)]
            dts = rng.uniform(0.002, 0.01, 20)
            fold = (x, cov)
            for s, dt in zip(samples, dts):
                fold = propagate(*fold, s, dt, noise)
            window = propagate_window(
                x, cov, [s.accel for s in samples], [s.gyro for s in samples], dts, noise
            )
            assert_same_propagation(window, fold)

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
        samples = [random_imu(rng, float(t)) for t in times]
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
            propagate_window(
                NominalState.identity(), np.eye(ERR_DIM), arrays["accel"], arrays["gyro"],
                arrays["dt"], NoiseParams(),
            )


class TestFeatureMeasurement:
    def test_exact_measurement_zero_residual(self, intr):
        x = NominalState.identity()
        extr = Extrinsics.identity()
        z = residual_feature(x, np.array([0.0, 0.0, 5.0]), np.array([intr.cx, intr.cy]), extr, intr)
        np.testing.assert_allclose(z, [0.0, 0.0], atol=1e-12)

    def test_sign_convention(self, intr):
        # measured 1 px right of the prediction -> residual (-1, 0)
        x = NominalState.identity()
        extr = Extrinsics.identity()
        f = np.array([intr.cx + 1.0, intr.cy])
        z = residual_feature(x, np.array([0.0, 0.0, 5.0]), f, extr, intr)
        np.testing.assert_allclose(z, [-1.0, 0.0], atol=1e-12)

    def test_direct_formula_oracle(self, intr, forward_extrinsics):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = random_state(rng)
            extr = forward_extrinsics
            q_target = np.array([rng.normal(0, 2), rng.normal(0, 2), rng.uniform(1, 40)])
            m = extr.camera_pose(x).apply(q_target)
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
            residual_feature(x, np.array([0.0, 0.0, -5.0]), np.array([0.0, 0.0]), Extrinsics.identity(), intr)

    def test_jacobian_sparsity(self, intr, forward_extrinsics):
        rng = np.random.default_rng(9)
        x = random_state(rng)
        m = forward_extrinsics.camera_pose(x).apply(np.array([1.0, -0.5, 12.0]))
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
            m = forward_extrinsics.camera_pose(x).apply(q_target)
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
        extr = Extrinsics.identity()
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
        np.testing.assert_allclose(residual_speed(x, SpeedSample(0.0, vx)), np.zeros(3), atol=1e-12)

    def test_identity_rotation_direct_value(self):
        x = NominalState.identity()
        np.testing.assert_allclose(
            residual_speed(x, SpeedSample(0.0, 10.0)), [10.0, 0.0, 0.0]
        )

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(30):
            x = random_state(rng)
            s = SpeedSample(0.0, rng.uniform(0, 20))
            h = jacobian_speed(x, s)
            fd = fd_jacobian(lambda st: residual_speed(st, s), x, 3)
            worst = max(worst, np.linalg.norm(h - fd) / max(np.linalg.norm(fd), 1e-12))
        assert worst < 1e-6


def feature_problem(intr, extr, truth, n, rng, noise_px=0.0):
    """Exact pixel observations of random camera-frame points at ``truth``."""
    cam = extr.camera_pose(truth)
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
            speed = SpeedSample(0.0, rng.uniform(0, 15))
            z, h, rinv, n_used, _ = _stack_measurements(
                x, matches, speed, forward_extrinsics, intr, noise
            )
            assert n_used == 8 and h.shape == (19, ERR_DIM)
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
            assert not fd[:, H_COLS.stop:].any() and not h[:, H_COLS.stop:].any()
            worst_fd = max(worst_fd, np.abs(h - fd).max() / np.abs(fd).max())
            worst_point = max(worst_point, np.abs(h - per_point).max() / np.abs(per_point).max())
        assert worst_fd < 1e-6
        assert worst_point < 1e-12

    def test_residual_only_path_is_bitwise_equal(self, intr, forward_extrinsics):
        rng = np.random.default_rng(22)
        x = random_state(rng)
        matches = feature_problem(intr, forward_extrinsics, x, 40, rng, noise_px=1.0)
        behind = forward_extrinsics.camera_pose(x).apply(np.array([[0.5, 0.2, -3.0], [0.0, 0.0, 0.05]]))
        matches = Matched3D2D(
            np.vstack([matches.points, behind]), np.vstack([matches.pixels, np.zeros((2, 2))])
        )
        for speed in (None, SpeedSample(0.0, 4.0)):
            full = _stack_measurements(x, matches, speed, forward_extrinsics, intr, NoiseParams())
            cheap = _stack_measurements(
                x, matches, speed, forward_extrinsics, intr, NoiseParams(), jacobian=False
            )
            assert cheap[1] is None
            np.testing.assert_array_equal(cheap[0], full[0])
            np.testing.assert_array_equal(cheap[2], full[2])
            assert cheap[3:] == full[3:] == (40, 2)


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
            speed = SpeedSample(0.0, rng.uniform(0, 15))
            pred = box_plus(truth, rng.normal(0, 0.02, ERR_DIM))
            cov = np.eye(ERR_DIM) * 0.01
            params = FilterParams(noise=NoiseParams(r_f_px2=1.3, r_v=0.2), kappa_max=1)
            st, cv, _ = iterated_update(
                pred, cov, matches, speed, forward_extrinsics, intr, params
            )
            # independently coded standard EKF oracle
            z, h, rinv, _, _ = _stack_measurements(
                pred, matches, speed, forward_extrinsics, intr, params.noise
            )
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
            pred, cov, None, SpeedSample(0.0, vx),
            forward_extrinsics, intr, FilterParams(noise=NoiseParams(r_v=1e-4)),
        )
        assert np.linalg.norm(st.velocity - truth.velocity) < 0.05
        assert diag.cost_final <= diag.cost0

    def test_freeze_gravity_blocks_gravity_correction(self, intr, forward_extrinsics):
        rng = np.random.default_rng(18)
        truth = random_state(rng)
        matches = feature_problem(intr, forward_extrinsics, truth, 80, rng)
        pred = box_plus(truth, rng.normal(0, 0.05, ERR_DIM))
        cov = np.eye(ERR_DIM) * 0.01
        st, _, _ = iterated_update(
            pred, cov, matches, None, forward_extrinsics, intr,
            FilterParams(freeze_gravity=True),
        )
        np.testing.assert_array_equal(st.gravity, pred.gravity)


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
        speeds = {round(s.timestamp, 9): s for s in synthesize_speed(world, noise)}
        params = FilterParams()

        def run(use_speed):
            filt = LocalizationFilter(intr, forward_extrinsics, params)
            filt.initialize(world.poses[0], [s for s in imu if s.timestamp < 1.0 - 1e-9])
            errs = []
            frames = np.arange(1.0, 30.0, 0.1)
            buckets = split_imu_stream(imu, frames, filt.time)
            for k, t in enumerate(frames):
                filt.propagate_to(buckets[k], t)
                if use_speed:
                    sp = speeds.get(round(t, 9))
                    if sp is not None:
                        filt.state, filt.cov, _ = iterated_update(
                            filt.state, filt.cov, None, sp, forward_extrinsics, intr, params
                        )
                truth, _, _, _ = world.eval(t)
                errs.append(np.linalg.norm(filt.state.position - truth.translation))
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
            samples.append(ImuSample(k * dt, a, np.asarray(gyro, dtype=float)))
        return samples

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
        frame = CameraFrame(1.0, IntensityImage(np.zeros((intr.height, intr.width), np.uint8)))
        with pytest.raises(EmptyMap):
            filt.process_frame([], frame, SpeedSample(1.0, 0.0), TopologicalMap(intr), None)

    def test_zero_matches_falls_back_to_speed(self, intr, forward_extrinsics):
        class ZeroMatcher:
            def match(self, frame, node):
                return CorrespondenceSet(np.zeros((0, 2)), np.zeros((0, 2)))

        filt = LocalizationFilter(intr, forward_extrinsics, FilterParams())
        filt.initialize(Pose.identity(), TestInitialize.window())
        topo = TopologicalMap(intr)
        topo.insert_node(
            TopoNode(
                0,
                DepthImage(np.full((intr.height, intr.width), 10.0, np.float32)),
                IntensityImage(np.zeros((intr.height, intr.width), np.uint8)),
                forward_extrinsics.camera_pose(filt.state),
                0.0,
                intr,
            )
        )
        frame = CameraFrame(1.0, IntensityImage(np.zeros((intr.height, intr.width), np.uint8)))
        traces = []
        for k in range(10):
            imu = [ImuSample(1.0 + 0.1 * k, [0, 0, 9.81], [0, 0, 0])]
            frame = CameraFrame(1.0 + 0.1 * (k + 1), frame.image)
            _, cov, diag = filt.process_frame(
                imu, frame, SpeedSample(frame.timestamp, 0.0), topo, ZeroMatcher()
            )
            traces.append(np.trace(cov[POS, POS]))
            assert "speed_only" in diag.flags or "matcher_failure:EmptyInput" in str(diag.flags) or "insufficient_features" in diag.flags
        # position uncertainty grows monotonically while only speed is measured
        assert all(b > a for a, b in zip(traces, traces[1:]))


class TestSplitImuStream:
    def test_buckets_partition_window_starts(self):
        samples = [ImuSample(0.005 * k, [0, 0, 9.81], [0, 0, 0]) for k in range(60)]
        frames = np.array([0.1, 0.2, 0.3])
        buckets = split_imu_stream(samples, frames, 0.0)
        assert [len(b) for b in buckets] == [20, 20, 20]
        assert buckets[0][0].timestamp == 0.0
        assert abs(buckets[1][0].timestamp - 0.1) < 1e-12
        # samples before t_start are discarded
        buckets2 = split_imu_stream(samples, frames, 0.05)
        assert [len(b) for b in buckets2] == [10, 20, 20]
