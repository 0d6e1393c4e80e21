"""Manifold and camera primitives against hand-computed and library oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation

from topoloc.errors import InvalidDepth, NonPositiveDepth
from topoloc.geometry import (
    GN_STEP_TRIES,
    SMALL_ANGLE,
    CameraIntrinsics,
    Pose,
    Rotation,
    damped_gauss_newton,
    inv_right_jacobian_so3,
    pose_list,
    project,
    project_points,
    projection_jacobian,
    quat_to_matrix,
    right_jacobian_so3,
    skew,
    so3_exp,
    so3_exp_quat,
    so3_log,
    unproject,
    unproject_points,
)

from conftest import random_pose, random_rotation


class TestSkew:
    def test_zero_vector(self):
        np.testing.assert_array_equal(skew(np.zeros(3)), np.zeros((3, 3)))

    def test_matches_cross_product(self):
        # (0,0,1) x (1,0,0) = (0,1,0)
        np.testing.assert_allclose(
            skew(np.array([0.0, 0.0, 1.0])) @ np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0]),
        )

    def test_antisymmetric_and_cross_on_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v, w = rng.normal(0, 5, 3), rng.normal(0, 5, 3)
            s = skew(v)
            np.testing.assert_allclose(s.T, -s)
            np.testing.assert_allclose(s @ w, np.cross(v, w), atol=1e-12)
            np.testing.assert_allclose(s @ w + skew(w) @ v, np.zeros(3), atol=1e-12)


class TestSo3ExpLog:
    def test_zero_is_identity(self):
        r = so3_exp(np.zeros(3))
        np.testing.assert_allclose(r.as_matrix(), np.eye(3), atol=1e-15)
        np.testing.assert_allclose(so3_log(Rotation.identity()), np.zeros(3))

    def test_quarter_turn_about_z(self):
        r = so3_exp(np.array([0.0, 0.0, np.pi / 2]))
        np.testing.assert_allclose(
            r.apply(np.array([1.0, 0.0, 0.0])), np.array([0.0, 1.0, 0.0]), atol=1e-12
        )

    def test_matches_scipy_rodrigues(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            t = rng.normal(0, 0.8, 3)
            np.testing.assert_allclose(
                so3_exp(t).as_matrix(),
                ScipyRotation.from_rotvec(t).as_matrix(),
                atol=1e-12,
            )

    def test_round_trip(self):
        t = np.array([0.1, 0.2, 0.3])
        np.testing.assert_allclose(so3_log(so3_exp(t)), t, atol=1e-12)

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            t = rng.normal(0, 1, 3)
            n = np.linalg.norm(t)
            if n >= np.pi:
                t *= (np.pi - 1e-6) / n
            np.testing.assert_allclose(so3_log(so3_exp(t)), t, atol=1e-10)

    def test_small_angles(self):
        for mag in (1e-12, 1e-9, 1e-7):
            t = np.array([mag, 0.0, 0.0])
            np.testing.assert_allclose(so3_log(so3_exp(t)), t, rtol=1e-6, atol=1e-15)

    def test_pi_rotation_about_z(self):
        r = Rotation.from_matrix(np.diag([-1.0, -1.0, 1.0]))
        log = so3_log(r)
        assert abs(np.linalg.norm(log) - np.pi) < 1e-9
        np.testing.assert_allclose(np.abs(log), [0.0, 0.0, np.pi], atol=1e-9)

    def test_determinant_and_orthonormality(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m = random_rotation(rng).as_matrix()
            assert abs(np.linalg.det(m) - 1.0) < 1e-9
            np.testing.assert_allclose(m.T @ m, np.eye(3), atol=1e-9)


class TestRotationClass:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            r = random_rotation(rng, 2.0)
            r2 = Rotation.from_matrix(r.as_matrix())
            assert r.angle_to(r2) < 1e-12

    def test_compose_matches_matrix_product(self):
        rng = np.random.default_rng(6)
        a, b = random_rotation(rng), random_rotation(rng)
        np.testing.assert_allclose(
            (a @ b).as_matrix(), a.as_matrix() @ b.as_matrix(), atol=1e-12
        )

    def test_unit_norm_after_many_compositions(self):
        rng = np.random.default_rng(7)
        r = Rotation.identity()
        for _ in range(1000):
            r = r @ random_rotation(rng, 0.1)
        assert abs(np.linalg.norm(r.q) - 1.0) < 1e-12

    def test_quat_order_conventions(self):
        r = Rotation.from_quat_xyzw([0.0, 0.0, np.sin(0.2), np.cos(0.2)])
        np.testing.assert_allclose(so3_log(r), [0.0, 0.0, 0.4], atol=1e-12)


class TestPose:
    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = random_pose(rng)
            ident = p @ p.inverse()
            np.testing.assert_allclose(ident.translation, np.zeros(3), atol=1e-9)
            assert ident.rotation.angle_to(Rotation.identity()) < 1e-9

    def test_associativity(self):
        rng = np.random.default_rng(9)
        a, b, c = (random_pose(rng) for _ in range(3))
        lhs = ((a @ b) @ c).as_matrix()
        rhs = (a @ (b @ c)).as_matrix()
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_apply_matches_matrix_form(self):
        rng = np.random.default_rng(10)
        p = random_pose(rng)
        pts = rng.normal(0, 5, (20, 3))
        hom = np.column_stack([pts, np.ones(20)])
        expected = (p.as_matrix() @ hom.T).T[:, :3]
        np.testing.assert_allclose(p.apply(pts), expected, atol=1e-10)


class TestRightJacobian:
    def test_finite_difference(self):
        # exp(theta + d) ~ exp(theta) exp(J_r d)
        rng = np.random.default_rng(11)
        h = 1e-7
        for _ in range(30):
            theta = rng.normal(0, 0.7, 3)
            jr = right_jacobian_so3(theta)
            fd = np.zeros((3, 3))
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd[:, j] = so3_log(so3_exp(theta).inverse() @ so3_exp(theta + e)) / h
            np.testing.assert_allclose(jr, fd, atol=1e-6)

    def test_inverse_is_matrix_inverse(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            theta = rng.normal(0, 0.7, 3)
            np.testing.assert_allclose(
                inv_right_jacobian_so3(theta) @ right_jacobian_so3(theta),
                np.eye(3),
                atol=1e-10,
            )


def reference_stack_forms(theta, quats):
    """so3_exp_quat, right_jacobian_so3 and quat_to_matrix of stacks as first
    written (np.where on every row, one array per matrix entry): the faster
    forms must match them bit for bit."""
    angle = np.sqrt((theta * theta).sum(axis=-1, keepdims=True))
    half = 0.5 * angle
    small = angle < SMALL_ANGLE
    axis = theta / np.where(small, 1.0, angle)
    w = np.where(small, 1.0 - half * half / 2.0, np.cos(half))
    vec = np.where(small, (0.5 - angle * angle / 48.0) * theta, np.sin(half) * axis)
    exp_q = np.concatenate([w, vec], axis=-1)

    a = np.sqrt((theta * theta).sum(axis=-1))[..., None, None]
    s = skew(theta)
    small = a < SMALL_ANGLE
    a = np.where(small, 1.0, a)
    c1 = np.where(small, 0.5, (1.0 - np.cos(a)) / (a * a))
    c2 = np.where(small, 1.0 / 6.0, (a - np.sin(a)) / (a * a * a))
    jr = np.eye(3) - c1 * s + c2 * (s @ s)

    w, x, y, z = quats.T
    m = np.array(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ]
    ).T.reshape(-1, 3, 3)
    return exp_q, jr, m


def test_stack_forms_match_single_vector_forms(intr):
    # The IMU window kernel calls these on (n, 3) / (n, 4) stacks, the
    # filter and the map compiler the camera model on (n, 3) / (n, 2) ones.
    rng = np.random.default_rng(13)
    below, above = np.nextafter(SMALL_ANGLE, 0.0), np.nextafter(SMALL_ANGLE, 1.0)
    unit = rng.normal(0, 1, (3, 3))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    boundary = [
        # sqrt(a * a) == a: the angle lands exactly on, below or above SMALL_ANGLE
        [SMALL_ANGLE, 0.0, 0.0], [0.0, -below, 0.0], [0.0, 0.0, above],
        [-SMALL_ANGLE, 0.0, 0.0], [0.0, below, 0.0], [0.0, 0.0, -above],
        *(SMALL_ANGLE * unit), *(above * unit),
        # near pi
        [np.pi, 0.0, 0.0], [0.0, -np.pi, 0.0], *((np.pi - 1e-9) * unit), *((np.pi - 1e-3) * unit),
    ]
    theta = np.vstack(
        [
            rng.normal(0, 0.7, (20, 3)), rng.normal(0, 1e-3, (5, 3)),
            [[1e-10, -2e-10, 0.0], [0.0, 0.0, 0.0]], boundary,
        ]
    )
    quats = so3_exp_quat(theta)
    ref_quats, ref_jr, ref_mats = reference_stack_forms(theta, quats)
    np.testing.assert_array_equal(quats, ref_quats)
    np.testing.assert_array_equal(right_jacobian_so3(theta), ref_jr)
    np.testing.assert_array_equal(quat_to_matrix(quats), ref_mats)
    # a stack with no angle below SMALL_ANGLE, as the IMU window's usually are
    large = theta[np.linalg.norm(theta, axis=1) >= SMALL_ANGLE]
    np.testing.assert_array_equal(so3_exp_quat(large), reference_stack_forms(large, quats)[0])
    for th, q, jr, sk in zip(theta, quats, right_jacobian_so3(theta), skew(theta)):
        np.testing.assert_array_equal(Rotation(q).q, so3_exp(th).q)
        np.testing.assert_array_equal(jr, right_jacobian_so3(th))
        np.testing.assert_array_equal(sk, skew(th))
    for q, m in zip(quats, quat_to_matrix(quats)):
        np.testing.assert_array_equal(m, quat_to_matrix(q))
    pts = np.column_stack([rng.normal(0, 5, 20), rng.normal(0, 3, 20), rng.uniform(0.5, 80, 20)])
    uv, valid = project_points(intr, pts)
    assert valid.all()
    for p, f, b, jac in zip(
        pts, uv, unproject_points(intr, uv, pts[:, 2]), projection_jacobian(intr, pts)
    ):
        np.testing.assert_array_equal(project(intr, p), f)
        np.testing.assert_array_equal(unproject(intr, f, p[2]), b)
        np.testing.assert_array_equal(projection_jacobian(intr, p[None])[0], jac)


class TestProjection:
    def test_principal_point(self, intr):
        np.testing.assert_allclose(
            project(intr, np.array([0.0, 0.0, 1.0])), [320.0, 240.0]
        )

    def test_pinhole_formula(self):
        intr = CameraIntrinsics(100.0, 100.0, 320.0, 240.0, 640, 480)
        np.testing.assert_allclose(
            project(intr, np.array([1.0, 0.0, 2.0])), [370.0, 240.0]
        )

    def test_zero_depth_raises(self, intr):
        with pytest.raises(NonPositiveDepth):
            project(intr, np.array([1.0, 1.0, 0.0]))

    def test_unproject_principal_point(self, intr):
        np.testing.assert_allclose(
            unproject(intr, np.array([320.0, 240.0]), 5.0), [0.0, 0.0, 5.0]
        )

    def test_unproject_negative_depth_raises(self, intr):
        with pytest.raises(InvalidDepth):
            unproject(intr, np.array([100.0, 100.0]), -1.0)
        with pytest.raises(InvalidDepth):
            unproject(intr, np.array([100.0, 100.0]), np.nan)

    def test_round_trip_1000_pixels(self, intr):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(1000):
            f = rng.uniform([0, 0], [intr.width, intr.height])
            d = rng.uniform(0.2, 150.0)
            back = project(intr, unproject(intr, f, d))
            worst = max(worst, float(np.max(np.abs(back - f))))
        assert worst < 1e-9

    def test_projection_jacobian_matches_central_differences(self, intr):
        rng = np.random.default_rng(31)
        pts = np.column_stack(
            [rng.normal(0, 5, 200), rng.normal(0, 3, 200), rng.uniform(0.5, 80, 200)]
        )
        jac = projection_jacobian(intr, pts)
        assert jac.shape == (200, 2, 3)
        h = 1e-6
        for k, e in enumerate(np.eye(3)):
            numeric = (
                project_points(intr, pts + h * e)[0] - project_points(intr, pts - h * e)[0]
            ) / (2 * h)
            np.testing.assert_allclose(jac[:, :, k], numeric, rtol=1e-6, atol=1e-5)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-200.0, 840.0), st.floats(-200.0, 680.0), st.floats(0.05, 500.0)
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_unproject_project_round_trip(self, rows):
        intr = CameraIntrinsics(600.0, 580.0, 320.5, 239.5, 640, 480)
        px, depth = np.array(rows)[:, :2], np.array(rows)[:, 2]
        uv, valid = project_points(intr, unproject_points(intr, px, depth))
        assert valid.all()
        np.testing.assert_allclose(uv, px, rtol=0, atol=1e-9)

    def test_project_points_masks_nonpositive_depth(self, intr):
        pts = np.array([[0.0, 0.0, 2.0], [1.0, 1.0, -1.0], [0.5, 0.0, 1.0]])
        uv, valid = project_points(intr, pts)
        np.testing.assert_array_equal(valid, [True, False, True])
        np.testing.assert_allclose(uv[0], [320.0, 240.0])

    def test_project_points_of_a_stack_equals_its_rows(self, intr):
        pts = np.random.default_rng(5).normal(0.0, 2.0, size=(4, 7, 3))
        uv, valid = project_points(intr, pts)
        flat_uv, flat_valid = project_points(intr, pts.reshape(-1, 3))
        assert uv.shape == (4, 7, 2) and valid.shape == (4, 7)
        np.testing.assert_array_equal(uv.reshape(-1, 2)[flat_valid], flat_uv[flat_valid])
        np.testing.assert_array_equal(valid.ravel(), flat_valid)


class TestDampedGaussNewton:
    """The shared loop on f(x) = (x^2 - 4)^2 / 2, residual x^2 - 4: its
    Gauss-Newton step (4 - x^2) / 2x overshoots from near 0."""

    @staticmethod
    def solve(x0, eps=1e-20, cap=50, step_sign=1.0):
        calls = []

        def score(x):
            calls.append(x)
            return (0.5 * (x * x - 4.0) ** 2, x)

        def linearize(x, scored):
            return step_sign * (4.0 - x * x) / (2.0 * x), 2.0 * x

        def decrease(jac, scored):
            g = jac * (scored[1] ** 2 - 4.0)
            return g * g / (jac * jac)

        def try_step(x, step):
            return x + step, score(x + step)

        gn = damped_gauss_newton(x0, score(x0), linearize, try_step, decrease, eps, cap)
        return gn, calls

    def test_overshooting_step_is_halved_then_converges(self):
        (x, _, _, _, converged, halved), calls = self.solve(0.1)
        assert halved and converged
        assert abs(x - 2.0) < 1e-12
        assert calls[-1] == x  # nothing is scored after the stop test passes

    def test_uphill_steps_stop_at_the_start(self):
        (x, _, lin, passes, converged, halved), calls = self.solve(1.5, step_sign=-1.0)
        assert (x, lin, passes, converged, halved) == (1.5, None, 1, True, True)
        assert len(calls) == 1 + GN_STEP_TRIES

    def test_cap_reached_before_the_stop(self):
        (_, scored, _, passes, converged, _), _ = self.solve(0.1, eps=0.0, cap=3)
        assert (passes, converged) == (3, False)
        assert scored[0] < self.solve(0.1, cap=2)[0][1][0]


# ---------------------------------------------------------------------------
# pose_list: one normalizing pass over a stack, against a Rotation per row

def pose_bytes(pose):
    return pose.rotation.q.tobytes() + pose.translation.tobytes()


# Non-unit quaternions of every sign, scaled by 1e-3 to 1e3.
SCALED_QUATERNIONS = st.tuples(st.tuples(*[st.floats(-1.0, 1.0)] * 4), st.floats(-3.0, 3.0)).map(
    lambda r: tuple(v * 10.0 ** r[1] for v in r[0])
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(SCALED_QUATERNIONS, st.tuples(*[st.floats(-1e5, 1e5)] * 3)), max_size=30))
def test_pose_list_equals_a_pose_per_row(rows):
    q = np.array([r[0] for r in rows]).reshape(-1, 4)
    t = np.array([r[1] for r in rows]).reshape(-1, 3)
    try:
        want = [Pose(Rotation(qi), ti) for qi, ti in zip(q, t)]
    except ValueError as exc:  # a row of (near) zeros
        with pytest.raises(ValueError, match=str(exc)):
            pose_list(q, t)
        return
    assert [pose_bytes(p) for p in pose_list(q, t)] == [pose_bytes(p) for p in want]


def test_pose_list_norm_is_rotations_on_random_quaternions():
    rng = np.random.default_rng(17)
    q = rng.normal(size=(20_000, 4)) * 10.0 ** rng.uniform(-3.0, 3.0, (20_000, 1))
    got = pose_list(q, np.zeros((len(q), 3)))
    assert b"".join(p.rotation.q.tobytes() for p in got) == b"".join(Rotation(qi).q.tobytes() for qi in q)


@pytest.mark.parametrize(
    "bad", [(0.0, 0.0, 0.0, 0.0), (1e-13, 0.0, 0.0, 0.0), (np.inf, 0.0, 0.0, 1.0), (np.nan, 1.0, 0.0, 0.0), (1e200, 0.0, 0.0, 0.0)]
)
@pytest.mark.filterwarnings("ignore:overflow encountered in dot")  # Rotation's, on 1e200
def test_pose_list_refuses_a_degenerate_row_as_rotation_does(bad):
    with pytest.raises(ValueError) as want:
        Rotation(bad)
    rows = np.array([(1.0, 0.0, 0.0, 0.0), bad, (0.0, 1.0, 0.0, 0.0)])
    with pytest.raises(ValueError) as got:
        pose_list(rows, np.zeros((3, 3)))
    assert str(got.value) == str(want.value)
