"""Manifold and camera primitives: SO(3)/SE(3), the JSON quaternion reader,
the one pinhole camera model (projection, its Jacobian, unprojection) and the
damped Gauss-Newton loop that the filter update and PnP share.

Conventions used throughout the package:
  * quaternions are stored (w, x, y, z), Hamilton convention, unit norm
  * a Pose maps local coordinates into its parent frame: p_parent = R @ p_local + t
  * rotation error increments compose on the right: R <- R @ exp(skew(dtheta))
  * camera frame: x right, y down, z forward (pixels u along x, v along y)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import check_keys, parse_vector, to_json
from .errors import InputError, InvalidDepth, NonPositiveDepth

# Below this angle (rad) exp/log/Jacobians switch to their Taylor branches.
SMALL_ANGLE = 1e-8

_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


def skew(v: np.ndarray) -> np.ndarray:
    """3x3 antisymmetric matrix with skew(v) @ w == cross(v, w).

    An (n, 3) stack of vectors gives an (n, 3, 3) stack of matrices.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        x, y, z = v.tolist()
        o = 0.0 * x
        return np.array([o, -z, y, z, o, -x, -y, x, o]).reshape(3, 3)
    x, y, z = v.T
    o = 0.0 * x
    return np.array([o, -z, y, z, o, -x, -y, x, o]).T.reshape(v.shape[:-1] + (3, 3))


# quat_to_matrix on a stack: entry i of the flattened matrix is
# 2 * (q_a q_b + sign * q_c q_d), and 1 minus that on the diagonal, with the
# products read from the flattened 4x4 outer product q q^T.
_QM_A = np.array([10, 6, 7, 6, 5, 11, 7, 11, 5])  # yy xy xz xy xx yz xz yz xx
_QM_B = np.array([15, 3, 2, 3, 15, 1, 2, 1, 10])  # zz wz wy wz zz wx wy wx yy
_QM_SIGN = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z), or of an (n, 4) stack.

    Both forms evaluate the same expressions, so a stack row equals the
    matrix of that quaternion alone bit for bit.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        w, x, y, z = q.tolist()
        return np.array(
            [
                1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
                2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
                2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
            ]
        ).reshape(3, 3)
    flat = q.reshape(-1, 4)
    outer = (flat[:, :, None] * flat[:, None, :]).reshape(-1, 16)
    m = 2 * (outer[:, _QM_A] + _QM_SIGN * outer[:, _QM_B])  # a - b == a + (-b) exactly
    m[:, ::4] = 1 - m[:, ::4]
    return m.reshape(q.shape[:-1] + (3, 3))


class Rotation:
    """Unit-quaternion rotation, renormalized after every operation. It is
    never modified, so its matrix is computed once, on first use (read-only)."""

    __slots__ = ("q", "_matrix")

    def __init__(self, q_wxyz):
        q = np.asarray(q_wxyz, dtype=float)
        flat = q.ravel()
        n = math.sqrt(flat.dot(flat))  # np.linalg.norm(q), without its overhead
        if n < 1e-12 or not math.isfinite(n):
            raise ValueError("degenerate quaternion")
        self.q = q / n
        self._matrix = None

    @classmethod
    def identity(cls) -> "Rotation":
        return cls((1.0, 0.0, 0.0, 0.0))

    @classmethod
    def from_quat_xyzw(cls, q_xyzw) -> "Rotation":
        x, y, z, w = q_xyzw
        return cls((w, x, y, z))

    def as_quat_xyzw(self) -> np.ndarray:
        w, x, y, z = self.q
        return np.array([x, y, z, w])

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Rotation":
        # Shepperd's method: pick the largest of (trace, diagonal) pivots.
        m = np.asarray(m, dtype=float)
        t = np.trace(m)
        if t > 0.0:
            s = 0.5 / np.sqrt(t + 1.0)
            w = 0.25 / s
            x = (m[2, 1] - m[1, 2]) * s
            y = (m[0, 2] - m[2, 0]) * s
            z = (m[1, 0] - m[0, 1]) * s
        elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
            s = 2.0 * np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2])
            w = (m[2, 1] - m[1, 2]) / s
            x = 0.25 * s
            y = (m[0, 1] + m[1, 0]) / s
            z = (m[0, 2] + m[2, 0]) / s
        elif m[1, 1] > m[2, 2]:
            s = 2.0 * np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2])
            w = (m[0, 2] - m[2, 0]) / s
            x = (m[0, 1] + m[1, 0]) / s
            y = 0.25 * s
            z = (m[1, 2] + m[2, 1]) / s
        else:
            s = 2.0 * np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1])
            w = (m[1, 0] - m[0, 1]) / s
            x = (m[0, 2] + m[2, 0]) / s
            y = (m[1, 2] + m[2, 1]) / s
            z = 0.25 * s
        return cls((w, x, y, z))

    def as_matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = quat_to_matrix(self.q)
            self._matrix.flags.writeable = False
        return self._matrix

    def compose(self, other: "Rotation") -> "Rotation":
        w1, x1, y1, z1 = self.q.tolist()
        w2, x2, y2, z2 = other.q.tolist()
        return Rotation(
            (
                w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            )
        )

    def __matmul__(self, other: "Rotation") -> "Rotation":
        return self.compose(other)

    def inverse(self) -> "Rotation":
        w, x, y, z = self.q.tolist()
        return Rotation((w, -x, -y, -z))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Rotate one (3,) vector or a stack (N, 3) of vectors."""
        v = np.asarray(v, dtype=float)
        if v.ndim == 1:
            return self.as_matrix() @ v
        return v @ self.as_matrix().T

    def angle_to(self, other: "Rotation") -> float:
        return float(np.linalg.norm(so3_log(self.inverse() @ other)))

    def __repr__(self) -> str:
        return f"Rotation(wxyz={np.array2string(self.q, precision=6)})"


def so3_exp(theta: np.ndarray) -> Rotation:
    """Exponential map: rotation vector (rad) to Rotation (Rodrigues)."""
    return Rotation(so3_exp_quat(theta))


def so3_exp_quat(theta: np.ndarray) -> np.ndarray:
    """Unit quaternion of a rotation vector (3,), or (n, 4) of an (n, 3) stack.

    The quaternions are unit up to rounding; Rotation renormalizes them. One
    vector takes a scalar branch with the stack's expressions, so a stack row
    equals the quaternion of that vector alone bit for bit.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 1:
        x, y, z = theta.tolist()
        angle = math.sqrt(x * x + y * y + z * z)
        half = 0.5 * angle
        if angle < SMALL_ANGLE:
            # sin(a/2)/a -> 1/2 - a^2/48 below SMALL_ANGLE
            c = 0.5 - angle * angle / 48.0
            return np.array([1.0 - half * half / 2.0, c * x, c * y, c * z])
        s = math.sin(half)
        return np.array([math.cos(half), s * (x / angle), s * (y / angle), s * (z / angle)])
    angle = np.sqrt((theta * theta).sum(axis=-1, keepdims=True))
    half = 0.5 * angle
    small = angle < SMALL_ANGLE
    if not small.any():
        return np.concatenate([np.cos(half), np.sin(half) * (theta / angle)], axis=-1)
    axis = theta / np.where(small, 1.0, angle)
    # sin(a/2)/a -> 1/2 - a^2/48 below SMALL_ANGLE
    w = np.where(small, 1.0 - half * half / 2.0, np.cos(half))
    vec = np.where(small, (0.5 - angle * angle / 48.0) * theta, np.sin(half) * axis)
    return np.concatenate([w, vec], axis=-1)


def so3_log(r: Rotation) -> np.ndarray:
    """Inverse of so3_exp on the ball ||theta|| < pi; the pi case picks a sign.

    Quaternion form stays well conditioned through pi (the vector part has
    unit norm there); the angle-pi pivot handling lives in
    Rotation.from_matrix, which feeds this function for matrix inputs.
    """
    w, x, y, z = r.q.tolist()
    if w < 0.0:  # keep the short rotation
        w, x, y, z = -w, -x, -y, -z
    vec = np.array([x, y, z])
    vn = math.sqrt(vec.dot(vec))  # np.linalg.norm(vec)
    if vn < SMALL_ANGLE:
        return 2.0 * vec / w
    return 2.0 * np.arctan2(vn, w) * vec / vn


def right_jacobian_so3(theta: np.ndarray) -> np.ndarray:
    """Right Jacobian J_r of SO(3): exp(theta + d) ~ exp(theta) exp(J_r d).

    An (n, 3) stack of rotation vectors gives an (n, 3, 3) stack. One vector
    takes a scalar branch for the coefficients with the stack's expressions,
    so a stack row equals the Jacobian of that vector alone bit for bit.
    """
    theta = np.asarray(theta, dtype=float)
    s = skew(theta)
    s2 = s @ s
    if theta.ndim == 1:
        x, y, z = theta.tolist()
        a = math.sqrt(x * x + y * y + z * z)
        if a < SMALL_ANGLE:
            c1, c2 = 0.5, 1.0 / 6.0
        else:
            c1 = (1.0 - math.cos(a)) / (a * a)
            c2 = (a - math.sin(a)) / (a * a * a)
        return _EYE3 - c1 * s + c2 * s2
    a = np.sqrt((theta * theta).sum(axis=-1))[..., None, None]
    small = a < SMALL_ANGLE
    a = np.where(small, 1.0, a)
    c1 = np.where(small, 0.5, (1.0 - np.cos(a)) / (a * a))
    c2 = np.where(small, 1.0 / 6.0, (a - np.sin(a)) / (a * a * a))
    return _EYE3 - c1 * s + c2 * s2


def inv_right_jacobian_so3(theta: np.ndarray) -> np.ndarray:
    """Inverse right Jacobian: log(exp(phi) exp(d)) ~ phi + J_r^-1(phi) d."""
    theta = np.asarray(theta, dtype=float)
    a = math.sqrt(theta.dot(theta))  # np.linalg.norm(theta)
    s = skew(theta)
    s2 = s @ s
    if a < SMALL_ANGLE:
        return _EYE3 + 0.5 * s + s2 / 12.0
    k = 1.0 / (a * a) - (1.0 + math.cos(a)) / (2.0 * a * math.sin(a))
    return _EYE3 + 0.5 * s + k * s2


class Pose:
    """Rigid transform: p_parent = rotation @ p_local + translation."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation: Rotation, translation):
        self.rotation = rotation
        self.translation = np.asarray(translation, dtype=float).reshape(3)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(Rotation.identity(), np.zeros(3))

    @classmethod
    def json_decode(cls, raw, where: str) -> "Pose":
        """From the JSON object ``{"q_xyzw": [x, y, z, w], "t": [x, y, z]}``."""
        keys = ("q_xyzw", "t")
        check_keys(raw, keys, where, required=keys)
        return cls(
            parse_quaternion(raw["q_xyzw"], f"{where} 'q_xyzw'"),
            parse_vector(raw["t"], 3, f"{where} 't'"),
        )

    def json_encode(self) -> dict:
        return {"q_xyzw": to_json(self.rotation.as_quat_xyzw()), "t": to_json(self.translation)}

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Pose":
        m = np.asarray(m, dtype=float)
        return cls(Rotation.from_matrix(m[:3, :3]), m[:3, 3])

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation.as_matrix()
        m[:3, 3] = self.translation
        return m

    def compose(self, other: "Pose") -> "Pose":
        return Pose(
            self.rotation @ other.rotation,
            self.rotation.apply(other.translation) + self.translation,
        )

    def __matmul__(self, other: "Pose") -> "Pose":
        return self.compose(other)

    def inverse(self) -> "Pose":
        rinv = self.rotation.inverse()
        return Pose(rinv, -rinv.apply(self.translation))

    def apply(self, p: np.ndarray) -> np.ndarray:
        """Transform one (3,) point or a stack (N, 3) into the parent frame."""
        return self.rotation.apply(p) + self.translation

    def __repr__(self) -> str:
        return f"Pose(t={np.array2string(self.translation, precision=4)}, {self.rotation!r})"


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


def parse_quaternion(value, what: str) -> Rotation:
    """A JSON (x, y, z, w) quaternion as a Rotation; InputError unless it is a
    list of 4 finite numbers with a nonzero norm."""
    try:
        return Rotation.from_quat_xyzw(parse_vector(value, 4, what))
    except ValueError:
        raise InputError(
            f"{what} must be a list of 4 finite numbers with a nonzero norm, got {value!r}"
        ) from None


def project_points(intr: CameraIntrinsics, pts_cam: np.ndarray, min_depth: float = 0.0):
    """Pinhole projection of an (N, 3) stack of camera-frame points.

    Returns (uv (N, 2), valid (N,)) where invalid rows (z <= min_depth) hold
    garbage and must be masked by the caller. Raises nothing, and clips
    nothing to the image bounds; the caller decides what is visible.
    """
    pts_cam = np.asarray(pts_cam, dtype=float)
    z = pts_cam[:, 2]
    valid = z > min_depth
    zsafe = np.where(valid, z, 1.0)
    uv = np.empty((len(pts_cam), 2))
    uv[:, 0] = intr.fx * pts_cam[:, 0] / zsafe + intr.cx
    uv[:, 1] = intr.fy * pts_cam[:, 1] / zsafe + intr.cy
    return uv, valid


def projection_jacobian(intr: CameraIntrinsics, pts_cam: np.ndarray) -> np.ndarray:
    """d(u, v)/d(x, y, z) of ``project_points``: (N, 2, 3) for an (N, 3) stack.

    Every z must be nonzero; the caller masks points behind the camera first.
    """
    pts_cam = np.asarray(pts_cam, dtype=float)
    x, y, z = pts_cam.T
    jac = np.zeros((len(pts_cam), 2, 3))
    jac[:, 0, 0] = intr.fx / z
    jac[:, 0, 2] = -intr.fx * x / z**2
    jac[:, 1, 1] = intr.fy / z
    jac[:, 1, 2] = -intr.fy * y / z**2
    return jac


def unproject_points(intr: CameraIntrinsics, px: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Back-project (N, 2) pixels at their depths (camera z, meters) to (N, 3).

    Depths are not checked; rows without a usable depth are the caller's to mask.
    """
    px = np.asarray(px, dtype=float)
    pts = np.empty((len(px), 3))
    pts[:, 2] = depth
    pts[:, 0] = pts[:, 2] * (px[:, 0] - intr.cx) / intr.fx
    pts[:, 1] = pts[:, 2] * (px[:, 1] - intr.cy) / intr.fy
    return pts


def project(intr: CameraIntrinsics, p_cam: np.ndarray) -> np.ndarray:
    """Pinhole projection of one camera-frame point to pixel (u, v)."""
    p_cam = np.asarray(p_cam, dtype=float).reshape(1, 3)
    uv, valid = project_points(intr, p_cam)
    if not valid[0]:
        raise NonPositiveDepth(f"point depth {p_cam[0, 2]} is not positive")
    return uv[0]


def unproject(intr: CameraIntrinsics, f: np.ndarray, depth: float) -> np.ndarray:
    """Back-project pixel (u, v) at the given depth (camera z, meters)."""
    if not np.isfinite(depth) or depth <= 0.0:
        raise InvalidDepth(f"depth {depth} is not a positive finite value")
    return unproject_points(intr, np.reshape(f, (1, 2)), [depth])[0]


# Candidates per Gauss-Newton pass: the step, then its halves.
GN_STEP_TRIES = 12


def damped_gauss_newton(x, scored, linearize, try_step, decrease, eps, max_linearizations):
    """Damped Gauss-Newton on a manifold, shared by the filter update and PnP.

    ``scored`` is the caller's score of the start x, its cost first. A pass
    takes ``step, lin = linearize(x, scored)``; ``try_step(x, step)`` gives
    (candidate, score), and the step is halved while the candidate raises
    the cost beyond rounding, up to ``GN_STEP_TRIES`` candidates, after which
    the loop stops at x. At an accepted candidate, ``decrease(lin, score)``,
    the next step's predicted decrease g^T S^-1 g under the pass's
    linearization (inf where that no longer fits), below ``eps`` stops the
    loop, converged. At most ``max_linearizations`` passes. Returns
    (x, score of x, lin of the pass that reached x or None, passes run,
    converged or no candidate lowered the cost, some step halved).
    """
    lin, halved = None, False
    for n in range(1, max_linearizations + 1):
        step, pass_lin = linearize(x, scored)
        for _ in range(GN_STEP_TRIES):
            cand, cand_scored = try_step(x, step)
            if cand_scored[0] <= scored[0] * (1.0 + 1e-12) + 1e-15:
                break
            halved = True
            step = 0.5 * step
        else:
            return x, scored, lin, n, True, halved
        x, scored, lin = cand, cand_scored, pass_lin
        if decrease(lin, scored) < eps:
            return x, scored, lin, n, True, halved
    return x, scored, lin, max_linearizations, False, halved
