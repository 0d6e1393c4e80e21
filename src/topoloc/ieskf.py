"""Iterated error-state Kalman filter on the 18-DoF vehicle state.

State manifold: rotation (IMU-to-global), position, velocity, accelerometer
bias, gyroscope bias, gravity. The error state is the 18-vector
(dtheta, dp, dv, dba, dbw, dg) in that fixed order; rotation errors compose
on the right of the nominal rotation.

Measurements are tightly coupled: pixel reprojection residuals of global map
points and a wheel-speed residual enter the iterated MAP update directly.

The sensor streams are the arrays their readers return: IMU rows
(t, ax, ay, az, wx, wy, wz) with the specific force in m/s^2 and the rate in
rad/s in the IMU frame, and speed rows (t, vx) with vx the average wheel speed
in m/s. One frame's speed measurement is its vx as a float, or None.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import INLINE
from .errors import (
    EmptyMap,
    InsufficientStationaryData,
    MatcherFailure,
    NoMeasurements,
    NonFiniteInput,
    NonPositiveDt,
    NoVisibleLandmarks,
    AllPointsDropped,
    EmptyInput,
    PointBehindCamera,
    SingularNormalMatrix,
)
from .geometry import (
    CameraIntrinsics,
    Pose,
    Rotation,
    inv_right_jacobian_so3,
    project_points,
    projection_jacobian,
    quat_to_matrix,
    right_jacobian_so3,
    skew,
    so3_exp,
    so3_exp_quat,
    so3_log,
)
from .matching import (
    CameraFrame,
    Matched3D2D,
    Matcher,
    reproject_node_features,
    restore_3d,
    statistical_outlier_removal,
)
from .topomap import TopologicalMap

log = logging.getLogger(__name__)

# Error-state layout, shared by F_x, H and the update Jacobian.
ERR_DIM = 18
ROT = slice(0, 3)
POS = slice(3, 6)
VEL = slice(6, 9)
BA = slice(9, 12)
BW = slice(12, 15)
GRAV = slice(15, 18)

# Camera-frame points closer than this are excluded from feature updates.
MIN_FEATURE_DEPTH_M = 0.1
MAX_IMU_DT_S = 0.1


@dataclass
class NominalState:
    """Manifold-valued filter state."""

    rotation: Rotation
    position: np.ndarray
    velocity: np.ndarray
    bias_accel: np.ndarray
    bias_gyro: np.ndarray
    gravity: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        self.velocity = np.asarray(self.velocity, dtype=float).reshape(3)
        self.bias_accel = np.asarray(self.bias_accel, dtype=float).reshape(3)
        self.bias_gyro = np.asarray(self.bias_gyro, dtype=float).reshape(3)
        self.gravity = np.asarray(self.gravity, dtype=float).reshape(3)

    @classmethod
    def _of(cls, rotation, position, velocity, bias_accel, bias_gyro, gravity) -> "NominalState":
        """A state from (3,) float arrays the caller owns; skips their conversion."""
        state = object.__new__(cls)
        state.rotation = rotation
        state.position = position
        state.velocity = velocity
        state.bias_accel = bias_accel
        state.bias_gyro = bias_gyro
        state.gravity = gravity
        return state

    @classmethod
    def identity(cls) -> "NominalState":
        return cls(
            rotation=Rotation.identity(),
            position=np.zeros(3),
            velocity=np.zeros(3),
            bias_accel=np.zeros(3),
            bias_gyro=np.zeros(3),
            gravity=np.array([0.0, 0.0, -9.81]),
        )

    def copy(self) -> "NominalState":
        return NominalState._of(
            Rotation(self.rotation.q),
            self.position.copy(),
            self.velocity.copy(),
            self.bias_accel.copy(),
            self.bias_gyro.copy(),
            self.gravity.copy(),
        )

    def pose(self) -> Pose:
        return Pose(self.rotation, self.position)


def box_plus(state: NominalState, delta: np.ndarray) -> NominalState:
    """Apply an 18-vector tangent increment; rotation composes on the right."""
    delta = np.asarray(delta, dtype=float).reshape(ERR_DIM)
    return NominalState._of(
        state.rotation @ so3_exp(delta[ROT]),
        state.position + delta[POS],
        state.velocity + delta[VEL],
        state.bias_accel + delta[BA],
        state.bias_gyro + delta[BW],
        state.gravity + delta[GRAV],
    )


def box_minus(a: NominalState, b: NominalState) -> np.ndarray:
    """Tangent increment d with box_plus(b, d) == a (rotation part < pi)."""
    d = np.empty(ERR_DIM)
    d[ROT] = so3_log(b.rotation.inverse() @ a.rotation)
    np.subtract(a.position, b.position, out=d[POS])
    np.subtract(a.velocity, b.velocity, out=d[VEL])
    np.subtract(a.bias_accel, b.bias_accel, out=d[BA])
    np.subtract(a.bias_gyro, b.bias_gyro, out=d[BW])
    np.subtract(a.gravity, b.gravity, out=d[GRAV])
    return d


@dataclass
class NoiseParams:
    """Process noise densities (per sqrt(Hz)) and measurement covariances."""

    sigma_gyro: float = 2e-3  # rad/s/sqrt(Hz), drives the rotation error
    sigma_accel: float = 2e-2  # m/s^2/sqrt(Hz), drives the velocity error
    sigma_bias_accel: float = 1e-4  # random-walk density of the accel bias
    sigma_bias_gyro: float = 1e-5  # random-walk density of the gyro bias
    r_f_px2: float = 1.5**2  # pixel measurement variance per axis
    r_v: float = 0.3**2  # speed measurement variance, (m/s)^2

    def __post_init__(self):
        for name in (
            "sigma_gyro", "sigma_accel", "sigma_bias_accel",
            "sigma_bias_gyro", "r_f_px2", "r_v",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


# ---------------------------------------------------------------------------
# propagation

def process_noise_density(noise: NoiseParams) -> np.ndarray:
    """Diagonal of F_n Q_n F_n^T per second: a step of dt adds it times dt to P.

    White noise lands on the rotation, velocity and bias rows. The gravity
    row receives zero process noise; its error obeys dg_{t+1} = dg_t exactly
    and is corrected only through updates.
    """
    q = np.zeros(ERR_DIM)
    q[ROT] = noise.sigma_gyro**2
    q[VEL] = noise.sigma_accel**2
    q[BA] = noise.sigma_bias_accel**2
    q[BW] = noise.sigma_bias_gyro**2
    return q


def _integrate_window(state: NominalState, imu: np.ndarray, dt: np.ndarray):
    """Nominal state after k IMU steps, and the (k, 18, 18) stack of their F_x.

    Step i holds the accel and gyro of IMU row ``imu[i]`` for ``dt[i]``
    seconds; biases and gravity stay constant. Only the quaternion chain runs
    step by step, renormalized after every product as Rotation does. F_x is
    the exact differential of one discrete step, including the
    second-order-in-dt couplings of the position row and the gravity columns,
    so it matches finite differences of the step under box_plus
    perturbations to first order.
    """
    dt_col = dt[:, None]
    theta = (imu[:, 4:7] - state.bias_gyro) * dt_col
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
    k = len(dt)
    mats = quat_to_matrix(np.concatenate((quats[:-1], dq)))
    r, d_rot = mats[:k], mats[k:]  # rotation at the start of each step, increment
    a = imu[:, 1:4] - state.bias_accel
    accel_world = (r @ a[:, :, None])[:, :, 0] + state.gravity
    # cumulative sums accumulate in step order, as a step-by-step fold would
    vel = np.cumsum(np.concatenate((state.velocity[None], accel_world * dt_col)), axis=0)
    pos = np.cumsum(
        np.concatenate(
            (state.position[None], vel[:-1] * dt_col + 0.5 * accel_world * dt_col * dt_col)
        ),
        axis=0,
    )
    new_state = NominalState._of(
        Rotation(quats[-1]),
        pos[-1],
        vel[-1],
        state.bias_accel.copy(),
        state.bias_gyro.copy(),
        state.gravity.copy(),
    )

    dt3 = dt[:, None, None]
    r_skew_a = r @ skew(a)
    f = np.zeros((k, ERR_DIM, ERR_DIM))
    # the identity and the diagonal blocks I dt (POS-VEL, VEL-GRAV) and
    # I dt^2 / 2 (POS-GRAV), written through strided views of each step's
    # flattened matrix
    diagonals = f.reshape(k, -1)
    diagonals[:, :: ERR_DIM + 1] = 1.0
    for row, col, value in ((POS, VEL, dt), (VEL, GRAV, dt), (POS, GRAV, 0.5 * dt * dt)):
        start = row.start * ERR_DIM + col.start
        diagonals[:, start : start + 3 * (ERR_DIM + 1) : ERR_DIM + 1] = value[:, None]
    f[:, ROT, ROT] = d_rot.transpose(0, 2, 1)
    np.multiply(-right_jacobian_so3(theta), dt3, out=f[:, ROT, BW])
    np.multiply(-0.5 * r_skew_a * dt3, dt3, out=f[:, POS, ROT])
    np.multiply(-0.5 * r * dt3, dt3, out=f[:, POS, BA])
    np.multiply(-r_skew_a, dt3, out=f[:, VEL, ROT])
    np.multiply(-r, dt3, out=f[:, VEL, BA])
    return new_state, f


def propagate(state: NominalState, cov: np.ndarray, imu: np.ndarray, dt, noise: NoiseParams):
    """Advance the nominal state and the error covariance over k IMU steps.

    ``imu`` is a (k, 7) block of IMU rows and ``dt`` is (k,): step i holds
    row i for dt[i] seconds (one row and a scalar dt make one step). The
    whole window is validated before any step runs. Rotation increments,
    rotation matrices, world accelerations and the F_x stack are computed in
    vectorized form; the covariance then takes P <- F_i P F_i^T + q dt_i per
    step, with q the diagonal ``process_noise_density``. Equals k one-step
    calls.
    """
    imu = np.asarray(imu, dtype=float).reshape(-1, 7)
    dt = np.asarray(dt, dtype=float).reshape(-1)
    if not (np.isfinite(imu).all() and np.isfinite(dt).all()):
        raise NonFiniteInput("IMU sample or dt is not finite")
    if (dt <= 0.0).any():
        raise NonPositiveDt(f"dt={dt[dt <= 0.0][0]} must be positive")
    too_long = dt > MAX_IMU_DT_S * (1.0 + 1e-9)  # tolerate float timestamp jitter
    if too_long.any():
        raise ValueError(f"dt={dt[too_long][0]} exceeds the {MAX_IMU_DT_S} s integration limit")
    if len(dt) == 0:
        return state.copy(), cov.copy()
    new_state, f = _integrate_window(state, imu, dt)
    q_dt = np.outer(dt, process_noise_density(noise))
    # two preallocated buffers: F P lands in ``fp``, (F P) F^T back in ``cov``
    cov = np.array(cov, dtype=float, order="C")
    fp = np.empty_like(cov)
    cov_diag = cov.reshape(-1)[:: ERR_DIM + 1]
    for f_i, q_i in zip(f, q_dt):
        np.matmul(f_i, cov, out=fp)
        np.matmul(fp, f_i.T, out=cov)
        cov_diag += q_i
    return new_state, 0.5 * (cov + cov.T)


def propagate_state(state: NominalState, imu: np.ndarray, dt: float) -> NominalState:
    """Discrete nominal model for one IMU row held ``dt`` seconds: biases and
    gravity constant over the step."""
    return _integrate_window(state, np.reshape(imu, (1, 7)), np.array([float(dt)]))[0]


def error_transition_matrix(state: NominalState, imu: np.ndarray, dt: float) -> np.ndarray:
    """Exact differential F_x of the discrete nominal transition (one step)."""
    return _integrate_window(state, np.reshape(imu, (1, 7)), np.array([float(dt)]))[1][0]


# ---------------------------------------------------------------------------
# residuals and Jacobians

def project_features(
    state: NominalState,
    points: np.ndarray,
    extr: Pose,
    intr: CameraIntrinsics,
    jacobian: bool = True,
    extra_rows: int = 0,
):
    """Predicted pixels of (n, 3) global map points in the current camera.

    Returns (uv (k, 2), h (2k + extra_rows, 18), front (n,)) for the k points
    deeper than ``MIN_FEATURE_DEPTH_M`` in the camera frame, marked by
    ``front``. Rows of h alternate u, v per point; its ``extra_rows`` last
    rows are zero, left for the caller's other measurements. With
    ``jacobian`` false, h is None.

    H uses a = J_pi C, the (2k, 3) pixel Jacobian with respect to the
    body-frame point w = R^T (m - p): the rotation block is a [w]x =
    cross(a, w) and the position block -a R^T; the other columns are zero.
    """
    r_mat = state.rotation.as_matrix()
    c_r = extr.rotation.as_matrix()
    w = (points - state.position) @ r_mat  # rows: R^T (m - p)
    q = w @ c_r.T + extr.translation
    front = q[:, 2] > MIN_FEATURE_DEPTH_M
    # compress: boolean row indexing costs several times more here
    q, w = q.compress(front, axis=0), w.compress(front, axis=0)
    uv, _ = project_points(intr, q)
    if not jacobian:
        return uv, None, front
    k = len(q)
    a = projection_jacobian(intr, q).reshape(-1, 3) @ c_r
    ax, ay, az = a.T
    wx, wy, wz = np.repeat(w, 2, axis=0).T
    h = np.zeros((2 * k + extra_rows, ERR_DIM))
    # cross(a, w), component by component: np.cross costs more than the arithmetic
    h_rot = h[: 2 * k, ROT]
    h_rot[:, 0] = ay * wz - az * wy
    h_rot[:, 1] = az * wx - ax * wz
    h_rot[:, 2] = ax * wy - ay * wx
    np.matmul(-a, r_mat.T, out=h[: 2 * k, POS])
    return uv, h, front


def _project_feature(state, m, extr, intr, jacobian):
    uv, h, front = project_features(state, np.reshape(m, (1, 3)), extr, intr, jacobian)
    if not front[0]:
        raise PointBehindCamera(f"camera-frame depth at most {MIN_FEATURE_DEPTH_M} m")
    return uv[0], h


def residual_feature(
    state: NominalState,
    m: np.ndarray,
    f: np.ndarray,
    extr: Pose,
    intr: CameraIntrinsics,
) -> np.ndarray:
    """Pixel residual z = project(map point into current camera) - measured."""
    return _project_feature(state, m, extr, intr, jacobian=False)[0] - np.asarray(f, dtype=float)


def jacobian_feature(
    state: NominalState,
    m: np.ndarray,
    extr: Pose,
    intr: CameraIntrinsics,
) -> np.ndarray:
    """2x18 feature Jacobian; only the dtheta and dp columns are nonzero."""
    return _project_feature(state, m, extr, intr, jacobian=True)[1]


def residual_speed(state: NominalState, vx: float) -> np.ndarray:
    """z_v = R (vx, 0, 0)^T - v."""
    return state.rotation.apply(np.array([vx, 0.0, 0.0])) - state.velocity


def jacobian_speed(state: NominalState, vx: float) -> np.ndarray:
    """3x18 speed Jacobian; nonzero in the dtheta and dv columns."""
    h = np.zeros((3, ERR_DIM))
    h[:, ROT] = -state.rotation.as_matrix() @ skew(np.array([vx, 0.0, 0.0]))
    h[:, VEL] = -np.eye(3)
    return h


def _stack_measurements(
    state: NominalState,
    matches: Matched3D2D | None,
    speed: float | None,
    extr: Pose,
    intr: CameraIntrinsics,
    noise: NoiseParams,
    jacobian: bool = True,
):
    """Stacked (z, H, r_inv_diag, n_features_used, n_behind) at ``state``.

    Feature rows (``project_features``, u and v alternating per point) carry
    variance r_f per axis, speed rows r_v; the stacked measurement covariance
    is block diagonal by construction. With ``jacobian`` false, H is None and
    only the residuals are computed.
    """
    n_used = 0
    n_behind = 0
    n_speed = 3 if speed is not None else 0
    if matches is not None and len(matches) > 0:
        # one H for all rows: project_features leaves room for the speed rows
        uv, h, front = project_features(state, matches.points, extr, intr, jacobian, n_speed)
        n_used = len(uv)
        n_behind = len(front) - n_used
    else:
        h = np.zeros((n_speed, ERR_DIM)) if jacobian else None
    n_feat = 2 * n_used
    z = np.empty(n_feat + n_speed)
    rinv = np.empty(n_feat + n_speed)
    if n_used:
        z[:n_feat] = (uv - matches.pixels.compress(front, axis=0)).reshape(-1)
        rinv[:n_feat] = 1.0 / noise.r_f_px2
    if speed is not None:
        z[n_feat:] = residual_speed(state, speed)
        rinv[n_feat:] = 1.0 / noise.r_v
        if jacobian:
            h[n_feat:] = jacobian_speed(state, speed)
    return z, h, rinv, n_used, n_behind


@dataclass
class UpdateDiagnostics:
    iterations: int = 0
    cost0: float = 0.0
    cost_final: float = 0.0
    costs: list[float] = field(default_factory=list)  # MAP cost per iterate
    converged: bool = False
    step_rejected: bool = False
    n_features_used: int = 0
    n_behind_camera: int = 0


@dataclass
class FilterParams:
    # the JSON ``filter`` object is flat: the noise keys come first in it
    noise: NoiseParams = field(default_factory=NoiseParams, metadata=INLINE)
    eps: float = 1e-6  # convergence threshold on the iterated step norm
    kappa_max: int = 5
    min_features: int = 8
    sigma_th_px: float = 2.0
    max_node_distance_m: float = 50.0
    freeze_gravity: bool = False
    # priors applied by initialize()
    init_sigma_rot: float = 0.01
    init_sigma_pos: float = 0.02
    init_sigma_vel: float = 0.05
    init_sigma_bias_accel: float = 0.05
    init_sigma_bias_gyro: float = 0.002
    init_sigma_gravity: float = 0.05

    def __post_init__(self):
        if self.kappa_max < 1:
            raise ValueError("kappa_max must be at least 1")
        for name in (
            "sigma_th_px", "max_node_distance_m", "init_sigma_rot", "init_sigma_pos",
            "init_sigma_vel", "init_sigma_bias_accel", "init_sigma_bias_gyro",
            "init_sigma_gravity",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def _map_cost(prior: np.ndarray, cov_pred_inv: np.ndarray, z: np.ndarray, rinv: np.ndarray) -> float:
    """Nonlinear MAP objective: prior Mahalanobis term plus residual terms.

    ``prior`` is box_minus(iterate, prediction); ``z`` and ``rinv`` are the
    stacked residuals at the iterate and their inverse variances.
    """
    return float(prior @ cov_pred_inv @ prior) + float((z * z * rinv).sum())


# H is zero outside these columns: features touch ROT and POS, speed ROT and VEL.
H_COLS = slice(ROT.start, VEL.stop)


def iterated_update(
    state_pred: NominalState,
    cov_pred: np.ndarray,
    matches: Matched3D2D | None,
    speed: float | None,
    extr: Pose,
    intr: CameraIntrinsics,
    params: FilterParams,
):
    """Iterated MAP update; returns (state, cov, UpdateDiagnostics).

    Each pass linearizes the stacked residuals at the current iterate,
    transforms the prior covariance through the manifold Jacobian of the
    iterate offset, and applies the information-form gain in the state
    dimension: with A = H^T R^-1 H and b = H^T R^-1 z, taken over the
    nonzero columns of H, one 18x19 solve of S [KH | Kz] = [A | b] with
    S = A + P^-1 gives the products KH and Kz; the gain K itself (18 by the
    number of rows) is never formed. A candidate step that raises the nonlinear MAP cost is rejected
    and iteration stops at the best iterate. The cost of a candidate needs
    residuals only; its Jacobian is computed with them only when another
    pass may follow, so each iterate is linearized once.
    """
    if (matches is None or len(matches) == 0) and speed is None:
        raise NoMeasurements("update called with neither features nor speed")
    noise = params.noise
    try:
        cov_pred_inv = np.linalg.inv(cov_pred)
    except np.linalg.LinAlgError:
        raise SingularNormalMatrix("predicted covariance is singular")

    diag = UpdateDiagnostics()
    x_cur = state_pred.copy()
    identity = np.eye(ERR_DIM)
    prior = np.zeros(ERR_DIM)
    stack = _stack_measurements(x_cur, matches, speed, extr, intr, noise)
    cost_cur = _map_cost(prior, cov_pred_inv, stack[0], stack[2])
    diag.cost0 = cost_cur
    diag.costs.append(cost_cur)
    kh = None
    p_mat = None

    for it in range(params.kappa_max):
        z, h, rinv, n_used, n_behind = stack
        diag.n_features_used = n_used
        diag.n_behind_camera = n_behind
        if len(z) == 0:
            raise NoMeasurements("all measurements rejected (points behind the camera)")

        if it == 0:
            # the prior is 0 on the first pass, where J = I exactly
            p_mat = 0.5 * (cov_pred + cov_pred.T)
            p_inv = cov_pred_inv
            prior_j = prior
        else:
            dtheta = prior[ROT]
            j_rot_inv = right_jacobian_so3(dtheta)  # rotation block of J^-1
            j_inv = identity.copy()
            j_inv[ROT, ROT] = j_rot_inv
            p_mat = j_inv @ cov_pred @ j_inv.T
            p_mat = 0.5 * (p_mat + p_mat.T)
            j_full = identity.copy()
            j_full[ROT, ROT] = inv_right_jacobian_so3(dtheta)
            p_inv = j_full.T @ cov_pred_inv @ j_full
            prior_j = prior.copy()
            prior_j[ROT] = j_rot_inv @ prior[ROT]

        h_cols = h[:, H_COLS]
        ht_rinv = h_cols.T * rinv
        a_b = np.zeros((ERR_DIM, ERR_DIM + 1))  # [A | b]
        a_b[H_COLS, H_COLS] = ht_rinv @ h_cols
        a_b[H_COLS, ERR_DIM] = ht_rinv @ z
        try:
            kh_kz = np.linalg.solve(a_b[:, :ERR_DIM] + p_inv, a_b)
        except np.linalg.LinAlgError:
            raise SingularNormalMatrix("H^T R^-1 H + P^-1 is not invertible")
        if params.freeze_gravity:
            kh_kz[GRAV, :] = 0.0
        kh, kz = kh_kz[:, :ERR_DIM], kh_kz[:, ERR_DIM]

        x_tilde = -kz - (identity - kh) @ prior_j
        if params.freeze_gravity:
            x_tilde[GRAV] = 0.0
        step_norm = math.sqrt(x_tilde.dot(x_tilde))  # np.linalg.norm(x_tilde)
        x_next = box_plus(x_cur, x_tilde)
        prior_next = box_minus(x_next, state_pred)
        relinearize = it + 1 < params.kappa_max and step_norm >= params.eps
        stack_next = _stack_measurements(
            x_next, matches, speed, extr, intr, noise, jacobian=relinearize
        )
        cost_next = _map_cost(prior_next, cov_pred_inv, stack_next[0], stack_next[2])
        diag.iterations += 1
        diag.costs.append(cost_next)
        if cost_next > cost_cur * (1.0 + 1e-12) + 1e-15:
            diag.step_rejected = True
            diag.converged = True  # stop at the best iterate found
            break
        x_cur, prior, stack, cost_cur = x_next, prior_next, stack_next, cost_next
        if step_norm < params.eps:
            diag.converged = True
            break

    diag.cost_final = cost_cur
    cov_post = (identity - kh) @ p_mat
    cov_post = 0.5 * (cov_post + cov_post.T)
    return x_cur, cov_post, diag


# ---------------------------------------------------------------------------
# initialization

def initialize(
    initial_pose: Pose,
    imu_window: np.ndarray,
    params: FilterParams,
):
    """State and covariance from a known pose and a stationary window of IMU rows.

    Gravity is the negated mean rotated specific force, rescaled to the mean
    measured norm; the gyro bias is the window mean. Velocity starts at zero.
    """
    if len(imu_window) < 2:
        raise InsufficientStationaryData("need at least two stationary IMU samples")
    ts = imu_window[:, 0]
    dt_med = float(np.median(np.diff(ts)))
    duration = float(ts[-1] - ts[0]) + dt_med
    if duration < 0.5 - 1e-9:
        raise InsufficientStationaryData(
            f"stationary window {duration:.3f} s is shorter than 0.5 s"
        )
    accels, gyros = imu_window[:, 1:4], imu_window[:, 4:7]
    r = initial_pose.rotation
    mean_world = r.apply(accels.mean(axis=0))
    norm = np.linalg.norm(mean_world)
    if norm < 1e-6:
        raise InsufficientStationaryData("mean specific force is degenerate")
    gravity = -mean_world / norm * float(np.mean(np.linalg.norm(accels, axis=1)))
    state = NominalState(
        rotation=Rotation(r.q),
        position=initial_pose.translation.copy(),
        velocity=np.zeros(3),
        bias_accel=np.zeros(3),
        bias_gyro=gyros.mean(axis=0),
        gravity=gravity,
    )
    sigmas = np.concatenate(
        [
            np.full(3, params.init_sigma_rot),
            np.full(3, params.init_sigma_pos),
            np.full(3, params.init_sigma_vel),
            np.full(3, params.init_sigma_bias_accel),
            np.full(3, params.init_sigma_bias_gyro),
            np.full(3, params.init_sigma_gravity),
        ]
    )
    cov = np.diag(sigmas**2)
    return state, cov


# ---------------------------------------------------------------------------
# per-frame pipeline

@dataclass
class FrameDiagnostics:
    t: float
    n_matches: int = 0
    n_inliers: int = 0
    iterations: int = 0
    cost0: float = 0.0
    cost_final: float = 0.0
    flags: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


class LocalizationFilter:
    """Sequential propagate/update driver around the functional core."""

    def __init__(
        self,
        intrinsics: CameraIntrinsics,
        extrinsics: Pose,
        params: FilterParams | None = None,
    ):
        self.intrinsics = intrinsics
        self.extrinsics = extrinsics
        self.params = params or FilterParams()
        self.state: NominalState | None = None
        self.cov: np.ndarray | None = None
        self.time: float | None = None

    def initialize(self, initial_pose: Pose, imu_window: np.ndarray) -> None:
        self.state, self.cov = initialize(initial_pose, imu_window, self.params)
        ts = imu_window[:, 0]
        self.time = float(ts[-1]) + float(np.median(np.diff(ts)))

    def _require_init(self) -> None:
        if self.state is None:
            raise RuntimeError("filter not initialized")

    def propagate_to(self, imu: np.ndarray, t_end: float) -> None:
        """Integrate a (k, 7) block of IMU rows with zero-order hold up to ``t_end``.

        Row i is held until the next row's timestamp, or ``t_end`` for the
        last one, and never past ``t_end``. Its hold starts at the latest of
        the filter time, t_i and where the rows before it stop; for rows in
        time order that is max(filter time, t_i), since each earlier row
        stops at its successor's timestamp. Holds of 1e-12 s or less are
        skipped, and longer ones are split into equal steps of at most
        ``MAX_IMU_DT_S``. A gap between the last hold and ``t_end`` holds the
        last row. All steps go through one ``propagate`` call.
        """
        self._require_init()
        time = self.time
        if len(imu):
            stamps = imu[:, 0]
            stop = np.minimum(np.append(stamps[1:], t_end), t_end)
            start = np.maximum(stamps, np.maximum.accumulate(np.append(time, stop[:-1])))
            dt = stop - start
            held = dt > 1e-12
            rows, dts = imu[held], dt[held]
            if len(dts):
                time = float(stop[held][-1])
            if time < t_end - 1e-9:
                # gap after the last row: hold it to the frame timestamp
                rows, dts = np.vstack((rows, imu[-1])), np.append(dts, t_end - time)
            if len(dts):
                # propagate() caps single steps at MAX_IMU_DT_S; split longer holds
                n_sub = np.maximum(1, np.ceil(dts / MAX_IMU_DT_S - 1e-9)).astype(np.intp)
                self.state, self.cov = propagate(
                    self.state, self.cov, rows.repeat(n_sub, axis=0),
                    (dts / n_sub).repeat(n_sub), self.params.noise,
                )
        self.time = max(time, t_end)

    def process_frame(
        self,
        imu: np.ndarray,
        frame: CameraFrame,
        speed: float | None,
        topo_map: TopologicalMap,
        matcher: Matcher,
        use_features: bool = True,
    ):
        """Propagate over the frame's IMU rows, then update from map matches
        and the frame's speed ``vx`` (or None).

        Falls back to a speed-only update when matching fails or yields fewer
        than ``min_features`` pairs; with no speed either, the frame is
        propagation-only. Returns (state, cov, FrameDiagnostics).
        """
        self._require_init()
        self.propagate_to(imu, frame.timestamp)
        diag = FrameDiagnostics(t=frame.timestamp)
        if len(topo_map) == 0:
            raise EmptyMap("localization against an empty map")

        matched = None
        if use_features:
            cam_pose = self.state.pose() @ self.extrinsics.inverse()
            node = topo_map.nearest_node(cam_pose.translation)
            dist = float(np.linalg.norm(node.pose.translation - cam_pose.translation))
            if dist > self.params.max_node_distance_m:
                diag.flags.append("node_too_far")
            else:
                try:
                    correspondences = matcher.match(frame, node)
                    diag.n_matches = len(correspondences)
                    reprojected = reproject_node_features(
                        node, correspondences, self.intrinsics, cam_pose
                    )
                    inliers = statistical_outlier_removal(
                        reprojected, self.params.sigma_th_px
                    )
                    matched = restore_3d(inliers, node)
                    diag.n_inliers = len(matched)
                except (MatcherFailure, NoVisibleLandmarks, AllPointsDropped, EmptyInput) as exc:
                    diag.flags.append(f"matcher_failure:{type(exc).__name__}")
                    matched = None
        if matched is not None and len(matched) < self.params.min_features:
            diag.flags.append("insufficient_features")
            matched = None

        if matched is None and speed is None:
            diag.flags.append("no_update")
            return self.state, self.cov, diag
        if matched is None:
            diag.flags.append("speed_only")

        self.state, self.cov, upd = iterated_update(
            self.state, self.cov, matched, speed, self.extrinsics,
            self.intrinsics, self.params,
        )
        diag.iterations = upd.iterations
        diag.cost0 = upd.cost0
        diag.cost_final = upd.cost_final
        if not upd.converged:
            diag.flags.append("not_converged")
        if upd.step_rejected:
            diag.flags.append("step_rejected")
        return self.state, self.cov, diag


def split_imu_stream(imu: np.ndarray, frame_times: np.ndarray, t_start: float):
    """Each frame's block of IMU rows: views of the (N, 7) ``imu`` rows stamped
    in [t_start, frame time), after the previous frame's block.

    Row i goes to the first frame k with frame_times[k] >= t_i + 1e-12; rows
    before ``t_start`` - 1e-12 and rows past the last frame go nowhere. The
    rows and the frame times are in time order.
    """
    frame_times = np.asarray(frame_times, dtype=float)
    stamps = imu[:, 0]
    first = np.searchsorted(stamps, t_start - 1e-12)
    ends = np.maximum(first, np.searchsorted(stamps + 1e-12, frame_times, side="right"))
    starts = np.append(first, ends[:-1])
    return [imu[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
