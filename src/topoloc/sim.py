"""Synthetic worlds: analytic trajectories, IMU/speed synthesis, landmark
clouds, and ground-truth reference maps.

Trajectories are closed-form and twice continuously differentiable, and each
is evaluated once, as arrays over a vector of times; the IMU rows difference
those samples, so propagating them reproduces the trajectory. All randomness
flows from the scenario seed; equal configs give bit-identical sensor streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GenerationError
from .geometry import CameraIntrinsics, Pose, pose_list, project_in_views
from .mapgen import NEAR_PLANE_M, PointCloud, RenderBuffers, render_node
from .topomap import DEFAULT_MAX_RANGE_M, TopologicalMap

GRAVITY_W = np.array([0.0, 0.0, -9.81])

TRAJECTORY_SHAPES = ("straight", "circle", "corridor-with-turns")


@dataclass
class TrajectorySpec:
    shape: str = "corridor-with-turns"
    duration_s: float = 60.0
    speed_mps: float = 8.0
    imu_rate_hz: float = 200.0
    frame_rate_hz: float = 10.0
    seed: int = 0
    # shape-specific knobs (ignored where not applicable)
    radius_m: float = 30.0  # circle
    hold_s: float = 1.0  # every shape: stationary lead-in
    ramp_s: float = 2.0  # every shape: speed ramp duration
    # corridor turns: (arc start m, arc length m, lateral amplitude m)
    turns: tuple = ((60.0, 50.0, 6.0), (170.0, 60.0, -8.0))

    def __post_init__(self):
        if self.shape not in TRAJECTORY_SHAPES:
            raise ValueError(f"unknown trajectory shape '{self.shape}'")
        if self.duration_s <= 0 or self.imu_rate_hz <= 0 or self.frame_rate_hz <= 0:
            raise ValueError("duration and rates must be positive")
        if not self.hold_s > 0:  # simulate writes it as localize's init_window_s
            raise ValueError(f"hold_s must be positive, got {self.hold_s!r}")
        if self.seed < 0:  # numpy seeds only from non-negative integers
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class SensorNoiseSpec:
    """True noise magnitudes injected into the synthetic sensors."""

    sigma_accel: float = 0.0  # m/s^2/sqrt(Hz) white density
    sigma_gyro: float = 0.0  # rad/s/sqrt(Hz)
    bias_accel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bias_gyro: np.ndarray = field(default_factory=lambda: np.zeros(3))
    sigma_pixel: float = 0.0  # px
    sigma_speed: float = 0.0  # m/s
    outlier_fraction: float = 0.0

    def __post_init__(self):
        self.bias_accel = np.asarray(self.bias_accel, dtype=float).reshape(3)
        self.bias_gyro = np.asarray(self.bias_gyro, dtype=float).reshape(3)
        for name in ("sigma_accel", "sigma_gyro", "sigma_pixel", "sigma_speed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError("outlier_fraction must be in [0, 1)")


# The corridor landmarks: walls WALL_OFFSET_M either side of the path, up to
# WALL_JITTER_M further out, spanning Z_MIN_M..Z_MAX_M in height, and a
# GROUND_FRACTION share on the floor (at Z_MIN_M) between them.
WALL_OFFSET_M = 4.0
WALL_JITTER_M = 0.6
Z_MIN_M = -1.5
Z_MAX_M = 3.0
GROUND_FRACTION = 0.25
LOOKAHEAD_M = 80.0  # how far the walls continue past the trajectory end


@dataclass
class CorridorGeometry:
    # landmark-free stretch along the arc (start m, end m), for ablations
    sparse_window: tuple | None = None
    sparse_count: int = 8


# ---------------------------------------------------------------------------
# analytic paths (planar, z = 0; body x along the tangent, z up), evaluated
# as arrays over a vector of times t: each returns positions (n, 3),
# velocities (n, 3), accelerations (n, 3), yaw (n,) and yaw rate (n,)

def _smoothstep5(x: np.ndarray):
    """Quintic smoothstep of x clipped to [0, 1] with value, first and second
    derivative; the clip gives the end values and zero derivatives."""
    x = np.clip(x, 0.0, 1.0)
    v = x**3 * (10.0 - 15.0 * x + 6.0 * x * x)
    d1 = 30.0 * x * x * (1.0 - x) ** 2
    d2 = 60.0 * x * (1.0 - 3.0 * x + 2.0 * x * x)
    return v, d1, d2


def _arc(spec: TrajectorySpec, t: np.ndarray):
    """Arc length along the path at t, with its first and second derivative:
    a stationary hold, a C2 speed ramp, then cruise at speed_mps."""
    v, t0, tr = spec.speed_mps, spec.hold_s, max(spec.ramp_s, 1e-6)
    x = np.clip((t - t0) / tr, 0.0, 1.0)
    sv, sd1, _ = _smoothstep5(x)
    # the clipped ramp's arc is 0 in the hold and v tr / 2 once cruising
    s = v * tr * (x**4 * (2.5 - 3.0 * x + x * x)) + v * np.maximum(t - t0 - tr, 0.0)
    return s, v * sv, v * sd1 / tr


def _circle(spec: TrajectorySpec, t: np.ndarray):
    s, sd, sdd = _arc(spec, t)
    r = spec.radius_m
    a = s / r
    sin, cos, zero = np.sin(a), np.cos(a), np.zeros_like(t)
    tangent, normal = np.column_stack([cos, sin, zero]), np.column_stack([-sin, cos, zero])
    pos = r * np.column_stack([sin, 1.0 - cos, zero])
    acc = sdd[:, None] * tangent + (sd * sd / r)[:, None] * normal
    return pos, sd[:, None] * tangent, acc, a, sd / r


def _corridor(spec: TrajectorySpec, t: np.ndarray, turns):
    """The arc of ``_arc`` along a lane with S-turns; without turns, a straight line."""
    s, sd, sdd = _arc(spec, t)
    zero = np.zeros_like(t)
    lat = lat1 = lat2 = zero
    for s_start, length, amp in turns:
        u, d1, d2 = _smoothstep5((s - s_start) / length)
        lat = lat + amp * u
        lat1 = lat1 + amp * d1 / length
        lat2 = lat2 + amp * d2 / length**2
    pos = np.column_stack([s, lat, zero])
    vel = np.column_stack([sd, lat1 * sd, zero])
    acc = np.column_stack([sdd, lat2 * sd * sd + lat1 * sdd, zero])
    psidot = lat2 / (1.0 + lat1 * lat1) * sd
    return pos, vel, acc, np.arctan2(lat1, 1.0), psidot


_PATHS = {
    "straight": lambda spec, t: _corridor(spec, t, ()),
    "circle": _circle,
    "corridor-with-turns": lambda spec, t: _corridor(spec, t, spec.turns),
}


def _trajectory(spec: TrajectorySpec, t):
    return _PATHS[spec.shape](spec, np.asarray(t, dtype=float))


def _poses(positions: np.ndarray, yaw: np.ndarray) -> list[Pose]:
    """Body poses: the positions, turned by yaw about z."""
    half = 0.5 * yaw
    zero = np.zeros_like(half)
    return pose_list(np.column_stack([np.cos(half), zero, zero, np.sin(half)]), positions)


@dataclass
class World:
    """Landmark cloud plus the exact trajectory it was generated around."""

    spec: TrajectorySpec
    landmarks: np.ndarray  # (K, 3)
    landmark_intensity: np.ndarray  # (K,)
    times: np.ndarray  # (N,) trajectory sample times at IMU rate
    poses: list  # [Pose] body (IMU) in global
    velocities: np.ndarray  # (N, 3) world frame
    body_rates: np.ndarray  # (N, 3) rad/s, body frame
    arc_lengths: np.ndarray  # (N,) cumulative path length

    def eval(self, t: float):
        """Exact (pose, velocity, world acceleration, body rate) at time t."""
        pos, vel, acc, psi, psidot = _trajectory(self.spec, [t])
        return _poses(pos, psi)[0], vel[0], acc[0], np.array([0.0, 0.0, psidot[0]])

    def poses_at(self, times) -> list[Pose]:
        """Exact body poses at each of ``times``, from one evaluation."""
        pos, _, _, psi, _ = _trajectory(self.spec, times)
        return _poses(pos, psi)

    def point_cloud(self) -> PointCloud:
        return PointCloud(self.landmarks, self.landmark_intensity)


def gen_world(
    spec: TrajectorySpec,
    landmark_count: int = 2500,
    corridor: CorridorGeometry | None = None,
) -> World:
    """Sample the analytic trajectory and scatter landmarks along it.

    Landmarks sit on two corridor walls and the ground band between them,
    placed by arc length; a configured sparse window along the arc gets only
    ``sparse_count`` landmarks (the feature-starved stretch for ablations).
    """
    if landmark_count <= 0:
        raise GenerationError("landmark_count must be positive")
    corridor = corridor or CorridorGeometry()
    rng = np.random.default_rng([spec.seed, 17])

    n = int(round(spec.duration_s * spec.imu_rate_hz))
    times = np.arange(n + 1) / spec.imu_rate_hz
    positions, vels, _, psi, psidot = _trajectory(spec, times)
    seg = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])

    # Placement table along the path extended past the trajectory end, so the
    # forward-looking camera still sees walls near the finish.
    t_ext = spec.duration_s + LOOKAHEAD_M / max(spec.speed_mps, 0.1)
    place_times = np.linspace(0.0, t_ext, max(int(t_ext * 20), 2))
    place_pos, _, _, place_psi, _ = _trajectory(spec, place_times)
    place_left = np.column_stack([-np.sin(place_psi), np.cos(place_psi), np.zeros_like(place_psi)])
    place_arc = np.concatenate(
        [[0.0], np.cumsum(np.linalg.norm(np.diff(place_pos, axis=0), axis=1))]
    )
    place_total = float(place_arc[-1])
    if place_total <= 0.0:
        raise GenerationError("path (including lookahead) does not move; cannot place landmarks")

    # Landmark arc positions: uniform over the path outside the sparse window
    # (drawn directly over the allowed measure), plus the few sparse-window
    # landmarks spread evenly inside it.
    window = corridor.sparse_window
    if window is None:
        arcs = rng.uniform(0.0, place_total, size=landmark_count)
    else:
        s0, s1 = max(0.0, window[0]), min(place_total, window[1])
        allowed = place_total - max(0.0, s1 - s0)
        if allowed <= 0.0:
            raise GenerationError("sparse window leaves no path for dense landmarks")
        u = rng.uniform(0.0, allowed, size=landmark_count)
        arcs = np.where(u < s0, u, u + (s1 - s0))
        if corridor.sparse_count > 0:
            sparse = np.linspace(s0, s1, corridor.sparse_count + 2)[1:-1]
            arcs = np.concatenate([arcs, sparse])
    arcs = np.sort(arcs)

    idx = np.clip(np.searchsorted(place_arc, arcs), 0, len(place_times) - 1)
    k = len(arcs)
    side = rng.choice([-1.0, 1.0], size=k)
    on_ground = rng.random(k) < GROUND_FRACTION
    lateral = np.where(
        on_ground,
        rng.uniform(-WALL_OFFSET_M, WALL_OFFSET_M, size=k),
        side * (WALL_OFFSET_M + rng.uniform(0.0, WALL_JITTER_M, size=k)),
    )
    height = np.where(
        on_ground,
        Z_MIN_M,
        rng.uniform(Z_MIN_M, Z_MAX_M, size=k),
    )
    landmarks = (
        place_pos[idx]
        + lateral[:, None] * place_left[idx]
        + np.column_stack([np.zeros(k), np.zeros(k), height])
    )
    intensity = rng.integers(30, 256, size=k).astype(float)

    return World(
        spec=spec,
        landmarks=landmarks,
        landmark_intensity=intensity,
        times=times,
        poses=_poses(positions, psi),
        velocities=vels,
        body_rates=np.column_stack([np.zeros((len(times), 2)), psidot]),
        arc_lengths=arc,
    )


def synthesize_imu(world: World, noise: SensorNoiseSpec) -> np.ndarray:
    """Invert the propagation model: a_m = R^T (a - g) + bias + white noise.

    Returns the (n, 7) IMU rows (t, ax, ay, az, wx, wy, wz). Row k is stamped
    at its window start t_k and carries the exact window increments (an
    integrating IMU reports delta-angle/delta-velocity averages), differenced
    from the trajectory samples: every shape turns about z only, so the gyro
    value is (0, 0, (psi_{k+1} - psi_k)/dt), and the accelerometer value is
    R_z(-psi_k)((v_{k+1} - v_k)/dt - g). Zero-order-hold propagation of
    noiseless rows then reproduces rotation and velocity exactly and position
    at second order in dt. The white noise is drawn per row, accelerometer
    before gyro.
    """
    rate = world.spec.imu_rate_hz
    dt = 1.0 / rate
    _, vel, _, psi, _ = _trajectory(world.spec, world.times)
    n = len(psi) - 1
    dv = np.diff(vel, axis=0) / dt - GRAVITY_W
    cos, sin = np.cos(psi[:-1]), np.sin(psi[:-1])
    rows = np.zeros((n, 7))
    rows[:, 0] = world.times[:-1]
    rows[:, 1] = cos * dv[:, 0] + sin * dv[:, 1]
    rows[:, 2] = cos * dv[:, 1] - sin * dv[:, 0]
    rows[:, 3] = dv[:, 2]
    rows[:, 6] = np.diff(psi) / dt
    rows[:, 1:4] += noise.bias_accel
    rows[:, 4:7] += noise.bias_gyro
    sigma = np.repeat([noise.sigma_accel, noise.sigma_gyro], 3) * np.sqrt(rate)
    on = np.flatnonzero(sigma > 0.0)
    rng = np.random.default_rng([world.spec.seed, 23])
    rows[:, 1 + on] += sigma[on] * rng.standard_normal((n, len(on)))
    return rows


def synthesize_speed(world: World, noise: SensorNoiseSpec) -> np.ndarray:
    """Wheel-speed stand-in at frame rate, body-x velocity plus noise: the
    (n, 2) speed rows (t, vx)."""
    t = frame_times(world)
    _, vel, _, psi, _ = _trajectory(world.spec, t)
    vx = np.abs(vel[:, 0] * np.cos(psi) + vel[:, 1] * np.sin(psi))
    if noise.sigma_speed > 0.0:
        vx = vx + np.random.default_rng([world.spec.seed, 29]).normal(0.0, noise.sigma_speed, len(t))
    return np.column_stack([t, vx])


def frame_times(world: World) -> np.ndarray:
    rate = world.spec.frame_rate_hz
    n = int(round(world.spec.duration_s * rate))
    return np.arange(n) / rate


def camera_pose_at(world: World, t: float, extrinsics: Pose) -> Pose:
    pose, _, _, _ = world.eval(t)
    return pose @ extrinsics.inverse()


def build_reference_map(
    world: World,
    intr: CameraIntrinsics,
    node_spacing_m: float,
    extrinsics: Pose | None = None,
) -> TopologicalMap:
    """Ground-truth map: nodes at exact poses every node_spacing_m of arc."""
    if node_spacing_m <= 0:
        raise GenerationError("node spacing must be positive")
    extrinsics = extrinsics or Pose.identity()
    cloud = world.point_cloud()
    buffers = RenderBuffers(intr)
    topo_map = TopologicalMap(intr)
    targets = np.arange(0.0, world.arc_lengths[-1] + 1e-9, node_spacing_m)
    used = set()
    for s in targets:
        i = int(np.searchsorted(world.arc_lengths, s))
        i = min(i, len(world.poses) - 1)
        if i in used:
            continue
        used.add(i)
        cam_pose = world.poses[i] @ extrinsics.inverse()
        topo_map.insert_node(render_node(cloud, cam_pose, float(world.times[i]), intr, buffers))
    topo_map.build_index()
    return topo_map


# Frames that count_visible projects at once: on a 2500-landmark world, 3 to 8
# frames per pass ran equally fast and 12 ran a quarter slower.
VISIBILITY_CHUNK = 4


def count_visible(world: World, intr: CameraIntrinsics, extrinsics: Pose, times) -> np.ndarray:
    """The landmarks inside the camera frustum and render range at each of
    ``times`` (occlusion ignored), as an int array.

    ``VISIBILITY_CHUNK`` frames are transformed and projected per
    ``project_in_views`` pass, landmark-major; a count equals the count of
    that frame alone.
    """
    cam_to_body = extrinsics.inverse()
    world_to_cam = [(pose @ cam_to_body).inverse() for pose in world.poses_at(times)]
    counts = np.empty(len(world_to_cam), dtype=int)
    for lo in range(0, len(counts), VISIBILITY_CHUNK):
        chunk = slice(lo, lo + VISIBILITY_CHUNK)
        _, visible, z = project_in_views(intr, world_to_cam[chunk], world.landmarks, NEAR_PLANE_M)
        counts[chunk] = np.count_nonzero(visible & (z < DEFAULT_MAX_RANGE_M), axis=1)
    return counts


def validate_visibility(
    world: World,
    intr: CameraIntrinsics,
    extrinsics: Pose,
    times: np.ndarray,
    min_count: int,
) -> None:
    """Fail loudly if any frame sees fewer than ``min_count`` landmarks."""
    counts = count_visible(world, intr, extrinsics, times)
    if len(counts) and counts.min() < min_count:
        worst = int(np.argmin(counts))
        raise GenerationError(
            f"frame at t={times[worst]:.2f} s sees only {counts[worst]} landmarks "
            f"(minimum {min_count}); adjust the world configuration"
        )
