"""Offline topological-map compilation from a LiDAR point-cloud prior.

Per camera frame: render intensity/depth views of the cloud at a predicted
pose (into images reused from frame to frame), match the render against the
camera image, lift render features to 3-D through the render depth, reject
outliers with rotation-only RANSAC, solve PnP for the prediction error from
the identity start (the DLT start is built only when the identity is more
than ``PNP_DLT_START_RMS_PX`` off), refine the pose, re-render depth there
into a fresh image for the node, and chain the next frame's prediction
through odometry.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateConfiguration,
    EmptyCloud,
    MatcherFailure,
    MissingOdometry,
    NoConsensus,
    NoConvergence,
    NoVisibleLandmarks,
    AllPointsDropped,
    TooFewMatches,
)
from .evaluate import Trajectory
from .geometry import (
    CameraIntrinsics,
    Pose,
    Rotation,
    project_points,
    projection_jacobian,
    so3_exp,
    unproject_points,
)
from .matching import CameraFrame, Matched3D2D, Matcher
from .topomap import (
    DEFAULT_MAX_RANGE_M,
    DepthImage,
    IntensityImage,
    TopologicalMap,
    TopoNode,
    lift_pixels,
)

log = logging.getLogger(__name__)

# Points closer than this to the image plane are culled when rendering.
NEAR_PLANE_M = 0.1

# Probability with which adaptive RANSAC has drawn at least one all-inlier
# hypothesis before it stops sampling.
RANSAC_CONFIDENCE = 0.99
# Bound on the consensus refits, in case equal-size sets alternate.
LO_MAX_REFITS = 10
# PnP Gauss-Newton stops, and stops halving, once its step is this short.
PNP_MIN_STEP = 1e-12
# PnP builds its DLT start only when the identity start reprojects worse than
# this (RMS px): Gauss-Newton never raises the RMS, so a start that
# MapGenParams.max_pnp_rms_px's default already accepts needs no algebraic one.
PNP_DLT_START_RMS_PX = 5.0


@dataclass
class PointCloud:
    """Global-frame points with 0-255 intensities."""

    points: np.ndarray  # (N, 3)
    intensity: np.ndarray  # (N,)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        self.intensity = np.asarray(self.intensity, dtype=float).reshape(-1)
        if len(self.intensity) != len(self.points):
            raise ValueError("points and intensities differ in length")
        if len(self.points) and not np.all(np.isfinite(self.points)):
            raise ValueError("point cloud contains non-finite coordinates")

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class OdometrySequence(Trajectory):
    """Baseline-frame odometry poses plus the camera-to-baseline mount."""

    cam_to_base: Pose


class RenderBuffers:
    """Intensity and depth images that ``rasterize(..., out=...)`` renders
    into, sized for the camera they are built for.

    A render into them first clears the pixels that the previous render
    wrote, instead of zero-filling whole images. The images it returns wrap
    these buffers, so they hold only until the next render into them.
    """

    def __init__(self, intr: CameraIntrinsics):
        self.intensity = np.zeros((intr.height, intr.width), dtype=np.uint8)
        self.depth = np.zeros((intr.height, intr.width), dtype=np.float32)
        self.written = np.zeros(0, dtype=np.intp)  # flat indices of the last render


def rasterize(
    cloud: PointCloud,
    pose: Pose,
    intr: CameraIntrinsics,
    max_range: float = DEFAULT_MAX_RANGE_M,
    intensity: bool = True,
    *,
    out: RenderBuffers | None = None,
):
    """Render the cloud from a camera pose: z-buffered 1-pixel splats.

    Returns (IntensityImage, DepthImage); pixels nothing projects into carry
    the invalid-depth sentinel (0). Ties at identical depth resolve to the
    later point in cloud order. With ``intensity`` false the intensity image
    is not built and None takes its place. With ``out`` the images are
    ``out``'s buffers, rendered into in place; otherwise they are new arrays.
    """
    if len(cloud) == 0:
        raise EmptyCloud("cannot rasterize an empty point cloud")
    pts_cam = pose.inverse().apply(cloud.points)
    z = pts_cam[:, 2]
    uv, in_front = project_points(intr, pts_cam, min_depth=NEAR_PLANE_M)
    cols = np.rint(uv[:, 0]).astype(int)
    rows = np.rint(uv[:, 1]).astype(int)
    keep = (
        in_front
        & (z < max_range)
        & (cols >= 0) & (cols < intr.width) & (rows >= 0) & (rows < intr.height)
    )
    idx = np.flatnonzero(keep)
    # Assign far-to-near so the nearest point lands last and wins the pixel.
    order = idx[np.argsort(-z[idx], kind="stable")]
    flat = rows[order] * intr.width + cols[order]
    if out is None:
        depth = np.zeros((intr.height, intr.width), dtype=np.float32)
        inten = np.zeros((intr.height, intr.width), dtype=np.uint8) if intensity else None
    else:
        depth, inten = out.depth, out.intensity
        depth.reshape(-1)[out.written] = 0.0
        inten.reshape(-1)[out.written] = 0
        out.written = flat
    depth.reshape(-1)[flat] = z[order]
    if not intensity:
        return None, DepthImage(depth)
    inten.reshape(-1)[flat] = np.clip(cloud.intensity[order], 0, 255).astype(np.uint8)
    return IntensityImage(inten), DepthImage(depth)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(v, axis=1)`` of an (n, 3) stack, at half its cost.

    numpy sums each row's squares left to right, as here, so the two agree
    bit for bit.
    """
    x, y, z = v.T
    return np.sqrt(x * x + y * y + z * z)


def _bearings_from_pixels(pixels: np.ndarray, intr: CameraIntrinsics) -> np.ndarray:
    rays = unproject_points(intr, pixels, np.ones(len(pixels)))
    return rays / _row_norms(rays)[:, None]


def _fit_rotation(src: np.ndarray, dst: np.ndarray) -> Rotation:
    """Least-squares rotation with dst ~ R @ src (Kabsch, proper rotation)."""
    w = dst.T @ src
    u, _, vt = np.linalg.svd(w)
    d = np.sign(_det3((u @ vt).tolist()))
    return Rotation.from_matrix(u @ np.diag([1.0, 1.0, d]) @ vt)


def _det3(m: list) -> float:
    """Determinant of a 3x3 nested list by cofactors.

    Only its sign is read, of orthogonal matrices whose determinant is +-1 up
    to rounding, so the sign agrees with ``np.linalg.det``'s at a fraction of
    the cost.
    """
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _parallel_bearings(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.linalg.norm(np.cross(a, b)) < 1e-6``, decided on Python floats.

    The cross product is np.cross's expressions. numpy's norm sums its
    squares through BLAS, which can round differently in the last bits, so
    a squared norm within 1e-9 (relative) of the threshold goes to numpy.
    """
    ax, ay, az = a.tolist()
    bx, by, bz = b.tolist()
    c = (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)
    sq = c[0] * c[0] + c[1] * c[1] + c[2] * c[2]
    if abs(sq - 1e-12) > 1e-21:
        return sq < 1e-12
    return bool(np.linalg.norm(np.array(c)) < 1e-6)


def _rotation_consensus(
    rot: Rotation, ref: np.ndarray, pixels: np.ndarray, intr: CameraIntrinsics, threshold_px: float
) -> np.ndarray:
    """Mask of the reference bearings that ``rot`` carries in front of the
    camera and within ``threshold_px`` of their measured pixel."""
    uv, in_front = project_points(intr, ref @ rot.as_matrix().T, min_depth=1e-9)
    err = uv - pixels
    return in_front & (err[:, 0] ** 2 + err[:, 1] ** 2 < threshold_px**2)


def _hypotheses_needed(inlier_ratio: float, cap: int) -> int:
    """Fischler-Bolles sample count N = log(1 - p) / log(1 - w^2), capped."""
    p_clean = inlier_ratio**2
    if p_clean <= 0.0:
        return cap
    if p_clean >= 1.0:
        return 1
    return min(cap, math.ceil(math.log(1.0 - RANSAC_CONFIDENCE) / math.log1p(-p_clean)))


def rotation_ransac(
    matches: Matched3D2D,
    intr: CameraIntrinsics,
    iterations: int = 500,
    threshold_px: float = 3.0,
    min_inlier_ratio: float = 0.3,
    seed: int = 0,
) -> Matched3D2D:
    """Consensus outlier rejection under a rotation-only inter-view model.

    The 3-D side of ``matches`` must be expressed in the reference (render)
    camera frame; translation between the views is assumed small relative to
    point depth. Two bearing pairs per hypothesis; inliers reproject within
    ``threshold_px`` of their measured pixel.

    Sampling stops adaptively: after each new best consensus of w = count/n,
    the total number of hypotheses becomes log(1 - p) / log(1 - w^2) with
    p = ``RANSAC_CONFIDENCE``, so that an all-inlier pair has been drawn with
    probability p; ``iterations`` caps it. The best consensus is then refit
    by Kabsch on all its bearings and rescored (LO-RANSAC), which recovers
    the accuracy a two-point fit lacks. The refit repeats until it no longer
    changes the set, so the returned matches are its own refit's consensus,
    unless the set would shrink or ``LO_MAX_REFITS`` is reached.
    """
    n = len(matches)
    if n < 2:
        raise TooFewMatches(f"rotation RANSAC needs >= 2 matches, got {n}")
    ref = matches.points / _row_norms(matches.points)[:, None]
    cur = _bearings_from_pixels(matches.pixels, intr)
    rng = np.random.default_rng(seed)

    best_count = -1
    best_mask = None
    needed = iterations
    drawn = 0
    while drawn < needed:
        drawn += 1
        i, j = rng.choice(n, size=2, replace=False)
        if _parallel_bearings(ref[i], ref[j]):
            continue  # parallel bearings do not pin the rotation
        rot = _fit_rotation(ref[[i, j]], cur[[i, j]])
        mask = _rotation_consensus(rot, ref, matches.pixels, intr, threshold_px)
        count = int(np.count_nonzero(mask))
        if count > best_count:
            best_count = count
            best_mask = mask
            needed = _hypotheses_needed(count / n, iterations)
    if best_mask is None or best_count < max(2, min_inlier_ratio * n):
        raise NoConsensus(
            f"best consensus {max(best_count, 0)}/{n} below ratio {min_inlier_ratio}"
        )
    for _ in range(LO_MAX_REFITS):
        rot = _fit_rotation(ref.compress(best_mask, axis=0), cur.compress(best_mask, axis=0))
        mask = _rotation_consensus(rot, ref, matches.pixels, intr, threshold_px)
        count = int(np.count_nonzero(mask))
        if count < best_count or np.array_equal(mask, best_mask):
            break
        best_count = count
        best_mask = mask
    return Matched3D2D(
        points=matches.points.compress(best_mask, axis=0),
        pixels=matches.pixels.compress(best_mask, axis=0),
    )


@dataclass
class PnPResult:
    pose: Pose  # maps point-frame coordinates into camera coordinates
    rms_px: float
    iterations: int


def _reprojection_residual(pose: Pose, matches: Matched3D2D, intr: CameraIntrinsics):
    """Score ``pose`` on ``matches``: (RMS px, R, q = m R^T + t, pixel error).

    The RMS is inf, and the (n, 2) pixel error None, when a point lies less
    than 1e-3 in front of the camera. R, q and the error of an accepted pose
    are what the next Gauss-Newton iteration linearizes at.
    """
    r_mat = pose.rotation.as_matrix()
    q = matches.points @ r_mat.T + pose.translation  # pose.apply
    uv, in_front = project_points(intr, q, min_depth=1e-3)
    if not in_front.all():
        return np.inf, r_mat, q, None
    err = uv - matches.pixels
    sq = err[:, 0] ** 2 + err[:, 1] ** 2
    return math.sqrt(np.add.reduce(sq) / len(sq)), r_mat, q, err  # np.mean's sum and division


# LAPACK's SVD (gesdd) QR-factors a matrix with at least 11/6 as many rows
# as columns first; for the DLT's 12 columns that is 22 rows or more.
_DLT_QR_ROWS = 22


def _pnp_dlt(matches: Matched3D2D, intr: CameraIntrinsics) -> Pose:
    """Algebraic initialization: DLT on normalized coordinates, then the
    nearest proper rotation and a sign choice: the sign that makes
    det(P[:, :3]) positive, unless the other puts more points in front.

    The 3-D points are Hartley-normalized (centroid to origin, mean radius
    sqrt(3)) before building the design matrix; deep scenes are otherwise too
    ill-conditioned for a usable estimate.

    The (2n, 12) design matrix A = QR has the right singular vectors of its
    12x12 factor R. From 22 rows on, LAPACK's SVD of A itself starts with
    this QR and then decomposes R (Chan, ACM TOMS 1982). Taking the QR here
    and the SVD of R alone gives the same bits at half the cost, because the
    (2n, 12) left singular vectors are never formed. Below 22 rows the SVD
    runs on A, as LAPACK does.
    """
    n = len(matches)
    centroid = matches.points.mean(axis=0)
    offsets = matches.points - centroid
    radius = np.mean(_row_norms(offsets))
    scale3d = np.sqrt(3.0) / max(radius, 1e-12)
    m = offsets * scale3d
    # rows 2i and 2i + 1 hold point i's u- and v-equation
    neg_ab = -unproject_points(intr, matches.pixels, np.ones(n))[:, :2]
    rows = np.zeros((n, 2, 12))
    rows[:, 0, 0:3] = m
    rows[:, 0, 3] = 1.0
    rows[:, 1, 4:7] = m
    rows[:, 1, 7] = 1.0
    rows[:, :, 8:11] = neg_ab[:, :, None] * m[:, None, :]
    rows[:, :, 11] = neg_ab
    rows = rows.reshape(2 * n, 12)
    if len(rows) >= _DLT_QR_ROWS:
        rows = np.linalg.qr(rows, mode="r")
    _, _, vt = np.linalg.svd(rows, full_matrices=False)
    p = vt[-1].reshape(3, 4)
    # undo the 3-D normalization: P_un = P @ [[s I, -s c], [0, 1]]
    p = np.hstack([p[:, :3] * scale3d, (p[:, 3] - p[:, :3] @ (centroid * scale3d)).reshape(3, 1)])
    scale = np.mean(np.linalg.svd(p[:, :3], compute_uv=False))
    if scale < 1e-12:
        raise DegenerateConfiguration("DLT produced a rank-deficient projection")
    # det(P[:, :3]) = lambda^3 for P = lambda [R | t]: the sign that makes it
    # positive is tried first, and keeps the pose when both put every point
    # in front.
    first = 1.0 if np.linalg.det(p[:, :3]) > 0 else -1.0
    best = None
    for sign in (first, -first):
        mrot = sign * p[:, :3] / scale
        u, _, vt2 = np.linalg.svd(mrot)
        r = u @ np.diag([1.0, 1.0, np.sign(_det3((u @ vt2).tolist()))]) @ vt2
        t = sign * p[:, 3] / scale
        z = (matches.points @ r.T + t)[:, 2]
        n_front = int(np.count_nonzero(z > 0))
        if best is None or n_front > best[0]:
            best = (n_front, r, t)
        if n_front == n:
            break  # the other sign cannot put more points in front
    _, r, t = best
    return Pose(Rotation.from_matrix(r), t)


def _pnp_jacobian(
    points: np.ndarray, r_mat: np.ndarray, q: np.ndarray, intr: CameraIntrinsics
) -> np.ndarray:
    """d(pixel)/d(dtheta, dt) of the projection of q = R exp(dtheta) m + t + dt.

    ``q`` holds the camera points R m + t. Returns (2n, 6): the n u-rows,
    then the n v-rows. A pixel row a = d(pixel)/d(q) gives the rotation block
    -(a R)[m]x = m x (a R) and the translation block a.
    """
    d_pixel = projection_jacobian(intr, q).transpose(1, 0, 2)  # (2, n, 3): u-rows, v-rows
    ar = d_pixel @ r_mat
    ax, ay, az = ar[..., 0], ar[..., 1], ar[..., 2]
    mx, my, mz = points.T
    jac = np.empty(d_pixel.shape[:2] + (6,))
    # cross(m, a R), component by component: np.cross costs more than the arithmetic
    jac[..., 0] = my * az - mz * ay
    jac[..., 1] = mz * ax - mx * az
    jac[..., 2] = mx * ay - my * ax
    jac[..., 3:] = d_pixel
    return jac.reshape(-1, 6)


def solve_pnp(
    matches: Matched3D2D,
    intr: CameraIntrinsics,
    max_iterations: int = 50,
) -> PnPResult:
    """Pose from 3-D/2-D matches: identity start, DLT start only above
    ``PNP_DLT_START_RMS_PX``, Gauss-Newton reprojection polish.

    The returned pose maps point-frame coordinates into the camera frame
    (p_cam = R @ m + t), the classic PnP view transform. The identity is the
    natural start for relative problems whose points already sit near the
    camera frame (render-to-frame refinement with a decent prediction). When
    it reprojects worse than ``PNP_DLT_START_RMS_PX``, the DLT start is built
    too, and the better of the two is polished (the DLT on a tie). Step
    halving keeps the reprojection RMS non-increasing across iterations; no
    step shorter than ``PNP_MIN_STEP`` is tried. When ``max_iterations`` runs
    out, ``NoConvergence`` is raised if the RMS still fell by more than 0.1 %
    over the last five iterations (or over all of them, if fewer).
    """
    n = len(matches)
    if n < 6:
        raise DegenerateConfiguration(
            f"PnP needs >= 6 matches for the algebraic initialization, got {n}"
        )
    spread = np.linalg.svd(matches.points - matches.points.mean(axis=0), compute_uv=False)
    if spread[1] < 1e-9 * max(spread[0], 1e-12):
        raise DegenerateConfiguration("3-D points are collinear")
    if spread[2] < 1e-8 * max(spread[0], 1e-12):
        raise DegenerateConfiguration("3-D points are coplanar")

    pose = Pose.identity()
    scored = _reprojection_residual(pose, matches, intr)
    if scored[0] > PNP_DLT_START_RMS_PX:
        dlt = _pnp_dlt(matches, intr)
        dlt_scored = _reprojection_residual(dlt, matches, intr)
        if dlt_scored[0] <= scored[0]:
            pose, scored = dlt, dlt_scored
    rms, r_mat, q, err = scored
    if not np.isfinite(rms):
        raise NoConvergence("neither PnP start puts every point in front of the camera")

    history = [rms]
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        # r_mat, q and err belong to the accepted pose, from its scoring
        res = err.T.reshape(-1)  # u-rows, then v-rows
        jac = _pnp_jacobian(matches.points, r_mat, q, intr)
        jtj = jac.T @ jac
        jtr = jac.T @ res
        try:
            step = np.linalg.solve(jtj, -jtr)
        except np.linalg.LinAlgError:
            raise DegenerateConfiguration("normal equations singular in PnP refinement")

        # math.sqrt(step.dot(step)) is np.linalg.norm(step), without its overhead
        if math.sqrt(step.dot(step)) < PNP_MIN_STEP:
            break
        improved = False
        for _ in range(12):
            cand = Pose(
                pose.rotation @ so3_exp(step[:3]), pose.translation + step[3:]
            )
            scored = _reprojection_residual(cand, matches, intr)
            if scored[0] <= rms:
                pose = cand
                rms, r_mat, q, err = scored
                improved = True
                break
            step = 0.5 * step
            if math.sqrt(step.dot(step)) < PNP_MIN_STEP:
                break
        history.append(rms)
        if not improved:
            break  # local minimum at current precision
        if math.sqrt(step.dot(step)) < PNP_MIN_STEP:
            break
    else:
        # Iterations exhausted. A stalled RMS is a converged least-squares
        # answer; raise only when the optimizer was still actively descending.
        window = history[-6:]
        if window[0] - window[-1] > 1e-3 * max(window[-1], 1e-12):
            raise NoConvergence(f"PnP still descending after {max_iterations} iterations")
    return PnPResult(pose=pose, rms_px=rms, iterations=iterations)


def refine_node_pose(predicted: Pose, pnp_result: Pose) -> Pose:
    """Correct the predicted camera pose by the PnP view transform."""
    return predicted @ pnp_result.inverse()


def chain_initial_pose(prev_refined: Pose, odo: OdometrySequence, k: int) -> Pose:
    """Predict the next camera pose from the refined one and an odometry step."""
    if k < 0 or k + 1 >= len(odo):
        raise MissingOdometry(f"odometry steps {k} and {k + 1} are required")
    ext = odo.cam_to_base
    delta = odo.poses[k].inverse() @ odo.poses[k + 1]
    return prev_refined @ ext.inverse() @ delta @ ext


@dataclass
class MapGenParams:
    # Cap on rotation-RANSAC hypotheses per frame; adaptive stopping usually
    # needs a handful.
    ransac_iterations: int = 500
    # Wider than the 3 px matching default: the gate must also swallow the
    # parallax that the initial-pose error induces on nearby points.
    ransac_threshold_px: float = 10.0
    min_inlier_ratio: float = 0.3
    min_matches: int = 6
    # A solved frame whose reprojection RMS exceeds this did not actually fit
    # the matches; treat it as a failed frame rather than storing a bad node.
    max_pnp_rms_px: float = 5.0
    max_range_m: float = DEFAULT_MAX_RANGE_M
    seed: int = 0


@dataclass
class FrameReport:
    frame_index: int
    timestamp: float
    accepted: bool
    reason: str = ""
    n_matches: int = 0
    n_lifted: int = 0
    n_inliers: int = 0
    pnp_rms_px: float = float("nan")


@dataclass
class MapGenResult:
    map: TopologicalMap
    reports: list[FrameReport] = field(default_factory=list)

    @property
    def n_accepted(self) -> int:
        return sum(1 for r in self.reports if r.accepted)


def generate_map(
    cloud: PointCloud,
    frames: list[CameraFrame],
    odo: OdometrySequence,
    initial_pose: Pose,
    intr: CameraIntrinsics,
    matcher: Matcher,
    params: MapGenParams = MapGenParams(),
) -> MapGenResult:
    """Compile the point-cloud prior into a topological map.

    ``initial_pose`` predicts the camera pose of the first frame; afterwards
    predictions chain through odometry from the last refined (or, when a frame
    fails, last predicted) pose. Failed frames are skipped and reported, never
    fatal.

    Every frame's match view is rendered into the same two buffers, so the
    render node handed to ``matcher.match`` (id -1) holds its images only
    during that call; a matcher that keeps them must copy them. Each stored
    node gets depth rendered into its own array.
    """
    topo_map = TopologicalMap(intr)
    result = MapGenResult(map=topo_map)
    match_view = RenderBuffers(intr)
    predicted = initial_pose
    for k, frame in enumerate(frames):
        report = FrameReport(frame_index=k, timestamp=frame.timestamp, accepted=False)
        result.reports.append(report)
        chained_from = predicted
        try:
            render_inten, render_depth = rasterize(
                cloud, predicted, intr, max_range=params.max_range_m, out=match_view
            )
            render_node = TopoNode(
                node_id=-1,
                depth=render_depth,
                image=render_inten,
                pose=predicted,
                timestamp=frame.timestamp,
                intrinsics=intr,
            )
            matches = matcher.match(frame, render_node)
            report.n_matches = len(matches)
            points, has_depth = lift_pixels(render_node, matches.node)
            lifted = Matched3D2D(
                points=points.compress(has_depth, axis=0),
                pixels=matches.cur.compress(has_depth, axis=0),
            )
            report.n_lifted = len(lifted)
            if len(lifted) < params.min_matches:
                raise TooFewMatches(
                    f"{len(lifted)} lifted matches, need {params.min_matches}"
                )
            inliers = rotation_ransac(
                lifted,
                intr,
                iterations=params.ransac_iterations,
                threshold_px=params.ransac_threshold_px,
                min_inlier_ratio=params.min_inlier_ratio,
                seed=params.seed * 9_176_141 + k,
            )
            report.n_inliers = len(inliers)
            if len(inliers) < params.min_matches:
                raise TooFewMatches(
                    f"{len(inliers)} RANSAC inliers, need {params.min_matches}"
                )
            pnp = solve_pnp(inliers, intr)
            report.pnp_rms_px = pnp.rms_px
            if pnp.rms_px > params.max_pnp_rms_px:
                raise NoConvergence(
                    f"PnP reprojection RMS {pnp.rms_px:.2f} px exceeds "
                    f"{params.max_pnp_rms_px} px"
                )
            refined = refine_node_pose(predicted, pnp.pose)
            _, refined_depth = rasterize(
                cloud, refined, intr, max_range=params.max_range_m, intensity=False
            )
            node = TopoNode(
                node_id=len(topo_map),
                depth=refined_depth,
                image=frame.image,
                pose=refined,
                timestamp=frame.timestamp,
                intrinsics=intr,
            )
            topo_map.insert_node(node)
            report.accepted = True
            chained_from = refined
        except (
            TooFewMatches,
            NoConsensus,
            DegenerateConfiguration,
            NoConvergence,
            NoVisibleLandmarks,
            AllPointsDropped,
            MatcherFailure,
        ) as exc:
            report.reason = f"{type(exc).__name__}: {exc}"
            log.warning("frame %d skipped: %s", k, report.reason)
        if k + 1 < len(frames):
            predicted = chain_initial_pose(chained_from, odo, k)
    topo_map.build_index()
    return result
