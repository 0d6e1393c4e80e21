"""Correspondence handling between the live camera image and map-node renders.

The deep-learning matchers used in production are not part of this package;
they are replaced by the `Matcher` protocol, a synthetic ground-truth matcher
for simulated worlds, and a replay matcher for recorded correspondence files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np

from .errors import (
    AllPointsDropped,
    EmptyInput,
    MatcherFailure,
    NoVisibleLandmarks,
)
from .geometry import CameraIntrinsics, Pose, project_points
from .topomap import IntensityImage, TopoNode, lift_pixels

# Reject reprojections this close to (or behind) the current image plane.
MIN_REPROJECTION_DEPTH_M = 1e-6
# Ground-truth matches keep only landmarks at least this far in front of both views.
SYNTHETIC_MIN_DEPTH_M = 0.1


@dataclass
class CameraFrame:
    """Timestamped monocular camera input.

    ``image`` is the live camera image that an image-based matcher reads. The
    synthetic and replay matchers read only the timestamp, so a frame read
    from a frames index carries none.
    """

    timestamp: float
    image: IntensityImage | None = None


@dataclass
class CorrespondenceSet:
    """Paired pixel matches: current image vs. node (map) image."""

    cur: np.ndarray  # (N, 2) pixels in the current image
    node: np.ndarray  # (N, 2) pixels in the node image

    def __post_init__(self):
        self.cur = np.asarray(self.cur, dtype=float).reshape(-1, 2)
        self.node = np.asarray(self.node, dtype=float).reshape(-1, 2)
        if len(self.cur) != len(self.node):
            raise ValueError("current/node pixel lists differ in length")

    def __len__(self) -> int:
        return len(self.cur)


@dataclass
class ReprojectedSet:
    """The matcher's pairs with their node features reprojected, and a keep mask.

    ``reproj`` holds the node features transported into the current image via
    node depth + node pose + the current pose estimate. ``points_global`` is
    the 3-D map point behind each pair, cached so the later restoration step
    does not repeat the depth lookup. Rows stay in matcher order; each stage
    narrows ``keep`` instead of copying the rows it keeps, and ``len`` counts
    the kept rows.
    """

    cur: np.ndarray  # (N, 2)
    reproj: np.ndarray  # (N, 2)
    points_global: np.ndarray  # (N, 3)
    keep: np.ndarray  # (N,) bool
    n_dropped_no_depth: int = 0
    n_dropped_behind: int = 0

    def __len__(self) -> int:
        return int(np.count_nonzero(self.keep))


@dataclass
class Matched3D2D:
    """3-D points paired with 2-D pixel observations.

    ``points`` are global map points in the localization pipeline; the map
    generator reuses the container with points in its reference camera frame.
    """

    points: np.ndarray  # (N, 3)
    pixels: np.ndarray  # (N, 2)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        self.pixels = np.asarray(self.pixels, dtype=float).reshape(-1, 2)
        if len(self.points) != len(self.pixels):
            raise ValueError("3-D point and pixel lists differ in length")

    def __len__(self) -> int:
        return len(self.points)


class Matcher(Protocol):
    """Produces pixel correspondences between a camera frame and a map node.

    A node holds the cloud's render at the node pose: the intensity and depth
    of the pixels the render wrote (``node.intensity`` at ``node.depth.index``),
    0 elsewhere. A frame read from a frames index carries no image
    (``frame.image`` is None); a matcher that compares pixels needs frames
    built with their live image. Implementations must be deterministic for a
    fixed seed when they carry one; calls on one instance are externally
    synchronized.
    """

    def match(self, frame: CameraFrame, node: TopoNode) -> CorrespondenceSet: ...


def reproject_node_features(
    node: TopoNode,
    matches: CorrespondenceSet,
    intr: CameraIntrinsics,
    current_camera_pose: Pose,
) -> ReprojectedSet:
    """Transport node features into the current image plane.

    Each node pixel is lifted through the node depth image into a global 3-D
    point and projected with the current camera pose estimate. Pairs without
    stored depth and pairs landing behind the current camera are left out of
    ``keep`` (the counts are reported on the result).
    """
    if len(matches) == 0:
        raise AllPointsDropped("empty correspondence set")
    pts_node, has_depth = lift_pixels(node, matches.node)
    n_no_depth = len(has_depth) - int(np.count_nonzero(has_depth))

    # node camera -> global -> current camera
    pts_global = node.pose.apply(pts_node)
    pts_cur = current_camera_pose.inverse().apply(pts_global)
    uv, in_front = project_points(intr, pts_cur, min_depth=MIN_REPROJECTION_DEPTH_M)
    n_behind = int(np.count_nonzero(has_depth & ~in_front))

    keep = has_depth & in_front
    if not keep.any():
        raise AllPointsDropped(
            f"all {len(matches)} pairs dropped "
            f"({n_no_depth} without depth, {n_behind} behind the camera)"
        )
    return ReprojectedSet(
        matches.cur, uv, pts_global, keep,
        n_dropped_no_depth=n_no_depth,
        n_dropped_behind=n_behind,
    )


def statistical_outlier_removal(reprojected: ReprojectedSet, sigma_th: float) -> ReprojectedSet:
    """Keep pairs whose displacement sits within 3*sigma_th of the mean.

    The displacement of pair i is (reprojected - current) per axis; the mean
    is taken over all kept pairs, outliers included, in a single pass.
    Heavy contamination therefore shifts the gate center: frames where the
    outlier displacements pull the mean more than ~3*sigma_th away from the
    true motion can reject most inliers (the caller falls back to its
    insufficient-features path). Returns a copy of ``reprojected`` with the
    narrowed mask; the input is left as it is.
    """
    if len(reprojected) == 0:
        raise EmptyInput("no reprojected pairs to filter")
    delta = reprojected.reproj - reprojected.cur
    mean_u, mean_v = delta.compress(reprojected.keep, axis=0).mean(axis=0).tolist()
    du, dv = delta.T
    bound = 3.0 * sigma_th
    within = (np.abs(du - mean_u) < bound) & (np.abs(dv - mean_v) < bound)
    return replace(reprojected, keep=reprojected.keep & within)


def restore_3d(inliers: ReprojectedSet) -> Matched3D2D:
    """Pair each kept current-image feature with its global map point (the
    node-depth lift that the reprojection step cached), in matcher order."""
    keep = inliers.keep
    return Matched3D2D(inliers.points_global.compress(keep, axis=0), inliers.cur.compress(keep, axis=0))


# ---------------------------------------------------------------------------
# matcher implementations

def synthetic_match(
    landmarks: np.ndarray,
    true_camera_pose: Pose,
    node: TopoNode,
    intr: CameraIntrinsics,
    sigma_px: float = 0.0,
    outlier_fraction: float = 0.0,
    seed: int = 0,
) -> CorrespondenceSet:
    """Ground-truth correspondences for a simulated landmark world.

    Landmarks visible in both the node view (in bounds, in front, and winning
    the node z-buffer) and the true current view become pairs. The current
    pixel gets Gaussian noise of ``sigma_px``; an ``outlier_fraction`` share of
    pairs has it replaced by a uniform in-bounds pixel. Deterministic per seed.
    The noise values come checked (by ``SyntheticMatcher`` or ``SensorNoiseSpec``).
    """
    rng = np.random.default_rng(seed)
    pts = np.asarray(landmarks, dtype=float).reshape(-1, 3)

    ni = node.intrinsics
    pts_node = node.pose.inverse().apply(pts)
    uv_node, front_node = project_points(ni, pts_node, min_depth=SYNTHETIC_MIN_DEPTH_M)
    # Occlusion: the landmark must be the point stored in the node z-buffer.
    lifted, has_depth = lift_pixels(node, uv_node)
    z = pts_node[:, 2]
    zbuf_ok = front_node & has_depth
    zbuf_ok &= np.abs(lifted[:, 2] - z) <= np.maximum(1e-3, 1e-3 * np.abs(z))

    pts_cur = true_camera_pose.inverse().apply(pts)
    uv_cur, front_cur = project_points(intr, pts_cur, min_depth=SYNTHETIC_MIN_DEPTH_M)
    in_cur = (
        front_cur
        & (uv_cur[:, 0] >= 0.0) & (uv_cur[:, 0] <= intr.width - 1.0)
        & (uv_cur[:, 1] >= 0.0) & (uv_cur[:, 1] <= intr.height - 1.0)
    )

    visible = zbuf_ok & in_cur
    n = int(np.count_nonzero(visible))
    if n == 0:
        raise NoVisibleLandmarks("no landmark is visible in both views")

    node_px = uv_node[visible]
    cur_px = uv_cur[visible]
    if sigma_px > 0.0:
        cur_px = cur_px + rng.normal(0.0, sigma_px, size=cur_px.shape)
        # Clamp so the invariant "pixels inside image bounds" survives noise.
        cur_px[:, 0] = np.clip(cur_px[:, 0], 0.0, intr.width - 1.0)
        cur_px[:, 1] = np.clip(cur_px[:, 1], 0.0, intr.height - 1.0)
    n_out = int(round(outlier_fraction * n))
    if n_out > 0:
        idx = rng.choice(n, size=n_out, replace=False)
        cur_px[idx, 0] = rng.uniform(0.0, intr.width - 1.0, size=n_out)
        cur_px[idx, 1] = rng.uniform(0.0, intr.height - 1.0, size=n_out)
    return CorrespondenceSet(cur=cur_px, node=node_px)


def frame_seed(seed: int, timestamp: float) -> int:
    """The RNG seed of one frame's synthetic matches: the base seed mixed
    with the timestamp in microseconds, so any call order gives equal pairs."""
    return (seed * 1_000_003 + int(round(timestamp * 1e6))) % (2**63)


class SyntheticMatcher:
    """Matcher backed by ground truth: landmark world + true camera poses.

    True poses are looked up by frame timestamp; the per-frame RNG seed is
    ``frame_seed(seed, timestamp)``, so repeated runs (and out-of-order calls)
    produce identical output.
    """

    def __init__(
        self,
        landmarks: np.ndarray,
        true_camera_poses: dict[float, Pose],
        intr: CameraIntrinsics,
        sigma_px: float = 0.0,
        outlier_fraction: float = 0.0,
        seed: int = 0,
    ):
        if not 0.0 <= sigma_px < math.inf:  # NaN too
            raise ValueError("sigma_px must be finite and non-negative")
        if not 0.0 <= outlier_fraction < 1.0:
            raise ValueError("outlier_fraction must be in [0, 1)")
        self.landmarks = np.asarray(landmarks, dtype=float).reshape(-1, 3)
        self.intr = intr
        self.sigma_px = sigma_px
        self.outlier_fraction = outlier_fraction
        self.seed = seed
        self._poses = {round(t, 9): p for t, p in true_camera_poses.items()}

    def match(self, frame: CameraFrame, node: TopoNode) -> CorrespondenceSet:
        pose = self._poses.get(round(frame.timestamp, 9))
        if pose is None:
            raise MatcherFailure(f"no ground-truth pose for t={frame.timestamp:.6f}")
        return synthetic_match(
            self.landmarks,
            pose,
            node,
            self.intr,
            sigma_px=self.sigma_px,
            outlier_fraction=self.outlier_fraction,
            seed=frame_seed(self.seed, frame.timestamp),
        )


class RecordedMatcher:
    """Replays correspondence sets recorded offline (e.g. from a real matcher).

    ``recordings`` holds a ``(timestamp, node_id, CorrespondenceSet)`` per frame;
    entries are keyed by frame timestamp. Each recording remembers the node it
    was matched against; if the pipeline retrieves a different node the replay
    refuses (raises MatcherFailure) rather than returning pairs that belong to
    another view. ``release_before``, if given, is called with the position in
    ``recordings`` of each recording handed out: ``load_recorded_matcher`` passes
    its file mapping's ``ReplayWindow.release_before``.
    """

    def __init__(self, recordings, release_before=None):
        self._entries: dict[float, tuple[int, CorrespondenceSet, int]] = {
            round(t, 9): (node_id, matches, k) for k, (t, node_id, matches) in enumerate(recordings)
        }
        self._release_before = release_before

    def match(self, frame: CameraFrame, node: TopoNode) -> CorrespondenceSet:
        entry = self._entries.get(round(frame.timestamp, 9))
        if entry is None:
            raise MatcherFailure(f"no recorded correspondences for t={frame.timestamp:.6f}")
        node_id, matches, k = entry
        if node_id != node.node_id:
            raise MatcherFailure(
                f"recorded matches are for node {node_id}, pipeline retrieved node {node.node_id}"
            )
        if self._release_before is not None:
            self._release_before(k)
        return matches
