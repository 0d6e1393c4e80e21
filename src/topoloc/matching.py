"""Correspondence handling between the live camera image and map-node images.

The deep-learning matchers used in production are not part of this package;
they are replaced by the `Matcher` protocol, a synthetic ground-truth matcher
for simulated worlds, and a replay matcher for recorded correspondence files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
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
DEFAULT_SIGMA_TH_PX = 2.0


@dataclass
class CameraFrame:
    """Timestamped monocular camera input.

    A frame replayed from disk may hold only the path of its image file;
    ``scenario.read_frame_images`` fills ``image`` where the pixels are used.
    """

    timestamp: float
    image: IntensityImage | None = None
    image_path: Path | None = None


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
    """Correspondences surviving depth lookup, with reprojected node features.

    ``reproj`` holds the node features transported into the current image via
    node depth + node pose + the current pose estimate. ``points_global`` is
    the 3-D map point behind each pair, cached so the later restoration step
    does not repeat the depth lookup. The 3-sigma gate returns the subset it
    keeps in the same form, with the drop counts left at zero.
    """

    cur: np.ndarray  # (N, 2)
    node: np.ndarray  # (N, 2)
    reproj: np.ndarray  # (N, 2)
    points_global: np.ndarray  # (N, 3)
    n_dropped_no_depth: int = 0
    n_dropped_behind: int = 0

    def __len__(self) -> int:
        return len(self.cur)


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

    Implementations must be deterministic for a fixed seed when they carry
    one; calls on one instance are externally synchronized. The images of the
    node passed to ``match`` are valid only during the call: the map compiler
    renders every frame's view into the same buffers, so a matcher that keeps
    them must copy them.
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
    stored depth and pairs landing behind the current camera are dropped (the
    counts are reported on the result).
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
        *_rows(keep, matches.cur, matches.node, uv, pts_global),
        n_dropped_no_depth=n_no_depth,
        n_dropped_behind=n_behind,
    )


def _rows(keep: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    """The rows of each array where ``keep`` is true, as new arrays.

    ``compress`` costs a fraction of boolean row indexing at these sizes.
    """
    return [a.compress(keep, axis=0) for a in arrays]


def statistical_outlier_removal(
    reprojected: ReprojectedSet, sigma_th: float = DEFAULT_SIGMA_TH_PX
) -> ReprojectedSet:
    """Keep pairs whose displacement sits within 3*sigma_th of the mean.

    The displacement of pair i is (reprojected - current) per axis; the mean
    is taken over all surviving pairs, outliers included, in a single pass.
    Heavy contamination therefore shifts the gate center: frames where the
    outlier displacements pull the mean more than ~3*sigma_th away from the
    true motion can reject most inliers (the caller falls back to its
    insufficient-features path).
    """
    if len(reprojected) == 0:
        raise EmptyInput("no reprojected pairs to filter")
    delta = reprojected.reproj - reprojected.cur
    mean = delta.mean(axis=0)
    within = np.abs(delta - mean) < 3.0 * sigma_th
    keep = within[:, 0] & within[:, 1]
    r = reprojected
    return ReprojectedSet(*_rows(keep, r.cur, r.node, r.reproj, r.points_global))


def restore_3d(inliers: ReprojectedSet, node: TopoNode) -> Matched3D2D:
    """Pair each surviving current-image feature with its global map point.

    The map point is the node-depth unprojection behind the reprojected
    feature, carried over from the reprojection step (pairs lacking depth
    were already dropped there). The result shares the arrays of ``inliers``.
    """
    return Matched3D2D(points=inliers.points_global, pixels=inliers.cur)


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
    min_depth: float = 0.1,
) -> CorrespondenceSet:
    """Ground-truth correspondences for a simulated landmark world.

    Landmarks visible in both the node view (in bounds, in front, and winning
    the node z-buffer) and the true current view become pairs. The current
    pixel gets Gaussian noise of ``sigma_px``; an ``outlier_fraction`` share of
    pairs has it replaced by a uniform in-bounds pixel. Deterministic per seed.
    """
    if sigma_px < 0.0:
        raise ValueError("sigma_px must be non-negative")
    if not 0.0 <= outlier_fraction < 1.0:
        raise ValueError("outlier_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    pts = np.asarray(landmarks, dtype=float).reshape(-1, 3)

    ni = node.intrinsics
    pts_node = node.pose.inverse().apply(pts)
    uv_node, front_node = project_points(ni, pts_node, min_depth=min_depth)
    # Occlusion: the landmark must be the point stored in the node z-buffer.
    lifted, has_depth = lift_pixels(node, uv_node)
    z = pts_node[:, 2]
    zbuf_ok = front_node & has_depth
    zbuf_ok &= np.abs(lifted[:, 2] - z) <= np.maximum(1e-3, 1e-3 * np.abs(z))

    pts_cur = true_camera_pose.inverse().apply(pts)
    uv_cur, front_cur = project_points(intr, pts_cur, min_depth=min_depth)
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

    Entries are keyed by frame timestamp. Each recording remembers the node it
    was matched against; if the pipeline retrieves a different node the replay
    refuses (raises MatcherFailure) rather than returning pairs that belong to
    another view.
    """

    def __init__(self):
        self._entries: dict[float, tuple[int, CorrespondenceSet]] = {}

    def add(self, timestamp: float, node_id: int, matches: CorrespondenceSet) -> None:
        self._entries[round(timestamp, 9)] = (node_id, matches)

    def match(self, frame: CameraFrame, node: TopoNode) -> CorrespondenceSet:
        entry = self._entries.get(round(frame.timestamp, 9))
        if entry is None:
            raise MatcherFailure(f"no recorded correspondences for t={frame.timestamp:.6f}")
        node_id, matches = entry
        if node_id != node.node_id:
            raise MatcherFailure(
                f"recorded matches are for node {node_id}, pipeline retrieved node {node.node_id}"
            )
        return matches
