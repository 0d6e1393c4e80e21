"""Absolute pose error against ground truth, without spatial alignment.

Both trajectories are expected in the same global frame (map-based estimates
are globally referenced), so no Umeyama/SE(3) fit is applied; applying one
would mask exactly the global-consistency errors this metric is for.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NoTimestampOverlap
from .geometry import Pose


@dataclass
class Trajectory:
    timestamps: np.ndarray
    poses: list[Pose]

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float).reshape(-1)
        if len(self.timestamps) != len(self.poses):
            raise ValueError("timestamps and poses differ in length")
        if len(self.timestamps) > 1 and not np.all(np.diff(self.timestamps) > 0):
            raise ValueError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.poses)


@dataclass
class ApeReport:
    ape_t_m: float
    ape_r_rad: float
    lon_m: float
    lat_m: float
    n_pairs: int
    series: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


def _associate(est_t: np.ndarray, truth_t: np.ndarray, max_dt: float):
    """Nearest-neighbor timestamp pairs within max_dt, each truth used once."""
    pairs = []
    used = set()
    for i, t in enumerate(est_t):
        j = int(np.searchsorted(truth_t, t))
        best, best_dt = None, max_dt
        for cand in (j - 1, j, j + 1):
            if 0 <= cand < len(truth_t) and cand not in used:
                dt = abs(truth_t[cand] - t)
                if dt <= best_dt:
                    best, best_dt = cand, dt
        if best is not None:
            used.add(best)
            pairs.append((i, best))
    return pairs


def ape(estimate: Trajectory, truth: Trajectory, max_dt: float = 0.01) -> ApeReport:
    """Mean translational and rotational absolute pose error.

    APEt averages the Euclidean position error; APEr averages the rotation
    angle of R_true^T R_est (arccos argument clamped to [-1, 1]). The
    longitudinal/lateral columns resolve the position error in the true-pose
    body frame and average absolute values.
    """
    pairs = _associate(estimate.timestamps, truth.timestamps, max_dt)
    if not pairs:
        raise NoTimestampOverlap(
            f"no timestamp pairs within {max_dt} s between the trajectories"
        )
    et, er, lon, lat, series = [], [], [], [], []
    for i, j in pairs:
        pe, pt = estimate.poses[i], truth.poses[j]
        dp = pe.translation - pt.translation
        et.append(float(np.linalg.norm(dp)))
        rel = pt.rotation.as_matrix().T @ pe.rotation.as_matrix()
        c = np.clip(0.5 * (np.trace(rel) - 1.0), -1.0, 1.0)
        er.append(float(np.arccos(c)))
        body_err = pt.rotation.as_matrix().T @ dp
        lon.append(abs(float(body_err[0])))
        lat.append(abs(float(body_err[1])))
        series.append({"t": float(estimate.timestamps[i]), "et": et[-1], "er": er[-1]})
    return ApeReport(
        ape_t_m=float(np.mean(et)),
        ape_r_rad=float(np.mean(er)),
        lon_m=float(np.mean(lon)),
        lat_m=float(np.mean(lat)),
        n_pairs=len(pairs),
        series=series,
    )
