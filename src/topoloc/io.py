"""Readers and writers for the on-disk interchange formats.

Formats:
  * TUM trajectory text: ``timestamp tx ty tz qx qy qz qw`` per line
  * PLY point clouds (ascii or binary little-endian) with x, y, z, intensity
  * IMU CSV ``timestamp,ax,ay,az,wx,wy,wz`` and speed CSV ``timestamp,vx``
  * correspondence CSV ``u_cur,v_cur,u_node,v_node``
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np

from .errors import InputError
from .geometry import Pose, Rotation


# ---------------------------------------------------------------------------
# TUM trajectories

def write_tum(path, timestamps, poses) -> None:
    path = Path(path)
    with path.open("w") as fh:
        for t, pose in zip(timestamps, poses):
            x, y, z = pose.translation
            qx, qy, qz, qw = pose.rotation.as_quat_xyzw()
            fh.write(
                f"{t:.9f} {x:.9f} {y:.9f} {z:.9f} "
                f"{qx:.12f} {qy:.12f} {qz:.12f} {qw:.12f}\n"
            )


def read_tum(path):
    """Returns (timestamps (N,), [Pose] * N); the timestamps must increase
    strictly. Skips comments and blank lines."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"trajectory file not found: {path}")
    timestamps, poses = [], []
    with path.open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 8:
                raise InputError(f"{path}:{lineno}: expected 8 fields, got {len(parts)}")
            try:
                vals = [float(p) for p in parts[:8]]
            except ValueError:
                raise InputError(f"{path}:{lineno}: non-numeric field in trajectory row") from None
            if not all(math.isfinite(v) for v in vals):
                raise InputError(f"{path}:{lineno}: non-finite value in trajectory row")
            try:
                rotation = Rotation.from_quat_xyzw(vals[4:8])
            except ValueError:
                raise InputError(f"{path}:{lineno}: quaternion has zero norm") from None
            if timestamps and not vals[0] > timestamps[-1]:
                raise InputError(
                    f"{path}:{lineno}: trajectory timestamp {vals[0]!r} does not "
                    f"follow the previous row's {timestamps[-1]!r}"
                )
            timestamps.append(vals[0])
            poses.append(Pose(rotation, vals[1:4]))
    return np.array(timestamps), poses


# ---------------------------------------------------------------------------
# PLY point clouds

_PLY_DTYPES = {
    "float": ("<f4", float),
    "float32": ("<f4", float),
    "double": ("<f8", float),
    "float64": ("<f8", float),
    "uchar": ("<u1", int),
    "uint8": ("<u1", int),
    "char": ("<i1", int),
    "short": ("<i2", int),
    "ushort": ("<u2", int),
    "int": ("<i4", int),
    "uint": ("<u4", int),
}


def write_ply(path, points: np.ndarray, intensity: np.ndarray, binary: bool = True) -> None:
    """Write x, y, z as float32 and intensity as uchar."""
    points = np.asarray(points, dtype=np.float32)
    inten = np.clip(np.asarray(intensity), 0, 255).astype(np.uint8)
    n = len(points)
    header = (
        "ply\n"
        f"format {'binary_little_endian' if binary else 'ascii'} 1.0\n"
        f"element vertex {n}\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "property uchar intensity\n"
        "end_header\n"
    )
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            rec = np.empty(
                n, dtype=[("x", "<f4"), ("y", "<f4"), ("z", "<f4"), ("i", "<u1")]
            )
            rec["x"], rec["y"], rec["z"] = points[:, 0], points[:, 1], points[:, 2]
            rec["i"] = inten
            fh.write(rec.tobytes())
        else:
            lines = [
                f"{p[0]:.6f} {p[1]:.6f} {p[2]:.6f} {int(i)}\n"
                for p, i in zip(points, inten)
            ]
            fh.write("".join(lines).encode("ascii"))


def read_ply(path):
    """Read a PLY vertex cloud; returns (points (N, 3) float64, intensity (N,)).

    Accepts ascii or binary_little_endian files whose vertex element carries at
    least x, y, z; intensity defaults to zeros when absent.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"point cloud file not found: {path}")
    with path.open("rb") as fh:
        magic = fh.readline().strip()
        if magic != b"ply":
            raise InputError(f"{path}: not a PLY file")
        fmt = None
        n_vertex = None
        props = []  # (name, ply_type) of the vertex element
        in_vertex = False
        while True:
            line = fh.readline()
            if not line:
                raise InputError(f"{path}: truncated PLY header")
            tokens = line.decode("ascii", "replace").strip().split()
            if not tokens:
                continue
            if tokens[0] == "format":
                fmt = tokens[1]
            elif tokens[0] == "element":
                in_vertex = tokens[1] == "vertex"
                if in_vertex:
                    n_vertex = int(tokens[2])
            elif tokens[0] == "property" and in_vertex:
                if tokens[1] == "list":
                    raise InputError(f"{path}: list properties are not supported")
                props.append((tokens[2], tokens[1]))
            elif tokens[0] == "end_header":
                break
        if fmt not in ("ascii", "binary_little_endian"):
            raise InputError(f"{path}: unsupported PLY format '{fmt}'")
        if n_vertex is None:
            raise InputError(f"{path}: no vertex element")
        names = [name for name, _ in props]
        for axis in ("x", "y", "z"):
            if axis not in names:
                raise InputError(f"{path}: vertex property '{axis}' missing")

        if fmt == "ascii":
            rows = []
            for _ in range(n_vertex):
                line = fh.readline()
                if not line:
                    raise InputError(f"{path}: truncated vertex data")
                rows.append([float(v) for v in line.split()])
            data = {name: np.array([r[i] for r in rows]) for i, (name, _) in enumerate(props)}
        else:
            dtype = np.dtype([(name, _PLY_DTYPES[t][0]) for name, t in props])
            raw = fh.read(dtype.itemsize * n_vertex)
            if len(raw) != dtype.itemsize * n_vertex:
                raise InputError(f"{path}: truncated vertex data")
            rec = np.frombuffer(raw, dtype=dtype)
            data = {name: rec[name].astype(float) for name, _ in props}

    points = np.column_stack([data["x"], data["y"], data["z"]]).astype(float)
    intensity = data.get("intensity", np.zeros(len(points)))
    return points, np.asarray(intensity, dtype=float)


# ---------------------------------------------------------------------------
# sensor CSVs

def _read_csv_rows(path, n_fields, what, time_ordered=False):
    """Rows of a numeric CSV as an (N, n_fields) array; a header line is skipped.

    With ``time_ordered``, the first column is a timestamp that must increase
    strictly from row to row. The whole file is parsed in one ``np.loadtxt``
    call; any file that call does not accept as valid is read again line by
    line, which names the first bad line in its ``InputError``.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"{what} file not found: {path}")
    data = _parse_csv_bulk(path, n_fields)
    if data is None or _row_fault(data, what, time_ordered) is not None:
        return _read_csv_lines(path, n_fields, what, time_ordered)
    return data


def _csv_floats(line):
    return [float(p.strip()) for p in line.strip().split(",")]


def _parse_csv_bulk(path, n_fields):
    """The file's rows in one ``np.loadtxt`` call, or None where it fails, warns
    (a header-only file) or finds another column count."""
    with path.open() as fh:
        try:
            _csv_floats(fh.readline())
            fh.seek(0)  # line 1 is data
        except ValueError:
            pass  # line 1 is a header
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except (ValueError, UserWarning):
                return None
    return data if data.shape[1] == n_fields else None


def _read_csv_lines(path, n_fields, what, time_ordered):
    """``_read_csv_rows`` one line at a time: the reference the bulk parse must
    match, and the reader that names the first bad line."""
    rows, linenos = [], []
    with path.open() as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                values = _csv_floats(line)
            except ValueError:
                if lineno == 1:  # header line
                    continue
                raise InputError(f"{path}:{lineno}: malformed {what} row")
            if len(values) != n_fields:
                raise InputError(
                    f"{path}:{lineno}: expected {n_fields} fields, got {len(values)}"
                )
            rows.append(values)
            linenos.append(lineno)
    data = np.array(rows).reshape(-1, n_fields)
    fault = _row_fault(data, what, time_ordered)
    if fault is not None:
        row, message = fault
        raise InputError(f"{path}:{linenos[row]}: {message}")
    return data


def _row_fault(data, what, time_ordered):
    """(row index, message) of the first row that is non-finite or, with
    ``time_ordered``, not later than the row before it; None if there is none."""
    # float() and np.loadtxt accept "nan" and "inf"; reject them on the whole array.
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        return np.flatnonzero(~finite)[0], f"non-finite value in {what} row"
    if time_ordered:
        back = np.flatnonzero(np.diff(data[:, 0]) <= 0.0)
        if len(back):
            row = back[0] + 1
            return row, (
                f"{what} timestamp {data[row, 0]!r} does not "
                f"follow the previous row's {data[row - 1, 0]!r}"
            )
    return None


def write_imu_csv(path, imu: np.ndarray) -> None:
    """Write (N, 7) IMU rows (t, ax, ay, az, wx, wy, wz)."""
    body = "%.9f,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g\n" * len(imu) % tuple(np.ravel(imu).tolist())
    Path(path).write_text("timestamp,ax,ay,az,wx,wy,wz\n" + body)


def read_imu_csv(path):
    """Returns the raw (N, 7) array: timestamp, ax, ay, az, wx, wy, wz.

    Timestamps must increase strictly (InputError naming the first bad line).
    """
    return _read_csv_rows(path, 7, "IMU", time_ordered=True)


def write_speed_csv(path, speeds: np.ndarray) -> None:
    """Write (N, 2) speed rows (t, vx)."""
    body = "%.9f,%.12g\n" * len(speeds) % tuple(np.ravel(speeds).tolist())
    Path(path).write_text("timestamp,vx\n" + body)


def read_speed_csv(path):
    """Returns the raw (N, 2) array: timestamp, vx.

    Timestamps must increase strictly (InputError naming the first bad line).
    """
    return _read_csv_rows(path, 2, "speed", time_ordered=True)


def write_correspondences_csv(path, cur_px: np.ndarray, node_px: np.ndarray) -> None:
    rows = np.hstack([cur_px, node_px])
    body = "%.6f,%.6f,%.6f,%.6f\n" * len(rows) % tuple(rows.ravel().tolist())
    Path(path).write_text("u_cur,v_cur,u_node,v_node\n" + body)


def read_correspondences_csv(path):
    """Returns (cur_px (N, 2), node_px (N, 2))."""
    rows = _read_csv_rows(path, 4, "correspondence")
    return rows[:, 0:2].copy(), rows[:, 2:4].copy()
