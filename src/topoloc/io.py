"""Readers and writers for the on-disk interchange formats.

Formats:
  * TUM trajectory text: ``timestamp tx ty tz qx qy qz qw`` per line
  * PLY point clouds (ascii or binary little-endian) with x, y, z, intensity
  * IMU CSV ``timestamp,ax,ay,az,wx,wy,wz`` and speed CSV ``timestamp,vx``
  * correspondence CSV ``u_cur,v_cur,u_node,v_node``
  * recorded correspondences of a run: one binary file (``write_correspondences``)
  * binary offset-table files (``write_offset_file``, ``read_offset_file``)
"""

from __future__ import annotations

import errno
import math
import mmap
import os
import struct
import warnings
from pathlib import Path

import numpy as np

from .errors import ChecksumMismatch, FormatVersionMismatch, InputError, ResourceExhausted
from .geometry import Pose, Rotation


# ---------------------------------------------------------------------------
# TUM trajectories

def write_tum(path, timestamps, poses) -> None:
    """One line per (t, pose) pair, up to the shorter of the two inputs."""
    values = []
    for t, pose in zip(timestamps, poses):
        w, x, y, z = pose.rotation.q.tolist()
        values += [t, *pose.translation.tolist(), x, y, z, w]
    body = "%.9f %.9f %.9f %.9f %.12f %.12f %.12f %.12f\n" * (len(values) // 8) % tuple(values)
    Path(path).write_text(body)


def _text_lines(path: Path):
    """The lines of a UTF-8 text file; a byte that is not UTF-8 is an InputError naming it."""
    with path.open(encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_tum(path):
    """Returns (timestamps (N,), [Pose] * N); the timestamps must increase
    strictly. Skips comments and blank lines."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"trajectory file not found: {path}")
    timestamps, poses = [], []
    for lineno, line in enumerate(_text_lines(path), 1):
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
            # 9 significant digits give every float32 back bit for bit
            lines = [
                f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g} {int(i)}\n"
                for p, i in zip(points, inten)
            ]
            fh.write("".join(lines).encode("ascii"))


def read_ply(path):
    """Read a PLY vertex cloud; returns (points (N, 3) float64, intensity (N,)).

    Accepts ascii or binary_little_endian files whose vertex element carries at
    least x, y, z; intensity defaults to zeros when absent. A malformed header
    or vertex row, or a non-finite value, raises ``InputError``.
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
            try:
                if tokens[0] == "format":
                    fmt = tokens[1]
                elif tokens[0] == "element":
                    in_vertex = tokens[1] == "vertex"
                    if in_vertex:
                        n_vertex = int(tokens[2])
                        if n_vertex < 0:
                            raise ValueError
                elif tokens[0] == "property" and in_vertex:
                    if tokens[1] == "list":
                        raise InputError(f"{path}: list properties are not supported")
                    if tokens[1] not in _PLY_DTYPES:
                        raise InputError(f"{path}: unsupported property type '{tokens[1]}'")
                    props.append((tokens[2], tokens[1]))
                elif tokens[0] == "end_header":
                    break
            except (IndexError, ValueError):
                bad = " ".join(tokens)
                raise InputError(f"{path}: malformed PLY header line '{bad}'") from None
        if fmt not in ("ascii", "binary_little_endian"):
            raise InputError(f"{path}: unsupported PLY format '{fmt}'")
        if n_vertex is None:
            raise InputError(f"{path}: no vertex element")
        names = [name for name, _ in props]
        for axis in ("x", "y", "z"):
            if axis not in names:
                raise InputError(f"{path}: vertex property '{axis}' missing")
        if len(set(names)) != len(names):
            raise InputError(f"{path}: a vertex property name occurs twice")
        # A binary vertex takes its record's bytes; an ascii one at least a
        # character and a line break, except on the last line.
        dtype = np.dtype([(name, _PLY_DTYPES[t][0]) for name, t in props])
        least = n_vertex * dtype.itemsize if fmt != "ascii" else 2 * n_vertex - 1
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if least > remaining:
            raise InputError(
                f"{path}: truncated vertex data ({n_vertex} vertices need at least "
                f"{least} bytes, {remaining} follow the header)"
            )

        if fmt == "ascii":
            rows = np.empty((n_vertex, len(props)))
            for k in range(n_vertex):
                line = fh.readline()
                if not line:
                    raise InputError(f"{path}: truncated vertex data")
                values = line.split()
                try:
                    if len(values) != len(props):
                        raise ValueError
                    rows[k] = [float(v) for v in values]
                except ValueError:
                    bad = f"vertex row {k + 1} is not {len(props)} numbers"
                    raise InputError(f"{path}: {bad}") from None
            data = dict(zip(names, rows.T))
        else:
            rec = np.frombuffer(fh.read(least), dtype=dtype)
            data = {name: rec[name].astype(float) for name, _ in props}

    points = np.column_stack([data["x"], data["y"], data["z"]]).astype(float)
    intensity = np.asarray(data.get("intensity", np.zeros(len(points))), dtype=float)
    if not (np.isfinite(points).all() and np.isfinite(intensity).all()):
        raise InputError(f"{path}: non-finite vertex values")
    return points, intensity


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
    (a header-only file), finds another column count or a byte that is not UTF-8."""
    with path.open(encoding="utf-8") as fh:
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
    for lineno, line in enumerate(_text_lines(path), 1):
        if not line.strip():
            continue
        try:
            values = _csv_floats(line)
        except ValueError:
            if lineno == 1:  # header line
                continue
            raise InputError(f"{path}:{lineno}: malformed {what} row")
        if len(values) != n_fields:
            raise InputError(f"{path}:{lineno}: expected {n_fields} fields, got {len(values)}")
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


# ---------------------------------------------------------------------------
# binary offset-table files: recorded correspondences (and topomap's depth file)

def file_error(path, doing: str, exc: OSError):
    """The error for ``exc``, met trying to ``doing`` ``path``: ResourceExhausted if the
    system, not the file, refused (too many open files or no memory), else InputError."""
    error = ResourceExhausted if exc.errno in (errno.EMFILE, errno.ENFILE, errno.ENOMEM) else InputError
    return error(f"{path}: cannot {doing} ({exc.strerror or exc})")


CORRESPONDENCE_FILE = "matches.bin"
CORRESPONDENCE_MAGIC = b"TCOR"
CORRESPONDENCE_VERSION = 1
_CORRESPONDENCE_HEADER = struct.Struct("<4sII")  # magic; uint32 version, frame count


def read_offset_file(path, header: bytes, count: int, entry_bytes: int, holding: str):
    """``(offsets, payload)`` of a little-endian file read whole: exactly
    ``header`` (a 4-byte magic, a uint32 version, then uint32 fields), the
    ``count`` + 1 cumulative entry offsets (uint32, rising from 0), then
    ``entry_bytes`` bytes per entry. ``offsets`` is an intp array, ``payload``
    the uint8 array after them, starting 8-byte aligned. Another magic or version is a
    FormatVersionMismatch naming the file; another header (``holding`` says in
    words what it holds), falling offsets or another size a ChecksumMismatch."""
    start = len(header) + 4 * (count + 1)
    skip = -start % 8  # the payload then starts 8-byte aligned in the page-aligned buffer
    try:
        with open(path, "rb") as fh:
            # An anonymous mapping, not the heap: freeing a heap block this large
            # would raise malloc's mmap and trim thresholds for the rest of the
            # process, and the heap it then keeps grows a localize's peak RSS.
            buf = mmap.mmap(-1, skip + os.fstat(fh.fileno()).st_size + 1)
            size = fh.readinto(memoryview(buf)[skip:])
    except OSError as exc:
        raise file_error(path, "read", exc) from exc
    raw = np.frombuffer(buf, dtype=np.uint8, count=size, offset=skip)
    if raw[:8].tobytes() != header[:8]:
        version = int.from_bytes(header[4:8], "little")
        raise FormatVersionMismatch(f"{path}: not a version {version} {header[:4]!r} file")
    if raw[8 : len(header)].tobytes() != header[8:] or len(raw) < start:
        raise ChecksumMismatch(f"{path}: no header and offsets for {holding}")
    offsets = raw[len(header) : start].view("<u4").astype(np.intp)
    if offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1]) or len(raw) != start + entry_bytes * offsets[-1]:
        raise ChecksumMismatch(
            f"{path}: {len(raw)} bytes, not offsets rising from 0 and {entry_bytes} per entry"
        )
    return offsets, raw[start:]


def write_offset_file(path, header: bytes, counts, columns) -> None:
    """Write the file ``read_offset_file`` reads: ``header``, the n + 1 cumulative
    offsets (uint32, from 0) of the n entry ``counts``, then each column in turn,
    a column yielding n arrays in their stored little-endian dtype, written one by one."""
    with Path(path).open("wb") as fh:
        fh.write(header)
        fh.write(np.cumsum([0, *counts]).astype("<u4"))
        for column in columns:
            for array in column:
                fh.write(array.tobytes())


def write_correspondences(path, frames) -> None:
    """Write every frame's pixel pairs ``(cur_px (N, 2), node_px (N, 2))``, in frame
    order, as an offset table after ``_CORRESPONDENCE_HEADER``: every frame's
    ``cur_px``, then every frame's ``node_px``, as float64 (u, v) rows; 32 bytes per pair."""
    header = _CORRESPONDENCE_HEADER.pack(CORRESPONDENCE_MAGIC, CORRESPONDENCE_VERSION, len(frames))
    columns = [(np.asarray(cur, "<f8") for cur, _ in frames), (np.asarray(node, "<f8") for _, node in frames)]
    write_offset_file(path, header, [len(cur) for cur, _ in frames], columns)


def read_correspondences(path, count: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``count`` frames' ``(cur_px, node_px)`` of a ``write_correspondences``
    file, read whole: each a view of one array. FormatVersionMismatch or
    ChecksumMismatch naming the file unless the header, offsets and size hold
    (``read_offset_file``) and every coordinate is finite."""
    header = _CORRESPONDENCE_HEADER.pack(CORRESPONDENCE_MAGIC, CORRESPONDENCE_VERSION, count)
    offsets, payload = read_offset_file(path, header, count, 32, f"{count} frames, one per frame index row")
    pixels = payload.view("<f8").reshape(2, offsets[-1], 2)
    # The least or the greatest value is NaN or infinite if any value is; this
    # makes no temporary the size of the file.
    if not np.isfinite([pixels.min(initial=0.0), pixels.max(initial=0.0)]).all():
        raise ChecksumMismatch(f"{path}: a stored pixel coordinate is not finite")
    cur, node = pixels
    return [(cur[a:b], node[a:b]) for a, b in zip(offsets[:-1], offsets[1:])]
