"""Readers and writers for the on-disk interchange formats.

Formats:
  * TUM trajectory text: ``timestamp tx ty tz qx qy qz qw`` per line
  * PLY point clouds (ascii or binary little-endian) with x, y, z, intensity
  * IMU CSV ``timestamp,ax,ay,az,wx,wy,wz`` and speed CSV ``timestamp,vx``
  * correspondence CSV ``u_cur,v_cur,u_node,v_node``
  * recorded correspondences of a run: one binary file (``write_correspondences``)
  * binary offset-table files (``write_offset_file``, ``read_offset_file``)

An offset-table file is mapped, not read: its arrays are views of the mapping,
and a replay drops the pages behind it (``ReplayWindow``). The writers replace
such a file by rename, never in place; another program must not truncate or
rewrite a mapped file in place either, or a read of it may fail with SIGBUS.
"""

from __future__ import annotations

import errno
import mmap
import os
import struct
import sys
import warnings
from pathlib import Path

import numpy as np

from .errors import ChecksumMismatch, FormatVersionMismatch, InputError, ResourceExhausted
from .geometry import pose_list, quaternion_norms


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


def read_tum(path):
    """Returns (timestamps (N,), [Pose] * N): rows of 8 whitespace-separated
    fields in ``_read_table``'s grammar, with strictly increasing timestamps."""
    rows = _read_table(path, 8, "trajectory", sep=None, time_column=0, check=_degenerate_quaternion)
    return rows[:, 0].copy(), pose_list(rows[:, [7, 4, 5, 6]], rows[:, 1:4])


def _degenerate_quaternion(rows):
    """The first row whose quaternion ``Rotation`` refuses."""
    norm = quaternion_norms(rows[:, [7, 4, 5, 6]])
    bad = np.flatnonzero(~(norm >= 1e-12) | ~np.isfinite(norm))
    return (bad[0], "quaternion has zero norm") if len(bad) else None


# ---------------------------------------------------------------------------
# PLY point clouds

_PLY_DTYPES = {
    "float": "<f4",
    "float32": "<f4",
    "double": "<f8",
    "float64": "<f8",
    "uchar": "<u1",
    "uint8": "<u1",
    "char": "<i1",
    "short": "<i2",
    "ushort": "<u2",
    "int": "<i4",
    "uint": "<u4",
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
        dtype = np.dtype([(name, _PLY_DTYPES[t]) for name, t in props])
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
# text tables: TUM trajectories, sensor and correspondence CSVs, the frame index

def _read_table(path, n_fields, what, sep=",", time_column=None, check=None):
    """Rows of a numeric text table as an (N, n_fields) array.

    The grammar: UTF-8 text; ``#`` starts a comment that runs to the end of
    the line, and blank lines are skipped; a line 1 that is not numbers is a
    header; each row holds exactly ``n_fields`` finite numbers split at ``sep``
    (None: whitespace). ``check``, given the finite rows, returns the first
    bad row's (index, message) or None; the ``time_column`` must increase
    strictly. The whole file is parsed in one ``np.loadtxt`` call; any file
    that call does not accept as valid is read again line by line, which
    names the first bad line in its ``InputError``.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"{what} file not found: {path}")
    data = _parse_table_bulk(path, n_fields, sep)
    if data is None or _row_fault(data, what, time_column, check) is not None:
        return _read_table_lines(path, n_fields, what, sep, time_column, check)
    return data


def _fields(line, sep):
    """The numbers of ``line`` before any ``#``, split at ``sep``."""
    text = line.split("#", 1)[0]
    return [float(p) for p in text.split(sep)] if text.strip() else []


def _parse_table_bulk(path, n_fields, sep):
    """The file's rows in one ``np.loadtxt`` call, or None where it fails, warns
    (a header-only file), finds another column count or a byte that is not UTF-8."""
    with path.open(encoding="utf-8") as fh:
        try:
            _fields(fh.readline(), sep)
            fh.seek(0)  # line 1 is data
        except ValueError:
            pass  # line 1 is a header
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                data = np.loadtxt(fh, delimiter=sep, comments="#", ndmin=2)
            except (ValueError, UserWarning):
                return None
    return data if data.shape[1] == n_fields else None


def _read_table_lines(path, n_fields, what, sep=",", time_column=None, check=None):
    """``_read_table`` one line at a time: the reference the bulk parse must
    match, and the reader that names the first bad line."""
    rows, linenos, error = [], [], None
    with path.open(encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                try:
                    values = _fields(line, sep)
                except ValueError:
                    if lineno == 1:  # header line
                        continue
                    error = f"{path}:{lineno}: malformed {what} row"
                    break
                if values and len(values) != n_fields:
                    error = f"{path}:{lineno}: expected {n_fields} fields, got {len(values)}"
                    break
                if values:
                    rows.append(values)
                    linenos.append(lineno)
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
    data = np.array(rows).reshape(-1, n_fields)
    fault = _row_fault(data, what, time_column, check)
    if fault is not None:  # a bad row before the line that stopped the read
        error = f"{path}:{linenos[fault[0]]}: {fault[1]}"
    if error is not None:
        raise InputError(error)
    return data


def _row_fault(data, what, time_column, check):
    """(row index, message) of the first bad row, or None: a row holding a value
    that is not finite, one ``check`` faults, or one whose ``time_column`` is
    not later than the row before's. Each test looks only at the rows before
    the earlier tests' fault, so of the faults of one row the first is named."""
    # float() and np.loadtxt accept "nan" and "inf"; reject them on the whole array.
    fault = None
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        fault = np.flatnonzero(~finite)[0], f"non-finite value in {what} row"
    rows = data[: len(data) if fault is None else fault[0]]
    if check is not None and (found := check(rows)) is not None:
        fault = found
        rows = rows[: found[0]]
    if time_column is not None:
        t = rows[:, time_column]
        back = np.flatnonzero(t[1:] <= t[:-1])
        if len(back):
            row = back[0] + 1
            fault = row, (
                f"{what} timestamp {float(t[row])!r} does not "
                f"follow the previous row's {float(t[row - 1])!r}"
            )
    return fault


def write_imu_csv(path, imu: np.ndarray) -> None:
    """Write (N, 7) IMU rows (t, ax, ay, az, wx, wy, wz)."""
    body = "%.9f,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g\n" * len(imu) % tuple(np.ravel(imu).tolist())
    Path(path).write_text("timestamp,ax,ay,az,wx,wy,wz\n" + body)


def read_imu_csv(path):
    """Returns the raw (N, 7) array: timestamp, ax, ay, az, wx, wy, wz.

    Timestamps must increase strictly (InputError naming the first bad line).
    """
    return _read_table(path, 7, "IMU", time_column=0)


def write_speed_csv(path, speeds: np.ndarray) -> None:
    """Write (N, 2) speed rows (t, vx)."""
    body = "%.9f,%.12g\n" * len(speeds) % tuple(np.ravel(speeds).tolist())
    Path(path).write_text("timestamp,vx\n" + body)


def read_speed_csv(path):
    """Returns the raw (N, 2) array: timestamp, vx.

    Timestamps must increase strictly (InputError naming the first bad line).
    """
    return _read_table(path, 2, "speed", time_column=0)


def write_correspondences_csv(path, cur_px: np.ndarray, node_px: np.ndarray) -> None:
    rows = np.hstack([cur_px, node_px])
    body = "%.6f,%.6f,%.6f,%.6f\n" * len(rows) % tuple(rows.ravel().tolist())
    Path(path).write_text("u_cur,v_cur,u_node,v_node\n" + body)


def read_correspondences_csv(path):
    """Returns (cur_px (N, 2), node_px (N, 2))."""
    rows = _read_table(path, 4, "correspondence")
    return rows[:, 0:2].copy(), rows[:, 2:4].copy()


# ---------------------------------------------------------------------------
# binary offset-table files: recorded correspondences (and topomap's node file)

def file_error(path, doing: str, exc: OSError):
    """The error for ``exc``, met trying to ``doing`` ``path``: ResourceExhausted if the
    system, not the file, refused (too many open files or no memory), else InputError."""
    error = ResourceExhausted if exc.errno in (errno.EMFILE, errno.ENFILE, errno.ENOMEM) else InputError
    return error(f"{path}: cannot {doing} ({exc.strerror or exc})")


CORRESPONDENCE_FILE = "matches.bin"
CORRESPONDENCE_MAGIC = b"TCOR"
CORRESPONDENCE_VERSION = 2
_CORRESPONDENCE_HEADER = struct.Struct("<4sII")  # magic; uint32 version, frame count
# A replay drops the pages of a mapped file behind the entry it hands out once this
# many bytes have piled up there since its last drop.
RESIDENT_BYTES = 256 * 1024
# The finiteness check of a mapped correspondence file reads this much at a time and
# drops each chunk's pages once it has been checked.
CHECK_CHUNK_BYTES = 1 << 20
# Python 3.13 can map a file without keeping a duplicate of its descriptor open.
_UNTRACKED = {"trackfd": False} if sys.version_info >= (3, 13) else {}


def release_pages(buf, start: int, stop: int) -> None:
    """Drop from the process the pages of ``buf``, a file mapping, from the
    one holding byte ``start`` up to the one holding byte ``stop``, that one kept
    unless ``stop`` is at or past the end. A dropped page faults back in from the
    page cache on its next read, so the mapping keeps the file's bytes; only the
    resident set shrinks. Does nothing where the system has no ``madvise``."""
    lo = start - start % mmap.PAGESIZE
    hi = len(buf) if stop >= len(buf) else stop - stop % mmap.PAGESIZE
    if hi > lo and hasattr(mmap, "MADV_DONTNEED"):
        buf.madvise(mmap.MADV_DONTNEED, lo, hi - lo)


class ReplayWindow:
    """Keeps a replay of a mapped offset-table file from holding every page it has
    read. ``columns`` holds each column's ``(first byte, bytes per entry row)`` in
    ``buf``; ``offsets`` are the file's cumulative entry offsets. Once at least
    ``RESIDENT_BYTES`` lie in all columns between the last drop and the first row
    of the entry handed out, ``release_before(entry)`` drops the pages wholly before
    that row, one ``release_pages`` per column."""

    def __init__(self, buf, offsets: np.ndarray, columns):
        self._buf = buf
        self._offsets = offsets
        self._columns = columns
        self._row = 0  # the row the last drop stopped at

    def release_before(self, entry: int) -> None:
        row = int(self._offsets[entry])
        if (row - self._row) * sum(width for _, width in self._columns) < RESIDENT_BYTES:
            return
        for start, width in self._columns:
            release_pages(self._buf, start + self._row * width, start + row * width)
        self._row = row


def _payload_start(header: bytes, count: int) -> int:
    """Where the payload of an offset-table file starts: after the header and the
    ``count`` + 1 offsets, padded with zero bytes to a multiple of 8."""
    table = len(header) + 4 * (count + 1)
    return table + -table % 8


def read_offset_file(path, header: bytes, count: int, entry_bytes: int, holding: str, access=mmap.ACCESS_READ):
    """``(offsets, payload, buf)`` of a little-endian file mapped whole, ``buf``:
    read-only and shared, or with ``mmap.ACCESS_COPY`` copy-on-write, so that writes
    to it never reach the file. The file is closed before this returns, but before
    Python 3.13 ``buf`` holds a duplicate of its descriptor until unmapped. It holds
    exactly ``header`` (a 4-byte magic, a uint32 version, then uint32 fields), the
    ``count`` + 1 cumulative entry offsets (uint32, rising from 0), zero bytes up to
    a multiple of 8, then ``entry_bytes`` bytes per entry. ``offsets`` is an intp
    array, ``payload`` the uint8 view of ``buf`` after them, 8-byte aligned. Another
    magic or version is a FormatVersionMismatch naming the file; another header
    (``holding`` says in words what it holds), a pad that is not zero, falling
    offsets or another size a ChecksumMismatch; an OSError the ``file_error``."""
    try:
        with open(path, "rb") as fh:
            empty = os.fstat(fh.fileno()).st_size == 0  # which mmap refuses to map
            buf = b"" if empty else mmap.mmap(fh.fileno(), 0, access=access, **_UNTRACKED)
    except OSError as exc:
        raise file_error(path, "read", exc) from exc
    raw = np.frombuffer(buf, dtype=np.uint8)
    table = len(header) + 4 * (count + 1)
    start = _payload_start(header, count)
    if raw[:8].tobytes() != header[:8]:
        version = int.from_bytes(header[4:8], "little")
        raise FormatVersionMismatch(f"{path}: not a version {version} {header[:4]!r} file")
    if raw[8 : len(header)].tobytes() != header[8:] or len(raw) < start:
        raise ChecksumMismatch(f"{path}: no header and offsets for {holding}")
    if raw[table:start].any():
        raise ChecksumMismatch(f"{path}: the pad after the offsets is not zero")
    offsets = raw[len(header) : table].view("<u4").astype(np.intp)
    if offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1]) or len(raw) != start + entry_bytes * offsets[-1]:
        raise ChecksumMismatch(
            f"{path}: {len(raw)} bytes, not offsets rising from 0 and {entry_bytes} per entry"
        )
    return offsets, raw[start:], buf


def write_offset_file(path, header: bytes, counts, columns) -> None:
    """Write the file ``read_offset_file`` reads: ``header``, the n + 1 cumulative
    offsets (uint32, from 0) of the n entry ``counts``, zero bytes up to a multiple
    of 8, then each column in turn, a column yielding n arrays in their stored
    little-endian dtype, written one by one. The bytes go to a new file beside
    ``path``, renamed over it when complete, so a mapping of the old file keeps its bytes."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(header)
            fh.write(np.cumsum([0, *counts]).astype("<u4"))
            fh.write(bytes(_payload_start(header, len(counts)) - fh.tell()))
            for column in columns:
                for array in column:
                    fh.write(array.tobytes())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_correspondences(path, frames) -> None:
    """Write every frame's pixel pairs ``(cur_px (N, 2), node_px (N, 2))``, in frame
    order, as an offset table after ``_CORRESPONDENCE_HEADER``: every frame's
    ``cur_px``, then every frame's ``node_px``, as float64 (u, v) rows; 32 bytes per pair."""
    header = _CORRESPONDENCE_HEADER.pack(CORRESPONDENCE_MAGIC, CORRESPONDENCE_VERSION, len(frames))
    columns = [(np.asarray(cur, "<f8") for cur, _ in frames), (np.asarray(node, "<f8") for _, node in frames)]
    write_offset_file(path, header, [len(cur) for cur, _ in frames], columns)


def read_correspondences(path, count: int) -> tuple[list[tuple[np.ndarray, np.ndarray]], ReplayWindow]:
    """``(pairs, window)``: the ``count`` frames' ``(cur_px, node_px)`` of a
    ``write_correspondences`` file, each a view of its read-only mapping, and the
    ``ReplayWindow`` that drops the pages a replay of them leaves behind.
    FormatVersionMismatch or ChecksumMismatch naming the file unless the header,
    offsets and size hold (``read_offset_file``) and every coordinate is finite."""
    header = _CORRESPONDENCE_HEADER.pack(CORRESPONDENCE_MAGIC, CORRESPONDENCE_VERSION, count)
    offsets, payload, buf = read_offset_file(path, header, count, 32, f"{count} frames, one per frame index row")
    start = len(buf) - len(payload)
    # A chunk at a time, dropping the pages behind: only a chunk of the file is
    # resident at once. The least or the greatest value is NaN or infinite if any is.
    for lo in range(start - start % mmap.PAGESIZE, len(buf), CHECK_CHUNK_BYTES):
        chunk = payload[max(lo - start, 0) : lo - start + CHECK_CHUNK_BYTES].view("<f8")
        if not np.isfinite([chunk.min(initial=0.0), chunk.max(initial=0.0)]).all():
            raise ChecksumMismatch(f"{path}: a stored pixel coordinate is not finite")
        release_pages(buf, lo, lo + CHECK_CHUNK_BYTES)
    cur, node = payload.view("<f8").reshape(2, offsets[-1], 2)
    pairs = [(cur[a:b], node[a:b]) for a, b in zip(offsets[:-1], offsets[1:])]
    return pairs, ReplayWindow(buf, offsets, [(start, 16), (start + 16 * int(offsets[-1]), 16)])
