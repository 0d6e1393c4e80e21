"""Round trips for the interchange formats: TUM, PLY, sensor CSVs, the
recorded-correspondence file."""

import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from topoloc.errors import InputError
from topoloc.geometry import Pose, Rotation
from topoloc.io import (
    _parse_csv_bulk,
    _read_csv_lines,
    _read_csv_rows,
    read_correspondences,
    read_correspondences_csv,
    read_imu_csv,
    read_ply,
    read_speed_csv,
    read_tum,
    write_correspondences,
    write_correspondences_csv,
    write_imu_csv,
    write_ply,
    write_speed_csv,
    write_tum,
)

from topoloc.scenario import _as_printed

from conftest import random_pose


def test_tum_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    ts = np.arange(5) * 0.1
    poses = [random_pose(rng) for _ in range(5)]
    write_tum(tmp_path / "traj.tum", ts, poses)
    ts2, poses2 = read_tum(tmp_path / "traj.tum")
    np.testing.assert_allclose(ts2, ts, atol=1e-9)
    for a, b in zip(poses, poses2):
        np.testing.assert_allclose(a.translation, b.translation, atol=1e-9)
        assert a.rotation.angle_to(b.rotation) < 1e-9


def printed(value: float, digits: int) -> float:
    return float(f"{value:.{digits}f}")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(1, 10**12),  # nanoseconds after the previous row
            st.tuples(*[st.floats(-1e5, 1e5)] * 3),
            st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: sum(v * v for v in q) > 1e-2),
        ),
        max_size=20,
    )
)
def test_tum_round_trip_at_printed_precision(rows):
    # write_tum prints t and the translation to 9 decimals and the quaternion
    # to 12; read_tum returns exactly the printed values, the quaternion
    # normalized
    ts = np.cumsum([0] + [ns for ns, _, _ in rows])[1:] / 1e9
    poses = [Pose(Rotation.from_quat_xyzw(q), t) for _, t, q in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traj.tum"
        write_tum(path, ts, poses)
        ts2, poses2 = read_tum(path)
    assert ts2.tolist() == [printed(t, 9) for t in ts.tolist()]
    assert len(poses2) == len(poses)
    for a, b in zip(poses, poses2):
        assert b.translation.tolist() == [printed(v, 9) for v in a.translation.tolist()]
        q = Rotation.from_quat_xyzw([printed(v, 12) for v in a.rotation.as_quat_xyzw().tolist()])
        np.testing.assert_array_equal(b.rotation.q, q.q)
        assert np.abs(b.translation - a.translation).max(initial=0.0) <= 5.2e-10
        assert a.rotation.angle_to(b.rotation) < 1e-11
    assert np.abs(ts2 - ts).max(initial=0.0) <= 5.2e-10


def test_tum_skips_comments(tmp_path):
    (tmp_path / "t.tum").write_text("# header\n\n1.0 0 0 0 0 0 0 1\n")
    ts, poses = read_tum(tmp_path / "t.tum")
    assert len(ts) == 1 and len(poses) == 1


@pytest.mark.parametrize(
    "row, message",
    [
        ("0.0 0 0 0 0 0 0 0", "quaternion has zero norm"),
        ("0.0 abc 0 0 0 0 0 1", "non-numeric field"),
        ("0.0 0 0 0 0 0 0 1e999", "non-finite value"),
        ("0.0 0 0 0 nan 0 0 1", "non-finite value"),
        ("0.5 0 0 0 0 0 0 1", "trajectory timestamp 0.5 does not follow the previous row's 1.0"),
    ],
)
def test_malformed_tum_row_names_line(tmp_path, row, message):
    path = tmp_path / "t.tum"
    path.write_text("# header\n1.0 0 0 0 0 0 0 1\n" + row + "\n")
    with pytest.raises(InputError, match=re.escape(f"{path}:3: {message}")):
        read_tum(path)


def test_tum_missing_file():
    with pytest.raises(InputError):
        read_tum("/nonexistent/file.tum")


@pytest.mark.parametrize("binary", [True, False])
def test_ply_round_trip(tmp_path, binary):
    rng = np.random.default_rng(1)
    pts = rng.normal(0, 50, (200, 3))
    inten = rng.integers(0, 256, 200)
    write_ply(tmp_path / "c.ply", pts, inten, binary=binary)
    pts2, inten2 = read_ply(tmp_path / "c.ply")
    np.testing.assert_allclose(pts2, pts, atol=1e-3)  # stored as float32
    np.testing.assert_array_equal(inten2, inten)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 20).flatmap(
        lambda n: st.tuples(
            arrays(np.float32, (n, 3), elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
            arrays(np.uint8, n),
        )
    ),
    st.booleans(),
)
@example((np.array([[4e-7, 0.1234567, -1e-45]], np.float32), np.array([7], np.uint8)), False)
def test_ply_round_trip_keeps_every_float32(cloud, binary):
    # both formats give back every finite float32 bit for bit, subnormals,
    # -0.0 and the empty cloud included
    pts, inten = cloud
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ply"
        write_ply(path, pts, inten, binary=binary)
        pts2, inten2 = read_ply(path)
    assert pts2.shape == pts.shape
    assert pts2.astype(np.float32).tobytes() == pts.tobytes()
    assert inten2.tolist() == inten.tolist()


def test_ply_ascii_without_intensity(tmp_path):
    (tmp_path / "c.ply").write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
        "1 2 3\n4 5 6\n"
    )
    pts, inten = read_ply(tmp_path / "c.ply")
    np.testing.assert_allclose(pts, [[1, 2, 3], [4, 5, 6]])
    np.testing.assert_array_equal(inten, [0, 0])


def test_ply_double_properties(tmp_path):
    header = (
        "ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
        "property double x\nproperty double y\nproperty double z\n"
        "property float intensity\nend_header\n"
    )
    body = np.array(
        [(1.0, 2.0, 3.0, 9.0), (4.0, 5.0, 6.0, 8.0)],
        dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8"), ("i", "<f4")],
    ).tobytes()
    (tmp_path / "c.ply").write_bytes(header.encode() + body)
    pts, inten = read_ply(tmp_path / "c.ply")
    np.testing.assert_allclose(pts, [[1, 2, 3], [4, 5, 6]])
    np.testing.assert_allclose(inten, [9, 8])


def test_ply_truncated(tmp_path):
    header = (
        "ply\nformat binary_little_endian 1.0\nelement vertex 5\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
    )
    (tmp_path / "c.ply").write_bytes(header.encode() + b"\x00" * 10)
    with pytest.raises(InputError):
        read_ply(tmp_path / "c.ply")


PLY_HEADER = (
    "ply\nformat ascii 1.0\nelement vertex 2\n"
    "property float x\nproperty float y\nproperty float z\nend_header\n"
)


@pytest.mark.parametrize(
    "text, message",
    [
        (PLY_HEADER.replace("vertex 2", "vertex two") + "1 2 3\n4 5 6\n",
         "malformed PLY header line 'element vertex two'"),
        (PLY_HEADER.replace("ascii", "binary_little_endian").replace("float x", "float16 x"),
         "unsupported property type 'float16'"),
        (PLY_HEADER + "1 2 abc\n4 5 6\n", "vertex row 1 is not 3 numbers"),
        (PLY_HEADER + "1 2 3\n4 5\n", "vertex row 2 is not 3 numbers"),
        (PLY_HEADER.replace("float z", "float") + "1 2 3\n4 5 6\n",
         "malformed PLY header line 'property float'"),
        (PLY_HEADER + "1 2 nan\n4 5 6\n", "non-finite vertex values"),
    ],
    ids=["bad_count", "bad_type", "bad_number", "short_row", "unnamed_property", "nan"],
)
def test_ply_malformed_raises_input_error(tmp_path, text, message):
    path = tmp_path / "c.ply"
    path.write_text(text)
    with pytest.raises(InputError, match=re.escape(f"{path}: {message}")):
        read_ply(path)


def test_imu_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    imu = np.column_stack(
        (0.005 * np.arange(50), rng.normal(0, 2, (50, 3)), rng.normal(0, 0.5, (50, 3)))
    )
    write_imu_csv(tmp_path / "imu.csv", imu)
    rows = read_imu_csv(tmp_path / "imu.csv")
    assert rows.shape == (50, 7)
    assert np.abs(rows[:, 0] - imu[:, 0]).max() < 1e-9
    np.testing.assert_allclose(rows[:, 1:], imu[:, 1:], rtol=1e-10)


def test_speed_csv_round_trip(tmp_path):
    speeds = np.column_stack((0.1 * np.arange(10), 1.5 * np.arange(10)))
    write_speed_csv(tmp_path / "speed.csv", speeds)
    rows = read_speed_csv(tmp_path / "speed.csv")
    assert rows.shape == (10, 2)
    np.testing.assert_allclose(rows, speeds, rtol=1e-10)


def test_correspondence_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    cur = rng.uniform(0, 640, (30, 2))
    node = rng.uniform(0, 640, (30, 2))
    write_correspondences_csv(tmp_path / "c.csv", cur, node)
    cur2, node2 = read_correspondences_csv(tmp_path / "c.csv")
    np.testing.assert_allclose(cur2, cur, atol=1e-6)
    np.testing.assert_allclose(node2, node, atol=1e-6)


def test_malformed_csv_raises(tmp_path):
    (tmp_path / "bad.csv").write_text("timestamp,vx\n1.0,2.0\nnot,a,row\n")
    with pytest.raises(InputError):
        read_speed_csv(tmp_path / "bad.csv")


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
def test_non_finite_csv_value_names_line(tmp_path, value):
    (tmp_path / "speed.csv").write_text(f"timestamp,vx\n\n0.0,1.0\n0.1,{value}\n0.2,1.0\n")
    with pytest.raises(InputError, match=r"speed\.csv:4: non-finite"):
        read_speed_csv(tmp_path / "speed.csv")


@pytest.mark.parametrize("reader", [read_imu_csv, read_speed_csv])
@pytest.mark.parametrize("times, bad_line", [((0.0, 0.2, 0.1, 0.3), 4), ((0.0, 0.1, 0.1, 0.2), 4)])
def test_sensor_csv_requires_increasing_timestamps(tmp_path, reader, times, bad_line):
    fields = 6 if reader is read_imu_csv else 1
    rows = [",".join([f"{t}"] + ["1.0"] * fields) for t in times]
    path = tmp_path / "sensor.csv"
    path.write_text("timestamp,values\n" + "\n".join(rows) + "\n")
    with pytest.raises(InputError, match=rf"sensor\.csv:{bad_line}: .* timestamp"):
        reader(path)


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(0, 40), st.just(4)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
@example(np.zeros((0, 4)))
@example(np.array([[-0.0, 0.0, -1e-7, 1e-7], [1.7e308, -1.7e308, 123456789.0000005, -0.5]]))
def test_correspondence_csv_bulk_parse_matches_line_reader(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        write_correspondences_csv(path, rows[:, 0:2], rows[:, 2:4])
        reference = "u_cur,v_cur,u_node,v_node\n" + "".join(
            f"{a:.6f},{b:.6f},{c:.6f},{d:.6f}\n" for a, b, c, d in rows
        )
        assert path.read_text() == reference
        by_line = _read_csv_lines(path, 4, "correspondence", False)
        bulk = _parse_csv_bulk(path, 4)
        if len(rows):
            assert bulk is not None and bulk.tobytes() == by_line.tobytes()
        cur, node = read_correspondences_csv(path)
        assert np.hstack([cur, node]).tobytes() == by_line.tobytes()


HEADER = "u_cur,v_cur,u_node,v_node\n"


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("1,2,3,4\n1,2,3\n", 3, "expected 4 fields, got 3"),
        ("1,2,3,4\n1,2,3,4,5\n", 3, "expected 4 fields, got 5"),
        ("1,2,3,4\n1,2,nan,4\n", 3, "non-finite value in correspondence row"),
        ("1,2,3,4\n1,inf,3,4\n", 3, "non-finite value in correspondence row"),
        ("1,2,3,4\n1,2,3,4 # comment\n", 3, "malformed correspondence row"),
        ("1,2,3,4\n5,6,7,8\n1,x,3,4\n5,6,7,8\n", 4, "malformed correspondence row"),
    ],
)
def test_malformed_correspondence_csv_names_line(tmp_path, body, line, message):
    path = tmp_path / "c.csv"
    path.write_text(HEADER + body)
    with pytest.raises(InputError) as exc:
        read_correspondences_csv(path)
    assert str(exc.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("reader, what, fields", [(read_imu_csv, "IMU", 6), (read_speed_csv, "speed", 1)])
def test_out_of_order_sensor_csv_message(tmp_path, reader, what, fields):
    path = tmp_path / "sensor.csv"
    rows = [",".join([t] + ["1.0"] * fields) for t in ("0.0", "0.2", "0.1", "0.3")]
    path.write_text("timestamp,values\n" + "\n".join(rows) + "\n")
    with pytest.raises(InputError) as exc:
        reader(path)
    assert str(exc.value) == (
        f"{path}:4: {what} timestamp {np.float64(0.1)!r} does not follow "
        f"the previous row's {np.float64(0.2)!r}"
    )


@pytest.mark.parametrize(
    "text, expected",
    [
        (HEADER, np.zeros((0, 4))),
        ("", np.zeros((0, 4))),
        (HEADER + "\n1,2,3,4\n\n  \n5,6,7,8\n\n", [[1, 2, 3, 4], [5, 6, 7, 8]]),
        ("\n1,2,3,4\n5,6,7,8", [[1, 2, 3, 4], [5, 6, 7, 8]]),
        (HEADER + " 1 ,\t2, 3 ,4\t\n5 , 6,7 , 8 \n", [[1, 2, 3, 4], [5, 6, 7, 8]]),
        ("1.5,2,3,4\n5,6,7,8\n", [[1.5, 2, 3, 4], [5, 6, 7, 8]]),
    ],
)
def test_accepted_correspondence_csv_layouts(tmp_path, text, expected):
    path = tmp_path / "c.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cur, node = read_correspondences_csv(path)
    rows = np.hstack([cur, node])
    np.testing.assert_array_equal(rows, np.asarray(expected, dtype=float).reshape(-1, 4))
    assert rows.tobytes() == _read_csv_lines(path, 4, "correspondence", False).tobytes()


# Text readers on any bytes: arbitrary bytes, the bytes of text files made of
# tokens the formats use (and a few that are not UTF-8), and valid files with
# a few bytes overwritten.
TEXT_TOKENS = [b"0", b"1.5", b"-2e3", b"nan", b"inf", b" ", b"\t", b",", b"\n", b"\r\n", b"#", b"x",
               b"\xff", b"\xe9", b"\xc3\xa9", b"\x00"]
VALID_TEXT = st.sampled_from([
    b"0.1 1 2 3 0 0 0 1\n0.2 1 2 3 0 0 0.6 0.8\n",
    b"timestamp,vx\n0.0,1.5\n0.1,1.25\n",
    b"u_cur,v_cur,u_node,v_node\n1,2,3,4\n5,6,7,8\n",
    b"0.0,1,2,3,4,5,6\n0.01,1,2,3,4,5,6\n",
])
ANY_TEXT = st.one_of(
    st.binary(max_size=60),
    st.lists(st.sampled_from(TEXT_TOKENS), max_size=40).map(b"".join),
    st.tuples(VALID_TEXT, st.integers(0, 50), st.binary(min_size=1, max_size=3)).map(
        lambda v: v[0][: v[1]] + v[2] + v[0][v[1] + len(v[2]) :]
    ),
)


def read_any(reader, raw: bytes):
    """``reader`` applied to a file holding ``raw``, or None on an InputError;
    any other exception fails the calling test."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f"
        path.write_bytes(raw)
        try:
            return reader(path)
        except InputError:
            return None


@settings(max_examples=300, deadline=None)
@given(ANY_TEXT)
@example(b"\xff\xfe\n")
def test_tum_reader_takes_any_bytes(raw):
    result = read_any(read_tum, raw)
    if result is not None:
        ts, poses = result
        assert len(ts) == len(poses) and np.all(np.isfinite(ts)) and np.all(np.diff(ts) > 0)


@settings(max_examples=300, deadline=None)
@given(ANY_TEXT, st.sampled_from([2, 4, 7]), st.booleans())
@example(b"a,b\n1,2\n\xff\n", 2, False)
def test_csv_reader_takes_any_bytes(raw, n_fields, time_ordered):
    rows = read_any(lambda path: _read_csv_rows(path, n_fields, "test", time_ordered), raw)
    if rows is not None:
        assert rows.ndim == 2 and rows.shape[1] == n_fields and np.isfinite(rows).all()
        if time_ordered:
            assert np.all(np.diff(rows[:, 0]) > 0)


# PLY on any bytes: arbitrary bytes, headers built from the format's lines,
# and valid files cut, extended or with a few bytes overwritten.
PLY_LINES = [b"ply\n", b"format ascii 1.0\n", b"format binary_little_endian 1.0\n",
             b"element vertex 2\n", b"element vertex 99999999999\n", b"element face 1\n",
             b"property float x\n", b"property float y\n", b"property float z\n",
             b"property uchar intensity\n", b"property list uchar int v\n", b"end_header\n",
             b"1 2 3\n", b"1 2 3 4\n", b"nan 0 0\n", b"\x00\x00\x80\x3f", b"\xff"]


def ply_file(cloud, binary) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        write_ply(Path(tmp) / "c.ply", *cloud, binary=binary)
        return (Path(tmp) / "c.ply").read_bytes()


VALID_PLY = st.tuples(
    st.integers(0, 4).flatmap(lambda n: st.tuples(
        arrays(np.float32, (n, 3), elements=st.floats(-10, 10, width=32)), arrays(np.uint8, n))),
    st.booleans(),
).map(lambda v: ply_file(*v))
ANY_PLY = st.one_of(
    st.binary(max_size=60),
    st.lists(st.sampled_from(PLY_LINES), max_size=14).map(lambda lines: b"ply\n" + b"".join(lines)),
    st.tuples(VALID_PLY, st.integers(0, 200)).map(lambda v: v[0][: v[1]]),
    st.tuples(VALID_PLY, st.binary(min_size=1, max_size=6)).map(lambda v: v[0] + v[1]),
    st.tuples(VALID_PLY, st.integers(0, 200), st.binary(min_size=1, max_size=3)).map(
        lambda v: v[0][: v[1]] + v[2] + v[0][v[1] + len(v[2]) :]
    ),
)


@settings(max_examples=300, deadline=None)
@given(ANY_PLY)
@example(PLY_HEADER.replace("vertex 2", "vertex 99999999999").encode() + b"1 2 3\n")
@example(PLY_HEADER.replace("ascii", "binary_little_endian").replace("z\n", "z\nproperty float z\n").encode() + bytes(32))
def test_ply_reader_takes_any_bytes(raw):
    # a vertex count the file cannot hold is an InputError, not an allocation
    result = read_any(read_ply, raw)
    if result is not None:
        points, intensity = result
        assert points.ndim == 2 and points.shape[1] == 3 and intensity.shape == (len(points),)
        assert np.isfinite(points).all() and np.isfinite(intensity).all()


def test_ply_vertex_count_beyond_the_file(tmp_path):
    path = tmp_path / "c.ply"
    path.write_text(PLY_HEADER.replace("vertex 2", "vertex 99999999999") + "1 2 3\n")
    with pytest.raises(InputError, match=re.escape(f"{path}: truncated vertex data (99999999999 vertices")):
        read_ply(path)


# Recorded correspondences: one binary file per run.

def correspondence_file(frames) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        write_correspondences(Path(tmp) / "m.bin", frames)
        return (Path(tmp) / "m.bin").read_bytes()


def test_correspondence_file_layout(tmp_path):
    # header, n + 1 row offsets, every frame's cur pixels, every frame's node pixels
    frames = [
        (np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0, 6.0], [7.0, 8.0]])),
        (np.zeros((0, 2)), np.zeros((0, 2))),
        (np.array([[9.0, 10.0]]), np.array([[11.0, 12.0]])),
        (np.array([[13.0, 14.0]]), np.array([[15.0, 16.0]])),
    ]
    path = tmp_path / "m.bin"
    write_correspondences(path, frames)
    raw = path.read_bytes()
    assert raw[:4] == b"TCOR"
    np.testing.assert_array_equal(np.frombuffer(raw[4:12], "<u4"), [1, 4])
    np.testing.assert_array_equal(np.frombuffer(raw[12:32], "<u4"), [0, 2, 2, 3, 4])
    np.testing.assert_array_equal(np.frombuffer(raw[32:], "<f8"), [1, 2, 3, 4, 9, 10, 13, 14, 5, 6, 7, 8, 11, 12, 15, 16])
    back = read_correspondences(path, 4)
    assert [(c.tolist(), n.tolist()) for c, n in back] == [(c.tolist(), n.tolist()) for c, n in frames]
    # every frame's pixels are aligned, contiguous views of one array
    base = back[0][0].base
    assert all(a.base is base and a.flags.c_contiguous and a.flags.aligned for pair in back for a in pair)


FRAME_PIXELS = st.integers(0, 5).flatmap(
    lambda n: st.tuples(*[arrays(np.float64, (n, 2), elements=st.floats(allow_nan=False, allow_infinity=False))] * 2)
)


@settings(max_examples=60, deadline=None)
@given(st.lists(FRAME_PIXELS, max_size=5))
def test_correspondence_round_trip_keeps_every_byte(frames):
    # any finite doubles, -0.0 and subnormals included, an odd or even frame count
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.bin"
        write_correspondences(path, frames)
        back = read_correspondences(path, len(frames))
    assert len(back) == len(frames)
    for (cur, node), (cur2, node2) in zip(frames, back):
        assert cur2.shape == cur.shape and cur2.dtype == np.float64 and cur2.flags.aligned
        assert cur2.tobytes() == cur.tobytes() and node2.tobytes() == node.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_correspondence_reader_takes_any_bytes(data):
    # the exact payload or a format error, never a numpy error or a traceback
    frames = data.draw(st.lists(FRAME_PIXELS, max_size=3))
    valid = correspondence_file(frames)
    raw = data.draw(st.one_of(
        st.binary(max_size=40),
        st.integers(0, len(valid)).map(lambda n: valid[:n]),
        st.binary(min_size=1, max_size=9).map(lambda extra: valid + extra),
        st.tuples(st.integers(0, len(valid)), st.binary(min_size=1, max_size=3)).map(
            lambda v: valid[: v[0]] + v[1] + valid[v[0] + len(v[1]) :]
        ),
    ))
    count = data.draw(st.sampled_from([len(frames), len(frames) + 1]))
    back = read_any(lambda path: read_correspondences(path, count), raw)
    if back is not None:
        assert correspondence_file(back) == raw and len(back) == count
        assert all(np.isfinite(a).all() for pair in back for a in pair)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 20), st.just(2)), elements=st.one_of(
    st.floats(-1e4, 1e4), st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6).map(lambda n: (n + 0.5) / 1e6),  # next to a half-way case
)))
@example(np.array([[0.0000005, -0.0000005], [2.5e-7, 639.9999995]]))
@example(np.array([[584.1635695, 248.9097115], [3 / 128, -1001 / 128], [1.2e6, -2.0**41 / 1e6]]))
def test_stored_pixels_are_the_csv_values(px):
    # simulate stores the doubles that its pixels printed to 6 decimals parse
    # to; rint(x * 1e6) / 1e6 alone differs on the second example's first row
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        write_correspondences_csv(path, px, px)
        parsed, _ = read_correspondences_csv(path)
    assert _as_printed(px).tobytes() == parsed.tobytes()
