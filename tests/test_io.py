"""Round trips for the interchange formats: TUM, PLY, sensor CSVs, the frame
index, the recorded-correspondence file."""

import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import topoloc.io
from topoloc.errors import ChecksumMismatch, FormatVersionMismatch, InputError
from topoloc.geometry import Pose, Rotation
from topoloc.io import (
    CORRESPONDENCE_FILE,
    RESIDENT_BYTES,
    _degenerate_quaternion,
    _parse_table_bulk,
    _read_table,
    _read_table_lines,
    read_correspondences,
    read_correspondences_csv,
    read_imu_csv,
    read_ply,
    read_speed_csv,
    read_tum,
    release_pages,
    write_correspondences,
    write_correspondences_csv,
    write_imu_csv,
    write_ply,
    write_speed_csv,
    write_tum,
)
from topoloc.scenario import _fractional_id, load_recorded_matcher, read_frame_index

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


TUM_ROWS = st.lists(
    st.tuples(
        st.integers(1, 10**12),  # nanoseconds after the previous row
        st.tuples(*[st.floats(-1e5, 1e5)] * 3),
        st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: sum(v * v for v in q) > 1e-2),
    ),
    max_size=20,
)


def tum_poses(rows):
    """The timestamps and poses of ``TUM_ROWS``."""
    ts = np.cumsum([0] + [ns for ns, _, _ in rows])[1:] / 1e9
    return ts, [Pose(Rotation.from_quat_xyzw(q), t) for _, t, q in rows]


@settings(max_examples=60, deadline=None)
@given(TUM_ROWS)
def test_tum_round_trip_at_printed_precision(rows):
    # write_tum prints t and the translation to 9 decimals and the quaternion
    # to 12; read_tum returns exactly the printed values, the quaternion
    # normalized
    ts, poses = tum_poses(rows)
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


def test_tum_header_tabs_and_comments_read_as_plain(tmp_path):
    plain = "0.1 1 2 3 0 0 0 1\n0.2 1 2 3 0 0 0.6 0.8\n"
    dressed = "timestamp tx ty tz qx qy qz qw\n0.1\t1 2 3\t0 0 0 1  # start\n\n# still\n0.2 1\t2 3 0 0 0.6 0.8#end\n"
    (tmp_path / "plain.tum").write_text(plain)
    (tmp_path / "dressed.tum").write_text(dressed)
    t0, p0 = read_tum(tmp_path / "plain.tum")
    t1, p1 = read_tum(tmp_path / "dressed.tum")
    assert t1.tobytes() == t0.tobytes() == np.array([0.1, 0.2]).tobytes()
    for a, b in zip(p0, p1, strict=True):
        assert a.translation.tobytes() == b.translation.tobytes() and a.rotation.q.tobytes() == b.rotation.q.tobytes()


@pytest.mark.parametrize(
    "row, message",
    [
        ("0.0 0 0 0 0 0 0 0", "quaternion has zero norm"),
        ("0.0 abc 0 0 0 0 0 1", "malformed trajectory row"),
        ("0.0 0 0 0 0 0 0 1 9", "expected 8 fields, got 9"),
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
        by_line = _read_table_lines(path, 4, "correspondence")
        bulk = _parse_table_bulk(path, 4, ",")
        if len(rows):
            assert bulk is not None and bulk.tobytes() == by_line.tobytes()
        cur, node = read_correspondences_csv(path)
        assert np.hstack([cur, node]).tobytes() == by_line.tobytes()


# The text tables' row grammars: _read_table's arguments after the path.
TABLES = {
    "IMU": (7, "IMU", ",", 0, None),
    "speed": (2, "speed", ",", 0, None),
    "correspondence": (4, "correspondence", ",", None, None),
    "trajectory": (8, "trajectory", None, 0, _degenerate_quaternion),
    "frame index": (3, "frame index", ",", 1, _fractional_id),
}


@settings(max_examples=60, deadline=None)
@given(TUM_ROWS)
def test_tum_bulk_parse_matches_line_reader(rows):
    ts, poses = tum_poses(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tum"
        write_tum(path, ts, poses)
        by_line = _read_table_lines(path, *TABLES["trajectory"])
        bulk = _parse_table_bulk(path, 8, None)
        ts2, poses2 = read_tum(path)
    if len(rows):
        assert bulk is not None and bulk.tobytes() == by_line.tobytes()
    assert ts2.tobytes() == by_line[:, 0].tobytes()
    for row, pose in zip(by_line, poses2, strict=True):
        assert pose.translation.tobytes() == row[1:4].tobytes()
        assert pose.rotation.q.tobytes() == Rotation.from_quat_xyzw(row[4:8].tolist()).q.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10**12), st.integers(0, 10**6)), max_size=20))
def test_frame_index_bulk_parse_matches_line_reader(rows):
    # the index as simulate writes it: a header, then frame,timestamp,node_id
    ts = np.cumsum([0] + [ns for ns, _ in rows])[1:] / 1e9
    text = "frame,timestamp,node_id\n" + "".join(f"{k},{t:.9f},{n}\n" for k, (t, (_, n)) in enumerate(zip(ts, rows)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.csv"
        path.write_text(text)
        by_line = _read_table_lines(path, *TABLES["frame index"])
        bulk = _parse_table_bulk(path, 3, ",")
        frames, node_ids = read_frame_index(path)
    if len(rows):
        assert bulk is not None and bulk.tobytes() == by_line.tobytes()
    assert [f.timestamp for f in frames] == [printed(t, 9) for t in ts.tolist()] == by_line[:, 1].tolist()
    assert node_ids == [n for _, n in rows] and all(type(n) is int for n in node_ids)
    assert by_line[:, 0].tolist() == list(range(len(rows)))


def test_frame_index_without_header_keeps_frame_0(tmp_path):
    path = tmp_path / "index.csv"
    path.write_text("0,0.0,0\n1,0.1,0\n2,0.2,1\n")
    frames, node_ids = read_frame_index(path)
    assert [f.timestamp for f in frames] == [0.0, 0.1, 0.2] and node_ids == [0, 0, 1]


@pytest.mark.parametrize(
    "row, message",
    [
        ("3.0,0.3,2.0", None),
        ("3.5,0.3,2", "frame or node id is not a whole number"),
        ("3,0.3,2.5", "frame or node id is not a whole number"),
        ("3,0.3,1e19", "frame or node id is not a whole number"),
        ("3,0.3", "expected 3 fields, got 2"),
        ("3,0.3,n1", "malformed frame index row"),
        ("3,nan,2", "non-finite value in frame index row"),
        ("3,0.2,2", "frame index timestamp 0.2 does not follow the previous row's 0.2"),
    ],
)
def test_frame_index_rows(tmp_path, row, message):
    # whole-number ids may be written as floats; the line of a bad row is named
    path = tmp_path / "index.csv"
    path.write_text("frame,timestamp,node_id\n0,0.0,0\n1,0.1,1\n2,0.2,1\n" + row + "\n")
    if message is None:
        frames, node_ids = read_frame_index(path)
        assert frames[-1].timestamp == 0.3 and node_ids == [0, 1, 1, 2]
    else:
        with pytest.raises(InputError) as exc:
            read_frame_index(path)
        assert str(exc.value) == f"{path}:5: {message}"


def test_first_bad_line_is_named_before_a_later_malformed_one(tmp_path):
    # a non-finite row before a row that does not parse: the earlier line is named
    path = tmp_path / "speed.csv"
    path.write_text("timestamp,vx\n0.0,1.0\n0.1,nan\n0.2,x\n")
    with pytest.raises(InputError, match=re.escape(f"{path}:3: non-finite value in speed row")):
        read_speed_csv(path)


HEADER = "u_cur,v_cur,u_node,v_node\n"


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("1,2,3,4\n1,2,3\n", 3, "expected 4 fields, got 3"),
        ("1,2,3,4\n1,2,3,4,5\n", 3, "expected 4 fields, got 5"),
        ("1,2,3,4\n1,2,nan,4\n", 3, "non-finite value in correspondence row"),
        ("1,2,3,4\n1,inf,3,4\n", 3, "non-finite value in correspondence row"),
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
    assert str(exc.value) == f"{path}:4: {what} timestamp 0.1 does not follow the previous row's 0.2"


@pytest.mark.parametrize(
    "text, expected",
    [
        (HEADER, np.zeros((0, 4))),
        ("", np.zeros((0, 4))),
        (HEADER + "\n1,2,3,4\n\n  \n5,6,7,8\n\n", [[1, 2, 3, 4], [5, 6, 7, 8]]),
        ("\n1,2,3,4\n5,6,7,8", [[1, 2, 3, 4], [5, 6, 7, 8]]),
        (HEADER + " 1 ,\t2, 3 ,4\t\n5 , 6,7 , 8 \n", [[1, 2, 3, 4], [5, 6, 7, 8]]),
        ("1.5,2,3,4\n5,6,7,8\n", [[1.5, 2, 3, 4], [5, 6, 7, 8]]),
        pytest.param(HEADER + "1,2,3,4\n1,2,3,4 # comment\n", [[1, 2, 3, 4], [1, 2, 3, 4]], id="trailing comment"),
        (HEADER + "# by hand\n1,2,3,4\n  # indented\n5,6,7,8#\n", [[1, 2, 3, 4], [5, 6, 7, 8]]),
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
    assert rows.tobytes() == _read_table_lines(path, 4, "correspondence").tobytes()


# Text readers on any bytes: arbitrary bytes, the bytes of text files made of
# tokens the formats use (and a few that are not UTF-8), and valid files with
# a few bytes overwritten.
TEXT_TOKENS = [b"0", b"1.5", b"-2e3", b"nan", b"inf", b" ", b"\t", b",", b"\n", b"\r\n", b"\r", b"#", b"x",
               b"\x0c", b"\xc2\x85", b"\xc2\xa0", b"\xff", b"\xe9", b"\xc3\xa9", b"\x00"]
VALID_TEXT = st.sampled_from([
    b"0.1 1 2 3 0 0 0 1\n0.2 1 2 3 0 0 0.6 0.8\n",
    b"t x y z qx qy qz qw\n0.1\t1 2 3 0 0 0 1 # a\n# b\n0.2 1 2 3 0 0 0.6 0.8\n",
    b"timestamp,vx\n0.0,1.5\n0.1,1.25\n",
    b"u_cur,v_cur,u_node,v_node\n1,2,3,4\n5,6,7,8\n",
    b"0.0,1,2,3,4,5,6\n0.01,1,2,3,4,5,6\n",
    b"frame,timestamp,node_id\n0,0.0,0\n1,0.1,0\n2,0.2,1\n",
    b"0,0.0,0\n1,0.1,2.0 # late\n",
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
@example(b"0 0 0 0 0.000000000001 0 0 0\n0.1 0 0 0 7e-13 7e-13 0 0\n")
def test_tum_reader_takes_any_bytes(raw):
    result = read_any(read_tum, raw)
    if result is not None:
        ts, poses = result
        assert len(ts) == len(poses) and np.all(np.isfinite(ts)) and np.all(np.diff(ts) > 0)


@settings(max_examples=300, deadline=None)
@given(ANY_TEXT)
@example(b"0,0.0,0\n1,0.1,1e300\n")
def test_frame_index_reader_takes_any_bytes(raw):
    result = read_any(read_frame_index, raw)
    if result is not None:
        frames, node_ids = result
        ts = [f.timestamp for f in frames]
        assert len(ts) == len(node_ids) and np.all(np.isfinite(ts)) and np.all(np.diff(ts) > 0)
        assert all(type(n) is int for n in node_ids)


@settings(max_examples=600, deadline=None)
@given(ANY_TEXT, st.sampled_from(sorted(TABLES)))
@example(b"a,b\n1,2\n\xff\n", "speed")
def test_table_reader_takes_any_bytes(raw, table):
    # the one-pass parse returns what the line reader does, or both refuse
    n_fields, _, _, time_column, _ = TABLES[table]
    rows = read_any(lambda path: _read_table(path, *TABLES[table]), raw)
    by_line = read_any(lambda path: _read_table_lines(path, *TABLES[table]), raw)
    assert (rows is None) == (by_line is None)
    if rows is not None:
        assert rows.tobytes() == by_line.tobytes() and rows.shape == by_line.shape
        assert rows.ndim == 2 and rows.shape[1] == n_fields and np.isfinite(rows).all()
        if time_column is not None:
            assert np.all(np.diff(rows[:, time_column]) > 0)


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
    # header, n + 1 row offsets, zero bytes up to a multiple of 8, every frame's
    # cur pixels, every frame's node pixels
    frames = [
        (np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0, 6.0], [7.0, 8.0]])),
        (np.zeros((0, 2)), np.zeros((0, 2))),
        (np.array([[9.0, 10.0]]), np.array([[11.0, 12.0]])),
        (np.array([[13.0, 14.0]]), np.array([[15.0, 16.0]])),
        (np.array([[17.0, 18.0]]), np.array([[19.0, 20.0]])),
    ]
    path = tmp_path / "m.bin"
    write_correspondences(path, frames)
    raw = path.read_bytes()
    assert raw[:4] == b"TCOR"
    np.testing.assert_array_equal(np.frombuffer(raw[4:12], "<u4"), [2, 5])
    np.testing.assert_array_equal(np.frombuffer(raw[12:36], "<u4"), [0, 2, 2, 3, 4, 5])
    assert raw[36:40] == bytes(4)
    np.testing.assert_array_equal(
        np.frombuffer(raw[40:], "<f8"),
        [1, 2, 3, 4, 9, 10, 13, 14, 17, 18, 5, 6, 7, 8, 11, 12, 15, 16, 19, 20],
    )
    back, _ = read_correspondences(path, 5)
    assert [(c.tolist(), n.tolist()) for c, n in back] == [(c.tolist(), n.tolist()) for c, n in frames]
    # every frame's pixels are aligned, contiguous views of one array
    base = back[0][0].base
    assert all(a.base is base and a.flags.c_contiguous and a.flags.aligned for pair in back for a in pair)


def test_correspondence_file_pad_must_be_zero(tmp_path):
    # an odd frame count leaves 4 pad bytes after the offsets
    path = tmp_path / "m.bin"
    write_correspondences(path, [(np.ones((1, 2)), np.ones((1, 2)))])
    raw = path.read_bytes()
    assert raw[20:24] == bytes(4)
    path.write_bytes(raw[:20] + b"\0\0\1\0" + raw[24:])
    with pytest.raises(ChecksumMismatch, match=re.escape(f"{path}: the pad after the offsets is not zero")):
        read_correspondences(path, 1)


def test_older_correspondence_file_version_rejected(tmp_path):
    path = tmp_path / "m.bin"
    write_correspondences(path, [(np.ones((1, 2)), np.ones((1, 2)))] * 2)
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + b"\1\0\0\0" + raw[8:])
    with pytest.raises(FormatVersionMismatch, match=re.escape(f"{path}: not a version 2 b'TCOR' file")):
        read_correspondences(path, 2)


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
        back, _ = read_correspondences(path, len(frames))
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
    back = read_any(lambda path: read_correspondences(path, count)[0], raw)
    if back is not None:
        assert correspondence_file(back) == raw and len(back) == count
        assert all(np.isfinite(a).all() for pair in back for a in pair)


# Replaying a recorded run: the file is mapped, and the pages behind the frame
# handed out are dropped from the process.

def recorded_run(root: Path, n_frames: int, n_pairs: int):
    """A frame index and a correspondence file of ``n_frames`` frames of
    ``n_pairs`` pairs under ``root``; returns the written pixels."""
    rng = np.random.default_rng(n_frames)
    pixels = [(rng.uniform(0, 640, (n_pairs, 2)), rng.uniform(0, 640, (n_pairs, 2))) for _ in range(n_frames)]
    (root / "frames").mkdir()
    (root / "correspondences").mkdir()
    write_correspondences(root / "correspondences" / CORRESPONDENCE_FILE, pixels)
    rows = [f"{k},{0.1 * k:.9f},{k // 7}\n" for k in range(n_frames)]
    (root / "frames" / "index.csv").write_text("frame,timestamp,node_id\n" + "".join(rows))
    return pixels


def test_replay_after_release_returns_the_written_bytes(tmp_path, monkeypatch):
    # a dropped page faults back in from the file: frames behind the window,
    # and a frame read again, still hold what was written
    pixels = recorded_run(tmp_path, 600, 80)
    released = []

    def spy(buf, start, stop):
        released.append((start, stop))
        release_pages(buf, start, stop)

    monkeypatch.setattr(topoloc.io, "release_pages", spy)
    matcher, frames = load_recorded_matcher(tmp_path / "correspondences", tmp_path / "frames" / "index.csv")
    n_checked = len(released)  # the finiteness check's chunks
    for k, frame in enumerate(frames):
        matcher.match(frame, SimpleNamespace(node_id=k // 7))
    # 1.5 MB in all: a drop in both columns after each 256 KiB read
    assert len(released) - n_checked == 2 * (600 * 80 * 32 // RESIDENT_BYTES)
    for k in (500, 3, 500):
        matches = matcher.match(frames[k], SimpleNamespace(node_id=k // 7))
        assert matches.cur.tobytes() == pixels[k][0].tobytes()
        assert matches.node.tobytes() == pixels[k][1].tobytes()


def test_rewriting_a_mapped_correspondence_file_keeps_its_bytes(tmp_path):
    # the writer renames a new file over the old one; a replay keeps the old file
    path = tmp_path / "m.bin"
    old = [(np.full((3, 2), 1.5), np.full((3, 2), 2.5))] * 3
    write_correspondences(path, old)
    pairs, _ = read_correspondences(path, 3)
    write_correspondences(path, [(np.full((1, 2), 7.0), np.full((1, 2), 8.0))])
    assert [(c.tobytes(), n.tobytes()) for c, n in pairs] == [(c.tobytes(), n.tobytes()) for c, n in old]
    (cur, node), = read_correspondences(path, 1)[0]
    assert cur.tolist() == [[7.0, 7.0]] and node.tolist() == [[8.0, 8.0]]
    assert [p.name for p in tmp_path.iterdir()] == ["m.bin"]  # no temporary file left


REPLAY_RSS = """
import resource, sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from topoloc.io import CORRESPONDENCE_FILE, write_correspondences
from topoloc.scenario import load_recorded_matcher

FRAMES, PAIRS = 600, 1100  # 32 bytes a pair: 21.1 MB


class Frames:
    # each frame's pixels are made when read, so writing holds one frame at a time
    def __len__(self):
        return FRAMES

    def __getitem__(self, k):
        if k >= FRAMES:
            raise IndexError(k)
        cur = np.arange(2.0 * PAIRS).reshape(PAIRS, 2) + k
        return cur, -cur


root = Path(sys.argv[1])
after_import = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
path = root / "correspondences" / CORRESPONDENCE_FILE
write_correspondences(path, Frames())
rows = [f"{k},{0.1 * k:.9f},0\\n" for k in range(FRAMES)]
(root / "frames" / "index.csv").write_text("frame,timestamp,node_id\\n" + "".join(rows))
matcher, frames = load_recorded_matcher(root / "correspondences", root / "frames" / "index.csv")
total = 0.0
for frame in frames:
    matches = matcher.match(frame, SimpleNamespace(node_id=0))
    total += matches.cur.sum() - matches.node.sum()
pair_sum = 2 * PAIRS * (2 * PAIRS - 1) / 2 * FRAMES + 2 * PAIRS * FRAMES * (FRAMES - 1) / 2
assert total == 2 * pair_sum, (total, pair_sum)
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - after_import
print(path.stat().st_size, grown * 1024)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_replay_keeps_little_of_the_file_resident(tmp_path):
    # a 21 MB file replayed frame by frame grows the peak RSS by less than a
    # quarter of its size: no whole-file read, and the pages behind are dropped
    (tmp_path / "frames").mkdir()
    (tmp_path / "correspondences").mkdir()
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", REPLAY_RSS, str(tmp_path)], env=env, capture_output=True, text=True, check=True
    ).stdout
    size, grown = map(int, out.split())
    assert size >= 20_000_000
    assert grown < size / 4, f"peak RSS grew by {grown / 1e6:.1f} MB replaying a {size / 1e6:.1f} MB file"
