"""Topological-map structure, nearest-node retrieval, and the bundle format."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from topoloc.errors import (
    ChecksumMismatch,
    DimensionMismatch,
    EmptyMap,
    FormatVersionMismatch,
    NoDepth,
    OutOfBounds,
)
from topoloc.geometry import Pose, Rotation, project
from topoloc.topomap import (
    DepthImage,
    IntensityImage,
    TopoNode,
    TopologicalMap,
    depth_to_point,
    lift_pixels,
    load_map,
    map_point_global,
    read_pgm,
    read_tdm,
    save_map,
    write_pgm,
    write_tdm,
)

from conftest import random_pose


def make_node(intr, pose=None, depth_value=10.0, timestamp=0.0, node_id=0, rng=None):
    depth = np.zeros((intr.height, intr.width), dtype=np.float32)
    depth[:] = depth_value
    image = np.zeros((intr.height, intr.width), dtype=np.uint8)
    if rng is not None:
        image[:] = rng.integers(0, 256, size=image.shape)
        depth[:] = rng.uniform(1.0, 100.0, size=depth.shape).astype(np.float32)
    return TopoNode(
        node_id=node_id,
        depth=DepthImage(depth),
        image=IntensityImage(image),
        pose=pose or Pose.identity(),
        timestamp=timestamp,
        intrinsics=intr,
    )


class TestInsert:
    def test_first_insert_gets_id_zero(self, intr):
        m = TopologicalMap(intr)
        assert m.insert_node(make_node(intr)) == 0

    def test_ids_dense_and_ordered(self, intr):
        m = TopologicalMap(intr)
        ids = [m.insert_node(make_node(intr, timestamp=float(i))) for i in range(100)]
        assert ids == list(range(100))

    def test_empty_depth_rejected(self, intr):
        with pytest.raises(DimensionMismatch):
            TopoNode(
                node_id=0,
                depth=DepthImage(np.zeros((0, 0), dtype=np.float32)),
                image=IntensityImage(np.zeros((0, 0), dtype=np.uint8)),
                pose=Pose.identity(),
                timestamp=0.0,
                intrinsics=intr,
            )

    def test_mismatched_shapes_rejected(self, intr):
        with pytest.raises(DimensionMismatch):
            TopoNode(
                node_id=0,
                depth=DepthImage(np.zeros((10, 10), dtype=np.float32)),
                image=IntensityImage(np.zeros((5, 10), dtype=np.uint8)),
                pose=Pose.identity(),
                timestamp=0.0,
                intrinsics=intr,
            )

    def test_duplicate_timestamp_warns_but_inserts(self, intr, caplog):
        import logging

        m = TopologicalMap(intr)
        m.insert_node(make_node(intr, timestamp=1.5))
        with caplog.at_level(logging.WARNING, logger="topoloc.topomap"):
            assert m.insert_node(make_node(intr, timestamp=1.5)) == 1
        assert any("duplicate" in r.message for r in caplog.records)


class TestNearestNode:
    def test_singleton(self, intr):
        m = TopologicalMap(intr)
        m.insert_node(make_node(intr, pose=Pose(Rotation.identity(), [1, 2, 3])))
        assert m.nearest_node(np.array([50.0, 0.0, 0.0])).node_id == 0

    def test_empty_raises(self, intr):
        with pytest.raises(EmptyMap):
            TopologicalMap(intr).nearest_node(np.zeros(3))

    def test_matches_brute_force(self, intr):
        rng = np.random.default_rng(20)
        m = TopologicalMap(intr)
        positions = rng.uniform(-100, 100, (300, 3))
        for i, p in enumerate(positions):
            m.insert_node(make_node(intr, pose=Pose(Rotation.identity(), p), timestamp=float(i)))
        for _ in range(50):
            q = rng.uniform(-120, 120, 3)
            got = m.nearest_node(q).node_id
            want = int(np.argmin(np.linalg.norm(positions - q, axis=1)))
            assert got == want

    def test_tie_breaks_to_lower_id(self, intr):
        m = TopologicalMap(intr)
        for i, x in enumerate([0.0, 0.0, -1.0, 1.0, 1.0]):
            m.insert_node(
                make_node(intr, pose=Pose(Rotation.identity(), [x, 0, 0]), timestamp=float(i))
            )
        # nodes 3 and 4 are both at x=1; query at x=1 must return id 3,
        # and the query equidistant to x=0 (ids 0, 1) must return id 0
        assert m.nearest_node(np.array([1.0, 0.0, 0.0])).node_id == 3
        assert m.nearest_node(np.array([0.0, 0.0, 0.0])).node_id == 0


class TestDepthLookup:
    def test_principal_point(self, intr):
        node = make_node(intr, depth_value=10.0)
        np.testing.assert_allclose(
            depth_to_point(node, np.array([320.0, 240.0])), [0.0, 0.0, 10.0]
        )

    def test_sentinel_raises(self, intr):
        node = make_node(intr, depth_value=10.0)
        node.depth.data[240, 320] = 0.0
        with pytest.raises(NoDepth):
            depth_to_point(node, np.array([320.0, 240.0]))
        node.depth.data[240, 320] = -3.0
        with pytest.raises(NoDepth):
            depth_to_point(node, np.array([320.0, 240.0]))

    def test_out_of_bounds(self, intr):
        node = make_node(intr)
        with pytest.raises(OutOfBounds):
            depth_to_point(node, np.array([640.0, 240.0]))

    def test_lift_pixels_matches_depth_to_point(self, intr):
        rng = np.random.default_rng(23)
        node = make_node(intr, pose=random_pose(rng), rng=rng)
        node.depth.data[::7, ::5] = 0.0
        node.depth.data[3::11, ::3] = np.nan
        edges = [[-0.6, 10.0], [639.6, 10.0], [10.0, 479.5], [639.4, 479.4], [-0.4, 1.4]]
        px = np.vstack([rng.uniform([-3, -3], [intr.width + 2, intr.height + 2], (400, 2)), edges])
        pts, valid = lift_pixels(node, px)
        seen = set()
        for f, p, ok in zip(px, pts, valid):
            col, row = np.rint(f).astype(int)
            if ok:
                np.testing.assert_array_equal(depth_to_point(node, f), p)
                seen.add("lifted")
                continue
            inside = 0 <= col < intr.width and 0 <= row < intr.height
            with pytest.raises(NoDepth if inside else OutOfBounds):
                depth_to_point(node, f)
            seen.add("no depth" if inside else "out of bounds")
        assert seen == {"lifted", "no depth", "out of bounds"}
        assert list(valid[-5:]) == [False, False, False, True, True]

    def test_global_point_identity_pose(self, intr):
        node = make_node(intr, depth_value=10.0)
        np.testing.assert_allclose(
            map_point_global(node, np.array([320.0, 240.0])), [0.0, 0.0, 10.0]
        )

    def test_global_point_translation(self, intr):
        node = make_node(intr, pose=Pose(Rotation.identity(), [10.0, 0.0, 0.0]), depth_value=7.0)
        local = depth_to_point(node, np.array([100.0, 50.0]))
        np.testing.assert_allclose(
            map_point_global(node, np.array([100.0, 50.0])), local + [10.0, 0.0, 0.0]
        )

    def test_global_point_random_pose_matrix_oracle(self, intr):
        rng = np.random.default_rng(21)
        pose = random_pose(rng)
        node = make_node(intr, pose=pose, depth_value=12.5)
        f = np.array([411.3, 97.8])
        local = depth_to_point(node, f)
        oracle = (pose.as_matrix() @ np.append(local, 1.0))[:3]
        np.testing.assert_allclose(map_point_global(node, f), oracle, atol=1e-9)

    def test_reproject_round_trip(self, intr):
        # project(map_point_global) at the node pose returns the queried pixel
        rng = np.random.default_rng(22)
        node = make_node(intr, pose=random_pose(rng), rng=rng)
        for _ in range(100):
            f = rng.uniform([0, 0], [intr.width - 1, intr.height - 1])
            g = map_point_global(node, f)
            back = project(intr, node.pose.inverse().apply(g))
            np.testing.assert_allclose(back, f, atol=1e-6)


class TestBundleRoundTrip:
    def build_map(self, intr, n, seed=0):
        rng = np.random.default_rng(seed)
        m = TopologicalMap(intr)
        for i in range(n):
            m.insert_node(
                make_node(intr, pose=random_pose(rng), timestamp=0.1 * i, rng=rng)
            )
        return m

    def test_round_trip_equality(self, intr, tmp_path):
        m = self.build_map(intr, 10)
        save_map(m, tmp_path / "bundle")
        m2 = load_map(tmp_path / "bundle")
        assert len(m2) == len(m)
        for a, b in zip(m.nodes, m2.nodes):
            assert a.node_id == b.node_id
            assert a.timestamp == b.timestamp
            # bit-identical poses and buffers
            np.testing.assert_array_equal(a.pose.translation, b.pose.translation)
            np.testing.assert_array_equal(
                a.pose.rotation.as_quat_xyzw(), b.pose.rotation.as_quat_xyzw()
            )
            np.testing.assert_array_equal(a.depth.data, b.depth.data)
            np.testing.assert_array_equal(a.image.data, b.image.data)

    def test_empty_map_round_trips(self, intr, tmp_path):
        save_map(TopologicalMap(intr), tmp_path / "empty")
        assert len(load_map(tmp_path / "empty")) == 0

    def test_truncated_depth_rejected(self, intr, tmp_path):
        m = self.build_map(intr, 2)
        save_map(m, tmp_path / "bundle")
        p = tmp_path / "bundle" / "depth_0.tdm"
        p.write_bytes(p.read_bytes()[:-17])
        with pytest.raises(ChecksumMismatch):
            load_map(tmp_path / "bundle")

    def test_bad_magic_rejected(self, intr, tmp_path):
        m = self.build_map(intr, 1)
        save_map(m, tmp_path / "bundle")
        p = tmp_path / "bundle" / "depth_0.tdm"
        p.write_bytes(b"XXXX" + p.read_bytes()[4:])
        with pytest.raises(FormatVersionMismatch):
            load_map(tmp_path / "bundle")

    def test_wrong_manifest_version_rejected(self, intr, tmp_path):
        m = self.build_map(intr, 1)
        save_map(m, tmp_path / "bundle")
        p = tmp_path / "bundle" / "manifest.json"
        p.write_text(p.read_text().replace('"version": 1', '"version": 99'))
        with pytest.raises(FormatVersionMismatch):
            load_map(tmp_path / "bundle")

    def test_tdm_layout(self, tmp_path):
        # magic, LE dims, row-major float32 with row 0 on top
        depth = DepthImage(np.array([[1.5, 2.5], [3.5, 4.5]], dtype=np.float32))
        write_tdm(tmp_path / "d.tdm", depth)
        raw = (tmp_path / "d.tdm").read_bytes()
        assert raw[:4] == b"TDM1"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:12], "little") == 2
        np.testing.assert_array_equal(
            np.frombuffer(raw[12:], dtype="<f4"), [1.5, 2.5, 3.5, 4.5]
        )
        np.testing.assert_array_equal(read_tdm(tmp_path / "d.tdm").data, depth.data)

    def test_loaded_buffers_are_writable_and_own_their_data(self, intr, tmp_path):
        m = self.build_map(intr, 2, seed=3)
        save_map(m, tmp_path / "bundle")
        for node in load_map(tmp_path / "bundle").nodes:
            for data in (node.depth.data, node.image.data):
                assert data.flags.writeable and data.flags.owndata
        for data in (
            read_tdm(tmp_path / "bundle" / "depth_1.tdm").data,
            read_pgm(tmp_path / "bundle" / "image_1.pgm").data,
        ):
            assert data.flags.writeable and data.flags.owndata
            data[0, 0] = 7  # a private copy, not the file's bytes

    def test_strided_buffers_written_in_row_order(self, tmp_path):
        rng = np.random.default_rng(4)
        depth = DepthImage(rng.uniform(1, 50, (6, 10)).astype(np.float32)[:, ::2])
        image = IntensityImage(rng.integers(0, 256, (10, 5), dtype=np.uint8).T)
        assert not depth.data.flags.c_contiguous and not image.data.flags.c_contiguous
        write_tdm(tmp_path / "d.tdm", depth)
        write_pgm(tmp_path / "i.pgm", image)
        assert (tmp_path / "d.tdm").read_bytes()[12:] == depth.data.tobytes()
        assert (tmp_path / "i.pgm").read_bytes() == b"P5\n10 5\n255\n" + image.data.tobytes()
        np.testing.assert_array_equal(read_tdm(tmp_path / "d.tdm").data, depth.data)
        np.testing.assert_array_equal(read_pgm(tmp_path / "i.pgm").data, image.data)


IMAGE_SHAPES = st.tuples(st.integers(0, 12), st.integers(0, 12))


@settings(max_examples=60, deadline=None)
@given(arrays(np.float32, IMAGE_SHAPES))
def test_tdm_round_trip_keeps_every_byte(data):
    # any float32 payload, NaN and infinities included, comes back bit for bit
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.tdm"
        write_tdm(path, DepthImage(data))
        back = read_tdm(path).data
    assert back.dtype == np.float32 and back.shape == data.shape
    assert back.tobytes() == data.tobytes()


@settings(max_examples=60, deadline=None)
@given(arrays(np.uint8, IMAGE_SHAPES))
def test_pgm_round_trip_keeps_every_byte(data):
    # pixels that look like header whitespace or '#' follow the header unchanged
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "i.pgm"
        write_pgm(path, IntensityImage(data))
        back = read_pgm(path).data
    assert back.dtype == np.uint8 and back.shape == data.shape
    assert back.tobytes() == data.tobytes()
