"""Topological-map structure, nearest-node retrieval, and the bundle format."""

import dataclasses
import json
import os
import re
import subprocess
import sys
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
)
from topoloc.geometry import CameraIntrinsics, Pose, Rotation, project
from topoloc.topomap import (
    DEPTH_FILE,
    DepthImage,
    IntensityImage,
    TopoNode,
    TopologicalMap,
    lift_pixels,
    load_map,
    read_node_pixels,
    read_pgm,
    save_map,
    write_node_pixels,
    write_pgm,
)

from conftest import random_pose

SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def vm_rss_bytes() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) * 1024
    raise AssertionError("no VmRSS line in /proc/self/status")


def make_node(intr, pose=None, depth_value=10.0, timestamp=0.0, node_id=0, rng=None, fill=1.0):
    """A node whose depth is ``depth_value`` and intensity 0 at every pixel;
    with ``rng``, random intensities and depths, stored at a ``fill`` share of
    the pixels."""
    depth = np.zeros((intr.height, intr.width), dtype=np.float32)
    depth[:] = depth_value
    image = np.zeros((intr.height, intr.width), dtype=np.uint8)
    if rng is not None:
        image[:] = rng.integers(0, 256, size=image.shape)
        depth[:] = rng.uniform(1.0, 100.0, size=depth.shape).astype(np.float32)
        if fill < 1.0:
            depth[rng.uniform(size=depth.shape) >= fill] = 0.0
    depth = DepthImage.from_dense(depth)
    return TopoNode(
        node_id=node_id,
        depth=depth,
        intensity=image.reshape(-1)[depth.index],
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
                depth=DepthImage.from_dense(np.zeros((0, 0), dtype=np.float32)),
                intensity=np.zeros(0, dtype=np.uint8),
                pose=Pose.identity(),
                timestamp=0.0,
                intrinsics=intr,
            )

    def test_mismatched_shapes_rejected(self, intr):
        # one intensity per stored pixel, and depth the size of the intrinsics
        stored = DepthImage(intr.width, intr.height, [3, 70, 900], [1.0, 2.0, 3.0])
        other_size = DepthImage(10, 10, [3, 70, 90], [1.0, 2.0, 3.0])
        for depth, intensity in [
            (stored, np.zeros(2, np.uint8)),
            (stored, np.zeros(4, np.uint8)),
            (stored, np.zeros((3, 1), np.uint8)),
            (stored, np.zeros((intr.height, intr.width), np.uint8)),
            (other_size, np.zeros(3, np.uint8)),
        ]:
            with pytest.raises(DimensionMismatch):
                TopoNode(0, depth, intensity, Pose.identity(), 0.0, intr)
        assert TopoNode(0, stored, np.zeros(3, np.uint8), Pose.identity(), 0.0, intr).intensity.shape == (3,)

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

    def test_strictly_nearer_node_wins_by_one_ulp(self, intr):
        # only an exact tie goes to the lower id: id 1 is 2**-40 m nearer
        m = TopologicalMap(intr)
        for i, x in enumerate([1.0, 1.0 - 2.0**-40]):
            m.insert_node(
                make_node(intr, pose=Pose(Rotation.identity(), [x, 0, 0]), timestamp=float(i))
            )
        assert m.nearest_node(np.zeros(3)).node_id == 1

    def test_insert_after_query_is_seen(self, intr):
        m = TopologicalMap(intr)
        m.insert_node(make_node(intr, pose=Pose(Rotation.identity(), [5, 0, 0])))
        assert m.nearest_node(np.zeros(3)).node_id == 0
        m.insert_node(
            make_node(intr, pose=Pose(Rotation.identity(), [1, 0, 0]), timestamp=1.0)
        )
        assert m.nearest_node(np.zeros(3)).node_id == 1


def with_depth(node, dense):
    """``node`` with its depth replaced by the pixels of ``dense`` that have
    one, at intensity 0."""
    depth = DepthImage.from_dense(dense)
    return dataclasses.replace(node, depth=depth, intensity=np.zeros(len(depth.index), np.uint8))


class TestDepthImage:
    def test_from_dense_keeps_finite_positive_pixels_in_flat_order(self):
        dense = np.array([[0.0, 2.5, -1.0], [np.nan, 4.0, np.inf]], dtype=np.float32)
        depth = DepthImage.from_dense(dense)
        assert (depth.width, depth.height) == (3, 2)
        assert depth.index.tolist() == [1, 4] and depth.depth.tolist() == [2.5, 4.0]
        assert depth.depth.dtype == np.float32
        np.testing.assert_array_equal(depth.dense(), [[0.0, 2.5, 0.0], [0.0, 4.0, 0.0]])

    def test_dense_round_trip(self):
        rng = np.random.default_rng(30)
        dense = rng.uniform(1, 50, (7, 9)).astype(np.float32)
        dense[rng.uniform(size=dense.shape) < 0.7] = 0.0
        depth = DepthImage.from_dense(dense)
        assert np.all(np.diff(depth.index) > 0)
        assert depth.dense().tobytes() == dense.tobytes()

    def test_index_and_depth_lengths_must_agree(self):
        with pytest.raises(DimensionMismatch):
            DepthImage(4, 4, [1, 2], [1.0])


class TestDepthLookup:
    def test_principal_point(self, intr):
        node = make_node(intr, depth_value=10.0)
        pts, valid = lift_pixels(node, [[320.0, 240.0]])
        assert valid.tolist() == [True]
        np.testing.assert_allclose(pts[0], [0.0, 0.0, 10.0])

    def test_sentinel_is_not_lifted(self, intr):
        for value in (0.0, -3.0, np.nan):
            dense = np.full((intr.height, intr.width), 10.0, dtype=np.float32)
            dense[240, 320] = value
            node = with_depth(make_node(intr), dense)
            pts, valid = lift_pixels(node, [[320.0, 240.0], [321.0, 240.0]])
            assert valid.tolist() == [False, True]
            assert pts[0].tolist() == [0.0, 0.0, 0.0]

    def test_out_of_bounds(self, intr):
        node = make_node(intr)
        pts, valid = lift_pixels(node, [[640.0, 240.0], [-0.6, 10.0], [10.0, 479.5]])
        assert not valid.any() and not pts.any()

    def test_each_row_lifts_as_in_the_batch(self, intr):
        rng = np.random.default_rng(23)
        node = make_node(intr, pose=random_pose(rng), rng=rng)
        dense = node.depth.dense()
        dense[::7, ::5] = 0.0
        dense[3::11, ::3] = np.nan
        node = with_depth(node, dense)
        edges = [[-0.6, 10.0], [639.6, 10.0], [10.0, 479.5], [639.4, 479.4], [-0.4, 1.4]]
        px = np.vstack([rng.uniform([-3, -3], [intr.width + 2, intr.height + 2], (400, 2)), edges])
        pts, valid = lift_pixels(node, px)
        seen = set()
        for f, p, ok in zip(px, pts, valid):
            alone, alone_valid = lift_pixels(node, f)
            assert alone[0].tobytes() == p.tobytes() and alone_valid.tolist() == [ok]
            col, row = np.rint(f).astype(int)
            inside = 0 <= col < intr.width and 0 <= row < intr.height
            seen.add("lifted" if ok else "no depth" if inside else "out of bounds")
        assert seen == {"lifted", "no depth", "out of bounds"}
        assert list(valid[-5:]) == [False, False, False, True, True]

    @pytest.mark.parametrize("fill", [0.0, 0.003, 0.5])
    def test_lookup_equals_a_dense_gather(self, intr, fill):
        # the sorted-index lookup returns, bit for bit, what the dense image holds
        rng = np.random.default_rng(24)
        node = make_node(intr, rng=rng, fill=fill)
        dense = node.depth.dense()
        stored = np.column_stack([node.depth.index % intr.width, node.depth.index // intr.width])
        px = np.vstack([rng.uniform([-3, -3], [intr.width + 2, intr.height + 2], (700, 2)), stored])
        pts, valid = lift_pixels(node, px)
        cols, rows = np.rint(px).astype(int).T
        inside = (cols >= 0) & (cols < intr.width) & (rows >= 0) & (rows < intr.height)
        want = np.where(inside, dense[rows.clip(0, intr.height - 1), cols.clip(0, intr.width - 1)], 0)
        np.testing.assert_array_equal(valid, want > 0)
        assert pts[:, 2].tobytes() == want.astype(float).tobytes()
        assert valid[700:].all() and valid.sum() >= len(stored)

    @staticmethod
    def global_point(node, f):
        """Pixel ``f`` lifted to a global map point, which must exist."""
        pts, valid = lift_pixels(node, f)
        assert valid.tolist() == [True]
        return node.pose.apply(pts[0])

    def test_global_point_identity_pose(self, intr):
        node = make_node(intr, depth_value=10.0)
        np.testing.assert_allclose(self.global_point(node, [320.0, 240.0]), [0.0, 0.0, 10.0])

    def test_global_point_translation(self, intr):
        node = make_node(intr, pose=Pose(Rotation.identity(), [10.0, 0.0, 0.0]), depth_value=7.0)
        local = lift_pixels(node, [100.0, 50.0])[0][0]
        np.testing.assert_allclose(self.global_point(node, [100.0, 50.0]), local + [10.0, 0.0, 0.0])

    def test_global_point_random_pose_matrix_oracle(self, intr):
        rng = np.random.default_rng(21)
        pose = random_pose(rng)
        node = make_node(intr, pose=pose, depth_value=12.5)
        f = np.array([411.3, 97.8])
        local = lift_pixels(node, f)[0][0]
        oracle = (pose.as_matrix() @ np.append(local, 1.0))[:3]
        np.testing.assert_allclose(self.global_point(node, f), oracle, atol=1e-9)

    def test_reproject_round_trip(self, intr):
        # project(global point) at the node pose returns the queried pixel
        rng = np.random.default_rng(22)
        node = make_node(intr, pose=random_pose(rng), rng=rng)
        for _ in range(100):
            f = rng.uniform([0, 0], [intr.width - 1, intr.height - 1])
            g = self.global_point(node, f)
            back = project(intr, node.pose.inverse().apply(g))
            np.testing.assert_allclose(back, f, atol=1e-6)


class TestBundleRoundTrip:
    def build_map(self, intr, n, seed=0):
        # depth at 0.3 % of the pixels, about what a render stores
        rng = np.random.default_rng(seed)
        m = TopologicalMap(intr)
        for i in range(n):
            m.insert_node(
                make_node(intr, pose=random_pose(rng), timestamp=0.1 * i, rng=rng, fill=0.003)
            )
        return m

    def test_round_trip_equality(self, intr, tmp_path):
        m = self.build_map(intr, 10)
        save_map(m, tmp_path / "bundle")
        self.assert_same_map(load_map(tmp_path / "bundle"), m)

    def test_manifest_nodes_in_any_order(self, intr, tmp_path):
        # the node file follows the manifest's order, not the ids
        m = self.build_map(intr, 5)
        bundle = tmp_path / "bundle"
        save_map(m, bundle)
        manifest = json.loads((bundle / "manifest.json").read_text())
        order = [3, 0, 4, 1, 2]
        manifest["nodes"] = [manifest["nodes"][i] for i in order]
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        pixels = [(m.nodes[i].depth, m.nodes[i].intensity) for i in order]
        write_node_pixels(bundle / DEPTH_FILE, pixels, intr.width, intr.height)
        self.assert_same_map(load_map(bundle), m)

    @staticmethod
    def assert_same_map(m2, m):
        assert len(m2) == len(m)
        for a, b in zip(m.nodes, m2.nodes):
            assert a.node_id == b.node_id
            assert a.timestamp == b.timestamp
            # bit-identical poses and buffers
            np.testing.assert_array_equal(a.pose.translation, b.pose.translation)
            np.testing.assert_array_equal(
                a.pose.rotation.as_quat_xyzw(), b.pose.rotation.as_quat_xyzw()
            )
            assert (a.depth.width, a.depth.height) == (b.depth.width, b.depth.height)
            np.testing.assert_array_equal(a.depth.index, b.depth.index)
            assert a.depth.depth.tobytes() == b.depth.depth.tobytes()
            assert b.intensity.dtype == np.uint8 and a.intensity.tobytes() == b.intensity.tobytes()

    def test_bundle_is_a_manifest_and_one_node_file(self, intr, tmp_path):
        # the node file takes 9 bytes per stored pixel plus its header and
        # offsets: storing the empty pixels again would fail here
        m = self.build_map(intr, 4, seed=1)
        save_map(m, tmp_path / "bundle")
        names = {f.name for f in (tmp_path / "bundle").iterdir()}
        assert names == {"manifest.json", DEPTH_FILE}
        stored = sum(len(n.depth.index) for n in m.nodes)
        assert 0 < stored < 0.01 * 4 * intr.width * intr.height
        assert (tmp_path / "bundle" / DEPTH_FILE).stat().st_size == 20 + 4 * (4 + 1) + 9 * stored

    def test_empty_map_round_trips(self, intr, tmp_path):
        save_map(TopologicalMap(intr), tmp_path / "empty")
        assert len(load_map(tmp_path / "empty")) == 0

    def test_truncated_depth_rejected(self, intr, tmp_path):
        m = self.build_map(intr, 2)
        save_map(m, tmp_path / "bundle")
        p = tmp_path / "bundle" / DEPTH_FILE
        p.write_bytes(p.read_bytes()[:-17])
        with pytest.raises(ChecksumMismatch):
            load_map(tmp_path / "bundle")

    def test_bad_magic_rejected(self, intr, tmp_path):
        m = self.build_map(intr, 1)
        save_map(m, tmp_path / "bundle")
        p = tmp_path / "bundle" / DEPTH_FILE
        p.write_bytes(b"XXXX" + p.read_bytes()[4:])
        with pytest.raises(FormatVersionMismatch):
            load_map(tmp_path / "bundle")

    def test_older_node_file_version_rejected(self, intr, tmp_path):
        # version 2 had no pad after the offsets
        save_map(self.build_map(intr, 1), tmp_path / "bundle")
        p = tmp_path / "bundle" / DEPTH_FILE
        p.write_bytes(p.read_bytes()[:4] + b"\2\0\0\0" + p.read_bytes()[8:])
        with pytest.raises(FormatVersionMismatch, match=re.escape(f"{p}: not a version 3 b'TDEP' file")):
            load_map(tmp_path / "bundle")

    def test_wrong_manifest_version_rejected(self, intr, tmp_path):
        m = self.build_map(intr, 1)
        save_map(m, tmp_path / "bundle")
        p = tmp_path / "bundle" / "manifest.json"
        p.write_text(p.read_text().replace('"version": 3', '"version": 99'))
        with pytest.raises(FormatVersionMismatch):
            load_map(tmp_path / "bundle")

    def test_non_utf8_manifest_rejected(self, intr, tmp_path):
        save_map(self.build_map(intr, 1), tmp_path / "bundle")
        p = tmp_path / "bundle" / "manifest.json"
        p.write_bytes(p.read_bytes() + b"\xff")
        with pytest.raises(ChecksumMismatch, match="invalid start byte"):
            load_map(tmp_path / "bundle")

    def test_version_1_bundle_rejected(self, intr, tmp_path):
        # version 1 stored dense per-node depth_<id>.tdm files; it has no reader
        bundle = tmp_path / "bundle"
        save_map(self.build_map(intr, 1), bundle)
        manifest = bundle / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"version": 3', '"version": 1'))
        (bundle / DEPTH_FILE).rename(bundle / "depth_0.tdm")
        with pytest.raises(FormatVersionMismatch, match="version 1, expected 3; rebuild the map"):
            load_map(bundle)

    def test_depth_file_layout(self, tmp_path):
        # header, n + 1 offsets, zero bytes up to a multiple of 8, all indices,
        # all depths, all intensities; little-endian
        pixels = [
            (DepthImage(2, 3, [0, 5], [1.5, 4.5]), [7, 0]),
            (DepthImage(2, 3, [], []), []),
            (DepthImage(2, 3, [3], [2.5]), [255]),
        ]
        write_node_pixels(tmp_path / "d.bin", pixels, 2, 3)
        raw = (tmp_path / "d.bin").read_bytes()
        assert raw[:4] == b"TDEP"
        np.testing.assert_array_equal(np.frombuffer(raw[4:20], "<u4"), [3, 2, 3, 3])
        np.testing.assert_array_equal(np.frombuffer(raw[20:36], "<u4"), [0, 2, 2, 3])
        assert raw[36:40] == bytes(4)
        np.testing.assert_array_equal(np.frombuffer(raw[40:52], "<i4"), [0, 5, 3])
        np.testing.assert_array_equal(np.frombuffer(raw[52:64], "<f4"), [1.5, 4.5, 2.5])
        assert raw[64:] == bytes([7, 0, 255])
        back = read_node_pixels(tmp_path / "d.bin", 2, 3, 3)
        assert [(d.index.tolist(), d.depth.tolist(), i.tolist()) for d, i in back] == [
            ([0, 5], [1.5, 4.5], [7, 0]), ([], [], []), ([3], [2.5], [255])
        ]

    @pytest.mark.parametrize(
        "index, depth, error",
        [
            ([4, 2], [1.0, 1.0], "do not rise strictly"),
            ([2, 2], [1.0, 1.0], "do not rise strictly"),
            ([6], [1.0], "do not rise strictly"),
            ([-1], [1.0], "do not rise strictly"),
            ([1], [0.0], "not finite and positive"),
            ([1], [-2.0], "not finite and positive"),
            ([1], [np.nan], "not finite and positive"),
            ([1], [np.inf], "not finite and positive"),
        ],
    )
    def test_malformed_depths_rejected(self, tmp_path, index, depth, error):
        # each node's indices must rise inside the image; another node starts over
        pixels = [(DepthImage(2, 3, [0, 5], [1.0, 1.0]), [1, 2]), (DepthImage(2, 3, index, depth), [3] * len(index))]
        write_node_pixels(tmp_path / "d.bin", pixels, 2, 3)
        with pytest.raises(ChecksumMismatch, match=error):
            read_node_pixels(tmp_path / "d.bin", 2, 3, 2)

    @pytest.mark.parametrize("offsets", [[1, 2, 3], [0, 3, 2], [0, 2, 4], [0, 0, 0]])
    def test_bad_offsets_rejected(self, tmp_path, offsets):
        # offsets start at 0, never fall, and end at the stored pixel count
        path = tmp_path / "d.bin"
        write_node_pixels(path, [(DepthImage(2, 3, [0, 5], [1.0, 2.0]), [4, 5]), (DepthImage(2, 3, [3], [3.0]), [6])], 2, 3)
        raw = path.read_bytes()
        path.write_bytes(raw[:20] + np.array(offsets, "<u4").tobytes() + raw[32:])
        with pytest.raises(ChecksumMismatch, match="offsets"):
            read_node_pixels(path, 2, 3, 2)

    @pytest.mark.parametrize("width, height, count", [(3, 2, 2), (2, 2, 2), (2, 3, 1), (2, 3, 3)])
    def test_depth_header_must_match_the_manifest(self, tmp_path, width, height, count):
        write_node_pixels(tmp_path / "d.bin", [(DepthImage(2, 3, [1], [1.0]), [9])] * 2, 2, 3)
        with pytest.raises(ChecksumMismatch, match="2x3|3x2|2x2"):
            read_node_pixels(tmp_path / "d.bin", width, height, count)

    def test_loaded_buffers_are_writable_and_own_their_data(self, intr, tmp_path):
        # a loaded buffer is a private copy: it takes writes, and the file keeps its bytes
        bundle = tmp_path / "bundle"
        save_map(self.build_map(intr, 2, seed=3), bundle)
        files = sorted(bundle.iterdir())
        before = {f: f.read_bytes() for f in files}
        nodes = load_map(bundle).nodes
        for data in [d for n in nodes for d in (n.depth.index, n.depth.depth, n.intensity)]:
            assert data.flags.writeable
            data[[0, -1]] = 7
            assert data[0] == data[-1] == 7
        assert {f: f.read_bytes() for f in files} == before

    def test_saving_over_a_loaded_bundle_keeps_its_buffers(self, intr, tmp_path):
        # the new files replace the old ones instead of overwriting what the map reads
        bundle = tmp_path / "bundle"
        old = self.build_map(intr, 3, seed=5)
        save_map(old, bundle)
        loaded = load_map(bundle)
        save_map(self.build_map(intr, 2, seed=6), bundle)
        for a, b in zip(old.nodes, loaded.nodes, strict=True):
            np.testing.assert_array_equal(a.depth.dense(), b.depth.dense())
            np.testing.assert_array_equal(a.intensity, b.intensity)

    def test_save_over_its_own_bundle_round_trips(self, intr, tmp_path):
        # in a child process, as a command would run it: load, then write the same bytes back
        bundle = tmp_path / "bundle"
        save_map(self.build_map(intr, 3, seed=7), bundle)
        before = {f.name: f.read_bytes() for f in bundle.iterdir()}
        code = (
            "import sys; from topoloc.topomap import load_map, save_map; "
            "save_map(load_map(sys.argv[1]), sys.argv[1])"
        )
        subprocess.run([sys.executable, "-c", code, str(bundle)], env=SRC_ENV, check=True)
        assert {f.name: f.read_bytes() for f in bundle.iterdir()} == before

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
    def test_loading_reads_no_pixels(self, intr, tmp_path):
        # no pixel that a node does not store: loading 30 nodes takes far less
        # memory than one dense intensity image per node would
        bundle = tmp_path / "bundle"
        save_map(self.build_map(intr, 30, seed=8), bundle)
        dense_bytes = 30 * intr.width * intr.height
        load_map(bundle)  # the first load pays one-time costs: lazy imports, allocator arenas
        before = vm_rss_bytes()
        topo_map = load_map(bundle)
        grown = vm_rss_bytes() - before
        assert len(topo_map) == 30
        assert grown < 0.25 * dense_bytes, f"VmRSS grew {grown} B, against {dense_bytes} B of dense images"

    def test_strided_buffers_written_in_row_order(self, tmp_path):
        rng = np.random.default_rng(4)
        depth = DepthImage(5, 6, np.arange(0, 30, 2)[::3], rng.uniform(1, 50, 15).astype(np.float32)[::3])
        image = IntensityImage(rng.integers(0, 256, (10, 5), dtype=np.uint8).T)
        assert not depth.index.flags.c_contiguous and not depth.depth.flags.c_contiguous
        assert not image.data.flags.c_contiguous
        intensity = image.data[0, ::2]
        assert not intensity.flags.c_contiguous
        write_node_pixels(tmp_path / "d.bin", [(depth, intensity)], 5, 6)
        write_pgm(tmp_path / "i.pgm", image)
        payload = depth.index.astype("<i4").tobytes() + depth.depth.tobytes() + intensity.tobytes()
        assert (tmp_path / "d.bin").read_bytes()[28:] == bytes(4) + payload  # pad to 8 bytes
        assert (tmp_path / "i.pgm").read_bytes() == b"P5\n10 5\n255\n" + image.data.tobytes()
        back, back_intensity = read_node_pixels(tmp_path / "d.bin", 5, 6, 1)[0]
        np.testing.assert_array_equal(back.index, depth.index)
        np.testing.assert_array_equal(back.depth, depth.depth)
        np.testing.assert_array_equal(back_intensity, intensity)
        np.testing.assert_array_equal(read_pgm(tmp_path / "i.pgm").data, image.data)


IMAGE_SHAPES = st.tuples(st.integers(0, 12), st.integers(0, 12))
POSITIVE_F32 = st.floats(0.0, exclude_min=True, allow_infinity=False, width=32)


@st.composite
def pixel_lists(draw, max_side=6, max_nodes=3, min_side=0):
    """(width, height, [(DepthImage, intensity)]): a few nodes of random
    sparse depth, each stored pixel with a uint8 intensity."""
    width, height = draw(st.integers(min_side, max_side)), draw(st.integers(min_side, max_side))
    pixels = []
    for _ in range(draw(st.integers(0, max_nodes))):
        index = sorted(draw(st.sets(st.integers(0, width * height - 1)))) if width * height else []
        values = draw(arrays(np.float32, len(index), elements=POSITIVE_F32))
        pixels.append((DepthImage(width, height, index, values), draw(arrays(np.uint8, len(index)))))
    return width, height, pixels


def pixel_file(width, height, pixels) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        write_node_pixels(Path(tmp) / "d.bin", pixels, width, height)
        return (Path(tmp) / "d.bin").read_bytes()


def assert_same_pixels(a, b, width, height):
    """``b``, a read-back ``(DepthImage, intensity)`` pair, holds ``a``'s bits."""
    assert (b[0].width, b[0].height) == (width, height)
    assert b[0].index.tolist() == a[0].index.tolist()
    assert b[0].depth.dtype == np.float32 and b[0].depth.tobytes() == a[0].depth.tobytes()
    assert b[1].dtype == np.uint8 and b[1].tobytes() == np.asarray(a[1], np.uint8).tobytes()


@settings(max_examples=60, deadline=None)
@given(pixel_lists())
def test_depth_round_trip_keeps_every_byte(case):
    # any stored pixels, finite positive float32 depths and intensities come back bit for bit
    width, height, pixels = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.bin"
        write_node_pixels(path, pixels, width, height)
        back = read_node_pixels(path, width, height, len(pixels))
    assert len(back) == len(pixels)
    for a, b in zip(pixels, back):
        assert_same_pixels(a, b, width, height)


@settings(max_examples=60, deadline=None)
@given(pixel_lists(min_side=1))
def test_bundle_round_trip_keeps_every_node_pixel(case):
    # save_map then load_map returns each node's index, depth and intensity
    # bit for bit, with a node that stores no pixel and a stored intensity 0 in every case
    width, height, pixels = case
    edges = [(DepthImage(width, height, [], []), []), (DepthImage(width, height, [0], [3.5]), [0])]
    pixels = [edges[0], *pixels, edges[1]]
    intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=width / 2, cy=height / 2, width=width, height=height)
    topo_map = TopologicalMap(intr)
    for k, (depth, intensity) in enumerate(pixels):
        topo_map.insert_node(TopoNode(k, depth, intensity, Pose.identity(), float(k), intr))
    with tempfile.TemporaryDirectory() as tmp:
        save_map(topo_map, Path(tmp) / "bundle")
        back = load_map(Path(tmp) / "bundle").nodes
    assert len(back) == len(pixels)
    for a, b in zip(pixels, back):
        assert_same_pixels(a, (b.depth, b.intensity), width, height)


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


def near_valid(valid):
    """Arbitrary bytes, and files derived from ``valid`` ones: cut anywhere,
    extended, or with a few bytes overwritten."""
    return st.one_of(
        st.binary(max_size=40),
        st.tuples(valid, st.integers(0, 60)).map(lambda v: v[0][: v[1]]),
        st.tuples(valid, st.binary(min_size=1, max_size=6)).map(lambda v: v[0] + v[1]),
        st.tuples(valid, st.integers(0, 40), st.binary(min_size=1, max_size=3)).map(
            lambda v: v[0][: v[1]] + v[2] + v[0][v[1] + len(v[2]) :]
        ),
    )


PGM_FILES = st.tuples(arrays(np.uint8, IMAGE_SHAPES), st.sampled_from([b"\n", b" ", b"\n# c\n"])).map(
    lambda v: b"P5%s%d %d\n255\n" % (v[1], v[0].shape[1], v[0].shape[0]) + v[0].tobytes()
)


def read_raw(reader, raw: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f"
        path.write_bytes(raw)
        try:
            return reader(path)
        except (FormatVersionMismatch, ChecksumMismatch):
            return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_depth_reader_takes_any_bytes(data):
    # the exact payload or a format error, never a numpy error or a traceback
    width, height, pixels = data.draw(pixel_lists(max_side=3, max_nodes=2))
    raw = data.draw(near_valid(st.just(pixel_file(width, height, pixels))))
    back = read_raw(lambda path: read_node_pixels(path, width, height, len(pixels)), raw)
    if back is not None:
        assert pixel_file(width, height, back) == raw
        for d, _ in back:
            assert np.all(np.diff(d.index) > 0) and np.all((d.index >= 0) & (d.index < width * height))
            assert np.all(np.isfinite(d.depth) & (d.depth > 0))


@settings(max_examples=300, deadline=None)
@given(near_valid(PGM_FILES))
def test_pgm_reader_takes_any_bytes(raw):
    image = read_raw(read_pgm, raw)
    if image is not None:
        data = image.data
        assert raw[:2] == b"P5" and data.dtype == np.uint8
        assert data.tobytes() == raw[len(raw) - data.size :]
        assert b"%d %d" % (data.shape[1], data.shape[0]) in raw[: len(raw) - data.size]
