"""Correspondence reprojection, the 3-sigma displacement gate, 3-D restoration,
and the synthetic matcher, each checked against direct-formula oracles."""

import numpy as np
import pytest

from topoloc.errors import AllPointsDropped, EmptyInput, NoVisibleLandmarks
from topoloc.geometry import Pose, Rotation, project, so3_exp
from topoloc.matching import (
    CorrespondenceSet,
    ReprojectedSet,
    reproject_node_features,
    restore_3d,
    statistical_outlier_removal,
    synthetic_match,
)
from topoloc.topomap import DepthImage, TopoNode

from conftest import random_pose


def plane_node(intr, z0=10.0, pose=None, holes=()):
    """Node looking at a frontoparallel plane: constant depth everywhere but
    at the (col, row) pixels in ``holes``."""
    depth = np.full((intr.height, intr.width), z0, dtype=np.float32)
    for col, row in holes:
        depth[row, col] = 0.0
    depth = DepthImage.from_dense(depth)
    return TopoNode(
        node_id=0,
        depth=depth,
        intensity=np.zeros(len(depth.index), dtype=np.uint8),
        pose=pose or Pose.identity(),
        timestamp=0.0,
        intrinsics=intr,
    )


def grid_pixels(intr, n=10, margin=60.0):
    u = np.linspace(margin, intr.width - margin, n)
    v = np.linspace(margin, intr.height - margin, n)
    uu, vv = np.meshgrid(u, v)
    return np.column_stack([uu.ravel(), vv.ravel()])


class TestReproject:
    def test_same_viewpoint_is_identity(self, intr):
        node = plane_node(intr)
        px = grid_pixels(intr)
        matches = CorrespondenceSet(cur=px.copy(), node=px.copy())
        rp = reproject_node_features(node, matches, intr, node.pose)
        np.testing.assert_allclose(rp.reproj, px, atol=1e-6)

    def test_forward_translation_moves_features_outward(self, intr):
        # Frontal plane at z0; camera moves d toward it: radial distance from
        # the principal point scales by z0 / (z0 - d) exactly.
        z0, d = 10.0, 2.0
        node = plane_node(intr, z0=z0)
        px = grid_pixels(intr)
        matches = CorrespondenceSet(cur=px.copy(), node=px.copy())
        cur_pose = Pose(Rotation.identity(), [0.0, 0.0, d])
        rp = reproject_node_features(node, matches, intr, cur_pose)
        c = np.array([intr.cx, intr.cy])
        r_before = np.linalg.norm(px - c, axis=1)
        r_after = np.linalg.norm(rp.reproj - c, axis=1)
        np.testing.assert_allclose(r_after, r_before * z0 / (z0 - d), rtol=1e-9)
        assert np.all(r_after >= r_before)

    def test_invalid_depth_dropped_and_counted(self, intr):
        node = plane_node(intr, holes=[(100, 100)])
        px = np.array([[100.0, 100.0], [200.0, 200.0], [300.0, 300.0]])
        matches = CorrespondenceSet(cur=px.copy(), node=px.copy())
        rp = reproject_node_features(node, matches, intr, node.pose)
        assert len(rp) == 2
        assert rp.n_dropped_no_depth == 1

    def test_points_behind_camera_dropped(self, intr):
        node = plane_node(intr, z0=5.0)
        px = grid_pixels(intr, n=3)
        matches = CorrespondenceSet(cur=px.copy(), node=px.copy())
        # current camera well past the plane, facing the same way
        cur_pose = Pose(Rotation.identity(), [0.0, 0.0, 20.0])
        with pytest.raises(AllPointsDropped):
            reproject_node_features(node, matches, intr, cur_pose)


def brute_force_gate(reproj, cur, sigma_th):
    """Direct reimplementation of the two displacement inequalities."""
    du = reproj[:, 0] - cur[:, 0]
    dv = reproj[:, 1] - cur[:, 1]
    um, vm = du.mean(), dv.mean()
    return (np.abs(du - um) < 3 * sigma_th) & (np.abs(dv - vm) < 3 * sigma_th)


def as_reprojected(cur, reproj):
    n = len(cur)
    return ReprojectedSet(
        cur=np.asarray(cur, float),
        reproj=np.asarray(reproj, float),
        points_global=np.zeros((n, 3)),
        keep=np.ones(n, bool),
    )


class TestOutlierGate:
    def test_identical_displacements_all_kept(self):
        cur = np.random.default_rng(0).uniform(0, 640, (40, 2))
        rp = as_reprojected(cur, cur + [5.0, -3.0])
        assert len(statistical_outlier_removal(rp, 2.0)) == 40

    def test_single_wild_pair_removed(self):
        rng = np.random.default_rng(1)
        cur = rng.uniform(100, 500, (100, 2))
        reproj = cur + [5.0, 0.0]
        reproj[37] = cur[37] + [80.0, 40.0]
        rp = as_reprojected(cur, reproj)
        kept = statistical_outlier_removal(rp, 2.0)
        assert len(kept) == 99
        expected = brute_force_gate(reproj, cur, 2.0)
        assert not expected[37]

    def test_singleton_kept(self):
        rp = as_reprojected(np.array([[10.0, 20.0]]), np.array([[300.0, 400.0]]))
        assert len(statistical_outlier_removal(rp, 2.0)) == 1

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            statistical_outlier_removal(as_reprojected(np.zeros((0, 2)), np.zeros((0, 2))), 2.0)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = rng.integers(1, 60)
            cur = rng.uniform(0, 640, (n, 2))
            reproj = cur + rng.normal(0, rng.uniform(0.5, 30), (n, 2))
            sigma = rng.uniform(0.5, 5.0)
            kept = statistical_outlier_removal(as_reprojected(cur, reproj), sigma)
            expected = brute_force_gate(reproj, cur, sigma)
            got_set = {tuple(p) for p in kept.cur[kept.keep]}
            want_set = {tuple(p) for p in cur[expected]}
            assert got_set == want_set

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        n = 50
        cur = rng.uniform(0, 640, (n, 2))
        reproj = cur + rng.normal(0, 4, (n, 2))
        kept1 = statistical_outlier_removal(as_reprojected(cur, reproj), 1.5)
        perm = rng.permutation(n)
        kept2 = statistical_outlier_removal(as_reprojected(cur[perm], reproj[perm]), 1.5)
        assert {tuple(p) for p in kept1.cur[kept1.keep]} == {tuple(p) for p in kept2.cur[kept2.keep]}

    def test_pair_without_depth_does_not_move_the_center(self, intr):
        # 36 pairs displaced by (4, -3) and one pair with no stored depth,
        # displaced by about (-280, -210) px: if that pair entered the mean,
        # the center would move by about 8 px in u and the gate (6 px) would
        # drop the other 36.
        node = plane_node(intr, holes=[(100, 100)])
        px = np.vstack([grid_pixels(intr, n=6), [[100.0, 100.0]]])
        cur = px + [4.0, -3.0]
        cur[-1] = [600.0, 450.0]
        rp = reproject_node_features(node, CorrespondenceSet(cur=cur, node=px), intr, node.pose)
        assert rp.n_dropped_no_depth == 1 and len(rp) == 36
        kept = statistical_outlier_removal(rp, 2.0)
        np.testing.assert_array_equal(kept.keep, np.arange(37) < 36)

    def test_input_left_unchanged(self):
        rng = np.random.default_rng(6)
        cur = rng.uniform(100, 500, (30, 2))
        reproj = cur + [2.0, 1.0]
        reproj[[3, 17]] += [60.0, -50.0]
        rp = as_reprojected(cur, reproj)
        rp.keep[5] = False
        keep_before = rp.keep.copy()
        kept = statistical_outlier_removal(rp, 2.0)
        assert len(kept) == 27
        np.testing.assert_array_equal(rp.keep, keep_before)
        assert len(rp) == 29


class TestRestore3d:
    def test_kept_rows_in_matcher_order(self):
        rng = np.random.default_rng(7)
        n = 25
        rp = ReprojectedSet(
            cur=rng.uniform(0, 640, (n, 2)),
            reproj=rng.uniform(0, 640, (n, 2)),
            points_global=rng.normal(0, 10, (n, 3)),
            keep=rng.uniform(size=n) < 0.6,
        )
        m = restore_3d(rp)
        np.testing.assert_array_equal(m.pixels, rp.cur[rp.keep])
        np.testing.assert_array_equal(m.points, rp.points_global[rp.keep])

    def test_identity_pose_principal_point(self, intr):
        node = plane_node(intr, z0=5.0)
        px = np.array([[intr.cx, intr.cy]])
        matches = CorrespondenceSet(cur=px.copy(), node=px.copy())
        rp = reproject_node_features(node, matches, intr, node.pose)
        m = restore_3d(statistical_outlier_removal(rp, 2.0))
        np.testing.assert_allclose(m.points[0], [0.0, 0.0, 5.0], atol=1e-9)

    def test_translation_equivariance(self, intr):
        px = np.array([[intr.cx, intr.cy]])
        for shift in ([0.0, 0.0, 0.0], [10.0, 0.0, 0.0]):
            node = plane_node(intr, z0=5.0, pose=Pose(Rotation.identity(), shift))
            matches = CorrespondenceSet(cur=px.copy(), node=px.copy())
            rp = reproject_node_features(node, matches, intr, node.pose)
            m = restore_3d(statistical_outlier_removal(rp, 2.0))
            np.testing.assert_allclose(m.points[0], np.array([0.0, 0.0, 5.0]) + shift, atol=1e-9)

    def test_reprojects_at_node_pose(self, intr):
        # At the node's own viewpoint the restored points project back onto
        # the reprojected (= original) features.
        rng = np.random.default_rng(4)
        node = plane_node(intr, z0=8.0, pose=random_pose(rng))
        px = grid_pixels(intr, n=6)
        matches = CorrespondenceSet(cur=px.copy(), node=px.copy())
        rp = reproject_node_features(node, matches, intr, node.pose)
        m = restore_3d(statistical_outlier_removal(rp, 2.0))
        for point, f in zip(m.points, rp.reproj):
            back = project(intr, node.pose.inverse().apply(point))
            np.testing.assert_allclose(back, f, atol=1e-6)

    def test_restored_points_match_true_landmarks(self, intr):
        # Synthetic scene: landmarks -> render -> match -> restore recovers
        # the true landmark coordinates.
        rng = np.random.default_rng(5)
        from topoloc.mapgen import PointCloud, RenderBuffers, render_node

        pts = np.column_stack(
            [rng.uniform(-6, 6, 300), rng.uniform(-4, 4, 300), rng.uniform(4, 50, 300)]
        )
        node_pose = Pose(so3_exp([0.02, -0.01, 0.03]), [0.5, -0.2, 0.1])
        node = render_node(PointCloud(pts, np.full(300, 128.0)), node_pose, 0.0, intr, RenderBuffers(intr))
        cur_pose = node_pose @ Pose(so3_exp([0.0, 0.01, 0.0]), [0.3, 0.0, 0.2])
        ms = synthetic_match(pts, cur_pose, node, intr, seed=0)
        rp = reproject_node_features(node, ms, intr, cur_pose)
        m = restore_3d(statistical_outlier_removal(rp, 2.0))
        d = np.linalg.norm(m.points[:, None, :] - pts[None, :, :], axis=2).min(axis=1)
        assert d.max() < 1e-4  # float32 depth quantization only


class TestSyntheticMatch:
    def make_scene(self, intr, n=200, seed=0):
        rng = np.random.default_rng(seed)
        from topoloc.mapgen import PointCloud, RenderBuffers, render_node

        pts = np.column_stack(
            [rng.uniform(-6, 6, n), rng.uniform(-4, 4, n), rng.uniform(4, 60, n)]
        )
        cloud = PointCloud(pts, np.full(n, 100.0))
        return pts, render_node(cloud, Pose.identity(), 0.0, intr, RenderBuffers(intr))

    def test_same_view_exact(self, intr):
        pts, node = self.make_scene(intr)
        ms = synthetic_match(pts, node.pose, node, intr, sigma_px=0.0, outlier_fraction=0.0, seed=1)
        assert len(ms) > 100
        np.testing.assert_allclose(ms.cur, ms.node, atol=1e-12)

    def test_deterministic_per_seed(self, intr):
        pts, node = self.make_scene(intr)
        a = synthetic_match(pts, node.pose, node, intr, sigma_px=1.0, outlier_fraction=0.2, seed=7)
        b = synthetic_match(pts, node.pose, node, intr, sigma_px=1.0, outlier_fraction=0.2, seed=7)
        np.testing.assert_array_equal(a.cur, b.cur)
        np.testing.assert_array_equal(a.node, b.node)

    def test_outlier_count_exact(self, intr):
        pts, node = self.make_scene(intr, n=400, seed=2)
        clean = synthetic_match(pts, node.pose, node, intr, seed=3)
        n = len(clean)
        corrupted = synthetic_match(
            pts, node.pose, node, intr, sigma_px=0.0, outlier_fraction=0.2, seed=3
        )
        diff = np.count_nonzero(np.any(corrupted.cur != clean.cur, axis=1))
        assert diff == round(0.2 * n)

    def test_no_visible_landmarks_raises(self, intr):
        pts, node = self.make_scene(intr)
        away = Pose(so3_exp([0.0, np.pi, 0.0]), [0.0, 0.0, 0.0])  # facing backwards
        with pytest.raises(NoVisibleLandmarks):
            synthetic_match(pts, away, node, intr, seed=0)
