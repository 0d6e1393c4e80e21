"""Correspondence reprojection, the 3-sigma displacement gate, 3-D restoration,
and the synthetic matcher, each checked against direct-formula oracles."""

import numpy as np
import pytest

from topoloc.errors import AllPointsDropped, EmptyInput, NoVisibleLandmarks
from topoloc.geometry import Pose, Rotation, project, project_points, so3_exp
from topoloc.matching import (
    SYNTHETIC_MIN_DEPTH_M,
    CameraFrame,
    CorrespondenceSet,
    ReprojectedSet,
    SyntheticMatcher,
    frame_seed,
    reproject_node_features,
    restore_3d,
    statistical_outlier_removal,
    node_landmarks,
    synthetic_match,
)
from topoloc.topomap import DepthImage, TopoNode, lift_pixels

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
        ms = synthetic_match(node_landmarks(pts, node), cur_pose, intr, seed=0)
        rp = reproject_node_features(node, ms, intr, cur_pose)
        m = restore_3d(statistical_outlier_removal(rp, 2.0))
        d = np.linalg.norm(m.points[:, None, :] - pts[None, :, :], axis=2).min(axis=1)
        assert d.max() < 1e-4  # float32 depth quantization only


class TestSyntheticMatch:
    def make_scene(self, intr, n=200, seed=0):
        """A node rendered at the identity pose from ``n`` random landmarks,
        and the landmarks it stores."""
        rng = np.random.default_rng(seed)
        from topoloc.mapgen import PointCloud, RenderBuffers, render_node

        pts = np.column_stack(
            [rng.uniform(-6, 6, n), rng.uniform(-4, 4, n), rng.uniform(4, 60, n)]
        )
        cloud = PointCloud(pts, np.full(n, 100.0))
        node = render_node(cloud, Pose.identity(), 0.0, intr, RenderBuffers(intr))
        return node, node_landmarks(pts, node)

    def test_same_view_exact(self, intr):
        node, stored = self.make_scene(intr)
        ms = synthetic_match(stored, node.pose, intr, sigma_px=0.0, outlier_fraction=0.0, seed=1)
        assert len(ms) > 100
        np.testing.assert_allclose(ms.cur, ms.node, atol=1e-12)

    def test_deterministic_per_seed(self, intr):
        node, stored = self.make_scene(intr)
        a = synthetic_match(stored, node.pose, intr, sigma_px=1.0, outlier_fraction=0.2, seed=7)
        b = synthetic_match(stored, node.pose, intr, sigma_px=1.0, outlier_fraction=0.2, seed=7)
        np.testing.assert_array_equal(a.cur, b.cur)
        np.testing.assert_array_equal(a.node, b.node)

    def test_outlier_count_exact(self, intr):
        node, stored = self.make_scene(intr, n=400, seed=2)
        clean = synthetic_match(stored, node.pose, intr, seed=3)
        n = len(clean)
        corrupted = synthetic_match(stored, node.pose, intr, sigma_px=0.0, outlier_fraction=0.2, seed=3)
        diff = np.count_nonzero(np.any(corrupted.cur != clean.cur, axis=1))
        assert diff == round(0.2 * n)

    def test_no_visible_landmarks_raises(self, intr):
        node, stored = self.make_scene(intr)
        away = Pose(so3_exp([0.0, np.pi, 0.0]), [0.0, 0.0, 0.0])  # facing backwards
        with pytest.raises(NoVisibleLandmarks):
            synthetic_match(stored, away, intr, seed=0)


# ---------------------------------------------------------------------------
# The matcher before its split into node_landmarks (once per node) and
# synthetic_match (once per frame): every frame projected all landmarks into
# the node view and lifted them through the node depth. The split must give
# its pairs bit for bit.

def reference_synthetic_match(
    landmarks, true_camera_pose, node, intr, sigma_px=0.0, outlier_fraction=0.0, seed=0
):
    rng = np.random.default_rng(seed)
    pts = np.asarray(landmarks, dtype=float).reshape(-1, 3)

    pts_node = node.pose.inverse().apply(pts)
    uv_node, front_node = project_points(node.intrinsics, pts_node, min_depth=SYNTHETIC_MIN_DEPTH_M)
    lifted, has_depth = lift_pixels(node, uv_node)
    z = pts_node[:, 2]
    zbuf_ok = front_node & has_depth
    zbuf_ok &= np.abs(lifted[:, 2] - z) <= np.maximum(1e-3, 1e-3 * np.abs(z))

    pts_cur = true_camera_pose.inverse().apply(pts)
    uv_cur, front_cur = project_points(intr, pts_cur, min_depth=SYNTHETIC_MIN_DEPTH_M)
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
        cur_px[:, 0] = np.clip(cur_px[:, 0], 0.0, intr.width - 1.0)
        cur_px[:, 1] = np.clip(cur_px[:, 1], 0.0, intr.height - 1.0)
    n_out = int(round(outlier_fraction * n))
    if n_out > 0:
        idx = rng.choice(n, size=n_out, replace=False)
        cur_px[idx, 0] = rng.uniform(0.0, intr.width - 1.0, size=n_out)
        cur_px[idx, 1] = rng.uniform(0.0, intr.height - 1.0, size=n_out)
    return CorrespondenceSet(cur=cur_px, node=node_px)


@pytest.fixture(scope="module")
def corridor():
    """A 30 s corridor with the first turn, seen with the ``intr`` fixture's
    camera: (landmarks, reference-map nodes, frame times, true camera poses)."""
    from topoloc.scenario import default_extrinsics, default_intrinsics
    from topoloc.sim import TrajectorySpec, build_reference_map, frame_times, gen_world
    from topoloc.topomap import NODE_SPACING_M

    world = gen_world(TrajectorySpec(duration_s=30.0, seed=3), landmark_count=2500)
    extr = default_extrinsics()
    nodes = build_reference_map(world, default_intrinsics(), NODE_SPACING_M, extr).nodes
    ft = frame_times(world)
    cam_poses = [pose @ extr.inverse() for pose in world.poses_at(ft)]
    return world.landmarks, nodes, ft, cam_poses


def same_outcome(landmarks, stored, pose, node, intr, **noise):
    """Assert that the split matcher gives the reference's bytes, or that both
    raise NoVisibleLandmarks; returns the pair count (0 when they raise)."""
    try:
        want = reference_synthetic_match(landmarks, pose, node, intr, **noise)
    except NoVisibleLandmarks:
        with pytest.raises(NoVisibleLandmarks):
            synthetic_match(stored, pose, intr, **noise)
        return 0
    got = synthetic_match(stored, pose, intr, **noise)
    assert got.cur.tobytes() == want.cur.tobytes()
    assert got.node.tobytes() == want.node.tobytes()
    return len(got)


NOISE_SETTINGS = [
    {"sigma_px": 0.0, "outlier_fraction": 0.0},
    {"sigma_px": 1.0, "outlier_fraction": 0.2},
]


def test_match_frames_equals_the_reference_frame_by_frame(corridor, intr):
    # simulate's per-node projection and per-frame draws give, frame by frame,
    # the reference's node ids and pair bytes; the last frame, back at node 3
    # and facing backwards, sees none of that node's landmarks and gets no pairs
    from topoloc.scenario import ScenarioConfig, match_frames
    from topoloc.sim import SensorNoiseSpec
    from topoloc.topomap import TopologicalMap

    landmarks, nodes, ft, cam_poses = corridor
    topo_map = TopologicalMap(intr)
    for node in nodes:
        topo_map.insert_node(node)
    topo_map.build_index()
    backwards = nodes[3].pose @ Pose(so3_exp([0.0, np.pi, 0.0]), [0.0, 0.0, 0.0])
    poses, times = cam_poses + [backwards], np.append(ft, ft[-1] + 0.1)
    cfg = ScenarioConfig(noise=SensorNoiseSpec(sigma_pixel=1.0, outlier_fraction=0.2), matcher_seed=99)
    node_ids, pairs = match_frames(landmarks, topo_map, poses, times, cfg)

    positions = np.array([node.pose.translation for node in nodes])
    assert len(node_ids) == len(pairs) == len(poses)
    for pose, t, node_id, (cur, node_px) in zip(poses, times, node_ids, pairs):
        assert node_id == int(np.argmin(((positions - pose.translation) ** 2).sum(axis=1)))
        try:
            want = reference_synthetic_match(
                landmarks, pose, nodes[node_id], intr, sigma_px=1.0, outlier_fraction=0.2,
                seed=frame_seed(99, t),
            )
        except NoVisibleLandmarks:
            want = CorrespondenceSet(cur=np.zeros((0, 2)), node=np.zeros((0, 2)))
        assert cur.tobytes() == want.cur.tobytes() and node_px.tobytes() == want.node.tobytes()
    assert node_ids[-1] == 3 and len(pairs[-1][0]) == 0
    assert min(len(cur) for cur, _ in pairs[:-1]) > 100


class TestSplitMatchEqualsReference:
    @pytest.mark.parametrize("noise", NOISE_SETTINGS, ids=["clean", "noisy_20pct_outliers"])
    def test_every_frame_against_its_nearest_and_a_random_node(self, corridor, intr, noise):
        landmarks, nodes, _, cam_poses = corridor
        stored = [node_landmarks(landmarks, node) for node in nodes]
        positions = np.array([node.pose.translation for node in nodes])
        rng = np.random.default_rng(11)
        counts = []
        for k, pose in enumerate(cam_poses):
            near = int(np.argmin(((positions - pose.translation) ** 2).sum(axis=1)))
            far = int(rng.integers(len(nodes)))
            for i in (near, far):
                counts.append(
                    same_outcome(landmarks, stored[i], pose, nodes[i], intr, seed=1000 + k, **noise)
                )
        counts = np.array(counts).reshape(-1, 2)
        assert counts[:, 0].min() > 100  # every frame matches its nearest node
        assert (counts[:, 1] == 0).any()  # and some random nodes lie out of sight

    def test_node_storing_no_landmark(self, corridor, intr):
        from topoloc.mapgen import PointCloud, RenderBuffers, render_node

        landmarks, _, _, cam_poses = corridor
        # a camera looking straight up from the road sees none of the walls
        up = Pose(Rotation.identity(), [20.0, 0.0, 0.0])  # optical axis along global z
        cloud = PointCloud(landmarks, np.full(len(landmarks), 100.0))
        node = render_node(cloud, up, 0.0, intr, RenderBuffers(intr))
        stored = node_landmarks(landmarks, node)
        assert len(stored) == 0
        for pose in (up, cam_poses[50]):
            for noise in NOISE_SETTINGS:
                assert same_outcome(landmarks, stored, pose, node, intr, seed=5, **noise) == 0

    def test_pose_seeing_no_stored_landmark(self, corridor, intr):
        landmarks, nodes, _, _ = corridor
        node = nodes[3]
        stored = node_landmarks(landmarks, node)
        assert len(stored) > 100
        backwards = node.pose @ Pose(so3_exp([0.0, np.pi, 0.0]), [0.0, 0.0, 0.0])
        for noise in NOISE_SETTINGS:
            assert same_outcome(landmarks, stored, backwards, node, intr, seed=5, **noise) == 0

    def test_synthetic_matcher_reuses_the_node_side_per_node(self, corridor, intr, monkeypatch):
        import topoloc.matching as matching

        landmarks, nodes, ft, cam_poses = corridor
        calls = []
        real = matching.node_landmarks

        def counted(*args):
            calls.append(args[1].node_id)
            return real(*args)

        monkeypatch.setattr(matching, "node_landmarks", counted)
        matcher = SyntheticMatcher(
            landmarks, dict(zip(ft.tolist(), cam_poses)), intr, sigma_px=1.0, outlier_fraction=0.2, seed=99
        )
        # two frames on node 4, then one on node 5, then node 4 again
        for k, i in ((40, 4), (41, 4), (42, 5), (43, 4)):
            got = matcher.match(CameraFrame(ft[k]), nodes[i])
            want = reference_synthetic_match(
                landmarks, cam_poses[k], nodes[i], intr, sigma_px=1.0, outlier_fraction=0.2,
                seed=frame_seed(99, ft[k]),
            )
            assert got.cur.tobytes() == want.cur.tobytes()
            assert got.node.tobytes() == want.node.tobytes()
        assert calls == [4, 5, 4]
