"""Rendering, outlier rejection, PnP, pose refinement, odometry chaining,
and the end-to-end map build on synthetic scenes."""

import numpy as np
import pytest

from topoloc import mapgen
from topoloc.errors import (
    DegenerateConfiguration,
    EmptyCloud,
    MissingOdometry,
    NoConsensus,
    NoConvergence,
    TooFewMatches,
)
from topoloc.geometry import (
    Pose,
    Rotation,
    project_points,
    projection_jacobian,
    so3_exp,
    so3_log,
    unproject_points,
)
from topoloc.mapgen import (
    MapGenParams,
    OdometrySequence,
    PointCloud,
    chain_initial_pose,
    generate_map,
    rasterize,
    refine_node_pose,
    rotation_ransac,
    solve_pnp,
)
from topoloc.matching import CameraFrame, CorrespondenceSet, Matched3D2D
from topoloc.topomap import IntensityImage

from conftest import random_pose


class TestRasterize:
    def test_single_point_on_axis(self, intr):
        cloud = PointCloud(np.array([[0.0, 0.0, 5.0]]), np.array([200.0]))
        inten, depth = rasterize(cloud, Pose.identity(), intr)
        assert depth.data[240, 320] == np.float32(5.0)
        assert inten.data[240, 320] == 200
        mask = depth.valid_mask()
        assert mask.sum() == 1

    def test_z_buffer_keeps_nearest(self, intr):
        cloud = PointCloud(
            np.array([[0.0, 0.0, 6.0], [0.0, 0.0, 4.0]]), np.array([10.0, 99.0])
        )
        _, depth = rasterize(cloud, Pose.identity(), intr)
        assert depth.data[240, 320] == np.float32(4.0)
        cloud2 = PointCloud(cloud.points[::-1], cloud.intensity[::-1])
        _, depth2 = rasterize(cloud2, Pose.identity(), intr)
        assert depth2.data[240, 320] == np.float32(4.0)

    def test_near_and_far_culling(self, intr):
        cloud = PointCloud(
            np.array([[0.0, 0.0, 0.05], [0.0, 0.0, 250.0], [0.0, 0.0, -3.0]]),
            np.array([1.0, 2.0, 3.0]),
        )
        _, depth = rasterize(cloud, Pose.identity(), intr)
        assert depth.valid_mask().sum() == 0

    def test_dense_plane_depth(self, intr):
        # Frontoparallel plane at z=10: stored depth is exactly 10 (z-depth,
        # not ray length) wherever a point lands.
        rng = np.random.default_rng(0)
        n = 20000
        pts = np.column_stack(
            [rng.uniform(-5, 5, n), rng.uniform(-3.5, 3.5, n), np.full(n, 10.0)]
        )
        cloud = PointCloud(pts, np.full(n, 50.0))
        _, depth = rasterize(cloud, Pose.identity(), intr)
        mask = depth.valid_mask()
        assert mask.sum() > 10000
        vals = depth.data[mask]
        assert np.mean(np.abs(vals - 10.0) < 1e-3) >= 0.99

    def test_pose_equivariance(self, intr):
        rng = np.random.default_rng(1)
        pts = np.column_stack(
            [rng.uniform(-8, 8, 500), rng.uniform(-5, 5, 500), rng.uniform(3, 80, 500)]
        )
        inten_vals = rng.uniform(0, 255, 500)
        pose = random_pose(rng, t_scale=3.0)
        t_extra = random_pose(rng, t_scale=5.0)
        a_inten, a_depth = rasterize(PointCloud(pts, inten_vals), pose, intr)
        moved = t_extra.apply(pts)
        b_inten, b_depth = rasterize(PointCloud(moved, inten_vals), t_extra @ pose, intr)
        np.testing.assert_allclose(a_depth.data, b_depth.data, atol=1e-4)
        np.testing.assert_array_equal(a_inten.data, b_inten.data)

    def test_empty_cloud_raises(self, intr):
        with pytest.raises(EmptyCloud):
            rasterize(PointCloud(np.zeros((0, 3)), np.zeros(0)), Pose.identity(), intr)

    def test_reused_buffers_match_fresh_renders(self, intr):
        # Each render into the buffers clears what the previous one wrote:
        # the images equal a fresh render's bit for bit, also after a
        # depth-only render and after a render that writes nothing.
        rng = np.random.default_rng(2)
        pts = np.column_stack(
            [rng.uniform(-8, 8, 3000), rng.uniform(-5, 5, 3000), rng.uniform(3, 80, 3000)]
        )
        cloud = PointCloud(pts, rng.uniform(0, 255, 3000))
        buffers = mapgen.RenderBuffers(intr)
        poses = [random_pose(rng, t_scale=1.0, r_scale=0.1) for _ in range(4)]
        poses.insert(2, Pose(Rotation.identity(), [0.0, 0.0, 500.0]))  # everything behind
        for k, pose in enumerate(poses):
            with_inten = k != 1
            inten, depth = rasterize(cloud, pose, intr, 100.0, with_inten, out=buffers)
            fresh_inten, fresh_depth = rasterize(cloud, pose, intr, 100.0, with_inten)
            assert depth.data is buffers.depth
            assert depth.data.tobytes() == fresh_depth.data.tobytes()
            assert depth.data.any() == (k != 2)
            if with_inten:
                assert inten.data is buffers.intensity
                assert inten.data.tobytes() == fresh_inten.data.tobytes()
            else:
                assert inten is None and fresh_inten is None


def pure_rotation_matches(intr, rng, n=100, rotation=None):
    rotation = rotation or so3_exp(np.array([0.03, -0.02, 0.05]))
    pts = np.column_stack(
        [rng.normal(0, 4, n), rng.normal(0, 3, n), rng.uniform(3, 50, n)]
    )
    d = (pts / np.linalg.norm(pts, axis=1, keepdims=True)) @ rotation.as_matrix().T
    px = np.column_stack(
        [intr.fx * d[:, 0] / d[:, 2] + intr.cx, intr.fy * d[:, 1] / d[:, 2] + intr.cy]
    )
    return Matched3D2D(pts, px)


class TestRotationRansac:
    def test_pure_rotation_keeps_all(self, intr):
        rng = np.random.default_rng(2)
        matches = pure_rotation_matches(intr, rng)
        kept = rotation_ransac(matches, intr, seed=0)
        assert len(kept) == len(matches)

    def test_injected_outliers_removed(self, intr):
        rng = np.random.default_rng(3)
        matches = pure_rotation_matches(intr, rng, n=100)
        pixels = matches.pixels.copy()
        pixels[80:] = rng.uniform([0, 0], [intr.width, intr.height], (20, 2))
        corrupted = Matched3D2D(matches.points, pixels)
        kept = rotation_ransac(corrupted, intr, iterations=500, threshold_px=3.0, seed=1)
        kept_keys = {tuple(p) for p in kept.pixels}
        n_consistent = sum(1 for p in matches.pixels[:80] if tuple(p) in kept_keys)
        n_gross = sum(1 for p in pixels[80:] if tuple(p) in kept_keys)
        assert n_consistent >= 76
        assert n_gross == 0

    def test_stops_early_on_clean_data(self, intr, monkeypatch):
        rng = np.random.default_rng(15)
        matches = pure_rotation_matches(intr, rng, n=200)
        pixels = matches.pixels.copy()
        pixels[190:] = rng.uniform([0, 0], [intr.width, intr.height], (10, 2))
        calls = []
        real_fit = mapgen._fit_rotation

        def counting_fit(src, dst):
            calls.append(len(src))
            return real_fit(src, dst)

        monkeypatch.setattr(mapgen, "_fit_rotation", counting_fit)
        kept = rotation_ransac(
            Matched3D2D(matches.points, pixels), intr, iterations=500, seed=4
        )
        assert len(kept) >= 190
        assert len(calls) <= 10

    @pytest.mark.parametrize("data_seed", [17, 18, 19])
    def test_consensus_is_refit_fixed_point(self, intr, data_seed):
        rng = np.random.default_rng(data_seed)
        matches = pure_rotation_matches(intr, rng, n=150)
        pixels = matches.pixels + rng.normal(0, 1.0, matches.pixels.shape)
        pixels[120:] = rng.uniform([0, 0], [intr.width, intr.height], (30, 2))
        noisy = Matched3D2D(matches.points, pixels)
        kept = rotation_ransac(noisy, intr, threshold_px=3.0, seed=5)
        kept_keys = {tuple(p) for p in kept.pixels}
        kept_mask = np.array([tuple(p) in kept_keys for p in pixels])
        ref = noisy.points / np.linalg.norm(noisy.points, axis=1, keepdims=True)
        cur = mapgen._bearings_from_pixels(pixels, intr)
        refit = mapgen._fit_rotation(ref[kept_mask], cur[kept_mask])
        again = mapgen._rotation_consensus(refit, ref, pixels, intr, 3.0)
        np.testing.assert_array_equal(again, kept_mask)

    def test_too_few_matches(self, intr):
        with pytest.raises(TooFewMatches):
            rotation_ransac(Matched3D2D(np.ones((1, 3)), np.ones((1, 2))), intr)

    def test_no_consensus_on_pure_noise(self, intr):
        rng = np.random.default_rng(4)
        pts = np.column_stack(
            [rng.normal(0, 4, 60), rng.normal(0, 3, 60), rng.uniform(3, 50, 60)]
        )
        px = rng.uniform([0, 0], [intr.width, intr.height], (60, 2))
        with pytest.raises(NoConsensus):
            rotation_ransac(Matched3D2D(pts, px), intr, iterations=200, threshold_px=2.0, seed=2)


def pnp_problem(intr, rng, n=100, noise_px=0.0):
    """Random camera pose; returns (matches with world points, true extrinsic)."""
    cam_pose = random_pose(rng, t_scale=5.0, r_scale=0.5)
    pts_cam = np.column_stack(
        [rng.normal(0, 4, n), rng.normal(0, 3, n), rng.uniform(3, 50, n)]
    )
    world = cam_pose.apply(pts_cam)
    px = np.column_stack(
        [
            intr.fx * pts_cam[:, 0] / pts_cam[:, 2] + intr.cx,
            intr.fy * pts_cam[:, 1] / pts_cam[:, 2] + intr.cy,
        ]
    )
    if noise_px > 0:
        px = px + rng.normal(0, noise_px, px.shape)
    return Matched3D2D(world, px), cam_pose.inverse()


class TestSolvePnp:
    def test_points_in_camera_frame_give_identity(self, intr):
        rng = np.random.default_rng(5)
        pts = np.column_stack(
            [rng.normal(0, 4, 80), rng.normal(0, 3, 80), rng.uniform(3, 50, 80)]
        )
        px = np.column_stack(
            [intr.fx * pts[:, 0] / pts[:, 2] + intr.cx, intr.fy * pts[:, 1] / pts[:, 2] + intr.cy]
        )
        res = solve_pnp(Matched3D2D(pts, px), intr)
        assert np.linalg.norm(res.pose.translation) < 1e-8
        assert res.pose.rotation.angle_to(Rotation.identity()) < 1e-8

    def test_noiseless_recovery(self, intr):
        rng = np.random.default_rng(6)
        matches, truth = pnp_problem(intr, rng, n=100)
        res = solve_pnp(matches, intr)
        assert np.linalg.norm(res.pose.translation - truth.translation) < 1e-6
        assert res.pose.rotation.angle_to(truth.rotation) < 1e-7

    def test_rms_attached_and_small_under_noise(self, intr):
        rng = np.random.default_rng(7)
        matches, _ = pnp_problem(intr, rng, n=100, noise_px=0.5)
        res = solve_pnp(matches, intr)
        assert 0.1 < res.rms_px < 1.5

    def test_too_few_points(self, intr):
        rng = np.random.default_rng(8)
        matches, _ = pnp_problem(intr, rng, n=5)
        with pytest.raises(DegenerateConfiguration):
            solve_pnp(matches, intr)

    def test_no_candidate_below_min_step(self, intr, monkeypatch):
        # Mirror solve_pnp's acceptance rule to recover each candidate's step
        # from the pose it is scored at.
        original = mapgen._reprojection_residual
        seen = {"calls": 0, "best": None, "steps": []}

        def spy(pose, matches, intr_):
            scored = original(pose, matches, intr_)
            rms = scored[0]
            seen["calls"] += 1
            if seen["calls"] <= 2:  # the identity and DLT starts (far starts: both run)
                if seen["best"] is None or rms <= seen["best"][0]:
                    seen["best"] = (rms, pose)
                return scored
            best_rms, best = seen["best"]
            step = np.concatenate(
                [so3_log(best.rotation.inverse() @ pose.rotation), pose.translation - best.translation]
            )
            seen["steps"].append(float(np.linalg.norm(step)))
            if rms <= best_rms:
                seen["best"] = (rms, pose)
            return scored

        monkeypatch.setattr(mapgen, "_reprojection_residual", spy)
        rng = np.random.default_rng(9)
        for _ in range(5):
            matches, _ = pnp_problem(intr, rng, n=200, noise_px=0.7)
            seen.update(calls=0, best=None)
            solve_pnp(matches, intr)
        assert len(seen["steps"]) > 10
        assert min(seen["steps"]) > 0.99 * mapgen.PNP_MIN_STEP

    def test_collinear_points_rejected(self, intr):
        t = np.linspace(0, 1, 20)
        pts = np.column_stack([t, 2 * t, 5 + 3 * t])
        px = np.column_stack(
            [intr.fx * pts[:, 0] / pts[:, 2] + intr.cx, intr.fy * pts[:, 1] / pts[:, 2] + intr.cy]
        )
        with pytest.raises(DegenerateConfiguration):
            solve_pnp(Matched3D2D(pts, px), intr)

    @pytest.mark.parametrize("max_iterations", [0, 1, 2, 3, 4, 5])
    def test_short_iteration_budget(self, intr, max_iterations):
        # Fewer iterations than the five-step stall window: the stall is
        # judged over the history there is, so a still-descending solve
        # raises NoConvergence instead of an IndexError.
        rng = np.random.default_rng(21)
        matches, _ = pnp_problem(intr, rng, n=300, noise_px=0.7)
        start_rms = min(
            mapgen._reprojection_residual(c, matches, intr)[0]
            for c in (mapgen._pnp_dlt(matches, intr), Pose.identity())
        )
        try:
            res = solve_pnp(matches, intr, max_iterations=max_iterations)
        except NoConvergence:
            assert max_iterations > 0
        else:
            assert res.iterations <= max_iterations
            assert res.rms_px <= start_rms
            if max_iterations == 0:
                assert res.rms_px == start_rms

    def test_dlt_sign_makes_det_positive(self, intr):
        # Both signs put every point in front here; only det(P[:, :3]) > 0
        # gives a rotation, the other sign a reflection.
        matches, truth = pnp_problem(intr, np.random.default_rng(3000), n=2000)
        dlt = mapgen._pnp_dlt(matches, intr)
        assert mapgen._reprojection_residual(dlt, matches, intr)[0] < 1e-6
        assert np.linalg.norm(dlt.translation - truth.translation) < 1e-6


class TestLazyDltStart:
    """solve_pnp builds the DLT start only when the identity start reprojects
    worse than PNP_DLT_START_RMS_PX."""

    @staticmethod
    def identity_rms(matches, intr):
        return mapgen._reprojection_residual(Pose.identity(), matches, intr)[0]

    def test_dlt_built_only_above_threshold(self, intr, monkeypatch):
        built = []
        real_dlt = mapgen._pnp_dlt

        def spy(matches, intr_):
            built.append(len(matches))
            return real_dlt(matches, intr_)

        monkeypatch.setattr(mapgen, "_pnp_dlt", spy)
        near = view_problem(intr, np.random.default_rng(11), 300, 0.7, angle_deg=0.2, shift_m=0.02)
        rms = self.identity_rms(near, intr)
        assert 0.7 < rms < mapgen.PNP_DLT_START_RMS_PX
        solve_pnp(near, intr)
        assert built == []
        monkeypatch.setattr(mapgen, "PNP_DLT_START_RMS_PX", rms)  # at the threshold
        solve_pnp(near, intr)
        assert built == []
        monkeypatch.setattr(mapgen, "PNP_DLT_START_RMS_PX", np.nextafter(rms, 0.0))  # just under
        solve_pnp(near, intr)
        assert built == [300]
        monkeypatch.undo()
        monkeypatch.setattr(mapgen, "_pnp_dlt", spy)
        far = view_problem(intr, np.random.default_rng(12), 200, 0.7)  # 3 deg, 0.2 m
        assert self.identity_rms(far, intr) > mapgen.PNP_DLT_START_RMS_PX
        solve_pnp(far, intr)
        assert built == [300, 200]

    def test_near_starts_match_the_two_start_solve(self, intr):
        # Under the threshold the DLT start is skipped. Where the two-start
        # solve's identity start won, nothing changes; where its DLT start
        # won, Gauss-Newton reaches the same minimum from the identity. The
        # map compiler's problems: hundreds of matches, a view that is 0.02
        # or 0.3 deg and 2 or 30 mm off.
        identity_won = dlt_won = 0
        for k in range(12):
            rng = np.random.default_rng(12_000 + k)
            angle_deg, shift_m = ((0.02, 0.002), (0.3, 0.03))[(k // 3) % 2]
            matches = view_problem(
                intr, rng, (300, 1200, 2000)[k % 3], (0.5, 1.0)[k // 6], angle_deg, shift_m
            )
            assert self.identity_rms(matches, intr) <= mapgen.PNP_DLT_START_RMS_PX
            res = solve_pnp(matches, intr)
            ref = reference_solve_pnp(matches, intr)
            dlt_rms = reference_reprojection_rms(reference_pnp_dlt(matches, intr), matches, intr)
            if reference_reprojection_rms(Pose.identity(), matches, intr) < dlt_rms:
                identity_won += 1
                assert_same_pose(res.pose, ref.pose)
                assert (res.rms_px, res.iterations) == (ref.rms_px, ref.iterations)
            else:
                dlt_won += 1
                assert np.linalg.norm(res.pose.translation - ref.pose.translation) < 1e-9
                assert res.pose.rotation.angle_to(ref.pose.rotation) < 1e-9
                assert abs(res.rms_px - ref.rms_px) < 1e-9
        assert identity_won >= 2 and dlt_won >= 2


def test_pnp_jacobian_matches_central_differences(intr):
    rng = np.random.default_rng(17)
    pose = random_pose(rng, t_scale=1.0, r_scale=0.3)
    pts = np.column_stack(
        [rng.normal(0, 4, 40), rng.normal(0, 3, 40), rng.uniform(3, 50, 40)]
    )
    points = pose.inverse().apply(pts)  # in front of the camera under pose

    def pixels(delta):
        moved = Pose(pose.rotation @ so3_exp(delta[:3]), pose.translation + delta[3:])
        q = moved.apply(points)
        return np.concatenate(
            [intr.fx * q[:, 0] / q[:, 2] + intr.cx, intr.fy * q[:, 1] / q[:, 2] + intr.cy]
        )

    h = 1e-6
    numeric = np.column_stack(
        [(pixels(h * e) - pixels(-h * e)) / (2 * h) for e in np.eye(6)]
    )
    analytic = mapgen._pnp_jacobian(
        points, pose.rotation.as_matrix(), pose.apply(points), intr
    )
    scale = np.abs(numeric).max(axis=0)
    assert np.all(np.abs(analytic - numeric).max(axis=0) < 1e-6 * scale)


class TestRefineAndChain:
    def test_identity_correction_returns_predicted(self):
        rng = np.random.default_rng(9)
        predicted = random_pose(rng)
        out = refine_node_pose(predicted, Pose.identity())
        np.testing.assert_array_equal(out.translation, predicted.translation)
        np.testing.assert_array_equal(out.rotation.q, predicted.rotation.q)

    def test_translation_correction(self):
        out = refine_node_pose(Pose.identity(), Pose(Rotation.identity(), [1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.translation, [-1.0, 0.0, 0.0])
        assert out.rotation.angle_to(Rotation.identity()) < 1e-12

    def test_matrix_oracle(self):
        rng = np.random.default_rng(10)
        predicted, pnp = random_pose(rng), random_pose(rng)
        out = refine_node_pose(predicted, pnp)
        oracle = predicted.as_matrix() @ np.linalg.inv(pnp.as_matrix())
        np.testing.assert_allclose(out.as_matrix(), oracle, atol=1e-9)

    def test_chain_stationary(self):
        rng = np.random.default_rng(11)
        prev = random_pose(rng)
        pose = Pose.identity()
        odo = OdometrySequence([0.0, 0.1], [pose, pose], Pose.identity())
        out = chain_initial_pose(prev, odo, 0)
        np.testing.assert_allclose(out.as_matrix(), prev.as_matrix(), atol=1e-12)

    def test_chain_identity_extrinsic_steps_along_body_x(self):
        rng = np.random.default_rng(12)
        prev = random_pose(rng)
        step = Pose(Rotation.identity(), [1.0, 0.0, 0.0])
        odo = OdometrySequence([0.0, 0.1], [Pose.identity(), step], Pose.identity())
        out = chain_initial_pose(prev, odo, 0)
        expected_t = prev.translation + prev.rotation.apply(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.translation, expected_t, atol=1e-12)

    def test_chain_matrix_oracle_with_extrinsic(self):
        rng = np.random.default_rng(13)
        prev, ext = random_pose(rng), random_pose(rng, t_scale=1.0)
        o0, o1 = random_pose(rng), random_pose(rng)
        odo = OdometrySequence([0.0, 0.1], [o0, o1], ext)
        out = chain_initial_pose(prev, odo, 0)
        m = (
            prev.as_matrix()
            @ np.linalg.inv(ext.as_matrix())
            @ np.linalg.inv(o0.as_matrix())
            @ o1.as_matrix()
            @ ext.as_matrix()
        )
        np.testing.assert_allclose(out.as_matrix(), m, atol=1e-12)

    def test_chain_missing_odometry(self):
        odo = OdometrySequence([0.0], [Pose.identity()], Pose.identity())
        with pytest.raises(MissingOdometry):
            chain_initial_pose(Pose.identity(), odo, 0)


class ZeroMatcher:
    def match(self, frame, node):
        return CorrespondenceSet(cur=np.zeros((0, 2)), node=np.zeros((0, 2)))


class TestGenerateMap:
    def build_world(self, intr, seed=0, n_frames=12):
        """Straight corridor world with exact odometry and a render matcher."""
        from topoloc.matching import SyntheticMatcher
        from topoloc.scenario import default_extrinsics

        rng = np.random.default_rng(seed)
        n_pts = 1200
        length = 120.0
        pts = np.column_stack(
            [
                rng.uniform(0, length, n_pts),
                rng.choice([-1, 1], n_pts) * rng.uniform(3.5, 4.2, n_pts),
                rng.uniform(-1.5, 3.0, n_pts),
            ]
        )
        cloud = PointCloud(pts, rng.uniform(40, 255, n_pts))
        ext_pose = default_extrinsics()
        body_poses = [
            Pose(Rotation.identity(), [4.0 * k, 0.0, 0.0]) for k in range(n_frames)
        ]
        cam_poses = [bp @ ext_pose.inverse() for bp in body_poses]
        times = [0.1 * k for k in range(n_frames)]
        odo = OdometrySequence(times, body_poses, ext_pose.inverse())
        matcher = SyntheticMatcher(
            pts,
            {t: c for t, c in zip(times, cam_poses)},
            intr,
            sigma_px=0.3,
            outlier_fraction=0.05,
            seed=seed,
        )
        img = IntensityImage(np.zeros((intr.height, intr.width), dtype=np.uint8))
        frames = [CameraFrame(timestamp=t, image=img) for t in times]
        return cloud, frames, odo, cam_poses, matcher

    def test_recovers_ground_truth_from_perturbed_start(self, intr):
        rng = np.random.default_rng(14)
        cloud, frames, odo, cam_poses, matcher = self.build_world(intr)
        axis = rng.normal(0, 1, 3)
        axis /= np.linalg.norm(axis)
        perturb = Pose(so3_exp(axis * np.deg2rad(2.0)), rng.normal(0, 0.29, 3))
        result = generate_map(
            cloud, frames, odo, cam_poses[0] @ perturb, intr, matcher, MapGenParams(seed=3)
        )
        assert result.n_accepted >= 0.95 * len(frames)
        for node in result.map.nodes:
            truth = cam_poses[int(round(node.timestamp / 0.1))]
            assert np.linalg.norm(node.pose.translation - truth.translation) < 0.02
            assert node.pose.rotation.angle_to(truth.rotation) < 0.005

    def test_zero_matches_everywhere_gives_empty_map(self, intr):
        cloud, frames, odo, cam_poses, _ = self.build_world(intr)
        result = generate_map(
            cloud, frames, odo, cam_poses[0], intr, ZeroMatcher(), MapGenParams()
        )
        assert len(result.map) == 0
        assert len(result.reports) == len(frames)
        assert all(not r.accepted and r.reason for r in result.reports)

    def test_exact_start_exact_matcher_first_node(self, intr):
        from topoloc.matching import SyntheticMatcher

        cloud, frames, odo, cam_poses, _ = self.build_world(intr)
        exact = SyntheticMatcher(
            cloud.points,
            {0.1 * k: c for k, c in enumerate(cam_poses)},
            intr,
            sigma_px=0.0,
            outlier_fraction=0.0,
            seed=0,
        )
        result = generate_map(cloud, frames, odo, cam_poses[0], intr, exact, MapGenParams())
        node0 = result.map.nodes[0]
        assert np.linalg.norm(node0.pose.translation - cam_poses[0].translation) < 1e-6
        assert node0.pose.rotation.angle_to(cam_poses[0].rotation) < 1e-7

    def test_match_views_render_into_reused_buffers(self, intr):
        # Each frame's match view is the reused buffers, holding what a fresh
        # render at that frame's prediction holds; stored depth is never one
        # of them and never another node's.
        rng = np.random.default_rng(14)
        cloud, frames, odo, cam_poses, matcher = self.build_world(intr, n_frames=8)
        perturb = Pose(so3_exp(np.deg2rad([1.0, -0.5, 0.8])), rng.normal(0, 0.2, 3))
        views = []

        class RecordingMatcher:
            def match(self, frame, node):
                views.append((node.pose, node.image.data, node.depth.data,
                              node.image.data.tobytes(), node.depth.data.tobytes()))
                return matcher.match(frame, node)

        params = MapGenParams(seed=3)
        result = generate_map(
            cloud, frames, odo, cam_poses[0] @ perturb, intr, RecordingMatcher(), params
        )
        assert result.n_accepted == len(frames) == len(views)
        inten_buf, depth_buf = views[0][1], views[0][2]
        for pose, inten, depth, inten_bytes, depth_bytes in views:
            assert inten is inten_buf and depth is depth_buf
            fresh_inten, fresh_depth = rasterize(cloud, pose, intr, max_range=params.max_range_m)
            assert inten_bytes == fresh_inten.data.tobytes()
            assert depth_bytes == fresh_depth.data.tobytes()
        nodes = result.map.nodes
        for i, node in enumerate(nodes):
            assert not np.shares_memory(node.depth.data, depth_buf)
            assert not np.shares_memory(node.depth.data, inten_buf)
            for other in nodes[i + 1:]:
                assert not np.shares_memory(node.depth.data, other.depth.data)

    def test_node_count_and_order(self, intr):
        cloud, frames, odo, cam_poses, matcher = self.build_world(intr)
        result = generate_map(cloud, frames, odo, cam_poses[0], intr, matcher, MapGenParams())
        assert len(result.map) <= len(frames)
        stamps = [n.timestamp for n in result.map.nodes]
        assert stamps == sorted(stamps)
        assert [n.node_id for n in result.map.nodes] == list(range(len(result.map)))


# ---------------------------------------------------------------------------
# Bitwise guards: the compiler kernels against their first-written forms.
# The optimized kernels must reproduce these bit for bit, so that a map
# bundle does not change by a byte.


def reference_bearings_from_pixels(pixels, intr):
    rays = unproject_points(intr, pixels, np.ones(len(pixels)))
    return rays / np.linalg.norm(rays, axis=1, keepdims=True)


def reference_fit_rotation(src, dst):
    w = dst.T @ src
    u, _, vt = np.linalg.svd(w)
    d = np.sign(np.linalg.det(u @ vt))
    return Rotation.from_matrix(u @ np.diag([1.0, 1.0, d]) @ vt)


def reference_rotation_consensus(rot, ref, pixels, intr, threshold_px):
    uv, in_front = project_points(intr, ref @ rot.as_matrix().T, min_depth=1e-9)
    err = uv - pixels
    return in_front & (err[:, 0] ** 2 + err[:, 1] ** 2 < threshold_px**2)


def reference_rotation_ransac(
    matches, intr, iterations=500, threshold_px=3.0, min_inlier_ratio=0.3, seed=0
):
    n = len(matches)
    if n < 2:
        raise TooFewMatches(f"rotation RANSAC needs >= 2 matches, got {n}")
    ref = matches.points / np.linalg.norm(matches.points, axis=1, keepdims=True)
    cur = reference_bearings_from_pixels(matches.pixels, intr)
    rng = np.random.default_rng(seed)
    best_count = -1
    best_mask = None
    needed = iterations
    drawn = 0
    while drawn < needed:
        drawn += 1
        i, j = rng.choice(n, size=2, replace=False)
        if np.linalg.norm(np.cross(ref[i], ref[j])) < 1e-6:
            continue
        rot = reference_fit_rotation(ref[[i, j]], cur[[i, j]])
        mask = reference_rotation_consensus(rot, ref, matches.pixels, intr, threshold_px)
        count = int(np.count_nonzero(mask))
        if count > best_count:
            best_count = count
            best_mask = mask
            needed = mapgen._hypotheses_needed(count / n, iterations)
    if best_mask is None or best_count < max(2, min_inlier_ratio * n):
        raise NoConsensus(f"best consensus {max(best_count, 0)}/{n}")
    for _ in range(mapgen.LO_MAX_REFITS):
        rot = reference_fit_rotation(ref[best_mask], cur[best_mask])
        mask = reference_rotation_consensus(rot, ref, matches.pixels, intr, threshold_px)
        count = int(np.count_nonzero(mask))
        if count < best_count or np.array_equal(mask, best_mask):
            break
        best_count = count
        best_mask = mask
    return Matched3D2D(points=matches.points[best_mask], pixels=matches.pixels[best_mask])


def reference_reprojection_rms(pose, matches, intr):
    uv, in_front = project_points(intr, pose.apply(matches.points), min_depth=1e-3)
    if not np.all(in_front):
        return np.inf
    err = uv - matches.pixels
    return float(np.sqrt(np.mean(err[:, 0] ** 2 + err[:, 1] ** 2)))


def reference_pnp_dlt(matches, intr):
    n = len(matches)
    centroid = matches.points.mean(axis=0)
    radius = np.mean(np.linalg.norm(matches.points - centroid, axis=1))
    scale3d = np.sqrt(3.0) / max(radius, 1e-12)
    m = (matches.points - centroid) * scale3d
    a, b, _ = unproject_points(intr, matches.pixels, np.ones(n)).T
    rows = np.zeros((2 * n, 12))
    homog = np.column_stack([m, np.ones(n)])
    rows[0::2, 0:4] = homog
    rows[0::2, 8:12] = -a[:, None] * homog
    rows[1::2, 4:8] = homog
    rows[1::2, 8:12] = -b[:, None] * homog
    _, _, vt = np.linalg.svd(rows, full_matrices=False)
    p = vt[-1].reshape(3, 4)
    p = np.hstack([p[:, :3] * scale3d, (p[:, 3] - p[:, :3] @ (centroid * scale3d)).reshape(3, 1)])
    scale = np.mean(np.linalg.svd(p[:, :3], compute_uv=False))
    if scale < 1e-12:
        raise DegenerateConfiguration("DLT produced a rank-deficient projection")
    m = matches.points
    best = None
    first = 1.0 if np.linalg.det(p[:, :3]) > 0 else -1.0  # det > 0 first; it keeps ties
    for sign in (first, -first):
        mrot = sign * p[:, :3] / scale
        u, _, vt2 = np.linalg.svd(mrot)
        r = u @ np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ vt2))]) @ vt2
        t = sign * p[:, 3] / scale
        z = (m @ r.T + t)[:, 2]
        n_front = int(np.count_nonzero(z > 0))
        if best is None or n_front > best[0]:
            best = (n_front, r, t)
    _, r, t = best
    return Pose(Rotation.from_matrix(r), t)


def reference_pnp_jacobian(points, r_mat, q, intr):
    d_pixel = projection_jacobian(intr, q).transpose(1, 0, 2)
    jac = np.empty(d_pixel.shape[:2] + (6,))
    jac[..., :3] = np.cross(points, d_pixel @ r_mat)
    jac[..., 3:] = d_pixel
    return jac.reshape(-1, 6)


def reference_solve_pnp(matches, intr, max_iterations=50):
    n = len(matches)
    if n < 6:
        raise DegenerateConfiguration(f"PnP needs >= 6 matches, got {n}")
    spread = np.linalg.svd(matches.points - matches.points.mean(axis=0), compute_uv=False)
    if spread[1] < 1e-9 * max(spread[0], 1e-12):
        raise DegenerateConfiguration("3-D points are collinear")
    if spread[2] < 1e-8 * max(spread[0], 1e-12):
        raise DegenerateConfiguration("3-D points are coplanar")
    candidates = [reference_pnp_dlt(matches, intr), Pose.identity()]
    scored = [(reference_reprojection_rms(c, matches, intr), c) for c in candidates]
    rms, pose = min(scored, key=lambda rc: rc[0])
    if not np.isfinite(rms):
        raise NoConvergence("algebraic initialization leaves points behind the camera")
    history = [rms]
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        r_mat = pose.rotation.as_matrix()
        q = matches.points @ r_mat.T + pose.translation
        uv, _ = project_points(intr, q)
        res = (uv - matches.pixels).T.reshape(-1)
        jac = reference_pnp_jacobian(matches.points, r_mat, q, intr)
        jtj = jac.T @ jac
        jtr = jac.T @ res
        step = np.linalg.solve(jtj, -jtr)
        if np.linalg.norm(step) < mapgen.PNP_MIN_STEP:
            break
        improved = False
        for _ in range(12):
            cand = Pose(pose.rotation @ so3_exp(step[:3]), pose.translation + step[3:])
            cand_rms = reference_reprojection_rms(cand, matches, intr)
            if cand_rms <= rms:
                pose, rms = cand, cand_rms
                improved = True
                break
            step = 0.5 * step
            if np.linalg.norm(step) < mapgen.PNP_MIN_STEP:
                break
        history.append(rms)
        if not improved:
            break
        if np.linalg.norm(step) < mapgen.PNP_MIN_STEP:
            break
    else:
        if history[-6] - history[-1] > 1e-3 * max(history[-1], 1e-12):
            raise NoConvergence(f"PnP still descending after {max_iterations} iterations")
    return mapgen.PnPResult(pose=pose, rms_px=rms, iterations=iterations)


def assert_same_pose(a, b):
    np.testing.assert_array_equal(a.rotation.q, b.rotation.q)
    np.testing.assert_array_equal(a.translation, b.translation)


def view_problem(intr, rng, n, noise_px=0.0, angle_deg=3.0, shift_m=0.2):
    """Render-frame points seen from a camera turned by ``angle_deg`` and
    moved by ``shift_m``: the map compiler's problem, where the identity
    start wins."""
    pts = np.column_stack([rng.normal(0, 4, n), rng.normal(0, 2, n), rng.uniform(4, 60, n)])
    axis = rng.normal(0, 1, 3)
    view = Pose(so3_exp(np.deg2rad(angle_deg) * axis / np.linalg.norm(axis)), rng.normal(0, shift_m, 3))
    q = view.apply(pts)
    px = np.column_stack([intr.fx * q[:, 0] / q[:, 2] + intr.cx, intr.fy * q[:, 1] / q[:, 2] + intr.cy])
    return Matched3D2D(pts, px + rng.normal(0, noise_px, px.shape))


class TestCompilerKernelsBitwise:
    """The optimized kernels against the reference copies above: poses,
    RMS, iteration counts and inlier sets exactly equal."""

    def assert_same_pnp(self, matches, intr, **kwargs):
        res = solve_pnp(matches, intr, **kwargs)
        ref = reference_solve_pnp(matches, intr, **kwargs)
        assert_same_pose(res.pose, ref.pose)
        assert res.rms_px == ref.rms_px
        assert res.iterations == ref.iterations
        assert_same_pose(mapgen._pnp_dlt(matches, intr), reference_pnp_dlt(matches, intr))
        return ref

    FAR_SIZES = [11, 12, 17, 40, 150, 600, 2000]

    @pytest.mark.parametrize("n", FAR_SIZES)
    @pytest.mark.parametrize("noise_px", [0.0, 0.7])
    def test_pnp_far_start(self, intr, n, noise_px):
        # A random camera pose: the identity start is far off.
        rng = np.random.default_rng(1000 + n)
        matches, _ = pnp_problem(intr, rng, n=n, noise_px=noise_px)
        self.assert_same_pnp(matches, intr)

    def test_far_starts_are_won_by_the_dlt(self, intr):
        # test_pnp_far_start must run the solve from the DLT start.
        wins = 0
        for n in self.FAR_SIZES:
            for noise_px in (0.0, 0.7):
                matches, _ = pnp_problem(intr, np.random.default_rng(1000 + n), n=n, noise_px=noise_px)
                dlt = reference_pnp_dlt(matches, intr)
                wins += reference_reprojection_rms(dlt, matches, intr) < reference_reprojection_rms(
                    Pose.identity(), matches, intr
                )
        assert wins >= 10

    # (n, view angle deg, view shift m, pixel noise px): the map compiler's
    # problem, a small view change, and larger ones; some solves reject and
    # halve candidate steps.
    NEAR_CASES = [
        (11, 3, 0.2, 0.5), (30, 3, 0.2, 3.0), (300, 3, 0.2, 0.5), (1200, 3, 0.2, 0.5),
        (2000, 3, 0.2, 0.5), (1200, 10, 1.0, 0.5), (2000, 20, 2.0, 1.0), (300, 30, 3.0, 2.0),
    ]

    @pytest.mark.parametrize("n, angle_deg, shift_m, noise_px", NEAR_CASES)
    def test_pnp_near_start(self, intr, n, angle_deg, shift_m, noise_px):
        rng = np.random.default_rng(2000 + n)
        matches = view_problem(intr, rng, n, noise_px, angle_deg, shift_m)
        self.assert_same_pnp(matches, intr)

    def test_near_starts_halve_steps(self, intr, monkeypatch):
        # test_pnp_near_start must cover rejected, halved candidate steps:
        # after the two starts, a call scoring above the best RMS so far is one.
        scores = []

        def recording_rms(pose, m, intr_, reference=reference_reprojection_rms):
            scores.append(reference(pose, m, intr_))
            return scores[-1]

        monkeypatch.setitem(globals(), "reference_reprojection_rms", recording_rms)
        halving_solves = 0
        for n, angle_deg, shift_m, noise_px in self.NEAR_CASES:
            matches = view_problem(intr, np.random.default_rng(2000 + n), n, noise_px, angle_deg, shift_m)
            scores.clear()
            reference_solve_pnp(matches, intr)
            best = np.minimum.accumulate(scores)
            halving_solves += bool(np.any(np.array(scores[2:]) > best[1:-1]))
        assert halving_solves >= 4

    @pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
    def test_pnp_few_matches(self, intr, n):
        # Under 22 design rows the direct SVD runs, as it always did.
        for trial in range(4):
            rng = np.random.default_rng(3000 + 10 * n + trial)
            matches, _ = pnp_problem(intr, rng, n=n, noise_px=0.3 * trial)
            try:
                ref = reference_solve_pnp(matches, intr)
            except (DegenerateConfiguration, NoConvergence) as exc:
                with pytest.raises(type(exc)):
                    solve_pnp(matches, intr)
                continue
            res = solve_pnp(matches, intr)
            assert_same_pose(res.pose, ref.pose)
            assert (res.rms_px, res.iterations) == (ref.rms_px, ref.iterations)

    @pytest.mark.parametrize("n", [11, 100, 2000])
    def test_pnp_jacobian(self, intr, n):
        rng = np.random.default_rng(4000 + n)
        pose = random_pose(rng, t_scale=1.0, r_scale=0.3)
        points = rng.normal(0, 5, (n, 3))
        q = pose.apply(points)
        q[:, 2] = np.abs(q[:, 2]) + 1.0
        r_mat = pose.rotation.as_matrix()
        np.testing.assert_array_equal(
            mapgen._pnp_jacobian(points, r_mat, q, intr),
            reference_pnp_jacobian(points, r_mat, q, intr),
        )

    @pytest.mark.parametrize("n", [2, 11, 60, 500, 2000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ransac_with_outliers(self, intr, n, seed):
        rng = np.random.default_rng(5000 + n + seed)
        matches = view_problem(intr, rng, n, noise_px=0.5)
        pixels = matches.pixels.copy()
        n_out = n // 5
        pixels[:n_out] = rng.uniform([0, 0], [intr.width, intr.height], (n_out, 2))
        corrupted = Matched3D2D(matches.points, pixels)
        for threshold_px in (3.0, 10.0):
            kwargs = dict(threshold_px=threshold_px, seed=seed)
            try:
                ref = reference_rotation_ransac(corrupted, intr, **kwargs)
            except NoConsensus:
                with pytest.raises(NoConsensus):
                    rotation_ransac(corrupted, intr, **kwargs)
                continue
            kept = rotation_ransac(corrupted, intr, **kwargs)
            np.testing.assert_array_equal(kept.points, ref.points)
            np.testing.assert_array_equal(kept.pixels, ref.pixels)

    def test_ransac_pure_noise(self, intr):
        rng = np.random.default_rng(6000)
        pts = np.column_stack([rng.normal(0, 4, 80), rng.normal(0, 3, 80), rng.uniform(3, 50, 80)])
        px = rng.uniform([0, 0], [intr.width, intr.height], (80, 2))
        for seed in range(5):
            with pytest.raises(NoConsensus):
                reference_rotation_ransac(Matched3D2D(pts, px), intr, iterations=50, threshold_px=2.0, seed=seed)
            with pytest.raises(NoConsensus):
                rotation_ransac(Matched3D2D(pts, px), intr, iterations=50, threshold_px=2.0, seed=seed)

    def test_fit_rotation_both_reflections(self):
        rng = np.random.default_rng(7000)
        reflected = 0
        for k in range(200):
            n = 2 if k % 2 else 50
            src = rng.normal(0, 1, (n, 3))
            dst = src @ so3_exp(rng.normal(0, 0.5, 3)).as_matrix().T + rng.normal(0, 0.3, (n, 3))
            u, _, vt = np.linalg.svd(dst.T @ src)
            reflected += np.linalg.det(u @ vt) < 0
            assert_same_pose(
                Pose(mapgen._fit_rotation(src, dst), np.zeros(3)),
                Pose(reference_fit_rotation(src, dst), np.zeros(3)),
            )
        assert 0 < reflected < 200

    def test_parallel_bearings_at_threshold(self):
        rng = np.random.default_rng(8000)
        a = rng.normal(0, 1, 3)
        a /= np.linalg.norm(a)
        perp = np.cross(a, rng.normal(0, 1, 3))
        perp /= np.linalg.norm(perp)
        decided = set()
        for rel in (-1e-3, -1e-13, -1e-15, 0.0, 1e-15, 1e-13, 1e-3):
            for k in range(-20, 21):
                b = a + (1e-6 * (1.0 + rel) + k * 1e-22) * perp
                expected = bool(np.linalg.norm(np.cross(a, b)) < 1e-6)
                assert mapgen._parallel_bearings(a, b) == expected
                decided.add(expected)
        assert decided == {True, False}

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 100, 2000])
    def test_row_norms(self, n):
        rng = np.random.default_rng(9000 + n)
        v = rng.normal(0, 10, (n, 3)) * rng.uniform(1e-3, 1e3, (n, 1))
        np.testing.assert_array_equal(mapgen._row_norms(v), np.linalg.norm(v, axis=1))
