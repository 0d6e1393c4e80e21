"""End-to-end CLI flows: simulate -> localize -> eval, mapgen, error paths."""

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from topoloc import cli, scenario
from topoloc.cli import main
from topoloc.config import from_json
from topoloc.errors import GenerationError, InputError
from topoloc.ieskf import LocalizationFilter
from topoloc.io import CORRESPONDENCE_FILE, read_correspondences, read_ply
from topoloc.mapgen import PointCloud, rasterize
from topoloc.matching import CameraFrame, SyntheticMatcher
from topoloc.sim import build_reference_map, frame_times, gen_world
from topoloc.topomap import (
    DEPTH_FILE,
    NODE_SPACING_M,
    DepthImage,
    IntensityImage,
    load_map,
    write_node_pixels,
    write_pgm,
)

SCENARIO = {
    "trajectory": {
        "shape": "corridor-with-turns",
        "duration_s": 10.0,
        "speed_mps": 8.0,
        "imu_rate_hz": 200.0,
        "frame_rate_hz": 10.0,
        "seed": 5,
        "turns": [[30.0, 30.0, 4.0]],
    },
    "world": {"landmark_count": 1500},
    "noise": {
        "sigma_accel": 0.02,
        "sigma_gyro": 0.002,
        "bias_accel": [0.02, -0.01, 0.015],
        "bias_gyro": [0.001, -0.0005, 0.0008],
        "sigma_pixel": 1.0,
        "sigma_speed": 0.1,
        "outlier_fraction": 0.2,
    },
}


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scen = root / "scenario.json"
    scen.write_text(json.dumps(SCENARIO))
    out = root / "sim"
    assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 0
    return out


def localize_args(sim_dir, out_traj, extra=()):
    return [
        "localize",
        "--map", str(sim_dir / "map"),
        "--imu", str(sim_dir / "imu.csv"),
        "--speed", str(sim_dir / "speed.csv"),
        "--frames", str(sim_dir / "frames"),
        "--correspondences", str(sim_dir / "correspondences"),
        "--initial-pose", str(sim_dir / "initial_pose.tum"),
        "--config", str(sim_dir / "localize_config.json"),
        "--out-traj", str(out_traj),
        *extra,
    ]


def test_simulate_outputs_present(sim_dir):
    # exactly the files some command reads: a new output needs a reader
    written = {p.relative_to(sim_dir).as_posix() for p in sim_dir.rglob("*") if p.is_file()}
    assert written == {
        "scenario.json", "landmarks.ply", "imu.csv", "speed.csv",
        "ground_truth_frames.tum", "ground_truth_cam.tum",
        "initial_pose.tum", "initial_pose_cam.tum", "odometry_body.tum",
        "cam_to_base.json", "intrinsics.json", "localize_config.json",
        "map/manifest.json", f"map/{DEPTH_FILE}", "frames/index.csv",
        f"correspondences/{CORRESPONDENCE_FILE}",
    }


def test_simulate_then_localize_then_eval(sim_dir, tmp_path):
    est = tmp_path / "est.tum"
    diag = tmp_path / "diag.jsonl"
    code = main(localize_args(sim_dir, est, ["--out-diag", str(diag)]))
    assert code == 0
    assert est.exists()

    report_path = tmp_path / "ape.json"
    code = main([
        "eval",
        "--estimate", str(est),
        "--truth", str(sim_dir / "ground_truth_frames.tum"),
        "--out", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert set(report) == {"ape_t_m", "ape_r_rad", "lon_m", "lat_m", "n_pairs", "series"}
    assert report["ape_t_m"] < 0.2
    assert report["n_pairs"] > 0

    # diagnostics JSON-lines carry the documented keys
    lines = [json.loads(l) for l in diag.read_text().splitlines()]
    assert lines
    assert set(lines[0]) == {
        "t", "n_matches", "n_inliers", "iterations", "cost0", "cost_final",
        "n_features_used", "n_behind_camera", "converged", "step_rejected", "flags",
    }



def test_simulate_frames_dir_holds_only_the_index(sim_dir):
    # simulate renders no frame images: the index lists each frame's time and node
    assert [p.name for p in (sim_dir / "frames").iterdir()] == ["index.csv"]
    rows = (sim_dir / "frames" / "index.csv").read_text().splitlines()
    assert rows[0] == "frame,timestamp,node_id"
    n_nodes = len(json.loads((sim_dir / "map" / "manifest.json").read_text())["nodes"])
    for k, row in enumerate(rows[1:]):
        frame, t, node_id = row.split(",")
        assert int(frame) == k and float(t) == pytest.approx(0.1 * k)
        assert 0 <= int(node_id) < n_nodes


def test_simulate_rerun_byte_identical(tmp_path):
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(SCENARIO))
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 0
    files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) for out in runs]
    assert files[0] == files[1]
    assert {p.suffix for p in files[0]} >= {".ply", ".tum", ".csv", ".bin", ".json"}
    for rel in files[0]:
        assert (runs[0] / rel).read_bytes() == (runs[1] / rel).read_bytes(), rel


@pytest.mark.parametrize("failing_frames", [1, 2])
@pytest.mark.parametrize("error, code, prefix", [(InputError, 1, "error"), (GenerationError, 2, "runtime failure")])
def test_simulate_frame_failure_keeps_exit_code(tmp_path, monkeypatch, capsys, failing_frames, error, code, prefix):
    # the first failing frame's exception reaches the CLI as it was raised,
    # and no frame after it runs
    draw_matches = scenario.draw_matches
    refused = [42, 60][:failing_frames]
    calls = []

    def failing(*args, **kwargs):
        frame = len(calls)
        calls.append(frame)
        if frame in refused:
            raise error(f"frame {frame} refused")
        return draw_matches(*args, **kwargs)

    monkeypatch.setattr(scenario, "draw_matches", failing)
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(SCENARIO))
    assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == f"{prefix}: frame 42 refused\n"
    assert len(calls) == 43
    assert multiprocessing.active_children() == []


def shift_timestamps(src, dst, column, sep, skip, dt=100.0):
    """Copy ``src`` to ``dst`` with ``dt`` added to ``column`` of every row after ``skip``."""
    lines = src.read_text().splitlines()
    for i in range(skip, len(lines)):
        fields = lines[i].split(sep)
        fields[column] = f"{float(fields[column]) + dt:.9f}"
        lines[i] = sep.join(fields)
    dst.write_text("\n".join(lines) + "\n")


def test_localize_log_clock_starting_late(sim_dir, tmp_path):
    # Every timestamp 100 s later: the initialization window counts from the
    # first IMU row, so the run localizes the same frames.
    shifted = tmp_path / "shifted"
    (shifted / "frames").mkdir(parents=True)
    for name, column, sep, skip in (
        ("imu.csv", 0, ",", 1),
        ("speed.csv", 0, ",", 1),
        ("frames/index.csv", 1, ",", 1),
        ("initial_pose.tum", 0, " ", 0),
        ("ground_truth_frames.tum", 0, " ", 0),
    ):
        shift_timestamps(sim_dir / name, shifted / name, column, sep, skip)
    base, est = tmp_path / "base.tum", tmp_path / "est.tum"
    assert main(localize_args(sim_dir, base)) == 0
    args = localize_args(sim_dir, est)
    for flag, name in (
        ("--imu", "imu.csv"), ("--speed", "speed.csv"),
        ("--frames", "frames"), ("--initial-pose", "initial_pose.tum"),
    ):
        args[args.index(flag) + 1] = str(shifted / name)
    assert main(args) == 0
    n_frames = len(base.read_text().splitlines())
    assert len(est.read_text().splitlines()) == n_frames
    report = tmp_path / "ape.json"
    assert main([
        "eval", "--estimate", str(est),
        "--truth", str(shifted / "ground_truth_frames.tum"), "--out", str(report),
    ]) == 0
    rep = json.loads(report.read_text())
    assert rep["n_pairs"] == n_frames
    assert rep["ape_t_m"] < 0.10 and rep["ape_r_rad"] < 0.01  # criterion 3's bounds

def test_localize_reproducible_byte_identical(sim_dir, tmp_path):
    a, b = tmp_path / "a.tum", tmp_path / "b.tum"
    assert main(localize_args(sim_dir, a)) == 0
    assert main(localize_args(sim_dir, b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_no_speed_flag_changes_output(sim_dir, tmp_path):
    # leaving out --speed is the one way to run without speed
    with_speed = tmp_path / "ws.tum"
    no_speed = tmp_path / "ns.tum"
    assert main(localize_args(sim_dir, with_speed)) == 0
    args = localize_args(sim_dir, no_speed)
    i = args.index("--speed")
    del args[i : i + 2]
    assert main(args) == 0
    assert with_speed.read_bytes() != no_speed.read_bytes()


@pytest.mark.parametrize(
    "command, flag, fault",
    [
        ("localize", "--out-traj", "directory"),
        ("localize", "--out-diag", "directory"),
        ("localize", "--out-traj", "no_parent"),
        ("localize", "--out-diag", "no_parent"),
        ("mapgen", "--out", "file"),
        ("mapgen", "--out", "file_parent"),
        ("eval", "--out", "directory"),
        ("simulate", "--out", "file"),
    ],
)
def test_unwritable_output_exits_1_before_the_run(
    sim_dir, tmp_path, capsys, monkeypatch, command, flag, fault
):
    def never(*args, **kwargs):
        raise AssertionError("the run started before its outputs were checked")

    monkeypatch.setattr(cli, "run_localization", never)
    monkeypatch.setattr(cli, "generate_map", never)
    monkeypatch.setattr(cli, "ape", never)
    monkeypatch.setattr(cli, "write_scenario_outputs", never)
    est = tmp_path / "est.tum"
    if command == "localize":
        args = localize_args(sim_dir, est, ["--out-diag", str(tmp_path / "d.jsonl")])
    elif command == "eval":
        truth = str(sim_dir / "ground_truth_frames.tum")
        args = ["eval", "--estimate", truth, "--truth", truth, "--out", ""]
    elif command == "simulate":
        args = ["simulate", "--scenario", str(sim_dir / "scenario.json"), "--out", ""]
    else:
        args = mapgen_args(sim_dir, tmp_path / "genmap")
    bad = {
        "directory": tmp_path,
        "no_parent": tmp_path / "nodir" / "x",
        "file": tmp_path / "afile",
        "file_parent": tmp_path / "afile" / "genmap",
    }[fault]
    (tmp_path / "afile").write_text("")
    args[args.index(flag) + 1] = str(bad)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} {bad}: ") and err.count("\n") == 1
    assert not est.exists() and not (tmp_path / "d.jsonl").exists()


def test_mapgen_cli(sim_dir, tmp_path):
    out = tmp_path / "genmap"
    code = main([
        "mapgen",
        "--cloud", str(sim_dir / "landmarks.ply"),
        "--frames", str(sim_dir / "frames"),
        "--odometry", str(sim_dir / "odometry_body.tum"),
        "--initial-pose", str(sim_dir / "initial_pose_cam.tum"),
        "--intrinsics", str(sim_dir / "intrinsics.json"),
        "--cam-to-base", str(sim_dir / "cam_to_base.json"),
        "--truth-cam", str(sim_dir / "ground_truth_cam.tum"),
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "manifest.json").exists()
    report = json.loads((out / "mapgen_report.json").read_text())
    accepted = [r for r in report if r["accepted"]]
    assert len(accepted) >= 0.95 * len(report)


def mapgen_args(sim_dir, out, frames=None, cam_to_base=None):
    return [
        "mapgen",
        "--cloud", str(sim_dir / "landmarks.ply"),
        "--frames", str(frames or sim_dir / "frames"),
        "--odometry", str(sim_dir / "odometry_body.tum"),
        "--initial-pose", str(sim_dir / "initial_pose_cam.tum"),
        "--intrinsics", str(sim_dir / "intrinsics.json"),
        "--cam-to-base", str(cam_to_base or sim_dir / "cam_to_base.json"),
        "--truth-cam", str(sim_dir / "ground_truth_cam.tum"),
        "--out", str(out),
    ]


def test_mapgen_nodes_store_the_render_at_their_pose(sim_dir, tmp_path):
    # a compiled node's intensity and depth are one render of the cloud at its
    # pose, at the pixels the render writes; the render is 0 everywhere else
    out = tmp_path / "genmap"
    assert main(mapgen_args(sim_dir, out)) == 0
    cloud = PointCloud(*read_ply(sim_dir / "landmarks.ply"))
    topo_map = load_map(out)
    accepted = [r for r in json.loads((out / "mapgen_report.json").read_text()) if r["accepted"]]
    assert len(topo_map) == len(accepted) > 0
    for node in topo_map.nodes:
        inten, depth = rasterize(cloud, node.pose, topo_map.intrinsics)
        assert np.array_equal(node.depth.index, depth.index)
        assert np.array_equal(node.depth.depth, depth.depth)
        assert np.array_equal(node.intensity, inten.data.reshape(-1)[node.depth.index])
        assert not np.delete(inten.data.reshape(-1), node.depth.index).any()


def test_recording_equals_the_live_matcher(sim_dir):
    # simulate stores the ground-truth matcher's pixels unchanged, so the
    # replay gives every frame the live matcher's pairs bit for bit
    cfg = from_json(scenario.ScenarioConfig, SCENARIO, "scenario")
    intr, extr = cfg.camera.intrinsics, cfg.camera.imu_to_cam
    world = gen_world(cfg.trajectory, cfg.world.landmark_count, cfg.world.corridor)
    nodes = build_reference_map(world, intr, NODE_SPACING_M, extr).nodes
    ft = frame_times(world)
    live = SyntheticMatcher(
        world.point_cloud().points,
        {t: pose @ extr.inverse() for t, pose in zip(ft.tolist(), world.poses_at(ft))},
        intr,
        sigma_px=cfg.noise.sigma_pixel,
        outlier_fraction=cfg.noise.outlier_fraction,
        seed=cfg.matcher_seed,
    )
    index = sim_dir / "frames" / "index.csv"
    recorded, frames = scenario.load_recorded_matcher(sim_dir / "correspondences", index)
    _, node_ids = scenario.read_frame_index(index)
    assert len(frames) == len(ft)
    for frame, node_id in zip(frames, node_ids):
        want = live.match(CameraFrame(frame.timestamp), nodes[node_id])
        got = recorded.match(frame, nodes[node_id])
        assert got.cur.tobytes() == want.cur.tobytes(), frame.timestamp
        assert got.node.tobytes() == want.node.tobytes(), frame.timestamp


@pytest.mark.skipif(sys.platform != "linux", reason="counts the entries of /proc/self/fd")
def test_mapped_inputs_hold_descriptors_only_before_python_3_13(sim_dir):
    # the map's node file and the correspondence file stay mapped for the run;
    # before 3.13 each mapping keeps a duplicate of its file's descriptor open
    before = len(os.listdir("/proc/self/fd"))
    topo_map = load_map(sim_dir / "map")
    matcher, _ = scenario.load_recorded_matcher(sim_dir / "correspondences", sim_dir / "frames" / "index.csv")
    held = len(os.listdir("/proc/self/fd")) - before
    assert held == (0 if sys.version_info >= (3, 13) else 2)
    del topo_map, matcher


def odometry_args(sim_dir, out, odometry):
    args = mapgen_args(sim_dir, out)
    args[args.index("--odometry") + 1] = str(odometry)
    return args


def test_mapgen_frame_without_odometry_row_exits_1(sim_dir, tmp_path, capsys):
    # 50 odometry rows for 100 frames: frame 50 has none, and no work starts
    rows = (sim_dir / "odometry_body.tum").read_text().splitlines(keepends=True)
    odo = tmp_path / "odometry.tum"
    odo.write_text("".join(rows[:50]))
    out = tmp_path / "genmap"
    assert main(odometry_args(sim_dir, out, odo)) == 1
    t = rows[50].split()[0]
    assert capsys.readouterr().err == f"error: {odo}: no odometry row at frame timestamp {t}\n"
    assert not out.exists()


def test_mapgen_pairs_odometry_rows_with_frames_by_timestamp(sim_dir, tmp_path):
    # an odometry row between every two frames changes no byte of the bundle
    rows = (sim_dir / "odometry_body.tum").read_text().splitlines(keepends=True)
    odo = tmp_path / "odometry.tum"
    odo.write_text("".join(f"{r}{float(r.split()[0]) + 0.05:.9f} 1 2 3 0 0 0 1\n" for r in rows))
    plain, dense = tmp_path / "plain", tmp_path / "dense"
    assert main(mapgen_args(sim_dir, plain)) == 0
    assert main(odometry_args(sim_dir, dense, odo)) == 0
    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in dense.iterdir())
    for name in names:
        assert (plain / name).read_bytes() == (dense / name).read_bytes(), name


def test_mapgen_with_no_accepted_frame_exits_2(sim_dir, tmp_path, capsys):
    # true camera poses stamped between the frames: the ground-truth matcher
    # has no pose for any frame
    truth = tmp_path / "truth_cam.tum"
    rows = (sim_dir / "ground_truth_cam.tum").read_text().splitlines()
    truth.write_text("".join(f"{float(r.split()[0]) + 0.05:.9f} {r.split(' ', 1)[1]}\n" for r in rows))
    out = tmp_path / "genmap"
    args = mapgen_args(sim_dir, out)
    args[args.index("--truth-cam") + 1] = str(truth)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: no frame accepted")
    assert "frame 0: MatcherFailure: no ground-truth pose for t=" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_mapgen_correspondences_flag_exits_1(sim_dir, tmp_path, capsys):
    out = tmp_path / "genmap"
    args = mapgen_args(sim_dir, out) + ["--correspondences", str(sim_dir / "correspondences")]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 1
    assert "unrecognized arguments: --correspondences" in capsys.readouterr().err
    assert not out.exists()


def test_mapgen_without_truth_cam_exits_1(sim_dir, tmp_path, capsys):
    out = tmp_path / "genmap"
    args = mapgen_args(sim_dir, out)
    i = args.index("--truth-cam")
    del args[i : i + 2]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 1
    assert "the following arguments are required: --truth-cam" in capsys.readouterr().err
    assert not out.exists()


def test_mapgen_non_finite_cloud_exits_1(sim_dir, tmp_path, capsys):
    cloud = tmp_path / "cloud.ply"
    cloud.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n1 2 nan\n"
    )
    out = tmp_path / "genmap"
    args = mapgen_args(sim_dir, out)
    args[args.index("--cloud") + 1] = str(cloud)
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {cloud}: non-finite vertex values\n"
    assert not out.exists()


def test_localize_reads_no_frame_images(sim_dir, tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    shutil.copy(sim_dir / "frames" / "index.csv", frames / "index.csv")
    with_images, without = tmp_path / "with.tum", tmp_path / "without.tum"
    assert main(localize_args(sim_dir, with_images)) == 0
    args = localize_args(sim_dir, without)
    args[args.index("--frames") + 1] = str(frames)
    assert main(args) == 0
    assert without.read_bytes() == with_images.read_bytes()


def node0_map(sim_dir, dst, n_nodes=1):
    """A bundle of ``n_nodes`` nodes, each node 0 of the simulated map: its
    depths and intensities copies of node 0's, its timestamps 1 s apart."""
    manifest = json.loads((sim_dir / "map" / "manifest.json").read_text())
    node0 = next(e for e in manifest["nodes"] if e["id"] == 0)
    manifest["nodes"] = [{**node0, "id": i, "timestamp": node0["timestamp"] + i} for i in range(n_nodes)]
    dst.mkdir()
    (dst / "manifest.json").write_text(json.dumps(manifest))
    node = load_map(sim_dir / "map").nodes[0]
    pixels = [(node.depth, node.intensity)] * n_nodes
    write_node_pixels(dst / DEPTH_FILE, pixels, node.depth.width, node.depth.height)
    return dst


def depth_file_bytes(tmp_path, depths, like: DepthImage) -> bytes:
    """The node file that holds ``depths``, (index, depth) pairs of images the
    size of ``like``, at intensity 1."""
    path = tmp_path / "depths.bin"
    pixels = [(DepthImage(like.width, like.height, *d), np.ones(len(d[0]), np.uint8)) for d in depths]
    write_node_pixels(path, pixels, like.width, like.height)
    return path.read_bytes()


@pytest.mark.parametrize(
    "name, fault",
    [
        (DEPTH_FILE, "empty"),
        (DEPTH_FILE, "header cut"),
        (DEPTH_FILE, "magic"),
        (DEPTH_FILE, "short"),
        (DEPTH_FILE, "long"),
        (DEPTH_FILE, "directory"),
        (DEPTH_FILE, "unsorted index"),
        (DEPTH_FILE, "index out of range"),
        (DEPTH_FILE, "depth zero"),
        (DEPTH_FILE, "depth nan"),
        (DEPTH_FILE, "node count"),
    ],
)
def test_malformed_node_file_exits_1(sim_dir, tmp_path, capsys, name, fault):
    bad_map = node0_map(sim_dir, tmp_path / "map")
    bad = bad_map / name
    raw = bad.read_bytes()
    bad.unlink()
    if fault == "directory":
        bad.mkdir()
    elif fault in ("empty", "header cut", "magic", "short", "long"):
        bad.write_bytes(
            {"empty": b"", "header cut": raw[:7], "magic": b"XY" + raw[2:],
             "short": raw[:-1], "long": raw + b"\0"}[fault]
        )
    else:  # a well-formed depth file whose content fails one check
        d0 = load_map(sim_dir / "map").nodes[0].depth
        index, depth = d0.index.copy(), d0.depth.copy()
        if fault == "unsorted index":
            index[[3, 4]] = index[[4, 3]]
        elif fault == "index out of range":
            index[-1] = d0.width * d0.height
        elif fault == "depth zero":
            depth[-1] = 0.0
        elif fault == "depth nan":
            depth[0] = np.nan
        n_nodes = 2 if fault == "node count" else 1
        bad.write_bytes(depth_file_bytes(tmp_path, [(index, depth)] * n_nodes, d0))
    args = localize_args(sim_dir, tmp_path / "x.tum")
    args[args.index("--map") + 1] = str(bad_map)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert not (tmp_path / "x.tum").exists()


@pytest.mark.parametrize(
    "fault, message",
    [
        ("missing", "cannot read"),
        ("directory", "cannot read"),
        ("empty", "not a version 2 b'TCOR' file"),
        ("header cut", "not a version 2 b'TCOR' file"),
        ("magic", "not a version 2 b'TCOR' file"),
        ("version", "not a version 2 b'TCOR' file"),
        ("short", "not offsets rising from 0 and 32 per entry"),
        ("long", "not offsets rising from 0 and 32 per entry"),
        ("falling offsets", "not offsets rising from 0 and 32 per entry"),
        ("nan", "a stored pixel coordinate is not finite"),
        ("inf", "a stored pixel coordinate is not finite"),
        ("frame count", "no header and offsets for 99 frames, one per frame index row"),
    ],
)
def test_malformed_correspondence_file_exits_1(sim_dir, tmp_path, capsys, fault, message):
    corr = tmp_path / "correspondences"
    corr.mkdir()
    bad = corr / CORRESPONDENCE_FILE
    raw = (sim_dir / "correspondences" / CORRESPONDENCE_FILE).read_bytes()
    args = localize_args(sim_dir, tmp_path / "x.tum")
    args[args.index("--correspondences") + 1] = str(corr)
    n_frames = int.from_bytes(raw[8:12], "little")
    table = 16 + 4 * n_frames
    payload = table + -table % 8  # zero bytes pad the offsets to a multiple of 8
    assert raw[table:payload] == bytes(payload - table)
    offsets = np.frombuffer(raw[12:table], "<u4").copy()
    if fault == "directory":
        bad.mkdir()
    elif fault == "falling offsets":
        offsets[1] = offsets[2] + 1
        bad.write_bytes(raw[:12] + offsets.tobytes() + raw[table:])
    elif fault in ("nan", "inf"):
        row = int(offsets[n_frames // 2])  # a pair in the middle frame: its node v
        at = payload + 16 * (offsets[-1] + row) + 8
        bad.write_bytes(raw[:at] + np.array([float(fault)], "<f8").tobytes() + raw[at + 8 :])
    elif fault == "frame count":  # the index lists one frame less than the file
        bad.write_bytes(raw)
        frames = tmp_path / "frames"
        frames.mkdir()
        rows = (sim_dir / "frames" / "index.csv").read_text().splitlines(keepends=True)
        (frames / "index.csv").write_text("".join(rows[:-1]))
        args[args.index("--frames") + 1] = str(frames)
    elif fault != "missing":
        bad.write_bytes(
            {"empty": b"", "header cut": raw[:7], "magic": b"XCOR" + raw[4:],
             "version": raw[:4] + b"\1\0\0\0" + raw[8:], "short": raw[:-1], "long": raw + b"\0"}[fault]
        )
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "x.tum").exists()


def test_non_finite_last_frame_exits_1_before_any_frame(sim_dir, tmp_path, capsys, monkeypatch):
    # the whole file is checked before the first frame, though the replay maps it
    def refuse(*args):
        raise AssertionError("a frame was processed")

    monkeypatch.setattr(LocalizationFilter, "process_frame", refuse)
    good = sim_dir / "correspondences" / CORRESPONDENCE_FILE
    raw = good.read_bytes()
    pairs, _ = read_correspondences(good, int.from_bytes(raw[8:12], "little"))
    assert len(pairs[-1][1]) > 0  # the file ends in the last frame's node pixels
    corr = tmp_path / "correspondences"
    corr.mkdir()
    (corr / CORRESPONDENCE_FILE).write_bytes(raw[:-8] + np.array([np.nan], "<f8").tobytes())
    args = localize_args(sim_dir, tmp_path / "x.tum")
    args[args.index("--correspondences") + 1] = str(corr)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"error: {corr / CORRESPONDENCE_FILE}: a stored pixel coordinate is not finite\n"
    assert not (tmp_path / "x.tum").exists()


def test_mapgen_opens_no_correspondence_file(sim_dir, tmp_path, monkeypatch):
    # mapgen reads the frame index only; the matches come from its own matcher
    def refuse(*args):
        raise AssertionError("mapgen read recorded correspondences")

    monkeypatch.setattr(scenario, "read_correspondences", refuse)
    assert main(mapgen_args(sim_dir, tmp_path / "genmap")) == 0


@pytest.mark.parametrize("limit", ["hard"])
def test_descriptor_limit(sim_dir, tmp_path, limit):
    # a loaded map opens no file per node (its one node file is mapped), so
    # 80 nodes localize under a hard limit of 64 open files
    args = localize_args(sim_dir, tmp_path / "x.tum")
    args[args.index("--map") + 1] = str(node0_map(sim_dir, tmp_path / "map", n_nodes=80))
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_NOFILE, (64, 64)); "
        "from topoloc.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "x.tum").exists()


def test_version_2_map_exits_1(sim_dir, tmp_path, capsys):
    # a version 2 bundle stored each node's intensity as a dense image_<id>.pgm
    bad_map = tmp_path / "map"
    shutil.copytree(sim_dir / "map", bad_map)
    for node in load_map(bad_map).nodes:
        image = np.zeros((node.depth.height, node.depth.width), np.uint8)
        image.reshape(-1)[node.depth.index] = node.intensity
        write_pgm(bad_map / f"image_{node.node_id}.pgm", IntensityImage(image))
    bad = bad_map / "manifest.json"
    manifest = json.loads(bad.read_text())
    bad.write_text(json.dumps({**manifest, "version": 2}))
    args = localize_args(sim_dir, tmp_path / "x.tum")
    args[args.index("--map") + 1] = str(bad_map)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: version 2, expected 3; ") and err.count("\n") == 1
    assert "topoloc simulate" in err and "topoloc mapgen" in err
    assert not (tmp_path / "x.tum").exists()


def test_missing_map_dir_exits_1(sim_dir, tmp_path, capsys):
    args = localize_args(sim_dir, tmp_path / "x.tum")
    args[args.index("--map") + 1] = str(tmp_path / "no_such_map")
    assert main(args) == 1
    assert "no_such_map" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("localize", "--config"),
        ("localize", "--imu"),
        ("localize", "--out-traj"),
        ("mapgen", "--cloud"),
        ("eval", "--truth"),
        ("simulate", "--out"),
    ],
)
def test_path_of_the_wrong_kind_exits_1(sim_dir, tmp_path, capsys, command, flag):
    # a directory where a file belongs; for simulate's --out, a file where a directory belongs
    wrong = tmp_path / "wrong"
    if command == "simulate":
        wrong.write_text("")
        args = ["simulate", "--scenario", str(sim_dir / "scenario.json"), "--out", ""]
    elif command == "eval":
        truth = str(sim_dir / "ground_truth_frames.tum")
        args = ["eval", "--estimate", truth, "--truth", "", "--out", str(tmp_path / "ape.json")]
    elif command == "mapgen":
        args = mapgen_args(sim_dir, tmp_path / "genmap")
    else:
        args = localize_args(sim_dir, tmp_path / "x.tum")
    if command != "simulate":
        wrong.mkdir()
    args[args.index(flag) + 1] = str(wrong)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert str(wrong) in err


ID_FAULT = "the ids must be the integers 0..{last}, each once"


@pytest.mark.parametrize(
    "node_id, timestamp, message",
    [
        ("a", 1.0, "node 'a': " + ID_FAULT),
        (True, 1.0, "node True: " + ID_FAULT),
        ("n", 1.0, "node {n}: " + ID_FAULT),
        (0, 1.0, "node 0: " + ID_FAULT),
        (1, "x", "node 1: 'timestamp' 'x' is not a finite number"),
        (1, float("nan"), "node 1: 'timestamp' nan is not a finite number"),
    ],
    ids=["str_id", "bool_id", "id_past_the_last", "id_twice", "str_timestamp", "nan_timestamp"],
)
def test_malformed_manifest_node_exits_1(sim_dir, tmp_path, capsys, node_id, timestamp, message):
    # node 1 of a copied bundle gets the id and timestamp; id 0 is node 0's too
    manifest = json.loads((sim_dir / "map" / "manifest.json").read_text())
    n = len(manifest["nodes"])
    manifest["nodes"][1].update(id=n if node_id == "n" else node_id, timestamp=timestamp)
    bad_map = tmp_path / "map"
    shutil.copytree(sim_dir / "map", bad_map)
    bad = bad_map / "manifest.json"
    bad.write_text(json.dumps(manifest))
    args = localize_args(sim_dir, tmp_path / "x.tum")
    args[args.index("--map") + 1] = str(bad_map)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert message.format(n=n, last=n - 1) in err


def test_nan_speed_row_exits_1(sim_dir, tmp_path, capsys):
    rows = (sim_dir / "speed.csv").read_text().splitlines()
    rows[5] = rows[5].split(",")[0] + ",nan"
    bad = tmp_path / "speed.csv"
    bad.write_text("\n".join(rows) + "\n")
    args = localize_args(sim_dir, tmp_path / "x.tum")
    args[args.index("--speed") + 1] = str(bad)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{bad}:6" in err


def test_out_of_order_imu_row_exits_1(sim_dir, tmp_path, capsys):
    rows = (sim_dir / "imu.csv").read_text().splitlines()
    rows[100], rows[101] = rows[101], rows[100]
    bad = tmp_path / "imu.csv"
    bad.write_text("\n".join(rows) + "\n")
    args = localize_args(sim_dir, tmp_path / "x.tum")
    args[args.index("--imu") + 1] = str(bad)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{bad}:102" in err


def test_eval_disjoint_ranges_exits_1(sim_dir, tmp_path, capsys):
    shifted = tmp_path / "shifted.tum"
    rows = (sim_dir / "ground_truth_frames.tum").read_text().splitlines()
    shifted.write_text(
        "\n".join(f"{float(r.split()[0]) + 1e6} " + " ".join(r.split()[1:]) for r in rows)
    )
    code = main([
        "eval",
        "--estimate", str(shifted),
        "--truth", str(sim_dir / "ground_truth_frames.tum"),
        "--out", str(tmp_path / "ape.json"),
    ])
    assert code == 1


def test_eval_non_utf8_trajectory_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.tum"
    bad.write_bytes(b"\xff\xfe\n")
    code = main(["eval", "--estimate", str(bad), "--truth", str(bad), "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (invalid start byte)\n"
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("max_dt", ["nan", "-1", "-inf"])
def test_eval_bad_max_dt_exits_1_before_reading(tmp_path, monkeypatch, capsys, max_dt):
    # the flag is named before either trajectory is read
    def unread(path):
        raise AssertionError(f"read_tum({path}) called")

    monkeypatch.setattr(cli, "read_tum", unread)
    out = tmp_path / "ape.json"
    assert main(["eval", "--estimate", "e.tum", "--truth", "t.tum", "--out", str(out), f"--max-dt={max_dt}"]) == 1
    assert capsys.readouterr().err == f"error: --max-dt: must be non-negative, got {float(max_dt)}\n"
    assert not out.exists()


def test_eval_max_dt_inf_is_no_limit(sim_dir, tmp_path):
    truth = str(sim_dir / "ground_truth_frames.tum")
    out = tmp_path / "ape.json"
    assert main(["eval", "--estimate", truth, "--truth", truth, "--out", str(out), "--max-dt", "inf"]) == 0
    report = json.loads(out.read_text())
    assert report["n_pairs"] == len((sim_dir / "ground_truth_frames.tum").read_text().splitlines())
    assert report["ape_t_m"] == 0.0


@pytest.mark.parametrize("flag", ["--imu", "--speed", "--initial-pose", "index.csv", "--config"])
def test_localize_non_utf8_input_exits_1(sim_dir, tmp_path, capsys, flag):
    # a byte that is not UTF-8, after valid text, in each text input localize reads
    args = localize_args(sim_dir, tmp_path / "x.tum")
    if flag == "index.csv":
        bad = tmp_path / "frames" / "index.csv"
        bad.parent.mkdir()
        shutil.copy(sim_dir / "frames" / "index.csv", bad)
        args[args.index("--frames") + 1] = str(bad.parent)
    else:
        bad = tmp_path / Path(args[args.index(flag) + 1]).name
        args[args.index(flag) + 1] = str(bad)
        shutil.copy(sim_dir / bad.name, bad)
    bad.write_bytes(bad.read_bytes() + b"1,\xe9\n")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.endswith("invalid continuation byte)\n")
    assert err.count("\n") == 1 and not (tmp_path / "x.tum").exists()


def test_mapgen_non_utf8_index_exits_1(sim_dir, tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    bad = frames / "index.csv"
    bad.write_bytes((sim_dir / "frames" / "index.csv").read_bytes() + b"1,\xe9\n")
    out = tmp_path / "genmap"
    assert main(mapgen_args(sim_dir, out, frames=frames)) == 1
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (invalid continuation byte)\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["imu header only", "imu one row", "empty index"])
def test_empty_input_exits_1(sim_dir, tmp_path, capsys, kind):
    # too few IMU rows for the filter, or a frame index that lists no frame,
    # is an input error naming the file, raised before any output is made
    if kind == "empty index":
        bad = tmp_path / "frames" / "index.csv"
        bad.parent.mkdir()
        bad.write_text("frame,timestamp,node_id\n")
        out = tmp_path / "genmap"
        args = mapgen_args(sim_dir, out, frames=bad.parent)
        message = "no frame listed"
    else:
        bad = tmp_path / "imu.csv"
        rows = (sim_dir / "imu.csv").read_text().splitlines(keepends=True)
        bad.write_text("".join(rows[: 1 if kind == "imu header only" else 2]))
        out = tmp_path / "x.tum"
        args = localize_args(sim_dir, out)
        args[args.index("--imu") + 1] = str(bad)
        message = "the filter needs at least two"
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and message in err and err.count("\n") == 1
    assert not out.exists()


def test_eval_backward_timestamp_exits_1(sim_dir, tmp_path, capsys):
    bad = tmp_path / "backward.tum"
    bad.write_text("".join(f"{t} 0 0 0 0 0 0 1\n" for t in ("0.0", "0.2", "0.1")))
    code = main([
        "eval",
        "--estimate", str(bad),
        "--truth", str(sim_dir / "ground_truth_frames.tum"),
        "--out", str(tmp_path / "ape.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:3: trajectory timestamp 0.1 does not follow")
    assert "Traceback" not in err


def test_unknown_config_key_rejected(sim_dir, tmp_path, capsys):
    cfg = json.loads((sim_dir / "localize_config.json").read_text())
    cfg["not_a_real_key"] = 1
    bad = tmp_path / "bad_config.json"
    bad.write_text(json.dumps(cfg))
    args = localize_args(sim_dir, tmp_path / "x.tum")
    args[args.index("--config") + 1] = str(bad)
    assert main(args) == 1
    assert "not_a_real_key" in capsys.readouterr().err


def test_unknown_scenario_key_rejected(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"trajectory": {"shape": "circle", "warp_drive": 9}}))
    assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "o")]) == 1


def test_bad_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["localize", "--definitely-not-a-flag"])
    assert exc.value.code == 1


def malformed_index(sim_dir, frames, fault) -> int:
    """Write to ``frames`` the simulated frame index with ``fault`` in one
    row; returns that row's line number."""
    rows = (sim_dir / "frames" / "index.csv").read_text().splitlines()
    fields = rows[3].split(",")  # line 4
    bad_line = 4
    if fault == "field_count":
        rows[3] = ",".join(fields[:2])
    elif fault == "timestamp":
        rows[3] = ",".join([fields[0], "0.3s", fields[2]])
    elif fault == "node_id":
        rows[3] = ",".join([*fields[:2], "n1"])
    elif fault == "nan":
        rows[3] = ",".join([fields[0], "nan", fields[2]])
    elif fault == "inf_last":
        fields = rows[-1].split(",")
        rows[-1] = ",".join([fields[0], "inf", fields[2]])
        bad_line = len(rows)
    else:
        rows[3], rows[4] = rows[4], rows[3]
        bad_line = 5
    frames.mkdir()
    (frames / "index.csv").write_text("\n".join(rows) + "\n")
    return bad_line


@pytest.mark.parametrize("fault", ["field_count", "timestamp", "node_id", "order", "nan", "inf_last"])
def test_malformed_frames_index_exits_1(sim_dir, tmp_path, capsys, fault):
    frames = tmp_path / "frames"
    bad_line = malformed_index(sim_dir, frames, fault)
    args = localize_args(sim_dir, tmp_path / "x.tum")
    args[args.index("--frames") + 1] = str(frames)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{frames / 'index.csv'}:{bad_line}:" in err
    if fault in ("nan", "inf_last"):
        assert err.endswith(f":{bad_line}: non-finite value in frame index row\n")


def test_mapgen_non_finite_frame_timestamp_exits_1(sim_dir, tmp_path, capsys):
    frames = tmp_path / "frames"
    bad_line = malformed_index(sim_dir, frames, "inf_last")
    out = tmp_path / "genmap"
    assert main(mapgen_args(sim_dir, out, frames=frames)) == 1
    err = capsys.readouterr().err
    assert err == f"error: {frames / 'index.csv'}:{bad_line}: non-finite value in frame index row\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "where, key",
    [
        ("manifest", "intrinsics"),
        ("node", "id"),
        ("node", "timestamp"),
        ("node", "t"),
        ("node", "q"),
        ("config", "intrinsics"),
        ("config", "imu_to_cam"),
    ],
)
def test_missing_json_key_exits_1(sim_dir, tmp_path, capsys, where, key):
    args = localize_args(sim_dir, tmp_path / "x.tum")
    if where == "config":
        cfg = json.loads((sim_dir / "localize_config.json").read_text())
        del cfg[key]
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps(cfg))
        args[args.index("--config") + 1] = str(bad)
    else:
        manifest = json.loads((sim_dir / "map" / "manifest.json").read_text())
        del (manifest if where == "manifest" else manifest["nodes"][1])[key]
        bad_map = tmp_path / "map"
        bad_map.mkdir()
        bad = bad_map / "manifest.json"
        bad.write_text(json.dumps(manifest))
        args[args.index("--map") + 1] = str(bad_map)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{bad}: missing key '{key}'" in err


@pytest.mark.parametrize(
    "shape, message",
    [
        ("list", "the manifest must be a JSON object, got list"),
        ("nodes", "'nodes' must be a list, got int"),
        ("entry", "each entry of 'nodes' must be an object, got str"),
    ],
)
def test_malformed_manifest_shape_exits_1(sim_dir, tmp_path, capsys, shape, message):
    manifest = json.loads((sim_dir / "map" / "manifest.json").read_text())
    if shape == "list":
        manifest = [1]
    elif shape == "nodes":
        manifest["nodes"] = 5
    else:
        manifest["nodes"][1] = "node"
    bad_map = tmp_path / "map"
    bad_map.mkdir()
    bad = bad_map / "manifest.json"
    bad.write_text(json.dumps(manifest))
    args = localize_args(sim_dir, tmp_path / "x.tum")
    args[args.index("--map") + 1] = str(bad_map)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "row, message",
    [
        ("0.0 0 0 0 0 0 0 0", "quaternion has zero norm"),
        ("0.0 abc 0 0 0 0 0 1", "malformed trajectory row"),
        ("0.0 0 nan 0 0 0 0 1", "non-finite value"),
    ],
)
def test_malformed_initial_pose_exits_1(sim_dir, tmp_path, capsys, row, message):
    bad = tmp_path / "initial_pose.tum"
    bad.write_text("# t x y z qx qy qz qw\n" + row + "\n")
    args = localize_args(sim_dir, tmp_path / "x.tum")
    args[args.index("--initial-pose") + 1] = str(bad)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:2: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "where, key, value",
    [
        ("config", "q_xyzw", [0.0, 0.0, 1.0]),
        ("config", "t", [0.1, 0.2]),
        ("cam_to_base", "q_xyzw", [0.0, 0.0, 0.0, 1.0, 0.0]),
        ("cam_to_base", "t", "0.3"),
        ("node", "q", [0.0, 1.0]),
        ("node", "t", [1.0, 2.0, 3.0, 4.0]),
        ("config", "q_xyzw", [0.0, 0.0, 0.0, 0.0]),
        ("cam_to_base", "q_xyzw", [0.0, 0.0, 0.0, 0.0]),
        ("node", "q", [0.0, 0.0, 0.0, 0.0]),
    ],
)
def test_wrong_length_json_vector_exits_1(sim_dir, tmp_path, capsys, where, key, value):
    if where == "cam_to_base":
        ext = json.loads((sim_dir / "cam_to_base.json").read_text())
        ext[key] = value
        bad = tmp_path / "cam_to_base.json"
        bad.write_text(json.dumps(ext))
        args = mapgen_args(sim_dir, tmp_path / "genmap", cam_to_base=bad)
    elif where == "config":
        cfg = json.loads((sim_dir / "localize_config.json").read_text())
        cfg["imu_to_cam"][key] = value
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps(cfg))
        args = localize_args(sim_dir, tmp_path / "x.tum")
        args[args.index("--config") + 1] = str(bad)
    else:
        manifest = json.loads((sim_dir / "map" / "manifest.json").read_text())
        manifest["nodes"][1][key] = value
        bad_map = tmp_path / "map"
        bad_map.mkdir()
        bad = bad_map / "manifest.json"
        bad.write_text(json.dumps(manifest))
        args = localize_args(sim_dir, tmp_path / "x.tum")
        args[args.index("--map") + 1] = str(bad_map)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    n = 4 if key.startswith("q") else 3
    assert f"'{key}' must be a list of {n} finite numbers" in err


@pytest.mark.parametrize(
    "kind, path, value",
    [
        ("scenario", ["trajectory", "shape"], "warp"),
        ("scenario", ["trajectory", "duration_s"], "abc"),
        ("scenario", ["noise", "sigma_accel"], -1),
        ("scenario", ["trajectory"], 5),
        ("scenario", ["world", "landmark_count"], "many"),
        ("scenario", ["noise", "bias_accel"], [1, 2]),
        ("config", ["filter", "sigma_gyro"], -1),
        ("config", ["filter", "kappa_max"], "5"),
        ("config", ["filter"], [1]),
        ("config", ["init_window_s"], "x"),
        ("config", ["init_window_s"], -1.0),
        ("config", ["init_window_s"], 0.0),
        ("scenario", ["trajectory", "hold_s"], 0.0),
        ("config", ["filter", "eps"], "tiny"),
        ("scenario", ["trajectory", "shape"], "figure-eight"),
        ("config", ["filter", "eps"], float("nan")),
        ("mapgen", ["--matcher-seed"], -1),
        ("scenario", ["trajectory", "seed"], -1),
    ],
    ids=lambda v: ".".join(v) if isinstance(v, list) and isinstance(v[0], str) else None,
)
def test_malformed_config_value_exits_1(sim_dir, tmp_path, capsys, kind, path, value):
    if kind == "mapgen":  # path names a flag of the command
        bad = path[-1]
        args = mapgen_args(sim_dir, tmp_path / "genmap") + [bad, str(value)]
    else:
        if kind == "scenario":
            raw = json.loads(json.dumps(SCENARIO))
        else:
            raw = json.loads((sim_dir / "localize_config.json").read_text())
        obj = raw
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
        bad = tmp_path / f"{kind}.json"
        bad.write_text(json.dumps(raw))
        if kind == "scenario":
            args = ["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")]
        else:
            args = localize_args(sim_dir, tmp_path / "x.tum")
            args[args.index("--config") + 1] = str(bad)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert path[-1] in err
    assert not (tmp_path / "genmap").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("kappa_max", 0, "kappa_max must be at least 1"),
        ("kappa_max", -1, "kappa_max must be at least 1"),
        ("init_sigma_rot", 0, "init_sigma_rot must be positive"),
        ("init_sigma_gravity", -0.1, "init_sigma_gravity must be positive"),
        ("sigma_th_px", -1, "sigma_th_px must be positive"),
        ("max_node_distance_m", 0, "max_node_distance_m must be positive"),
        ("eps", 0, "eps must be positive"),
        ("eps", -1e-3, "eps must be positive"),
    ],
)
def test_invalid_filter_param_exits_1(sim_dir, tmp_path, capsys, key, value, message):
    raw = json.loads((sim_dir / "localize_config.json").read_text())
    raw["filter"][key] = value
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps(raw))
    args = localize_args(sim_dir, tmp_path / "x.tum")
    args[args.index("--config") + 1] = str(bad)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: filter: {message}\n"
    assert not (tmp_path / "x.tum").exists()


def loaded_by_cli_import(*packages) -> list[str]:
    """The modules of ``packages`` that ``import topoloc.cli`` loads in a fresh interpreter."""
    code = (
        "import json, sys, topoloc.cli; "
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r})))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_import_loads_no_process_pool():
    # no command starts a process, and the import stays cheap
    assert loaded_by_cli_import("multiprocessing", "concurrent") == []


def test_import_loads_no_scipy():
    # scipy is a test dependency only; the runtime must not import it
    assert loaded_by_cli_import("scipy") == []
