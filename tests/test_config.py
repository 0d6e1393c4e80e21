"""The JSON config codec: round trips, unknown keys at every level, and the
guard that keeps the localize config's ``filter`` object complete."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from topoloc.cli import main
from topoloc.config import from_json, to_json
from topoloc.errors import InputError
from topoloc.geometry import CameraIntrinsics, Pose, Rotation
from topoloc.ieskf import FilterParams, NoiseParams
from topoloc.scenario import (
    CameraSpec,
    LocalizeConfig,
    ScenarioConfig,
    WorldSpec,
    default_extrinsics,
    default_intrinsics,
)
from topoloc.sim import CorridorGeometry, SensorNoiseSpec, TrajectorySpec

# q_xyzw has unit norm exactly, so its normalization in Rotation is exact
EXTRINSICS = Pose(Rotation.from_quat_xyzw([0.5, -0.5, -0.5, 0.5]), [0.05, 0.12, -0.25])
INTRINSICS = CameraIntrinsics(fx=500.0, fy=510.0, cx=300.0, cy=200.0, width=600, height=400)

SCENARIO = ScenarioConfig(
    trajectory=TrajectorySpec(
        shape="circle", duration_s=12.5, speed_mps=6.0, imu_rate_hz=150.0, frame_rate_hz=8.0,
        seed=17, radius_m=25.0, hold_s=0.5, ramp_s=1.5, turns=((10.0, 20.0, 2.0),),
    ),
    world=WorldSpec(
        landmark_count=1234,
        corridor=CorridorGeometry(sparse_window=(10.0, 40.0), sparse_count=3),
    ),
    noise=SensorNoiseSpec(
        sigma_accel=0.03, sigma_gyro=0.004, bias_accel=[0.1, -0.2, 0.3],
        bias_gyro=[0.01, 0.02, -0.03], sigma_pixel=0.7, sigma_speed=0.2, outlier_fraction=0.1,
    ),
    camera=CameraSpec(intrinsics=INTRINSICS, imu_to_cam=EXTRINSICS),
    matcher_seed=7,
)

LOCALIZE = LocalizeConfig(
    intrinsics=INTRINSICS,
    imu_to_cam=EXTRINSICS,
    init_window_s=0.6,
    filter=FilterParams(
        noise=NoiseParams(
            sigma_gyro=3e-3, sigma_accel=3e-2, sigma_bias_accel=2e-4, sigma_bias_gyro=2e-5,
            r_f_px2=2.0, r_v=0.05,
        ),
        eps=1e-7, kappa_max=7, min_features=10, sigma_th_px=2.5, max_node_distance_m=40.0,
        init_sigma_rot=0.02, init_sigma_pos=0.03, init_sigma_vel=0.06,
        init_sigma_bias_accel=0.04, init_sigma_bias_gyro=0.003, init_sigma_gravity=0.06,
    ),
)

# A scenario small enough to simulate in about a second.
TINY_SCENARIO = {
    "trajectory": {"duration_s": 2.0, "seed": 5, "hold_s": 0.75},
    "world": {"landmark_count": 1500},
}


def leaves(value, path=()):
    """(path, value) of every scalar in a JSON value; a list of numbers is one leaf."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from leaves(v, path + (k,))
    elif isinstance(value, list) and any(isinstance(v, list) for v in value):
        for i, v in enumerate(value):
            yield from leaves(v, path + (i,))
    else:
        yield path, value


def assert_same(a, b):
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, Pose):
        assert_same(a.rotation, b.rotation)
        assert_same(a.translation, b.translation)
    elif isinstance(a, Rotation):
        np.testing.assert_array_equal(a.q, b.q)
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b)
    else:
        assert a == b


@pytest.mark.parametrize("cfg", [SCENARIO, LOCALIZE], ids=["scenario", "localize"])
def test_round_trip_reproduces_every_field(cfg):
    raw = json.loads(json.dumps(to_json(cfg)))
    assert_same(from_json(type(cfg), raw, "config"), cfg)


def test_round_trip_values_are_not_defaults():
    # every leaf differs from the default, so the round trip checks each field
    pairs = [
        (to_json(SCENARIO), to_json(ScenarioConfig())),
        (to_json(LOCALIZE), to_json(LocalizeConfig(default_intrinsics(), default_extrinsics()))),
    ]
    for custom, default in pairs:
        default_leaves = dict(leaves(default))
        for path, value in leaves(custom):
            assert value != default_leaves[path], path


def test_empty_scenario_reads_as_defaults():
    assert to_json(from_json(ScenarioConfig, {}, "scenario")) == to_json(ScenarioConfig())


def test_number_types_follow_the_annotation():
    cfg = from_json(ScenarioConfig, {"trajectory": {"duration_s": 30, "seed": 4}}, "scenario")
    assert json.dumps(to_json(cfg.trajectory)).startswith(
        '{"shape": "corridor-with-turns", "duration_s": 30.0, "speed_mps": 8.0,'
    )
    assert type(cfg.trajectory.seed) is int
    for value in (True, 4.0):
        with pytest.raises(InputError, match="trajectory 'seed' must be an integer"):
            from_json(ScenarioConfig, {"trajectory": {"seed": value}}, "scenario")


@pytest.mark.parametrize(
    "cls, path, label",
    [
        (ScenarioConfig, (), "scenario"),
        (ScenarioConfig, ("trajectory",), "trajectory"),
        (ScenarioConfig, ("world",), "world"),
        (ScenarioConfig, ("world", "corridor"), "corridor"),
        (ScenarioConfig, ("noise",), "noise"),
        (ScenarioConfig, ("camera",), "camera"),
        (LocalizeConfig, ("intrinsics",), "intrinsics"),
        (ScenarioConfig, ("camera", "intrinsics"), "intrinsics"),
        (ScenarioConfig, ("camera", "imu_to_cam"), "imu_to_cam"),
        (LocalizeConfig, (), "config"),
        (LocalizeConfig, ("filter",), "filter"),
    ],
)
def test_unknown_key_rejected_at_every_level(cls, path, label):
    raw = to_json(SCENARIO if cls is ScenarioConfig else LOCALIZE)
    obj = raw
    for key in path:
        obj = obj[key]
    obj["warp_drive"] = 9
    top = "scenario" if cls is ScenarioConfig else "config"
    with pytest.raises(InputError, match=rf"^unknown {label} key\(s\): warp_drive$"):
        from_json(cls, raw, top)


def test_simulated_filter_object_lists_every_filter_field(tmp_path):
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(TINY_SCENARIO))
    assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "sim")]) == 0
    cfg = json.loads((tmp_path / "sim" / "localize_config.json").read_text())
    names = [f.name for f in dataclasses.fields(NoiseParams)]
    names += [f.name for f in dataclasses.fields(FilterParams) if f.name != "noise"]
    assert list(cfg["filter"]) == names
    assert list(cfg) == [f.name for f in dataclasses.fields(LocalizeConfig)]
    # the filter initializes on the stationary lead-in the scenario simulated
    assert cfg["init_window_s"] == 0.75


def key_tree(obj):
    """The nested keys of a JSON object, without its values."""
    return {k: key_tree(v) for k, v in obj.items()} if isinstance(obj, dict) else None


ROOT = Path(__file__).resolve().parents[1]


def readme_example(heading: str):
    """The JSON of the first ``jsonc`` block under ``heading`` in the README."""
    section = (ROOT / "README.md").read_text().split(f"## {heading}\n", 1)[1]
    block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    return json.loads(re.sub(r"//.*", "", block))


def test_readme_localize_config_example_parses():
    # the README's example lists every setting, and no setting that is gone
    raw = readme_example("Localize config JSON")
    from_json(LocalizeConfig, raw, "config")
    default = LocalizeConfig(default_intrinsics(), default_extrinsics())
    assert key_tree(raw) == key_tree(to_json(default))


def test_readme_scenario_example_parses():
    raw = readme_example("Scenario JSON")
    from_json(ScenarioConfig, raw, "scenario")
    assert key_tree(raw) == key_tree(to_json(ScenarioConfig()))


def test_readme_scenario_file_parses():
    # the README's first command simulates this file
    path = ROOT / "demos" / "scenario_corridor.json"
    from_json(ScenarioConfig, json.loads(path.read_text()), "scenario")
