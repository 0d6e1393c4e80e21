"""Speed-aided monocular visual-inertial localization in a topological map.

The package splits into:
  * :mod:`topoloc.geometry` - SO(3)/SE(3) and pinhole camera primitives
  * :mod:`topoloc.topomap` - the topological map structure and bundle format
  * :mod:`topoloc.mapgen` - offline map compilation from a point-cloud prior
  * :mod:`topoloc.matching` - correspondence interfaces and outlier filtering
  * :mod:`topoloc.ieskf` - the 18-DoF iterated error-state Kalman filter
  * :mod:`topoloc.sim` - synthetic worlds and sensor streams
  * :mod:`topoloc.evaluate` - absolute pose error metrics
  * :mod:`topoloc.config` - the JSON codec of the config dataclasses
  * :mod:`topoloc.cli` - the ``topoloc`` command line
"""

from .geometry import CameraIntrinsics, Pose, Rotation, project, skew, so3_exp, so3_log, unproject
from .ieskf import (
    FilterParams,
    LocalizationFilter,
    NoiseParams,
    NominalState,
    box_minus,
    box_plus,
    initialize,
    iterated_update,
    propagate,
)
from .mapgen import (
    MapGenParams,
    OdometrySequence,
    PointCloud,
    chain_initial_pose,
    generate_map,
    rasterize,
    refine_node_pose,
    render_node,
    rotation_ransac,
    solve_pnp,
)
from .matching import (
    CameraFrame,
    CorrespondenceSet,
    Matched3D2D,
    RecordedMatcher,
    SyntheticMatcher,
    reproject_node_features,
    restore_3d,
    statistical_outlier_removal,
    synthetic_match,
)
from .evaluate import ApeReport, Trajectory, ape
from .sim import (
    CorridorGeometry,
    SensorNoiseSpec,
    TrajectorySpec,
    World,
    build_reference_map,
    gen_world,
    synthesize_imu,
    synthesize_speed,
)
from .topomap import (
    DepthImage,
    IntensityImage,
    TopologicalMap,
    TopoNode,
    load_map,
    save_map,
)

__version__ = "0.1.0"
