"""Kernel micro-benchmarks for the map: node retrieval and bundle loading.

``test_nearest_node`` times one ``TopologicalMap.nearest_node`` call, the
query the localizer makes once per camera frame. Two fixed maps of nodes
spaced about 5 m apart along a 2-D random walk at camera height, with 4x3 px
node images so that building them stays cheap:

* ``corridor``: 94 nodes, the size of the 60 s corridor map;
* ``large``: 1000 nodes, where a linear scan does ten times the work.

The query lies within a few metres of a node in the middle of the walk, as a
filter's predicted position does.

``test_load_map`` times ``load_map`` of a bundle of the corridor map's size,
which the localizer loads once per run: 94 nodes of 640x480 px, each storing
depth at 725 pixels (0.24 %, the median of the corridor's renders), so 0.5 MB
of depth file and 29 MB of node images.

``test_lift_pixels`` times one ``lift_pixels`` call on such a node with 716
pixels, the pairs of corridor seed-3 frame 300: the depth lookup behind each
frame's reprojection.

Run with

    PYTHONPATH=src python -m pytest benchmarks/bench_topomap.py

The ``bench_`` prefix and ``testpaths = ["tests"]`` keep the file out of the
default test run.
"""

import numpy as np
import pytest

from topoloc.geometry import CameraIntrinsics, Pose, Rotation
from topoloc.topomap import (
    DepthImage,
    IntensityImage,
    TopologicalMap,
    TopoNode,
    lift_pixels,
    load_map,
    save_map,
)

INTR = CameraIntrinsics(fx=3.0, fy=3.0, cx=2.0, cy=1.5, width=4, height=3)
VGA = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
NODE_SPACING_M = 5.0
STORED_PX = 725  # depth pixels of a corridor node
QUERIES = 716  # pairs of a corridor frame


def sparse_depth(rng, intr: CameraIntrinsics, n_stored: int) -> DepthImage:
    """Depth at ``n_stored`` random pixels, as a render stores it."""
    index = np.sort(rng.choice(intr.width * intr.height, n_stored, replace=False))
    return DepthImage(intr.width, intr.height, index, rng.uniform(2.0, 60.0, n_stored))


def walk_map(n_nodes: int, intr: CameraIntrinsics = INTR):
    """(map, positions (n, 3)) of ``n_nodes`` nodes along a seeded random walk,
    each storing depth at up to ``STORED_PX`` pixels."""
    rng = np.random.default_rng(n_nodes)
    heading = np.cumsum(rng.normal(0.0, 0.1, n_nodes))
    steps = NODE_SPACING_M * np.column_stack((np.cos(heading), np.sin(heading)))
    positions = np.column_stack((np.cumsum(steps, axis=0), np.full(n_nodes, 1.5)))
    topo_map = TopologicalMap(intr)
    for i, p in enumerate(positions):
        topo_map.insert_node(
            TopoNode(
                node_id=i,
                depth=sparse_depth(rng, intr, min(STORED_PX, intr.width * intr.height)),
                image=IntensityImage(np.zeros((intr.height, intr.width))),
                pose=Pose(Rotation.identity(), p),
                timestamp=float(i),
                intrinsics=intr,
            )
        )
    topo_map.build_index()
    return topo_map, positions


@pytest.mark.parametrize("n_nodes", [94, 1000], ids=["corridor", "large"])
def test_nearest_node(benchmark, n_nodes):
    topo_map, positions = walk_map(n_nodes)
    query = positions[n_nodes // 2] + np.array([2.0, -1.0, 0.3])
    node = benchmark(topo_map.nearest_node, query)
    assert node.node_id == int(np.argmin(np.linalg.norm(positions - query, axis=1)))


def test_load_map(benchmark, tmp_path):
    topo_map, positions = walk_map(94, VGA)
    save_map(topo_map, tmp_path / "map")
    del topo_map
    loaded = benchmark(load_map, tmp_path / "map")
    assert len(loaded) == 94
    np.testing.assert_array_equal([n.pose.translation for n in loaded.nodes], positions)
    assert sum(len(n.depth.index) for n in loaded.nodes) == 94 * STORED_PX


def test_lift_pixels(benchmark):
    rng = np.random.default_rng(716)
    node = TopoNode(
        0, sparse_depth(rng, VGA, STORED_PX), IntensityImage(np.zeros((VGA.height, VGA.width))),
        Pose.identity(), 0.0, VGA,
    )
    # a matcher's node pixels land on stored depth, with sub-pixel offsets
    stored = node.depth.index[rng.choice(STORED_PX, QUERIES)]
    px = np.column_stack([stored % VGA.width, stored // VGA.width]) + rng.uniform(-0.4, 0.4, (QUERIES, 2))
    points, valid = benchmark(lift_pixels, node, px)
    assert valid.all() and np.all(points[:, 2] > 0)
