"""Kernel micro-benchmarks for the map: node retrieval and bundle loading.

``test_nearest_node`` times one ``TopologicalMap.nearest_node`` call, the
query the localizer makes once per camera frame. Two fixed maps of nodes
spaced about 5 m apart along a 2-D random walk at camera height, with 4x3 px
node images so that building them stays cheap:

* ``corridor``: 94 nodes, the size of the 60 s corridor map;
* ``large``: 1000 nodes, where a linear scan does ten times the work.

The query lies within a few metres of a node in the middle of the walk, as a
filter's predicted position does.

``test_load_map`` times ``load_map`` of the corridor map's bundle: 94 nodes
of 640x480 px, 141 MB on disk, which the localizer loads once per run.

Run with

    PYTHONPATH=src python -m pytest benchmarks/bench_topomap.py

The ``bench_`` prefix and ``testpaths = ["tests"]`` keep the file out of the
default test run.
"""

import numpy as np
import pytest

from topoloc.geometry import CameraIntrinsics, Pose, Rotation
from topoloc.topomap import DepthImage, IntensityImage, TopologicalMap, TopoNode, load_map, save_map

INTR = CameraIntrinsics(fx=3.0, fy=3.0, cx=2.0, cy=1.5, width=4, height=3)
NODE_SPACING_M = 5.0


def walk_map(n_nodes: int, intr: CameraIntrinsics = INTR):
    """(map, positions (n, 3)) of ``n_nodes`` nodes along a seeded random walk."""
    rng = np.random.default_rng(n_nodes)
    heading = np.cumsum(rng.normal(0.0, 0.1, n_nodes))
    steps = NODE_SPACING_M * np.column_stack((np.cos(heading), np.sin(heading)))
    positions = np.column_stack((np.cumsum(steps, axis=0), np.full(n_nodes, 1.5)))
    topo_map = TopologicalMap(intr)
    for i, p in enumerate(positions):
        topo_map.insert_node(
            TopoNode(
                node_id=i,
                depth=DepthImage(np.full((intr.height, intr.width), 10.0)),
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
    vga = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
    topo_map, positions = walk_map(94, vga)
    save_map(topo_map, tmp_path / "map")
    del topo_map
    loaded = benchmark(load_map, tmp_path / "map")
    assert len(loaded) == 94
    np.testing.assert_array_equal([n.pose.translation for n in loaded.nodes], positions)
