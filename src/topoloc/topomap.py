"""Topological map: pose-anchored nodes bundling a depth image, an intensity
image, and the global camera pose, with the exact nearest node by a linear scan.

On-disk bundle layout (one directory per map):
  * ``manifest.json``: version, build intrinsics, node table (TUM-order quaternions)
  * ``depth.bin``: every node's sparse depth in manifest order (see ``write_depths``)
  * ``image_<id>.pgm``: binary P5 intensity image, mapped copy-on-write when read

A loaded map holds 1 file descriptor per node, its image's mapping. ``save_map``
replaces files instead of truncating them, so a map loaded from the directory
keeps its bytes.
"""

from __future__ import annotations

import json
import logging
import math
import mmap
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import from_json, parse_vector, to_json
from .errors import (
    ChecksumMismatch,
    DimensionMismatch,
    EmptyMap,
    FormatVersionMismatch,
    InputError,
)
from .geometry import CameraIntrinsics, Pose, parse_quaternion, unproject_points
from .io import file_error, read_offset_file, write_offset_file

log = logging.getLogger(__name__)

# Digits a PGM width, height or maxval may have; a longer field is a corrupt header.
MAX_PGM_FIELD_DIGITS = 9
MANIFEST_VERSION = 2
DEPTH_FILE = "depth.bin"
DEPTH_MAGIC = b"TDEP"
DEPTH_VERSION = 1
_DEPTH_HEADER = struct.Struct("<4sIIII")  # magic; uint32 version, width, height, node count
# Depths at or beyond this range are treated as invalid when rendering.
DEFAULT_MAX_RANGE_M = 200.0
# Travel between consecutive nodes of a map: the reference map's rule.
NODE_SPACING_M = 5.0


@dataclass
class DepthImage:
    """float32 depth in meters at the few pixels of a ``width`` x ``height``
    image that have one (about 0.25 % of a render): ``index`` holds their flat
    row-major indices, strictly increasing, and ``depth`` one finite, positive
    depth per entry. ``from_dense`` and ``rasterize`` build it so; ``load_map``
    checks it."""

    width: int
    height: int
    index: np.ndarray
    depth: np.ndarray

    def __post_init__(self):
        self.index = np.asarray(self.index, dtype=np.intp)
        self.depth = np.asarray(self.depth, dtype=np.float32)
        if self.index.shape != self.depth.shape or self.index.ndim != 1:
            raise DimensionMismatch("depth index and values must be 1-D and of one length")

    @classmethod
    def from_dense(cls, data) -> DepthImage:
        """The pixels of a (height, width) depth array that are finite and > 0."""
        data = np.asarray(data, dtype=np.float32)
        height, width = data.shape
        index = np.flatnonzero(np.isfinite(data) & (data > 0.0))
        return cls(width, height, index, data.reshape(-1)[index])

    def dense(self) -> np.ndarray:
        """The (height, width) float32 image, 0 where no depth is stored."""
        image = np.zeros(self.height * self.width, dtype=np.float32)
        image[self.index] = self.depth
        return image.reshape(self.height, self.width)


@dataclass
class IntensityImage:
    """Row-major 2-D uint8 intensity image."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.uint8)
        if self.data.ndim != 2:
            raise DimensionMismatch("intensity buffer must be 2-D (height, width)")


@dataclass
class TopoNode:
    """One map node: what the camera saw at ``pose`` (camera-in-global)."""

    node_id: int
    depth: DepthImage
    image: IntensityImage
    pose: Pose
    timestamp: float
    intrinsics: CameraIntrinsics

    def __post_init__(self):
        shape = (self.depth.height, self.depth.width)
        if shape[0] * shape[1] == 0:
            raise DimensionMismatch("node depth image is empty")
        if shape != self.image.data.shape:
            raise DimensionMismatch(f"depth {shape} and image {self.image.data.shape} differ")
        if shape != (self.intrinsics.height, self.intrinsics.width):
            raise DimensionMismatch("image dimensions differ from intrinsics")


class TopologicalMap:
    """Ordered node collection with exact nearest-neighbor retrieval.

    Building is single-writer; after construction (or load) the map is meant
    to be immutable and is safe for concurrent reads once ``build_index`` has
    run (the loaders and map builders call it).
    """

    def __init__(self, intrinsics: CameraIntrinsics):
        self.intrinsics = intrinsics
        self.nodes: list[TopoNode] = []
        self._positions: np.ndarray | None = None
        self._stamps: set[float] = set()

    def __len__(self) -> int:
        return len(self.nodes)

    def insert_node(self, node: TopoNode) -> int:
        """Append a node; its id is rewritten to keep ids dense and ordered."""
        key = round(node.timestamp, 9)
        if key in self._stamps:
            log.warning("duplicate node timestamp %.6f", node.timestamp)
        self._stamps.add(key)
        node.node_id = len(self.nodes)
        self.nodes.append(node)
        self._positions = None  # rebuilt on the next query or build_index call
        return node.node_id

    def build_index(self) -> None:
        """Materialize the (n, 3) node positions so later queries are read-only."""
        if self._positions is None:
            self._positions = np.array([n.pose.translation for n in self.nodes]).reshape(-1, 3)

    def nearest_node(self, position: np.ndarray) -> TopoNode:
        """Node minimizing Euclidean distance to ``position``; ties -> lower id."""
        if not self.nodes:
            raise EmptyMap("nearest_node on an empty map")
        q = np.asarray(position, dtype=float).reshape(3)
        self.build_index()
        # argmin returns the first minimum, so an exact tie goes to the lowest id
        return self.nodes[int(np.argmin(((self._positions - q) ** 2).sum(axis=1)))]


def lift_pixels(node: TopoNode, px: np.ndarray):
    """Lift (N, 2) node pixels to the node camera frame through the depth image.

    Returns (pts_cam (N, 3), valid (N,)); a row is valid when its nearest
    pixel lies inside the image and stores a depth, and the other rows are
    lifted at depth 0. Nearest-pixel (not bilinear): interpolating across
    depth discontinuities would invent points on no surface.
    """
    px = np.asarray(px, dtype=float).reshape(-1, 2)
    cols, rows = np.rint(px).astype(int).T
    stored = node.depth
    in_bounds = (cols >= 0) & (cols < stored.width) & (rows >= 0) & (rows < stored.height)
    flat = np.where(in_bounds, rows * stored.width + cols, -1)  # -1: no pixel is stored there
    # Where each pixel would sit among the stored ones (it has a depth if it sits there),
    # looked up in pixel order, one sort of packed (pixel, row): 4x faster than unsorted.
    keys = np.sort((flat << 32) | np.arange(len(flat)))
    at = np.empty(len(flat), dtype=np.intp)
    at[keys & 0xFFFFFFFF] = stored.index.searchsorted(keys >> 32)
    valid = at < len(stored.index)
    valid[valid] = stored.index[at[valid]] == flat[valid]
    depth = np.zeros(len(px), dtype=np.float32)
    depth[valid] = stored.depth[at[valid]]
    return unproject_points(node.intrinsics, px, depth), valid


# ---------------------------------------------------------------------------
# bundle save/load

def _replace(path) -> Path:
    """``path`` with any file there unlinked, so a reader that has the old file
    mapped keeps its inode instead of faulting on a truncated one."""
    path = Path(path)
    path.unlink(missing_ok=True)
    return path


def _map_file(path: Path):
    """The whole file as a private copy-on-write mapping (``b""`` when empty).

    Pages are read on first touch; writes stay in this process and never reach
    the file. The mapping holds a descriptor of its own until its last array
    is freed.
    """
    try:
        with path.open("rb") as fh:
            if os.fstat(fh.fileno()).st_size == 0:
                return b""  # mmap refuses an empty file
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
    except OSError as exc:
        raise file_error(path, "map", exc) from exc


def write_pgm(path, image: IntensityImage) -> None:
    with _replace(path).open("wb") as fh:
        height, width = image.data.shape
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(image.data))


def read_pgm(path) -> IntensityImage:
    path = Path(path)
    raw = _map_file(path)
    if raw[:2] != b"P5":
        raise FormatVersionMismatch(f"{path}: not a binary PGM (P5) file")
    # Header: P5, whitespace-separated width/height/maxval, single whitespace, pixels.
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ChecksumMismatch(f"{path}: truncated PGM header")
        field = raw[start:pos]
        # digits only: int() would also take a sign, '_' or more digits than it converts
        if not (field.isdigit() and len(field) <= MAX_PGM_FIELD_DIGITS):
            raise ChecksumMismatch(f"{path}: PGM header field {field[:16]!r} is not a small decimal")
        fields.append(int(field))
    pos += 1  # the single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise FormatVersionMismatch(f"{path}: only 8-bit PGM supported")
    if len(raw) - pos != w * h:
        raise ChecksumMismatch(f"{path}: pixel payload size mismatch")
    return IntensityImage(np.frombuffer(raw, dtype=np.uint8, offset=pos, count=w * h).reshape(h, w))


def write_depths(path, depths: list[DepthImage], width: int, height: int) -> None:
    """Write the depths of nodes with ``width`` x ``height`` images, in node order,
    as an offset table after ``_DEPTH_HEADER``: every node's pixel indices
    (int32), then every node's depths (float32); 8 bytes per stored pixel."""
    if width * height > 2**31:
        raise DimensionMismatch(f"{width}x{height} px: a pixel index would not fit in int32")
    header = _DEPTH_HEADER.pack(DEPTH_MAGIC, DEPTH_VERSION, width, height, len(depths))
    columns = [(d.index.astype("<i4") for d in depths), (d.depth.astype("<f4") for d in depths)]
    write_offset_file(_replace(path), header, [len(d.index) for d in depths], columns)


def read_depths(path, width: int, height: int, count: int) -> list[DepthImage]:
    """The ``count`` node depths of a ``write_depths`` file of ``width`` x
    ``height`` images, read whole; FormatVersionMismatch or ChecksumMismatch
    naming the file unless header, size, offsets, indices and depths hold."""
    header = _DEPTH_HEADER.pack(DEPTH_MAGIC, DEPTH_VERSION, width, height, count)
    offsets, payload = read_offset_file(path, header, count, 8, f"{count} nodes of {width}x{height} px")
    total = int(offsets[-1])
    index = payload[: 4 * total].view("<i4").astype(np.intp)
    depth = payload[4 * total :].view("<f4")
    band = np.repeat(np.arange(count) * (width * height), np.diff(offsets))  # each node's own range
    if not (np.all((index >= 0) & (index < width * height)) and np.all(np.diff(index + band) > 0)):
        raise ChecksumMismatch(f"{path}: a node's pixel indices do not rise strictly inside the image")
    if not np.all((depth > 0.0) & (depth < np.inf)):
        raise ChecksumMismatch(f"{path}: a stored depth is not finite and positive")
    return [DepthImage(width, height, index[a:b], depth[a:b]) for a, b in zip(offsets[:-1], offsets[1:])]


def save_map(topo_map: TopologicalMap, path) -> None:
    """Write a map bundle directory. Files already present are replaced, not
    truncated, so a map loaded from the directory keeps its bytes."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for n in topo_map.nodes:
        write_pgm(path / f"image_{n.node_id}.pgm", n.image)
    intr = topo_map.intrinsics
    write_depths(path / DEPTH_FILE, [n.depth for n in topo_map.nodes], intr.width, intr.height)
    nodes = [
        {"id": n.node_id, "timestamp": n.timestamp, "t": [float(x) for x in n.pose.translation],
         "q": [float(x) for x in n.pose.rotation.as_quat_xyzw()]}
        for n in topo_map.nodes
    ]
    manifest = {"version": MANIFEST_VERSION, "intrinsics": to_json(intr), "nodes": nodes}
    (path / "manifest.json").write_text(json.dumps(manifest, indent=1))


def load_map(path) -> TopologicalMap:
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise InputError(f"map bundle not found: no manifest.json in {path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ChecksumMismatch(f"{manifest_path}: invalid JSON ({exc})")
    if not isinstance(manifest, dict):
        raise InputError(
            f"{manifest_path}: the manifest must be a JSON object, got {type(manifest).__name__}"
        )
    version = manifest.get("version")
    if version != MANIFEST_VERSION:
        raise FormatVersionMismatch(
            f"{manifest_path}: version {version!r}, expected {MANIFEST_VERSION}"
        )
    try:
        intr = from_json(CameraIntrinsics, manifest["intrinsics"], "intrinsics")
        nodes = manifest["nodes"]
        if not isinstance(nodes, list):
            raise InputError(f"'nodes' must be a list, got {type(nodes).__name__}")
        entries = [None] * len(nodes)  # (manifest position, timestamp, pose) by id
        for pos, e in enumerate(nodes):
            if not isinstance(e, dict):
                raise InputError(f"each entry of 'nodes' must be an object, got {type(e).__name__}")
            node_id, timestamp = e["id"], e["timestamp"]
            where = f"node {node_id!r}"
            # type(), not isinstance(): a bool is no id or timestamp here
            if type(node_id) is not int or not 0 <= node_id < len(nodes) or entries[node_id]:
                raise InputError(f"{where}: the ids must be the integers 0..{len(nodes) - 1}, each once")
            if type(timestamp) not in (int, float) or not abs(timestamp) < math.inf:
                raise InputError(f"{where}: 'timestamp' {timestamp!r} is not a finite number")
            rotation = parse_quaternion(e["q"], f"{where} 'q'")
            translation = parse_vector(e["t"], 3, f"{where} 't'")
            entries[node_id] = (pos, timestamp, Pose(rotation, translation))
    except KeyError as exc:
        raise InputError(f"{manifest_path}: missing key {exc}")
    except InputError as exc:
        raise InputError(f"{manifest_path}: {exc}")
    depths = read_depths(path / DEPTH_FILE, intr.width, intr.height, len(entries))
    topo_map = TopologicalMap(intr)
    for node_id, (pos, timestamp, pose) in enumerate(entries):
        image = read_pgm(path / f"image_{node_id}.pgm")
        topo_map.insert_node(TopoNode(node_id, depths[pos], image, pose, timestamp, intr))
    topo_map.build_index()
    return topo_map
