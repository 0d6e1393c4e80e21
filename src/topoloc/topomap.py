"""Topological map: pose-anchored nodes bundling a depth image, an intensity
image, and the global camera pose, with the exact nearest node by a linear scan.

On-disk bundle layout (one directory per map):
  * ``manifest.json``: version, build intrinsics, node table (TUM-order quaternions)
  * ``depth_<id>.tdm``: magic ``TDM1``, LE uint32 width/height, float32 rows (top first)
  * ``image_<id>.pgm``: binary P5 intensity image

``read_tdm`` and ``read_pgm`` map their file copy-on-write instead of reading
it: loading a bundle reads one page of header per file, the OS reads a pixel
page when it is first touched, and writes to a loaded buffer stay private to
the process. Each mapping holds a file descriptor, so a loaded map holds 2
per node. ``save_map`` unlinks a file before writing its replacement, so a
map loaded from the same directory keeps its bytes.
"""

from __future__ import annotations

import errno
import json
import logging
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
    NoDepth,
    OutOfBounds,
    ResourceExhausted,
)
from .geometry import CameraIntrinsics, Pose, parse_quaternion, unproject_points

log = logging.getLogger(__name__)

TDM_MAGIC = b"TDM1"
# Digits a PGM width, height or maxval may have; a longer field is a corrupt header.
MAX_PGM_FIELD_DIGITS = 9
MANIFEST_VERSION = 1
# Depths at or beyond this range are treated as invalid when rendering.
DEFAULT_MAX_RANGE_M = 200.0


@dataclass
class _Image:
    """Row-major 2-D pixel buffer of the subclass's ``dtype``."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=self.dtype)
        if self.data.ndim != 2:
            raise DimensionMismatch(f"{self.kind} buffer must be 2-D (height, width)")

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


class DepthImage(_Image):
    """float32 depth in meters; values <= 0 or non-finite mean no depth."""

    dtype = np.float32
    kind = "depth"

    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.data) & (self.data > 0.0)


class IntensityImage(_Image):
    """uint8 intensity."""

    dtype = np.uint8
    kind = "intensity"


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
        if self.depth.data.size == 0:
            raise DimensionMismatch("node depth image is empty")
        if self.depth.data.shape != self.image.data.shape:
            raise DimensionMismatch(
                f"depth {self.depth.data.shape} and image {self.image.data.shape} differ"
            )
        if (self.depth.height, self.depth.width) != (self.intrinsics.height, self.intrinsics.width):
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
    height, width = node.depth.data.shape
    in_bounds = (cols >= 0) & (cols < width) & (rows >= 0) & (rows < height)
    # a flat gather costs a third of data[rows, cols]; index 0 stands in off the image
    depth = node.depth.data.reshape(-1).take(np.where(in_bounds, rows * width + cols, 0))
    valid = in_bounds & np.isfinite(depth) & (depth > 0.0)
    return unproject_points(node.intrinsics, px, np.where(valid, depth, 0.0)), valid


def depth_to_point(node: TopoNode, f: np.ndarray) -> np.ndarray:
    """Lift one pixel ``f`` to the node camera frame (``lift_pixels`` at N=1)."""
    pts, valid = lift_pixels(node, f)
    if not valid[0]:
        col, row = np.rint(f).astype(int)
        if 0 <= col < node.depth.width and 0 <= row < node.depth.height:
            raise NoDepth(f"no depth stored at pixel ({col}, {row})")
        raise OutOfBounds(f"pixel ({col}, {row}) outside {node.depth.width}x{node.depth.height}")
    return pts[0]


def map_point_global(node: TopoNode, f: np.ndarray) -> np.ndarray:
    """Lift pixel ``f`` to a global 3-D map point using the node pose."""
    return node.pose.apply(depth_to_point(node, f))


# ---------------------------------------------------------------------------
# bundle save/load

def _replace(path) -> Path:
    """``path`` with any file there unlinked, so a reader that has the old file
    mapped keeps its inode instead of faulting on a truncated one."""
    path = Path(path)
    path.unlink(missing_ok=True)
    return path


def write_tdm(path, depth: DepthImage) -> None:
    with _replace(path).open("wb") as fh:
        fh.write(TDM_MAGIC)
        fh.write(struct.pack("<II", depth.width, depth.height))
        fh.write(np.ascontiguousarray(depth.data, dtype="<f4"))  # no copy of float32 rows


# The system, not the file, refused the mapping: too many open files or no memory.
_RESOURCE_ERRNOS = frozenset({errno.EMFILE, errno.ENFILE, errno.ENOMEM})


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
        error = ResourceExhausted if exc.errno in _RESOURCE_ERRNOS else InputError
        raise error(f"{path}: cannot map ({exc.strerror or exc})") from exc


def read_tdm(path) -> DepthImage:
    path = Path(path)
    raw = _map_file(path)
    if len(raw) < 12 or raw[:4] != TDM_MAGIC:
        raise FormatVersionMismatch(f"{path}: bad or missing TDM1 magic")
    w, h = struct.unpack("<II", raw[4:12])
    expected = 12 + 4 * w * h
    if len(raw) != expected:
        raise ChecksumMismatch(f"{path}: payload is {len(raw)} bytes, expected {expected}")
    return DepthImage(np.frombuffer(raw, dtype="<f4", offset=12, count=w * h).reshape(h, w))


def write_pgm(path, image: IntensityImage) -> None:
    with _replace(path).open("wb") as fh:
        fh.write(f"P5\n{image.width} {image.height}\n255\n".encode("ascii"))
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


def save_map(topo_map: TopologicalMap, path) -> None:
    """Write a map bundle directory. Files already present are replaced, not
    truncated, so a map loaded from the directory keeps its bytes."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    nodes = []
    for n in topo_map.nodes:
        qx, qy, qz, qw = n.pose.rotation.as_quat_xyzw()
        nodes.append(
            {
                "id": n.node_id,
                "timestamp": n.timestamp,
                "t": [float(x) for x in n.pose.translation],
                "q": [float(qx), float(qy), float(qz), float(qw)],
            }
        )
        write_tdm(path / f"depth_{n.node_id}.tdm", n.depth)
        write_pgm(path / f"image_{n.node_id}.pgm", n.image)
    manifest = {
        "version": MANIFEST_VERSION,
        "intrinsics": to_json(topo_map.intrinsics),
        "nodes": nodes,
    }
    (path / "manifest.json").write_text(json.dumps(manifest, indent=1))


def load_map(path) -> TopologicalMap:
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise InputError(f"map bundle not found: no manifest.json in {path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
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
        for e in nodes:
            if not isinstance(e, dict):
                raise InputError(f"each entry of 'nodes' must be an object, got {type(e).__name__}")
        entries = []
        for e in sorted(nodes, key=lambda e: e["id"]):
            where = f"node {e['id']}"
            rotation = parse_quaternion(e["q"], f"{where} 'q'")
            translation = parse_vector(e["t"], 3, f"{where} 't'")
            entries.append((e["id"], e["timestamp"], Pose(rotation, translation)))
    except KeyError as exc:
        raise InputError(f"{manifest_path}: missing key {exc}")
    except InputError as exc:
        raise InputError(f"{manifest_path}: {exc}")
    topo_map = TopologicalMap(intr)
    for node_id, timestamp, pose in entries:
        node = TopoNode(
            node_id=node_id,
            depth=read_tdm(path / f"depth_{node_id}.tdm"),
            image=read_pgm(path / f"image_{node_id}.pgm"),
            pose=pose, timestamp=timestamp, intrinsics=intr,
        )
        topo_map.insert_node(node)
    topo_map.build_index()
    return topo_map
