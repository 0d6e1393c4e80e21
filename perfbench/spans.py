"""Spans recorded around calls into topoloc, and the per-layer figures built from them.

The program is not changed: a ``Tracer`` replaces each binding that a caller
looks up (a module global or a class attribute) with a wrapper that records a
span, and puts the original back on ``uninstall``. A span is
(name, start, end, parent, frame, attrs); its name is ``<layer>.<call>``,
where the layer is the module of ``src/topoloc`` whose code runs inside it.
Spans stay in memory and are written out once the traced pass or set-up is over.

This module imports nothing from topoloc or numpy at import time, so that the
worker can time a cold ``import topoloc.cli`` before loading it.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager

import calib

LAYERS = ("cli", "scenario", "io", "topomap", "sim", "matching", "ieskf", "mapgen", "evaluate")


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least 10 of ``n`` samples beyond it."""
    return max(50, int(100.0 * (1.0 - 10.0 / n)))


def _path_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _match_pairs(args, kwargs, result):
    return {"pairs": len(result)}


def _kept(args, kwargs, result):
    return {"in": len(args[0]), "out": len(result)}


def _update_stats(args, kwargs, result):
    diag = result[2]
    speed_rows = 3 if args[3] is not None else 0
    return {
        "rows": 2 * diag.n_features_used + speed_rows,
        "iterations": diag.iterations,
        "rejected": int(diag.step_rejected),
    }


def _pnp_iterations(args, kwargs, result):
    return {"iterations": result.iterations}


# (owner, attribute, span name, attribute extractor). The owner is the module
# whose code makes the call, so that the caller's lookup finds the wrapper.
FULL_PATCHES = [
    ("topoloc.cli", "write_scenario_outputs", "scenario.write_scenario_outputs", None),
    ("topoloc.cli", "run_localization", "scenario.run_localization", None),
    ("topoloc.cli", "load_recorded_matcher", "scenario.load_recorded_matcher", None),
    ("topoloc.cli", "load_map", "topomap.load_map", None),
    ("topoloc.cli", "save_map", "topomap.save_map", None),
    ("topoloc.cli", "ape", "evaluate.ape", None),
    ("topoloc.cli", "read_imu_csv", "io.read_imu_csv", _path_bytes),
    ("topoloc.cli", "read_speed_csv", "io.read_speed_csv", _path_bytes),
    ("topoloc.cli", "read_tum", "io.read_tum", _path_bytes),
    ("topoloc.cli", "read_ply", "io.read_ply", _path_bytes),
    ("topoloc.cli", "write_tum", "io.write_tum", _path_bytes),
    # imported inside load_recorded_matcher and load_map at call time
    ("topoloc.io", "read_correspondences_csv", "io.read_correspondences_csv", _path_bytes),
    ("topoloc.topomap", "read_pgm", "topomap.read_pgm", _path_bytes),
    # simulate
    ("topoloc.scenario", "gen_world", "sim.gen_world", None),
    ("topoloc.scenario", "synthesize_imu", "sim.synthesize_imu", None),
    ("topoloc.scenario", "synthesize_speed", "sim.synthesize_speed", None),
    ("topoloc.scenario", "build_reference_map", "sim.build_reference_map", None),
    ("topoloc.scenario", "validate_visibility", "sim.validate_visibility", None),
    ("topoloc.scenario", "write_ply", "io.write_ply", _path_bytes),
    ("topoloc.scenario", "write_imu_csv", "io.write_imu_csv", _path_bytes),
    ("topoloc.scenario", "write_speed_csv", "io.write_speed_csv", _path_bytes),
    ("topoloc.scenario", "write_tum", "io.write_tum", _path_bytes),
    ("topoloc.scenario", "write_correspondences_csv", "io.write_correspondences_csv", _path_bytes),
    ("topoloc.scenario", "save_map", "topomap.save_map", None),
    # the per-frame filter pipeline
    ("topoloc.ieskf", "propagate", "ieskf.propagate", None),
    ("topoloc.ieskf", "iterated_update", "ieskf.update", _update_stats),
    ("topoloc.ieskf", "reproject_node_features", "matching.reproject", None),
    ("topoloc.ieskf", "statistical_outlier_removal", "matching.gate", _kept),
    ("topoloc.ieskf", "restore_3d", "matching.restore", None),
    ("topoloc.topomap:TopologicalMap", "nearest_node", "topomap.nearest_node", None),
    ("topoloc.matching:RecordedMatcher", "match", "matching.match", _match_pairs),
    ("topoloc.matching:SyntheticMatcher", "match", "matching.match", _match_pairs),
    # the map compiler
    ("topoloc.mapgen", "rasterize", "mapgen.rasterize", None),
    ("topoloc.mapgen", "rotation_ransac", "mapgen.ransac", _kept),
    ("topoloc.mapgen", "solve_pnp", "mapgen.pnp", _pnp_iterations),
]


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


class Tracer:
    """Installs wrappers, keeps spans and per-frame samples in memory.

    With ``full`` false only the frame hooks are installed: they time each
    ``LocalizationFilter.process_frame`` call, or each map-compiler frame, and
    after each frame take one sample of the reference kernel (``calib``),
    outside the frame's time. With ``full`` true every binding in
    ``FULL_PATCHES`` records a span, no kernel runs, and ``process_frame``
    also keeps the state and covariance it returns, for NEES.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.frame_s: list[float] = []
        self.calib_s: list[float] = []
        self.calib_wall_s = 0.0
        self.frame_states: list[tuple] = []
        self.full = False
        self._stack: list[int] = []
        self._frame = -1
        self._patches: list[tuple] = []
        self._mapgen_mark = None

    # -- spans ---------------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._frame, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into a layer."""
        if not self.full:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _sample(self) -> None:
        """One reference-kernel sample; ``calib_wall_s`` keeps what it cost the pass."""
        t0 = time.perf_counter()
        self.calib_s.append(calib.sample_s())
        self.calib_wall_s += time.perf_counter() - t0

    # -- installing wrappers -------------------------------------------------
    def _patch(self, owner_spec: str, attr: str, make) -> None:
        owner = _owner(owner_spec)
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def _spanned(self, name: str, extract):
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                idx = tracer._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if extract is not None:
                    tracer.spans[idx][5] = extract(args, kwargs, result)
                return result

            return wrapper

        return make

    def install(self, full: bool) -> None:
        self.uninstall()
        self.full = full
        tracer = self

        def frame_hook(original):
            def process_frame(self_, *args, **kwargs):
                tracer._frame += 1
                idx = tracer._open("ieskf.process_frame") if tracer.full else None
                t0 = time.perf_counter()
                try:
                    result = original(self_, *args, **kwargs)
                finally:
                    tracer.frame_s.append(time.perf_counter() - t0)
                    if idx is not None:
                        tracer._close(idx)
                if not tracer.full:
                    tracer._sample()
                else:
                    state, cov, _ = result
                    tracer.frame_states.append(
                        (args[1].timestamp, state.position.copy(), state.rotation.q.copy(),
                         cov[0:3, 0:3].copy(), cov[3:6, 3:6].copy())
                    )
                return result

            return process_frame

        # A map-compiler frame ends where generate_map chains the next
        # prediction, or where generate_map returns.
        def mapgen_hook(original):
            def generate_map(*args, **kwargs):
                tracer._frame = 0
                idx = tracer._open("mapgen.generate_map") if tracer.full else None
                tracer._mapgen_mark = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.frame_s.append(time.perf_counter() - tracer._mapgen_mark)
                    if idx is not None:
                        tracer._close(idx)
                    if not tracer.full:
                        tracer._sample()

            return generate_map

        def chain_hook(original):
            def chain_initial_pose(*args, **kwargs):
                tracer.frame_s.append(time.perf_counter() - tracer._mapgen_mark)
                if not tracer.full:
                    tracer._sample()
                tracer._mapgen_mark = time.perf_counter()
                tracer._frame += 1
                return original(*args, **kwargs)

            return chain_initial_pose

        self._patch("topoloc.ieskf:LocalizationFilter", "process_frame", frame_hook)
        self._patch("topoloc.cli", "generate_map", mapgen_hook)
        self._patch("topoloc.mapgen", "chain_initial_pose", chain_hook)
        if full:
            for owner, attr, name, extract in FULL_PATCHES:
                self._patch(owner, attr, self._spanned(name, extract))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.full = False

    def reset(self) -> None:
        self.spans.clear()
        self.frame_s.clear()
        self.calib_s.clear()
        self.calib_wall_s = 0.0
        self.frame_states.clear()
        self._stack.clear()
        self._frame = -1

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, frame, attrs in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent, "frame": frame}
                row.update(attrs or {})
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# per-layer figures from written spans

def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def root_wall_s(spans: list[dict]) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["parent"] == -1)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Busy time of each layer minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    out = {layer: 0.0 for layer in LAYERS}
    for s, c in zip(spans, child):
        out[s["name"].split(".", 1)[0]] += (s["end"] - s["start"]) - c
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer figures named in perfbench/README.md, over one traced pass."""

    def of(name):
        return [s for s in spans if s["name"] == name]

    def busy(rows):
        return sum(s["end"] - s["start"] for s in rows)

    def total(rows, key):
        return sum(s.get(key, 0) for s in rows)

    def ratio(num, den):
        return num / den if den else 0.0

    def under(rows, ancestor):
        """The rows that have a span named ``ancestor`` above them."""
        out = []
        for s in rows:
            p = s["parent"]
            while p >= 0 and spans[p]["name"] != ancestor:
                p = spans[p]["parent"]
            if p >= 0:
                out.append(s)
        return out

    prop, upd = of("ieskf.propagate"), of("ieskf.update")
    match, gate = of("matching.match"), of("matching.gate")
    nearest, pgm = of("topomap.nearest_node"), of("topomap.read_pgm")
    reads = [s for s in spans if s["name"].startswith("io.read_")]
    writes = [s for s in spans if s["name"].startswith("io.write_")]
    ransac, pnp = of("mapgen.ransac"), of("mapgen.pnp")
    mb = 1e-6
    m = {
        "ieskf.propagate_calls": len(prop),
        "ieskf.propagate_s": busy(prop),
        "ieskf.propagate_us": ratio(busy(prop), len(prop)) * 1e6,
        "ieskf.update_calls": len(upd),
        "ieskf.update_s": busy(upd),
        "ieskf.update_rows_p50": statistics.median([s["rows"] for s in upd]) if upd else 0,
        "ieskf.update_iterations": total(upd, "iterations"),
        "ieskf.step_rejected_ratio": ratio(total(upd, "rejected"), total(upd, "iterations")),
        "matching.match_s": busy(match),
        "matching.reproject_s": busy(of("matching.reproject")),
        "matching.gate_s": busy(gate),
        "matching.restore_s": busy(of("matching.restore")),
        "matching.pairs_in": total(match, "pairs"),
        "matching.inlier_ratio": ratio(total(gate, "out"), total(gate, "in")),
        "topomap.nearest_node_calls": len(nearest),
        "topomap.nearest_node_us": ratio(busy(nearest), len(nearest)) * 1e6,
        "topomap.load_map_s": busy(of("topomap.load_map")),
        "topomap.read_pgm_calls": len(pgm),
        "topomap.read_pgm_mb": total(pgm, "bytes") * mb,
        "topomap.read_pgm_frames_mb": total(under(pgm, "scenario.load_recorded_matcher"), "bytes") * mb,
        "topomap.save_map_s": busy(of("topomap.save_map")),
        "scenario.load_recorded_matcher_s": busy(of("scenario.load_recorded_matcher")),
        "scenario.write_scenario_outputs_s": busy(of("scenario.write_scenario_outputs")),
        "io.read_s": busy(reads),
        "io.read_mb": total(reads, "bytes") * mb,
        "io.write_s": busy(writes),
        "io.write_mb": total(writes, "bytes") * mb,
        "mapgen.rasterize_calls": len(of("mapgen.rasterize")),
        "mapgen.rasterize_s": busy(of("mapgen.rasterize")),
        "mapgen.match_s": busy(under(match, "mapgen.generate_map")),
        "mapgen.ransac_s": busy(ransac),
        "mapgen.ransac_inlier_ratio": ratio(total(ransac, "out"), total(ransac, "in")),
        "mapgen.pnp_s": busy(pnp),
        "mapgen.pnp_iterations": total(pnp, "iterations"),
        "sim.gen_world_s": busy(of("sim.gen_world")),
        "sim.synthesize_imu_s": busy(of("sim.synthesize_imu")),
        "sim.build_reference_map_s": busy(of("sim.build_reference_map")),
        "evaluate.ape_s": busy(of("evaluate.ape")),
    }
    for layer, seconds in self_times(spans).items():
        m[f"{layer}.self_s"] = seconds
    return m
