"""Benchmark of topoloc: one workload run, reported as one JSON line.

    python3 perfbench/run.py --workload corridor --seed 3 --seconds 15 --trace 0

Run it from the root of a source tree; it adds ``src`` to the import path of
the processes it starts, so nothing needs installing. Each phase runs in its
own interpreter (``perfbench/worker.py``): the set-ups, then the measured
phase, so that ``import_s`` and ``peak_rss_mb`` belong to one run alone.
Scratch files go to ``.perfbench_work/`` and are removed at the end; spans
and the run's details are kept in ``.perfbench_out/``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones. The line before it, prefixed ``perfbench:``, gives the
environment, sample counts and any failed check. The workloads, metrics and
held-out seeds are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import spans

ROOT = Path(__file__).resolve().parent.parent
# Acceptance seed (the default) and timed set-ups per untraced run.
# ``starved`` builds its worlds in memory inside its measuring process, so it
# has no set-up phase.
WORKLOADS = {
    "corridor": {"seed": 3, "setup": True, "setups": 3},
    "mapgen": {"seed": 7, "setup": True, "setups": 3},
    "starved": {"seed": 0, "setup": False, "setups": 0},
}
IMPORT_SAMPLES = 10
DEADLINE_S = 170.0


class PhaseFailed(RuntimeError):
    pass


def run_phase(phase: str, spec: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), phase, json.dumps(spec)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise PhaseFailed(f"{phase} did not finish before the run's deadline")
    if proc.returncode != 0:
        raise PhaseFailed(f"{phase} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def pass_figures(p: dict) -> dict:
    """One pass's frame times and frame rate, in reference time (see ``calib``).

    Each frame's time is scaled by the kernel sample taken right after it,
    the pass's wall time (less the time the samples took) by their median.
    """
    if len(p["calib_s"]) != len(p["frame_s"]):
        raise PhaseFailed("a pass has no reference-kernel sample for every frame")
    ms = [f * 1e3 * calib.REFERENCE_S / c for f, c in zip(p["frame_s"], p["calib_s"])]
    q = spans.tail_percentile(len(ms))
    tail = statistics.quantiles(ms, n=100, method="inclusive")[q - 1] if len(ms) > 1 else ms[0]
    wall = (p["wall_s"] - p["calib_wall_s"]) * calib.scale(p["calib_s"])
    return {"p50": median(ms), "tail": tail, "tail_q": q, "n": len(ms), "fps": p["frames"] / wall}


def end_to_end(setup_s: list[float], imports: list[float], measures: list[dict]) -> tuple[dict, dict]:
    passes = [p for m in measures for p in m["passes"] if not p["traced"]]
    good = [p for p in passes if not p["errors"]] or passes
    good = [p for p in good if "frames" in p]
    if not good:
        raise PhaseFailed("no pass gave a result to time")
    first = good[0]
    stats = [pass_figures(p) for p in good]
    m = {
        "setup_s": (median(setup_s), "s"),
        "import_s": (median(imports), "s"),
        "frames_per_s": (median([s["fps"] for s in stats]), "1/s"),
        "frame_ms_p50": (median([s["p50"] for s in stats]), "ms"),
        "frame_ms_tail": (median([s["tail"] for s in stats]), "ms"),
        "peak_rss_mb": (max(m["peak_rss_mb"] for m in measures), "MB"),
        "ok_frame_ratio": (first["ok_frames"] / max(first["frames"], 1), "ratio"),
        "ape_t_m": (first["ape_t_m"], "m"),
        "ape_r_rad": (first["ape_r_rad"], "rad"),
    }
    details = {
        "frames_per_s_by_pass": [s["fps"] for s in stats],
        "raw_frames_per_s_by_pass": [p["frames"] / (p["wall_s"] - p["calib_wall_s"]) for p in good],
        "raw_frame_ms_p50_by_pass": [median(p["frame_s"]) * 1e3 for p in good],
        "host_scale_by_pass": [calib.scale(p["calib_s"]) for p in good],
        "setup_s_samples": setup_s,
        "import_s_samples": imports,
        "frames_per_pass": first["frames"],
        "failed_frames": first["frames"] - first["ok_frames"],
        "worst_err_t_m": first.get("worst_err_t_m"),
        "worst_err_r_rad": first.get("worst_err_r_rad"),
        "err_tail_t_m": first.get("err_tail_t_m"),
        "err_tail_r_rad": first.get("err_tail_r_rad"),
        "frame_samples": sum(s["n"] for s in stats),
        "frame_ms_tail_percentile": stats[0]["tail_q"],
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, details


def per_layer(
    setup_spans: list[dict], measure: dict, measure_spans: list[dict], untraced_wall: float
) -> tuple[dict, list[dict]]:
    offset = len(setup_spans)
    joined = setup_spans + [
        dict(s, parent=s["parent"] + offset if s["parent"] >= 0 else -1) for s in measure_spans
    ]
    m = spans.layer_metrics(joined)
    traced = next(p for p in measure["passes"] if p["traced"])
    m.update(traced.get("layer", {"ieskf.nees_pos_mean": 0.0, "ieskf.nees_rot_mean": 0.0}))
    wall = spans.root_wall_s(joined)
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_ratio"] = wall / untraced_wall
    return {k: {"value": v, "unit": unit_of(k)} for k, v in m.items()}, joined


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_mb", "MB"), ("_ratio", "ratio"), ("_mean", "1")):
        if name.endswith(suffix):
            return unit
    return "count"


def schedule(w: dict, trace: int) -> list[str]:
    """The phases of one run, in order.

    Untraced runs time several set-ups, then one measuring process repeats
    the timed phase on the last set-up's inputs. Traced runs do one untraced
    and one traced set-up, then one measuring process that alternates passes.
    """
    if not w["setup"]:
        return ["measure"]
    if trace:
        return ["setup", "setup:traced", "measure"]
    return ["setup"] * w["setups"] + ["measure"]


def run(args, work: Path) -> tuple[dict, dict]:
    w = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    outdir = ROOT / ".perfbench_out"
    work.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    phases = schedule(w, args.trace)
    spec = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "dir": str(work),
        "spans": str(work / "measure.spans.jsonl"),
    }
    setups, measures, setup_spans = [], [], []
    for phase in phases:
        if phase == "measure":
            measures.append(run_phase("measure", spec, deadline))
        else:
            traced = phase == "setup:traced"
            s_spec = dict(spec, trace=int(traced), spans=str(work / "setup.spans.jsonl"))
            setups.append(run_phase("setup", s_spec, deadline))
            if traced:
                setup_spans = spans.read_spans(s_spec["spans"])
    # the untraced, passing set-ups; starved times one set-up per world in memory
    setup_s = [s["setup_s"] * calib.scale(s["calib_s"]) for s in setups[:1 if args.trace else None] if s["ok"]]
    if not w["setup"]:
        setup_s = [v * calib.scale(measures[0]["setup_calib_s"]) for v in measures[0]["setup_s"]]
    procs = setups + measures
    procs += [run_phase("import", spec, deadline) for _ in range(IMPORT_SAMPLES - len(procs))]
    imports = [c["import_s"] * calib.scale(c["import_calib_s"]) for c in procs]

    passes = [p for m in measures for p in m["passes"]]
    failures = [f"setup {i}: failed" for i, s in enumerate(setups) if not s["ok"]]
    digest = next((p["digest"] for p in passes if "digest" in p), None)
    for i, p in enumerate(passes):  # criterion 10: reruns on one input are identical
        if p.get("digest", digest) != digest:
            p["errors"].append("output differs from the first pass")
        failures += [f"pass {i}: {e}" for e in p["errors"]]
    attempted = len(setups) + len(passes)
    failed = sum(1 for s in setups if not s["ok"]) + sum(1 for p in passes if p["errors"])

    metrics, details = end_to_end(setup_s, imports, measures)
    if args.trace:
        untraced_s = [p["wall_s"] - p["calib_wall_s"] for p in passes if not p["traced"]]
        raw_setup = [s["setup_s"] for s in setups[:1]] or measures[0]["setup_s"]
        untraced = median(raw_setup) + median(untraced_s)
        metrics, joined = per_layer(setup_spans, measures[0], spans.read_spans(spec["spans"]), untraced)
        with open(outdir / f"{args.workload}-seed{args.seed}.spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in joined)
    details.update(
        workload=args.workload, seed=args.seed, trace=args.trace, passes=len(passes),
        env=measures[0]["env"], failures=failures,
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None, help="input seed (default: the acceptance seed)")
    p.add_argument("--seconds", type=float, default=18.0, help="length of the measured phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = p.parse_args(argv)
    if args.seed is None:
        args.seed = WORKLOADS[args.workload]["seed"]
    if not (ROOT / "src" / "topoloc" / "cli.py").is_file():
        print(f"perfbench: no topoloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, details = run(args, work)
    except PhaseFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details["loadavg_start"] = load_start
    details["loadavg_end"] = os.getloadavg()
    record = dict(details, result=result)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (ROOT / ".perfbench_out" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print("perfbench: " + json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
