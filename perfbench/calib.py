"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's times are meant to compare two versions of topoloc, but a
shared VM changes speed under them: on a 2-vCPU Xeon VM the same pass of
``corridor`` took from 4.4 to 8.4 s within minutes, with CPU time equal to
wall time, and the slow stretches last from seconds to tens of minutes.
Medians over a run cannot remove a stretch that covers the whole run.

So every timed piece of work is paired with samples of this kernel taken
right beside it: after each frame, before and after each set-up, after each
import. The kernel mixes small dense linear algebra with an interpreter
loop, like a filter update, starts from caches it has flushed itself, and
never changes. A time is reported in reference seconds:

    reference time = measured time * REFERENCE_S / median(kernel samples)

that is, the time the work would have taken had the host run the kernel in
``REFERENCE_S``. The raw times are kept in the run's details line.

This module imports numpy only when the kernel first runs, so that the
worker can time a cold ``import topoloc.cli`` before loading it.
"""

from __future__ import annotations

import statistics
import time

# The kernel's time on a 2-vCPU Intel Xeon VM (2 MiB L2; Python 3.11,
# numpy 2.4, OpenBLAS 0.3.31) in its fast stretches. Any fixed value works;
# this one keeps reference seconds close to that host's own.
REFERENCE_S = 2.0e-4
BURST = 40
FLUSH_DOUBLES = 1 << 19  # 4 MiB, twice that host's L2
_DATA: dict = {}


def sample_s() -> float:
    """Wall time of one run of the reference kernel (about 0.2 ms).

    A fixed 4 MiB buffer is rewritten first, untimed, so the kernel always
    starts from the same cold caches: its time then follows the host, not
    whatever the benchmarked code left in the caches before it.
    """
    import numpy as np

    if not _DATA:
        rng = np.random.default_rng(0)
        _DATA.update(
            a=rng.normal(size=(400, 18)), b=rng.normal(size=18), eye=np.eye(18),
            flush=np.ones(FLUSH_DOUBLES),
        )
    a, b, eye = _DATA["a"], _DATA["b"], _DATA["eye"]
    _DATA["flush"] += 1.0
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(4):
        h = a * (1.0 + i * 1e-6)
        acc += float(np.linalg.solve(h.T @ h + eye, b).sum())
        for j in range(150):
            acc += j * 0.5
    return time.perf_counter() - t0


def burst(n: int = BURST) -> list[float]:
    """``n`` kernel samples in a row, after two unrecorded warm-up runs."""
    for _ in range(2):
        sample_s()
    return [sample_s() for _ in range(n)]


def scale(samples: list[float]) -> float:
    """Factor that turns a time measured beside ``samples`` into reference seconds."""
    return REFERENCE_S / statistics.median(samples)
