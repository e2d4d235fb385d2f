"""Fixed references that track the host's speed.

The host's speed drifts by tens of percent over minutes, in CPU time as well
as wall time.  Timing a fixed reference before and after each measured
operation lets run.py scale the operation to the reference host speed.  No
reference uses avgrl, so no change to the program can move them: an
in-process pass for CLI calls (one for `rate`, one for the learning
commands), and a fresh interpreter importing avgrl's dependencies for set-up
probes.
"""

import csv
import io
import math
import sys
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

# Seconds each reference takes at the reference host speed (medians on the
# 2-core Xeon where the baseline in README.md was taken).
REFERENCE_S = 0.046
RATE_REFERENCE_S = 0.0067
IMPORT_REFERENCE_S = 0.70
IMPORT_REFERENCE_ARGV = [
    sys.executable, "-c", "import numpy, scipy.optimize, scipy.sparse, scipy.sparse.csgraph"]


def reference_loop() -> float:
    """Seconds for one pass of fixed work that does not use avgrl.

    The pass mixes what the workloads spend their time on: interpreter
    arithmetic on 8-element arrays (the step kernel), small and 50-state
    dense solves and a strong-components search (the oracles), and masked
    reductions over 20k-element arrays (rate fitting).
    """
    rng = np.random.default_rng(0)
    x, y = rng.random(8), rng.random(8)
    a = rng.random((16, 16))
    tall, square = rng.random((51, 50)), rng.random((50, 50))
    support = sp.csr_matrix(square > 0.5)
    big = rng.random(20_000)
    start = time.perf_counter()
    acc = 0.0
    for i in range(10_000):
        acc += float(x @ y) * 1e-9
        x[i % 8] = acc
    for _ in range(150):
        np.linalg.lstsq(a, a[0], rcond=None)
    for _ in range(15):
        np.linalg.lstsq(tall, tall[:, 0], rcond=None)
        np.linalg.svd(square, compute_uv=False)
        connected_components(support, directed=True, connection="strong")
    for i in range(40):
        mask = (big > i / 80.0) & (big <= 0.5 + i / 80.0)
        acc += float(np.mean(np.log(big[mask])))
    return time.perf_counter() - start


_rng = np.random.default_rng(1)
_RATE_TEXT = "\n".join(",".join(repr(float(v)) for v in row) for row in _rng.random((600, 9)))
_RATE_T = 50.0 * np.arange(1, 20_001)
_RATE_Y = _rng.random(20_000)


def rate_reference_loop() -> float:
    """Seconds for one pass of fixed work like a `rate` call's.

    `rate` parses CSV floats in the interpreter and takes trailing-window
    means of logs over 20k-element arrays.  The mixed pass above follows the
    host's speed changes less closely on that work: in a 5-minute probe of
    back-to-back `rate` calls, the spread of 7-call medians was 0.087 when
    scaled by the mixed pass and 0.016 by this one.
    """
    start = time.perf_counter()
    for row in csv.reader(io.StringIO(_RATE_TEXT)):
        [float(v) for v in row]
    for i in range(0, 20_000, 400):
        t = _RATE_T[i]
        mask = (_RATE_T > t / 10.0) & (_RATE_T <= t) & (_RATE_Y > 0.0)
        math.exp(float(np.mean(np.log(_RATE_Y[mask]))))
    return time.perf_counter() - start


def for_command(command: str):
    """The in-process reference pass for a CLI command, and its seconds at
    the reference host speed."""
    if command == "rate":
        return rate_reference_loop, RATE_REFERENCE_S
    return reference_loop, REFERENCE_S


def reference_for(call_s: float, loop) -> float:
    """Mean seconds per pass of `loop`, run for about an eighth of `call_s`."""
    passes, spent = 0, 0.0
    while passes == 0 or spent < call_s / 8.0:
        spent += loop()
        passes += 1
    return spent / passes
