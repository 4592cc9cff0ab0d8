"""Host-speed calibration: a fixed kernel the client times between children.

A shared host's speed drifts by ±20 % or more over tens of seconds, so
one run's wall time says as much about the host as about the program.
run.py times this kernel in its own process between children, before
the set-up probes that precede each full child and right after it, and
reports the child's wall time rescaled to a host on which the kernel
takes ``REFERENCE_S``:

    wall_ref_s = wall_s * REFERENCE_S / mean(calibration before, after)

The kernel mixes what the workloads spend their time on: small Hermitian
eigensolves and rank-one updates (numpy call overhead), Gram products
over arrays larger than the cache (memory traffic) and plain Python
arithmetic (interpreter speed). It uses numpy only, never ``mpb_lab``,
and runs in a process that never imports the program, so no change to
the program moves it. numpy is imported on the first call, after the
client has pinned BLAS to one thread.
"""

from __future__ import annotations

import time

# Median calibration time in the client on the 2-vCPU Xeon KVM guest the
# benchmark was tuned on, pinned to one CPU, with one BLAS thread.
REFERENCE_S = 0.67


def calibrate() -> float:
    """Seconds the fixed kernel takes on this host now."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = a @ a.conj().T + 8 * np.eye(8)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    x = rng.standard_normal((8, 200_000)) + 1j * rng.standard_normal((8, 200_000))
    t0 = time.perf_counter()
    for _ in range(8000):
        np.linalg.eigh(h)
        w = h @ v
        h = h - 1e-9 * np.outer(w, w.conj())
        h = 0.5 * (h + h.conj().T)
    for _ in range(40):
        x @ x.conj().T
        x = x * 0.999
    acc = 0
    for i in range(600_000):
        acc += i * i % 7
    return time.perf_counter() - t0
