"""Reference kernel that tracks the host's current speed for pipeline-like code.

The benchmark's host is shared: over minutes its speed for this code moves
by up to 50% (one CLI command took 1.9 s and 3.1 s a minute apart, with
CPU time tracking wall time).  ``kernel_s`` times a fixed computation with
the pipeline's instruction mix: short complex convolutions, 2x2 products
and small-array numpy calls driven from Python, and a 130x130 complex
Cholesky (the Toeplitz section at N=16).  It belongs to the benchmark, so it
is identical on every commit.  ``at_reference_speed`` rescales a measured
time by ``REFERENCE_KERNEL_S`` over the kernel time measured next to it.
"""

from __future__ import annotations

import time

#: a round value near the kernel's median on the 2-vCPU x86-64 VM the
#: benchmark was built on, so that rescaled times read close to seconds
REFERENCE_KERNEL_S = 0.2

_STEPS = 2000
_CHOLESKY = 50


def kernel_s() -> float:
    import numpy as np
    import scipy.linalg

    rng = np.random.default_rng(0)
    y = rng.normal(size=(33, 2, 2)) + 1j * rng.normal(size=(33, 2, 2))
    xi = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    m = rng.normal(size=(130, 130)) + 1j * rng.normal(size=(130, 130))
    gram = m @ m.conj().T + 130 * np.eye(130)
    lam = np.exp(2j * np.pi * np.arange(140) / 140)
    powers = np.arange(-4, 5)
    t0 = time.perf_counter()
    for _ in range(_STEPS):
        out = np.zeros((35, 2, 2), dtype=np.complex128)
        for r in range(2):
            for c in range(2):
                out[:, r, c] = np.convolve(y[:, r, 0], xi[:, 0, c]) + np.convolve(y[:, r, 1], xi[:, 1, c])
        y = 0.5 * (y + 1e-3 * out[1:34])
        acc = np.zeros((2, 2), dtype=np.complex128)
        for j in range(1, 9):
            acc += xi[j % 3] @ y[j]
        vals = (lam[:, None] ** powers[None, :]) @ y[:9, 0, 0]
        s = complex(vals.sum()) + sum(complex(k, 0.5) ** 2 for k in range(12))
        y[0, 0, 0] += 1e-12 * (s + acc[0, 0])
    for _ in range(_CHOLESKY):
        scipy.linalg.cholesky(gram, lower=True, check_finite=False)
    return time.perf_counter() - t0


def at_reference_speed(times: list[float], kernels: list[float]) -> list[float]:
    """Rescale times[i] by the mean of kernels[i] and kernels[i + 1], timed around it."""
    return [t * 2.0 * REFERENCE_KERNEL_S / (a + b) for t, a, b in zip(times, kernels, kernels[1:])]
