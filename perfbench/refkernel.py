"""Fixed reference kernel: the unit ("ref") every benchmark time is divided by.

The kernel does the kinds of work the program does -- Python-level scalar
arithmetic and loops around small complex NumPy matrix operations (Jacobi
row rotations, products, traces, einsum) and NumPy ufunc calls on tiny
arrays (multiplicative prior updates) -- on constant data, so its duration
tracks how fast this process is being run at the moment.  It imports
nothing from the program under test.

Changing this file changes the unit of every ref-normalised metric, so it
must stay as it is; a new kernel needs a new baseline.
"""

from __future__ import annotations

import math
import time

import numpy as np

_SEED_MATRIX = np.array(
    [
        [2.0, 0.5 - 0.25j, 0.1j, 0.2],
        [0.5 + 0.25j, 1.0, 0.3, -0.1j],
        [-0.1j, 0.3, 0.5, 0.05 + 0.05j],
        [0.2, 0.1j, 0.05 - 0.05j, 1.5],
    ],
    dtype=np.complex128,
)
_POVM = np.stack([np.diag([0.7, 0.2, 0.1, 0.0]), np.diag([0.3, 0.8, 0.9, 1.0])]).astype(
    np.complex128
)
# a small classical channel for the Blahut-Arimoto-like part of the kernel
_CHANNEL = np.array(
    [
        [0.5, 0.3, 0.2, 0.0],
        [0.1, 0.6, 0.2, 0.1],
        [0.3, 0.3, 0.3, 0.1],
        [0.0, 0.2, 0.2, 0.6],
        [0.25, 0.25, 0.25, 0.25],
    ]
)
_SWEEPS = 30
_PRIOR_STEPS = 450


def _rotate(a: np.ndarray, p: int, q: int) -> None:
    apq = a[p, q]
    mag = abs(apq)
    if mag < 1e-300:
        return
    phase = apq / mag
    tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
    t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    rp, rq = a[p, :].copy(), a[q, :].copy()
    a[p, :] = c * rp - (phase * s) * rq
    a[q, :] = s * rp + (phase * c) * rq
    cp, cq = a[:, p].copy(), a[:, q].copy()
    a[:, p] = c * cp - (np.conj(phase) * s) * cq
    a[:, q] = s * cp + (np.conj(phase) * c) * cq


def _prior_updates() -> float:
    """Multiplicative prior updates on a 5x4 channel: many NumPy ufunc calls on tiny arrays."""
    w = np.full(_CHANNEL.shape[0], 1.0 / _CHANNEL.shape[0])
    for _ in range(_PRIOR_STEPS):
        pbar = w @ _CHANNEL
        mask = (_CHANNEL > 1e-15) & (pbar > 1e-15)[None, :]
        terms = np.where(
            mask, _CHANNEL * np.log2(np.maximum(_CHANNEL, 1e-300) / np.maximum(pbar, 1e-300)), 0.0
        )
        logw = np.log2(np.maximum(w, 1e-300)) + terms.sum(axis=1)
        logw -= logw.max()
        nw = np.exp2(logw)
        w = nw / nw.sum()
    return float(w @ np.arange(len(w)))


def reference_kernel() -> float:
    """Run the fixed workload once and return its checksum."""
    acc = _prior_updates()
    for sweep in range(_SWEEPS):
        a = _SEED_MATRIX + (0.01 * sweep) * np.eye(4)
        for _ in range(3):
            for p in range(3):
                for q in range(p + 1, 4):
                    _rotate(a, p, q)
        w = np.sort(np.real(np.diag(a)))
        probs = np.real(np.einsum("kij,ji->k", _POVM, a)) / float(np.sum(w))
        for x in probs:
            if x > 1e-12:
                acc -= x * math.log2(x)
        g = a @ a.conj().T
        acc += float(np.real(np.trace(g))) * 1e-3
        for k in range(40):
            acc += math.sqrt(k + 1.0) * 1e-6
    return acc


EXPECTED = reference_kernel()


def timed_reference() -> float:
    """Wall time in seconds of one kernel run; raises if the result drifts."""
    t0 = time.perf_counter()
    value = reference_kernel()
    elapsed = time.perf_counter() - t0
    if value != EXPECTED:
        raise RuntimeError(f"reference kernel returned {value!r}, expected {EXPECTED!r}")
    return elapsed
