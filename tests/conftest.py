"""Shared fixtures and random-instance generators for the test suite.

The library and these tests both get their spectra from NumPy's LAPACK
routines.  Spectrum-level checks stay independent through separate code
paths (explicit posterior matrices against the batched kernel stack, the
square-root route against the kernel route) and through the hand-computed
values pinned in the tests.
"""

import numpy as np

from hybridcap import DensityOperator, Ensemble, FinitePOVM


def random_density(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    s = g @ g.conj().T
    return DensityOperator(s / np.real(np.trace(s)))


def random_pure(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v = v / np.linalg.norm(v)
    return DensityOperator(np.outer(v, v.conj()))


def _complete(mats):
    total = sum(mats)
    w, V = np.linalg.eigh(total)
    W = (V / np.sqrt(w)) @ V.conj().T
    return [W @ A @ W for A in mats]


def random_povm(rng, d, m):
    mats = []
    for _ in range(m):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mats.append(g @ g.conj().T)
    return FinitePOVM.from_pairs(
        [(str(k), A) for k, A in enumerate(_complete(mats))]
    )


def random_rank1_povm(rng, d, m):
    # m < d rank-1 elements cannot sum to a full-rank operator to complete
    if m < d:
        raise ValueError(f"a rank-1 POVM on dimension {d} needs m >= {d}, got {m}")
    mats = []
    for _ in range(m):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        mats.append(np.outer(v, v.conj()))
    return FinitePOVM.from_pairs(
        [(str(k), A) for k, A in enumerate(_complete(mats))]
    )


def random_ensemble(rng, d, n):
    w = rng.random(n) + 0.05
    w = w / w.sum()
    return Ensemble(w, tuple(random_density(rng, d) for _ in range(n)))


def z_povm():
    return FinitePOVM.from_pairs(
        [("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 1.0]))]
    )


def bsc_povm(p=0.75):
    return FinitePOVM.from_pairs(
        [("0", np.diag([p, 1.0 - p])), ("1", np.diag([1.0 - p, p]))]
    )


def trine_povm():
    pairs = []
    for k, th in enumerate([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0]):
        v = np.array([np.cos(th / 2.0), np.sin(th / 2.0)], dtype=complex)
        pairs.append((str(k), (2.0 / 3.0) * np.outer(v, v.conj())))
    return FinitePOVM.from_pairs(pairs)


def ket(d, k):
    v = np.zeros((d, d), dtype=complex)
    v[k, k] = 1.0
    return DensityOperator(v)
