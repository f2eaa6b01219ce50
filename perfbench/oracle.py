"""Reference computations made apart from the program under test.

Everything here uses NumPy's LAPACK routines, SciPy's root finder and
``math``; nothing imports ``hybridcap``.  The benchmark checks the
program's outputs against these values.  All entropies are in bits.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import brentq

_EPS = 1e-12


def entropy_of_probs(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > _EPS]
    return float(max(-np.sum(p * np.log2(p)), 0.0))


def vn_entropy(rho: np.ndarray) -> float:
    return entropy_of_probs(np.linalg.eigvalsh(rho))


def outcome_probs(rho: np.ndarray, elems: np.ndarray) -> np.ndarray:
    """Tr(rho E_k) for each POVM element, as a real vector."""
    return np.array([float(np.real(np.trace(rho @ e))) for e in elems])


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def posterior_spectrum(rho: np.ndarray, elem: np.ndarray) -> np.ndarray:
    """Spectrum of the posterior state for one outcome.

    The nonzero spectrum of the posterior equals that of
    rho^{1/2} E rho^{1/2} / Tr(rho E), whatever decomposition of E the
    program uses.
    """
    r = psd_sqrt(rho)
    g = r @ elem @ r
    return np.linalg.eigvalsh((g + g.conj().T) / 2.0) / float(np.real(np.trace(g)))


def entropy_reduction(rho: np.ndarray, elems: np.ndarray) -> float:
    """ER(S, M) = H(S) - sum_k p_k H(posterior_k)."""
    p = outcome_probs(rho, elems)
    cond = sum(
        pk * entropy_of_probs(posterior_spectrum(rho, e))
        for pk, e in zip(p, elems)
        if pk > _EPS
    )
    return vn_entropy(rho) - cond


def mutual_information(weights, rows) -> float:
    """Shannon information between input index and output, rows = p(y|x)."""
    w = np.asarray(weights, dtype=float)
    P = np.clip(np.asarray(rows, dtype=float), 0.0, None)
    return entropy_of_probs(w @ P) - float(
        sum(wx * entropy_of_probs(row) for wx, row in zip(w, P))
    )


def blahut_arimoto(W: np.ndarray, tol: float = 1e-14, max_iter: int = 200000) -> float:
    """Capacity in bits of the classical channel with rows W[x] = p(y|x).

    Stops when the upper and lower capacity bounds of the iteration are
    within ``tol`` of each other.
    """
    W = np.clip(np.asarray(W, dtype=float), 0.0, None)
    n = W.shape[0]
    p = np.full(n, 1.0 / n)
    logW = np.log(np.where(W > 0.0, W, 1.0))
    for _ in range(max_iter):
        q = p @ W
        logq = np.log(np.where(q > 0.0, q, 1.0))
        D = np.sum(np.where(W > 0.0, W * (logW - logq), 0.0), axis=1)
        lower = math.log(float(np.sum(p * np.exp(D))))
        upper = float(np.max(D))
        if upper - lower < tol:
            break
        p = p * np.exp(D)
        p /= p.sum()
    return lower / math.log(2.0)


def gibbs(F: np.ndarray, E: float):
    """(beta, energy, entropy_bits) of the maximum-entropy state with Tr SF <= E.

    beta is the inverse temperature in natural units; beta = 0 when E is at
    or above the mean eigenvalue of F.
    """
    f = np.linalg.eigvalsh(F)

    def weights(beta):
        z = np.exp(-beta * (f - f[0]))
        return z / z.sum()

    if E >= float(f.mean()):
        return 0.0, float(f.mean()), math.log2(len(f))
    hi = 1.0
    while float(weights(hi) @ f) > E:
        hi *= 2.0
    beta = brentq(lambda b: float(weights(b) @ f) - E, 0.0, hi, xtol=1e-15, rtol=1e-15)
    w = weights(beta)
    return beta, float(w @ f), entropy_of_probs(w)


def ml_error(P: np.ndarray) -> float:
    """Exact maximum-likelihood average error by brute force over outcome words.

    P has shape (N, n, m): P[j, t] is the outcome law of slot t of codeword j.
    """
    N, n, m = P.shape
    correct = 0.0
    for word in itertools.product(range(m), repeat=n):
        correct += max(
            math.prod(P[j, t, word[t]] for t in range(n)) for j in range(N)
        )
    return 1.0 - correct / N


def partition_error(P: np.ndarray, decode) -> float:
    """Exact average error of the decoder ``decode(word) -> 1-based index``."""
    N, n, m = P.shape
    correct = 0.0
    for word in itertools.product(range(m), repeat=n):
        j = decode(word)
        if 1 <= j <= N:
            correct += math.prod(P[j - 1, t, word[t]] for t in range(n))
    return 1.0 - correct / N


def c_heterodyne(E: float) -> float:
    return math.log2(E + 0.5)


def c_homodyne(E: float) -> float:
    return math.log2(2.0 * E)


def cea_oscillator(E: float) -> float:
    lo = E - 0.5
    return (E + 0.5) * math.log2(E + 0.5) - (lo * math.log2(lo) if lo > 0.0 else 0.0)
