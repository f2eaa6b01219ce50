"""States, POVMs, measurement statistics, posterior states and entropies.

All entropic quantities are in bits (log base 2).  The 0·log 0 := 0
convention is applied with a 1e-12 threshold on probabilities and
eigenvalues throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qmat
from .errors import (
    DimensionMismatch,
    LabelMismatch,
    ZeroProbabilityOutcome,
)

_EIG_EPS = 1e-12
_LN2 = math.log(2.0)


def _xlog2x(v: np.ndarray) -> np.ndarray:
    mask = v > _EIG_EPS
    return np.where(mask, v * np.log2(np.where(mask, v, 1.0)), 0.0)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, PSD, unit-trace complex matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = qmat.as_complex_matrix(self.matrix)
        tr = float(np.real(np.trace(m)))
        # a non-Hermitian matrix is reported as such before its trace
        if abs(tr - 1.0) > 1e-9 and qmat.validate_hermitian(m, 1e-8):
            raise ValueError(f"trace {tr} deviates from 1 by more than 1e-9")
        qmat.check_psd_stack(
            m[None],
            "density operator is not Hermitian within 1e-8",
            "state eigenvalue {w:.3e} below -1e-9",
        )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class FinitePOVM:
    """Ordered finite family of positive operators summing to the identity."""

    labels: tuple
    elements: np.ndarray  # shape (m, d, d)

    def __post_init__(self):
        elems = np.asarray(self.elements, dtype=np.complex128)
        if elems.ndim != 3 or elems.shape[1] != elems.shape[2] or elems.shape[0] < 1:
            raise ValueError(f"POVM elements must have shape (m, d, d), got {elems.shape}")
        labels = tuple(str(x) for x in self.labels)
        if len(labels) != elems.shape[0]:
            raise ValueError("label count does not match element count")
        # decoding keys words by label, so two outcomes may not share one
        for k, label in enumerate(labels):
            if label in labels[:k]:
                raise ValueError(f"POVM label {label!r} repeats")
        qmat.check_psd_stack(
            elems,
            "POVM element {label} is not Hermitian",
            "POVM element {label} eigenvalue {w:.3e} below -1e-9",
            labels,
        )
        dev = np.max(np.abs(elems.sum(axis=0) - np.eye(elems.shape[1])))
        if dev > 1e-8:
            raise ValueError(f"povm completeness deviation {dev:.1e} > 1e-8")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "elements", elems)

    @classmethod
    def from_pairs(cls, pairs) -> "FinitePOVM":
        labels = [p[0] for p in pairs]
        elems = np.stack([qmat.as_complex_matrix(p[1]) for p in pairs])
        return cls(tuple(labels), elems)

    @property
    def size(self) -> int:
        return self.elements.shape[0]

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def kernels(self) -> tuple:
        """Per-element matrices A with columns √μ_k v_k (eigenvalues > 1e-12 kept).

        Computed once per POVM and cached; every posterior-state evaluation
        reuses them.
        """
        return self._kernel_cache()[1]

    def _kernel_cache(self) -> tuple:
        """(K, kernels(), K†): K is the (m, d, d) stack of the kernels, each
        zero-padded back to d columns where its eigenvalues were dropped.

        Built from one batched eigendecomposition of the element stack.
        """
        cached = getattr(self, "_kernels", None)
        if cached is None:
            e = self.elements
            w, V = np.linalg.eigh((e + e.conj().transpose(0, 2, 1)) / 2.0)
            keep = w > _EIG_EPS
            K = V * np.sqrt(np.where(keep, w, 0.0))[:, None, :]
            cached = (K, tuple(Kk[:, kk] for Kk, kk in zip(K, keep)),
                      K.conj().transpose(0, 2, 1))
            object.__setattr__(self, "_kernels", cached)
        return cached


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probability vector aligned with a POVM's outcome order."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float).copy()
        if np.min(p) < -1e-12:
            raise ValueError(f"probability {np.min(p):.3e} below -1e-12")
        p[p < 0.0] = 0.0
        s = float(p.sum())
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {s}, off by more than 1e-9")
        p = p / s
        object.__setattr__(self, "probabilities", p)


@dataclass(frozen=True)
class HybridState:
    """Finite cq-state: outcome-labelled positive operators with total trace 1."""

    labels: tuple
    blocks: tuple  # of (d, d) complex matrices

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        blocks = tuple(qmat.as_complex_matrix(b) for b in self.blocks)
        if len(labels) != len(blocks):
            raise ValueError("label count does not match block count")
        if blocks:
            # blocks may differ in dimension: zero padding adds zero eigenvalues
            d = max(len(b) for b in blocks)
            stack = np.zeros((len(blocks), d, d), dtype=np.complex128)
            for k, b in enumerate(blocks):
                stack[k, : len(b), : len(b)] = b
            qmat.check_psd_stack(
                stack,
                "block {label} is not Hermitian",
                "block {label} eigenvalue below -1e-9",
                labels,
            )
        total = sum((float(np.real(np.trace(b))) for b in blocks), 0.0)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"total trace {total} deviates from 1")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "blocks", blocks)

    def weights(self) -> np.ndarray:
        return np.array([float(np.real(np.trace(b))) for b in self.blocks])


@dataclass(frozen=True)
class Ensemble:
    """Finite probability distribution over density operators."""

    weights: np.ndarray
    states: tuple  # of DensityOperator

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        states = tuple(self.states)
        if len(states) == 0 or len(states) != len(w):
            raise ValueError("ensemble needs matching, non-empty weights and states")
        if np.min(w) <= 0.0:
            raise ValueError("ensemble weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("ensemble weights must sum to 1 within 1e-9")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise DimensionMismatch("ensemble members have mixed dimensions")
        object.__setattr__(self, "weights", w.copy())
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states[0].dim


@dataclass(frozen=True)
class EnergyConstraint:
    """Feasible set {S : Tr SF <= E} for a positive operator F."""

    F: np.ndarray
    E: float

    def __post_init__(self):
        f = qmat.as_complex_matrix(self.F)
        qmat.check_psd_stack(
            f[None],
            "constraint operator F is not Hermitian",
            "constraint operator F has eigenvalue below -1e-9",
        )
        if not self.E >= 0.0:  # NaN fails every comparison; +inf is no constraint
            raise ValueError(f"energy bound E must be >= 0, got {self.E}")
        object.__setattr__(self, "F", f)
        object.__setattr__(self, "E", float(self.E))


# ---------------------------------------------------------------------------
# Measurement statistics
# ---------------------------------------------------------------------------

def _check_dims(d1: int, d2: int):
    if d1 != d2:
        raise DimensionMismatch(f"dimension mismatch: {d1} vs {d2}")


def outcome_probs(matrix: np.ndarray, M: FinitePOVM) -> np.ndarray:
    """Raw outcome probabilities Tr(S M_ω), no clamping.  Internal fast path."""
    return np.real(np.einsum("kij,ji->k", M.elements, matrix))


def measure(S: DensityOperator, M: FinitePOVM) -> OutcomeDistribution:
    """Outcome distribution p(ω) = Tr S M(ω) of observable M in state S."""
    _check_dims(S.dim, M.dim)
    return OutcomeDistribution(outcome_probs(S.matrix, M))


def posterior(S: DensityOperator, M: FinitePOVM, omega: int) -> DensityOperator:
    """State of the system conditioned on outcome ω.

    Built from the eigendecomposition M_ω = Σ_k μ_k |v_k><v_k| (μ_k > 1e-12
    kept): with a_k = √μ_k v_k, the matrix G_{kj} = <a_k|S|a_j> divided by
    p(ω) = Tr S M_ω, expressed in the computational basis indexed by the
    kept-eigenvalue order.  Only the spectrum of the result is
    convention-free; every downstream quantity depends on the spectrum alone.
    """
    _check_dims(S.dim, M.dim)
    elem = M.elements[omega]
    p = float(np.real(np.trace(S.matrix @ elem)))
    if p <= _EIG_EPS:
        raise ZeroProbabilityOutcome(f"outcome {omega} has probability {p:.3e}")
    A = M.kernels()[omega]
    G = A.conj().T @ S.matrix @ A
    d = S.dim
    out = np.zeros((d, d), dtype=np.complex128)
    r = G.shape[0]
    out[:r, :r] = G / p
    out = (out + out.conj().T) / 2.0
    # tiny negative eigenvalues from roundoff are within the library policy
    return DensityOperator(out / np.real(np.trace(out)))




# ---------------------------------------------------------------------------
# Entropy functionals
# ---------------------------------------------------------------------------

def vn_entropy(S: DensityOperator) -> float:
    """von Neumann entropy -Tr S log₂ S in bits."""
    return entropy_of_spectrum(qmat.herm_eig(S.matrix).eigenvalues)


def entropy_of_spectrum(w: np.ndarray) -> float:
    w = np.asarray(w, dtype=float)
    # entropy is nonnegative; rounding residue can leave a tiny negative sum
    val = float(-np.sum(_xlog2x(w)))
    return val if val > 0.0 else 0.0


def shannon_entropy(p: OutcomeDistribution) -> float:
    """Discrete Shannon entropy in bits."""
    return entropy_of_spectrum(p.probabilities)


def _rel_entropy_psd(a: np.ndarray, b: np.ndarray) -> float:
    """Tr A (log₂ A - log₂ B) for positive operators, +inf on support violation."""
    ea = qmat.herm_eig(a)
    eb = qmat.herm_eig(b)
    wa = np.where(ea.eigenvalues < 0.0, 0.0, ea.eigenvalues)
    wb = np.where(eb.eigenvalues < 0.0, 0.0, eb.eigenvalues)
    term1 = float(np.sum(_xlog2x(wa)))
    # mass of A carried by each eigenvector of B
    overlap = np.abs(eb.eigenvectors.conj().T @ ea.eigenvectors) ** 2  # (j, i)
    mass = overlap @ wa  # Σ_i λ_i |<v_j|u_i>|², per j
    bad = (wb <= _EIG_EPS) & (mass > 1e-9)
    if np.any(bad):
        return math.inf
    ok = wb > _EIG_EPS
    term2 = float(np.sum(mass[ok] * np.log2(wb[ok])))
    return term1 - term2


def relative_entropy_q(S1: DensityOperator, S2: DensityOperator) -> float:
    """Quantum relative entropy Tr S1(log₂ S1 - log₂ S2); +inf off support."""
    _check_dims(S1.dim, S2.dim)
    val = _rel_entropy_psd(S1.matrix, S2.matrix)
    return val if math.isinf(val) else max(val, 0.0)


def hybrid_entropy(S: HybridState) -> float:
    """Entropy of a cq-state: H_c(p) + Σ_ω p(ω) H_q(Ŝ(ω)) in bits."""
    w = S.weights()
    hc = float(-np.sum(_xlog2x(w)))
    hq = 0.0
    for p, block in zip(w, S.blocks):
        if p > _EIG_EPS:
            hq += p * entropy_of_spectrum(
                np.maximum(qmat.herm_eig(block / p).eigenvalues, 0.0)
            )
    return hc + hq


def hybrid_relative_entropy(S1: HybridState, S2: HybridState) -> float:
    """Blockwise relative entropy of cq-states sharing an outcome label set."""
    if S1.labels != S2.labels:
        raise LabelMismatch("hybrid states have different outcome labels")
    total = 0.0
    for b1, b2 in zip(S1.blocks, S2.blocks):
        if float(np.real(np.trace(b1))) <= _EIG_EPS:
            continue
        val = _rel_entropy_psd(b1, b2)
        if math.isinf(val):
            return math.inf
        total += val
    return max(total, 0.0)


def mutual_information(pi: Ensemble, M: FinitePOVM) -> float:
    """Shannon information I(π, M) between input label and measurement outcome."""
    _check_dims(pi.dim, M.dim)
    P = np.stack([outcome_probs(s.matrix, M) for s in pi.states])
    P[P < 0.0] = 0.0
    return mutual_information_from_rows(pi.weights, P)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Σ_i a_i b_i over the last axis, one BLAS dot per pair of broadcast rows.

    Each result is bit-identical to the 1-D ``a @ b`` of its pair, whatever
    the stack around it.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _divergences(weights: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Per-row D(P_x‖p̄) in bits, p̄ = weights @ P; weights (..., n), rows (..., n, m)."""
    return _divergences_to(P, (weights[..., None, :] @ P)[..., 0, :])


def _divergences_to(P: np.ndarray, pbar: np.ndarray) -> np.ndarray:
    """Per-row D(P_x‖p̄) in bits of rows (..., n, m) against p̄ (..., m);
    entries <= 1e-12 count as 0."""
    mask = (P > _EIG_EPS) & (pbar > _EIG_EPS)[..., None, :]
    ratio = np.maximum(P, 1e-300) / np.maximum(pbar, 1e-300)[..., None, :]
    return np.where(mask, P * np.log2(ratio), 0.0).sum(axis=-1)


def _mutual_informations(weights: np.ndarray, P: np.ndarray) -> np.ndarray:
    """I of each (weights, rows) pair of the stacks (..., n) and (..., n, m)."""
    return np.maximum(_dots(weights, _divergences(weights, P)), 0.0)


def mutual_information_from_rows(weights: np.ndarray, P: np.ndarray) -> float:
    """I from a (members, outcomes) conditional probability matrix."""
    return float(_mutual_informations(np.asarray(weights, dtype=float), P))


def chi_cq(weights, states) -> float:
    """Holevo-type quantity for hybrid states: H(Σ π_x S_x) - Σ π_x H(S_x)."""
    w = np.asarray(weights, dtype=float)
    states = list(states)
    labels = states[0].labels
    for s in states[1:]:
        if s.labels != labels:
            raise LabelMismatch("hybrid states have different outcome labels")
    avg_blocks = []
    for k in range(len(labels)):
        avg_blocks.append(sum(wx * s.blocks[k] for wx, s in zip(w, states)))
    avg = HybridState(labels, tuple(avg_blocks))
    val = hybrid_entropy(avg) - float(
        np.sum(w * np.array([hybrid_entropy(s) for s in states]))
    )
    return max(val, 0.0)


def _posterior_grams(smatrix: np.ndarray, M: FinitePOVM):
    """(p(ω), (m, d, d) stack of K_ω† S K_ω / p(ω)) over the padded kernels.

    Each matrix has the spectrum of the posterior state plus zeros from
    the padding; a zero-probability outcome (p <= 1e-12) gets the zero
    matrix.
    """
    probs = outcome_probs(smatrix, M)
    K, _, KH = M._kernel_cache()
    scale = (probs > _EIG_EPS) / np.maximum(probs, _EIG_EPS)
    return probs, (KH @ smatrix @ K) * scale[:, None, None]


def _spectrum_entropies(w: np.ndarray) -> np.ndarray:
    """entropy_of_spectrum of each row of a stack of spectra."""
    return np.maximum(-_xlog2x(w).sum(axis=-1), 0.0)


def entropy_reduction(S: DensityOperator, M: FinitePOVM) -> float:
    """ER(S, M) = H_q(S) - Σ_ω p(ω) H_q(Ŝ(ω)) in bits.

    One eigvalsh over the m posterior Gram matrices and S; zero-probability
    outcomes carry H = 0.
    """
    _check_dims(S.dim, M.dim)
    probs, grams = _posterior_grams(S.matrix, M)
    ents = _spectrum_entropies(np.linalg.eigvalsh(np.concatenate([grams, S.matrix[None]])))
    return float(ents[-1] - (probs * ents[:-1]).sum())


def average_state(pi: Ensemble) -> DensityOperator:
    """Weighted average Σ_x π_x S_x of an ensemble."""
    m = sum(w * s.matrix for w, s in zip(pi.weights, pi.states))
    return DensityOperator(m)


def energy_ok(S: DensityOperator, c: EnergyConstraint):
    """(Tr SF, Tr SF <= E + 1e-9) for the state against the constraint."""
    _check_dims(S.dim, c.F.shape[0])
    val = float(np.real(np.trace(S.matrix @ c.F)))
    return val, val <= c.E + 1e-9
