"""States, POVMs, measurement statistics, posterior states and entropies.

All entropic quantities are in bits (log base 2).  The 0·log 0 := 0
convention is applied with a 1e-12 threshold on probabilities and
eigenvalues throughout.

Hybrid-state entropies are spectral functionals of the block-diagonal
operator, read from one LAPACK call on the blocks zero-padded into a stack.
"""

from __future__ import annotations

import math
import operator
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


def _pad(blocks) -> np.ndarray:
    """(k, d, d) stack of k square blocks, each zero-padded to the largest d."""
    d = max((len(b) for b in blocks), default=1)
    stack = np.zeros((len(blocks), d, d), dtype=np.complex128)
    for k, b in enumerate(blocks):
        stack[k, : len(b), : len(b)] = b
    return stack


def _bare(cls, **fields):
    """A cls instance with these fields, made without running __post_init__:
    for fields that cls's own checks have passed already."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _from_rows(cls, rows, **fields):
    """A FinitePOVM or EnergyConstraint with these fields, checked by
    cls.__post_init__(rows).

    Their __post_init__ checks the matrices against rows, the matrices'
    qmat.psd_rows, computed there unless given.  A caller that has them from
    one batched pass over many matrices passes its slice, and the checks and
    their messages stay those of the constructor.
    """
    obj = _bare(cls, **fields)
    obj.__post_init__(rows)
    return obj


def _check_states(stack: np.ndarray, rows=None) -> None:
    """Check each matrix of a (k, d, d) stack as a density operator; rows
    are the stack's qmat.psd_rows, computed here unless given.

    The first matrix with a fault raises: a trace off 1 by more than 1e-9,
    reported only for a finite Hermitian matrix, else the fault
    qmat.check_psd_stack reports.
    """
    finite, hermitian, _, ok = rows = qmat.psd_rows(stack) if rows is None else rows
    traces = [float(m.trace().real) for m in stack]  # each summed as a lone matrix
    off = (np.abs(np.subtract(traces, 1.0)) > 1e-9) & finite & hermitian
    fault = off | ~ok
    if fault.any():
        k = fault.argmax()
        if off[k]:
            raise ValueError(f"trace {traces[k]} deviates from 1 by more than 1e-9")
        qmat.check_psd_stack(
            stack[k:k + 1],
            "density operator is not Hermitian within 1e-8",
            "state eigenvalue {w:.3e} below -1e-9",
            rows=[a[k:k + 1] for a in rows],
        )


def _states_from_rows(stack: np.ndarray, rows) -> tuple:
    """The DensityOperators of a complex (k, d, d) stack, checked by
    _check_states against the stack's qmat.psd_rows."""
    _check_states(stack, rows)
    return tuple(_bare(DensityOperator, matrix=m) for m in stack)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, PSD, unit-trace complex matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = qmat.as_complex_matrix(self.matrix)
        _check_states(m[None])
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class FinitePOVM:
    """Ordered finite family of positive operators summing to the identity."""

    labels: tuple
    elements: np.ndarray  # shape (m, d, d)

    def __post_init__(self, rows=None):
        elems = np.asarray(self.elements, dtype=np.complex128)
        if elems.ndim != 3 or elems.shape[1] != elems.shape[2] or elems.shape[0] < 1:
            raise ValueError(f"POVM elements must have shape (m, d, d), got {elems.shape}")
        labels = tuple(str(x) for x in self.labels)
        if len(labels) != elems.shape[0]:
            raise ValueError("label count does not match element count")
        # decoding keys words by label, so two outcomes may not share one
        if len(set(labels)) < len(labels):
            seen = set()
            # the first label seen before (set.add returns None)
            label = next(x for x in labels if x in seen or seen.add(x))
            raise ValueError(f"POVM label {label!r} repeats")
        spectrum = qmat.check_psd_stack(
            elems,
            "POVM element {label} is not Hermitian",
            "POVM element {label} eigenvalue {w:.3e} below -1e-9",
            labels,
            rows,
        )
        dev = np.abs(elems.sum(axis=0) - np.eye(elems.shape[1])).max()
        if dev > 1e-8:
            raise ValueError(f"povm completeness deviation {dev:.1e} > 1e-8")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_spectrum", spectrum)

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
        if not np.min(p) >= -1e-12:  # NaN fails every comparison
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
        # blocks may differ in dimension: zero padding adds zero eigenvalues
        qmat.check_psd_stack(
            _pad(blocks),
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
        if not np.min(w) > 0.0:  # NaN fails every comparison
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

    def __post_init__(self, rows=None):
        f = qmat.as_complex_matrix(self.F)
        qmat.check_psd_stack(
            f[None],
            "constraint operator F is not Hermitian",
            "constraint operator F has eigenvalue below -1e-9",
            rows=rows,
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


def _outcome_rows(states, M: FinitePOVM) -> np.ndarray:
    """(k, m) rows P_xy = Tr S_x M_y of k same-dimension states, clipped at 0.  One
    outcome_probs per state: a batched einsum rounds differently and flips exact ML ties."""
    _check_dims(states[0].dim, M.dim)
    P = np.stack([outcome_probs(s.matrix, M) for s in states])
    P[P < 0.0] = 0.0
    return P


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
    omega = operator.index(omega)
    if not 0 <= omega < M.size:
        raise ValueError(f"outcome index {omega} out of range")
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
    return float(_spectrum_entropies(np.asarray(w, dtype=float)))


def _spectrum_entropies(w: np.ndarray) -> np.ndarray:
    """−Σ λ log₂ λ over the last axis of a stack of spectra."""
    # entropy is nonnegative; rounding residue can leave a tiny negative sum
    return np.maximum(-_xlog2x(w).sum(axis=-1), 0.0)


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """A/2 + A†/2 of each matrix of a stack, as herm_eig symmetrizes."""
    return a / 2.0 + a.conj().swapaxes(-1, -2) / 2.0


def _block_entropies(stacks: np.ndarray) -> np.ndarray:
    """−Σ_ω Tr S(ω) log₂ S(ω) of each (k, d, d) block stack of (..., k, d, d)."""
    w = np.linalg.eigvalsh(_hermitian_part(stacks))
    return _spectrum_entropies(w.reshape(*w.shape[:-2], -1))


def shannon_entropy(p: OutcomeDistribution) -> float:
    """Discrete Shannon entropy in bits."""
    return entropy_of_spectrum(p.probabilities)


def _rel_entropy_psd(a: np.ndarray, b: np.ndarray) -> float:
    """Σ_k Tr A_k (log₂ A_k − log₂ B_k) of (k, d, d) PSD stacks, +inf off support."""
    (wa, wb), (U, V) = np.linalg.eigh(_hermitian_part(np.stack([a, b])))
    wa = np.maximum(wa, 0.0)
    # mass of A_k carried by each eigenvector v_j of B_k: Σ_i λ_i |<v_j|u_i>|²
    mass = ((np.abs(V.conj().swapaxes(-1, -2) @ U) ** 2) @ wa[..., None])[..., 0]
    if np.any((wb <= _EIG_EPS) & (mass > 1e-9)):
        return math.inf
    logb = np.log2(np.where(wb > _EIG_EPS, wb, 1.0))  # 0 off the support
    return float(_xlog2x(wa).sum() - (mass * logb).sum())


def relative_entropy_q(S1: DensityOperator, S2: DensityOperator) -> float:
    """Quantum relative entropy Tr S1(log₂ S1 - log₂ S2); +inf off support."""
    _check_dims(S1.dim, S2.dim)
    return max(_rel_entropy_psd(S1.matrix[None], S2.matrix[None]), 0.0)


def hybrid_entropy(S: HybridState) -> float:
    """Entropy −Σ_ω Tr S(ω) log₂ S(ω) of a cq-state in bits, from one block spectrum."""
    return float(_block_entropies(_pad(S.blocks)))


def _block_stacks(states) -> np.ndarray:
    """(n, k, d, d) padded block stacks of hybrid states that share their
    labels and the size of each same-label block."""
    for s in states[1:]:
        if s.labels != states[0].labels:
            raise LabelMismatch("hybrid states have different outcome labels")
        if [b.shape for b in s.blocks] != [b.shape for b in states[0].blocks]:
            raise DimensionMismatch("hybrid states have same-label blocks of different sizes")
    return np.stack([_pad(s.blocks) for s in states])


def hybrid_relative_entropy(S1: HybridState, S2: HybridState) -> float:
    """Σ_ω Tr S1(ω)(log₂ S1(ω) − log₂ S2(ω)) of cq-states sharing labels and
    block sizes, over blocks of S1 with trace > 1e-12; +inf off support."""
    A, B = _block_stacks((S1, S2))
    keep = S1.weights() > _EIG_EPS
    return max(_rel_entropy_psd(A[keep], B[keep]), 0.0)


def mutual_information(pi: Ensemble, M: FinitePOVM) -> float:
    """Shannon information I(π, M) between input label and measurement outcome."""
    return mutual_information_from_rows(pi.weights, _outcome_rows(pi.states, M))


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
    """Holevo-type H(Σ π_x S_x) − Σ π_x H(S_x) of cq-states sharing labels and block sizes."""
    w = np.asarray(weights, dtype=float)
    states = list(states)
    if not states or w.shape != (len(states),):
        raise ValueError("chi_cq needs one weight per state and at least one state")
    if not (w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-9):  # NaN fails both
        raise ValueError("chi_cq weights must be >= 0 and sum to 1 within 1e-9")
    stacks = _block_stacks(states)
    ents = _block_entropies(np.concatenate([np.tensordot(w, stacks, axes=1)[None], stacks]))
    return max(float(ents[0] - w @ ents[1:]), 0.0)


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
