"""Capacity optimizers and the constrained maximum-entropy (Gibbs) solver.

Classical capacity: alternating optimization over pure-state ensembles —
exact Blahut–Arimoto prior updates at fixed states, derivative-free pattern
search over the state parameters at fixed prior, multi-start with
deterministic per-restart seeds.

Entanglement-assisted capacity: for pure (rank-1) POVMs the value is the
maximum von Neumann entropy over the feasible set, i.e. the Gibbs-state
entropy under an energy constraint and log₂ d without one; otherwise the
entropy reduction is maximized directly by multi-start pattern search over
density operators.

Returned values are always realized by the returned argmax, so they are
valid lower bounds on the corresponding suprema even when the search stops
before the improvement tolerance is met (converged=False).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import hybrid, qmat
from .errors import BracketFailure, InfeasibleEnergy
from .hybrid import (
    DensityOperator,
    EnergyConstraint,
    Ensemble,
    FinitePOVM,
    entropy_of_spectrum,
    mutual_information_from_rows,
    outcome_probs,
)

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class StepSchedule:
    """Initial step and multiplicative decay for the local searches."""

    initial: float = 0.5
    decay: float = 0.5

    def __post_init__(self):
        if self.initial <= 0.0 or not 0.0 < self.decay < 1.0:
            raise ValueError("step schedule needs initial > 0 and 0 < decay < 1")


@dataclass(frozen=True)
class OptimizerConfig:
    seed: int = 0
    restarts: int = 8
    max_iterations: int = 200
    value_tolerance: float = 1e-7
    ensemble_size_cap: int | None = None  # defaults to m + 1 at call time
    step_schedule: StepSchedule = field(default_factory=StepSchedule)

    def __post_init__(self):
        if self.restarts < 1 or self.max_iterations < 1 or self.value_tolerance <= 0:
            raise ValueError("restarts, max_iterations, value_tolerance must be positive")
        if self.ensemble_size_cap is not None and self.ensemble_size_cap < 1:
            raise ValueError("ensemble_size_cap must be >= 1")


@dataclass(frozen=True)
class CapacityResult:
    value_bits: float
    argmax: object  # Ensemble for classical capacity, DensityOperator for EA
    iterations_used: int
    converged: bool
    restart_values: tuple


@dataclass(frozen=True)
class GibbsSolution:
    """Maximum-entropy state at mean energy E: S_β ∝ exp(-βF), β in natural units."""

    beta: float
    state: DensityOperator
    energy: float
    entropy_bits: float
    log_partition: float  # ln c(β) = ln Tr exp(-βF)


# ---------------------------------------------------------------------------
# Gibbs solver
# ---------------------------------------------------------------------------

def _gibbs_from_beta(f: np.ndarray, beta: float):
    """(weights, energy, entropy_bits, ln c) for spectrum f at inverse temp beta."""
    shifted = -beta * (f - f[0])
    z = np.exp(shifted)
    c = float(z.sum())
    w = z / c
    energy = float(w @ f)
    ln_c = -beta * f[0] + math.log(c)
    ent = entropy_of_spectrum(w)
    return w, energy, ent, ln_c


def gibbs_state(F, E: float) -> GibbsSolution:
    """Solve Tr S_β F = E for the Gibbs state S_β = exp(-βF)/Tr exp(-βF).

    When E is at or above the maximally-mixed energy trace(F)/d the
    constraint is slack at the entropy maximizer and β = 0 is returned.
    Otherwise β is found by bracketing + bisection, using the strict
    monotone decrease of the mean energy in β.
    """
    eig = qmat.herm_eig(F)
    f = eig.eigenvalues
    V = eig.eigenvectors
    d = f.shape[0]
    if E < f[0] - 1e-12:
        raise InfeasibleEnergy(f"E = {E} below the smallest eigenvalue {f[0]} of F")

    def build(beta: float) -> GibbsSolution:
        w, energy, ent, ln_c = _gibbs_from_beta(f, beta)
        mat = (V * w) @ V.conj().T
        mat = (mat + mat.conj().T) / 2.0
        return GibbsSolution(beta, DensityOperator(mat), energy, ent, ln_c)

    mean = float(f.sum()) / d
    if E >= mean:
        return build(0.0)
    if E <= f[0]:
        # boundary: maximum entropy over the ground eigenspace (beta -> inf)
        gmask = f <= f[0] + 1e-12
        k = int(gmask.sum())
        w = np.where(gmask, 1.0 / k, 0.0)
        mat = (V * w) @ V.conj().T
        mat = (mat + mat.conj().T) / 2.0
        return GibbsSolution(
            math.inf, DensityOperator(mat), float(w @ f), math.log2(k), -math.inf
        )

    tol = 1e-10 * max(1.0, abs(E))
    lo, hi = 0.0, 1.0
    while _gibbs_from_beta(f, hi)[1] > E:
        hi *= 2.0
        if hi > 2.0**60:
            raise BracketFailure(
                "beta bracket exceeded 2^60; E is numerically at the ground energy, "
                "the boundary (ground) state applies"
            )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        energy = _gibbs_from_beta(f, mid)[1]
        if abs(energy - E) <= tol:
            return build(mid)
        if energy > E:
            lo = mid
        else:
            hi = mid
    return build(0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# Blahut–Arimoto prior updates
# ---------------------------------------------------------------------------

def _ba_weights_step(w: np.ndarray, P: np.ndarray, penalty: np.ndarray) -> np.ndarray:
    """One multiplicative prior update; penalty is multiplier * Tr S_x F per member."""
    pbar = w @ P
    mask = (P > 1e-15) & (pbar > 1e-15)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(
            mask, P * np.log2(np.maximum(P, 1e-300) / np.maximum(pbar, 1e-300)), 0.0
        )
    div = terms.sum(axis=1)
    logw = np.log2(np.maximum(w, 1e-300)) + div - penalty
    logw -= logw.max()
    nw = np.exp2(logw)
    return nw / nw.sum()


def ba_prior_step(
    pi: Ensemble, M: FinitePOVM, multiplier: float = 0.0, F=None
) -> Ensemble:
    """Blahut–Arimoto prior update π'_x ∝ π_x 2^{D(p(·|x)‖p̄) - multiplier·Tr S_x F}."""
    P = np.stack([outcome_probs(s.matrix, M) for s in pi.states])
    P[P < 0.0] = 0.0
    if multiplier != 0.0 and F is not None:
        fmat = qmat.as_complex_matrix(F)
        energies = np.array(
            [float(np.real(np.trace(s.matrix @ fmat))) for s in pi.states]
        )
        penalty = multiplier * energies
    else:
        penalty = np.zeros(len(pi.weights))
    nw = _ba_weights_step(pi.weights, P, penalty)
    keep = nw > 1e-300
    nw = nw[keep] / nw[keep].sum()
    states = tuple(s for s, k in zip(pi.states, keep) if k)
    return Ensemble(nw, states)


def _ba_fixed_point(w0: np.ndarray, P: np.ndarray, steps: int = 300) -> np.ndarray:
    w = w0.copy()
    zero = np.zeros_like(w)
    for _ in range(steps):
        nw = _ba_weights_step(w, P, zero)
        if np.max(np.abs(nw - w)) < 1e-13:
            return nw
        w = nw
    return w


# ---------------------------------------------------------------------------
# Classical capacity (accessible-information objective)
# ---------------------------------------------------------------------------

def _ground_vector(F: np.ndarray) -> np.ndarray:
    eig = qmat.herm_eig(F)
    return eig.eigenvectors[:, 0]


def _project_pure_feasible(psi: np.ndarray, F, E, ground: np.ndarray) -> np.ndarray:
    """Blend a unit vector toward the ground eigenvector until Tr ψF ≤ E."""
    psi = psi / np.linalg.norm(psi)
    if F is None:
        return psi
    def energy(v):
        return float(np.real(v.conj() @ (F @ v)))
    if energy(psi) <= E + 1e-12:
        return psi
    lo, hi = 0.0, 1.0
    for _ in range(80):
        t = 0.5 * (lo + hi)
        v = (1.0 - t) * psi + t * ground
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            lo = t  # pathological cancellation; push further toward ground
            continue
        v = v / nrm
        if energy(v) > E:
            lo = t
        else:
            hi = t
    v = (1.0 - hi) * psi + hi * ground
    return v / np.linalg.norm(v)


def _cond_rows(psis: np.ndarray, M: FinitePOVM) -> np.ndarray:
    """Conditional outcome probabilities for unit vectors, shape (n, m)."""
    P = np.real(np.einsum("xi,kij,xj->xk", psis.conj(), M.elements, psis))
    P[P < 0.0] = 0.0
    return P


def classical_capacity(
    M: FinitePOVM, constraint: EnergyConstraint | None = None,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> CapacityResult:
    """Best found value of I(π, M) over ensembles of feasible pure states.

    Every ensemble member satisfies Tr S_x F <= E individually (hence so does
    the average state).  The value returned is realized by the returned
    ensemble and is therefore a valid lower bound on the supremum.
    """
    d, m = M.dim, M.size
    F_arr, E = None, None
    ground = None
    if constraint is not None:
        if constraint.F.shape[0] != d:
            raise hybrid.DimensionMismatch("constraint dimension differs from POVM")
        F_arr, E = constraint.F, constraint.E
        fmin = qmat.herm_eig(F_arr).eigenvalues[0]
        if E < fmin - 1e-12:
            raise InfeasibleEnergy(f"E = {E} below ground energy {fmin}")
        ground = _ground_vector(F_arr)
    cap = cfg.ensemble_size_cap if cfg.ensemble_size_cap is not None else m + 1

    best_val, best = -1.0, None
    restart_values = []
    total_rounds = 0
    converged_best = False
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        psis = rng.standard_normal((cap, d)) + 1j * rng.standard_normal((cap, d))
        psis = np.stack(
            [_project_pure_feasible(v, F_arr, E, ground) for v in psis]
        )
        P = _cond_rows(psis, M)
        w = np.full(cap, 1.0 / cap)
        step = cfg.step_schedule.initial
        value = -1.0
        converged = False
        for it in range(cfg.max_iterations):
            total_rounds += 1
            w = _ba_fixed_point(w, P)
            value = mutual_information_from_rows(w, P)
            improved_round = False
            for x in range(cap):
                if w[x] < 1e-12:
                    continue
                base = psis[x]
                for j in range(2 * d):
                    delta = np.zeros(d, dtype=np.complex128)
                    if j < d:
                        delta[j] = step
                    else:
                        delta[j - d] = 1j * step
                    for sign in (1.0, -1.0):
                        cand = _project_pure_feasible(
                            base + sign * delta, F_arr, E, ground
                        )
                        row = np.real(
                            np.einsum("i,kij,j->k", cand.conj(), M.elements, cand)
                        )
                        row[row < 0.0] = 0.0
                        P_try = P.copy()
                        P_try[x] = row
                        v_try = mutual_information_from_rows(w, P_try)
                        if v_try > value + 1e-14:
                            psis[x], P, value = cand, P_try, v_try
                            base = cand
                            improved_round = True
            w = _ba_fixed_point(w, P)
            new_value = mutual_information_from_rows(w, P)
            gain = new_value - value if it == 0 else new_value - prev_value
            prev_value = new_value
            value = new_value
            if not improved_round:
                step *= cfg.step_schedule.decay
            if it > 0 and gain < cfg.value_tolerance and step < 1e-6:
                converged = True
                break
        restart_values.append(value)
        if value > best_val + 1e-15:
            best_val = value
            best = (w.copy(), psis.copy())
            converged_best = converged

    w, psis = best
    keep = w > 1e-9
    w = w[keep] / w[keep].sum()
    states = tuple(
        DensityOperator(np.outer(v, v.conj())) for v in psis[keep]
    )
    ensemble = Ensemble(w, states)
    value = hybrid.mutual_information(ensemble, M)
    return CapacityResult(
        value_bits=value,
        argmax=ensemble,
        iterations_used=total_rounds,
        converged=converged_best,
        restart_values=tuple(restart_values),
    )


# ---------------------------------------------------------------------------
# Entanglement-assisted capacity (entropy-reduction objective)
# ---------------------------------------------------------------------------

def is_pure_povm(M: FinitePOVM, tol: float = 1e-10) -> bool:
    """True iff every element has rank 1 (all non-leading eigenvalues < tol)."""
    for elem in M.elements:
        w = qmat.herm_eig(elem).eigenvalues
        if np.any(w[:-1] >= tol):
            return False
    return True


def _state_from_params(params: np.ndarray, d: int) -> np.ndarray:
    g = params[: d * d].reshape(d, d) + 1j * params[d * d :].reshape(d, d)
    s = g.conj().T @ g
    tr = float(np.real(np.trace(s)))
    if tr < 1e-14:
        s = np.eye(d, dtype=np.complex128)
        tr = float(d)
    s = s / tr
    return (s + s.conj().T) / 2.0


def _enforce_energy(s: np.ndarray, F, E, ground_proj) -> np.ndarray:
    """Mix toward the normalized ground projector until Tr SF <= E."""
    if F is None:
        return s
    e_s = float(np.real(np.trace(s @ F)))
    if e_s <= E + 1e-12:
        return s
    e_g = float(np.real(np.trace(ground_proj @ F)))
    t = (e_s - E) / (e_s - e_g)  # energy is linear in the mixing weight
    t = min(max(t, 0.0), 1.0)
    return (1.0 - t) * s + t * ground_proj


def ea_capacity(
    M: FinitePOVM, constraint: EnergyConstraint | None = None,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> CapacityResult:
    """sup of the entropy reduction ER(S, M) over the feasible state set.

    Pure (rank-1) POVMs short-circuit to the maximum-entropy value: the
    Gibbs-state entropy when an energy constraint is present, log₂ d
    otherwise.  General POVMs are handled by multi-start pattern search over
    density operators S = G†G / Tr G†G.
    """
    d = M.dim
    F_arr, E, ground_proj = None, None, None
    if constraint is not None:
        if constraint.F.shape[0] != d:
            raise hybrid.DimensionMismatch("constraint dimension differs from POVM")
        F_arr, E = constraint.F, constraint.E
        eig = qmat.herm_eig(F_arr)
        if E < eig.eigenvalues[0] - 1e-12:
            raise InfeasibleEnergy(f"E = {E} below ground energy {eig.eigenvalues[0]}")
        gmask = eig.eigenvalues <= eig.eigenvalues[0] + 1e-9
        Vg = eig.eigenvectors[:, gmask]
        ground_proj = (Vg @ Vg.conj().T) / int(gmask.sum())

    if is_pure_povm(M):
        if constraint is None:
            state = DensityOperator(np.eye(d) / d)
            value = math.log2(d)
        else:
            sol = gibbs_state(F_arr, E)
            state, value = sol.state, sol.entropy_bits
        return CapacityResult(value, state, 0, True, (value,))

    best_val, best_s = -1.0, None
    restart_values = []
    total_rounds = 0
    converged_best = False
    n_par = 2 * d * d
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, 1, r])
        params = rng.standard_normal(n_par)
        s = _enforce_energy(_state_from_params(params, d), F_arr, E, ground_proj)
        value = hybrid._er_value(s, M)
        step = cfg.step_schedule.initial
        converged = False
        for it in range(cfg.max_iterations):
            total_rounds += 1
            improved = False
            for j in range(n_par):
                for sign in (1.0, -1.0):
                    cand = params.copy()
                    cand[j] += sign * step
                    sc = _enforce_energy(
                        _state_from_params(cand, d), F_arr, E, ground_proj
                    )
                    v = hybrid._er_value(sc, M)
                    if v > value + 1e-14:
                        params, value, s = cand, v, sc
                        improved = True
            if not improved:
                step *= cfg.step_schedule.decay
                if step < 1e-7:
                    converged = True
                    break
        restart_values.append(value)
        if value > best_val + 1e-15:
            best_val, best_s = value, s
            converged_best = converged

    state = DensityOperator(best_s)
    value = hybrid.entropy_reduction(state, M)
    return CapacityResult(
        value_bits=value,
        argmax=state,
        iterations_used=total_rounds,
        converged=converged_best,
        restart_values=tuple(restart_values),
    )
