"""Capacity optimizers and the constrained maximum-entropy (Gibbs) solver.

Both capacities are maximized by one multi-start pattern search
(``_multistart``): each restart, seeded deterministically, runs rounds of ±
coordinate moves.  A round that improves nothing multiplies the step by the
schedule's decay; a restart converges once the step is below a floor (1e-6
for C, 1e-7 for C_ea) and the round gained less than ``value_tolerance``.
A C_ea round that improves nothing gains exactly 0, so the tolerance
applies to C_ea too without changing when its restarts stop, unless the
schedule starts below the floor.

Classical capacity: alternating optimization over pure-state ensembles —
exact Blahut–Arimoto prior updates at fixed states, pattern search over the
state vectors at fixed prior.  Under an energy constraint a vector ψ over
the bound is blended toward the ground eigenvector g of F: the energy of
(1−t)ψ + t·g is a quadratic in t, and the least feasible blend is its root,
taken in closed form.

Entanglement-assisted capacity: for pure (rank-1) POVMs the value is the
maximum von Neumann entropy over the feasible set, i.e. the Gibbs-state
entropy under an energy constraint and log₂ d without one; otherwise the
entropy reduction is maximized directly over density operators
S = G†G / Tr G†G.

Returned values are always realized by the returned argmax, so they are
valid lower bounds on the corresponding suprema even when the search stops
before the improvement tolerance is met (converged=False).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    # not the library's 1e-12, which shifts round counts on projective channels
    div = hybrid._divergences(w, P, 1e-15)
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
# Multi-start pattern search shared by both capacities
# ---------------------------------------------------------------------------

def _feasible(M: FinitePOVM, constraint: EnergyConstraint | None):
    """(F, E, herm_eig(F)) of a constraint checked against M; Nones without one."""
    if constraint is None:
        return None, None, None
    F, E = constraint.F, constraint.E
    if F.shape[0] != M.dim:
        raise hybrid.DimensionMismatch("constraint dimension differs from POVM")
    eig = qmat.herm_eig(F)
    if E < eig.eigenvalues[0] - 1e-12:
        raise InfeasibleEnergy(f"E = {E} below ground energy {eig.eigenvalues[0]}")
    return F, E, eig


def _multistart(cfg: OptimizerConfig, start, sweep, step_floor: float) -> CapacityResult:
    """Best of cfg.restarts pattern searches; argmax is the best raw point.

    ``start(r)`` gives restart r's first (point, value); ``sweep(point,
    value, step)`` runs one round and gives (point, value, improved).
    """
    best, best_val, converged_best = None, -math.inf, False
    restart_values = []
    rounds = 0
    for r in range(cfg.restarts):
        point, value = start(r)
        step = cfg.step_schedule.initial
        converged = False
        for _ in range(cfg.max_iterations):
            rounds += 1
            point, new_value, improved = sweep(point, value, step)
            gain, value = new_value - value, new_value
            if not improved:
                step *= cfg.step_schedule.decay
            if step < step_floor and gain < cfg.value_tolerance:
                converged = True
                break
        restart_values.append(value)
        if value > best_val + 1e-15:
            best, best_val, converged_best = point, value, converged
    return CapacityResult(best_val, best, rounds, converged_best, tuple(restart_values))


# ---------------------------------------------------------------------------
# Classical capacity (accessible-information objective)
# ---------------------------------------------------------------------------

def _project_pure_feasible(psi: np.ndarray, F, E, ground: np.ndarray) -> np.ndarray:
    """Normalize ψ and blend it toward the ground eigenvector g until Tr ψF ≤ E.

    With A = F − E and v(t) = (1−t)ψ + t·g, v†Av = αt² + βt + a where
    a = ψ†Aψ > 0 ≥ c = g†Ag, b = Re ψ†Ag, α = a − 2b + c and β = 2(b − a);
    the least feasible blend is its root in (0, 1].  v(t) cannot vanish
    there because a > 0 ≥ c.
    """
    psi = psi / np.linalg.norm(psi)
    if F is None:
        return psi
    e_psi = float(np.real(psi.conj() @ (F @ psi)))
    if e_psi <= E + 1e-12:
        return psi
    Fg = F @ ground
    a = e_psi - E
    b = float(np.real(psi.conj() @ Fg)) - E * float(np.real(psi.conj() @ ground))
    c = float(np.real(ground.conj() @ Fg)) - E
    alpha, beta = a - 2.0 * b + c, 2.0 * (b - a)
    den = -beta + math.sqrt(max(beta * beta - 4.0 * alpha * a, 0.0))
    t = 2.0 * a / den if den > 2.0 * a else 1.0  # E at the ground energy: t = 1
    v = (1.0 - t) * psi + t * ground
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
    d = M.dim
    F, E, eig = _feasible(M, constraint)
    ground = None if eig is None else eig.eigenvectors[:, 0]
    cap = cfg.ensemble_size_cap if cfg.ensemble_size_cap is not None else M.size + 1
    moves = np.vstack([np.eye(d), 1j * np.eye(d)])  # real and imaginary unit moves

    def start(r):
        rng = np.random.default_rng([cfg.seed, r])
        psis = rng.standard_normal((cap, d)) + 1j * rng.standard_normal((cap, d))
        psis = np.stack([_project_pure_feasible(v, F, E, ground) for v in psis])
        # -inf: the first round's gain never counts toward convergence
        return (np.full(cap, 1.0 / cap), psis, _cond_rows(psis, M)), -math.inf

    def sweep(point, value, step):
        w, psis, P = point
        w = _ba_fixed_point(w, P)
        value = mutual_information_from_rows(w, P)
        improved = False
        for x in range(cap):
            if w[x] < 1e-12:
                continue
            for delta in step * moves:
                for sign in (1.0, -1.0):
                    cand = _project_pure_feasible(psis[x] + sign * delta, F, E, ground)
                    P_try = P.copy()
                    P_try[x] = _cond_rows(cand[None], M)[0]
                    v_try = mutual_information_from_rows(w, P_try)
                    if v_try > value + 1e-14:
                        psis[x], P, value = cand, P_try, v_try
                        improved = True
        w = _ba_fixed_point(w, P)
        return (w, psis, P), mutual_information_from_rows(w, P), improved

    res = _multistart(cfg, start, sweep, 1e-6)
    w, psis, _ = res.argmax
    keep = w > 1e-9
    states = tuple(DensityOperator(np.outer(v, v.conj())) for v in psis[keep])
    ensemble = Ensemble(w[keep] / w[keep].sum(), states)
    return replace(res, value_bits=hybrid.mutual_information(ensemble, M), argmax=ensemble)


# ---------------------------------------------------------------------------
# Entanglement-assisted capacity (entropy-reduction objective)
# ---------------------------------------------------------------------------

def is_pure_povm(M: FinitePOVM, tol: float = 1e-10) -> bool:
    """True iff every element has rank 1 (all non-leading eigenvalues < tol)."""
    e = M.elements
    w = np.linalg.eigvalsh((e + e.conj().transpose(0, 2, 1)) / 2.0)
    return not np.any(w[:, :-1] >= tol)


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
    F, E, eig = _feasible(M, constraint)
    if is_pure_povm(M):
        if constraint is None:
            state = DensityOperator(np.eye(d) / d)
            value = math.log2(d)
        else:
            sol = gibbs_state(F, E)
            state, value = sol.state, sol.entropy_bits
        return CapacityResult(value, state, 0, True, (value,))

    ground_proj = None
    if eig is not None:
        gmask = eig.eigenvalues <= eig.eigenvalues[0] + 1e-9
        Vg = eig.eigenvectors[:, gmask]
        ground_proj = (Vg @ Vg.conj().T) / int(gmask.sum())

    def feasible_state(params):
        return _enforce_energy(_state_from_params(params, d), F, E, ground_proj)

    def start(r):
        params = np.random.default_rng([cfg.seed, 1, r]).standard_normal(2 * d * d)
        s = feasible_state(params)
        return (params, s), hybrid._er_value(s, M)

    def sweep(point, value, step):
        params, s = point
        improved = False
        for j in range(params.size):
            for sign in (1.0, -1.0):
                cand = params.copy()
                cand[j] += sign * step
                sc = feasible_state(cand)
                v = hybrid._er_value(sc, M)
                if v > value + 1e-14:
                    params, value, s = cand, v, sc
                    improved = True
        return (params, s), value, improved

    res = _multistart(cfg, start, sweep, 1e-7)
    state = DensityOperator(res.argmax[1])
    return replace(res, value_bits=hybrid.entropy_reduction(state, M), argmax=state)
