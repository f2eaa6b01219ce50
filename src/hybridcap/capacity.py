"""Capacity optimizers and the constrained maximum-entropy (Gibbs) solver.

Both capacities are maximized by one multi-start pattern search
(``_multistart``): each restart, seeded deterministically, runs rounds of ±
coordinate moves.  A round that improves nothing multiplies the step by the
schedule's decay; a restart converges once the step is below a floor (1e-6
for C, 1e-7 for C_ea) and the round gained less than ``value_tolerance``.
A C_ea round that improves nothing gains exactly 0, so the tolerance
applies to C_ea too without changing when its restarts stop, unless the
schedule starts below the floor.

The restarts run in lockstep: every point, value and step carries a leading
restart axis, each candidate move is scored for all running restarts with
one stacked evaluation, and a restart that has stopped is frozen.  No
restart sees another; the first k restart values are those of a run with k
restarts.

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

def _ba_step(w: np.ndarray, P: np.ndarray, penalty=None, parts=None) -> np.ndarray:
    """One multiplicative prior update of each weight row of w (..., n) against
    its rows P (..., n, m); penalty is multiplier * Tr S_x F per member."""
    # not the library's 1e-12, which shifts round counts on projective channels
    logw = np.log2(np.maximum(w, 1e-300)) + hybrid._divergences(w, P, 1e-15, parts)
    if penalty is not None:
        logw -= penalty
    logw -= logw.max(axis=-1, keepdims=True)
    nw = np.exp2(logw)
    return nw / nw.sum(axis=-1, keepdims=True)


def ba_prior_step(
    pi: Ensemble, M: FinitePOVM, multiplier: float = 0.0, F=None
) -> Ensemble:
    """Blahut–Arimoto prior update π'_x ∝ π_x 2^{D(p(·|x)‖p̄) - multiplier·Tr S_x F}."""
    P = np.stack([outcome_probs(s.matrix, M) for s in pi.states])
    P[P < 0.0] = 0.0
    penalty = None
    if multiplier != 0.0 and F is not None:
        fmat = qmat.as_complex_matrix(F)
        energies = np.array(
            [float(np.real(np.trace(s.matrix @ fmat))) for s in pi.states]
        )
        penalty = multiplier * energies
    nw = _ba_step(pi.weights, P, penalty)
    keep = nw > 1e-300
    nw = nw[keep] / nw[keep].sum()
    states = tuple(s for s, k in zip(pi.states, keep) if k)
    return Ensemble(nw, states)


def _ba_fixed_point(W: np.ndarray, P: np.ndarray, steps: int = 300) -> np.ndarray:
    """Blahut–Arimoto fixed point of each weight row of W (R, n) against P (R, n, m).

    A row stops at its first step that moves it by less than 1e-13, or after
    ``steps`` steps; stopped rows leave the stack and cost nothing further.
    """
    out = np.empty_like(W)
    rows = np.arange(len(W))
    w, parts = W, hybrid._row_parts(P, 1e-15)
    for _ in range(steps):
        nw = _ba_step(w, P, parts=parts)
        moved = np.abs(nw - w).max(axis=-1)
        if moved.min() < 1e-13:
            done = moved < 1e-13
            out[rows[done]] = nw[done]
            live = ~done
            if not np.count_nonzero(live):
                return out
            rows, nw, P = rows[live], nw[live], P[live]
            parts = tuple(p[live] for p in parts)
        w = nw
    out[rows] = w
    return out


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
    """Best of cfg.restarts pattern searches run in lockstep; argmax is the best raw point.

    A point is a tuple of arrays whose leading axis is the restart.
    ``start()`` gives every restart's first (point, values); ``sweep(point,
    values, steps)`` runs one round of the running restarts, possibly in
    place, and gives (point, values, improved).  A restart that stops leaves
    the stack: it is neither swept nor counted again.
    """
    point, value = start()
    final_point, final_value = tuple(a.copy() for a in point), value.copy()

    def record(restarts, rows):
        for f, a in zip(final_point, point):
            f[restarts] = a[rows]
        final_value[restarts] = value[rows]

    running = np.arange(cfg.restarts)
    step = np.full(cfg.restarts, cfg.step_schedule.initial)
    converged = np.zeros(cfg.restarts, dtype=bool)
    rounds = 0
    for _ in range(cfg.max_iterations):
        rounds += running.size
        point, new_value, improved = sweep(point, value.copy(), step)
        gain, value = new_value - value, new_value
        step = np.where(improved, step, step * cfg.step_schedule.decay)
        stop = (step < step_floor) & (gain < cfg.value_tolerance)
        if np.count_nonzero(stop):
            converged[running[stop]] = True
            record(running[stop], stop)
            go = ~stop
            running, value, step = running[go], value[go], step[go]
            point = tuple(a[go] for a in point)
            if running.size == 0:
                break
    record(running, slice(None))
    best, best_val = None, -math.inf
    for r, v in enumerate(final_value.tolist()):  # the first of near-equal values wins
        if v > best_val + 1e-15:
            best, best_val = r, v
    argmax = None if best is None else tuple(a[best] for a in final_point)
    return CapacityResult(best_val, argmax, rounds,
                          best is not None and bool(converged[best]),
                          tuple(final_value.tolist()))


# ---------------------------------------------------------------------------
# Classical capacity (accessible-information objective)
# ---------------------------------------------------------------------------

def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, each bit-identical to np.linalg.norm."""
    return np.sqrt(hybrid._dots(v.real, v.real) + hybrid._dots(v.imag, v.imag))


def _project_pure_feasible(psi: np.ndarray, F, E, ground: np.ndarray) -> np.ndarray:
    """Normalize ψ and blend it toward the ground eigenvector g until Tr ψF ≤ E.

    ψ is one vector or a stack (..., d) of them.  With A = F − E and
    v(t) = (1−t)ψ + t·g, v†Av = αt² + βt + a where a = ψ†Aψ > 0 ≥ c = g†Ag,
    b = Re ψ†Ag, α = a − 2b + c and β = 2(b − a); the least feasible blend
    is its root in (0, 1].  v(t) cannot vanish there because a > 0 ≥ c.
    """
    psi = psi / _norms(psi)[..., None]
    if F is None:
        return psi
    dots = hybrid._dots
    e_psi = dots(psi.conj(), (F @ psi[..., None])[..., 0]).real
    over = e_psi > E + 1e-12
    if not np.count_nonzero(over):
        return psi
    v = psi[over]
    Fg = F @ ground
    a = e_psi[over] - E
    b = dots(v.conj(), Fg).real - E * dots(v.conj(), ground).real
    c = float(np.real(ground.conj() @ Fg)) - E
    alpha, beta = a - 2.0 * b + c, 2.0 * (b - a)
    den = -beta + np.sqrt(np.maximum(beta * beta - 4.0 * alpha * a, 0.0))
    # E at the ground energy: t = 1
    t = np.divide(2.0 * a, den, out=np.ones_like(a), where=den > 2.0 * a)[:, None]
    v = (1.0 - t) * v + t * ground
    psi[over] = v / _norms(v)[:, None]
    return psi


def _cond_rows(psis: np.ndarray, M: FinitePOVM) -> np.ndarray:
    """Conditional outcome probabilities for a stack (..., d) of unit vectors.

    Contiguous, so every product with it takes the same BLAS path.
    """
    P = np.real(np.einsum("...i,kij,...j->...k", psis.conj(), M.elements, psis)).copy()
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
    mutual_informations = hybrid._mutual_informations

    def start():
        draws = []
        for r in range(cfg.restarts):
            rng = np.random.default_rng([cfg.seed, r])
            draws.append(rng.standard_normal((cap, d)) + 1j * rng.standard_normal((cap, d)))
        psis = _project_pure_feasible(np.stack(draws), F, E, ground)
        w = np.full((cfg.restarts, cap), 1.0 / cap)
        # -inf: the first round's gain never counts toward convergence
        return (w, psis, _cond_rows(psis, M)), np.full(cfg.restarts, -math.inf)

    def sweep(point, value, step):
        w, psis, P = point
        w = _ba_fixed_point(w, P)
        value = mutual_informations(w, P)
        improved = np.zeros(len(w), dtype=bool)
        for x in range(cap):
            live = ~(w[:, x] < 1e-12)
            if not np.count_nonzero(live):
                continue
            for move in moves:
                delta = step[:, None] * move
                for sign in (1.0, -1.0):
                    cand = _project_pure_feasible(psis[:, x] + sign * delta, F, E, ground)
                    rows = _cond_rows(cand, M)
                    P_try = P.copy()
                    P_try[:, x] = rows
                    v_try = mutual_informations(w, P_try)
                    accept = live & (v_try > value + 1e-14)
                    if np.count_nonzero(accept):
                        np.copyto(psis[:, x], cand, where=accept[:, None])
                        np.copyto(P[:, x], rows, where=accept[:, None])
                        np.copyto(value, v_try, where=accept)
                        improved |= accept
        w = _ba_fixed_point(w, P)
        return (w, psis, P), mutual_informations(w, P), improved

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


def _state_from_factors(g: np.ndarray) -> np.ndarray:
    """S = G†G / Tr G†G for each G of a stack (R, d, d); I/d where Tr G†G < 1e-14."""
    s = g.conj().transpose(0, 2, 1) @ g
    tr = s.trace(axis1=1, axis2=2).real
    small = tr < 1e-14
    if np.count_nonzero(small):
        d = g.shape[-1]
        s[small] = np.eye(d)
        tr[small] = d
    s /= tr[:, None, None]
    return (s + s.conj().transpose(0, 2, 1)) / 2.0


def _enforce_energy(s: np.ndarray, F, E, ground_proj) -> np.ndarray:
    """Mix each state of a stack (R, d, d) toward the normalized ground
    projector until Tr SF <= E."""
    if F is None:
        return s
    e_s = (s @ F).trace(axis1=1, axis2=2).real
    over = e_s > E + 1e-12
    if not np.count_nonzero(over):
        return s
    e_g = float(np.real(np.trace(ground_proj @ F)))
    t = (e_s[over] - E) / (e_s[over] - e_g)  # energy is linear in the mixing weight
    t = np.clip(t, 0.0, 1.0)[:, None, None]
    s = s.copy()
    s[over] = (1.0 - t) * s[over] + t * ground_proj
    return s


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

    def feasible_states(g):
        return _enforce_energy(_state_from_factors(g), F, E, ground_proj)

    def start():
        params = np.stack([np.random.default_rng([cfg.seed, 1, r]).standard_normal(2 * d * d)
                           for r in range(cfg.restarts)])
        g = params[:, : d * d].reshape(-1, d, d) + 1j * params[:, d * d :].reshape(-1, d, d)
        s = feasible_states(g)
        return (g, s), hybrid._er_value(s, M)

    # the 2d² coordinates of G as (row, column) of its (d, 2d) float view:
    # Re G row by row, then Im G
    coords = [divmod(c, 2 * d) for c in (*range(0, 2 * d * d, 2), *range(1, 2 * d * d, 2))]

    def sweep(point, value, step):
        g, s = point
        improved = np.zeros(len(g), dtype=bool)
        bar = value + 1e-14
        deltas = (step, -step)
        for i, k in coords:
            for delta in deltas:
                cand = g.copy()
                cand.view(np.float64)[:, i, k] += delta
                sc = feasible_states(cand)
                v = hybrid._er_value(sc, M)
                accept = v > bar
                if np.count_nonzero(accept):
                    np.copyto(g, cand, where=accept[:, None, None])
                    np.copyto(s, sc, where=accept[:, None, None])
                    np.copyto(value, v, where=accept)
                    bar = value + 1e-14
                    improved |= accept
        return (g, s), value, improved

    res = _multistart(cfg, start, sweep, 1e-7)
    state = DensityOperator(res.argmax[1])
    return replace(res, value_bits=hybrid.entropy_reduction(state, M), argmax=state)
