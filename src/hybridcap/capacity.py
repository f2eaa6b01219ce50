"""Capacity optimizers and the constrained maximum-entropy (Gibbs) solver.

Classical capacity: alternating optimization over pure-state ensembles
from seeded restarts run in lockstep as rows of one stack; every stacked
kernel gives each restart the bits of a one-restart run.  A round moves
the states, then solves the prior.  For a fixed prior w, I is convex in
the rows P_x, and P_xy = ψ_x†M_yψ_x is linear in ψ_xψ_x†; so with p̄ = w·P
and G_x = Σ_y ln(P_xy/p̄_y) M_y, no ψ'_x with ψ'_x†G_xψ'_x >= ψ_x†G_xψ_x
lowers I (minorize–maximize), and each member moves to the best feasible
vector for its G_x (``_top_feasible``).  G_x is also the gradient of
D(P_x‖p̄), so members of weight 0 climb D, or jump to an eigenvector of a
POVM element where that is higher in D.  ``_ba_fixed_point`` then solves
the prior by projected Newton steps on the face of live members, reviving
members whose D exceeds I.  As the next round moves the rows again, both
solves of a round stop early (see ``_REL`` and ``_KAPPA_S``).  A restart
converges once a round gains less than ``value_tolerance``.  After the
rounds every restart's prior is certified to a bracket max D(P_x‖p̄) − I
of 1e-12 bits, and the values come from those priors.  Start draws over
the energy bound are blended toward the ground eigenvector g of F: the
energy of (1−t)ψ + t·g is a quadratic in t, and the least feasible blend
is its root.

Entanglement-assisted capacity: for pure (rank-1) POVMs the value is the
maximum von Neumann entropy over the feasible set, i.e. the Gibbs-state
entropy under an energy constraint and log₂ d without one.  Otherwise ER,
which is concave in S, is maximized by one exponentiated-gradient ascent
(``_ascent``) from the maximum-entropy feasible state.  Each step bounds
C_ea from above by a duality gap; ``converged`` means that this certified
gap is <= ``value_tolerance``.  The ascent draws no random numbers, so
``seed`` and ``restarts`` do not affect C_ea.

Returned values are always realized by the returned argmax, so they are
valid lower bounds on the corresponding suprema even when the search stops
before its tolerance is met (converged=False).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from numbers import Real

import numpy as np

from . import hybrid, qmat
from .errors import BracketFailure, InfeasibleEnergy
from .hybrid import (
    DensityOperator,
    EnergyConstraint,
    Ensemble,
    FinitePOVM,
    entropy_of_spectrum,
)

_LN2 = math.log(2.0)
# C_ea ascent step, in nats: of 150 random POVMs (d 2–4, m 2–5) it certifies
# 149 within 200 steps, against 145 at 1, 147 at 2 and 93 at 3
_ETA = 1.5
# a classical round's prior solve stops at _REL × its starting bracket, and
# its state step within _KAPPA_S × the restart's last round gain (0 in the
# first round).  On 60 random channels (d 2–4, m d–6, half constrained, 4
# restarts) they cut the prior solve's Newton steps 8093 → 5001 and the eigh
# calls 2798 → 2466, with C within 2e-8 bits; rel 3e-3 or 1e-2 moved pinned
# anchors, and κ_S 0.03 or 0.1 moved C by up to 5e-8
_REL = 1e-3
_KAPPA_S = 0.01


@dataclass(frozen=True)
class OptimizerConfig:
    seed: int = 0
    restarts: int = 8
    max_iterations: int = 200
    value_tolerance: float = 1e-7

    def __post_init__(self):
        for name in ("seed", "restarts", "max_iterations"):
            v = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(v))
            except TypeError:
                raise TypeError(f"{name} must be an integer, got {v!r}") from None
        if isinstance(self.value_tolerance, bool) or not isinstance(self.value_tolerance, Real):
            raise TypeError(f"value_tolerance must be a real number, got {self.value_tolerance!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.restarts < 1 or self.max_iterations < 1 or not 0 < self.value_tolerance < math.inf:
            raise ValueError("restarts, max_iterations, value_tolerance must be positive,"
                             " value_tolerance finite")


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
    """(weights, energy, ln c) for spectrum f at inverse temp beta."""
    shifted = -beta * (f - f[0])
    z = np.exp(shifted)
    c = float(z.sum())
    w = z / c
    energy = float(w @ f)
    ln_c = -beta * f[0] + math.log(c)
    return w, energy, ln_c


def _decreasing_root(energy, E: float, tol: float, hi: float = 1.0) -> float:
    """β > 0 with |energy(β) − E| <= tol for an energy strictly decreasing in β,
    energy(0) > E: hi doubles until energy(hi) <= E, then [0, hi] is bisected."""
    lo = 0.0
    while energy(hi) > E:
        hi *= 2.0
        if hi > 2.0**60:
            raise BracketFailure(
                "beta bracket exceeded 2^60; E is numerically at the ground energy, "
                "the boundary (ground) state applies"
            )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        e = energy(mid)
        if abs(e - E) <= tol:
            return mid
        if e > E:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gibbs_state(F, E: float) -> GibbsSolution:
    """Solve Tr S_β F = E for the Gibbs state S_β = exp(-βF)/Tr exp(-βF).

    When E is at or above the maximally-mixed energy trace(F)/d the
    constraint is slack at the entropy maximizer and β = 0 is returned.
    Otherwise β is found by bracketing + bisection, using the strict
    monotone decrease of the mean energy in β.
    """
    if math.isnan(E):  # NaN fails every branch test and would reach the boundary
        raise ValueError("energy E must be a number, got nan")
    return _gibbs(qmat.herm_eig(F), E)


def _gibbs(eig: qmat.HermEigResult, E: float) -> GibbsSolution:
    """gibbs_state from the eigendecomposition of F."""
    f = eig.eigenvalues
    V = eig.eigenvectors
    if E < f[0] - 1e-12:
        raise InfeasibleEnergy(f"E = {E} below the smallest eigenvalue {f[0]} of F")
    mean = float(f.sum()) / f.shape[0]
    if E >= mean:
        beta = 0.0
    elif E > f[0]:
        tol = 1e-10 * max(1.0, abs(E))
        beta = _decreasing_root(lambda b: _gibbs_from_beta(f, b)[1], E, tol)
    else:
        # boundary: maximum entropy over the ground eigenspace (beta -> inf)
        gmask = f <= f[0] + 1e-12
        k = int(gmask.sum())
        w = np.where(gmask, 1.0 / k, 0.0)
        beta, ln_c, entropy = math.inf, -math.inf, math.log2(k)
    if beta < math.inf:
        w, _, ln_c = _gibbs_from_beta(f, beta)
        entropy = entropy_of_spectrum(w)
    mat = (V * w) @ V.conj().T
    mat = (mat + mat.conj().T) / 2.0
    return GibbsSolution(beta, DensityOperator(mat), float(w @ f), entropy, ln_c)


# ---------------------------------------------------------------------------
# Blahut–Arimoto prior updates
# ---------------------------------------------------------------------------

def ba_prior_step(pi: Ensemble, M: FinitePOVM) -> Ensemble:
    """Blahut–Arimoto prior update π'_x ∝ π_x 2^{D(p(·|x)‖p̄)}."""
    P = hybrid._outcome_rows(pi.states, M)
    logw = np.log2(np.maximum(pi.weights, 1e-300)) + hybrid._divergences(pi.weights, P)
    nw = np.exp2(logw - logw.max())
    nw /= nw.sum()
    keep = nw > 1e-300
    nw = nw[keep] / nw[keep].sum()
    states = tuple(s for s, k in zip(pi.states, keep) if k)
    return Ensemble(nw, states)


def _ba_fixed_point(W: np.ndarray, P: np.ndarray, steps: int = 300,
                    rel=0.0) -> np.ndarray:
    """Optimal prior of each weight row of W (R, n) against P (R, n, m).

    With D = D(P_x‖p̄) in bits and I = w·D, the optimum lies in [I, max D],
    so a row stops once max D − I <= max(1e-12, rel × that bracket at its
    first iteration), or after ``steps`` iterations; ``rel`` is one number
    or one per row, and rel = 0 certifies the row to 1e-12.
    An iteration is one projected Newton step on the face of members with
    w > 1e-15 plus a = argmax D (Bertsekas 1982), then one Blahut–Arimoto
    step w ← w·2^{D − max D}/Σ.  I is concave with Hessian
    H_xz = −Σ_y P_xy P_zy / p̄_y (nats, over p̄_y > 1e-12), so the step δ
    solves the KKT system of −H + diag(max(1e-12, −1e-14·H_xx)) on the face,
    bordered by Σδ = 0, with right-hand side D·ln 2; members off the face
    are pinned by identity rows.  If a has weight <= 1e-15 and a negative
    δ_a, the step would stop at once, and Blahut–Arimoto cannot revive a
    weight of 0; so a then leaves the face and the system is solved again.
    δ is cut to the boundary of the simplex, and the first of its 1, ½, ¼
    and ⅛ that does not lower I is taken.  A stopped row leaves the stack,
    and each row gets the bits of a one-row solve.
    """
    out = np.empty_like(W)
    rows, w = np.arange(len(W)), W
    n = W.shape[-1]
    on_diag = np.arange(n)
    cuts = np.array([1.0, 0.5, 0.25, 0.125])

    def newton(curv, grad, face):
        """δ of each row from its face's bordered KKT system, one batched solve."""
        K = np.zeros((len(face), n + 1, n + 1))
        K[:, :n, :n] = np.where(face[:, :, None] & face[:, None, :], curv, 0.0)
        # 1e-14·|H_xx| is about 45 ulp(H_xx): a ridge below one ulp left the
        # block of duplicated members on an outcome of p̄ ≈ 1e-9 exactly singular
        K[:, on_diag, on_diag] += np.where(
            face, np.maximum(1e-12, 1e-14 * np.diagonal(curv, axis1=1, axis2=2)), 1.0)
        K[:, :n, n] = K[:, n, :n] = face
        rhs = np.zeros((len(face), n + 1, 1))
        rhs[:, :n, 0] = np.where(face, grad, 0.0)
        return np.where(face, np.linalg.solve(K, rhs)[:, :n, 0], 0.0)

    tol = None
    for _ in range(steps):
        pbar = (w[:, None, :] @ P)[:, 0, :]
        D = hybrid._divergences_to(P, pbar)
        I = hybrid._dots(w, D)
        gap = D.max(axis=-1) - I
        if tol is None:
            tol = np.fmax(1e-12, rel * gap)
        go = gap > tol
        if not go.all():
            out[rows[~go]] = w[~go]
            if not go.any():
                return out
            rows, w, P, pbar, tol = rows[go], w[go], P[go], pbar[go], tol[go]
            D, I = D[go], I[go]
        i = np.arange(len(w))
        face = w > 1e-15
        face[i, D.argmax(axis=-1)] = True
        inv = np.divide(1.0, pbar, out=np.zeros_like(pbar), where=pbar > 1e-12)
        curv, grad = (P * inv[:, None, :]) @ P.transpose(0, 2, 1), D * _LN2
        delta = newton(curv, grad, face)
        # only a can have weight <= 1e-15 on the face, so one more solve does
        drop = face & (w <= 1e-15) & (delta < 0.0)
        r = np.flatnonzero(drop.any(axis=-1))
        if r.size:
            face &= ~drop
            delta[r] = newton(curv[r], grad[r], face[r])
        ratio = np.divide(w, -delta, out=np.full_like(w, np.inf), where=delta < 0.0)
        alpha = np.minimum(ratio.min(axis=-1), 1.0)
        v = np.maximum(w[:, None, :] + (alpha[:, None] * cuts)[..., None] * delta[:, None, :], 0.0)
        Dv = hybrid._divergences(v, P[:, None])
        up = hybrid._dots(v, Dv) >= I[:, None]
        k = up.argmax(axis=-1)
        up = up[i, k][:, None]
        w, D = np.where(up, v[i, k], w), np.where(up, Dv[i, k], D)
        w = w * np.exp2(D - D.max(axis=-1, keepdims=True))
        w /= w.sum(axis=-1, keepdims=True)
    out[rows] = w
    return out


# ---------------------------------------------------------------------------
# Constraint check and best restart
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


def _first_best(values) -> int:
    """Index of the best value in order: a later value wins only by more than 1e-15."""
    best, best_val = 0, -math.inf
    for r, v in enumerate(values):
        if v > best_val + 1e-15:
            best, best_val = r, v
    return best


# ---------------------------------------------------------------------------
# Classical capacity (accessible-information objective)
# ---------------------------------------------------------------------------

def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, each bit-identical to np.linalg.norm."""
    return np.sqrt(hybrid._dots(v.real, v.real) + hybrid._dots(v.imag, v.imag))


def _project_pure_feasible(psi: np.ndarray, F, E, target: np.ndarray) -> np.ndarray:
    """Normalize ψ and blend it toward a feasible unit vector g until Tr ψF ≤ E.

    ψ is one vector or a stack (..., d) of them; g is one vector or a stack
    of ψ's shape, one target per vector.  With A = F − E and
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
    v, g = psi[over], target if target.ndim == 1 else target[over]
    Fg = (F @ g[..., None])[..., 0]
    a = e_psi[over] - E
    b = dots(v.conj(), Fg).real - E * dots(v.conj(), g).real
    c = dots(g.conj(), Fg).real - E
    alpha, beta = a - 2.0 * b + c, 2.0 * (b - a)
    den = -beta + np.sqrt(np.maximum(beta * beta - 4.0 * alpha * a, 0.0))
    # E at the ground energy: t = 1
    t = np.divide(2.0 * a, den, out=np.ones_like(a), where=den > 2.0 * a)[:, None]
    v = (1.0 - t) * v + t * g
    psi[over] = v / _norms(v)[:, None]
    return psi


def _top_feasible(G: np.ndarray, F, E, eig, tol=0.0) -> np.ndarray:
    """Unit ψ maximizing ψ†Gψ subject to ψ†Fψ <= E, for each G of a stack (n, d, d).

    Unconstrained, ψ is the top eigenvector of G.  Constrained, the value
    is min over μ >= 0 of D(μ) = μE + λ_max(G − μF) (S-lemma), and the
    energy e(μ) of the top eigenvector v_μ of G − μF falls with μ.  A row
    with v_0 infeasible keeps ends lo < hi, e(lo) > E >= e(hi); hi starts at
    spread(G)/(E − f₀), f₀ the ground energy, with v_hi the ground vector g
    and the line g†Gg + μ(E − f₀) <= D for its tangent.  Steps are Newton's
    on (e − f₀)^−½ = (E − f₀)^−½, de/dμ = −2 Σ_j |v_j†Fv_μ|²/(λ_max − λ_j);
    one leaving (lo, hi) goes where D's tangents at lo and hi meet, which
    is μ* where e jumps across E.  ψ is v_lo blended toward v_hi (phase
    aligned) to energy E, in the top eigenspace at μ* when e jumps; a row
    stops once ψ†Gψ is within max(1e-12 · (spread(G) + μ·spread(F)), tol)
    of the least D seen, or after 50 steps.  ``tol`` is in the units of G
    (nats for the G of ``classical_capacity``), one number or one per row.
    Rows get the bits of one-row calls.
    """
    lam, V = np.linalg.eigh(G)
    psi = V[..., -1]
    if F is None:
        return psi
    dots = hybrid._dots
    f, ground = eig.eigenvalues, eig.eigenvectors[:, 0]

    def evaluate(lam, V):
        """(v_μ, e(μ), de/dμ) of each eigendecomposition of G − μF."""
        v = V[..., -1]
        Fv = (F @ v[..., None])[..., 0]
        c = np.abs((Fv.conj()[:, None, :] @ V[..., :-1])[:, 0]) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            de = -2.0 * (c / (lam[:, -1:] - lam[:, :-1])).sum(axis=-1)
        return v, dots(v.conj(), Fv).real, de

    rows = np.flatnonzero(dots(psi.conj(), (F @ psi[..., None])[..., 0]).real > E + 1e-12)
    if rows.size == 0 or E - f[0] <= 1e-12:  # at the ground energy only g is feasible
        return _project_pure_feasible(psi, F, E, ground)
    psi, G, spread = psi.copy(), G[rows], lam[rows, -1] - lam[rows, 0]
    tol = np.broadcast_to(tol, psi.shape[:1])[rows]
    _, e, de = evaluate(lam[rows], V[rows])
    # the lo and hi ends: μ, D, e and v
    mu = np.stack([np.zeros(rows.size), spread / (E - f[0])])
    D = np.stack([lam[rows, -1], dots(ground.conj(), (G @ ground[:, None])[..., 0]).real + spread])
    ends_e = np.stack([e, np.full(rows.size, f[0])])
    ends_v = np.stack([psi[rows], np.broadcast_to(ground, psi[rows].shape)])
    last = mu[0]
    for _ in range(50):
        x = e - f[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = last + 2.0 * x * (1.0 - np.sqrt(x / (E - f[0]))) / de
        slope = E - ends_e
        cut = (D[1] - D[0] + slope[0] * mu[0] - slope[1] * mu[1]) / (slope[0] - slope[1])
        last = np.where((newton > mu[0]) & (newton < mu[1]), newton, cut)
        lam, V = np.linalg.eigh(G - last[:, None, None] * F)
        v, e, de = evaluate(lam, V)
        end = (e <= E).astype(np.intp), np.arange(rows.size)
        mu[end], D[end], ends_e[end], ends_v[end] = last, last * E + lam[:, -1], e, v
        lo, hi = ends_v
        phase = np.exp(1j * np.angle(dots(hi.conj(), lo)))
        blend = _project_pure_feasible(lo, F, E, hi * phase[:, None])
        psi[rows] = blend
        gap = D.min(axis=0) - dots(blend.conj(), (G @ blend[..., None])[..., 0]).real
        go = gap > np.maximum(1e-12 * (spread + last * (f[-1] - f[0])), tol)
        if not go.any():
            break
        rows, G, spread, tol = rows[go], G[go], spread[go], tol[go]
        e, de, last = e[go], de[go], last[go]
        mu, D, ends_e, ends_v = mu[:, go], D[:, go], ends_e[:, go], ends_v[:, go]
    return _project_pure_feasible(psi, F, E, ground)


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
    ensemble and is therefore a valid lower bound on the supremum.  The
    returned prior is solved for the returned states to a bracket
    max_x D(P_x‖p̄) − I of 1e-12 bits (within 300 Newton steps), also when
    ``max_iterations`` ends the rounds.
    """
    d, R = M.dim, cfg.restarts
    F, E, eig = _feasible(M, constraint)
    ground = None if eig is None else eig.eigenvectors[:, 0]
    cap = M.size + 1
    mutual_informations = hybrid._mutual_informations
    # the eigenvectors of the POVM elements, made feasible, for members of weight 0 to jump to
    pool = _project_pure_feasible(np.linalg.eigh(M.elements)[1].transpose(0, 2, 1).reshape(-1, d),
                                  F, E, ground)
    pool_P = _cond_rows(pool, M)

    def divergence(Q, log_pbar):
        """D(Q_x‖p̄) in nats of rows Q (..., m), from ln p̄ (..., m)."""
        return (Q * (np.log(np.maximum(Q, 1e-300)) - log_pbar)).sum(axis=-1)

    draws = []
    for r in range(R):
        rng = np.random.default_rng([cfg.seed, r])
        draws.append(rng.standard_normal((cap, d)) + 1j * rng.standard_normal((cap, d)))
    psis = _project_pure_feasible(np.stack(draws), F, E, ground)
    P = _cond_rows(psis, M)
    # (w, ψ, P) of every restart; a restart that converges leaves ``running``
    # and keeps its rows
    point = (_ba_fixed_point(np.full((R, cap), 1.0 / cap), P, rel=_REL), psis, P)
    # each restart's I and its last round's gain in bits, 0 before the first round
    values, gains = mutual_informations(point[0], P), np.zeros(R)
    running, converged, rounds = np.arange(R), np.zeros(R, dtype=bool), 0
    for it in range(cfg.max_iterations):
        rounds += running.size
        w, psis, P = (a[running] for a in point)
        value = values[running]
        pbar = (w[:, None, :] @ P)[:, 0, :]
        live = (pbar > 1e-12)[:, None, :]
        ratio = np.maximum(P, 1e-300) / np.where(live, pbar[:, None, :], 1.0)
        G = np.einsum("rxk,kij->rxij", np.where(live, np.log(ratio), 0.0), M.elements)
        tol = np.repeat(_KAPPA_S * _LN2 * gains[running], cap)
        step = _top_feasible(G.reshape(-1, d, d), F, E, eig, tol).reshape(psis.shape)
        P_step = _cond_rows(step, M)
        zero = w < 1e-12
        r, x = np.nonzero(zero)
        if r.size:
            # the j-th member of weight 0 of a restart takes its step or the j-th best state
            # of the pool, whichever is higher in D(·‖p̄), p̄ floored at 1e-12
            log_pbar = np.log(np.maximum(pbar, 1e-12))[:, None, :]
            D_pool = divergence(pool_P, log_pbar)
            j = np.minimum((np.cumsum(zero, axis=1) - 1)[r, x], len(pool) - 1)
            k = np.argsort(-D_pool, axis=1, kind="stable")[r, j]
            take = D_pool[r, k] > divergence(P_step[r, x], log_pbar[r, 0])
            r, x, k = r[take], x[take], k[take]
            step[r, x], P_step[r, x] = pool[k], pool_P[k]
        # only rounding, the clipped logs and the early stop of _top_feasible
        # can make the step lower I; a restart whose I it would lower keeps its states
        up = (mutual_informations(w, P_step) >= value)[:, None, None]
        psis, P = np.where(up, step, psis), np.where(up, P_step, P)
        # the solve counts an outcome of p̄ <= 1e-12 as 0, so a member of weight 0 giving
        # such an outcome 1e-3 or more gets weight 1e-9, which makes it count
        dead = ((w[:, None, :] @ P)[:, 0, :] <= 1e-12)[:, None, :]
        w = np.where(zero & (dead & (P > 1e-3)).any(axis=-1), 1e-9, w)
        w = _ba_fixed_point(w / w.sum(axis=-1, keepdims=True), P, rel=_REL)
        for a, rows in zip(point, (w, psis, P)):
            a[running] = rows
        new = mutual_informations(w, P)
        gains[running] = gain = new - value
        # the first round's gain never counts toward convergence
        stop = (gain < cfg.value_tolerance) & (it > 0)
        values[running] = new
        converged[running[stop]] = True
        running = running[~stop]
        if running.size == 0:
            break
    # the rounds solve the prior loosely; certify every restart's final prior
    point[0][:] = _ba_fixed_point(point[0], point[2])
    values = mutual_informations(point[0], point[2])
    best = _first_best(values.tolist())
    w, psis, _ = (a[best] for a in point)
    keep = w > 1e-9
    v = psis[keep]
    stack = v[:, :, None] * v.conj()[:, None, :]  # each np.outer(v, v.conj())
    states = hybrid._states_from_rows(stack, qmat.psd_rows(stack))
    ensemble = Ensemble(w[keep] / w[keep].sum(), states)
    return CapacityResult(hybrid.mutual_information(ensemble, M), ensemble, rounds,
                          bool(converged[best]), tuple(values.tolist()))


# ---------------------------------------------------------------------------
# Entanglement-assisted capacity (entropy-reduction objective)
# ---------------------------------------------------------------------------

def is_pure_povm(M: FinitePOVM, tol: float = 1e-10) -> bool:
    """True iff every element has rank 1 (all non-leading eigenvalues < tol)."""
    return not np.any(M._spectrum[:, :-1] >= tol)


def _exp_state(H: np.ndarray):
    """(h, U): H = U diag(h) U†, h shifted so that U diag(e^h) U† has unit trace."""
    h, U = np.linalg.eigh(H)
    return h - (h[-1] + math.log(np.exp(h - h[-1]).sum())), U


def _ascent(M: FinitePOVM, cfg: OptimizerConfig, F=None, E=None, etol=0.0):
    """Exponentiated-gradient ascent of ER from the maximum-entropy feasible state.

    The iterate S is kept as the eigenpairs of ln S.  A step takes the
    gradient ∇ = Σ_ω K_ω ln(Ĝ_ω) K_ω† − ln S of ER (in nats, the log of each
    posterior Gram Ĝ_ω taken on its support) and moves to
    S ∝ exp(ln S + η(∇ − μF)), μ >= 0 the least multiplier that puts Tr SF
    in [E − 2·etol, E].  ER is concave, so by weak duality, for any μ >= 0,
    C_ea − ER(S) <= (μE + λ_max(∇ − μF) − Tr S∇) / ln 2 bits.  The ascent
    stops once that gap is <= value_tolerance, or after max_iterations
    steps, and gives (the best S, steps, converged).
    """
    K = M._kernel_cache()[0]

    def energy(h, U):
        return float(np.exp(h) @ np.real((U.conj() * (F @ U)).sum(axis=0)))

    def tilt(A, hi):
        """(h, U, μ) of S ∝ exp(A − ημF) at the least feasible μ >= 0."""
        h, U = _exp_state(A)
        if F is None or energy(h, U) <= E:
            return h, U, 0.0
        beta = _decreasing_root(lambda b: energy(*_exp_state(A - b * F)), E - etol, etol, hi)
        return (*_exp_state(A - beta * F), beta / _ETA)

    h, U, mu = tilt(np.zeros((M.dim, M.dim)), 1.0)
    best, best_value, converged = None, -math.inf, False
    for steps in range(1, cfg.max_iterations + 1):
        s = np.exp(h)
        S, log_s = (U * s) @ U.conj().T, (U * h) @ U.conj().T
        probs, grams = hybrid._posterior_grams(S, M)
        w, V = np.linalg.eigh(grams)
        value = float(hybrid._spectrum_entropies(s) - probs @ hybrid._spectrum_entropies(w))
        if value > best_value:
            best, best_value = S, value
        B = K @ V
        logs = np.log(np.where(w > 0.0, w, 1.0))
        grad = ((B * logs[:, None, :]) @ B.conj().transpose(0, 2, 1)).sum(axis=0) - log_s
        # the multiplier of this step's update also serves its certificate
        h, U, mu = tilt(log_s + _ETA * grad, 2.0 * _ETA * mu or 1.0)
        dual = np.linalg.eigvalsh(grad if F is None else grad - mu * F)[-1]
        if F is not None:
            dual += mu * E
        if (dual - np.real(np.sum(S.T * grad))) / _LN2 <= cfg.value_tolerance:
            converged = True
            break
    return best, steps, converged


def ea_capacity(
    M: FinitePOVM, constraint: EnergyConstraint | None = None,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> CapacityResult:
    """sup of the entropy reduction ER(S, M) over the feasible state set.

    Pure (rank-1) POVMs short-circuit to the maximum-entropy value: the
    Gibbs-state entropy when an energy constraint is present, log₂ d
    otherwise.  General POVMs are handled by one concave ascent
    (``_ascent``); with E at the ground energy of F it runs over the ground
    eigenspace, the only feasible states.
    """
    d = M.dim
    F, E, eig = _feasible(M, constraint)
    if is_pure_povm(M):
        if constraint is None:
            state = DensityOperator(np.eye(d) / d)
            value = math.log2(d)
        else:
            sol = _gibbs(eig, E)
            state, value = sol.state, sol.entropy_bits
        return CapacityResult(value, state, 0, True, (value,))

    if F is not None and E <= eig.eigenvalues[0] + 1e-12:
        V = eig.eigenvectors[:, eig.eigenvalues <= eig.eigenvalues[0] + 1e-12]
        sub = FinitePOVM(M.labels, V.conj().T @ M.elements @ V)
        S, steps, converged = _ascent(sub, cfg)
        S = V @ S @ V.conj().T
    else:
        etol = 0.0 if F is None else min(1e-10 * max(1.0, E), (E - eig.eigenvalues[0]) / 4.0)
        S, steps, converged = _ascent(M, cfg, F, E, etol)
    state = DensityOperator((S + S.conj().T) / 2.0)
    value = hybrid.entropy_reduction(state, M)
    return CapacityResult(value, state, steps, converged, (value,))
