import math

import numpy as np
import pytest

from conftest import (
    bsc_povm,
    ket,
    random_density,
    random_povm,
    random_rank1_povm,
    trine_povm,
    z_povm,
)
from hybridcap import (
    DensityOperator,
    EnergyConstraint,
    Ensemble,
    FinitePOVM,
    OptimizerConfig,
    ba_prior_step,
    classical_capacity,
    ea_capacity,
    entropy_reduction,
    gibbs_state,
    is_pure_povm,
    mutual_information,
    vn_entropy,
)
from hybridcap import capacity, hybrid, qmat
from hybridcap.capacity import (
    _ba_fixed_point,
    _cond_rows,
    _first_best,
    _project_pure_feasible,
    _top_feasible,
)
from hybridcap.errors import BracketFailure, DimensionMismatch, InfeasibleEnergy

TWO_LEVEL_E = 1.0 / (1.0 + math.e)  # Gibbs energy of F=diag(0,1) at beta=1
TWO_LEVEL_ENTROPY = -(TWO_LEVEL_E * math.log2(TWO_LEVEL_E)
                      + (1 - TWO_LEVEL_E) * math.log2(1 - TWO_LEVEL_E))

FAST = OptimizerConfig(seed=0, restarts=4, max_iterations=60)


class TestGibbsState:
    def test_symmetric_point(self):
        sol = gibbs_state(np.diag([0.0, 1.0]), 0.5)
        assert sol.beta == 0.0
        np.testing.assert_allclose(sol.state.matrix, np.eye(2) / 2, atol=1e-12)
        assert abs(sol.entropy_bits - 1.0) <= 1e-12

    def test_beta_one(self):
        sol = gibbs_state(np.diag([0.0, 1.0]), TWO_LEVEL_E)
        assert abs(sol.beta - 1.0) <= 1e-8
        assert abs(sol.entropy_bits - TWO_LEVEL_ENTROPY) <= 1e-8

    def test_below_ground_energy(self):
        with pytest.raises(InfeasibleEnergy):
            gibbs_state(np.diag([0.0, 1.0]), -0.5)

    def test_energy_decreasing_in_beta(self):
        from hybridcap.capacity import _gibbs_from_beta

        f = np.array([0.0, 0.3, 1.1, 2.0])
        energies = [_gibbs_from_beta(f, b)[1] for b in (0.1, 0.5, 1.0, 3.0, 10.0)]
        assert all(a > b - 1e-12 for a, b in zip(energies, energies[1:]))

    @pytest.mark.parametrize("seed", range(10))
    def test_entropy_identity(self, seed):
        # H * ln2 == beta * energy + ln c(beta)
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        F = g @ g.conj().T
        w = np.linalg.eigvalsh(F)
        E = float(rng.uniform(w[0] + 0.05 * (w.mean() - w[0]), w.mean()))
        sol = gibbs_state(F, E)
        assert abs(sol.energy - E) <= 1e-9 * max(1.0, E)
        lhs = sol.entropy_bits * math.log(2.0)
        assert abs(lhs - (sol.beta * sol.energy + sol.log_partition)) <= 1e-8

    def test_boundary_energy_gives_ground_state(self):
        sol = gibbs_state(np.diag([0.5, 1.5, 2.5]), 0.5)
        assert sol.entropy_bits <= 1e-12
        np.testing.assert_allclose(sol.state.matrix, np.diag([1.0, 0, 0]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_entropy_per_interior_solve(self, seed, monkeypatch):
        # the bisection reads energies only; the entropy is taken once, at the root
        calls = []
        entropy = capacity.entropy_of_spectrum
        monkeypatch.setattr(capacity, "entropy_of_spectrum",
                            lambda w: calls.append(w) or entropy(w))
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        F = g @ g.conj().T
        w = np.linalg.eigvalsh(F)
        sol = gibbs_state(F, float(w[0] + 0.3 * (w.mean() - w[0])))
        assert 0.0 < sol.beta < math.inf
        assert len(calls) == 1

    def test_nan_energy_rejected(self):
        # NaN failed every branch test and returned the ground state with beta = inf
        with pytest.raises(ValueError, match="energy E must be a number, got nan"):
            gibbs_state(np.diag([0.0, 1.0]), math.nan)

    def test_root_falls_through_to_the_last_bracket_midpoint(self):
        # a step at beta = 0.3 never comes within tol of E: all 200 bisection
        # steps run, and the midpoint of the last bracket is returned
        betas = []

        def energy(beta):
            betas.append(beta)
            return 2.0 if beta < 0.3 else 0.0

        root = capacity._decreasing_root(energy, 1.0, 1e-9)
        assert len(betas) == 1 + 200  # energy(hi = 1) ends the doubling at once
        lo = max([0.0] + [b for b in betas[1:] if b < 0.3])
        hi = min([1.0] + [b for b in betas[1:] if b >= 0.3])
        assert root == 0.5 * (lo + hi)
        assert lo < 0.3 <= hi and hi - lo <= 1e-16

    def test_energy_a_hair_above_ground_raises_bracket_failure(self):
        # E - f0 = 1e-26 > 0 skips the boundary branch but needs beta beyond 2^60
        with pytest.raises(BracketFailure, match="2\\^60"):
            gibbs_state(np.diag([0.0, 1e-25, 1.0]), 1e-26)


class TestBaPriorStep:
    def test_symmetric_fixed_point(self):
        ens = Ensemble([0.5, 0.5], (ket(2, 0), ket(2, 1)))
        out = ba_prior_step(ens, bsc_povm(0.75))
        np.testing.assert_allclose(out.weights, [0.5, 0.5], atol=1e-12)

    def test_average_output_member_shrinks(self):
        # a member whose output equals the average gets zero divergence boost
        mixed = DensityOperator(np.eye(2) / 2)
        ens = Ensemble([0.4, 0.3, 0.3], (mixed, ket(2, 0), ket(2, 1)))
        out = ba_prior_step(ens, z_povm())
        assert out.weights[0] <= 0.4 + 1e-12

    def test_converges_to_uniform(self):
        ens = Ensemble([0.9, 0.1], (ket(2, 0), ket(2, 1)))
        for _ in range(200):
            ens = ba_prior_step(ens, z_povm())
        np.testing.assert_allclose(ens.weights, [0.5, 0.5], atol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_in_mutual_information(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        M = random_povm(rng, d, 3)
        states = tuple(random_density(rng, d) for _ in range(3))
        w = rng.random(3) + 0.1
        ens = Ensemble(w / w.sum(), states)
        prev = mutual_information(ens, M)
        for _ in range(200):
            ens = ba_prior_step(ens, M)
            cur = mutual_information(ens, M)
            assert cur >= prev - 1e-12
            prev = cur

    def test_dimension_mismatch(self):
        ens = Ensemble([0.5, 0.5], (ket(3, 0), ket(3, 1)))
        with pytest.raises(DimensionMismatch, match="dimension mismatch: 3 vs 2"):
            ba_prior_step(ens, z_povm())


def _plain_ba(w, P, steps=300):
    """One row's plain Blahut–Arimoto update w ← w·2^{D − max D}/Σ, ``steps`` times."""
    for _ in range(steps):
        D = hybrid._divergences(w, P)
        w = w * np.exp2(D - D.max())
        w /= w.sum()
    return w


def _brackets(w, P):
    """max_x D(P_x‖p̄) − I of each row: how far its optimum can lie above I."""
    D = hybrid._divergences(w, P)
    return D.max(axis=-1) - hybrid._dots(w, D)


class TestBaFixedPoint:
    """The certified stacked solve against the plain update it replaces."""

    @staticmethod
    def stack(rng, kind):
        R, n, m = (int(k) for k in rng.integers((1, 2, 2), (5, 6, 6)))
        if kind == "stalled entrant":
            n, m = 4, 4
        P = rng.dirichlet(np.full(m, rng.choice([0.3, 1.0, 3.0])), size=(R, n))
        W = rng.dirichlet(np.ones(n), size=R)
        if kind == "near-duplicate rows":
            P[:, 1] = np.abs(P[:, 0] + 1e-9 * rng.standard_normal((R, m)))
        elif kind == "zeros":
            P[P < 0.15] = 0.0
            P[:, :, 0] += 1e-3
        elif kind == "lone outcome of a 1e-200 member":
            # in row 0, outcome 0 has p̄ = 1e-200 and counts as 0; the member
            # producing it must stay negligible rather than grow by 2^{-log2 p̄}
            P[0, :, 0] = 0.0
            P[0, 0] = np.eye(m)[0]
            W[0, 0] = 1e-200
        elif kind == "stalled entrant":
            # in row 0, member 0 has weight 0 and the largest D, but its
            # component of the first Newton step on the face is negative; kept
            # on the face it would stop every step, and Blahut–Arimoto cannot
            # revive it (the row would end 0.14 bits low)
            P[0] = [[0.597, 0.088, 0.027, 0.288], [0.307, 0.251, 0.327, 0.115],
                    [0.394, 0.119, 0.196, 0.292], [0.314, 0.225, 0.31, 0.151]]
            W[0] = [0.0, 0.002, 0.554, 0.444]
        elif kind == "duplicated live member":
            # members 0 and 1 are equal and both live, so the Hessian of I is singular
            P[:, 1] = P[:, 0]
        return W / W.sum(axis=-1, keepdims=True), P / P.sum(axis=-1, keepdims=True)

    @pytest.mark.parametrize("kind", ["random", "near-duplicate rows", "zeros",
                                      "lone outcome of a 1e-200 member", "stalled entrant",
                                      "duplicated live member"])
    def test_matches_reference_update(self, kind):
        rng = np.random.default_rng(17)
        for _ in range(15):
            W, P = self.stack(rng, kind)
            fixed = _ba_fixed_point(W, P)
            for r in range(len(W)):  # rows with and without a dead outcome share a stack
                assert np.array_equal(fixed[r], _ba_fixed_point(W[r:r + 1], P[r:r + 1])[0])
            assert np.max(_brackets(fixed, P)) <= 1e-12
            plain = np.array([_plain_ba(w, p) for w, p in zip(W, P)])
            di = hybrid._mutual_informations(fixed, P) - hybrid._mutual_informations(plain, P)
            assert np.min(di) >= -1e-12
            if kind == "lone outcome of a 1e-200 member":
                assert fixed[0, 0] <= 1e-190

    def test_starved_member_certifies_in_few_iterations(self):
        # member 1 nearly duplicates member 0 but replaces it at the optimum;
        # plain Blahut–Arimoto takes 29.7 k steps to close the bracket to 1e-12
        P = np.array([[[0.6, 0.3, 0.1], [0.604, 0.296, 0.1], [0.1, 0.2, 0.7]]])
        W = np.array([[0.5, 1e-9, 0.5 - 1e-9]])
        assert _brackets(_plain_ba(W[0], P[0], 20)[None], P)[0] > 1e-6
        assert _brackets(_ba_fixed_point(W, P, steps=20), P)[0] <= 1e-12

    def test_row_with_six_live_members_certifies_within_30_steps(self):
        # a random row (10 members, 6 outcomes, entries rounded to 1e-4) that
        # a single pairwise transfer per step left at the 300-step cap with a
        # bracket of 7.3e-10 bits; six members are live at the optimum
        W = np.array([[0.1475, 0.2789, 0.0985, 0.0041, 0.0372, 0.1348, 0.0893, 0.0354,
                       0.032, 0.1422]])
        P = np.array([[[0.5751, 0.2098, 0.0702, 0.0217, 0.106, 0.0172],
                       [0.3619, 0.3748, 0.0848, 0.0395, 0.0363, 0.1026],
                       [0.1369, 0.2458, 0.4839, 0.0005, 0.0032, 0.1298],
                       [0.0027, 0.0567, 0.1608, 0.0239, 0.702, 0.0539],
                       [0.1178, 0.3512, 0.0268, 0.0632, 0.0947, 0.3462],
                       [0.0187, 0.0684, 0.0717, 0.5138, 0.1181, 0.2093],
                       [0.2509, 0.1624, 0.1955, 0.0268, 0.2089, 0.1555],
                       [0.133, 0.6457, 0.0135, 0.0061, 0.0201, 0.1817],
                       [0.0413, 0.079, 0.4553, 0.3184, 0.0301, 0.0758],
                       [0.0447, 0.0246, 0.2177, 0.1031, 0.3118, 0.2981]]])
        W, P = W / W.sum(), P / P.sum(axis=-1, keepdims=True)
        fixed = _ba_fixed_point(W, P, steps=30)
        assert _brackets(fixed, P)[0] <= 1e-12
        assert np.count_nonzero(fixed > 1e-9) == 6

    def test_rows_left_at_the_step_cap(self):
        # one iteration certifies no row of this stack, so every row leaves
        # at the cap: on the simplex, I not below its start, one-row bits
        rng = np.random.default_rng(29)
        P = rng.dirichlet(np.ones(4), size=(3, 5))
        W = rng.dirichlet(np.ones(5), size=3)
        capped = _ba_fixed_point(W, P, steps=1)
        assert np.all(_brackets(capped, P) > 1e-12)
        assert np.all(capped >= 0.0)
        np.testing.assert_allclose(capped.sum(axis=-1), 1.0, rtol=0, atol=1e-15)
        start = hybrid._mutual_informations(W, P)
        assert np.all(hybrid._mutual_informations(capped, P) >= start)
        for r in range(len(W)):
            assert np.array_equal(capped[r], _ba_fixed_point(W[r:r + 1], P[r:r + 1], steps=1)[0])

    @pytest.mark.parametrize("seed", range(4))
    def test_per_row_rel_stops_at_its_bracket(self, seed):
        # rows of one stack with different rel: each stops at its own bracket
        # and gets the bits of a one-row solve with its rel
        rng = np.random.default_rng([30, seed])
        P = rng.dirichlet(np.full(4, 0.5), size=(6, 5))
        W = rng.dirichlet(np.ones(5), size=6)
        rel = np.array([0.0, 1e-6, 1e-3, 1e-2, 0.1, 0.5])
        fixed = _ba_fixed_point(W, P, rel=rel)
        assert np.all(_brackets(fixed, P) <= np.maximum(1e-12, rel * _brackets(W, P)))
        for r in range(len(W)):
            assert np.array_equal(fixed[r], _ba_fixed_point(W[r:r + 1], P[r:r + 1],
                                                            rel=rel[r])[0])
        assert np.array_equal(fixed[0], _ba_fixed_point(W, P)[0])
        assert np.array_equal(_ba_fixed_point(W, P, rel=np.zeros(6)), _ba_fixed_point(W, P))
        # the bracket is measured at the row's first iteration: rel 1 stops there
        assert np.array_equal(_ba_fixed_point(W, P, rel=1.0), W)


class TestClassicalCapacity:
    def test_constant_channel(self):
        M = FinitePOVM.from_pairs([("all", np.eye(2))])
        res = classical_capacity(M, cfg=FAST)
        assert res.value_bits <= 1e-9

    def test_projective_qubit(self):
        res = classical_capacity(z_povm(), cfg=FAST)
        assert abs(res.value_bits - 1.0) <= 1e-6

    def test_energy_constrained_z_channel(self):
        c = EnergyConstraint(np.diag([0.0, 1.0]), 0.5)
        res = classical_capacity(z_povm(), c, FAST)
        assert abs(res.value_bits - math.log2(1.25)) <= 1e-3
        for s in res.argmax.states:
            assert float(np.real(np.trace(s.matrix @ c.F))) <= c.E + 1e-9

    def test_infeasible_energy(self):
        with pytest.raises(InfeasibleEnergy):
            classical_capacity(
                z_povm(), EnergyConstraint(np.diag([1.0, 2.0]), 0.5), FAST
            )

    @pytest.mark.parametrize("solve", [classical_capacity, ea_capacity])
    def test_constraint_dimension_mismatch(self, solve):
        with pytest.raises(DimensionMismatch, match="constraint dimension"):
            solve(z_povm(), EnergyConstraint(np.diag([0.0, 1.0, 2.0]), 0.5), FAST)

    @pytest.mark.parametrize("i", [16, 48])
    def test_commuting_channel_converges_at_its_capacity(self, i):
        # both were reported converged 5.4e-3 and 1.9e-3 bits below the capacity
        rng = np.random.default_rng([900, i])
        d, m = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        W = rng.dirichlet(np.full(m, 0.7), size=d)
        M = FinitePOVM(tuple(str(k) for k in range(m)),
                       np.stack([np.diag(W[:, k]) for k in range(m)]).astype(complex))
        res = classical_capacity(M, cfg=OptimizerConfig(seed=1, restarts=2, max_iterations=60))
        p = np.full(d, 1.0 / d)  # Blahut–Arimoto on W, to a bracket below 1e-13
        for _ in range(100_000):
            q = p @ W
            D = np.sum(W * np.log2(W / q), axis=1)
            if D.max() - p @ D < 1e-13:
                break
            p = p * np.exp2(D - D.max())
            p /= p.sum()
        assert D.max() - p @ D < 1e-13
        assert res.converged and abs(res.value_bits - p @ D) <= 1e-9

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_projective_measurement_at_log_d(self, d):
        # the first state step puts every member on a basis state, and an
        # outcome given only by members of weight 0 counts as 0 in the prior
        # solve until one of them is given weight
        M = random_rank1_povm(np.random.default_rng([48, d, 4]), d, d)
        res = classical_capacity(M, cfg=FAST)
        assert abs(res.value_bits - math.log2(d)) <= 1e-9

    @pytest.mark.parametrize("d, s, seed", [
        (4, 6, 1), (4, 8, 1), (5, 2, 0), (5, 3, 1), (5, 5, 1), (5, 8, 1), (6, 1, 1),
        (6, 7, 0), (7, 0, 0), (7, 0, 1), (7, 1, 1), (7, 2, 0), (7, 3, 1), (7, 4, 0),
        (7, 7, 1), (7, 8, 1), (7, 9, 0), (8, 0, 0), (8, 0, 1), (8, 1, 1), (8, 9, 0),
    ])
    def test_projective_measurement_with_a_starved_outcome(self, d, s, seed):
        # duplicated members sit on an outcome of p̄ ≈ 4e-9, so H_xx ≈ 2.5e8:
        # a fixed 1e-12 ridge is below its ulp and left the KKT matrix singular
        M = random_rank1_povm(np.random.default_rng([48, d, s]), d, d)
        res = classical_capacity(M, cfg=OptimizerConfig(seed=seed, restarts=4,
                                                        max_iterations=60))
        assert res.value_bits <= math.log2(d) + 1e-9
        assert abs(mutual_information(res.argmax, M) - res.value_bits) <= 1e-9

    def test_trine_at_log3_minus_one(self):
        # the anti-trine ensemble makes the output uniform, and no pure state
        # has an outcome entropy below 1 bit, so C = log2 3 - 1
        res = classical_capacity(trine_povm(), cfg=FAST)
        assert abs(res.value_bits - (math.log2(3.0) - 1.0)) <= 1e-9

    def test_value_realized_by_argmax(self):
        rng = np.random.default_rng(2)
        M = random_povm(rng, 2, 3)
        res = classical_capacity(M, cfg=FAST)
        assert abs(mutual_information(res.argmax, M) - res.value_bits) <= 1e-9

    def test_purification_does_not_lower_information(self):
        # splitting a mixed member into its eigencomponents preserves the
        # average and cannot decrease I
        rng = np.random.default_rng(3)
        M = random_povm(rng, 2, 3)
        mixed = random_density(rng, 2)
        pure = ket(2, 0)
        ens = Ensemble([0.5, 0.5], (mixed, pure))
        w, v = np.linalg.eigh(mixed.matrix)
        members, weights = [pure], [0.5]
        for lam, vec in zip(w, v.T):
            if lam > 1e-12:
                members.append(DensityOperator(np.outer(vec, vec.conj())))
                weights.append(0.5 * lam)
        split = Ensemble(np.array(weights) / sum(weights), tuple(members))
        assert mutual_information(split, M) >= mutual_information(ens, M) - 1e-9


class TestCertifiedPrior:
    """The rounds solve loosely; the returned prior is certified for the returned states."""

    CASES = [(kind, constrained, restarts)
             for kind in ("random", "rank-1", "commuting")
             for constrained in (False, True) for restarts in (1, 3)]

    @staticmethod
    def channel(k, kind, constrained):
        rng = np.random.default_rng([61, k])
        d = int(rng.integers(2, 5))
        m = int(rng.integers(d, 6))
        if kind == "random":
            M = random_povm(rng, d, m)
        elif kind == "rank-1":
            M = random_rank1_povm(rng, d, m)
        else:
            W = rng.dirichlet(np.full(m, 0.7), size=d)
            M = FinitePOVM(tuple(str(j) for j in range(m)),
                           np.stack([np.diag(W[:, j]) for j in range(m)]).astype(complex))
        c = EnergyConstraint(np.diag(np.arange(d, dtype=float)), 0.3 * (d - 1)) \
            if constrained else None
        return M, c

    @staticmethod
    def bracket(res, M):
        """max_x D(P_x‖p̄) − I in bits, from the returned states and weights."""
        w = res.argmax.weights
        P = np.array([[np.real(np.trace(s.matrix @ e)) for e in M.elements]
                      for s in res.argmax.states]).clip(0.0)
        pbar = w @ P
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(P > 1e-12, P * np.log2(P / pbar), 0.0)
        D = terms.sum(axis=1)
        return D.max() - w @ D

    @pytest.mark.parametrize("k", range(len(CASES)))
    def test_returned_prior_certified(self, k):
        kind, constrained, restarts = self.CASES[k]
        M, c = self.channel(k, kind, constrained)
        iterations = 2 if k == 0 else 60
        res = classical_capacity(M, c, OptimizerConfig(seed=k, restarts=restarts,
                                                       max_iterations=iterations))
        if k == 0:
            assert not res.converged  # stopped by max_iterations
        assert self.bracket(res, M) <= 1e-12
        assert abs(res.value_bits - max(res.restart_values)) <= 1e-12


class TestEaCapacity:
    def test_rank1_unconstrained(self):
        res = ea_capacity(z_povm(), cfg=FAST)
        assert abs(res.value_bits - 1.0) <= 1e-12
        np.testing.assert_allclose(res.argmax.matrix, np.eye(2) / 2, atol=1e-12)

    def test_trine_constrained_gibbs_path(self):
        c = EnergyConstraint(np.diag([0.0, 1.0]), TWO_LEVEL_E)
        res = ea_capacity(trine_povm(), c, FAST)
        assert abs(res.value_bits - TWO_LEVEL_ENTROPY) <= 1e-9

    def test_rank1_consistency_matches_gibbs_entropy(self):
        rng = np.random.default_rng(4)
        M = random_rank1_povm(rng, 3, 4)
        assert is_pure_povm(M)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        F = g @ g.conj().T
        w = np.linalg.eigvalsh(F)
        E = float(0.5 * (w[0] + w.mean()))
        c = EnergyConstraint(F, E)
        for cfg in (FAST, OptimizerConfig(seed=9, restarts=2, max_iterations=10)):
            res = ea_capacity(M, c, cfg)
            assert abs(res.value_bits - gibbs_state(F, E).entropy_bits) <= 1e-9

    def test_mixed_povm_matches_grid_oracle(self):
        # independent oracle: ER depends only on (radius, z) for a diagonal
        # qubit POVM; brute-force that 2D grid with closed-form 2x2 spectra
        M = bsc_povm(0.75)
        best = -1.0
        diag_elems = [np.array([0.75, 0.25]), np.array([0.25, 0.75])]
        for r in np.arange(0.0, 1.0001, 0.01):
            lam = np.array([(1 + r) / 2, (1 - r) / 2])
            lam = lam[lam > 1e-12]
            h_state = -float(np.sum(lam * np.log2(lam)))
            det_s = (1 - r * r) / 4
            for z in np.arange(-r, r + 1e-12, 0.01):
                er = h_state
                for el in diag_elems:
                    p = el[0] * (1 + z) / 2 + el[1] * (1 - z) / 2
                    det = det_s * el[0] * el[1]
                    disc = max(p * p - 4 * det, 0.0)
                    ent = 0.0
                    for lam_post in ((p + math.sqrt(disc)) / (2 * p),
                                     (p - math.sqrt(disc)) / (2 * p)):
                        if lam_post > 1e-12:
                            ent -= lam_post * math.log2(lam_post)
                    er -= p * ent
                best = max(best, er)
        res = ea_capacity(M, cfg=FAST)
        assert abs(res.value_bits - best) <= 1e-4

    def test_value_realized_by_argmax(self):
        rng = np.random.default_rng(5)
        M = random_povm(rng, 2, 3)
        res = ea_capacity(M, cfg=FAST)
        assert abs(entropy_reduction(res.argmax, M) - res.value_bits) <= 1e-9

    def test_constraint_respected(self):
        rng = np.random.default_rng(6)
        M = random_povm(rng, 2, 3)
        c = EnergyConstraint(np.diag([0.0, 1.0]), 0.3)
        res = ea_capacity(M, c, FAST)
        assert float(np.real(np.trace(res.argmax.matrix @ c.F))) <= c.E + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_dominates_classical_capacity(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        M = random_povm(rng, d, int(rng.integers(2, 4)))
        cfgc = OptimizerConfig(seed=0, restarts=3, max_iterations=30)
        cfge = OptimizerConfig(seed=0, restarts=3, max_iterations=35)
        c_val = classical_capacity(M, cfg=cfgc).value_bits
        ea_val = ea_capacity(M, cfg=cfge).value_bits
        assert c_val <= ea_val + 1e-6


def _binary_entropy(p):
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


class TestEaAscent:
    """The C_ea ascent: certified stop, best iterate kept, feasible argmax."""

    def test_bsc_certified_at_closed_form(self):
        res = ea_capacity(bsc_povm(0.75))
        assert abs(res.value_bits - (1.0 - _binary_entropy(0.25))) <= 1e-9
        assert res.converged

    @pytest.mark.parametrize("constrained", [False, True])
    def test_value_does_not_decrease_with_steps(self, constrained):
        M = random_povm(np.random.default_rng(41), 3, 3)
        F, E = np.diag([0.0, 1.0, 2.0]), 0.6  # below the mixed-state energy 1
        c = EnergyConstraint(F, E) if constrained else None
        for solve in (ea_capacity, classical_capacity):
            runs = [solve(M, c, OptimizerConfig(max_iterations=k)) for k in (1, 2, 5, 20, 200)]
            assert not runs[0].converged
            values = [res.value_bits for res in runs]
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert values[-1] > values[0]
            if solve is ea_capacity:
                assert runs[0].iterations_used == 1
                start = gibbs_state(F, E).state if constrained else DensityOperator(np.eye(3) / 3)
                assert abs(values[0] - entropy_reduction(start, M)) <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("iterations", [1, 200])
    def test_argmax_within_budget(self, seed, iterations):
        rng = np.random.default_rng([42, seed])
        d = int(rng.integers(2, 4))
        M = random_povm(rng, d, 3)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        F = g @ g.conj().T
        w = np.linalg.eigvalsh(F)
        E = float(rng.uniform(w[0] + 1e-3, w.mean()))
        res = ea_capacity(M, EnergyConstraint(F, E), OptimizerConfig(max_iterations=iterations))
        assert float(np.real(np.trace(res.argmax.matrix @ F))) <= E + 1e-12

    def test_degenerate_ground_energy(self):
        M = random_povm(np.random.default_rng(43), 3, 3)
        res = ea_capacity(M, EnergyConstraint(np.diag([0.0, 0.0, 1.0]), 0.0))
        S = res.argmax.matrix
        assert np.max(np.abs(S[2])) <= 1e-12 and np.max(np.abs(S[:, 2])) <= 1e-12
        ground = DensityOperator(np.diag([0.5, 0.5, 0.0]))
        assert res.value_bits >= entropy_reduction(ground, M) - 1e-12
        assert res.converged


def _energy(v, F):
    v = v / np.linalg.norm(v)
    return float(np.real(v.conj() @ F @ v))


def _bisect_blend(psi, F, E, g):
    """Least t with (1-t)ψ + t·g feasible, by 80 bisection steps."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        t = 0.5 * (lo + hi)
        if _energy((1.0 - t) * psi + t * g, F) > E:
            lo = t
        else:
            hi = t
    return hi


def _blend(psi, g, t):
    v = (1.0 - t) * psi + t * g
    return v / np.linalg.norm(v)


class TestProjectPureFeasible:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_bisection_and_is_least_blend(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        F = g @ g.conj().T
        w, V = np.linalg.eigh(F)
        ground = V[:, 0]
        E = float(rng.uniform(w[0], w[0] + 0.5 * (w[-1] - w[0])))
        raw = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi = raw / np.linalg.norm(raw)
        out = _project_pure_feasible(raw, F, E, ground)
        assert _energy(out, F) <= E + 1e-12
        if _energy(psi, F) <= E + 1e-12:
            np.testing.assert_array_equal(out, psi)
            return
        t = _bisect_blend(psi, F, E, ground)
        assert np.max(np.abs(out - _blend(psi, ground, t))) <= 1e-12
        assert _energy(_blend(psi, ground, t - 1e-9), F) > E

    def test_ground_energy_gives_ground_vector(self):
        # at E = ground energy the blended energy has a double root at t = 1,
        # which bisection resolves only to about the square root of eps
        F = np.diag([0.5, 1.5, 2.5]).astype(complex)
        ground = np.array([1.0, 0.0, 0.0], dtype=complex)
        psi = np.array([0.6, 0.0, 0.8j])
        out = _project_pure_feasible(psi, F, 0.5, ground)
        assert _energy(out, F) <= 0.5 + 1e-12
        assert np.max(np.abs(out - ground)) <= 1e-12
        t = _bisect_blend(psi, F, 0.5, ground)
        assert np.max(np.abs(out - _blend(psi, ground, t))) <= 1e-8

    def test_feasible_vector_is_only_normalized(self):
        F = np.diag([0.0, 1.0]).astype(complex)
        psi = np.array([2.0, 0.5j])
        out = _project_pure_feasible(psi, F, 0.5, np.array([1.0, 0.0j]))
        np.testing.assert_array_equal(out, psi / np.linalg.norm(psi))


def _hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2.0


def _dual_bound(G, F, E):
    """min over μ >= 0 of μE + λ_max(G − μF): a 4001-point grid, then golden sections."""
    lam, f = np.linalg.eigvalsh(G), np.linalg.eigvalsh(F)
    dual = lambda mu: mu * E + np.linalg.eigvalsh(G - mu * F)[-1]
    # past (λ_max − λ_min)/(E − f_0) the top eigenvector of G − μF is feasible
    grid = np.linspace(0.0, (lam[-1] - lam[0]) / (E - f[0]) + 1.0, 4001)
    k = int(np.argmin([dual(mu) for mu in grid]))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    r = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        a, b = hi - r * (hi - lo), lo + r * (hi - lo)
        lo, hi = (lo, b) if dual(a) < dual(b) else (a, hi)
    return min(dual(grid[k]), dual(0.5 * (lo + hi)))


class TestTopFeasible:
    """The state step: the best unit ψ of ψ†Gψ under ψ†Fψ <= E, for a stack of G."""

    @staticmethod
    def constraint(rng, d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        F = g @ g.conj().T
        F = (F + F.conj().T) / 2.0
        f = np.linalg.eigvalsh(F)
        return F, float(rng.uniform(f[0] + 1e-3, f.mean())), qmat.herm_eig(F)

    @staticmethod
    def value(psi, A):
        return float(np.real(psi.conj() @ A @ psi))

    @pytest.mark.parametrize("seed", range(12))
    def test_value_attains_dual_bound(self, seed):
        rng = np.random.default_rng([44, seed])
        d = int(rng.integers(2, 5))
        F, E, eig = self.constraint(rng, d)
        G = np.stack([_hermitian(rng, d) for _ in range(6)])
        out = _top_feasible(G, F, E, eig)
        for g, psi in zip(G, out):
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
            assert self.value(psi, F) <= E + 1e-12
            assert abs(self.value(psi, g) - _dual_bound(g, F, E)) <= 1e-9

    @pytest.mark.parametrize("E", [0.2, 0.5, 0.9])
    def test_commuting_value_jumps_and_blend_attains_it(self, E):
        # the Z channel's G under F = diag(0, 1): e(μ) jumps from 1 to 0 at
        # μ* = 1.3, and only a blend of |0> and |1> reaches energy E
        G = np.diag([-0.4, 0.9]).astype(complex)[None]
        F = np.diag([0.0, 1.0])
        psi = _top_feasible(G, F, E, qmat.herm_eig(F))[0]
        assert self.value(psi, F) <= E + 1e-12
        assert abs(self.value(psi, G[0]) - (-0.4 + 1.3 * E)) <= 1e-12

    def test_unconstrained_is_top_eigenvector(self):
        rng = np.random.default_rng(45)
        G = np.stack([_hermitian(rng, 3) for _ in range(4)])
        for g, psi in zip(G, _top_feasible(G, None, None, None)):
            assert abs(self.value(psi, g) - np.linalg.eigvalsh(g)[-1]) <= 1e-12

    def test_ground_energy_gives_ground_vector(self):
        rng = np.random.default_rng(46)
        F = np.diag([0.5, 1.0, 2.0])
        out = _top_feasible(np.stack([_hermitian(rng, 3) for _ in range(3)]), F, 0.5,
                            qmat.herm_eig(F))
        np.testing.assert_allclose(np.abs(out), np.tile([1.0, 0.0, 0.0], (3, 1)), atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_stacked_rows_match_one_row_calls_bit_for_bit(self, seed):
        rng = np.random.default_rng([47, seed])
        d = int(rng.integers(2, 5))
        F, E, eig = self.constraint(rng, d)
        G = np.stack([_hermitian(rng, d) for _ in range(8)])
        G[0] = np.eye(d)  # top feasible or not, its value is 1 at once
        G[1] = -F  # top eigenvector is the ground vector, feasible
        out = _top_feasible(G, F, E, eig)
        for k in range(len(G)):
            assert np.array_equal(out[k], _top_feasible(G[k:k + 1], F, E, eig)[0])

    @pytest.mark.parametrize("seed", range(6))
    def test_tolerance_per_row(self, seed):
        # rows of one stack with different tol: unit, feasible, within their
        # tol of the dual bound, and the bits of one-row calls
        rng = np.random.default_rng([49, seed])
        d = int(rng.integers(2, 5))
        F, E, eig = self.constraint(rng, d)
        G = np.stack([_hermitian(rng, d) for _ in range(6)])
        tol = np.array([0.0, 1e-9, 1e-6, 1e-3, 1e-2, 0.1])
        out = _top_feasible(G, F, E, eig, tol)
        for k, (g, psi) in enumerate(zip(G, out)):
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
            assert self.value(psi, F) <= E + 1e-12
            assert abs(self.value(psi, g) - _dual_bound(g, F, E)) <= tol[k] + 1e-9
            assert np.array_equal(psi, _top_feasible(G[k:k + 1], F, E, eig, tol[k:k + 1])[0])
        assert np.array_equal(out[0], _top_feasible(G, F, E, eig)[0])

    @pytest.mark.parametrize("seed", range(4))
    def test_tolerance_of_the_spread_stops_after_one_step(self, seed, monkeypatch):
        # after one step the gap is at most λ_max(G) − λ_min(G), so rows with
        # a tol above that take the first eigh and one more
        rng = np.random.default_rng([50, seed])
        d = int(rng.integers(2, 5))
        F, E, eig = self.constraint(rng, d)
        G = np.stack([_hermitian(rng, d) for _ in range(6)])
        lam = np.linalg.eigvalsh(G)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        tol = 2.0 * (lam[:, -1] - lam[:, 0])
        out = _top_feasible(G, F, E, eig, tol)
        assert len(calls) == 2
        for g, psi, t in zip(G, out, tol):
            assert self.value(psi, F) <= E + 1e-12
            assert self.value(psi, g) >= _dual_bound(g, F, E) - t


class TestIsPurePovm:
    def test_rank2_element_among_rank1(self):
        M = FinitePOVM.from_pairs([
            ("a", np.diag([1.0, 0.0, 0.0])),
            ("b", np.diag([0.0, 1.0, 0.0])),
            ("c", np.diag([0.0, 0.0, 1.0])),
        ])
        assert is_pure_povm(M)
        M = FinitePOVM.from_pairs([
            ("a", np.diag([1.0, 0.0, 0.0])),
            ("bc", np.diag([0.0, 1.0, 1.0])),
        ])
        assert not is_pure_povm(M)

    def test_second_eigenvalue_below_tolerance(self):
        eps = 5e-11
        M = FinitePOVM.from_pairs([
            ("0", np.diag([1.0 - eps, eps])), ("1", np.diag([eps, 1.0 - eps])),
        ])
        assert is_pure_povm(M)
        assert not is_pure_povm(M, tol=1e-11)

    def test_reads_the_validation_spectrum(self, monkeypatch):
        # the spectrum check_psd_stack computed at construction, bit for bit
        # the ascending eigvalsh of (e + e†)/2; is_pure_povm computes none
        rng = np.random.default_rng(31)
        povms = [random_povm(rng, 3, 4), random_rank1_povm(rng, 3, 5), z_povm()]
        for M in povms:
            e = M.elements
            ref = np.linalg.eigvalsh((e + e.conj().transpose(0, 2, 1)) / 2.0)
            assert np.array_equal(M._spectrum, ref)
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        assert [is_pure_povm(M) for M in povms] == [False, True, True]


class TestMultistartResults:
    CFG = OptimizerConfig(seed=1, restarts=3, max_iterations=40)

    @pytest.mark.parametrize("seed", range(3))
    def test_ea_value_is_best_restart(self, seed):
        M = random_povm(np.random.default_rng(seed), 2, 3)
        res = ea_capacity(M, cfg=self.CFG)
        assert res.value_bits in res.restart_values
        assert max(res.restart_values) - res.value_bits <= 1e-15

    @pytest.mark.parametrize("seed", range(3))
    def test_classical_value_is_best_restart(self, seed):
        M = random_povm(np.random.default_rng(seed), 2, 3)
        c = EnergyConstraint(np.diag([0.0, 1.0]), 0.3) if seed == 2 else None
        res = classical_capacity(M, c, self.CFG)
        assert abs(res.value_bits - max(res.restart_values)) <= 1e-9

    def test_restart_and_round_counts(self):
        M = random_povm(np.random.default_rng(7), 2, 3)
        cfg = OptimizerConfig(seed=0, restarts=3, max_iterations=15)
        res = classical_capacity(M, cfg=cfg)
        assert len(res.restart_values) == cfg.restarts
        assert cfg.restarts <= res.iterations_used <= cfg.restarts * cfg.max_iterations

    def test_one_round_does_not_converge(self):
        M = random_povm(np.random.default_rng(8), 2, 3)
        res = classical_capacity(M, cfg=OptimizerConfig(seed=0, restarts=2, max_iterations=1))
        assert not res.converged
        assert res.iterations_used == 2


class TestLockstepRestarts:
    """All restarts run in lockstep; none may see another."""

    CFG = dict(seed=0, max_iterations=40, value_tolerance=1e-5)

    @staticmethod
    def channel(kind):
        if kind == "commuting":
            return bsc_povm(0.8), None
        # its first three restarts stop at three different rounds (see below)
        M = random_povm(np.random.default_rng(17), 2, 3)
        if kind == "constrained":
            return M, EnergyConstraint(np.diag([0.0, 1.0]), 0.3)
        return M, None

    @pytest.mark.parametrize("kind", ["commuting", "non-commuting", "constrained"])
    def test_restarts_independent_of_their_number(self, kind):
        M, c = self.channel(kind)
        # 8 is the CLI default
        ks = (1, 2, 3, 8)
        runs = [classical_capacity(M, c, OptimizerConfig(restarts=k, **self.CFG)) for k in ks]
        full = runs[-1].restart_values
        assert len(full) == 8
        for res in runs[:-1]:
            k = len(res.restart_values)
            assert np.max(np.abs(np.subtract(res.restart_values, full[:k]))) <= 1e-15
        # each run counts the rounds of its own restarts only
        rounds = np.diff([0] + [res.iterations_used for res in runs])
        added = np.diff((0,) + ks)
        assert np.all((rounds >= added) & (rounds <= added * self.CFG["max_iterations"]))
        if kind == "non-commuting":
            # the first three restarts stop at different rounds, all before
            # the cap, so the ones that stop first sit frozen while the others go on
            assert len(set(rounds[:3].tolist())) == 3
            assert rounds[:3].max() < self.CFG["max_iterations"]

    def test_stacked_kernels_match_single_restarts_bit_for_bit(self):
        rng = np.random.default_rng(21)
        M = random_povm(rng, 3, 4)
        F = np.diag([0.0, 1.0, 2.0])
        g = np.eye(3, dtype=complex)[:, 0]
        R = 5
        psis = rng.standard_normal((R, 5, 3)) + 1j * rng.standard_normal((R, 5, 3))
        # restart 0 has five equal states, so its bracket is 0 at once and it
        # leaves the stack of the inner solve while the others go on
        psis[0] = psis[0, 0]
        proj = _project_pure_feasible(psis, F, 0.4, g)
        P = _cond_rows(proj, M)
        w = rng.dirichlet(np.ones(5), size=R)
        fixed = _ba_fixed_point(w, P)
        mi = hybrid._mutual_informations(w, P)
        for r in range(R):
            for x in range(5):
                assert np.array_equal(proj[r, x], _project_pure_feasible(psis[r, x], F, 0.4, g))
            assert np.array_equal(P[r], _cond_rows(proj[r], M))
            assert np.array_equal(fixed[r], _ba_fixed_point(w[r:r + 1], P[r:r + 1])[0])
            assert mi[r] == hybrid.mutual_information_from_rows(w[r], P[r])

    def test_best_choice_keeps_lowest_restart_within_1e15(self):
        # sequential "> best + 1e-15" over r = 0..R-1: restart 1 ties with 0,
        # restart 2 beats 0, restart 3 ties with 2; argmax would pick 3
        values = [0.5, 0.5 + 8e-16, 0.5 + 1.6e-15, 0.5 + 2.2e-15]
        assert _first_best(values) == 2
        assert np.argmax(values) == 3


class TestClassicalAnchors:
    """Pinned classical_capacity runs: values within 1e-12 bits, round counts exact."""

    # restart_values (float.hex), iterations_used, converged of these runs
    # with the state step and inner solve of the time they were recorded;
    # the values may move by rounding when either changes, the counts not
    ANCHORS = {
        ("classical", 1): (["0x1.8186827a7e979p-4"], 4, True),
        ("classical", 3): (["0x1.8186827a7e979p-4", "0x1.81868279e6faep-4",
                            "0x1.8186826fb85f1p-4"], 9, True),
        ("classical-constrained", 1): (["0x1.26eb9c0639670p-4"], 3, True),
        ("classical-constrained", 3): (["0x1.26eb9c0639670p-4", "0x1.26eb9c04e4551p-4",
                                        "0x1.26eb9c03ed62cp-4"], 9, True),
    }

    @staticmethod
    def run(name, restarts):
        M = random_povm(np.random.default_rng(31), 2, 3)
        c = {"classical": None,
             "classical-constrained": EnergyConstraint(np.diag([0.0, 1.0]), 0.3)}[name]
        res = classical_capacity(M, c, OptimizerConfig(seed=5, restarts=restarts,
                                                       max_iterations=40))
        return [v.hex() for v in res.restart_values], res.iterations_used, res.converged

    @pytest.mark.parametrize("name,restarts", sorted(ANCHORS))
    def test_results_stay_at_anchors(self, name, restarts):
        values, rounds, converged = self.run(name, restarts)
        anchor_values, anchor_rounds, anchor_converged = self.ANCHORS[name, restarts]
        assert (rounds, converged) == (anchor_rounds, anchor_converged)
        diff = np.subtract([float.fromhex(v) for v in values],
                           [float.fromhex(v) for v in anchor_values])
        assert np.max(np.abs(diff)) <= 1e-12


class TestConfigValidation:
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_rejected(self, x):
        with pytest.raises(ValueError, match="finite"):
            OptimizerConfig(value_tolerance=x)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
            OptimizerConfig(seed=-1)

    @pytest.mark.parametrize("name", ["seed", "restarts", "max_iterations"])
    def test_non_integer_counts_rejected(self, name):
        with pytest.raises(TypeError, match=rf"^{name} must be an integer, got 2.5$"):
            OptimizerConfig(**{name: 2.5})

    @pytest.mark.parametrize("x", ["1e-7", True, None])
    def test_non_number_tolerance_rejected(self, x):
        with pytest.raises(TypeError, match="^value_tolerance must be a real number"):
            OptimizerConfig(value_tolerance=x)

    def test_integer_like_counts_become_ints(self):
        cfg = OptimizerConfig(seed=np.int64(3), restarts=np.uint8(2), max_iterations=np.int32(5),
                              value_tolerance=np.float32(1e-3))
        assert (cfg.seed, cfg.restarts, cfg.max_iterations) == (3, 2, 5)
        assert all(type(v) is int for v in (cfg.seed, cfg.restarts, cfg.max_iterations))
