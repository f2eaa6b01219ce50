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
from hybridcap import hybrid
from hybridcap.capacity import (
    StepSchedule,
    _ba_fixed_point,
    _cond_rows,
    _multistart,
    _project_pure_feasible,
    _state_from_factors,
)
from hybridcap.errors import InfeasibleEnergy

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

    @pytest.mark.parametrize("solver", [classical_capacity, ea_capacity])
    def test_restart_and_round_counts(self, solver):
        M = random_povm(np.random.default_rng(7), 2, 3)
        cfg = OptimizerConfig(seed=0, restarts=3, max_iterations=15,
                              step_schedule=StepSchedule(0.3, 0.4))
        res = solver(M, cfg=cfg)
        assert len(res.restart_values) == cfg.restarts
        assert cfg.restarts <= res.iterations_used <= cfg.restarts * cfg.max_iterations

    @pytest.mark.parametrize("solver", [classical_capacity, ea_capacity])
    def test_one_round_does_not_converge(self, solver):
        M = random_povm(np.random.default_rng(8), 2, 3)
        res = solver(M, cfg=OptimizerConfig(seed=0, restarts=2, max_iterations=1))
        assert not res.converged
        assert res.iterations_used == 2


class TestLockstepRestarts:
    """All restarts run in lockstep; none may see another."""

    CFG = dict(seed=3, max_iterations=40, value_tolerance=1e-5,
               step_schedule=StepSchedule(0.3, 0.4))

    @staticmethod
    def channel(kind):
        if kind == "commuting":
            return bsc_povm(0.8), None
        M = random_povm(np.random.default_rng(11), 2, 3)
        if kind == "constrained":
            return M, EnergyConstraint(np.diag([0.0, 1.0]), 0.3)
        return M, None

    @pytest.mark.parametrize("solver", [classical_capacity, ea_capacity])
    @pytest.mark.parametrize("kind", ["commuting", "non-commuting", "constrained"])
    def test_restarts_independent_of_their_number(self, solver, kind):
        M, c = self.channel(kind)
        # 8 (the CLI default): restarts accept at different offsets of one batch
        ks = (1, 2, 3, 8)
        runs = [solver(M, c, OptimizerConfig(restarts=k, **self.CFG)) for k in ks]
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
        # restart 0 has five equal states, so its weights stop moving at once
        # and it leaves the Blahut–Arimoto stack while the others go on
        psis[0] = psis[0, 0]
        proj = _project_pure_feasible(psis, F, 0.4, g)
        P = _cond_rows(proj, M)
        w = rng.dirichlet(np.ones(5), size=R)
        fixed = _ba_fixed_point(w, P)
        mi = hybrid._mutual_informations(w, P)
        factors = rng.standard_normal((R, 3, 3)) + 1j * rng.standard_normal((R, 3, 3))
        S = _state_from_factors(factors)
        er = hybrid._er_value(S, M)
        for r in range(R):
            for x in range(5):
                assert np.array_equal(proj[r, x], _project_pure_feasible(psis[r, x], F, 0.4, g))
            assert np.array_equal(P[r], _cond_rows(proj[r], M))
            assert np.array_equal(fixed[r], _ba_fixed_point(w[r:r + 1], P[r:r + 1])[0])
            assert mi[r] == hybrid.mutual_information_from_rows(w[r], P[r])
            assert np.array_equal(S[r], _state_from_factors(factors[r:r + 1])[0])
            assert er[r] == hybrid._er_value(S[r], M)

    def test_best_choice_keeps_lowest_restart_within_1e15(self):
        # sequential "> best + 1e-15" over r = 0..R-1: restart 1 ties with 0,
        # restart 2 beats 0, restart 3 ties with 2; argmax would pick 3
        values = np.array([0.5, 0.5 + 8e-16, 0.5 + 1.6e-15, 0.5 + 2.2e-15])

        def start():
            return (np.arange(4.0),), values.copy()

        def sweep(point, value, step):
            return point, value, np.zeros(len(value), dtype=bool)

        res = _multistart(OptimizerConfig(restarts=4, max_iterations=3), start, sweep, 1.0)
        assert res.argmax == (2.0,)
        assert res.value_bits == values[2]
        assert res.restart_values == tuple(values)
        assert res.iterations_used == 4 and res.converged


class TestOneAtATimeWalk:
    """Batched candidate scoring reproduces the one-at-a-time walk exactly."""

    # float.hex of restart_values, iterations_used, converged, as returned
    # when every candidate move was scored by its own call; the bits are
    # those of one NumPy/BLAS/LAPACK build
    GOLDEN = {
        ("classical", 1): (["0x1.8186827a92436p-4"], 40, False),
        ("classical", 3): (["0x1.8186827a92436p-4", "0x1.8186827a93ac3p-4",
                            "0x1.8186827a5fb82p-4"], 120, False),
        ("classical-constrained", 1): (["0x1.26eb9c063f956p-4"], 39, True),
        ("classical-constrained", 3): (["0x1.26eb9c063f956p-4", "0x1.26eb54af04c02p-4",
                                        "0x1.26eb9c062a2f9p-4"], 119, True),
        ("ea", 1): (["0x1.bb55cdff4c93dp-1"], 12, False),
        ("ea", 3): (["0x1.bb55cdff4c93dp-1", "0x1.bb522e8064d7fp-1",
                     "0x1.bb563eabb5ee1p-1"], 36, False),
    }

    @pytest.mark.parametrize("name,restarts", sorted(GOLDEN))
    def test_results_match_one_at_a_time_walk_bit_for_bit(self, name, restarts):
        M2 = random_povm(np.random.default_rng(31), 2, 3)
        M3 = random_povm(np.random.default_rng(32), 3, 3)
        solver, M, c, iterations = {
            "classical": (classical_capacity, M2, None, 40),
            "classical-constrained": (classical_capacity, M2,
                                      EnergyConstraint(np.diag([0.0, 1.0]), 0.3), 40),
            "ea": (ea_capacity, M3, None, 12),
        }[name]
        res = solver(M, c, OptimizerConfig(seed=5, restarts=restarts, max_iterations=iterations))
        got = ([v.hex() for v in res.restart_values], res.iterations_used, res.converged)
        assert got == self.GOLDEN[name, restarts]


class TestConfigValidation:
    @pytest.mark.parametrize("make", [
        lambda x: OptimizerConfig(value_tolerance=x),
        lambda x: StepSchedule(x, 0.5),
    ], ids=["value_tolerance", "initial_step"])
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_rejected(self, make, x):
        with pytest.raises(ValueError, match="finite"):
            make(x)
