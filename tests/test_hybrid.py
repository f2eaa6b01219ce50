import math
import warnings

import numpy as np
import pytest

from conftest import (
    _complete,
    bsc_povm,
    ket,
    random_density,
    random_ensemble,
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
    HybridState,
    OutcomeDistribution,
    average_state,
    chi_cq,
    energy_ok,
    entropy_reduction,
    hybrid_entropy,
    hybrid_relative_entropy,
    matrix_sqrt_psd,
    measure,
    mutual_information,
    posterior,
    relative_entropy_q,
    shannon_entropy,
    vn_entropy,
)
from hybridcap.errors import (
    DimensionMismatch,
    LabelMismatch,
    NegativeEigenvalue,
    NonHermitianInput,
    ZeroProbabilityOutcome,
)
from hybridcap import hybrid
from hybridcap.hybrid import outcome_probs, posterior_entropies

H2_QUARTER = 0.8112781244591328  # binary entropy of 1/4


def binary_entropy(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestMeasure:
    def test_maximally_mixed_projective(self):
        dist = measure(DensityOperator(np.eye(2) / 2), z_povm())
        np.testing.assert_allclose(dist.probabilities, [0.5, 0.5], atol=1e-12)

    def test_basis_state(self):
        dist = measure(ket(2, 0), z_povm())
        np.testing.assert_allclose(dist.probabilities, [1.0, 0.0], atol=1e-12)

    def test_trine(self):
        dist = measure(ket(2, 0), trine_povm())
        np.testing.assert_allclose(
            dist.probabilities, [2 / 3, 1 / 6, 1 / 6], atol=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            measure(ket(3, 0), z_povm())

    @pytest.mark.parametrize("seed", range(8))
    def test_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        d, m = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        dist = measure(random_density(rng, d), random_povm(rng, d, m))
        assert abs(dist.probabilities.sum() - 1.0) <= 1e-9


class TestPosterior:
    def test_rank1_element_gives_pure_posterior(self):
        rng = np.random.default_rng(0)
        S = random_density(rng, 3)
        M = random_rank1_povm(rng, 3, 4)
        for k in range(M.size):
            assert vn_entropy(posterior(S, M, k)) <= 1e-9

    def test_rank1_helper_needs_m_at_least_d(self):
        with pytest.raises(ValueError, match="needs m >= 3"):
            random_rank1_povm(np.random.default_rng(0), 3, 2)

    def test_trivial_povm_preserves_spectrum(self):
        rng = np.random.default_rng(1)
        S = random_density(rng, 3)
        M = FinitePOVM.from_pairs([("all", np.eye(3))])
        post = posterior(S, M, 0)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(post.matrix),
            np.linalg.eigvalsh(S.matrix),
            atol=1e-9,
        )

    def test_diagonal_example(self):
        M = bsc_povm(0.75)
        post = posterior(DensityOperator(np.eye(2) / 2), M, 0)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(post.matrix)), [0.25, 0.75], atol=1e-9
        )

    def test_zero_probability_outcome(self):
        with pytest.raises(ZeroProbabilityOutcome):
            posterior(ket(2, 0), z_povm(), 1)

    @pytest.mark.parametrize("seed", range(10))
    def test_invariance_vs_sqrt_route(self, seed):
        # spectrum of the posterior equals that of sqrt(S) M_w sqrt(S) / p
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        S = random_density(rng, d)
        M = random_povm(rng, d, 3)
        root = matrix_sqrt_psd(S.matrix)
        dist = measure(S, M)
        for k in range(M.size):
            p = dist.probabilities[k]
            if p <= 1e-12:
                continue
            direct = vn_entropy(posterior(S, M, k))
            w = np.linalg.eigvalsh(root @ M.elements[k] @ root) / p
            w = w[w > 1e-12]
            assert abs(direct + float(np.sum(w * np.log2(w)))) <= 1e-9


class TestEntropies:
    def test_pure_state_entropy_zero(self):
        assert vn_entropy(ket(2, 0)) == 0.0

    def test_maximally_mixed(self):
        assert abs(vn_entropy(DensityOperator(np.eye(2) / 2)) - 1.0) <= 1e-12

    def test_diag_075(self):
        s = DensityOperator(np.diag([0.75, 0.25]))
        assert abs(vn_entropy(s) - H2_QUARTER) <= 1e-9

    def test_shannon_point_mass(self):
        assert shannon_entropy(OutcomeDistribution(np.array([1.0, 0.0]))) == 0.0

    def test_shannon_uniform(self):
        assert abs(shannon_entropy(OutcomeDistribution(np.full(4, 0.25))) - 2.0) <= 1e-12

    def test_shannon_trine_stats(self):
        d = OutcomeDistribution(np.array([2 / 3, 1 / 6, 1 / 6]))
        expected = (2 / 3) * math.log2(3 / 2) + (1 / 3) * math.log2(6.0)
        assert abs(shannon_entropy(d) - expected) <= 1e-12
        assert abs(expected - 1.251629) <= 1e-6


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rng = np.random.default_rng(2)
        s = random_density(rng, 3)
        assert abs(relative_entropy_q(s, s)) <= 1e-9

    def test_pure_vs_mixed(self):
        val = relative_entropy_q(ket(2, 0), DensityOperator(np.eye(2) / 2))
        assert abs(val - 1.0) <= 1e-9

    def test_support_violation(self):
        val = relative_entropy_q(DensityOperator(np.eye(2) / 2), ket(2, 0))
        assert math.isinf(val)

    @pytest.mark.parametrize("seed", range(6))
    def test_nonnegative_and_faithful(self, seed):
        rng = np.random.default_rng(seed)
        s1, s2 = random_density(rng, 3), random_density(rng, 3)
        assert relative_entropy_q(s1, s2) >= 0.0


class TestHybridEntropy:
    def test_single_pure_block(self):
        hs = HybridState(("a",), (np.diag([1.0, 0.0]).astype(complex),))
        assert abs(hybrid_entropy(hs)) <= 1e-12

    def test_constant_quantum_part(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        hs = HybridState(("a", "b"), (0.3 * rho, 0.7 * rho))
        expected = binary_entropy(0.3) + H2_QUARTER
        assert abs(hybrid_entropy(hs) - expected) <= 1e-9

    def test_two_block_example(self):
        hs = HybridState(
            ("a", "b"),
            (np.diag([0.375, 0.125]).astype(complex),
             np.diag([0.125, 0.375]).astype(complex)),
        )
        assert abs(hybrid_entropy(hs) - (1.0 + H2_QUARTER)) <= 1e-9

    def test_blockwise_identity(self):
        # H_c(p) + sum p H_q equals the direct blockwise -Tr T log T form
        rng = np.random.default_rng(5)
        blocks = []
        for _ in range(3):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            blocks.append(g @ g.conj().T)
        total = sum(float(np.real(np.trace(b))) for b in blocks)
        blocks = tuple(b / total for b in blocks)
        hs = HybridState(("a", "b", "c"), blocks)
        direct = 0.0
        for b in blocks:
            w = np.linalg.eigvalsh(b)
            w = w[w > 1e-12]
            direct -= float(np.sum(w * np.log2(w)))
        assert abs(hybrid_entropy(hs) - direct) <= 1e-9


class TestHybridRelativeEntropy:
    def test_self_zero(self):
        hs = HybridState(
            ("a", "b"), (0.5 * np.eye(2, dtype=complex) / 2,) * 2
        )
        assert abs(hybrid_relative_entropy(hs, hs)) <= 1e-9

    def test_classical_reduction(self):
        p, q = [0.7, 0.3], [0.4, 0.6]
        hp = HybridState(("a", "b"), tuple(np.array([[w]], dtype=complex) for w in p))
        hq = HybridState(("a", "b"), tuple(np.array([[w]], dtype=complex) for w in q))
        kl = sum(w * math.log2(w / v) for w, v in zip(p, q))
        assert abs(hybrid_relative_entropy(hp, hq) - kl) <= 1e-9

    def test_quantum_blocks(self):
        b1 = (0.5 * np.diag([1.0, 0.0]).astype(complex),) * 2
        b2 = (0.5 * np.eye(2, dtype=complex) / 2,) * 2
        h1 = HybridState(("a", "b"), b1)
        h2 = HybridState(("a", "b"), b2)
        assert abs(hybrid_relative_entropy(h1, h2) - 1.0) <= 1e-9

    def test_label_mismatch(self):
        h1 = HybridState(("a",), (np.eye(2, dtype=complex) / 2,))
        h2 = HybridState(("b",), (np.eye(2, dtype=complex) / 2,))
        with pytest.raises(LabelMismatch):
            hybrid_relative_entropy(h1, h2)


class TestMutualInformation:
    def test_single_member(self):
        rng = np.random.default_rng(0)
        ens = Ensemble([1.0], (random_density(rng, 2),))
        assert abs(mutual_information(ens, z_povm())) <= 1e-12

    def test_noiseless_binary(self):
        ens = Ensemble([0.5, 0.5], (ket(2, 0), ket(2, 1)))
        assert abs(mutual_information(ens, z_povm()) - 1.0) <= 1e-12

    def test_binary_symmetric_channel(self):
        ens = Ensemble([0.5, 0.5], (ket(2, 0), ket(2, 1)))
        val = mutual_information(ens, bsc_povm(0.75))
        assert abs(val - (1.0 - H2_QUARTER)) <= 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        ens = random_ensemble(rng, d, int(rng.integers(2, 5)))
        M = random_povm(rng, d, 3)
        val = mutual_information(ens, M)
        hw = -float(np.sum(ens.weights * np.log2(ens.weights)))
        assert -1e-9 <= val <= hw + 1e-9

    def test_member_split_invariance(self):
        rng = np.random.default_rng(9)
        M = random_povm(rng, 2, 3)
        s1, s2 = random_density(rng, 2), random_density(rng, 2)
        base = Ensemble([0.6, 0.4], (s1, s2))
        split = Ensemble([0.3, 0.3, 0.4], (s1, s1, s2))
        assert abs(
            mutual_information(base, M) - mutual_information(split, M)
        ) <= 1e-9


class TestChiCq:
    def test_identical_members(self):
        hs = HybridState(("a", "b"), (0.5 * np.eye(2, dtype=complex) / 2,) * 2)
        assert abs(chi_cq([0.5, 0.5], [hs, hs])) <= 1e-9

    def test_distinguishable_classical(self):
        h1 = HybridState(("a", "b"), (np.array([[1.0]], dtype=complex),
                                      np.array([[0.0]], dtype=complex)))
        h2 = HybridState(("a", "b"), (np.array([[0.0]], dtype=complex),
                                      np.array([[1.0]], dtype=complex)))
        assert abs(chi_cq([0.5, 0.5], [h1, h2]) - 1.0) <= 1e-9

    def test_equals_mutual_information_for_trivial_b(self):
        M = bsc_povm(0.75)
        rng = np.random.default_rng(4)
        s1, s2 = random_density(rng, 2), random_density(rng, 2)
        ens = Ensemble([0.35, 0.65], (s1, s2))
        hybrids = []
        for s in (s1, s2):
            probs = measure(s, M).probabilities
            hybrids.append(
                HybridState(M.labels, tuple(np.array([[p]], dtype=complex)
                                            for p in probs))
            )
        assert abs(
            chi_cq(ens.weights, hybrids) - mutual_information(ens, M)
        ) <= 1e-9


class TestEntropyReduction:
    def test_rank1_povm_gives_full_entropy(self):
        rng = np.random.default_rng(6)
        S = random_density(rng, 3)
        M = random_rank1_povm(rng, 3, 5)
        assert abs(entropy_reduction(S, M) - vn_entropy(S)) <= 1e-9

    def test_trivial_povm(self):
        rng = np.random.default_rng(7)
        S = random_density(rng, 3)
        M = FinitePOVM.from_pairs([("all", np.eye(3))])
        assert abs(entropy_reduction(S, M)) <= 1e-9

    def test_bsc_example(self):
        val = entropy_reduction(DensityOperator(np.eye(2) / 2), bsc_povm(0.75))
        assert abs(val - (1.0 - H2_QUARTER)) <= 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_bounded_by_state_entropy(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        S = random_density(rng, d)
        M = random_povm(rng, d, 3)
        assert entropy_reduction(S, M) <= vn_entropy(S) + 1e-9

    @pytest.mark.parametrize("seed", range(12))
    def test_dominates_mutual_information(self, seed):
        # finite form of the ensemble bound: I(pi, M) <= ER(avg state, M)
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        ens = random_ensemble(rng, d, int(rng.integers(2, 5)))
        M = random_povm(rng, d, 3)
        assert mutual_information(ens, M) <= (
            entropy_reduction(average_state(ens), M) + 1e-9
        )


def povm_with_ranks(rng, d, ranks):
    mats = []
    for r in ranks:
        g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        mats.append(g @ g.conj().T)
    return FinitePOVM.from_pairs(
        [(str(k), A) for k, A in enumerate(_complete(mats))]
    )


def explicit_entropy(S, M, k):
    w = np.linalg.eigvalsh(posterior(S, M, k).matrix)
    w = w[w > 1e-12]
    return float(-np.sum(w * np.log2(w)))


class TestPosteriorEntropies:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_explicit_posteriors(self, seed):
        # rank-deficient elements pad their kernels with zero columns
        rng = np.random.default_rng([70, seed])
        d = int(rng.integers(3, 5))
        M = povm_with_ranks(rng, d, [1, 2, d, d - 1])
        S = random_density(rng, d)
        probs, ents = posterior_entropies(S.matrix, M)
        np.testing.assert_allclose(
            probs, [np.real(np.trace(S.matrix @ e)) for e in M.elements], atol=1e-12
        )
        for k in range(M.size):
            assert abs(ents[k] - explicit_entropy(S, M, k)) <= 1e-10

    def test_zero_probability_outcome_has_zero_entropy(self):
        M = FinitePOVM.from_pairs(
            [("a", np.diag([1.0, 0.0, 0.0])), ("b", np.diag([0.0, 1.0, 1.0]))]
        )
        S = DensityOperator(np.diag([0.0, 0.5, 0.5]))
        with np.errstate(divide="raise", invalid="raise"):
            probs, ents = posterior_entropies(S.matrix, M)
        np.testing.assert_allclose(probs, [0.0, 1.0], atol=1e-15)
        assert ents[0] == 0.0
        assert abs(ents[1] - 1.0) <= 1e-10
        assert abs(ents[1] - explicit_entropy(S, M, 1)) <= 1e-10


class TestPosteriorGramStacks:
    """Stacks of states: every entry gets the bits of its own single call."""

    @pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4)])
    def test_stack_matches_single_calls_bit_for_bit(self, shape):
        rng = np.random.default_rng([71, len(shape)])
        for d, m in ((2, 2), (2, 4), (3, 3), (3, 4)):
            M = random_povm(rng, d, m)
            g = rng.standard_normal(shape + (d, d)) + 1j * rng.standard_normal(shape + (d, d))
            S = g @ np.swapaxes(g.conj(), -1, -2)
            S /= np.trace(S, axis1=-2, axis2=-1).real[..., None, None]
            probs, grams = hybrid._posterior_grams(S, M)
            er = hybrid._er_value(S, M)
            assert probs.shape == shape + (m,) and grams.shape == shape + (m, d, d)
            for idx in np.ndindex(*shape):
                assert np.array_equal(probs[idx], outcome_probs(S[idx], M))
                assert np.array_equal(grams[idx], hybrid._posterior_grams(S[idx], M)[1])
                assert er[idx] == hybrid._er_value(S[idx], M)


class TestValidation:
    """Constructor errors: type, message, and which fault is reported first."""

    @pytest.mark.parametrize("build, exc, msg", [
        (lambda: DensityOperator(np.diag([1.5, -0.5])), NegativeEigenvalue,
         "state eigenvalue -5.000e-01 below -1e-9"),
        (lambda: DensityOperator(np.array([[2.0, 1.0], [0.0, 0.0]])),
         NonHermitianInput, "density operator is not Hermitian within 1e-8"),
        (lambda: DensityOperator(np.diag([2.0, -1.5])), ValueError,
         "trace 0.5 deviates from 1 by more than 1e-9"),
        (lambda: FinitePOVM.from_pairs([
            ("a", np.diag([1.2, 0.5])), ("b", np.diag([-0.2, 0.5]))]),
         NegativeEigenvalue, "POVM element b eigenvalue -2.000e-01 below -1e-9"),
        (lambda: FinitePOVM.from_pairs([
            ("a", np.diag([-0.2, 0.5])), ("b", np.array([[1.2, 1.0], [0.0, 0.5]]))]),
         NegativeEigenvalue, "POVM element a eigenvalue -2.000e-01 below -1e-9"),
        (lambda: FinitePOVM.from_pairs([
            ("a", np.diag([1.2, 0.5])), ("b", np.array([[-0.2, 1.0], [0.0, 0.5]]))]),
         NonHermitianInput, "POVM element b is not Hermitian"),
        (lambda: HybridState(("x", "y"), (np.array([[0.5]]), np.diag([0.6, -0.1]))),
         NegativeEigenvalue, "block y eigenvalue below -1e-9"),
        (lambda: HybridState(("x", "y"), (np.array([[0.5, 1.0], [0.0, 0.0]]),
                                          np.diag([0.6, -0.1]))),
         NonHermitianInput, "block x is not Hermitian"),
        (lambda: HybridState(("x", "y"), (np.array([[0.5]]), np.diag([0.3, 0.1]))),
         ValueError, "total trace 0.9 deviates from 1"),
        (lambda: EnergyConstraint(np.diag([1.0, -1.0]), -1.0), NegativeEigenvalue,
         "constraint operator F has eigenvalue below -1e-9"),
        (lambda: EnergyConstraint(np.array([[1.0, 1.0], [0.0, 1.0]]), 1.0),
         NonHermitianInput, "constraint operator F is not Hermitian"),
    ])
    def test_error_and_message(self, build, exc, msg):
        with pytest.raises(exc) as info:
            build()
        assert str(info.value) == msg

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("build, msg", [
        (lambda x: DensityOperator(np.array([[x, 0.0], [0.0, 1.0]])),
         "density operator has non-finite entries"),
        (lambda x: FinitePOVM.from_pairs([
            ("a", np.diag([1.0, 0.0])), ("b", np.array([[0.0, 0.0], [1j * x, 1.0]]))]),
         "POVM element b has non-finite entries"),
        (lambda x: HybridState(("x", "y"), (np.array([[0.5]]), np.diag([x, 0.5]))),
         "block y has non-finite entries"),
        (lambda x: EnergyConstraint(np.diag([0.0, x]), 1.0),
         "constraint operator F has non-finite entries"),
    ])
    def test_non_finite_entries(self, build, msg, bad):
        # reported as non-finite, not as non-Hermitian, and without warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                build(bad)
        assert type(info.value) is ValueError
        assert str(info.value) == msg

    def test_mixed_block_dimensions_accepted(self):
        hs = HybridState(("x", "y"), (np.array([[0.5]]), np.diag([0.3, 0.2])))
        np.testing.assert_allclose(hs.weights(), [0.5, 0.5])


class TestAverageStateAndEnergy:
    def test_single_member(self):
        rng = np.random.default_rng(8)
        s = random_density(rng, 2)
        np.testing.assert_allclose(
            average_state(Ensemble([1.0], (s,))).matrix, s.matrix
        )

    def test_uniform_basis(self):
        ens = Ensemble([0.5, 0.5], (ket(2, 0), ket(2, 1)))
        np.testing.assert_allclose(
            average_state(ens).matrix, np.eye(2) / 2, atol=1e-12
        )

    def test_weighted(self):
        ens = Ensemble([0.75, 0.25], (ket(2, 0), ket(2, 1)))
        np.testing.assert_allclose(
            average_state(ens).matrix, np.diag([0.75, 0.25]), atol=1e-12
        )

    def test_energy_ok(self):
        c = EnergyConstraint(np.diag([0.0, 1.0]), 0.0)
        val, ok = energy_ok(ket(2, 0), c)
        assert val == 0.0 and ok
        c = EnergyConstraint(np.diag([0.0, 1.0]), 0.25)
        val, ok = energy_ok(DensityOperator(np.eye(2) / 2), c)
        assert abs(val - 0.5) <= 1e-12 and not ok
        val, ok = energy_ok(DensityOperator(np.diag([0.75, 0.25])), c)
        assert abs(val - 0.25) <= 1e-12 and ok
