import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import bsc_povm, ket, random_density, random_povm, z_povm
from hybridcap import (
    Codebook,
    DecoderPartition,
    DensityOperator,
    Ensemble,
    FinitePOVM,
    RateExperimentResult,
    average_error,
    codeword_distribution,
    measure,
    ml_partition,
    rate_experiment,
)
from hybridcap.coding import _all_words
from hybridcap.errors import DimensionMismatch, EnumerationTooLarge
from hybridcap.hybrid import outcome_probs


def three_outcome_povm():
    # rank-1 outer elements: ket(0) never gives "2" and ket(1) never gives "0"
    return FinitePOVM.from_pairs([
        ("0", np.diag([0.5, 0.0])), ("1", np.diag([0.5, 0.5])), ("2", np.diag([0.0, 0.5]))])


def per_book_rate_experiment(M, ensemble, R, n_list, trials, seed):
    """rate_experiment as one loop body per codebook, with its codewords drawn
    by Generator.choice and one generator per block length that the codebooks
    draw from in turn: the reference the stacked version must equal."""
    member_rows = np.stack([outcome_probs(s.matrix, M) for s in ensemble.states])
    member_rows[member_rows < 0.0] = 0.0
    member_rows /= member_rows.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        log_rows = np.log(member_rows)
    entries = []
    for n in n_list:
        N = math.ceil(2.0 ** (n * R))
        books = min(32, trials)
        per_book, extra = divmod(trials, books)
        failures = 0
        rng = np.random.default_rng([seed, n])
        for b in range(books):
            idx = rng.choice(len(ensemble.states), size=(N, n), p=ensemble.weights)
            P = member_rows[idx]
            j = rng.integers(N, size=per_book + (b < extra))
            u = rng.random((len(j), n))
            words = np.minimum((P[j].cumsum(axis=2) < u[:, :, None]).sum(axis=2), M.size - 1)
            L = log_rows[idx]
            ll = L[:, 0, words[:, 0]]
            for t in range(1, n):
                ll += L[:, t, words[:, t]]
            failures += int(np.count_nonzero(np.argmax(ll, axis=0) != j))
        est = failures / trials
        half = 1.96 * math.sqrt(est * (1.0 - est) / trials)
        entries.append({"n": int(n), "N": N, "error": est, "half_width": half, "trials": trials})
    return RateExperimentResult(rate=float(R), entries=tuple(entries))


def binary_book(n, states=None):
    s0, s1 = states if states else (ket(2, 0), ket(2, 1))
    return Codebook(((s0,) * n, (s1,) * n))


class TestCodewordDistribution:
    def test_single_slot_matches_measure(self):
        rng = np.random.default_rng(0)
        s = random_density(rng, 2)
        M = bsc_povm(0.75)
        dists = codeword_distribution([s], M)
        np.testing.assert_allclose(
            dists[0].probabilities, measure(s, M).probabilities
        )

    def test_deterministic_word(self):
        dists = codeword_distribution([ket(2, 0), ket(2, 0)], z_povm())
        for d in dists:
            np.testing.assert_allclose(d.probabilities, [1.0, 0.0], atol=1e-12)

    def test_product_probability(self):
        dists = codeword_distribution([ket(2, 0), ket(2, 1)], bsc_povm(0.75))
        p01 = dists[0].probabilities[0] * dists[1].probabilities[1]
        assert abs(p01 - 0.5625) <= 1e-12

    @pytest.mark.parametrize("call", [
        lambda book, M: codeword_distribution(book.codewords[0], M),
        ml_partition,
        lambda book, M: average_error(book, DecoderPartition({}), M),
        lambda book, M: average_error(book, DecoderPartition({}), M, mode="monte_carlo"),
    ])
    def test_codeword_dimension_must_match_povm(self, call):
        # qutrit codewords on a qubit POVM used to raise NumPy's broadcast text
        book = Codebook(((DensityOperator(np.eye(3) / 3),) * 2,))
        with pytest.raises(DimensionMismatch, match="dimension mismatch: 3 vs 2"):
            call(book, z_povm())


class TestWordEnumeration:
    @pytest.mark.parametrize("n, m", [(1, 2), (1, 4), (2, 3), (3, 2), (4, 3), (5, 2)])
    def test_all_words_lexicographic(self, n, m):
        words = _all_words(n, m)
        assert words.shape == (m**n, n)
        assert [tuple(w) for w in words.tolist()] == list(
            itertools.product(range(m), repeat=n)
        )


class TestCodebook:
    @pytest.mark.parametrize("words, exc, msg", [
        ((), ValueError, "codebook needs N >= 1 codewords of length n >= 1"),
        (((),), ValueError, "codebook needs N >= 1 codewords of length n >= 1"),
        (((ket(2, 0),), (ket(2, 0), ket(2, 1))), ValueError,
         "all codewords must share the block length"),
        (((ket(2, 0),), (ket(3, 0),)), DimensionMismatch,
         "codeword slots have mixed dimensions"),
    ])
    def test_rejected(self, words, exc, msg):
        with pytest.raises(exc) as info:
            Codebook(words)
        assert str(info.value) == msg


class TestMlPartition:
    def test_orthogonal_codewords(self):
        part = ml_partition(binary_book(1), z_povm())
        assert part.assignment == {("0",): 1, ("1",): 2}

    def test_identical_codewords_tie_break(self):
        book = Codebook(((ket(2, 0),), (ket(2, 0),)))
        part = ml_partition(book, z_povm())
        assert set(part.assignment.values()) == {1}

    def test_majority_vote(self):
        part = ml_partition(binary_book(3), bsc_povm(0.75))
        for word, msg in part.assignment.items():
            zeros = word.count("0")
            assert msg == (1 if zeros >= 2 else 2)

    def test_enumeration_guard(self):
        book = Codebook((tuple([ket(2, 0)] * 25),))
        with pytest.raises(EnumerationTooLarge):
            ml_partition(book, z_povm())

    def test_peak_memory_at_sixteen_slots(self):
        # the (N, 2^16) likelihood array is 4.2 MB; an (N, 2^16, n) gather
        # before the product would be 67 MB
        rng = np.random.default_rng(5)
        pool = (ket(2, 0), ket(2, 1), random_density(rng, 2))
        book = Codebook(tuple(
            tuple(pool[k] for k in rng.integers(3, size=16)) for _ in range(8)))
        M = bsc_povm(0.8)
        tracemalloc.start()
        try:
            part = ml_partition(book, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(part.assignment) == 2**16
        assert peak < 20e6


class TestAverageError:
    def test_perfect_code(self):
        book = binary_book(1)
        part = ml_partition(book, z_povm())
        assert average_error(book, part, z_povm()) == 0.0

    def test_identical_codewords_half(self):
        book = Codebook(((ket(2, 0),), (ket(2, 0),)))
        part = ml_partition(book, z_povm())
        assert abs(average_error(book, part, z_povm()) - 0.5) <= 1e-12

    def test_majority_binomial(self):
        book = binary_book(3)
        M = bsc_povm(0.75)
        part = ml_partition(book, M)
        expected = 1.0 - (0.75**3 + 3 * 0.75**2 * 0.25)
        assert abs(average_error(book, part, M) - expected) <= 1e-12

    def test_exact_vs_monte_carlo(self):
        book = binary_book(4)
        M = bsc_povm(0.75)
        part = ml_partition(book, M)
        exact = average_error(book, part, M)
        est, half = average_error(book, part, M, mode="monte_carlo",
                                  trials=2000, seed=0)
        assert abs(est - exact) <= 3 * half

    def test_unknown_mode_rejected(self):
        book = binary_book(1)
        with pytest.raises(ValueError, match="unknown mode 'sampled'"):
            average_error(book, ml_partition(book, z_povm()), z_povm(), mode="sampled")

    def test_monte_carlo_deterministic(self):
        book = binary_book(3)
        M = bsc_povm(0.75)
        part = ml_partition(book, M)
        a = average_error(book, part, M, mode="monte_carlo", trials=500, seed=7)
        b = average_error(book, part, M, mode="monte_carlo", trials=500, seed=7)
        assert a == b

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_ml_is_optimal_among_binary_partitions(self, m):
        # brute force over all assignments of single outcomes to 2 messages
        rng = np.random.default_rng(m)
        M = random_povm(rng, 2, m)
        book = Codebook(((random_density(rng, 2),), (random_density(rng, 2),)))
        ml_err = average_error(book, ml_partition(book, M), M)
        best = 1.0
        for bits in itertools.product((1, 2), repeat=m):
            part = DecoderPartition({(lab,): b for lab, b in zip(M.labels, bits)})
            best = min(best, average_error(book, part, M))
        assert ml_err <= best + 1e-12

    def test_exact_matches_per_word_sum_on_sparse_partition(self):
        rng = np.random.default_rng(31)
        n, m, N = 3, 3, 4
        M = random_povm(rng, 2, m)
        book = Codebook(tuple(
            tuple(random_density(rng, 2) for _ in range(n)) for _ in range(N)
        ))
        # missing words decode to erasure 0; some words get an index above N
        assignment = {}
        for word in itertools.product(M.labels, repeat=n):
            r = rng.random()
            if r < 0.6:
                assignment[word] = int(rng.integers(1, N + 1))
            elif r < 0.8:
                assignment[word] = N + 1 + int(rng.integers(2))
        part = DecoderPartition(assignment)
        correct = 0.0
        for word in itertools.product(range(m), repeat=n):
            j = part.decode(tuple(M.labels[k] for k in word))
            if 1 <= j <= N:
                correct += math.prod(
                    measure(s, M).probabilities[k]
                    for s, k in zip(book.codewords[j - 1], word)
                )
        assert abs(average_error(book, part, M) - (1.0 - correct / N)) <= 1e-12

    def test_monte_carlo_single_trial(self):
        book = binary_book(3)
        M = bsc_povm(0.75)
        part = ml_partition(book, M)
        for seed in range(5):
            est, half = average_error(book, part, M, mode="monte_carlo",
                                      trials=1, seed=seed)
            assert est in (0.0, 1.0)
            assert half == 0.0

    @pytest.mark.parametrize("n", [3, 70])
    def test_monte_carlo_matches_per_word_decode(self, n):
        # n = 3 keys words by their base-3 index; 3^70 does not fit in int64,
        # so there every word is its own key
        rng = np.random.default_rng(n)
        M = three_outcome_povm()
        states = (ket(2, 0), ket(2, 1), random_density(rng, 2))
        book = Codebook(tuple(tuple(states[k] for k in rng.integers(3, size=n))
                              for _ in range(3)))
        trials, seed = 600, 11
        draw = np.random.default_rng(seed)
        j = draw.integers(book.N, size=trials)
        u = draw.random((trials, n))
        sampled = []
        for k in range(trials):
            word = []
            for t, s in enumerate(book.codewords[j[k]]):
                cdf = np.cumsum(np.maximum(outcome_probs(s.matrix, M), 0.0))
                word.append(M.labels[min(int(np.count_nonzero(cdf < u[k, t])), M.size - 1)])
            sampled.append(tuple(word))
        # most sampled words get a message (some the right one), the rest erase
        part = DecoderPartition({w: int(rng.integers(0, 4)) for w in sorted(set(sampled))
                                 if rng.random() < 0.8})
        errors = sum(part.decode(w) != jk + 1 for w, jk in zip(sampled, j))
        assert 0 < errors < trials
        est, _ = average_error(book, part, M, mode="monte_carlo", trials=trials, seed=seed)
        assert est == errors / trials

    def test_monte_carlo_decodes_each_distinct_word_once(self):
        calls = []

        class CountingPartition(DecoderPartition):
            def decode(self, word):
                calls.append(tuple(word))
                return super().decode(word)

        book = binary_book(3)
        M = bsc_povm(0.75)
        part = CountingPartition(ml_partition(book, M).assignment)
        average_error(book, part, M, mode="monte_carlo", trials=1000, seed=2)
        assert len(calls) == len(set(calls)) <= 2**3

    def test_relabeling_invariance(self):
        M = bsc_povm(0.75)
        book = binary_book(2)
        part = ml_partition(book, M)
        err = average_error(book, part, M)
        # swap outcome order everywhere
        M2 = FinitePOVM.from_pairs(
            [("1", M.elements[1]), ("0", M.elements[0])]
        )
        part2 = DecoderPartition(
            {tuple(w): v for w, v in part.assignment.items()}
        )
        assert abs(average_error(book, part2, M2) - err) <= 1e-12


class TestRateExperiment:
    # (POVM, ensemble, R, block lengths, trials): one trial per codebook
    # (trials < 32), trials % 32 of 0, 1, 4 and 12, n = 1..8, members with
    # zero-probability outcomes, stacked groups split by the budget (N = 256
    # at n = 8, R = 1, 300 trials: groups of 12, 12 and 8 codebooks) and
    # N = 4096 codebooks that run one at a time
    PARITY_BANK = [
        ("z", "pair", 0.5, [1, 2, 3], 1),
        ("three", "mixed", 0.7, [1, 4, 8], 7),
        ("bsc", "mixed", 0.6, [2, 5, 7], 31),
        ("three", "pair", 0.4, [3, 6], 32),
        ("z", "pair", 1.0, [8, 4], 33),
        ("three", "mixed", 0.9, [2, 7], 100),
        ("bsc", "pair", 1.0, [8, 1], 300),
        ("three", "mixed", 1.0, [12], 300),
    ]

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("povm,members,R,n_list,trials", PARITY_BANK)
    def test_matches_per_book_reference(self, povm, members, R, n_list, trials, seed):
        M = {"z": z_povm(), "bsc": bsc_povm(0.8), "three": three_outcome_povm()}[povm]
        pair = (ket(2, 0), ket(2, 1))
        ens = (Ensemble([0.5, 0.5], pair) if members == "pair" else Ensemble(
            [0.2, 0.5, 0.3], pair + (random_density(np.random.default_rng(8), 2),)))
        args = (M, ens, R, n_list, trials, seed)
        assert rate_experiment(*args) == per_book_rate_experiment(*args)

    @pytest.mark.parametrize("seed, exc, msg", [
        (-1, ValueError, "seed must be a non-negative integer, got -1"),
        (1.5, TypeError, "integer"),
    ])
    def test_bad_seed_rejected(self, seed, exc, msg):
        # Monte Carlo average_error shares rate_experiment's check
        ens = Ensemble([0.5, 0.5], (ket(2, 0), ket(2, 1)))
        with pytest.raises(exc, match=msg):
            rate_experiment(z_povm(), ens, 0.5, [4], trials=10, seed=seed)
        book = binary_book(2)
        with pytest.raises(exc, match=msg):
            average_error(book, ml_partition(book, z_povm()), z_povm(),
                          mode="monte_carlo", trials=10, seed=seed)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(2**63)])
    def test_numpy_integer_seed(self, seed):
        ens = Ensemble([0.3, 0.7], (ket(2, 0), ket(2, 1)))
        args = (bsc_povm(0.8), ens, 0.6, [2, 5])
        res = rate_experiment(*args, trials=np.int64(40), seed=seed)
        assert res == per_book_rate_experiment(*args, trials=40, seed=int(seed))
        # NumPy integer inputs give plain Python numbers
        assert all(type(e[k]) is int for e in res.entries for k in ("n", "N", "trials"))
        assert all(type(e[k]) is float for e in res.entries for k in ("error", "half_width"))

    @pytest.mark.parametrize("R", [0.0, -1.0, float("nan")])
    def test_nonpositive_or_nan_rate_rejected(self, R):
        ens = Ensemble([0.5, 0.5], (ket(2, 0), ket(2, 1)))
        with pytest.raises(ValueError, match="rate R must be positive"):
            rate_experiment(z_povm(), ens, R, [4], trials=10, seed=0)

    def test_peak_memory_at_fourteen_slots(self):
        # N = 2^14 codewords: each codebook's (N, trials) block exceeds the
        # group budget, so it runs alone; the per-codebook loop this replaced
        # peaked at 10 MB here, and the bound is 25 % above that
        ens = Ensemble([0.5, 0.5], (ket(2, 0), ket(2, 1)))
        tracemalloc.start()
        try:
            res = rate_experiment(z_povm(), ens, 1.0, [14], trials=300, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.entries[0]["N"] == 2**14
        assert peak < 12.5e6

    def test_below_capacity_error_decays(self):
        ens = Ensemble([0.5, 0.5], (ket(2, 0), ket(2, 1)))
        res = rate_experiment(z_povm(), ens, 0.5, [2, 8], trials=2000, seed=0)
        errs = {e["n"]: e["error"] for e in res.entries}
        assert errs[8] < errs[2]

    def test_above_capacity_error_floor(self):
        ens = Ensemble([0.5, 0.5], (ket(2, 0), ket(2, 1)))
        res = rate_experiment(z_povm(), ens, 1.5, [8], trials=2000, seed=0)
        assert res.entries[0]["error"] >= 0.2

    def test_single_codeword_entry_is_exact(self):
        # 2^{nR} rounds to 1 at R = 1e-17: one codeword is always decoded
        # right, so the entry is exact and runs no trials
        ens = Ensemble([0.5, 0.5], (ket(2, 0), ket(2, 1)))
        res = rate_experiment(bsc_povm(0.8), ens, 1e-17, [1, 4], trials=10, seed=0)
        assert res.entries == tuple({"n": n, "N": 1, "error": 0.0, "half_width": 0.0,
                                     "trials": 0} for n in (1, 4))

    def test_tiny_rate_still_two_messages(self):
        # N = ceil(2^{nR}) = 2 at nR = 0.4 (it drops to 1 only where 2^{nR}
        # rounds to 1.0, as at R = 1e-17); the noiseless channel decodes a
        # distinct pair perfectly
        ens = Ensemble([0.5, 0.5], (ket(2, 0), ket(2, 1)))
        res = rate_experiment(z_povm(), ens, 0.1, [4], trials=128, seed=0)
        assert res.entries[0]["N"] == 2
        assert res.entries[0]["error"] <= 0.3

    def test_fano_floor(self):
        # R > C = 1: measured error >= 1 - C/R - 1/(nR) - 3 half-widths
        ens = Ensemble([0.5, 0.5], (ket(2, 0), ket(2, 1)))
        R, n = 1.5, 8
        res = rate_experiment(z_povm(), ens, R, [n], trials=2000, seed=0)
        e = res.entries[0]
        floor = 1.0 - 1.0 / R - 1.0 / (n * R) - 3 * e["half_width"]
        assert e["error"] >= floor

    def test_exact_trial_count(self):
        # 100 trials over 32 codebooks: the first 4 run one extra trial
        ens = Ensemble([0.5, 0.5], (ket(2, 0), ket(2, 1)))
        res = rate_experiment(z_povm(), ens, 0.5, [2, 4, 6], trials=100, seed=0)
        assert [e["trials"] for e in res.entries] == [100, 100, 100]

    @pytest.mark.parametrize("trials, exc, msg", [
        (0, ValueError, "trials must be at least 1, got 0"),
        (-3, ValueError, "trials must be at least 1, got -3"),
        (2.5, TypeError, "integer"),
    ])
    def test_zero_trials_rejected(self, trials, exc, msg):
        # Monte Carlo average_error shares rate_experiment's check
        ens = Ensemble([0.5, 0.5], (ket(2, 0), ket(2, 1)))
        with pytest.raises(exc, match=msg):
            rate_experiment(z_povm(), ens, 0.5, [4], trials=trials, seed=0)
        book = binary_book(2)
        with pytest.raises(exc, match=msg):
            average_error(book, ml_partition(book, z_povm()), z_povm(),
                          mode="monte_carlo", trials=trials, seed=0)

    @pytest.mark.parametrize("n", [0, -2])
    def test_nonpositive_block_length_rejected(self, n):
        ens = Ensemble([0.5, 0.5], (ket(2, 0), ket(2, 1)))
        with pytest.raises(ValueError, match="block lengths must be >= 1"):
            rate_experiment(z_povm(), ens, 0.5, [2, n], trials=10, seed=0)

    def test_non_integer_block_length_rejected(self):
        ens = Ensemble([0.5, 0.5], (ket(2, 0), ket(2, 1)))
        with pytest.raises(TypeError, match="interpreted as an integer"):
            rate_experiment(z_povm(), ens, 0.5, [2, 2.5], trials=10, seed=0)

    def test_codebook_size_guard(self):
        # N = 2^30 codewords at n = 30, R = 1; the guard allows N up to 2^20
        ens = Ensemble([0.5, 0.5], (ket(2, 0), ket(2, 1)))
        with pytest.raises(ValueError, match="2\\^30 codewords"):
            rate_experiment(z_povm(), ens, 1.0, [4, 30], trials=10, seed=0)

    def test_state_dimension_must_match_povm(self):
        # used to raise NumPy's broadcast text
        ens = Ensemble([1.0], (DensityOperator(np.eye(3) / 3),))
        with pytest.raises(DimensionMismatch, match="dimension mismatch: 3 vs 2"):
            rate_experiment(z_povm(), ens, 0.5, [2], trials=4, seed=0)

    def test_same_seed_identical(self):
        ens = Ensemble([0.3, 0.7], (ket(2, 0), ket(2, 1)))
        args = (bsc_povm(0.8), ens, 0.6, [2, 5, 7])
        a = rate_experiment(*args, trials=150, seed=4)
        b = rate_experiment(*args, trials=150, seed=4)
        assert a == b

    def test_entries_independent_of_block_length_order(self):
        # each block length draws from its own default_rng([seed, n]), not by position
        ens = Ensemble([0.3, 0.7], (ket(2, 0), ket(2, 1)))
        M = bsc_povm(0.8)
        fwd = rate_experiment(M, ens, 0.6, [2, 5, 7], trials=150, seed=4)
        rev = rate_experiment(M, ens, 0.6, [7, 2, 5], trials=150, seed=4)
        assert {e["n"]: e for e in fwd.entries} == {e["n"]: e for e in rev.entries}
