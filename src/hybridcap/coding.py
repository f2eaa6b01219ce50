"""Block coding over product measurement channels.

Codewords are product states; the decoder acts on classical outcome words
only.  Decoding is maximum likelihood with lowest-message-index tie
breaking; the erasure cell (message index 0) is kept in the partition
format but is never used by ML.

Outcome words are (count, n) arrays of outcome indices, sampled by inverse
CDF.  Monte Carlo ``average_error`` draws from one ``default_rng(seed)``;
``rate_experiment`` draws codebook b at block length n from the stream of
``default_rng([seed, n, b])``: its codewords (by inverse CDF of the weights,
the same numbers ``Generator.choice`` gave), then all its messages, then
their per-slot uniforms.  This layout replaced one generator per trial, so
Monte Carlo numbers differ from earlier versions; reruns with the same seed
stay identical.  The PCG64 states of a block length's codebooks are
computed in one vectorised pass (NumPy's SeedSequence hash and PCG64
seeding step, which NEP 19 keeps fixed) and set in turn on one generator;
a test pins them to ``default_rng``'s.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EnumerationTooLarge
from .hybrid import Ensemble, FinitePOVM, OutcomeDistribution, outcome_probs

# exact enumeration guard: n * log2(m) <= 20, i.e. at most ~1e6 outcome words
_ENUM_BITS = 20
# rate_experiment decodes codebooks in groups of at most ~this many (codeword, trial) pairs
_GROUP_BUDGET = 1 << 15
# NumPy's SeedSequence hash (pool of 4 uint32 words) and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass(frozen=True)
class Codebook:
    """N product-state codewords of block length n."""

    codewords: tuple  # N tuples of n DensityOperator

    def __post_init__(self):
        words = tuple(tuple(w) for w in self.codewords)
        if len(words) < 1 or len(words[0]) < 1:
            raise ValueError("codebook needs N >= 1 codewords of length n >= 1")
        if any(len(w) != len(words[0]) for w in words):
            raise ValueError("all codewords must share the block length")
        if len({s.dim for w in words for s in w}) != 1:
            raise DimensionMismatch("codeword slots have mixed dimensions")
        object.__setattr__(self, "codewords", words)

    @property
    def n(self) -> int:
        return len(self.codewords[0])

    @property
    def N(self) -> int:
        return len(self.codewords)


@dataclass(frozen=True)
class DecoderPartition:
    """Map from outcome words (label tuples) to message index; 0 is erasure."""

    assignment: dict

    def decode(self, word) -> int:
        return self.assignment.get(tuple(word), 0)


def codeword_distribution(codeword, M: FinitePOVM):
    """Per-slot outcome distributions of a product codeword.

    The product over slots is the outcome law of the n-fold product
    observable; it is never materialized as a full m^n vector here.
    """
    return [OutcomeDistribution(outcome_probs(s.matrix, M)) for s in codeword]


def _slot_probs(book: Codebook, M: FinitePOVM) -> np.ndarray:
    """(N, n, m) conditional outcome probabilities of every codeword slot."""
    # per slot: one batched einsum rounds differently and would flip exact ML ties
    P = np.array([[outcome_probs(s.matrix, M) for s in w] for w in book.codewords])
    P[P < 0.0] = 0.0
    return P


def _all_words(n: int, m: int) -> np.ndarray:
    """(m^n, n) outcome index words in lexicographic order."""
    if n * math.log2(m) > _ENUM_BITS:
        raise EnumerationTooLarge(
            f"{m}^{n} outcome words exceed the exact-enumeration guard (2^{_ENUM_BITS})")
    return np.indices((m,) * n, dtype=np.min_scalar_type(m - 1)).reshape(n, -1).T


def _word_likelihoods(P: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(N, n_words) likelihood of each word under each codeword's product law.

    Multiplied slot by slot in slot order, so no (N, n_words, n) array is built.
    """
    lik = P[:, 0, words[:, 0]]
    for t in range(1, P.shape[1]):
        lik *= P[:, t, words[:, t]]
    return lik


def _label_words(M: FinitePOVM, words: np.ndarray):
    """Label tuples of (count, n) outcome index words, made 4096 words at a time."""
    labels = np.array(M.labels, dtype=object)
    return (w for k in range(0, len(words), 4096) for w in map(tuple, labels[words[k:k + 4096]]))


def _sample_words(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome index words by inverse CDF: slot t of a word takes the first
    outcome k with cdf[..., t, k] >= u[..., t], capped at m - 1."""
    return np.minimum((cdf < u[..., None]).sum(axis=-1), cdf.shape[-1] - 1)


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^i mod 2^32 for i = 0 .. count, as uint32."""
    return np.multiply.accumulate(np.array([init] + [mult] * count, np.uint32), dtype=np.uint32)


def _hashmix(v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of len(c) - 1 successive calls: call i mixes row i of
    v (broadcast against c) with hash constants c[i], c[i + 1]."""
    v = (v ^ c[:-1, None]) * c[1:, None]
    return v ^ (v >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two words."""
    r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return r ^ (r >> np.uint32(16))


def _codebook_states(seed: int, n: int, books: int) -> list:
    """``default_rng([seed, n, b]).bit_generator.state`` for b < books, computed
    as one uint32 array pass over the books instead of one SeedSequence each."""
    # the entropy: each int as its little-endian 32-bit words, one column per book
    head = [k >> s & _MASK32 for k in map(operator.index, (seed, n))
            for s in range(0, max(k.bit_length(), 1), 32)]
    ent = np.empty((len(head) + 1, books), dtype=np.uint32)
    ent[:-1] = np.array(head, dtype=np.uint32)[:, None]
    ent[-1] = np.arange(books)
    # mix_entropy: 4 + 12 hashmix calls, then 4 per entropy word past the pool of 4
    c = _hash_consts(_INIT_A, _MULT_A, 4 * max(len(ent), 4))
    pool = np.zeros((4, books), dtype=np.uint32)
    pool[:len(ent)] = ent[:4]
    pool = _hashmix(pool, c[:5])
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], c[4 + 3 * src:8 + 3 * src]))
    for src in range(4, len(ent)):
        pool = _mix(pool, _hashmix(ent[src], c[4 * src:4 * src + 5]))
    # generate_state(4, uint64): word pairs, low word first, give initstate (high,
    # low) and initseq (high, low); then PCG64's two-step seeding from them
    w = _hashmix(np.concatenate((pool, pool)), _hash_consts(_INIT_B, _MULT_B, 8))
    w = w.astype(np.uint64)
    states = []
    for hi, lo, seq_hi, seq_lo in (w[0::2] | w[1::2] << np.uint64(32)).T.tolist():
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = (((hi << 64 | lo) + inc) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def ml_partition(book: Codebook, M: FinitePOVM) -> DecoderPartition:
    """Maximum-likelihood decoding partition over all outcome words.

    Ties go to the lowest message index.  Message indices are 1-based;
    index 0 (erasure) is retained in the format but never assigned.
    """
    words = _all_words(book.n, M.size)
    winners = np.argmax(_word_likelihoods(_slot_probs(book, M), words), axis=0) + 1
    return DecoderPartition(dict(zip(_label_words(M, words), winners.tolist())))


def average_error(book: Codebook, part: DecoderPartition, M: FinitePOVM,
                  mode: str = "exact", trials: int = 2000, seed: int = 0):
    """Average error probability of the code under the given partition.

    mode="exact" sums the outcome law over all words (returns a float);
    mode="monte_carlo" samples outcome words per uniformly drawn message
    and returns (estimate, 95% normal-approximation half-width).
    """
    P = _slot_probs(book, M)
    if mode == "monte_carlo":
        rng = np.random.default_rng(seed)
        j = rng.integers(book.N, size=trials)
        words = _sample_words(P.cumsum(axis=2)[j], rng.random((trials, book.n)))
        # decode each distinct word once, keyed by its base-m index; words too
        # long for an int64 index are each their own key
        key = (words @ M.size ** np.arange(book.n) if book.n * math.log2(M.size) < 63
               else np.arange(trials))
        _, first, inv = np.unique(key, return_index=True, return_inverse=True)
        decoded = np.array([part.decode(w) for w in _label_words(M, words[first])], dtype=int)[inv]
        est = int(np.count_nonzero(decoded != j + 1)) / trials
        return est, 1.96 * math.sqrt(est * (1.0 - est) / trials)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    words = _all_words(book.n, M.size)
    decoded = np.array([part.decode(w) for w in _label_words(M, words)], dtype=int)
    # erasures (0) and indices above N decode to no codeword: errors
    ok = np.flatnonzero((decoded >= 1) & (decoded <= book.N))
    lik = _word_likelihoods(P, words)
    return float(1.0 - lik[decoded[ok] - 1, ok].sum() / book.N)


@dataclass(frozen=True)
class RateExperimentResult:
    rate: float
    entries: tuple  # of dicts with n, N, error, half_width, trials


def rate_experiment(M: FinitePOVM, ensemble: Ensemble, R: float, n_list,
                    trials: int, seed: int) -> RateExperimentResult:
    """Random-coding Monte-Carlo error profile at rate R (bits/use).

    For each block length n, draws N = ceil(2^{nR}) codewords i.i.d. per
    slot from the ensemble, decodes every sampled outcome word by maximum
    likelihood, and estimates the average error.
    """
    if not R > 0.0:  # NaN fails every comparison
        raise ValueError("rate R must be positive")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    n_list = tuple(n_list)
    if min(n_list, default=1) < 1:
        raise ValueError(f"block lengths must be >= 1, got {min(n_list)}")
    for n in n_list:
        if n * R > _ENUM_BITS:
            raise ValueError(f"block length {n} at rate {R} needs 2^{n * R:g} codewords, "
                             f"more than the 2^{_ENUM_BITS} limit")
    member_rows = np.stack([outcome_probs(s.matrix, M) for s in ensemble.states])
    member_rows[member_rows < 0.0] = 0.0
    member_rows /= member_rows.sum(axis=1, keepdims=True)
    row_cdf = member_rows.cumsum(axis=1)
    with np.errstate(divide="ignore"):
        log_rows = np.log(member_rows)  # -inf on zero-probability outcomes is fine
    weight_cdf = ensemble.weights.cumsum()  # as Generator.choice(p=weights) forms it
    weight_cdf /= weight_cdf[-1]
    rng = np.random.default_rng(0)  # each codebook sets its own state below
    entries = []
    for n in n_list:
        N = math.ceil(2.0 ** (n * R))
        if N < 2:
            entries.append({"n": n, "N": N, "error": 0.0, "half_width": 0.0, "trials": 0})
            continue
        # average over several random codebooks so the estimate reflects the
        # random-coding ensemble, not a single (possibly lucky) draw; the
        # first trials % books codebooks run one extra trial each
        books = min(32, trials)
        per_book, extra = divmod(trials, books)
        c = per_book + (extra > 0)  # trials per book, the short ones padded
        group = max(1, _GROUP_BUDGET // (N * c))
        states = _codebook_states(seed, n, books)
        failures = 0
        for b0 in range(0, books, group):
            counts = per_book + (np.arange(b0, min(b0 + group, books)) < extra)
            G = len(counts)
            U = np.empty((G, N, n))
            j = np.zeros((G, c), dtype=np.int64)
            u = np.zeros((G, c, n))  # a book one trial short pads with message 0
            for g, cb in enumerate(counts.tolist()):
                rng.bit_generator.state = states[b0 + g]  # default_rng([seed, n, b0 + g])
                rng.random(out=U[g])
                j[g, :cb] = rng.integers(N, size=cb)
                rng.random(out=u[g, :cb])
            idx = weight_cdf.searchsorted(U, side="right")  # (G, N, n) members
            words = _sample_words(row_cdf[np.take_along_axis(idx, j[:, :, None], axis=1)], u)
            # (N, G * c) log-likelihoods, summed slot by slot: column g * c + k, book g's
            # trial k, reads book g's block of columns of the (N, G * m) slot rows
            cols = (words + M.size * np.arange(G)[:, None, None]).reshape(G * c, n)
            ll = log_rows[idx[:, :, 0].T].reshape(N, -1)[:, cols[:, 0]]
            for t in range(1, n):
                ll += log_rows[idx[:, :, t].T].reshape(N, -1)[:, cols[:, t]]
            wrong = np.argmax(ll, axis=0).reshape(G, c) != j
            failures += int(np.count_nonzero(wrong & (np.arange(c) < counts[:, None])))
        est = failures / trials
        half = 1.96 * math.sqrt(est * (1.0 - est) / trials)
        entries.append(
            {"n": int(n), "N": N, "error": est, "half_width": half, "trials": trials}
        )
    return RateExperimentResult(rate=float(R), entries=tuple(entries))
