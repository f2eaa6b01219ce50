"""Block coding over product measurement channels.

Codewords are product states; the decoder acts on classical outcome words
only.  Decoding is maximum likelihood with lowest-message-index tie
breaking; the erasure cell (message index 0) is kept in the partition
format but is never used by ML.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EnumerationTooLarge
from .hybrid import DensityOperator, Ensemble, FinitePOVM, OutcomeDistribution, outcome_probs

# exact enumeration guard: n * log2(m) <= 20, i.e. at most ~1e6 outcome words
_ENUM_BITS = 20


@dataclass(frozen=True)
class Codebook:
    """N product-state codewords of block length n."""

    codewords: tuple  # N tuples of n DensityOperator

    def __post_init__(self):
        words = tuple(tuple(w) for w in self.codewords)
        if len(words) < 1 or len(words[0]) < 1:
            raise ValueError("codebook needs N >= 1 codewords of length n >= 1")
        n = len(words[0])
        dims = set()
        for w in words:
            if len(w) != n:
                raise ValueError("all codewords must share the block length")
            dims.update(s.dim for s in w)
        if len(dims) != 1:
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
    return [
        OutcomeDistribution(outcome_probs(s.matrix, M)) for s in codeword
    ]


def _slot_probs(book: Codebook, M: FinitePOVM) -> np.ndarray:
    """(N, n, m) conditional outcome probabilities of every codeword slot."""
    P = np.empty((book.N, book.n, M.size))
    for i, word in enumerate(book.codewords):
        for t, s in enumerate(word):
            row = outcome_probs(s.matrix, M)
            row[row < 0.0] = 0.0
            P[i, t] = row
    return P


def _check_enumerable(n: int, m: int):
    if n * math.log2(m) > _ENUM_BITS:
        raise EnumerationTooLarge(
            f"{m}^{n} outcome words exceed the exact-enumeration guard (2^{_ENUM_BITS})"
        )


def _all_words(n: int, m: int) -> np.ndarray:
    return np.array(list(itertools.product(range(m), repeat=n)), dtype=int)


def _word_likelihoods(P: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(N, n_words) likelihood of each word under each codeword's product law."""
    n = P.shape[1]
    # gather P[i, t, words[w, t]] and multiply over t
    factors = np.stack([P[:, t, words[:, t]] for t in range(n)], axis=0)
    return np.prod(factors, axis=0)


def ml_partition(book: Codebook, M: FinitePOVM) -> DecoderPartition:
    """Maximum-likelihood decoding partition over all outcome words.

    Ties go to the lowest message index.  Message indices are 1-based;
    index 0 (erasure) is retained in the format but never assigned.
    """
    _check_enumerable(book.n, M.size)
    P = _slot_probs(book, M)
    words = _all_words(book.n, M.size)
    lik = _word_likelihoods(P, words)  # (N, n_words)
    winners = np.argmax(lik, axis=0) + 1
    assignment = {
        tuple(M.labels[k] for k in words[w]): int(winners[w])
        for w in range(words.shape[0])
    }
    return DecoderPartition(assignment)


def average_error(book: Codebook, part: DecoderPartition, M: FinitePOVM,
                  mode: str = "exact", trials: int = 2000, seed: int = 0):
    """Average error probability of the code under the given partition.

    mode="exact" sums the outcome law over all words (returns a float);
    mode="monte_carlo" samples outcome words per uniformly drawn message
    and returns (estimate, 95% normal-approximation half-width).
    """
    P = _slot_probs(book, M)
    if mode == "exact":
        _check_enumerable(book.n, M.size)
        words = _all_words(book.n, M.size)
        lik = _word_likelihoods(P, words)
        correct = 0.0
        for w in range(words.shape[0]):
            j = part.decode(tuple(M.labels[k] for k in words[w]))
            if 1 <= j <= book.N:
                correct += lik[j - 1, w]
        return 1.0 - correct / book.N
    if mode != "monte_carlo":
        raise ValueError(f"unknown mode {mode!r}")
    failures = 0
    m = M.size
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        j = int(rng.integers(book.N))
        word = tuple(
            M.labels[rng.choice(m, p=P[j, slot] / P[j, slot].sum())]
            for slot in range(book.n)
        )
        if part.decode(word) != j + 1:
            failures += 1
    est = failures / trials
    half = 1.96 * math.sqrt(max(est * (1.0 - est), 0.0) / trials)
    return est, half


@dataclass(frozen=True)
class RateExperimentResult:
    rate: float
    entries: tuple  # of dicts with n, N, error, half_width, trials


def rate_experiment(M: FinitePOVM, ensemble: Ensemble, R: float, n_list,
                    trials: int, seed: int) -> RateExperimentResult:
    """Random-coding Monte-Carlo error profile at rate R (bits/use).

    For each block length n, draws N = ceil(2^{nR}) codewords i.i.d. per
    slot from the ensemble, decodes sampled outcome words by maximum
    likelihood word-by-word, and estimates the average error.
    """
    if R <= 0.0:
        raise ValueError("rate R must be positive")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    member_rows = np.stack([outcome_probs(s.matrix, M) for s in ensemble.states])
    member_rows[member_rows < 0.0] = 0.0
    member_rows /= member_rows.sum(axis=1, keepdims=True)
    m = M.size
    entries = []
    for n in n_list:
        N = math.ceil(2.0 ** (n * R))
        if N < 2:
            entries.append(
                {"n": n, "N": N, "error": 0.0, "half_width": 0.0, "trials": 0}
            )
            continue
        # average over several random codebooks so the estimate reflects the
        # random-coding ensemble, not a single (possibly lucky) draw; the
        # first trials % books codebooks run one extra trial each
        books = min(32, trials)
        per_book, extra = divmod(trials, books)
        cols = np.arange(n)
        failures = 0
        for b in range(books):
            rng_book = np.random.default_rng([seed, n, b])
            idx = rng_book.choice(
                len(ensemble.states), size=(N, n), p=ensemble.weights
            )
            P = member_rows[idx]  # (N, n, m)
            with np.errstate(divide="ignore"):
                L = np.log(P)  # -inf on zero-probability outcomes is fine
            cum = P.cumsum(axis=2)
            for t in range(per_book + (b < extra)):
                rng = np.random.default_rng([seed, n, b, t])
                j = int(rng.integers(N))
                u = rng.random(n)
                word = (cum[j] < u[:, None]).sum(axis=1)
                word = np.minimum(word, m - 1)
                ll = L[:, cols, word].sum(axis=1)
                if int(np.argmax(ll)) != j:
                    failures += 1
        est = failures / trials
        half = 1.96 * math.sqrt(max(est * (1.0 - est), 0.0) / trials)
        entries.append(
            {"n": int(n), "N": N, "error": est, "half_width": half, "trials": trials}
        )
    return RateExperimentResult(rate=float(R), entries=tuple(entries))
