"""The benchmark's workloads: input generation, the timed operations and their checks.

Each ``setup_<workload>(hc, seed, workdir)`` generates the workload's inputs
from the seed with NumPy, validates them by building the program's objects,
writes them as spec files to ``workdir`` and returns the list of operations
one round runs.  An operation's ``call`` is the timed call into the
program; its ``check`` compares the output with the reference computations
of ``oracle`` (or with properties the method must have) and returns the
problems it found; its ``counts`` gives the exact work counts the traced run
reports.  Reference values are computed on first use, outside the set-up
time and outside every timed call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

# classical_capacity on commuting channels must match Blahut-Arimoto to this
# many bits; with the settings below its worst error over 40 random commuting
# channels was 4e-6.
CLASSICAL_BA_TOL = 1e-4
# printed CLI values carry six decimals
PRINT_TOL = 1e-6


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]
    counts: Callable[[object], dict] = field(default=lambda out: {})


def _problem(problems: list, ok: bool, msg: str) -> None:
    if not ok:
        problems.append(msg)


# ---------------------------------------------------------------------------
# input generation (NumPy only)
# ---------------------------------------------------------------------------

def _complete(mats):
    """Rescale positive matrices A_k to W A_k W with sum = identity."""
    w, V = np.linalg.eigh(sum(mats))
    W = (V / np.sqrt(w)) @ V.conj().T
    out = [W @ A @ W for A in mats]
    return np.stack([(a + a.conj().T) / 2.0 for a in out])


def random_povm(rng, d: int, m: int) -> np.ndarray:
    mats = []
    for _ in range(m):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mats.append(g @ g.conj().T)
    return _complete(mats)


def rank1_povm(rng, d: int, m: int) -> np.ndarray:
    mats = []
    for _ in range(m):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        mats.append(np.outer(v, v.conj()))
    return _complete(mats)


def diagonal_povm(rng, d: int, m: int):
    """(elements, W) of a commuting POVM; W[i, k] = <i|M_k|i> is its classical channel."""
    W = rng.dirichlet(np.full(m, 0.7), size=d)
    return np.stack([np.diag(W[:, k]) for k in range(m)]).astype(np.complex128), W


def random_state(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    s = g @ g.conj().T
    s = s / np.real(np.trace(s))
    return (s + s.conj().T) / 2.0


def pure_state(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def energy_operator(rng, d: int) -> np.ndarray:
    """F = U diag(f) U† with f ascending from 0 and U a random unitary."""
    f = np.concatenate([[0.0], np.sort(rng.uniform(0.5, 2.0, d - 1))])
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    F = (q * f) @ q.conj().T
    return (F + F.conj().T) / 2.0


def _mat_json(m: np.ndarray) -> dict:
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def write_spec(path: Path, elems, state=None, constraint=None, ensemble=None, seed=0):
    spec = {
        "dim": int(elems.shape[1]),
        "povm": [{"label": str(k), **_mat_json(e)} for k, e in enumerate(elems)],
        "options": {"seed": int(seed)},
    }
    if state is not None:
        spec["state"] = _mat_json(state)
    if constraint is not None:
        spec["constraint"] = {"F": _mat_json(constraint[0]), "E": float(constraint[1])}
    if ensemble is not None:
        spec["ensemble"] = {
            "weights": [float(w) for w in ensemble[0]],
            "states": [_mat_json(s) for s in ensemble[1]],
        }
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def _povm(hc, elems):
    return hc.FinitePOVM(tuple(str(k) for k in range(len(elems))), elems)


# ---------------------------------------------------------------------------
# classical
# ---------------------------------------------------------------------------

def _capacity_counts(res) -> dict:
    best = max(res.restart_values)
    return {
        "capacity.rounds": res.iterations_used,
        "capacity.restarts": len(res.restart_values),
        "capacity.restarts_at_best": sum(v >= best - 1e-6 for v in res.restart_values),
    }


def setup_classical(hc, seed: int, workdir: Path) -> list[Op]:
    """A fixed set of channels, d 2-3 and m 3-4: two commuting channels
    (checked against Blahut-Arimoto), a non-commuting channel and two
    energy-constrained channels.

    The channels and the optimizer seed are the same for every ``--seed``,
    which only reorders each POVM's outcomes (the capacity does not depend on
    the order).  The solve time of classical_capacity moves by about 20%
    between random channels of one shape, and between optimizer seeds, so
    seeded channels would make the figures spread wider than any bound.
    """
    bank = np.random.default_rng(101)
    order = np.random.default_rng([101, seed])
    accurate = hc.OptimizerConfig(seed=0, restarts=3, max_iterations=10)
    quick = hc.OptimizerConfig(seed=0, restarts=1, max_iterations=10)
    ops = []

    def add(name, elems, W=None, constraint=None, cfg=quick):
        d, m = elems.shape[1], elems.shape[0]
        perm = order.permutation(m)
        elems = elems[perm]
        M = _povm(hc, elems)
        c = None if constraint is None else hc.EnergyConstraint(*constraint)
        write_spec(workdir / f"{name}.json", elems, constraint=constraint, seed=seed)
        ba = None if W is None else functools.cache(lambda: oracle.blahut_arimoto(W[:, perm]))

        def check(res):
            p = []
            C = res.value_bits
            _problem(p, -1e-12 <= C <= min(math.log2(d), math.log2(m)) + 1e-9,
                     f"C = {C} outside [0, min(log2 d, log2 m)]")
            ens = res.argmax
            rows = [oracle.outcome_probs(s.matrix, elems) for s in ens.states]
            I = oracle.mutual_information(ens.weights, rows)
            _problem(p, abs(C - I) <= 1e-9, f"C = {C} but I(ensemble) = {I}")
            if ba is not None:
                _problem(p, abs(C - ba()) <= CLASSICAL_BA_TOL, f"C = {C} but Blahut-Arimoto {ba()}")
            if constraint is not None:
                F, E = constraint
                for s in ens.states:
                    e = float(np.real(np.trace(s.matrix @ F)))
                    _problem(p, e <= E + 1e-9, f"member energy {e} > E = {E}")
            return p

        ops.append(Op(name, lambda: hc.classical_capacity(M, c, cfg), check, _capacity_counts))

    for d, m in ((2, 3), (3, 4)):
        elems, W = diagonal_povm(bank, d, m)
        add(f"diag-d{d}m{m}", elems, W=W, cfg=accurate)
    add("rand-d3m3", random_povm(bank, 3, 3))
    for d, m in ((2, 4), (3, 3)):
        F = energy_operator(bank, d)
        E = float(bank.uniform(0.2, 0.5))
        add(f"constr-d{d}m{m}", random_povm(bank, d, m), constraint=(F, E))
    return ops


# ---------------------------------------------------------------------------
# ea
# ---------------------------------------------------------------------------

def setup_ea(hc, seed: int, workdir: Path) -> list[Op]:
    """A fixed set of non-rank-1 POVMs, so ea_capacity takes the
    pattern-search path; ``--seed`` reorders each POVM's outcomes, as in
    ``setup_classical`` and for the same reason.

    Qubit POVMs run to convergence: their optimum is only 1e-5 to 1e-3 bits
    above ER(I/d), so a truncated search could end below it.  The d = 3
    searches stop after a few rounds; there the optimum is ~1e-2 bits above
    ER(I/d).
    """
    bank = np.random.default_rng(102)
    order = np.random.default_rng([102, seed])
    full = hc.OptimizerConfig(seed=0, restarts=1, max_iterations=200)
    short = hc.OptimizerConfig(seed=0, restarts=1, max_iterations=4)
    ops = []
    for d, m, cfg in ((2, 3, full), (2, 4, full), (3, 3, short), (3, 4, short), (3, 3, short)):
        elems = random_povm(bank, d, m)[order.permutation(m)]
        M = _povm(hc, elems)
        name = f"ea-d{d}m{m}-{len(ops)}"
        write_spec(workdir / f"{name}.json", elems, seed=seed)
        er_mixed = functools.cache(
            lambda elems=elems, d=d: oracle.entropy_reduction(np.eye(d) / d, elems))

        def check(res, elems=elems, d=d, er_mixed=er_mixed):
            p = []
            C = res.value_bits
            _problem(p, -1e-12 <= C <= math.log2(d) + 1e-9, f"C_ea = {C} outside [0, log2 d]")
            er = oracle.entropy_reduction(res.argmax.matrix, elems)
            _problem(p, abs(C - er) <= 1e-9, f"C_ea = {C} but ER(argmax) = {er}")
            _problem(p, C >= er_mixed() - 1e-9, f"C_ea = {C} below ER(I/d) = {er_mixed()}")
            return p

        ops.append(Op(name, lambda M=M, cfg=cfg: hc.ea_capacity(M, None, cfg), check,
                      _capacity_counts))
    return ops


# ---------------------------------------------------------------------------
# coding
# ---------------------------------------------------------------------------

def _slot_probs(book_states, elems) -> np.ndarray:
    """(N, n, m) outcome laws of every codeword slot."""
    return np.array([
        [np.clip(oracle.outcome_probs(s, elems), 0.0, None) for s in word]
        for word in book_states
    ])


def _codebook_ops(hc, rng, seed, M, elems, ens, n: int, tag: str) -> list[Op]:
    """ML decoding of a 4-word product codebook drawn from the ensemble: the
    partition, its exact and Monte Carlo error, and the exact error of two
    other partitions, which ML must not beat."""
    N, m = 4, len(elems)
    idx = rng.integers(len(ens.states), size=(N, n))
    book = hc.Codebook(tuple(tuple(ens.states[i] for i in row) for row in idx))
    P = _slot_probs([[ens.states[i].matrix for i in row] for row in idx], elems)
    labels = tuple(str(k) for k in range(m))
    all_words = list(itertools.product(range(m), repeat=n))
    ml_err = functools.cache(lambda: oracle.ml_error(P))
    shared = {}

    def second_best(word):
        like = [math.prod(P[j, t, word[t]] for t in range(n)) for j in range(N)]
        return sorted(range(N), key=lambda j: (-like[j], j))[1] + 1

    def first_slot(word):
        return int(np.argmax(P[:, 0, word[0]])) + 1

    def ml_call():
        shared["part"] = hc.ml_partition(book, M)
        return shared["part"]

    def exact_check(err):
        return [] if abs(err - ml_err()) <= 1e-12 else [f"error {err} != ML error {ml_err()}"]

    def ml_check(part):
        return exact_check(
            oracle.partition_error(P, lambda w: part.decode(tuple(labels[k] for k in w))))

    mc_trials = 1000

    def mc_check(out):
        est, hw = out
        p = []
        want = 1.96 * math.sqrt(est * (1.0 - est) / mc_trials)
        _problem(p, abs(hw - want) <= 1e-12, f"MC half-width {hw} != {want}")
        _problem(p, abs(est - ml_err()) <= 4.0 * hw,
                 f"MC estimate {est} more than 4 half-widths ({hw}) from exact {ml_err()}")
        return p

    def words(out):
        return {"coding.words": m ** n}

    ops = [
        Op(f"ml-{tag}", ml_call, ml_check, words),
        Op(f"exact-{tag}", lambda: hc.average_error(book, shared["part"], M), exact_check, words),
        Op(f"mc-{tag}",
           lambda: hc.average_error(book, shared["part"], M, mode="monte_carlo",
                                    trials=mc_trials, seed=seed),
           mc_check, lambda out: {"coding.trials": mc_trials}),
    ]
    for alt_name, rule in (("second", second_best), ("first-slot", first_slot)):
        part = hc.DecoderPartition({tuple(labels[k] for k in w): rule(w) for w in all_words})
        alt_err = functools.cache(lambda rule=rule: oracle.partition_error(P, rule))

        def alt_check(err, alt_err=alt_err, alt_name=alt_name):
            p = []
            _problem(p, abs(err - alt_err()) <= 1e-12,
                     f"{alt_name} partition error {err} != brute force {alt_err()}")
            _problem(p, ml_err() <= err + 1e-12, f"ML error {ml_err()} above {alt_name} {err}")
            return p

        ops.append(Op(f"alt-{alt_name}-{tag}", lambda part=part: hc.average_error(book, part, M),
                      alt_check, words))
    return ops


def _rate_op(hc, M, ens, rate: float, seed: int, name: str) -> Op:
    n_list, trials = (2, 4, 6, 8), 300

    def check(res):
        p = []
        _problem(p, [e["n"] for e in res.entries] == list(n_list), "block lengths differ")
        for e in res.entries:
            err, hw, t = e["error"], e["half_width"], e["trials"]
            _problem(p, 0.0 <= err <= 1.0, f"n={e['n']}: error {err} outside [0, 1]")
            want = 1.96 * math.sqrt(err * (1.0 - err) / t) if t > 0 else 0.0
            _problem(p, abs(hw - want) <= 1e-12, f"n={e['n']}: half-width {hw} != {want}")
        return p

    return Op(name, lambda: hc.rate_experiment(M, ens, rate, n_list, trials, seed), check,
              lambda res: {"coding.trials": sum(e["trials"] for e in res.entries)})


def setup_coding(hc, seed: int, workdir: Path) -> list[Op]:
    """Random-coding error profiles at rates below and above I(pi, M), and ML
    decoding of small product codebooks (exact and Monte Carlo error)."""
    rng = np.random.default_rng([103, seed])
    ops = []
    for e_idx in range(2):
        d, m = 2, 3
        elems = random_povm(rng, d, m)
        states = [pure_state(rng, d) for _ in range(3)]
        weights = rng.dirichlet(np.full(3, 4.0))
        M = _povm(hc, elems)
        ens = hc.Ensemble(weights, tuple(hc.DensityOperator(s) for s in states))
        write_spec(workdir / f"code-{e_idx}.json", elems, ensemble=(weights, states), seed=seed)
        info = oracle.mutual_information(weights, [oracle.outcome_probs(s, elems) for s in states])
        ops.append(_rate_op(hc, M, ens, 0.5 * info, seed, f"rate-{e_idx}-below"))
        ops.append(_rate_op(hc, M, ens, 1.5 * info, seed, f"rate-{e_idx}-above"))
        if e_idx == 0:
            ops.append(_rate_op(hc, M, ens, info, seed, f"rate-{e_idx}-at"))
        ops += _codebook_ops(hc, rng, seed, M, elems, ens, n=(3, 5)[e_idx], tag=str(e_idx))
    return ops


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

_NUM = r"([-+]?\d+\.\d+)"


def _run_cli(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_check(expect: Callable[[str], list]):
    def check(out):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        return expect(text)
    return check


def _near(p: list, got: str, want: float, what: str) -> None:
    _problem(p, abs(float(got) - want) <= PRINT_TOL, f"{what}: printed {got}, expected {want:.9f}")


def _expect_line(pattern: str, want: Callable[[], float], what: str):
    def expect(text):
        hit = re.search(pattern + _NUM, text)
        if hit is None:
            return [f"{what}: no match in {text!r}"]
        p = []
        _near(p, hit.group(1), want(), what)
        return p
    return expect


def _spec_requests(path: str, d: int, m: int, rank1: bool, outcome: int, elems, state,
                   F, E, weights, members):
    """(argv, expect) for each CLI request on one spec file."""
    ref = functools.cache(lambda: {
        "probs": oracle.outcome_probs(state, elems),
        "posterior": oracle.entropy_of_probs(oracle.posterior_spectrum(state, elems[outcome])),
        "er": oracle.entropy_reduction(state, elems),
        "mi": oracle.mutual_information(weights, [oracle.outcome_probs(s, elems) for s in members]),
        "gibbs": oracle.gibbs(F, E),
    })

    def exp_validate(text):
        ok = f"POVM: {m} outcomes, dim {d}, complete" in text
        return [] if ok else [f"validate printed {text!r}"]

    def exp_measure(text):
        got = re.findall(r"p\((\S+)\) = " + _NUM, text)
        probs = ref()["probs"]
        p = [] if len(got) == len(probs) else [f"measure printed {text!r}"]
        for (lab, v), want in zip(got, probs):
            _near(p, v, want, f"p({lab})")
        return p

    def exp_gibbs(text):
        return (_expect_line(r"energy = ", lambda: ref()["gibbs"][1], "gibbs energy")(text)
                + _expect_line(r"entropy = ", lambda: ref()["gibbs"][2], "gibbs entropy")(text))

    def exp_ea(text):
        p = _expect_line(r"C_ea = ", lambda: ref()["gibbs"][2], "C_ea")(text)
        _problem(p, "path: gibbs" in text, "ea did not take the Gibbs path")
        return p

    requests = [
        (["validate", path], exp_validate),
        (["measure", path], exp_measure),
        (["posterior", path, "--outcome", str(outcome)],
         _expect_line(r"posterior entropy ", lambda: ref()["posterior"], "posterior entropy")),
        (["er", path], _expect_line(r"ER = ", lambda: ref()["er"], "ER")),
        (["mi", path], _expect_line(r"I = ", lambda: ref()["mi"], "I")),
        (["gibbs", path], exp_gibbs),
    ]
    if rank1:
        requests.append((["ea", path], exp_ea))
    return requests


def setup_queries(hc, seed: int, workdir: Path) -> list[Op]:
    """Short CLI requests on spec files written here, plus the oscillator check."""
    cli = hc.cli
    rng = np.random.default_rng([104, seed])
    ops = []
    shapes = ((2, 3, False), (3, 4, False), (3, 3, False), (2, 3, True), (3, 3, True))
    for s_idx, (d, m, rank1) in enumerate(shapes):
        elems = rank1_povm(rng, d, m) if rank1 else random_povm(rng, d, m)
        state = random_state(rng, d)
        F = energy_operator(rng, d)
        f = np.linalg.eigvalsh(F)
        E = float(f[0] + rng.uniform(0.3, 0.8) * (f.mean() - f[0]))
        weights = rng.dirichlet(np.full(3, 2.0))
        members = [random_state(rng, d) for _ in range(3)]
        outcome = int(rng.integers(m))
        # validate as the program would before writing the spec
        M = _povm(hc, elems)
        hc.DensityOperator(state)
        hc.EnergyConstraint(F, E)
        hc.Ensemble(weights, tuple(hc.DensityOperator(s) for s in members))
        if rank1 != hc.is_pure_povm(M):
            raise RuntimeError("generated POVM has the wrong rank")
        path = str(write_spec(workdir / f"q{s_idx}.json", elems, state=state,
                              constraint=(F, E), ensemble=(weights, members), seed=seed))
        for argv, expect in _spec_requests(path, d, m, rank1, outcome, elems, state,
                                           F, E, weights, members):
            ops.append(Op(f"{argv[0]}-q{s_idx}", lambda argv=argv: _run_cli(cli, argv),
                          _cli_check(expect)))

    emin = float(rng.uniform(0.5, 1.0))
    emax = float(emin + rng.uniform(2.0, 6.0))
    steps = int(rng.integers(8, 16))

    def exp_curves(text):
        lines = text.strip().splitlines()
        p = [] if lines[0] == "E,C_het,C_hom,C_ea" and len(lines) == steps + 1 else [
            f"optics-curves printed {len(lines)} lines"]
        for line, e in zip(lines[1:], np.linspace(emin, emax, steps)):
            e = float(e)
            want = (e, oracle.c_heterodyne(e), oracle.c_homodyne(e), oracle.cea_oscillator(e))
            for got, w, what in zip(line.split(","), want, ("E", "C_het", "C_hom", "C_ea")):
                _near(p, got, w, f"{what}({e:.4f})")
        return p

    curves = ["optics-curves", "--emin", repr(emin), "--emax", repr(emax), "--steps", str(steps)]
    ops.append(Op("optics-curves", lambda: _run_cli(cli, curves), _cli_check(exp_curves)))

    for k in range(2):
        E = float(rng.uniform(0.6, 3.0))
        n_max = int(rng.integers(40, 60))
        want = functools.cache(
            lambda E=E, n_max=n_max: oracle.gibbs(np.diag(np.arange(n_max) + 0.5), E)[2])

        def osc_check(out, E=E, want=want):
            numeric, closed, gap = out
            p = []
            _problem(p, abs(numeric - want()) <= PRINT_TOL,
                     f"truncated Gibbs entropy {numeric} != {want()}")
            _problem(p, abs(closed - oracle.cea_oscillator(E)) <= PRINT_TOL,
                     f"closed form {closed} != {oracle.cea_oscillator(E)}")
            _problem(p, abs(gap - (numeric - closed)) <= 1e-12, "gap != numeric - closed")
            return p

        ops.append(Op(f"oscillator-{k}",
                      lambda E=E, n_max=n_max: hc.truncated_oscillator_check(E, n_max),
                      osc_check))
    return ops


WORKLOADS = {
    "classical": setup_classical,
    "ea": setup_ea,
    "coding": setup_coding,
    "queries": setup_queries,
}
