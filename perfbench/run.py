"""Benchmark of the hybridcap solvers, run from the root of a source checkout.

    python3 perfbench/run.py --workload classical --seed 1 --seconds 20 --trace 0

One process, one closed-loop caller: each call into the program starts after
the previous one returned.  BLAS and OpenMP are pinned to one thread before
NumPy loads.  The workload's inputs are generated from ``--seed``; a round
runs every operation of the workload once, and rounds repeat until
``--seconds`` have passed.  Every output is checked against reference
computations made apart from the program (``oracle.py``).

Times are divided by a "ref": the duration of a fixed reference kernel
(``refkernel.py``) that runs before the first call and after every call.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See README.md for what each metric means.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import refkernel  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 5

# (name, unit) of every per-layer metric; "calls" and counts are per round,
# "self_ms" is self time per round.
PER_LAYER = [
    ("qmat.herm_eig.calls", "count"),
    ("qmat.herm_eig.self_ms", "ms"),
    ("hybrid.posterior_entropies.calls", "count"),
    ("hybrid.posterior_entropies.self_ms", "ms"),
    ("hybrid.mutual_information_from_rows.calls", "count"),
    ("hybrid.mutual_information_from_rows.self_ms", "ms"),
    ("hybrid.validate.calls", "count"),
    ("hybrid.validate.self_ms", "ms"),
    ("capacity.classical_capacity.self_ms", "ms"),
    ("capacity.ea_capacity.self_ms", "ms"),
    ("capacity.gibbs_state.calls", "count"),
    ("capacity.gibbs_state.self_ms", "ms"),
    ("capacity.rounds", "count"),
    ("capacity.restarts_at_best", "ratio"),
    ("coding.rate_experiment.self_ms", "ms"),
    ("coding.ml_partition.self_ms", "ms"),
    ("coding.average_error.self_ms", "ms"),
    ("coding.trials", "count"),
    ("coding.words", "count"),
    ("cli.parse_spec.self_ms", "ms"),
    ("cli.build_parser.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
] + [(f"{layer}.self_ms", "ms") for layer in LAYERS] + [
    ("setup.hybrid.validate.calls", "count"),
    ("setup.hybrid.validate.self_ms", "ms"),
    ("setup.qmat.herm_eig.self_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.work_ref", "ref"),
    ("trace.layer_sum_ref", "ref"),
]

SETUP_CALL = -2


def fresh_import():
    """Import hybridcap (and its CLI) from this checkout's ``src``, anew."""
    for name in [n for n in sys.modules if n == "hybridcap" or n.startswith("hybridcap.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    hc = importlib.import_module("hybridcap")
    importlib.import_module("hybridcap.cli")
    if Path(hc.__file__).resolve().parent != (SRC / "hybridcap").resolve():
        raise ImportError(f"hybridcap was imported from {hc.__file__}, not from {SRC}")
    return hc


def set_up(workload: str, seed: int, workdir: Path, tracer: Tracer | None = None):
    """(seconds from import to inputs ready, operations of one round)."""
    t0 = time.perf_counter()
    hc = fresh_import()
    if tracer is not None:
        tracer.current_call = SETUP_CALL
        tracer.install()
    ops = WORKLOADS[workload](hc, seed, workdir)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    return elapsed, ops


class Round:
    def __init__(self, traced: bool, first_ref: float):
        self.traced = traced
        self.walls: list[float] = []
        self.refs = [first_ref]  # refs[i] ran before call i, refs[i + 1] after it
        self.call_ids: list[int] = []
        self.counts: Counter = Counter()

    def call_refs(self) -> list[float]:
        return [w / ((self.refs[i] + self.refs[i + 1]) / 2.0) for i, w in enumerate(self.walls)]


def work_ref(rounds) -> float:
    """Median over rounds of the round's calls, each in refs of its adjacent kernel runs."""
    return statistics.median(sum(r.call_refs()) for r in rounds)


def measure(ops, seconds: float, tracer: Tracer | None):
    """Run whole rounds until ``seconds`` have passed; traced runs alternate
    untraced and traced rounds and run at least one of each.

    Returns the rounds, the problems the checks found in the outputs of the
    calls that returned, and the number of calls that raised.
    """
    rounds: list[Round] = []
    problems: list[str] = []
    failed = 0
    call_id = 0
    ref = refkernel.timed_reference()
    deadline = time.perf_counter() + seconds
    while True:
        rnd = Round(tracer is not None and len(rounds) % 2 == 1, ref)
        if rnd.traced:
            tracer.install()
        for op in ops:
            if tracer is not None:
                tracer.current_call = call_id
            error = None
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                error = exc
            wall = time.perf_counter() - t0
            ref = refkernel.timed_reference()
            rnd.walls.append(wall)
            rnd.refs.append(ref)
            rnd.call_ids.append(call_id)
            call_id += 1
            if error is not None:
                failed += 1
                print(f"{op.name} failed: {error!r}", file=sys.stderr)
                continue
            problems += [f"{op.name}: {p}" for p in op.check(out)]
            if rnd.traced:
                rnd.counts.update(op.counts(out))
        if rnd.traced:
            tracer.uninstall()
        rounds.append(rnd)
        done = time.perf_counter() >= deadline
        if done and (tracer is None or len(rounds) >= 2):
            break
    return rounds, problems, failed


def end_to_end(rounds, setup_times) -> dict:
    call_refs = [c for r in rounds for c in r.call_refs()]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "work_ref": (work_ref(rounds), "ref"),
        "call_ref.p50": (statistics.median(call_refs), "ref"),
        "call_ref.p90": (statistics.quantiles(call_refs, n=10)[8], "ref"),
    }


def per_layer(rounds, tracer: Tracer) -> dict:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    ids = np.array([c for r in traced for c in r.call_ids])
    per_name = tracer.aggregate(lambda call: np.isin(call, ids))
    in_setup = tracer.aggregate(lambda call: call == SETUP_CALL)
    n = len(traced)
    values: dict[str, float] = {}
    for name, (calls, self_s) in per_name.items():
        values[f"{name}.calls"] = calls / n
        values[f"{name}.self_ms"] = self_s * 1e3 / n
        layer = name.split(".")[0] + ".self_ms"
        values[layer] = values.get(layer, 0.0) + self_s * 1e3 / n
    for name, (calls, self_s) in in_setup.items():
        values[f"setup.{name}.calls"] = calls
        values[f"setup.{name}.self_ms"] = self_s * 1e3
    counts = sum((r.counts for r in traced), Counter())
    for key in ("capacity.rounds", "coding.trials", "coding.words"):
        values[key] = counts[key] / n
    if counts["capacity.restarts"]:
        values["capacity.restarts_at_best"] = (
            counts["capacity.restarts_at_best"] / counts["capacity.restarts"]
        )
    values["trace.overhead"] = work_ref(traced) / work_ref(plain)
    # the same calls in the same unit: wall time of each traced call, and the
    # self time of all spans recorded inside it
    attributed = tracer.self_time_per_call(int(ids.max()) + 1)
    values["trace.work_ref"] = sum(sum(r.call_refs()) for r in traced) / n
    values["trace.layer_sum_ref"] = sum(
        attributed[c] / ((r.refs[i] + r.refs[i + 1]) / 2.0)
        for r in traced for i, c in enumerate(r.call_ids)
    ) / n
    return {name: (values.get(name, 0.0), unit) for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = HERE / "out" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None

    setup_times = []
    for k in range(SETUPS):
        seconds, ops = set_up(args.workload, args.seed, workdir,
                              tracer if k == SETUPS - 1 else None)
        setup_times.append(seconds)
    rounds, problems, failed = measure(ops, args.seconds, tracer)

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if tracer is None:
        metrics = end_to_end(rounds, setup_times)
    else:
        metrics = per_layer(rounds, tracer)
        tracer.save(workdir / "spans.npz")
    attempted = sum(len(r.walls) for r in rounds)
    refs = [rounds[0].refs[0]] + [x for r in rounds for x in r.refs[1:]]
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {attempted} calls, "
          f"median round {statistics.median(sum(r.walls) for r in rounds):.4f} s, "
          f"ref mean {statistics.fmean(refs) * 1e3:.3f} ms median "
          f"{statistics.median(refs) * 1e3:.3f} ms min {min(refs) * 1e3:.3f} ms",
          file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
