"""Command-line front end.

Channel specifications are UTF-8 JSON files; complex matrices are given as
two nested row-major real arrays "re" and "im".  Exit codes: 0 ok,
2 invariant violation, 3 parse error, 4 infeasible energy constraint,
5 optimizer non-convergence (the result is still printed, flagged).

Each subcommand takes only the flags it uses: --csv PATH on measure,
capacity, ea, optics-curves and code-sim; --seed on capacity, ea and
code-sim, with priority --seed flag > options.seed in the file >
HYBRIDCAP_SEED environment variable > 0; --restarts and --tol on capacity
and ea.  On any other subcommand these flags are a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import capacity as cap
from . import coding, hybrid, optics
from .errors import (
    BracketFailure,
    HybridcapError,
    InfeasibleEnergy,
    NegativeEigenvalue,
    NonHermitianInput,
)

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_PARSE = 3
EXIT_INFEASIBLE = 4
EXIT_NONCONVERGED = 5


class SpecParseError(Exception):
    """Structural problem in a spec file (missing field, wrong type, bad JSON)."""


class SpecInvariantError(Exception):
    """Spec parsed but a numeric invariant is violated."""


def _fail_parse(path: str, msg: str):
    raise SpecParseError(f"{path}: {msg}")


_NUMBER_TYPES = frozenset((int, float))


def _numbers(values) -> bool:
    """True iff every value is a JSON number: an int or a float, not a bool, string or null."""
    return _NUMBER_TYPES.issuperset(map(type, values))


def _matrix_from_json(obj, dim: int, path: str) -> np.ndarray:
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        _fail_parse(path, 'expected an object with "re" and "im" arrays')
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (TypeError, ValueError, OverflowError):
        _fail_parse(path, "re/im entries are not numeric")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        _fail_parse(path, f"expected {dim}x{dim} arrays, got {re.shape} and {im.shape}")
    # the shapes hold, so both are lists of dim rows of dim scalars
    if not _numbers(chain(*obj["re"], *obj["im"])):
        _fail_parse(path, "re/im entries are not numeric")
    return re + 1j * im


def _matrix_to_json(m: np.ndarray) -> dict:
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


@dataclass
class ChannelSpec:
    """Parsed spec file: POVM plus optional state, ensemble, constraint, options."""

    povm: hybrid.FinitePOVM
    state: hybrid.DensityOperator | None = None
    constraint: hybrid.EnergyConstraint | None = None
    ensemble: hybrid.Ensemble | None = None
    options: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "dim": self.povm.dim,
            "povm": [
                {"label": lab, **_matrix_to_json(el)}
                for lab, el in zip(self.povm.labels, self.povm.elements)
            ],
        }
        if self.state is not None:
            out["state"] = _matrix_to_json(self.state.matrix)
        if self.constraint is not None:
            out["constraint"] = {"F": _matrix_to_json(self.constraint.F),
                                 "E": self.constraint.E}
        if self.ensemble is not None:
            out["ensemble"] = {
                "weights": self.ensemble.weights.tolist(),
                "states": [_matrix_to_json(s.matrix) for s in self.ensemble.states],
            }
        if self.options:
            out["options"] = dict(self.options)
        return out


_SPEC_ERRORS = (ValueError, TypeError, OverflowError, NonHermitianInput, NegativeEigenvalue)


def _construct(prefix: str, build):
    """build(), with a constructor failure (_SPEC_ERRORS) raised as SpecInvariantError."""
    try:
        return build()
    except _SPEC_ERRORS as exc:
        raise SpecInvariantError(f"{prefix}{exc}") from exc


def parse_spec(path: str) -> ChannelSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SpecParseError(f"{path}: cannot read file ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        _fail_parse(path, "top-level value must be an object")
    if "dim" not in raw or type(raw["dim"]) is not int or raw["dim"] < 1:
        _fail_parse(path, 'field "dim" must be a positive integer')
    dim = raw["dim"]
    if "povm" not in raw or not isinstance(raw["povm"], list) or not raw["povm"]:
        _fail_parse(path, 'field "povm" must be a non-empty list')
    pairs = []
    for k, entry in enumerate(raw["povm"]):
        if not isinstance(entry, dict) or "label" not in entry:
            _fail_parse(path, f'povm[{k}]: expected an object with a "label"')
        if not isinstance(entry["label"], str):
            _fail_parse(path, f'povm[{k}]: "label" must be a string')
        pairs.append((entry["label"], _matrix_from_json(entry, dim, f"{path}: povm[{k}]")))
    povm = _construct("", lambda: hybrid.FinitePOVM.from_pairs(pairs))

    state = None
    if "state" in raw:
        mat = _matrix_from_json(raw["state"], dim, f"{path}: state")
        state = _construct("state: ", lambda: hybrid.DensityOperator(mat))

    constraint = None
    if "constraint" in raw:
        c = raw["constraint"]
        if not isinstance(c, dict) or "F" not in c or "E" not in c:
            _fail_parse(path, 'constraint: expected an object with "F" and "E"')
        fmat = _matrix_from_json(c["F"], dim, f"{path}: constraint.F")
        if not _numbers((c["E"],)):
            raise SpecInvariantError(f"constraint: E must be a number, got {c['E']!r}")
        constraint = _construct(
            "constraint: ", lambda: hybrid.EnergyConstraint(fmat, float(c["E"])))

    ensemble = None
    if "ensemble" in raw:
        e = raw["ensemble"]
        if not isinstance(e, dict) or "weights" not in e or "states" not in e:
            _fail_parse(path, 'ensemble: expected an object with "weights" and "states"')
        if not (isinstance(e["weights"], list) and isinstance(e["states"], list)):
            _fail_parse(path, 'ensemble: "weights" and "states" must be lists')
        mats = [
            _matrix_from_json(s, dim, f"{path}: ensemble.states[{k}]")
            for k, s in enumerate(e["states"])
        ]
        if not _numbers(e["weights"]):
            raise SpecInvariantError(f"ensemble: weights must be numbers, got {e['weights']!r}")
        ensemble = _construct("ensemble: ", lambda: hybrid.Ensemble(
            np.asarray(e["weights"], dtype=float),
            tuple(hybrid.DensityOperator(m) for m in mats)))

    options = raw.get("options", {})
    if not isinstance(options, dict):
        _fail_parse(path, 'field "options" must be an object')
    return ChannelSpec(povm, state, constraint, ensemble, options)


def _option(opts: dict, key: str, default, integral: bool):
    """options[key] as an int if integral, else a float: a JSON number, not a bool."""
    v = opts.get(key, default)
    if not _numbers((v,)) or integral and isinstance(v, float) and not v.is_integer():
        what = "an integer" if integral else "a number"
        raise ValueError(f'option "{key}" must be {what}, got {v!r}')
    if integral:
        return int(v)
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f'option "{key}" is too large for a float') from None


def _resolve_seed(args, spec: ChannelSpec) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" in spec.options:
        return _option(spec.options, "seed", 0, True)
    env = os.environ.get("HYBRIDCAP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"HYBRIDCAP_SEED must be an integer, got {env!r}") from None
    return 0


def _resolve_config(args, spec: ChannelSpec) -> cap.OptimizerConfig:
    opts = spec.options
    restarts = args.restarts if args.restarts is not None else _option(opts, "restarts", 8, True)
    tol = args.tol if args.tol is not None else _option(opts, "tol", 1e-7, False)
    return cap.OptimizerConfig(
        seed=_resolve_seed(args, spec), restarts=restarts, value_tolerance=tol
    )


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.6f}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args, spec: ChannelSpec) -> int:
    if args.dump_normalized:
        with open(args.dump_normalized, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(spec.to_json(), fh, indent=2)
            fh.write("\n")
    parts = [f"POVM: {spec.povm.size} outcomes, dim {spec.povm.dim}, complete ✓"]
    if spec.state is not None:
        parts.append("state ✓")
    if spec.constraint is not None:
        parts.append(f"constraint E={spec.constraint.E:.6f} ✓")
    if spec.ensemble is not None:
        parts.append(f"ensemble ({len(spec.ensemble.states)} members) ✓")
    print("; ".join(parts))
    return EXIT_OK


def cmd_measure(args, spec: ChannelSpec) -> int:
    dist = hybrid.measure(spec.state, spec.povm)
    rows = list(zip(spec.povm.labels, dist.probabilities))
    for lab, p in rows:
        print(f"p({lab}) = {p:.6f}")
    if args.csv:
        _write_csv(args.csv, "outcome,probability",
                   [(lab, float(p)) for lab, p in rows])
    return EXIT_OK


def cmd_posterior(args, spec: ChannelSpec) -> int:
    post = hybrid.posterior(spec.state, spec.povm, args.outcome)
    print(f"outcome {spec.povm.labels[args.outcome]}: "
          f"posterior entropy {hybrid.vn_entropy(post):.6f} bits")
    for row in post.matrix:
        print("  " + "  ".join(f"{v.real:+.6f}{v.imag:+.6f}i" for v in row))
    return EXIT_OK


def cmd_er(args, spec: ChannelSpec) -> int:
    val = hybrid.entropy_reduction(spec.state, spec.povm)
    print(f"ER = {val:.6f} bits")
    return EXIT_OK


def cmd_mi(args, spec: ChannelSpec) -> int:
    val = hybrid.mutual_information(spec.ensemble, spec.povm)
    print(f"I = {val:.6f} bits")
    return EXIT_OK


def _finish_capacity(args, result: cap.CapacityResult) -> int:
    """--csv row, non-convergence warning and exit code of capacity and ea."""
    if args.csv:
        _write_csv(args.csv, "value_bits,converged,iterations",
                   [(result.value_bits, result.converged, result.iterations_used)])
    if not result.converged:
        print("warning: optimizer did not converge; value is a lower bound")
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_capacity(args, spec: ChannelSpec) -> int:
    cfg = _resolve_config(args, spec)
    result = cap.classical_capacity(spec.povm, spec.constraint, cfg)
    print(f"C = {result.value_bits:.6f} bits")
    print(f"ensemble size: {len(result.argmax.states)}; "
          f"iterations: {result.iterations_used}; converged: {result.converged}")
    return _finish_capacity(args, result)


def cmd_ea(args, spec: ChannelSpec) -> int:
    cfg = _resolve_config(args, spec)
    result = cap.ea_capacity(spec.povm, spec.constraint, cfg)
    print(f"C_ea = {result.value_bits:.6f} bits")
    # only the rank-1 Gibbs path takes zero steps: the ascent takes at least
    # one (max_iterations >= 1)
    if result.iterations_used == 0:
        print("path: gibbs (rank-1 POVM)")
    else:
        print(f"path: concave ascent; steps: {result.iterations_used}; "
              f"converged: {result.converged}")
    return _finish_capacity(args, result)


def cmd_gibbs(args, spec: ChannelSpec) -> int:
    sol = cap.gibbs_state(spec.constraint.F, spec.constraint.E)
    print(f"beta = {sol.beta:.6f}")
    print(f"energy = {sol.energy:.6f}")
    print(f"entropy = {sol.entropy_bits:.6f} bits")
    return EXIT_OK


def cmd_optics_curves(args) -> int:
    rows = optics.curve_table(args.emin, args.emax, args.steps)
    print("E,C_het,C_hom,C_ea")
    for r in rows:
        print(f"{r.E:.6f},{r.c_het:.6f},{r.c_hom:.6f},{r.c_ea:.6f}")
    if args.csv:
        _write_csv(args.csv, "E,C_het,C_hom,C_ea",
                   [(r.E, r.c_het, r.c_hom, r.c_ea) for r in rows])
    return EXIT_OK


def cmd_code_sim(args, spec: ChannelSpec) -> int:
    seed = _resolve_seed(args, spec)
    try:
        n_list = [int(x) for x in args.nlist.split(",")]
    except ValueError:
        raise ValueError(f"--nlist must be comma-separated integers, got {args.nlist!r}") from None
    result = coding.rate_experiment(
        spec.povm, spec.ensemble, args.rate, n_list, args.trials, seed
    )
    print(f"rate R = {result.rate:.6f} bits/use")
    rows = []
    for e in result.entries:
        print(f"n = {e['n']:3d}  N = {e['N']:6d}  "
              f"error = {e['error']:.6f} ± {e['half_width']:.6f}")
        rows.append((e["n"], e["N"], float(e["error"]), float(e["half_width"]),
                     e["trials"]))
    if args.csv:
        _write_csv(args.csv, "n,N,error,half_width,trials", rows)
    return EXIT_OK


# the optional flags of the subcommands on a spec file
_FLAGS = {"--csv": {"help": "write machine-readable CSV to this path"},
          "--seed": {"type": int}, "--restarts": {"type": int}, "--tol": {"type": float}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridcap",
        description="Capacities of finite-dimensional quantum measurement channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def on_spec(name, help, func, needs, *flags):
        """Subcommand on a spec file; main() loads it and checks its `needs` section."""
        p = sub.add_parser(name, help=help)
        p.add_argument("spec", help="channel spec JSON file")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func, needs=needs)
        return p

    p = sub.add_parser("validate", help="check a spec file's invariants")
    p.add_argument("spec")
    p.add_argument("--dump-normalized", metavar="OUT",
                   help="write the normalized spec JSON to OUT")
    p.set_defaults(func=cmd_validate, needs="povm")

    on_spec("measure", "outcome distribution of the state", cmd_measure, "state", "--csv")
    p = on_spec("posterior", "posterior state for one outcome", cmd_posterior, "state")
    p.add_argument("--outcome", type=int, required=True)
    on_spec("er", "entropy reduction of the state", cmd_er, "state")
    on_spec("mi", "mutual information of the ensemble", cmd_mi, "ensemble")
    optimizer = ("--csv", "--seed", "--restarts", "--tol")
    on_spec("capacity", "classical capacity", cmd_capacity, "povm", *optimizer)
    on_spec("ea", "entanglement-assisted capacity", cmd_ea, "povm", *optimizer)
    on_spec("gibbs", "max-entropy state at the constraint energy", cmd_gibbs, "constraint")

    p = sub.add_parser("optics-curves", help="oscillator capacity curve table")
    p.add_argument("--emin", type=float, default=0.5)
    p.add_argument("--emax", type=float, default=5.0)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_optics_curves, needs=None)

    p = on_spec("code-sim", "random-coding error-rate experiment", cmd_code_sim, "ensemble",
                "--csv", "--seed")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--nlist", default="2,4,8",
                   help="comma-separated block lengths")
    p.add_argument("--trials", type=int, default=2000)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process; build_parser() itself always returns a new one."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        if args.needs is None:
            return args.func(args)
        spec = parse_spec(args.spec)
        if getattr(spec, args.needs) is None:
            raise SpecInvariantError(
                f'this subcommand needs a "{args.needs}" section in the spec file')
        return args.func(args, spec)
    except SpecParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InfeasibleEnergy, BracketFailure) as exc:
        print(f"infeasible constraint: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (SpecInvariantError, HybridcapError, ValueError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
