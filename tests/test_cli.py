import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import random_density, random_povm, random_rank1_povm
from hybridcap import (
    CapacityResult, DensityOperator, EnergyConstraint, Ensemble, FinitePOVM, cli)
from hybridcap.cli import main, parse_spec


def mat(m):
    a = np.asarray(m, dtype=complex)
    return {"re": np.real(a).tolist(), "im": np.imag(a).tolist()}


def z_spec(**extra):
    spec = {
        "dim": 2,
        "povm": [
            {"label": "0", **mat(np.diag([1.0, 0.0]))},
            {"label": "1", **mat(np.diag([0.0, 1.0]))},
        ],
    }
    spec.update(extra)
    return spec


def ascent_spec():
    """A random 3-outcome qubit POVM of full-rank elements: ea takes the ascent path."""
    rng = np.random.default_rng(5)
    mats = [g @ g.conj().T for g in rng.standard_normal((3, 2, 2))
            + 1j * rng.standard_normal((3, 2, 2))]
    w, V = np.linalg.eigh(sum(mats))
    W = (V / np.sqrt(w)) @ V.conj().T
    return {"dim": 2, "povm": [{"label": str(k), **mat(W @ A @ W)}
                               for k, A in enumerate(mats)]}


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


@pytest.fixture
def z_file(tmp_path):
    return write_spec(tmp_path, z_spec())


def full_spec():
    return z_spec(
        state=mat(np.diag([0.75, 0.25])),
        constraint={"F": mat(np.diag([0.0, 1.0])), "E": 0.5},
        ensemble={
            "weights": [0.5, 0.5],
            "states": [mat(np.diag([1.0, 0.0])), mat(np.diag([0.0, 1.0]))],
        },
    )


@pytest.fixture
def full_file(tmp_path):
    return write_spec(tmp_path, full_spec())


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "hybridcap.cli", *args],
        capture_output=True, text=True,
    )


class TestValidate:
    def test_valid_spec(self, z_file, capsys):
        assert main(["validate", z_file]) == 0
        out = capsys.readouterr().out
        assert "POVM: 2 outcomes, dim 2, complete" in out

    def test_full_spec_summary(self, full_file, capsys):
        assert main(["validate", full_file]) == 0
        out = capsys.readouterr().out
        assert "state" in out and "constraint" in out and "ensemble" in out

    def test_incomplete_povm_exit_2(self, tmp_path, capsys):
        spec = {
            "dim": 2,
            "povm": [
                {"label": "0", **mat(0.45 * np.diag([1.0, 0.0]))},
                {"label": "1", **mat(0.45 * np.diag([0.0, 1.0]))},
            ],
        }
        spec["povm"][0]["re"] = (0.9 * np.diag([1.0, 0.0])).tolist()
        spec["povm"][1]["re"] = (0.9 * np.diag([0.0, 1.0])).tolist()
        assert main(["validate", write_spec(tmp_path, spec)]) == 2

    def test_nan_entry_exit_2(self, tmp_path, capsys):
        # json writes the float NaN as the bare token NaN, which json reads back
        spec = z_spec()
        spec["povm"][0]["re"][1][1] = float("nan")
        assert main(["validate", write_spec(tmp_path, spec)]) == 2
        err = capsys.readouterr().err
        assert err == "invariant violation: POVM element 0 has non-finite entries\n"

    def test_boolean_dim_exit_3(self, tmp_path, capsys):
        assert main(["validate", write_spec(tmp_path, z_spec(dim=True))]) == 3
        assert 'field "dim" must be a positive integer' in capsys.readouterr().err

    def test_truncated_json_exit_3(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2, "povm": [', encoding="utf-8")
        assert main(["validate", str(path)]) == 3

    def test_missing_field_exit_3(self, tmp_path):
        assert main(["validate", write_spec(tmp_path, {"dim": 2})]) == 3

    @pytest.mark.parametrize("spec, msg", [
        ([z_spec()], "top-level value must be an object"),
        ({"dim": 2, "povm": [mat(np.eye(2))]}, 'povm[0]: expected an object with a "label"'),
        (z_spec(state=[[1.0, 0.0], [0.0, 0.0]]),
         'state: expected an object with "re" and "im" arrays'),
        (z_spec(state=mat(np.eye(3) / 3)), "state: expected 2x2 arrays, got (3, 3) and (3, 3)"),
        (z_spec(constraint={"F": mat(np.eye(2))}),
         'constraint: expected an object with "F" and "E"'),
        (z_spec(ensemble={"weights": [1.0]}),
         'ensemble: expected an object with "weights" and "states"'),
        (z_spec(options=[1]), 'field "options" must be an object'),
    ], ids=["top-level", "povm entry", "matrix object", "matrix shape", "constraint",
            "ensemble", "options"])
    def test_structural_error_exit_3(self, tmp_path, capsys, spec, msg):
        assert main(["validate", write_spec(tmp_path, spec)]) == 3
        assert msg in capsys.readouterr().err

    @pytest.mark.parametrize("label", [True, None, 0, [1]])
    def test_non_string_label_exit_3(self, tmp_path, capsys, label):
        # each used to print as p(True), p(None), p(0) or p([1]) with exit 0
        spec = z_spec(state=mat(np.diag([0.75, 0.25])))
        spec["povm"][1]["label"] = label
        assert main(["measure", write_spec(tmp_path, spec)]) == 3
        assert 'povm[1]: "label" must be a string' in capsys.readouterr().err

    def test_duplicate_label_exit_2(self, tmp_path, capsys):
        spec = z_spec()
        spec["povm"][1]["label"] = "0"
        assert main(["validate", write_spec(tmp_path, spec)]) == 2
        assert capsys.readouterr().err == "invariant violation: POVM label '0' repeats\n"

    def test_constraint_near_overflow_exit_2(self, tmp_path, capsys):
        # F + F† overflows here; its NaN spectrum used to pass the PSD check
        spec = z_spec(constraint={"F": mat(np.diag([1e308, -1e308])), "E": 1.0})
        assert main(["validate", write_spec(tmp_path, spec)]) == 2
        assert capsys.readouterr().err == (
            "invariant violation: constraint: constraint operator F has eigenvalue below -1e-9\n")

    @pytest.mark.parametrize("ensemble", [
        {"weights": [1.0], "states": 5},
        {"weights": 1.0, "states": [mat(np.diag([1.0, 0.0]))]},
    ], ids=["states", "weights"])
    def test_non_list_ensemble_field_exit_3(self, tmp_path, capsys, ensemble):
        assert main(["mi", write_spec(tmp_path, z_spec(ensemble=ensemble))]) == 3
        assert '"weights" and "states" must be lists' in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [True, "1", None])
    def test_non_number_matrix_entry_exit_3(self, tmp_path, capsys, entry):
        spec = z_spec()
        spec["povm"][1]["re"][1][1] = entry
        assert main(["validate", write_spec(tmp_path, spec)]) == 3
        assert "povm[1]: re/im entries are not numeric" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", [["0.5", 0.5], [True, False]])
    def test_non_number_weight_exit_2(self, tmp_path, capsys, weights):
        spec = z_spec(ensemble={
            "weights": weights,
            "states": [mat(np.diag([1.0, 0.0])), mat(np.diag([0.0, 1.0]))],
        })
        assert main(["mi", write_spec(tmp_path, spec)]) == 2
        assert capsys.readouterr().err == (
            f"invariant violation: ensemble: weights must be numbers, got {weights!r}\n")

    def test_readme_example_parses(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        spec = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        assert main(["validate", write_spec(tmp_path, spec)]) == 0
        assert "ensemble (2 members)" in capsys.readouterr().out

    def test_missing_file_exit_3(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 3

    def test_dump_normalized_keeps_options(self, tmp_path):
        options = {"seed": 3, "restarts": 2, "tol": 1e-6}
        out = tmp_path / "norm.json"
        spec = write_spec(tmp_path, z_spec(options=options))
        assert main(["validate", spec, "--dump-normalized", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["options"] == options

    def test_dump_normalized_round_trip(self, full_file, tmp_path):
        out = str(tmp_path / "norm.json")
        assert main(["validate", full_file, "--dump-normalized", out]) == 0
        orig = parse_spec(full_file)
        normed = parse_spec(out)
        for a, b in zip(orig.povm.elements, normed.povm.elements):
            np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(
            orig.state.matrix, normed.state.matrix, atol=1e-12
        )
        np.testing.assert_allclose(
            orig.constraint.F, normed.constraint.F, atol=1e-12
        )
        for a, b in zip(orig.ensemble.states, normed.ensemble.states):
            np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12)


def edit(spec, *changes):
    """spec with each (key path, value) change made; a dict value is merged into
    the dict it replaces, so a POVM entry keeps its label."""
    for path, value in changes:
        *head, last = path
        parent = spec
        for key in head:
            parent = parent[key]
        old = parent[last] if isinstance(parent, list) or last in parent else None
        if isinstance(old, dict) and isinstance(value, dict):
            value = {**old, **value}
        parent[last] = value
    return spec


def bad(kind):
    """A matrix object with one fault of this kind; its trace is 1 where that matters."""
    if kind == "non-number":
        m = mat(np.eye(2) / 2)
        m["re"][1][1] = "0.5"
        return m
    return mat({
        "non-finite": [[math.nan, 0.0], [0.0, 1.0]],
        "non-Hermitian": [[0.5, 1.0], [0.0, 0.5]],
        "negative": np.diag([1.5, -0.5]),
        "shape": np.eye(3) / 3,
    }[kind])


POVM1, STATE, F, MEMBER0, MEMBER1 = (
    ("povm", 1), ("state",), ("constraint", "F"), ("ensemble", "states", 0),
    ("ensemble", "states", 1))
SHAPE = "expected 2x2 arrays, got (3, 3) and (3, 3)"
NOT_NUMERIC = "re/im entries are not numeric"
NEG = "eigenvalue -5.000e-01 below -1e-9"


def case_id(value):
    """povm.1, non-finite, exit2: a readable id for a key path, a fault kind or a want."""
    if isinstance(value, str):
        return value
    if isinstance(value[0], str):
        return ".".join(map(str, value))
    return f"exit{value[0]}"


def invariant(msg):
    return 2, f"invariant violation: {msg}\n"


def parse(msg):
    return 3, "parse error: {path}: " + msg + "\n"


class TestErrorOrder:
    """The first fault of a spec is the one reported: sections are checked in
    the order POVM, state, constraint, ensemble, options, each parsed before
    it is checked, and a parse fault comes after the checks of the sections
    before it."""

    def check(self, tmp_path, capsys, spec, want):
        path = write_spec(tmp_path, spec)
        code = main(["validate", path])
        assert (code, capsys.readouterr().err) == (want[0], want[1].format(path=path))

    @pytest.mark.parametrize("where, kind, want", [
        (POVM1, "non-finite", invariant("POVM element 1 has non-finite entries")),
        (POVM1, "non-Hermitian", invariant("POVM element 1 is not Hermitian")),
        (POVM1, "negative", invariant(f"POVM element 1 {NEG}")),
        (POVM1, "shape", parse(f"povm[1]: {SHAPE}")),
        (POVM1, "non-number", parse(f"povm[1]: {NOT_NUMERIC}")),
        (STATE, "non-finite", invariant("state: density operator has non-finite entries")),
        (STATE, "non-Hermitian",
         invariant("state: density operator is not Hermitian within 1e-8")),
        (STATE, "negative", invariant(f"state: state {NEG}")),
        (STATE, "shape", parse(f"state: {SHAPE}")),
        (STATE, "non-number", parse(f"state: {NOT_NUMERIC}")),
        (F, "non-finite", invariant("constraint: constraint operator F has non-finite entries")),
        (F, "non-Hermitian", invariant("constraint: constraint operator F is not Hermitian")),
        (F, "negative",
         invariant("constraint: constraint operator F has eigenvalue below -1e-9")),
        (F, "shape", parse(f"constraint.F: {SHAPE}")),
        (F, "non-number", parse(f"constraint.F: {NOT_NUMERIC}")),
        (MEMBER1, "non-finite",
         invariant("ensemble: density operator has non-finite entries")),
        (MEMBER1, "non-Hermitian",
         invariant("ensemble: density operator is not Hermitian within 1e-8")),
        (MEMBER1, "negative", invariant(f"ensemble: state {NEG}")),
        (MEMBER1, "shape", parse(f"ensemble.states[1]: {SHAPE}")),
        (MEMBER1, "non-number", parse(f"ensemble.states[1]: {NOT_NUMERIC}")),
    ], ids=case_id)
    def test_one_bad_matrix(self, tmp_path, capsys, where, kind, want):
        self.check(tmp_path, capsys, edit(full_spec(), (where, bad(kind))), want)

    @pytest.mark.parametrize("changes, want", [
        # an invariant fault before a parse fault
        ([(POVM1, bad("negative")), (STATE, bad("shape"))], invariant(f"POVM element 1 {NEG}")),
        ([(STATE, bad("non-Hermitian")), (MEMBER0, bad("non-number"))],
         invariant("state: density operator is not Hermitian within 1e-8")),
        ([(F, bad("non-finite")), (MEMBER1, bad("shape"))],
         invariant("constraint: constraint operator F has non-finite entries")),
        ([(POVM1, bad("negative")), (("constraint",), {"F": mat(np.eye(2))})],
         invariant(f"POVM element 1 {NEG}")),
        ([(("constraint", "E"), "x"), (("ensemble", "states"), 5)],
         invariant("constraint: E must be a number, got 'x'")),
        ([(("ensemble", "weights"), ["a", 0.5]), (("options",), [1])],
         invariant("ensemble: weights must be numbers, got ['a', 0.5]")),
        ([(STATE, bad("negative")), (("options",), [1])], invariant(f"state: state {NEG}")),
        # a parse fault before an invariant fault
        ([(("povm", 0), bad("non-number")), (STATE, bad("negative"))],
         parse(f"povm[0]: {NOT_NUMERIC}")),
        ([(STATE, bad("shape")), (F, bad("negative"))], parse(f"state: {SHAPE}")),
        ([(F, bad("non-number")), (MEMBER0, bad("non-finite"))],
         parse(f"constraint.F: {NOT_NUMERIC}")),
        ([(STATE, [[1.0, 0.0], [0.0, 0.0]]), (MEMBER1, bad("negative"))],
         parse('state: expected an object with "re" and "im" arrays')),
        # two faults in one section: finiteness is checked over all POVM
        # elements first, ensemble members one by one, the members before
        # the weights
        ([(("povm", 0), bad("non-Hermitian")), (POVM1, bad("non-finite"))],
         invariant("POVM element 1 has non-finite entries")),
        ([(MEMBER0, bad("negative")), (MEMBER1, bad("non-finite"))],
         invariant(f"ensemble: state {NEG}")),
        ([(("ensemble", "weights"), [0.2, 0.2]), (MEMBER1, bad("negative"))],
         invariant(f"ensemble: state {NEG}")),
    ], ids=range(14))
    def test_two_faults(self, tmp_path, capsys, changes, want):
        self.check(tmp_path, capsys, edit(full_spec(), *changes), want)

    @pytest.mark.parametrize("where, kind, want", [
        (("povm", 0), "non-Hermitian", invariant("POVM label '0' repeats")),
        (POVM1, "non-finite", invariant("POVM label '0' repeats")),
        (POVM1, "negative", invariant("POVM label '0' repeats")),
        (POVM1, "non-number", parse(f"povm[1]: {NOT_NUMERIC}")),
    ], ids=case_id)
    def test_repeated_label_and_bad_element(self, tmp_path, capsys, where, kind, want):
        spec = edit(full_spec(), (("povm", 1, "label"), "0"), (where, bad(kind)))
        self.check(tmp_path, capsys, spec, want)

    @pytest.mark.parametrize("where, matrix, want", [
        (STATE, [[1.0, 1.0], [0.0, 1.0]],
         invariant("state: density operator is not Hermitian within 1e-8")),
        (STATE, np.diag([2.0, -0.5]),
         invariant("state: trace 1.5 deviates from 1 by more than 1e-9")),
        (STATE, [[math.nan, 0.0], [0.0, 2.0]],
         invariant("state: density operator has non-finite entries")),
        (MEMBER0, [[1.0, 1.0], [0.0, 1.0]],
         invariant("ensemble: density operator is not Hermitian within 1e-8")),
        (MEMBER0, np.diag([2.0, 0.0]),
         invariant("ensemble: trace 2.0 deviates from 1 by more than 1e-9")),
    ])
    def test_trace_and_hermiticity(self, tmp_path, capsys, where, matrix, want):
        self.check(tmp_path, capsys, edit(full_spec(), (where, mat(matrix))), want)


def bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


@pytest.mark.parametrize("d, m", [(2, 3), (3, 4), (4, 6)])
def test_parsed_objects_match_the_public_constructors_bit_for_bit(tmp_path, d, m):
    rng = np.random.default_rng([41, d])
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    F = g @ g.conj().T
    members = [random_density(rng, d).matrix for _ in range(3)]
    spec = {
        "dim": d,
        "povm": [{"label": f"o{k}", **mat(e)}
                 for k, e in enumerate(random_povm(rng, d, m).elements)],
        "state": mat(random_density(rng, d).matrix),
        "constraint": {"F": mat(F), "E": 0.25},
        "ensemble": {"weights": [0.25, 0.5, 0.25], "states": [mat(s) for s in members]},
    }
    parsed = parse_spec(write_spec(tmp_path, spec))

    def decoded(obj):
        return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)

    povm = FinitePOVM.from_pairs([(e["label"], decoded(e)) for e in spec["povm"]])
    assert parsed.povm.labels == povm.labels
    assert bits(parsed.povm.elements) == bits(povm.elements)
    assert bits(parsed.povm._spectrum) == bits(povm._spectrum)
    assert bits(parsed.state.matrix) == bits(DensityOperator(decoded(spec["state"])).matrix)
    assert bits(parsed.constraint.F) == bits(EnergyConstraint(decoded(spec["constraint"]["F"]),
                                                              0.25).F)
    assert parsed.constraint.E == 0.25
    assert bits(parsed.ensemble.weights) == bits(np.array([0.25, 0.5, 0.25]))
    for got, obj in zip(parsed.ensemble.states, spec["ensemble"]["states"], strict=True):
        assert bits(got.matrix) == bits(DensityOperator(decoded(obj)).matrix)


class TestSubcommands:
    def test_measure(self, full_file, capsys):
        assert main(["measure", full_file]) == 0
        out = capsys.readouterr().out
        assert "p(0) = 0.750000" in out and "p(1) = 0.250000" in out

    def test_measure_csv(self, full_file, tmp_path):
        path = tmp_path / "probs.csv"
        assert main(["measure", full_file, "--csv", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == (
            "outcome,probability\n0,0.750000\n1,0.250000\n")

    def test_measure_requires_state(self, z_file, capsys):
        assert main(["measure", z_file]) == 2

    def test_posterior(self, full_file, capsys):
        assert main(["posterior", full_file, "--outcome", "0"]) == 0
        out = capsys.readouterr().out
        assert "posterior entropy 0.000000 bits" in out

    def test_posterior_bad_index(self, full_file, capsys):
        assert main(["posterior", full_file, "--outcome", "5"]) == 2

    def test_er(self, full_file, capsys):
        assert main(["er", full_file]) == 0
        assert "ER = 0.811278 bits" in capsys.readouterr().out

    def test_mi(self, full_file, capsys):
        assert main(["mi", full_file]) == 0
        assert "I = 1.000000 bits" in capsys.readouterr().out

    def test_capacity(self, z_file, capsys):
        assert main(["capacity", z_file, "--restarts", "2"]) == 0
        assert "C = 1.000000 bits" in capsys.readouterr().out

    def test_capacity_projective_with_a_starved_outcome(self, tmp_path, capsys):
        # this run used to exit 2 with "invariant violation: Singular matrix"
        M = random_rank1_povm(np.random.default_rng([48, 5, 2]), 5, 5)
        spec = {"dim": 5, "povm": [{"label": lab, **mat(el)}
                                   for lab, el in zip(M.labels, M.elements)]}
        path = write_spec(tmp_path, spec)
        assert main(["capacity", path, "--seed", "0", "--restarts", "4"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith(f"C = {math.log2(5):.6f} bits\n")

    def test_capacity_nonconverged_exit_5(self, z_file, tmp_path, capsys, monkeypatch):
        # real runs converge even at --tol 1e-300, so the optimizer is stubbed
        state = DensityOperator(np.diag([1.0, 0.0]))
        result = CapacityResult(0.25, Ensemble([1.0], (state,)), 7, False, (0.25,))
        monkeypatch.setattr(cli.cap, "classical_capacity", lambda *args: result)
        path = tmp_path / "c.csv"
        assert main(["capacity", z_file, "--csv", str(path)]) == 5
        assert capsys.readouterr().out == (
            "C = 0.250000 bits\n"
            "ensemble size: 1; iterations: 7; converged: False\n"
            "warning: optimizer did not converge; value is a lower bound\n")
        assert path.read_text(encoding="utf-8") == (
            "value_bits,converged,iterations\n0.250000,False,7\n")

    def test_capacity_nan_tolerance_exit_2(self, z_file, capsys):
        assert main(["capacity", z_file, "--tol", "nan"]) == 2
        assert "value_tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [2.7, True])
    @pytest.mark.parametrize("key", ["restarts", "seed"])
    def test_non_integral_option_exit_2(self, tmp_path, capsys, key, value):
        spec = z_spec(options={key: value})
        assert main(["capacity", write_spec(tmp_path, spec)]) == 2
        assert f'option "{key}" must be an integer, got {value!r}' in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("restarts", [2]), ("restarts", None), ("restarts", "2"),
        ("seed", [3]), ("seed", None), ("seed", "3"),
        ("tol", [1e-6]), ("tol", None), ("tol", "1e-6"), ("tol", True),
    ])
    def test_non_number_option_exit_2(self, tmp_path, capsys, key, value):
        spec = z_spec(options={key: value})
        assert main(["capacity", write_spec(tmp_path, spec)]) == 2
        what = "a number" if key == "tol" else "an integer"
        assert capsys.readouterr().err == (
            f'invariant violation: option "{key}" must be {what}, got {value!r}\n')

    def test_huge_integer_tolerance_exit_2(self, tmp_path, capsys):
        spec = z_spec(options={"tol": 10**400})
        assert main(["capacity", write_spec(tmp_path, spec)]) == 2
        assert capsys.readouterr().err == (
            'invariant violation: option "tol" is too large for a float\n')

    def test_huge_integer_energy_exit_2(self, tmp_path, capsys):
        spec = z_spec(constraint={"F": mat(np.diag([0.0, 1.0])), "E": 10**400})
        assert main(["gibbs", write_spec(tmp_path, spec)]) == 2
        assert "invariant violation: constraint: " in capsys.readouterr().err

    def test_huge_integer_matrix_entry_exit_3(self, tmp_path, capsys):
        spec = z_spec(state={"re": [[10**400, 0], [0, 0]], "im": [[0, 0], [0, 0]]})
        assert main(["measure", write_spec(tmp_path, spec)]) == 3
        assert "state: re/im entries are not numeric" in capsys.readouterr().err

    def test_integer_tolerance_accepted(self, tmp_path, capsys):
        spec = z_spec(options={"tol": 1, "restarts": 2})
        assert main(["capacity", write_spec(tmp_path, spec)]) == 0
        assert "C = 1.000000 bits" in capsys.readouterr().out

    def test_integral_float_options_accepted(self, tmp_path, capsys):
        spec = z_spec(options={"restarts": 2.0, "seed": 3.0})
        assert main(["capacity", write_spec(tmp_path, spec)]) == 0
        assert "C = 1.000000 bits" in capsys.readouterr().out

    def test_ea_pure_path(self, z_file, capsys):
        assert main(["ea", z_file]) == 0
        out = capsys.readouterr().out
        assert "C_ea = 1.000000 bits" in out
        assert "path: gibbs (rank-1 POVM)" in out

    def test_ea_ascent_path(self, tmp_path, capsys):
        assert main(["ea", write_spec(tmp_path, ascent_spec())]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert re.fullmatch(r"path: concave ascent; steps: \d+; converged: True", line)

    def test_gibbs(self, full_file, capsys):
        assert main(["gibbs", full_file]) == 0
        out = capsys.readouterr().out
        assert "beta = 0.000000" in out and "entropy = 1.000000 bits" in out

    def test_gibbs_nan_energy_bound_exit_2(self, tmp_path, capsys):
        spec = z_spec(constraint={"F": mat(np.diag([0.0, 1.0])), "E": float("nan")})
        assert main(["gibbs", write_spec(tmp_path, spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "energy bound E must be >= 0, got nan" in captured.err

    def test_gibbs_infinite_energy_bound(self, tmp_path, capsys):
        spec = z_spec(constraint={"F": mat(np.diag([0.0, 1.0])), "E": float("inf")})
        assert main(["gibbs", write_spec(tmp_path, spec)]) == 0
        assert "beta = 0.000000" in capsys.readouterr().out

    @pytest.mark.parametrize("value", [True, "0.25", [0.25], None])
    def test_non_number_energy_bound_exit_2(self, tmp_path, capsys, value):
        spec = z_spec(constraint={"F": mat(np.diag([0.0, 1.0])), "E": value})
        assert main(["gibbs", write_spec(tmp_path, spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"invariant violation: constraint: E must be a number, got {value!r}\n")

    def test_gibbs_infeasible_exit_4(self, tmp_path, capsys):
        spec = z_spec(constraint={"F": mat(np.diag([1.0, 2.0])), "E": 0.5})
        assert main(["gibbs", write_spec(tmp_path, spec)]) == 4

    def test_gibbs_bracket_failure_exit_4(self, tmp_path, capsys):
        # E - f0 = 1e-26 is above the ground energy, but no beta below 2^60 reaches it
        spec = z_spec(constraint={"F": mat(np.diag([0.0, 1e-25, 1.0])), "E": 1e-26})
        spec["dim"], spec["povm"] = 3, [{"label": "0", **mat(np.eye(3))}]
        assert main(["gibbs", write_spec(tmp_path, spec)]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "beta bracket exceeded 2^60" in captured.err

    def test_capacity_infeasible_exit_4(self, tmp_path, capsys):
        spec = z_spec(constraint={"F": mat(np.diag([1.0, 2.0])), "E": 0.5})
        assert main(["capacity", write_spec(tmp_path, spec)]) == 4

    def test_code_sim(self, full_file, capsys):
        assert main([
            "code-sim", full_file, "--rate", "0.5", "--nlist", "2",
            "--trials", "64",
        ]) == 0
        out = capsys.readouterr().out
        assert "rate R = 0.500000 bits/use" in out and "n =   2" in out

    def test_code_sim_single_codeword_line(self, full_file, capsys):
        # 2^{nR} rounds to 1 at R = 1e-17: the exact entry, no trials run
        assert main(["code-sim", full_file, "--rate", "1e-17", "--nlist", "4",
                     "--trials", "10"]) == 0
        assert capsys.readouterr().out == (
            "rate R = 0.000000 bits/use\n"
            "n =   4  N =      1  error = 0.000000 ± 0.000000\n")

    def test_code_sim_csv_reports_exact_trials(self, full_file, tmp_path):
        path = tmp_path / "rates.csv"
        assert main([
            "code-sim", full_file, "--rate", "0.5", "--nlist", "2,4",
            "--trials", "100", "--csv", str(path),
        ]) == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n,N,error,half_width,trials"
        assert [row.split(",")[-1] for row in lines[1:]] == ["100", "100"]

    def test_code_sim_zero_trials_exit_2(self, full_file, capsys):
        assert main([
            "code-sim", full_file, "--rate", "0.5", "--nlist", "4",
            "--trials", "0",
        ]) == 2
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("nlist", ["0", "-2"])
    def test_code_sim_nonpositive_block_length_exit_2(self, full_file, capsys, nlist):
        assert main(["code-sim", full_file, "--rate", "0.5", "--nlist", nlist,
                     "--trials", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "block lengths must be >= 1" in captured.err

    def test_code_sim_nan_rate_exit_2(self, full_file, capsys):
        assert main(["code-sim", full_file, "--rate", "nan", "--nlist", "4",
                     "--trials", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invariant violation: rate R must be positive\n"

    def test_code_sim_negative_seed_exit_2(self, full_file, capsys):
        assert main(["code-sim", full_file, "--rate", "0.5", "--nlist", "4",
                     "--trials", "4", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("invariant violation: seed must be a non-negative integer, "
                                "got -1\n")

    @pytest.mark.parametrize("command", ["capacity", "ea"])
    def test_negative_seed_exit_2(self, full_file, capsys, command):
        assert main([command, full_file, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("invariant violation: seed must be a non-negative integer, "
                                "got -1\n")

    @pytest.mark.parametrize("env", ["abc", "-1"])
    def test_bad_env_seed_exit_2(self, full_file, capsys, monkeypatch, env):
        monkeypatch.setenv("HYBRIDCAP_SEED", env)
        assert main(["capacity", full_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == {
            "abc": "invariant violation: HYBRIDCAP_SEED must be an integer, got 'abc'\n",
            "-1": "invariant violation: seed must be a non-negative integer, got -1\n",
        }[env]

    @pytest.mark.parametrize("nlist", ["2,,4", "x"])
    def test_code_sim_malformed_nlist_exit_2(self, full_file, capsys, nlist):
        assert main(["code-sim", full_file, "--rate", "0.5", "--nlist", nlist,
                     "--trials", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("invariant violation: --nlist must be comma-separated "
                                f"integers, got {nlist!r}\n")

    def test_code_sim_oversized_codebook_exit_2(self, full_file, capsys):
        # 2^30 codewords at n = 30: rejected before anything is allocated
        tracemalloc.start()
        try:
            code = main(["code-sim", full_file, "--rate", "1", "--nlist", "30",
                         "--trials", "10"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "2^30 codewords" in capsys.readouterr().err
        assert peak < 1e6


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["posterior", "--outcome", "0", "--csv", "x.csv"], ["er", "--csv", "x.csv"],
        ["mi", "--csv", "x.csv"], ["gibbs", "--csv", "x.csv"], ["measure", "--seed", "1"],
        ["posterior", "--outcome", "0", "--seed", "1"], ["er", "--seed", "1"],
        ["mi", "--seed", "1"], ["gibbs", "--seed", "1"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_unused_flag_is_a_usage_error(self, full_file, tmp_path, monkeypatch, capsys,
                                          argv):
        # each flag used to be accepted and ignored: exit 0 and no file written
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([argv[0], full_file, *argv[1:]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command, needs", [
        ("measure", "state"), ("posterior", "state"), ("er", "state"), ("mi", "ensemble"),
        ("gibbs", "constraint"), ("code-sim", "ensemble"),
    ])
    def test_missing_section_exit_2(self, z_file, capsys, command, needs):
        extra = {"posterior": ["--outcome", "9"], "code-sim": ["--rate", "0.5"]}
        assert main([command, z_file, *extra.get(command, [])]) == 2
        assert capsys.readouterr() == (
            "", f'invariant violation: this subcommand needs a "{needs}" section '
                'in the spec file\n')


class TestOpticsCurves:
    def test_stdout_table(self, capsys):
        assert main(["optics-curves", "--emin", "0.5", "--emax", "2.0",
                     "--steps", "4"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "E,C_het,C_hom,C_ea"
        assert "2.000000,1.321928,2.000000,2.427376" in out

    def test_csv_output(self, tmp_path):
        path = tmp_path / "curves.csv"
        assert main(["optics-curves", "--emin", "0.5", "--emax", "2.0",
                     "--steps", "4", "--csv", str(path)]) == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "E,C_het,C_hom,C_ea"
        assert lines[-1] == "2.000000,1.321928,2.000000,2.427376"

    def test_bad_range_exit_2(self, capsys):
        assert main(["optics-curves", "--emin", "0.2", "--emax", "1.0"]) == 2


    @pytest.mark.parametrize("emax", ["inf", "nan"])
    def test_non_finite_emax_exit_2(self, capsys, emax):
        assert main(["optics-curves", "--emin", "0.5", "--emax", emax]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "E_max" in err


class TestSeedsAndDeterminism:
    def test_byte_identical_runs(self, full_file):
        args = ["code-sim", full_file, "--rate", "0.5", "--nlist", "2,4",
                "--trials", "64", "--seed", "3"]
        a = run_cli(args)
        b = run_cli(args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_ea_ascent_reruns_byte_identical(self, tmp_path):
        args = ["ea", write_spec(tmp_path, ascent_spec())]
        a = run_cli(args)
        b = run_cli(args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout and a.stderr == b.stderr
        path = a.stdout.splitlines()[1]
        assert path.startswith("path: concave ascent; steps: ")
        assert path.endswith("; converged: True")

    def test_flag_beats_env(self, full_file, capsys, monkeypatch):
        monkeypatch.setenv("HYBRIDCAP_SEED", "11")
        main(["code-sim", full_file, "--rate", "0.5", "--nlist", "4",
              "--trials", "64", "--seed", "3"])
        with_flag = capsys.readouterr().out
        monkeypatch.delenv("HYBRIDCAP_SEED")
        main(["code-sim", full_file, "--rate", "0.5", "--nlist", "4",
              "--trials", "64", "--seed", "3"])
        assert capsys.readouterr().out == with_flag

    def test_file_seed_beats_env(self, tmp_path, capsys, monkeypatch):
        spec = z_spec(
            ensemble={
                "weights": [0.5, 0.5],
                "states": [mat(np.diag([1.0, 0.0])), mat(np.diag([0.0, 1.0]))],
            },
            options={"seed": 3},
        )
        path = write_spec(tmp_path, spec)
        monkeypatch.setenv("HYBRIDCAP_SEED", "11")
        main(["code-sim", path, "--rate", "0.5", "--nlist", "4",
              "--trials", "64"])
        from_file = capsys.readouterr().out
        monkeypatch.delenv("HYBRIDCAP_SEED")
        main(["code-sim", path, "--rate", "0.5", "--nlist", "4",
              "--trials", "64", "--seed", "3"])
        assert capsys.readouterr().out == from_file

    def test_env_seed_used(self, tmp_path, capsys, monkeypatch):
        spec = z_spec(
            ensemble={
                "weights": [0.5, 0.5],
                "states": [mat(np.diag([1.0, 0.0])), mat(np.diag([0.0, 1.0]))],
            },
        )
        path = write_spec(tmp_path, spec)
        monkeypatch.setenv("HYBRIDCAP_SEED", "3")
        main(["code-sim", path, "--rate", "0.5", "--nlist", "4",
              "--trials", "64"])
        from_env = capsys.readouterr().out
        monkeypatch.setenv("HYBRIDCAP_SEED", "99")
        main(["code-sim", path, "--rate", "0.5", "--nlist", "4",
              "--trials", "64", "--seed", "3"])
        assert capsys.readouterr().out == from_env
