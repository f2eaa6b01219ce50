import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

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


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


@pytest.fixture
def z_file(tmp_path):
    return write_spec(tmp_path, z_spec())


@pytest.fixture
def full_file(tmp_path):
    spec = z_spec(
        state=mat(np.diag([0.75, 0.25])),
        constraint={"F": mat(np.diag([0.0, 1.0])), "E": 0.5},
        ensemble={
            "weights": [0.5, 0.5],
            "states": [mat(np.diag([1.0, 0.0])), mat(np.diag([0.0, 1.0]))],
        },
    )
    return write_spec(tmp_path, spec)


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

    def test_truncated_json_exit_3(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2, "povm": [', encoding="utf-8")
        assert main(["validate", str(path)]) == 3

    def test_missing_field_exit_3(self, tmp_path):
        assert main(["validate", write_spec(tmp_path, {"dim": 2})]) == 3

    def test_missing_file_exit_3(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 3

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


class TestSubcommands:
    def test_measure(self, full_file, capsys):
        assert main(["measure", full_file]) == 0
        out = capsys.readouterr().out
        assert "p(0) = 0.750000" in out and "p(1) = 0.250000" in out

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

    def test_capacity_nan_tolerance_exit_2(self, z_file, capsys):
        assert main(["capacity", z_file, "--tol", "nan"]) == 2
        assert "value_tolerance" in capsys.readouterr().err

    def test_ea_pure_path(self, z_file, capsys):
        assert main(["ea", z_file]) == 0
        out = capsys.readouterr().out
        assert "C_ea = 1.000000 bits" in out
        assert "path: gibbs (rank-1 POVM)" in out

    def test_gibbs(self, full_file, capsys):
        assert main(["gibbs", full_file]) == 0
        out = capsys.readouterr().out
        assert "beta = 0.000000" in out and "entropy = 1.000000 bits" in out

    def test_gibbs_infeasible_exit_4(self, tmp_path, capsys):
        spec = z_spec(constraint={"F": mat(np.diag([1.0, 2.0])), "E": 0.5})
        assert main(["gibbs", write_spec(tmp_path, spec)]) == 4

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


class TestSeedsAndDeterminism:
    def test_byte_identical_runs(self, full_file):
        args = ["code-sim", full_file, "--rate", "0.5", "--nlist", "2,4",
                "--trials", "64", "--seed", "3"]
        a = run_cli(args)
        b = run_cli(args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

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
