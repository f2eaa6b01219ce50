"""Hand-value tests of the benchmark's reference computations.

Run with ``python3 -m pytest perfbench``.
"""

import math

import numpy as np
import pytest

import oracle


def h2(p):
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def test_blahut_arimoto_z_povm_is_one_bit():
    assert oracle.blahut_arimoto(np.eye(2)) == pytest.approx(1.0, abs=1e-12)


def test_blahut_arimoto_bsc():
    W = np.array([[0.75, 0.25], [0.25, 0.75]])
    assert oracle.blahut_arimoto(W) == pytest.approx(1.0 - h2(0.75), abs=1e-12)
    assert oracle.blahut_arimoto(W) == pytest.approx(0.18872, abs=1e-5)


def test_blahut_arimoto_z_channel():
    # Z channel with crossover 1/2: C = log2(5/4)
    W = np.array([[1.0, 0.0], [0.5, 0.5]])
    assert oracle.blahut_arimoto(W) == pytest.approx(math.log2(1.25), abs=1e-12)


def test_mutual_information_and_entropies():
    assert oracle.mutual_information([0.5, 0.5], np.eye(2)) == pytest.approx(1.0)
    assert oracle.vn_entropy(np.eye(4) / 4) == pytest.approx(2.0)
    assert oracle.entropy_of_probs([1.0, 0.0]) == 0.0


def test_entropy_reduction_of_projective_measurement_is_state_entropy():
    z = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    rho = np.diag([0.75, 0.25]).astype(complex)
    assert oracle.entropy_reduction(rho, z) == pytest.approx(h2(0.75), abs=1e-12)


def test_posterior_of_trivial_measurement_is_the_state():
    rho = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
    spec = oracle.posterior_spectrum(rho, np.eye(2) / 2)
    assert np.allclose(spec, np.linalg.eigvalsh(rho))


def test_gibbs_two_level():
    E = 1.0 / (1.0 + math.e)
    beta, energy, entropy = oracle.gibbs(np.diag([0.0, 1.0]), E)
    assert beta == pytest.approx(1.0, abs=1e-9)
    assert energy == pytest.approx(E, abs=1e-12)
    assert entropy == pytest.approx(h2(E), abs=1e-12)


def test_gibbs_slack_constraint_is_maximally_mixed():
    assert oracle.gibbs(np.diag([0.0, 1.0, 2.0]), 5.0) == (0.0, 1.0, math.log2(3))


def test_ml_error_brute_force():
    sure = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    same = np.array([[[0.5, 0.5]], [[0.5, 0.5]]])
    assert oracle.ml_error(sure) == 0.0
    assert oracle.ml_error(same) == pytest.approx(0.5)
    # BSC(0.25), repetition code of length 3: error = P(2 or 3 flips)
    bsc = np.array([[[0.75, 0.25]] * 3, [[0.25, 0.75]] * 3])
    assert oracle.ml_error(bsc) == pytest.approx(3 * 0.25**2 * 0.75 + 0.25**3)
    assert oracle.partition_error(bsc, lambda w: 1) == pytest.approx(0.5)


def test_oscillator_closed_forms():
    assert oracle.c_heterodyne(1.5) == pytest.approx(1.0)
    assert oracle.c_homodyne(0.5) == 0.0
    assert oracle.cea_oscillator(0.5) == 0.0
    assert oracle.cea_oscillator(1.5) == pytest.approx(2.0)
