"""The public surface: exported names, optimizer settings, prior-step parameters.

Dropping or adding a public name or a knob means editing this file; the
change log then says why the removal or addition is safe.
"""

import dataclasses
import inspect

import hybridcap

PUBLIC = [
    "CapacityResult", "Codebook", "CurveRow", "DecoderPartition", "DensityOperator",
    "EnergyConstraint", "Ensemble", "FinitePOVM", "GibbsSolution", "HermEigResult",
    "HybridState", "OptimizerConfig", "OutcomeDistribution", "RateExperimentResult",
    "average_error", "average_state", "ba_prior_step", "c_heterodyne", "c_homodyne",
    "cea_oscillator", "chi_cq", "classical_capacity", "codeword_distribution",
    "curve_table", "ea_capacity", "energy_ok", "entropy_reduction",
    "gibbs_state", "herm_eig", "homodyne_entropy_bound", "hybrid_entropy",
    "hybrid_relative_entropy", "is_pure_povm", "matrix_sqrt_psd", "measure",
    "ml_partition", "mutual_information", "posterior",
    "rate_experiment", "relative_entropy_q", "shannon_entropy",
    "truncated_oscillator_check", "validate_hermitian", "vn_entropy",
]


def test_exported_names():
    assert sorted(hybridcap.__all__) == PUBLIC


def test_optimizer_config_fields():
    fields = [f.name for f in dataclasses.fields(hybridcap.OptimizerConfig)]
    assert fields == ["seed", "restarts", "max_iterations", "value_tolerance"]


def test_ba_prior_step_parameters():
    assert list(inspect.signature(hybridcap.ba_prior_step).parameters) == ["pi", "M"]
