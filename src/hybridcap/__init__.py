"""Finite-dimensional toolkit for quantum measurement (quantum-classical) channels.

Measurement statistics, posterior states, entropy functionals, classical
and entanglement-assisted capacities, oscillator closed forms, and block
coding experiments.  All entropic quantities are in bits.
"""

from .capacity import (
    CapacityResult,
    GibbsSolution,
    OptimizerConfig,
    ba_prior_step,
    classical_capacity,
    ea_capacity,
    gibbs_state,
    is_pure_povm,
)
from .coding import (
    Codebook,
    DecoderPartition,
    RateExperimentResult,
    average_error,
    codeword_distribution,
    ml_partition,
    rate_experiment,
)
from .hybrid import (
    DensityOperator,
    EnergyConstraint,
    Ensemble,
    FinitePOVM,
    HybridState,
    OutcomeDistribution,
    average_state,
    chi_cq,
    energy_ok,
    entropy_reduction,
    hybrid_entropy,
    hybrid_relative_entropy,
    measure,
    mutual_information,
    posterior,
    relative_entropy_q,
    shannon_entropy,
    vn_entropy,
)
from .optics import (
    CurveRow,
    c_heterodyne,
    c_homodyne,
    cea_oscillator,
    curve_table,
    homodyne_entropy_bound,
    truncated_oscillator_check,
)
from .qmat import HermEigResult, herm_eig, matrix_sqrt_psd, validate_hermitian

import types as _types

# the names above, without the submodules their imports bind
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _types.ModuleType)]
__version__ = "0.1.0"
