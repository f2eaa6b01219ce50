"""Closed-form capacities of the oscillator measurement channels.

Energy convention: the constraint operator is the oscillator energy
(P² + Q²)/2, so the ground energy is 1/2 and a truncated level ladder has
eigenvalues k + 1/2.  All values in bits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .capacity import gibbs_state
from .errors import DomainError

_GROUND = 0.5


@dataclass(frozen=True)
class CurveRow:
    E: float
    c_het: float
    c_hom: float
    c_ea: float


def _require(E: float, minimum: float = _GROUND):
    if not E >= minimum:  # NaN fails every comparison
        raise DomainError(f"E = {E} below the admissible minimum {minimum}")


def cea_oscillator(E: float) -> float:
    """Entanglement-assisted capacity (E+1/2)log₂(E+1/2) - (E-1/2)log₂(E-1/2)."""
    _require(E)
    hi = E + 0.5
    lo = E - 0.5
    second = 0.0 if lo <= 0.0 else lo * math.log2(lo)
    return hi * math.log2(hi) - second


def c_homodyne(E: float) -> float:
    """Classical capacity log₂(2E) of the position (homodyne) measurement."""
    _require(E)
    return math.log2(2.0 * E)


def c_heterodyne(E: float) -> float:
    """Classical capacity log₂(E + 1/2) of the coherent-state (heterodyne) measurement."""
    _require(E)
    return math.log2(E + 0.5)


def homodyne_entropy_bound(E: float) -> float:
    """Maximal differential entropy (1/2)log₂(4πeE) of the position statistics."""
    if not E > 0.0:  # NaN fails every comparison
        raise DomainError(f"E = {E} must be positive")
    return 0.5 * math.log2(4.0 * math.pi * math.e * E)


def curve_table(E_min: float, E_max: float, steps: int) -> list[CurveRow]:
    """Uniform E grid (endpoints included) with the three capacity columns."""
    if not (_GROUND <= E_min < E_max < math.inf):
        raise DomainError(f"need 1/2 <= E_min < E_max < inf, got ({E_min}, {E_max})")
    if steps < 2:
        raise DomainError("steps must be >= 2")
    grid = np.linspace(E_min, E_max, steps)
    return [
        CurveRow(float(e), c_heterodyne(float(e)), c_homodyne(float(e)),
                 cea_oscillator(float(e)))
        for e in grid
    ]


def truncated_oscillator_check(E: float, n_max: int):
    """Gibbs entropy on a truncated level ladder vs the closed form.

    Builds F = diag(k + 1/2), k = 0..n_max-1, solves for the Gibbs state at
    mean energy E and returns (numeric, closed_form, gap).  The truncation
    error decays geometrically with n_max (thermal tail).
    """
    _require(E)
    n_max = operator.index(n_max)
    if n_max < 2:
        raise DomainError("n_max must be >= 2")
    F = np.diag(np.arange(n_max) + 0.5).astype(np.complex128)
    numeric = gibbs_state(F, E).entropy_bits
    closed = cea_oscillator(E)
    return numeric, closed, numeric - closed
