import math

import numpy as np
import pytest

from hybridcap import (
    c_heterodyne,
    c_homodyne,
    cea_oscillator,
    curve_table,
    homodyne_entropy_bound,
    truncated_oscillator_check,
)
from hybridcap.errors import DomainError


class TestClosedForms:
    def test_common_zero_at_ground_energy(self):
        assert cea_oscillator(0.5) == 0.0
        assert c_homodyne(0.5) == 0.0
        assert c_heterodyne(0.5) == 0.0

    def test_cea_values(self):
        assert abs(cea_oscillator(1.5) - 2.0) <= 1e-12
        assert abs(cea_oscillator(1.0) - (1.5 * math.log2(1.5) + 0.5)) <= 1e-12
        assert abs(cea_oscillator(1.0) - 1.377444) <= 1e-6

    def test_homodyne_values(self):
        assert abs(c_homodyne(2.0) - 2.0) <= 1e-12
        assert abs(c_homodyne(1.0) - 1.0) <= 1e-12

    def test_heterodyne_values(self):
        assert abs(c_heterodyne(1.5) - 1.0) <= 1e-12
        assert abs(c_heterodyne(3.5) - 2.0) <= 1e-12

    def test_entropy_bound(self):
        assert abs(homodyne_entropy_bound(1.0 / (4 * math.pi * math.e))) <= 1e-12
        assert abs(homodyne_entropy_bound(1.0)
                   - 0.5 * math.log2(4 * math.pi * math.e)) <= 1e-12
        assert abs(homodyne_entropy_bound(1.0) - 2.547096) <= 1e-6
        assert abs(homodyne_entropy_bound(4.0)
                   - homodyne_entropy_bound(1.0) - 1.0) <= 1e-12

    @pytest.mark.parametrize("func", [cea_oscillator, c_homodyne, c_heterodyne])
    def test_domain_guard(self, func):
        with pytest.raises(DomainError):
            func(0.3)

    def test_entropy_bound_domain_guard(self):
        with pytest.raises(DomainError, match="must be positive"):
            homodyne_entropy_bound(0.0)

    @pytest.mark.parametrize("func", [cea_oscillator, homodyne_entropy_bound,
                                      lambda E: truncated_oscillator_check(E, 10)])
    def test_nan_energy_rejected(self, func):
        # NaN used to pass the guards and come back as nan
        with pytest.raises(DomainError, match="E = nan"):
            func(math.nan)

    def test_strictly_increasing(self):
        grid = np.linspace(0.5 + 1e-6, 20.0, 200)
        for func in (cea_oscillator, c_homodyne, c_heterodyne,
                     homodyne_entropy_bound):
            vals = [func(float(e)) for e in grid]
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestCurveTable:
    def test_near_ground_row(self):
        rows = curve_table(0.5, 0.5 + 1e-9, 2)
        assert abs(rows[0].c_het) <= 1e-8
        assert abs(rows[0].c_hom) <= 1e-8
        assert abs(rows[0].c_ea) <= 1e-7

    def test_row_at_two(self):
        rows = curve_table(0.5, 2.0, 4)
        row = rows[-1]
        assert abs(row.c_het - 1.321928) <= 1e-6
        assert abs(row.c_hom - 2.0) <= 1e-6
        assert abs(row.c_ea - 2.427377) <= 1e-6

    def test_row_at_three_halves(self):
        row = curve_table(1.5, 2.5, 2)[0]
        assert abs(row.c_het - 1.0) <= 1e-12
        assert abs(row.c_hom - math.log2(3.0)) <= 1e-12
        assert abs(row.c_ea - 2.0) <= 1e-12

    def test_ordering_and_monotonicity(self):
        rows = curve_table(0.5 + 1e-6, 6.0, 40)
        for r in rows:
            assert r.c_het < r.c_hom - 1e-9
            assert r.c_hom < r.c_ea - 1e-9
        for a, b in zip(rows, rows[1:]):
            assert b.c_het >= a.c_het and b.c_hom >= a.c_hom and b.c_ea >= a.c_ea

    def test_ea_over_hom_ratio_tends_to_one(self):
        # the excess decays like log2(e)/log2(E): slow, but strictly monotone
        ratios = [cea_oscillator(e) / c_homodyne(e) for e in (10.0, 100.0, 1e3, 1e6)]
        assert all(a > b > 1.0 for a, b in zip(ratios, ratios[1:]))
        assert ratios[2] - 1.0 <= 0.041

    def test_bad_args(self):
        with pytest.raises(DomainError):
            curve_table(0.4, 1.0, 5)
        with pytest.raises(DomainError):
            curve_table(1.0, 0.8, 5)
        with pytest.raises(DomainError):
            curve_table(0.5, 1.0, 1)

    @pytest.mark.parametrize("E_max", [math.inf, math.nan])
    def test_non_finite_upper_end(self, E_max):
        with pytest.raises(DomainError, match="E_max < inf"):
            curve_table(0.5, E_max, 5)


class TestTruncatedOscillator:
    def test_ground_state(self):
        numeric, closed, gap = truncated_oscillator_check(0.5, 12)
        assert abs(numeric) <= 1e-12 and closed == 0.0 and abs(gap) <= 1e-12

    def test_converged_truncation(self):
        _, _, gap = truncated_oscillator_check(1.0, 60)
        assert abs(gap) <= 1e-6

    def test_single_level_rejected(self):
        with pytest.raises(DomainError, match="n_max must be >= 2"):
            truncated_oscillator_check(1.0, 1)

    def test_non_integer_level_count_rejected(self):
        # 2.5 used to run 3 levels without a word
        with pytest.raises(TypeError, match="integer"):
            truncated_oscillator_check(1.0, 2.5)

    def test_refinement_monotone(self):
        gaps = [abs(truncated_oscillator_check(1.0, n)[2]) for n in (3, 10, 30, 60)]
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < gaps[0]
