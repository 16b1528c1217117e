import numpy as np
import pytest
from hypothesis import given, strategies as st

from qlwave.exceptions import ConfigurationError
from qlwave.filters import (
    FilterSpec,
    check_assumptions,
    default_xi_grid,
    grimm_hochbruck,
    hairer_lubich,
    impulse,
    min_c_for,
    parse_filter,
    phi,
    psi1,
    scalar_inequality_check,
    sinc,
    sinc_c,
)

ADMISSIBLE = (hairer_lubich(), grimm_hochbruck(), sinc_c(2.0), sinc_c(3.0))


class TestSinc:
    def test_zero(self):
        assert sinc(0.0) == 1.0

    def test_pi(self):
        assert abs(sinc(np.pi)) < 1e-15

    def test_matches_numpy_normalized_sinc(self):
        # np.sinc evaluates sin(pi*(x/pi)) where pi*(x/pi) != x by ~1 ulp,
        # so the comparison carries a small absolute floor
        x = np.concatenate([np.geomspace(1e-9, 1e-2, 200), np.linspace(1e-2, 50, 500)])
        ref = np.sinc(x / np.pi)
        assert np.allclose(sinc(x), ref, rtol=1e-13, atol=1e-15)

    def test_taylor_branch_continuity(self):
        # no jump across the evaluation-branch switch
        below, above = sinc(1e-2 - 1e-12), sinc(1e-2 + 1e-12)
        assert abs(below - above) < 1e-14


class TestCatalog:
    def test_parse_round_trip(self):
        for text in ("impulse", "hl", "gh", "sinc:2", "sinc:0.5"):
            assert parse_filter(text).label == text.replace("sinc:2", "sinc:2")

    @given(st.floats(min_value=0.0, allow_infinity=False))
    def test_sinc_label_parses_back_to_its_c(self, c):
        assert parse_filter(sinc_c(c).label).c == c

    def test_sinc_label_keeps_short_spellings(self):
        # {c:g} where it spells c exactly, repr where six digits lose it
        assert [sinc_c(c).label for c in (2.0, 0.5, 1e-7, 2.0000001, 1.23456789)] == [
            "sinc:2", "sinc:0.5", "sinc:1e-07", "sinc:2.0000001", "sinc:1.23456789"]

    def test_parse_errors(self):
        for bad in ("nope", "sinc:", "sinc:x"):
            with pytest.raises(ConfigurationError):
                parse_filter(bad)

    def test_c0_values(self):
        assert impulse().c0 == 0.0
        assert hairer_lubich().c0 == 1.0
        assert grimm_hochbruck().c0 == 1.0
        assert sinc_c(2.0).c0 == 1.0  # (4+1)/6 < 1
        assert np.isclose(sinc_c(3.0).c0, 10.0 / 6.0)

    def test_values_at_zero(self):
        for spec in (impulse(),) + ADMISSIBLE:
            assert phi(spec, 0.0) == 1.0
            assert psi1(spec, 0.0) == 1.0

    def test_gh_phi_at_pi(self):
        assert abs(phi(grimm_hochbruck(), np.pi)) < 1e-15

    def test_sinc1_reduces_to_gh(self):
        xi = default_xi_grid()
        s1 = sinc_c(1.0)
        gh = grimm_hochbruck()
        assert np.max(np.abs(np.asarray(phi(s1, xi)) - np.asarray(phi(gh, xi)))) <= 1e-15
        assert np.max(np.abs(np.asarray(psi1(s1, xi)) - np.asarray(psi1(gh, xi)))) <= 1e-15

    def test_psi1_is_sinc_times_phi(self):
        xi = default_xi_grid()
        for spec in ADMISSIBLE:
            dev = np.abs(np.asarray(psi1(spec, xi)) - np.asarray(sinc(xi)) * np.asarray(phi(spec, xi)))
            assert np.max(dev) <= 1e-15

    def test_negative_c_rejected(self):
        for c in (-1.0, np.nan, np.inf):
            with pytest.raises(ConfigurationError, match="finite and >= 0"):
                FilterSpec("sinc:x", c=c)

    def test_spec_is_its_label_and_c(self):
        # c0 follows from c, so a spec built field by field equals the
        # catalog's and cannot be given another c0
        assert FilterSpec("sinc:3", c=3.0) == sinc_c(3.0) == parse_filter("sinc:3")
        assert FilterSpec("sinc:3", c=3.0).c0 == 10.0 / 6.0
        assert FilterSpec("impulse") == impulse() and impulse().c is None
        assert (FilterSpec("hl", 0.0), FilterSpec("gh", 1.0)) == (hairer_lubich(), grimm_hochbruck())
        with pytest.raises(TypeError):
            FilterSpec("sinc:3", c=3.0, c0=1.0)

    def test_classical_filters_are_family_members(self):
        # hl and gh parse to c = 0 and c = 1 and keep their labels
        assert [(parse_filter(t).label, parse_filter(t).c) for t in ("hl", "gh", "impulse")] == [
            ("hl", 0.0), ("gh", 1.0), ("impulse", None)]

    def test_negative_zero_is_zero(self):
        # sinc:-0 is sinc:0, in its c and in its label
        spec = parse_filter("sinc:-0")
        assert spec == sinc_c(-0.0) == sinc_c(0.0)
        assert spec.label == "sinc:0" and np.copysign(1.0, spec.c) == 1.0

    @pytest.mark.parametrize("classical,member", [("hl", "sinc:0"), ("gh", "sinc:1")])
    def test_classical_filter_bitwise_equals_its_member(self, classical, member):
        # phi and psi1 on 0 and 200 001 geometric points up to 1e4, c0 and
        # the sampled admissibility report: one filter under two labels
        a, b = parse_filter(classical), parse_filter(member)
        xi = np.concatenate(([0.0], np.geomspace(1e-8, 1e4, 200_001)))
        for fn in (phi, psi1):
            assert np.array_equal(np.asarray(fn(a, xi)), np.asarray(fn(b, xi)))
            assert fn(a, 0.0) == fn(b, 0.0) == 1.0
        assert a.c0 == b.c0 == 1.0
        assert check_assumptions(a, delta=0.15, a0=13.0) == check_assumptions(b, delta=0.15, a0=13.0)


class TestCheckAssumptions:
    def test_hairer_lubich_all_pass_with_zero_amplitude(self):
        report = check_assumptions(hairer_lubich(), delta=0.5, a0=0.0)
        assert report.assumption1_ok and report.assumption2_ok and report.assumption3_ok
        assert report.all_ok

    def test_impulse_fails_sinc_compatibility(self):
        report = check_assumptions(impulse(), delta=0.5, a0=0.0)
        assert report.assumption1_ok
        assert not report.assumption2_ok

    def test_sinc2_passes_strong_amplitude(self):
        # A0/(4c^2) = 13/16 <= 1 - 0.15
        report = check_assumptions(sinc_c(2.0), delta=0.15, a0=13.0)
        assert report.assumption3_ok
        assert report.worst_margin >= 0.0

    def test_hl_gh_fail_strong_amplitude(self):
        for spec in (hairer_lubich(), grimm_hochbruck()):
            report = check_assumptions(spec, delta=0.15, a0=13.0)
            assert not report.assumption3_ok
            assert report.worst_margin < 0.0

    def test_worst_xi_in_grid(self):
        # the fixed grid: 0 and 10 000 geometric points from 1e-6 to 1e3
        grid = default_xi_grid()
        assert grid.size == 10_001 and grid[0] == 0.0 and grid[1] == 1e-6 and grid[-1] == 1e3
        report = check_assumptions(hairer_lubich(), delta=0.15, a0=13.0)
        assert report.worst_xi in grid

    def test_parameter_validation(self):
        for delta, a0 in ((0.0, 1.0), (1.0, 1.0), (0.5, -1.0)):
            with pytest.raises(ConfigurationError):
                check_assumptions(sinc_c(2.0), delta=delta, a0=a0)

    def test_quadratic_closeness_for_sinc_c(self):
        # |1 - phi(xi)| <= max(1, (c^2+1)/6) xi^2 for xi <= 3
        xi = np.linspace(0.0, 3.0, 2000)
        for c in (0.5, 2.0, 3.0):
            spec = sinc_c(c)
            bound = spec.c0 * xi * xi
            assert np.all(np.abs(1.0 - np.asarray(phi(spec, xi))) <= bound + 1e-14)
            assert np.all(np.abs(1.0 - np.asarray(psi1(spec, xi))) <= bound + 1e-14)

    def test_damping_chain_bound_for_sinc_c(self):
        # sin(xi/2)^2 phi(xi)^2 <= 1/(4 c^2) pointwise
        xi = default_xi_grid()
        for c in (2.0, 3.0):
            vals = np.sin(0.5 * xi) ** 2 * np.asarray(phi(sinc_c(c), xi)) ** 2
            assert np.max(vals) <= 1.0 / (4.0 * c * c) + 1e-14


class TestMinC:
    def test_zero_amplitude(self):
        assert min_c_for(0.0, 0.5) == 0.0

    def test_strong_amplitude_limit(self):
        assert abs(min_c_for(13.0, 1e-9) - 0.5 * np.sqrt(13.0)) < 1e-6

    def test_direct_formula(self):
        assert np.isclose(min_c_for(3.0, 0.25), 1.0)

    def test_delta_range(self):
        for delta in (0.0, 1.0, -0.1):
            with pytest.raises(ConfigurationError):
                min_c_for(1.0, delta)


class TestScalarInequality:
    def test_zero_amplitude_trivial(self):
        r = scalar_inequality_check(sinc_c(2.0), 0.3, np.array([0.0]), np.linspace(0, 10, 100))
        assert np.isclose(r.min_margin, 1.0 - 0.15)

    def test_impulse_violation_at_pi(self):
        r = scalar_inequality_check(impulse(), 0.15, np.array([13.0]), np.array([np.pi]))
        assert np.isclose(r.min_margin, -13.0 + 1.0 - 0.075)
        assert not r.certified

    def test_sinc2_certified_on_dense_grid(self):
        delta = 0.15
        a = np.linspace(-1 + delta / 2, 13 + delta / 2, 1000)
        xi = np.linspace(0.0, 40.0, 1000)
        r = scalar_inequality_check(sinc_c(2.0), delta, a, xi)
        assert r.certified

    def test_parabola_interior_dominated_by_endpoints(self):
        # concave in A: the interior margin never dips below both endpoints
        delta = 0.2
        a = np.linspace(-1 + delta / 2, 5 + delta / 2, 400)
        xi = np.linspace(0.0, 25.0, 400)
        spec = sinc_c(2.0)
        full = scalar_inequality_check(spec, delta, a, xi)
        ends = scalar_inequality_check(spec, delta, a[[0, -1]], xi)
        assert full.min_margin >= ends.min_margin - 1e-12
