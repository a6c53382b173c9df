from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisoflow import (
    DecayFit,
    NormSample,
    energy_audit,
    fit_power_law,
    max_principle_audit,
    theoretical_exponent,
)

alphas_strategy = st.lists(
    st.floats(min_value=1.01, max_value=2.0), min_size=1, max_size=4
)


class TestTheoreticalExponent:
    def test_isotropic_l2_is_half(self):
        assert theoretical_exponent([2, 2], "l2") == -0.5

    @pytest.mark.parametrize("gamma", [1, 2, 3])
    def test_isotropic_hgamma(self, gamma):
        expected = -(1.0 + gamma) / 2.0
        assert theoretical_exponent([2, 2], "hgamma", gamma) == pytest.approx(expected, abs=1e-15)

    def test_anisotropic_l2(self):
        assert theoretical_exponent([1.5, 2], "l2") == pytest.approx(-7.0 / 12.0, abs=1e-15)

    def test_equal_alpha_hgamma_closed_form(self):
        for alpha in (1.2, 1.5, 2.0):
            for gamma in (1, 2):
                got = theoretical_exponent([alpha, alpha], "hgamma", gamma)
                assert got == pytest.approx(-(1.0 + gamma) / alpha, abs=1e-14)

    def test_general_dimension(self):
        alphas = [1.5, 1.5, 2.0]
        assert theoretical_exponent(alphas, "l2") == pytest.approx(
            -0.5 * (2.0 / 1.5 + 0.5), abs=1e-15
        )

    @pytest.mark.parametrize("bad", [[1.0, 2.0], [2.5], [0.9, 1.5], []])
    def test_domain_rejected(self, bad):
        with pytest.raises(ValueError):
            theoretical_exponent(bad, "l2")

    @pytest.mark.parametrize("gamma", [0, -1, 1.5, None])
    def test_bad_gamma_rejected(self, gamma):
        with pytest.raises(ValueError):
            theoretical_exponent([1.5, 2], "hgamma", gamma)

    def test_bad_space_rejected(self):
        with pytest.raises(ValueError):
            theoretical_exponent([1.5, 2], "linf")

    @given(alphas_strategy)
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariant(self, alphas):
        base = theoretical_exponent(alphas, "l2")
        rng = np.random.default_rng(0)
        perm = list(rng.permutation(alphas))
        assert theoretical_exponent(perm, "l2") == pytest.approx(base, rel=1e-12)

    @given(alphas_strategy, st.integers(min_value=0, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_each_alpha(self, alphas, idx):
        idx = idx % len(alphas)
        if alphas[idx] <= 1.02:
            return
        smaller = list(alphas)
        smaller[idx] = alphas[idx] - 0.01
        assert theoretical_exponent(smaller, "l2") < theoretical_exponent(alphas, "l2")


class TestFitPowerLaw:
    def test_exact_power_law(self):
        t = np.linspace(0, 50, 50)
        pts = [(ti, (1 + ti) ** -0.7) for ti in t]
        fit = fit_power_law(pts, (0.0, 50.0), quantity="l2", theoretical=-0.7)
        assert fit.exponent == pytest.approx(-0.7, abs=1e-9)
        assert fit.r_squared >= 1.0 - 1e-12
        assert fit.deviation <= 1e-9

    def test_prefactor_invisible(self):
        t = np.linspace(0, 50, 40)
        pts = [(ti, 3.0 * (1 + ti) ** -0.5) for ti in t]
        fit = fit_power_law(pts, (0.0, 50.0))
        assert fit.exponent == pytest.approx(-0.5, abs=1e-10)

    def test_scale_invariance(self):
        t = np.linspace(1, 80, 60)
        vals = (1 + t) ** -0.9 * (1 + 0.05 * np.sin(t))
        base = fit_power_law(list(zip(t, vals)), (1.0, 80.0)).exponent
        scaled = fit_power_law(list(zip(t, 7.5 * vals)), (1.0, 80.0)).exponent
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_subsample_stability_on_exact_law(self):
        t = np.linspace(0, 100, 201)
        vals = (1 + t) ** -0.6
        full = fit_power_law(list(zip(t, vals)), (0.0, 100.0)).exponent
        sub = fit_power_law(list(zip(t[::4], vals[::4])), (0.0, 100.0)).exponent
        assert abs(full - sub) <= 1e-6

    def test_exponential_decay_flagged(self):
        # exponential decay is much steeper than any algebraic rate and
        # curves in log-log coordinates, dropping r^2 below a clean fit
        t = np.linspace(10, 100, 91)
        pts = [(ti, np.exp(-ti)) for ti in t]
        fit = fit_power_law(pts, (10.0, 100.0))
        assert fit.exponent < -20.0
        assert fit.r_squared < 0.99

    def test_insufficient_samples(self):
        pts = [(float(i), 1.0 / (1 + i)) for i in range(5)]
        with pytest.raises(ValueError, match="at least 8"):
            fit_power_law(pts, (0.0, 10.0))

    def test_nonpositive_values(self):
        pts = [(float(i), 1.0 - 0.2 * i) for i in range(10)]
        with pytest.raises(ValueError, match="shrink"):
            fit_power_law(pts, (0.0, 10.0))

    def test_window_outside_data(self):
        pts = [(float(i), 1.0) for i in range(20)]
        with pytest.raises(ValueError):
            fit_power_law(pts, (100.0, 200.0))

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            DecayFit("l2", (5.0, 5.0), -1.0, 1.0, -1.0, 0.0)


def _sample(t, l2, diss_sq, linf=None):
    linf = linf if linf is not None else max(l2, 1e-30)
    l1 = (l2 ** 2) / linf * 2.0 if linf > 0 else 0.0
    d = np.sqrt(diss_sq / 2.0)
    return NormSample(
        t=t, l1=l1, l2=l2, l4=l2, linf=linf, hgamma={},
        diss_x=d, diss_y=d, ul_l2=0.0, uh_l2=0.0,
    )


def analytic_series(m, dt, n, amp=1.0):
    """Single-mode linear decay: l2 = amp*exp(-m t), diss^2 = m*l2^2."""
    out = []
    for k in range(n):
        t = k * dt
        l2 = amp * np.exp(-m * t)
        out.append(_sample(t, l2, m * l2 ** 2))
    return out


class TestMaxPrincipleAudit:
    def test_strictly_decreasing_passes(self):
        series = [_sample(t, 1.0 / (1 + t), 0.0) for t in np.linspace(0, 10, 30)]
        rep = max_principle_audit(series, 1e-6)
        assert rep.passed and rep.worst_violation == 0.0

    def test_single_uptick_fails_at_time(self):
        tol = 1e-6
        times = np.linspace(0, 10, 21)
        vals = 1.0 / (1 + times)
        vals[10] = vals[9] * (1 + 10 * tol)
        series = [_sample(t, v, 0.0) for t, v in zip(times, vals)]
        rep = max_principle_audit(series, tol)
        assert not rep.passed
        assert rep.time == pytest.approx(times[10])
        assert rep.worst_violation == pytest.approx(10 * tol, rel=1e-6)

    def test_constant_series_passes(self):
        series = [_sample(t, 2.0, 0.0) for t in np.linspace(0, 5, 11)]
        rep = max_principle_audit(series, 0.0)
        assert rep.passed and rep.worst_violation == 0.0

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            max_principle_audit([], 1e-6)


class TestEnergyAudit:
    def test_analytic_single_mode_dense(self):
        series = analytic_series(m=1.0, dt=1e-4, n=200)
        rep = energy_audit(series)
        assert rep.max_relative_residual <= 1e-8

    def test_zero_field_residual_zero(self):
        series = [_sample(t, 0.0, 0.0) for t in np.linspace(0, 1, 10)]
        rep = energy_audit(series)
        assert rep.max_relative_residual == 0.0

    def test_residual_grows_quadratically(self):
        fine = energy_audit(analytic_series(m=1.0, dt=1e-3, n=100)).max_relative_residual
        coarse = energy_audit(analytic_series(m=1.0, dt=1e-2, n=100)).max_relative_residual
        ratio = coarse / fine
        assert 50.0 <= ratio <= 200.0

    def test_ledger_residual_per_pair(self):
        # an exact ledger balances every pair; one sample without a ledger
        # (as read back from a CSV) drops the ledger column altogether
        series = analytic_series(m=1.0, dt=0.5, n=6)
        l2_0 = series[0].l2
        series = [replace(s, ledger=0.5 * (l2_0 ** 2 - s.l2 ** 2)) for s in series]
        rep = energy_audit(series)
        assert len(rep.ledger_residuals) == len(rep.residuals) == 5
        assert rep.pair_times[0] == (0.0, 0.5)
        assert max(rep.ledger_residuals) <= 1e-12
        assert rep.max_relative_residual > 1e-2  # the trapezoid cannot resolve dt=0.5
        series[2] = replace(series[2], ledger=None)
        assert energy_audit(series).ledger_residuals is None

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            energy_audit(analytic_series(1.0, 0.1, 1))
