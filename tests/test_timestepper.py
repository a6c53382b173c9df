from dataclasses import replace

import numpy as np
import pytest

from anisoflow import (
    BlowUpError,
    DissipationSpec,
    FluxSpec,
    PhysicalField,
    RandomBlobIC,
    RunConfig,
    SimState,
    SpectralField,
    advance_to,
    cfl_dt,
    directional_seminorm,
    energy_audit,
    forward_transform,
    initial_state,
    inverse_transform,
    linear_exact,
    lp_norm,
    make_grid,
    run_simulation,
    sample_times,
    step_ifrk4,
)

from anisoflow.config import validate_config
from anisoflow.spectral import band_mask

from conftest import TWO_PI, random_field, single_mode_spectrum


def make_state(grid, alpha1=2.0, alpha2=2.0, flux_kappa=1, seed=0, band=True):
    d = DissipationSpec(grid, alpha1, alpha2)
    flux = FluxSpec(flux_kappa) if flux_kappa else None
    u = random_field(grid, seed, band_denom=3 if band else None)
    return SimState(0.0, forward_transform(u), d, flux)


class TestLinearExact:
    def test_single_mode_heat_decay(self, grid16):
        d = DissipationSpec(grid16, 2.0, 2.0)
        v = single_mode_spectrum(grid16, 1, 0)
        out = linear_exact(v, d, 1.0)
        np.testing.assert_allclose(out.coeffs, np.exp(-1.0) * v.coeffs, rtol=1e-14)

    def test_fractional_mode_decay(self, grid16):
        d = DissipationSpec(grid16, 2.0, 1.5)
        v = single_mode_spectrum(grid16, 0, 2)
        out = linear_exact(v, d, 2.0)
        factor = np.exp(-2.0 * 2.0 ** 1.5)
        np.testing.assert_allclose(out.coeffs, factor * v.coeffs, rtol=1e-13)

    def test_time_zero_identity(self, grid16):
        d = DissipationSpec(grid16, 1.5, 2.0)
        v = forward_transform(random_field(grid16, 1))
        np.testing.assert_array_equal(linear_exact(v, d, 0.0).coeffs, v.coeffs)

    def test_rejects_negative_time(self, grid16):
        d = DissipationSpec(grid16, 1.5, 2.0)
        with pytest.raises(ValueError):
            linear_exact(single_mode_spectrum(grid16, 1, 0), d, -1.0)


class TestStepLinearPart:
    def test_single_step_matches_semigroup(self, grid32):
        s = make_state(grid32, alpha1=1.5, alpha2=2.0, flux_kappa=0, band=False)
        for dt in (1e-3, 0.1, 2.0):
            out = step_ifrk4(s, dt)
            exact = linear_exact(s.u_hat, s.dissipation, dt)
            scale = np.max(np.abs(exact.coeffs))
            assert np.max(np.abs(out.u_hat.coeffs - exact.coeffs)) <= 1e-13 * scale

    def test_many_steps_match_semigroup(self, grid32):
        s = make_state(grid32, alpha1=1.2, alpha2=1.8, flux_kappa=0, band=False)
        n, total = 137, 0.7
        state = s
        for _ in range(n):
            state = step_ifrk4(state, total / n)
        exact = linear_exact(s.u_hat, s.dissipation, total)
        scale = np.max(np.abs(exact.coeffs))
        assert np.max(np.abs(state.u_hat.coeffs - exact.coeffs)) <= 1e-12 * scale

    def test_zero_state_stays_zero(self, grid16):
        d = DissipationSpec(grid16, 2.0, 2.0)
        s = SimState(0.0, SpectralField(grid16, np.zeros((16, 16), complex)), d, FluxSpec(1))
        out = step_ifrk4(s, 0.5)
        assert np.all(out.u_hat.coeffs == 0.0)
        assert out.t == 0.5


class TestStepNonlinear:
    def test_order_four_richardson(self):
        # dt small enough that the stiff band-edge modes (m*dt < 1) do not
        # mask the classical order; errors stay far above roundoff
        grid = make_grid(32, 32, TWO_PI, TWO_PI)
        s0 = make_state(grid, alpha1=1.5, alpha2=2.0, seed=3)
        t_end = 0.1

        def integrate(n_steps):
            state = s0
            for _ in range(n_steps):
                state = step_ifrk4(state, t_end / n_steps)
            return state.u_hat.coeffs

        ref = integrate(1600)
        errs = []
        for n in (25, 50, 100):
            errs.append(np.max(np.abs(integrate(n) - ref)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        # classical RK4: error ratio ~16 when dt halves
        assert min(orders) >= 3.8, orders

    def test_energy_nonincreasing_per_step(self, grid32):
        state = make_state(grid32, seed=5)
        u = inverse_transform(state.u_hat)
        for _ in range(25):
            dt = cfl_dt(u, grid32, 0.5)
            before = lp_norm(u, 2)
            state = step_ifrk4(state, dt)
            u = inverse_transform(state.u_hat)
            after = lp_norm(u, 2)
            assert after <= before * (1.0 + 1e-10)

    def test_mean_conserved(self, grid32):
        state = make_state(grid32, seed=6)
        coeffs = state.u_hat.coeffs.copy()
        coeffs[0, 0] = 2.0 * grid32.area()  # nonzero mean
        state = SimState(0.0, SpectralField(grid32, coeffs), state.dissipation, state.flux)
        mean0 = state.u_hat.coeffs[0, 0]
        for _ in range(20):
            state = step_ifrk4(state, 0.01)
        assert state.u_hat.coeffs[0, 0] == pytest.approx(mean0, rel=1e-14)

    def test_energy_balance_fine_sampling(self):
        # trapezoid over per-step samples: residual <= 1e-6 * integral;
        # the wide box keeps the fastest modes slow enough for the
        # sampling interval to resolve the dissipation history
        grid = make_grid(32, 32, 20 * np.pi, 20 * np.pi)
        state = make_state(grid, alpha1=1.8, alpha2=2.0, seed=7)
        dt = 5e-4
        times, l2sq, diss = [], [], []

        def push(s):
            times.append(s.t)
            l2sq.append(
                np.sum(np.abs(s.u_hat.coeffs) ** 2) / s.grid.area()
            )
            dx = directional_seminorm(s.u_hat, "x", s.dissipation.alpha1 / 2.0)
            dy = directional_seminorm(s.u_hat, "y", s.dissipation.alpha2 / 2.0)
            diss.append(dx ** 2 + dy ** 2)

        push(state)
        for _ in range(400):
            state = step_ifrk4(state, dt)
            push(state)
        integral = np.trapezoid(diss, times)
        residual = abs(0.5 * l2sq[-1] - 0.5 * l2sq[0] + integral)
        assert residual <= 1e-6 * integral

    def test_blowup_reports_time(self, grid16):
        d = DissipationSpec(grid16, 2.0, 2.0)
        u = PhysicalField(grid16, np.full((16, 16), 3e160))
        s = SimState(1.5, forward_transform(u), d, FluxSpec(1))
        with pytest.raises(BlowUpError) as err:
            step_ifrk4(s, 0.25)
        assert err.value.time == pytest.approx(1.75)

    def test_rejects_nonpositive_dt(self, grid16):
        s = make_state(grid16)
        with pytest.raises(ValueError):
            step_ifrk4(s, 0.0)


class TestEnergyLedger:
    """The in-step ledger: sum over steps of the dissipation integral."""

    @staticmethod
    def half_energy(s):
        return 0.5 * np.sum(np.abs(s.u_hat.coeffs) ** 2) / s.grid.area()

    def test_linear_ledger_is_semigroup_drop(self):
        # nonsquare grid: the ledger folds the lattice onto (|j|, k >= 0)
        grid = make_grid(32, 16, TWO_PI, 2.0 * TWO_PI)
        s0 = make_state(grid, alpha1=1.2, alpha2=1.8, flux_kappa=0, band=False)
        state = s0
        for dt in np.linspace(0.002, 0.02, 9):
            state = step_ifrk4(state, dt)
        exact = linear_exact(s0.u_hat, s0.dissipation, state.t)
        drop = self.half_energy(s0) - self.half_energy(replace(s0, u_hat=exact))
        assert state.ledger == pytest.approx(drop, rel=1e-12)

    def test_finite_and_exact_on_free_decay_for_any_dt(self, grid32):
        # amplitude 1e-12 leaves only the free decay, which the stage rule
        # integrates exactly in every regime of m*dt, stiff ones included
        s0 = make_state(grid32, alpha1=1.5, alpha2=2.0, seed=4)
        s0 = replace(s0, u_hat=SpectralField(grid32, 1e-12 * s0.u_hat.coeffs))
        for dt in (1e-4, 0.05, 3.0, 1e3):
            out = step_ifrk4(s0, dt)
            free = replace(s0, u_hat=linear_exact(s0.u_hat, s0.dissipation, dt))
            drop = self.half_energy(s0) - self.half_energy(free)
            assert np.isfinite(out.ledger) and out.ledger >= 0.0
            assert out.ledger == pytest.approx(drop, rel=1e-10), dt

    def test_residual_fourth_order_in_dt(self):
        # the residual measures the solver's energy error, so it falls like
        # dt^4 when the step halves (x16 in the limit)
        grid = make_grid(32, 32, 4.0 * TWO_PI, 4.0 * TWO_PI)
        s0 = make_state(grid, alpha1=1.5, alpha2=2.0, seed=3)
        scale = 1.0 / np.max(np.abs(inverse_transform(s0.u_hat).values))
        s0 = replace(s0, u_hat=SpectralField(grid, scale * s0.u_hat.coeffs))
        t_end = 0.8

        def residual(n_steps):
            state = s0
            for _ in range(n_steps):
                state = step_ifrk4(state, t_end / n_steps)
            spent = state.ledger - s0.ledger
            return abs(self.half_energy(state) - self.half_energy(s0) + spent) / spent

        coarse, fine = residual(20), residual(40)
        assert fine > 1e-12  # far above roundoff, so the ratio means something
        assert coarse / fine >= 12.0, (coarse, fine)

    def test_bounded_on_stiff_flux_driven_modes(self):
        # energetic band modes reach z = 2*m*dt ~ 40: the fitted rule alone
        # weights their stage values by ~e^z/z and drove this run's ledger
        # to -2.6e33; the bounded rule keeps every step's share >= 0
        cfg = RunConfig(
            nx=64, ny=64, lx=TWO_PI, ly=TWO_PI, alpha1=2.0, alpha2=2.0,
            t_end=2.0, sample_every=0.25, ic=RandomBlobIC(7, 0.3, 0.25),
            nonlinearity_enabled=True, timeseries_path="", checkpoint_path="",
        )
        state = initial_state(cfg)
        for target in sample_times(cfg.t_end, cfg.sample_every):
            before = state.ledger
            state = advance_to(state, target, cfg.cfl_safety)
            assert state.ledger >= before
        series, _ = run_simulation(cfg)
        assert max(energy_audit(series).ledger_residuals) < 1e-3

    def test_initial_state_is_alias_free(self):
        # a blob band (0.6 of Nyquist) wider than kappa=2's alias-free band
        # |j| < nx/4: left in the initial state, the excess was dropped by
        # the first step outside the ledger (first-pair residual 0.584)
        cfg = RunConfig(
            nx=64, ny=64, lx=TWO_PI, ly=TWO_PI, alpha1=1.5, alpha2=2.0, kappa=2,
            t_end=1.0, sample_every=0.25, ic=RandomBlobIC(7, 0.3, 0.6),
            nonlinearity_enabled=True, timeseries_path="", checkpoint_path="",
        )
        validate_config(cfg)
        outside = ~band_mask(make_grid(64, 64, TWO_PI, TWO_PI), 4, strict=True)
        assert np.all(initial_state(cfg).u_hat.coeffs[outside] == 0.0)
        linear = initial_state(replace(cfg, nonlinearity_enabled=False))
        assert np.any(linear.u_hat.coeffs[outside] != 0.0)
        series, _ = run_simulation(cfg)
        assert max(energy_audit(series).ledger_residuals) < 1e-4

    def test_rejects_negative_ledger(self, grid16):
        d = DissipationSpec(grid16, 2.0, 2.0)
        v = single_mode_spectrum(grid16, 1, 0)
        with pytest.raises(ValueError):
            SimState(0.0, v, d, None, ledger=-1.0)


class TestCfl:
    def test_direct_formula(self):
        g = make_grid(8, 8, 4.0, 4.0)  # dx = dy = 0.5
        u = PhysicalField(g, np.full((8, 8), 2.0))
        assert cfl_dt(u, g, 0.5) == pytest.approx(0.125)

    def test_zero_field_hits_floor(self):
        g = make_grid(8, 8, 4.0, 4.0)
        u = PhysicalField(g, np.zeros((8, 8)))
        assert cfl_dt(u, g, 0.5) == pytest.approx(0.5 * 0.5 / 1e-8)

    def test_unit_case(self):
        g = make_grid(10, 10, 1.0, 1.0)  # dx = 0.1
        u = PhysicalField(g, np.ones((10, 10)))
        assert cfl_dt(u, g, 1.0) == pytest.approx(0.1)

    def test_rejects_bad_safety(self):
        g = make_grid(8, 8, 1.0, 1.0)
        u = PhysicalField(g, np.ones((8, 8)))
        for safety in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                cfl_dt(u, g, safety)


class TestSimState:
    def test_rejects_negative_time(self, grid16):
        d = DissipationSpec(grid16, 2.0, 2.0)
        v = single_mode_spectrum(grid16, 1, 0)
        with pytest.raises(ValueError):
            SimState(-1.0, v, d, None)

    def test_rejects_grid_mismatch(self, grid16, grid32):
        d = DissipationSpec(grid32, 2.0, 2.0)
        v = single_mode_spectrum(grid16, 1, 0)
        with pytest.raises(ValueError):
            SimState(0.0, v, d, None)
