import tracemalloc
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.fft

from anisoflow import (
    DissipationSpec,
    FluxSpec,
    GaussianIC,
    PhysicalField,
    RunConfig,
    SimState,
    cfl_dt,
    energy_audit,
    forward_transform,
    initial_state,
    inverse_transform,
    linear_exact,
    make_grid,
    run_simulation,
    sample_times,
    step_ifrk4,
)
from anisoflow import timestepper
from anisoflow.config import RandomBlobIC
from anisoflow.errors import BlowUpError
from anisoflow.norms import lp_norms, parseval_sums
from anisoflow.operators import nonlinear_coeffs
from anisoflow.run import advance_to
from anisoflow.spectral import SpectralField, band_layout, fourier_weight
from anisoflow.timestepper import (
    _F_SERIES, _G_SERIES, _Z_FIT, _Z_SERIES, _ledger_weights, _step_factors)

from conftest import TWO_PI, keep_mask, random_field, single_mode_spectrum, spectral_energy


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
        s = SimState(0.0, SpectralField(grid16, np.zeros((16, 9), complex)), d, FluxSpec(1))
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
            (before,) = lp_norms(u, (2,))
            state = step_ifrk4(state, dt)
            u = inverse_transform(state.u_hat)
            (after,) = lp_norms(u, (2,))
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
            l2sq.append(spectral_energy(s.u_hat))
            d = s.dissipation
            dx, dy = parseval_sums(s.u_hat, [fourier_weight(d.grid, d.alpha1, "x"),
                                             fourier_weight(d.grid, d.alpha2, "y")])
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

    def test_overflow_in_a_later_stage_raises_without_warnings(self, grid16):
        # the state and its stage-1 flux (peak 2e301) are finite; stage 2's
        # flux power overflows, and the inf and NaN it spreads reach the
        # result, which the step's one check of its output reports
        u = PhysicalField(grid16, 1e150 * np.cos(grid16.x[:, None] + grid16.y[None, :]))
        s = SimState(1.5, forward_transform(u), DissipationSpec(grid16, 2.0, 2.0), FluxSpec(1))
        band = band_layout(grid16, s.flux.dealias_denom)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stage1 = nonlinear_coeffs(grid16, band.gather(s.u_hat.coeffs), s.flux)
            assert np.all(np.isfinite(stage1)) and np.max(np.abs(stage1)) > 1e301
            with pytest.raises(BlowUpError) as err:
                step_ifrk4(s, 0.25)
        assert err.value.time == 1.75

    def test_rejects_nonpositive_dt(self, grid16):
        s = make_state(grid16)
        with pytest.raises(ValueError):
            step_ifrk4(s, 0.0)


def full_lattice_step(s: SimState, dt: float) -> tuple[np.ndarray, float]:
    """Reference flux step with every array on the whole half lattice: the
    flux input and output and the result are masked to the alias-free band,
    and the ledger folds the band rows of the full stage arrays.  It takes
    the step's scalings: stage 1 reads the state's own field, the unscaled
    inverse times 1/(lx*ly), and its k is -dt*cell_area/(kappa+1) times
    i*(xi1+xi2) times the transform of the power; every other stage powers
    the unscaled inverse and folds its 1/(lx*ly)^(kappa+1) into that
    scalar.  e_full is e_half**2 and gives the ledger weights their
    exp(-dt*m)."""
    grid, flux = s.grid, s.flux
    keep = keep_mask(grid, flux.dealias_denom)
    xi1, xi2 = grid.mesh_xi()
    power = flux.kappa + 1

    def k(coeffs, u=None):
        scale = -dt
        if u is None:
            u = scipy.fft.irfft2(np.where(keep, coeffs, 0.0), s=(grid.nx, grid.ny), norm="forward")
            scale /= grid.area() ** power
        w_hat = scipy.fft.rfft2(np.power(u, power))
        return np.where(keep, (1j * (xi1 + xi2)) * w_hat * (scale * grid.cell_area() / power), 0.0)

    m = s.dissipation.symbol
    c = s.u_hat.coeffs
    e_half = np.exp(-0.5 * dt * m)
    e_full = e_half ** 2
    n_pos, n_neg, ncols = (int(np.count_nonzero(keep[: grid.nx // 2, 0])),
                           int(np.count_nonzero(keep[grid.nx // 2:, 0])),
                           int(np.count_nonzero(keep[0])))
    n_folded = max(n_pos, n_neg + 1)

    def folded_abs2(a):
        # |a|^2 once, then rows -j added onto rows j of the band
        a2 = a.real ** 2 + a.imag ** 2
        out = a2[:n_pos, :ncols].copy()
        out[1: n_neg + 1] += a2[: -n_neg - 1: -1, :ncols]
        return out

    u1 = scipy.fft.irfft2(c, s=(grid.nx, grid.ny), norm="forward") * (1.0 / grid.area())
    k1 = k(c, u1)
    stage = e_half * (c + 0.5 * k1)
    k2 = k(stage)
    mid = folded_abs2(stage)
    stage = e_half * c + 0.5 * k2
    k3 = k(stage)
    mid += folded_abs2(stage)
    stage = e_full * c + e_half * k3
    k4 = k(stage)
    end = folded_abs2(stage)
    new = e_full * c + (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4) / 6.0
    p0, p1, p2 = _ledger_weights(2.0 * dt * m[:n_folded, :ncols], e_full[:n_folded, :ncols])
    dissipated = p0 * folded_abs2(c) + p1 * (0.5 * mid) + p2 * end
    dissipated = float(np.dot(dissipated.sum(axis=0), grid.column_weight[:ncols])) / grid.area()
    return np.where(keep, new, 0.0), s.ledger + dissipated


class TestBandStep:
    """The flux step works on the compact band; every retained mode sees the
    same floating-point operations as on the full lattice."""

    @pytest.mark.parametrize("shape", [(32, 32), (48, 32)])
    @pytest.mark.parametrize("kappa", [1, 2])
    def test_bit_identical_to_full_lattice_step(self, shape, kappa):
        grid = make_grid(*shape, TWO_PI, 1.5 * TWO_PI)
        s = make_state(grid, alpha1=1.5, alpha2=2.0, flux_kappa=kappa, seed=kappa)
        s = replace(s, t=0.25, ledger=0.125)
        outside = ~keep_mask(grid, s.flux.dealias_denom)
        for dt in (0.01, 0.05):
            new, ledger = full_lattice_step(s, dt)
            out = step_ifrk4(s, dt)
            assert np.array_equal(out.u_hat.coeffs, new)
            assert out.ledger == ledger
            assert np.all(out.u_hat.coeffs[outside] == 0.0)
            s = out

    @pytest.mark.parametrize("kappa", [1, 2])
    def test_construction_keeps_a_flux_state_on_its_band(self, grid32, kappa):
        d = DissipationSpec(grid32, 1.5, 2.0)
        flux = FluxSpec(kappa)
        keep = keep_mask(grid32, flux.dealias_denom)
        full = forward_transform(random_field(grid32, kappa))
        assert np.max(np.abs(full.coeffs[~keep])) > 0.1 * np.max(np.abs(full.coeffs))
        s = SimState(0.0, full, d, flux)
        assert np.all(s.u_hat.coeffs[~keep] == 0.0)
        assert np.array_equal(s.u_hat.coeffs[keep], full.coeffs[keep])
        # truncation would drop a NaN outside the band unseen
        bad = full.coeffs.copy()
        bad[tuple(np.argwhere(~keep)[-1])] = np.nan
        with pytest.raises(ValueError, match="nonfinite"):
            SimState(0.0, SpectralField(grid32, bad), d, flux)
        # a held spectrum and a flux-free one are kept as they are
        assert SimState(1.0, s.u_hat, d, flux).u_hat is s.u_hat
        assert SimState(0.0, full, d, None).u_hat is full

    def test_nan_inside_band_raises_with_target_time(self, grid32):
        s = make_state(grid32)
        coeffs = s.u_hat.coeffs.copy()
        coeffs[-2, 3] = np.nan  # j = -2, k = 3: inside the kappa=1 band
        s = replace(s, t=1.5, u_hat=SpectralField(grid32, coeffs))
        with pytest.raises(BlowUpError) as err:
            step_ifrk4(s, 0.25)
        assert err.value.time == 1.75

    def test_nan_outside_band_raises_on_construction(self, grid32):
        # truncation would drop this mode unseen, so the state rejects it
        s = make_state(grid32)
        coeffs = s.u_hat.coeffs.copy()
        coeffs[15, 3] = np.nan  # j = 15: outside the kappa=1 band |j| < 32/3
        assert not keep_mask(grid32, s.flux.dealias_denom)[15, 3]
        with pytest.raises(ValueError, match="nonfinite"):
            replace(s, t=1.5, u_hat=SpectralField(grid32, coeffs))


class TestStepFactors:
    """The step's factors of (m, dt), kept for the last (dissipation, dt)."""

    @staticmethod
    def denom(s):
        return 1 if s.flux is None else s.flux.dealias_denom

    @pytest.mark.parametrize("kappa", [0, 1, 2])
    def test_repeated_dt_steps_match_cold_cache_steps(self, grid32, monkeypatch, kappa):
        s0 = make_state(grid32, alpha1=1.5, alpha2=2.0, flux_kappa=kappa, seed=6, band=kappa > 0)

        def steps(cold):
            s, out = s0, []
            for _ in range(3):
                if cold:
                    monkeypatch.setattr(timestepper, "_factors", None)
                s = step_ifrk4(s, 0.05)
                out.append((s.u_hat.coeffs.tobytes(), repr(s.ledger)))
            return out

        cold = steps(cold=True)
        assert steps(cold=False) == cold
        # a fresh but equal dissipation takes the kept factors too
        kept = _step_factors(s0.dissipation, 0.05, self.denom(s0))
        again = _step_factors(DissipationSpec(grid32, 1.5, 2.0), 0.05, self.denom(s0))
        assert all(a is b for a, b in zip(kept, again))

    @pytest.mark.parametrize("denom", [1, 3, 4])
    def test_factors_are_the_former_expressions_read_only(self, grid32, denom):
        # the expressions the step evaluated on every call before the
        # factors were kept
        d = DissipationSpec(grid32, 1.5, 2.0)
        dt = 0.05
        band = band_layout(grid32, denom)
        m, m_folded = d.symbol, d.symbol[: band.n_folded, : band.ncols]
        if denom == 1:
            expected = [np.exp(-dt * m), -0.5 * np.expm1(-2.0 * dt * m_folded)]
        else:
            e_half = np.exp(band.gather(m) * (-0.5 * dt))
            e_full = np.square(e_half)
            expected = [e_half, e_full,
                        *_ledger_weights(2.0 * dt * m_folded, e_full[: band.n_folded])]
        factors = _step_factors(d, dt, denom)
        assert len(factors) == len(expected)
        for got, ref in zip(factors, expected):
            assert np.array_equal(got, ref)
            assert not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[0, 0] = 1.0

    @pytest.mark.parametrize("kappa", [0, 1, 2])
    def test_a_repeated_dt_step_calls_no_exp(self, grid32, monkeypatch, kappa):
        s = make_state(grid32, alpha1=1.5, alpha2=2.0, flux_kappa=kappa, band=kappa > 0)
        s = step_ifrk4(s, 0.05)
        calls = []
        for name in ("exp", "expm1"):
            def counted(*args, _real=getattr(np, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(np, name, counted)
        step_ifrk4(s, 0.05)
        assert calls == []
        # a new dt builds its factors: one exp, and the flux-free ledger's expm1
        step_ifrk4(s, 0.07)
        assert sorted(calls) == (["exp", "expm1"] if kappa == 0 else ["exp"])

    @pytest.mark.parametrize("kappa", [0, 1])
    def test_steps_with_new_dts_keep_one_entry(self, kappa):
        grid = make_grid(64, 64, 4.0 * TWO_PI, 4.0 * TWO_PI)
        s = make_state(grid, alpha1=1.5, alpha2=2.0, flux_kappa=kappa, band=kappa > 0)
        step_ifrk4(s, 0.01)  # the band, the symbol and the state's field
        entry = sum(a.nbytes for a in _step_factors(s.dissipation, 0.01, self.denom(s)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for dt in (0.02, 0.03, 0.04):
                step_ifrk4(s, dt)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # the 0.01 entry was built before tracing, so kept is the last one's
        # bytes and the array headers: one entry, not three
        assert entry <= kept <= entry + 4096, (kept, entry)

    @pytest.mark.parametrize("denom", [1, 3])
    def test_a_new_dt_frees_the_kept_entry_before_building(self, monkeypatch, denom):
        grid = make_grid(64, 64, 4.0 * TWO_PI, 4.0 * TWO_PI)
        d = DissipationSpec(grid, 1.5, 2.0)
        band_layout(grid, denom), d.symbol  # built before tracing
        monkeypatch.setattr(timestepper, "_factors", None)

        def build_peak(dt):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            entry = sum(a.nbytes for a in _step_factors(d, dt, denom))
            return tracemalloc.get_traced_memory()[1] - base, entry

        tracemalloc.start()
        try:
            cold, entry = build_peak(0.01)  # nothing kept before
            miss, _ = build_peak(0.02)  # the 0.01 entry is live at its base
        finally:
            tracemalloc.stop()
        # the miss peaks one entry lower than the cold build: the 0.01
        # entry is gone before the 0.02 one is allocated
        assert miss <= cold - entry + 4096, (miss, cold, entry)


class TestEnergyLedger:
    """The in-step ledger: sum over steps of the dissipation integral."""

    @staticmethod
    def half_energy(s):
        return 0.5 * spectral_energy(s.u_hat)

    def test_linear_ledger_is_semigroup_drop(self):
        # nonsquare grid: the ledger folds the half lattice onto |j|
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
        outside = ~keep_mask(make_grid(64, 64, TWO_PI, TWO_PI), 4)
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


def exp_form_weights(z):
    """The ledger weights as built before they took exp(-z/2) from the
    step's e_full: their own exp(z/2), the series below _Z_SERIES and the
    bounded rule above _Z_FIT with exp and expm1."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        grow = np.exp(0.5 * z)
        shrink = 1.0 / grow
        half_inv = 0.5 / (z * z)
        even = z * z + 4.0
        odd = 3.0 * z
        p0 = half_inv * (even - odd - (z + 4.0) * shrink * shrink)
        p1 = 4.0 * half_inv * ((z - 2.0) * grow + (z + 2.0) * shrink)
        p2 = half_inv * ((4.0 - z) * grow * grow - even - odd)
    small = z < _Z_SERIES
    w = 0.5 * z[small]
    p0[small] = w * np.polynomial.polynomial.polyval(-z[small], _F_SERIES)
    p1[small] = w * np.polynomial.polynomial.polyval(w * w, _G_SERIES)
    p2[small] = w * np.polynomial.polynomial.polyval(z[small], _F_SERIES)
    stiff = z > _Z_FIT
    zb = z[stiff]
    decay = np.exp(-0.5 * zb)
    end = 0.5 * zb * (-np.expm1(-zb) / zb - decay) / (1.0 - decay) ** 2
    p0[stiff], p1[stiff], p2[stiff] = end, 0.5 * zb - 2.0 * end, end
    return p0, p1, p2


class TestLedgerWeights:
    # both sides of the series switch (0.5) and of the bounded rule (6),
    # and stiff modes whose exp(-z/2) is tiny
    Z = np.array([0.0, 0.19, 0.2, 0.49, 0.5, 0.51, 1.0, 5.99, 6.0, 6.01, 40.0, 1e3])

    def test_given_exp_matches_the_exp_form(self):
        for got, ref in zip(_ledger_weights(self.Z, np.exp(-0.5 * self.Z)),
                            exp_form_weights(self.Z)):
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)

    def test_given_e_full_matches_the_exp_form(self):
        # the step's e_full = exp(-dt*m/2)**2 differs from exp(-z/2) by a
        # few ulps; the closed forms cancel about two digits just above
        # the switch to the series (measured 8.7e-14 at z = 0.5 and 4.1e-14
        # at 0.51; 1.3e-12 at z = 0.2 when the switch sat there), and
        # nowhere else lose more than 1e-14.  Margin 2.3x
        dt = 0.5
        m = self.Z / (2.0 * dt)
        e_full = np.exp(m * (-0.5 * dt)) ** 2
        near_switch = (self.Z >= _Z_SERIES) & (self.Z < _Z_SERIES + 0.05)
        for got, ref in zip(_ledger_weights(2.0 * dt * m, e_full), exp_form_weights(self.Z)):
            np.testing.assert_allclose(got[near_switch], ref[near_switch], rtol=2e-13, atol=0.0)
            np.testing.assert_allclose(got[~near_switch], ref[~near_switch], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("shrink", ["exp", "e_full"])
    def test_exact_on_free_decay(self, shrink):
        # P0 + P1*exp(-z/2) + P2*exp(-z) = (1 - exp(-z))/2; measured at most
        # 1.2e-14 relative, at z = 0.61, with either shrink (1.0e-13 at
        # z = 0.2 when the series switch sat there)
        z = np.concatenate([self.Z, np.linspace(0.0, 8.0, 801)])
        given = np.exp(-0.5 * z) if shrink == "exp" else np.exp(-0.25 * z) ** 2
        p0, p1, p2 = _ledger_weights(z, given)
        decay = np.exp(-0.5 * z)
        np.testing.assert_allclose(p0 + p1 * decay + p2 * decay * decay,
                                   -0.5 * np.expm1(-z), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("shrink", ["exp", "e_full"])
    def test_near_the_exact_weights_on_both_sides_of_the_switch(self, shrink):
        # the closed forms of the weights, evaluated in 60-digit decimal
        # arithmetic at the float z.  Measured at most 5.7e-14 relative (the
        # closed forms at z = 0.5; the series is within 8.4e-16 at z = 0.4);
        # 8.0e-13 with the switch at z = 0.2.  Margin 1.75x
        z = np.array([0.19, 0.2, 0.3, 0.4, 0.5, 1.0])
        given = np.exp(-0.5 * z) if shrink == "exp" else np.exp(-0.25 * z) ** 2
        exact = []
        with localcontext() as ctx:
            ctx.prec = 60
            for zf in z:
                x = Decimal(float(zf))
                grow, denom = (x / 2).exp(), 2 * x * x
                exact.append([float(p / denom) for p in (
                    x * x + 4 - 3 * x - (x + 4) / grow ** 2,
                    4 * ((x - 2) * grow + (x + 2) / grow),
                    (4 - x) * grow ** 2 - (x * x + 4) - 3 * x)])
        for got, ref in zip(_ledger_weights(z, given), np.array(exact).T):
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


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

    def test_speed_is_u_to_the_kappa(self):
        # f(u) = u^3/3 moves at f'(u) = u^2; the three-argument call is kappa=1
        g = make_grid(8, 8, 4.0, 2.0)  # min(dx, dy) = 0.25
        u = PhysicalField(g, np.full((8, 8), -3.0))
        assert cfl_dt(u, g, 0.5, 2) == pytest.approx(0.5 * 0.25 / 9.0)
        assert cfl_dt(u, g, 0.5) == cfl_dt(u, g, 0.5, 1) == pytest.approx(0.5 * 0.25 / 3.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_peak_is_max_abs_bit_for_bit(self, grid16, seed):
        # the peak max(max u, -min u) is max|u| exactly, whichever sign it has
        u = random_field(grid16, seed)
        for values in (u.values, -u.values):
            field = PhysicalField(grid16, values)
            for kappa in (1, 2):
                amp = max(float(np.max(np.abs(values))) ** kappa, 1e-8)
                assert cfl_dt(field, grid16, 0.5, kappa) == 0.5 * min(grid16.dx, grid16.dy) / amp

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_field(self, bad):
        g = make_grid(8, 8, 1.0, 1.0)
        values = np.ones((8, 8))
        values[3, 5] = bad
        with pytest.raises(ValueError, match="nonfinite"):
            cfl_dt(PhysicalField(g, values), g, 0.5)

    def test_rejects_bad_safety(self):
        g = make_grid(8, 8, 1.0, 1.0)
        u = PhysicalField(g, np.ones((8, 8)))
        for safety in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                cfl_dt(u, g, safety)


class TestAdvanceTo:
    def test_kappa2_converges_in_cfl_safety(self):
        # with the speed taken as |u| instead of |u|^2 the two runs
        # differed by 4.9e-4 relative; with |u|^2, by 2.0e-6
        cfg = RunConfig(
            nx=64, ny=64, lx=12.5 * np.pi, ly=12.5 * np.pi, alpha1=2.0, alpha2=2.0,
            kappa=2, t_end=1.0, sample_every=0.5, ic=GaussianIC(5.0, 2.5),
            nonlinearity_enabled=True, timeseries_path="", checkpoint_path="",
        )
        coarse = run_simulation(replace(cfg, cfl_safety=0.5))[0][-1].l2
        fine = run_simulation(replace(cfg, cfl_safety=0.25))[0][-1].l2
        assert abs(coarse - fine) / fine <= 2e-5, (coarse, fine)

    @pytest.fixture
    def linear_cfg(self):
        return RunConfig(
            nx=32, ny=32, lx=TWO_PI, ly=TWO_PI, alpha1=1.5, alpha2=2.0,
            t_end=2.0, sample_every=0.25, ic=RandomBlobIC(3, 1.0, 0.5),
            nonlinearity_enabled=False, timeseries_path="", checkpoint_path="",
        )

    @pytest.fixture
    def counted_steps(self, monkeypatch):
        import anisoflow.run as run_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("flux-free stepping needs no CFL limit")

        steps = []

        def counting_step(state, dt):
            steps.append(dt)
            return step_ifrk4(state, dt)

        # the CFL bound is the only reader of the field inside advance_to
        monkeypatch.setattr(run_mod, "cfl_dt", forbidden)
        monkeypatch.setattr(run_mod, "step_ifrk4", counting_step)
        return steps

    def test_flux_free_reaches_target_in_one_step(self, linear_cfg, counted_steps):
        s0 = initial_state(linear_cfg)
        state = advance_to(s0, 1.75, linear_cfg.cfl_safety)
        assert counted_steps == [1.75]
        assert state.t == 1.75
        exact = linear_exact(s0.u_hat, s0.dissipation, 1.75)
        np.testing.assert_array_equal(state.u_hat.coeffs, exact.coeffs)

    def test_linear_run_steps_once_per_sample(self, linear_cfg, counted_steps):
        run_simulation(linear_cfg)
        assert len(counted_steps) == len(sample_times(linear_cfg.t_end, linear_cfg.sample_every))


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
