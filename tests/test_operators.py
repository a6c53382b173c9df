import numpy as np
import pytest
import scipy.fft

from anisoflow import (
    DissipationSpec,
    FluxSpec,
    PhysicalField,
    forward_transform,
    inverse_transform,
    make_grid,
)
from anisoflow.norms import lp_norms
from anisoflow.operators import nonlinear_coeffs
from anisoflow.spectral import SpectralField, band_layout, fourier_weight

from conftest import keep_mask, parseval, random_field, single_mode_spectrum


class TestDissipationSpec:
    def test_symbol_structure(self, grid16):
        d = DissipationSpec(grid16, 1.5, 2.0)
        m = d.symbol
        assert m[0, 0] == 0.0
        positive = np.ones_like(m, dtype=bool)
        positive[0, 0] = False
        assert np.all(m[positive] > 0.0)
        # even in j: m(j, k) == m(-j, k); the half lattice stores k >= 0 only
        assert m.shape == (16, 9)
        np.testing.assert_allclose(m[1:, :], m[:0:-1, :], rtol=0, atol=0)
        # the last column is the Nyquist mode k = 8
        assert m[0, -1] == 8.0 ** 2.0

    @pytest.mark.parametrize("a1,a2", [(1.0, 2.0), (2.0, 2.5), (0.5, 1.5), (2.1, 2.0)])
    def test_alpha_domain(self, grid16, a1, a2):
        with pytest.raises(ValueError):
            DissipationSpec(grid16, a1, a2)

    def test_symbol_value(self, grid16):
        d = DissipationSpec(grid16, 1.5, 1.2)
        assert d.symbol[2, 3] == pytest.approx(2.0 ** 1.5 + 3.0 ** 1.2, rel=1e-15)


class TestDirectional:
    """The directional multiplier |xi_axis|^beta, as fourier_weight builds it."""

    def test_unit_wavenumber_is_fixed_point(self, grid16):
        v = single_mode_spectrum(grid16, 1, 0)
        out = v.coeffs * fourier_weight(grid16, 2.0, "x")
        np.testing.assert_allclose(out, v.coeffs, atol=1e-12)

    def test_single_mode_eigenvalue(self, grid16):
        v = single_mode_spectrum(grid16, 2, 0)
        out = v.coeffs * fourier_weight(grid16, 1.5, "x")
        np.testing.assert_allclose(out, 2.0 ** 1.5 * v.coeffs, rtol=1e-14)

    def test_y_axis_annihilates_x_only_mode(self, grid16):
        v = single_mode_spectrum(grid16, 2, 0)
        out = v.coeffs * fourier_weight(grid16, 1.5, "y")
        assert np.max(np.abs(out)) <= 1e-12 * np.max(np.abs(v.coeffs))

    def test_zero_beta_is_identity(self, grid16):
        v = forward_transform(random_field(grid16, 0))
        np.testing.assert_array_equal(v.coeffs * fourier_weight(grid16, 0.0, "x"), v.coeffs)

    def test_rejects_negative_beta(self, grid16):
        with pytest.raises(ValueError):
            fourier_weight(grid16, -0.5, "x")

    def test_rejects_bad_axis(self, grid16):
        for beta in (1.0, 0.0):
            with pytest.raises(ValueError):
                fourier_weight(grid16, beta, "z")

    def test_semigroup_composition(self, grid16):
        v = forward_transform(random_field(grid16, 1))
        a, b = 0.7, 0.9
        two_step = v.coeffs * fourier_weight(grid16, a, "x") * fourier_weight(grid16, b, "x")
        one_step = v.coeffs * fourier_weight(grid16, a + b, "x")
        scale = np.max(np.abs(one_step))
        assert np.max(np.abs(two_step - one_step)) <= 1e-12 * scale


class TestIsotropic:
    """The isotropic multiplier |xi|^gamma, as fourier_weight builds it."""

    def test_gamma_zero_identity(self, grid16):
        v = forward_transform(random_field(grid16, 2))
        np.testing.assert_array_equal(v.coeffs * fourier_weight(grid16, 0.0), v.coeffs)

    def test_three_four_five(self, grid16):
        v = single_mode_spectrum(grid16, 3, 4)
        out = v.coeffs * fourier_weight(grid16, 1.0)
        np.testing.assert_allclose(out, 5.0 * v.coeffs, rtol=1e-13)

    def test_diagonal_mode_gamma_two(self, grid16):
        v = single_mode_spectrum(grid16, 1, 1)
        out = v.coeffs * fourier_weight(grid16, 2.0)
        np.testing.assert_allclose(out, 2.0 * v.coeffs, rtol=1e-13)

    def test_rejects_negative_gamma(self, grid16):
        for gamma in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                fourier_weight(grid16, gamma)

    def test_parseval_composition_agreement(self, grid32):
        v = forward_transform(random_field(grid32, 3))
        gamma = 1.5
        (direct,) = parseval(v, [fourier_weight(grid32, 2.0 * gamma)])
        multiplied = SpectralField(grid32, v.coeffs * fourier_weight(grid32, gamma))
        assert parseval(multiplied, [1.0])[0] == pytest.approx(direct, rel=1e-12)


class TestFluxSpec:
    @pytest.mark.parametrize("kappa", [0, -1, 1.5])
    def test_rejects_bad_kappa(self, kappa):
        with pytest.raises(ValueError):
            FluxSpec(kappa)

    def test_band_denominator(self):
        assert FluxSpec(1).dealias_denom == 3
        assert FluxSpec(2).dealias_denom == 4


def flux_divergence(u: PhysicalField, flux: FluxSpec) -> SpectralField:
    """N(u) of the physical field u on the half lattice, through the
    stepper's nonlinear_coeffs: the spectrum is gathered onto the band and
    the result scattered back."""
    band = band_layout(u.grid, flux.dealias_denom)
    n = nonlinear_coeffs(u.grid, band.gather(forward_transform(u).coeffs), flux)
    return SpectralField(u.grid, band.scatter(n))


class TestNonlinearTerm:
    def test_constant_field_gives_zero(self, grid16):
        u = PhysicalField(grid16, np.full((16, 16), 4.0))
        n = flux_divergence(u, FluxSpec(1))
        assert np.max(np.abs(n.coeffs)) <= 1e-12

    def test_sine_product_identity(self, grid32):
        # u = sin(x): u*u_x = sin(x)cos(x); the y-flux contributes nothing
        u = PhysicalField(
            grid32, np.sin(grid32.x)[:, None] * np.ones(grid32.ny)[None, :]
        )
        n_phys = inverse_transform(flux_divergence(u, FluxSpec(1)))
        oracle = (np.sin(grid32.x) * np.cos(grid32.x))[:, None] * np.ones(grid32.ny)
        assert np.max(np.abs(n_phys.values - oracle)) <= 1e-12

    def test_quadratic_scaling(self, grid16):
        u = random_field(grid16, 4, band_denom=3)
        n1 = flux_divergence(u, FluxSpec(1))
        n3 = flux_divergence(PhysicalField(grid16, 3.0 * u.values), FluxSpec(1))
        scale = np.max(np.abs(n1.coeffs))
        assert np.max(np.abs(n3.coeffs - 9.0 * n1.coeffs)) <= 1e-12 * scale

    @pytest.mark.parametrize("kappa", [1, 2])
    def test_energy_orthogonality(self, grid32, kappa):
        flux = FluxSpec(kappa)
        for seed in range(5):
            u = random_field(grid32, seed, band_denom=flux.dealias_denom)
            n_phys = inverse_transform(flux_divergence(u, flux))
            ip = np.sum(n_phys.values * u.values) * grid32.cell_area()
            scale = lp_norms(n_phys)[1] * lp_norms(u)[1]
            assert abs(ip) <= 1e-10 * scale

    def test_mean_annihilation_exact(self, grid16):
        u = random_field(grid16, 6)
        n = flux_divergence(u, FluxSpec(1))
        assert n.coeffs[0, 0] == 0.0

    @pytest.mark.parametrize("kappa", [1, 2, 3])
    @pytest.mark.parametrize("given", [False, True])
    def test_fused_scaling_matches_scipy(self, kappa, given):
        # -dt*i*(xi1+xi2)*area*rfft2(irfft2(c)/area)^(kappa+1)/(kappa+1),
        # area the cell area, on a nonsquare box; the package folds the
        # scalings into one pass over the field and one scalar on the band
        grid = make_grid(48, 40, 3.0, 5.0)
        flux = FluxSpec(kappa)
        band = band_layout(grid, flux.dealias_denom)
        area, dt = grid.cell_area(), 0.0625
        c = band.scatter(band.gather(forward_transform(random_field(grid, kappa)).coeffs))
        u = scipy.fft.irfft2(c, s=(grid.nx, grid.ny)) / area
        xi1, xi2 = grid.mesh_xi()
        expected = -dt * 1j * (xi1 + xi2) * area * scipy.fft.rfft2(u ** (kappa + 1)) / (kappa + 1)
        got = nonlinear_coeffs(grid, band.gather(c), flux, u if given else None, -dt)
        err = np.max(np.abs(band.scatter(got) - np.where(keep_mask(grid, flux.dealias_denom),
                                                         expected, 0.0)))
        assert err <= 1e-14 * np.max(np.abs(expected))

    def test_result_is_dealiased(self, grid16):
        u = random_field(grid16, 7)
        n = flux_divergence(u, FluxSpec(1))
        assert np.all(n.coeffs[~keep_mask(grid16, 3)] == 0.0)

