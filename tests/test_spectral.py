import numpy as np
import pytest

from anisoflow import (
    GridSpec,
    MalformedSpectrumError,
    PhysicalField,
    SpectralField,
    forward_transform,
    inverse_transform,
    lp_norm,
    make_grid,
)

from anisoflow.spectral import band_mask

from conftest import TWO_PI, cosine_field, random_field, single_mode_spectrum


class TestMakeGrid:
    def test_unit_box_wavenumbers_are_integers(self):
        g = make_grid(8, 8, TWO_PI, TWO_PI)
        np.testing.assert_array_equal(g.xi1, [0, 1, 2, 3, -4, -3, -2, -1])

    def test_doubled_box_halves_wavenumbers(self):
        g = make_grid(8, 8, 2 * TWO_PI, 2 * TWO_PI)
        np.testing.assert_allclose(g.xi1, [0, 0.5, 1, 1.5, -2, -1.5, -1, -0.5])

    @pytest.mark.parametrize("nx,ny", [(6, 8), (8, 6), (9, 8), (0, 8)])
    def test_rejects_odd_or_tiny_dimensions(self, nx, ny):
        with pytest.raises(ValueError):
            make_grid(nx, ny, 1.0, 1.0)

    @pytest.mark.parametrize("lx,ly", [(0.0, 1.0), (1.0, -2.0), (np.inf, 1.0)])
    def test_rejects_bad_lengths(self, lx, ly):
        with pytest.raises(ValueError):
            make_grid(8, 8, lx, ly)

    def test_zero_mode_unique_and_first(self):
        g = make_grid(16, 12, 3.0, 5.0)
        assert g.xi1[0] == 0.0 and np.count_nonzero(g.xi1 == 0.0) == 1
        assert g.xi2[0] == 0.0 and np.count_nonzero(g.xi2 == 0.0) == 1
        assert np.max(np.abs(g.xi1)) == pytest.approx(np.pi * g.nx / g.lx)


class TestTransforms:
    def test_constant_field_keeps_only_mean(self, grid16):
        c = 3.25
        v = forward_transform(PhysicalField(grid16, np.full((16, 16), c)))
        assert v.coeffs[0, 0] == pytest.approx(c * grid16.area(), rel=1e-14)
        rest = v.coeffs.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-12 * abs(c * grid16.area())

    def test_cosine_single_mode(self, grid16):
        v = forward_transform(cosine_field(grid16, 1, 0))
        expected = grid16.area() / 2.0
        assert v.coeffs[1, 0] == pytest.approx(expected, rel=1e-13)
        assert v.coeffs[-1, 0] == pytest.approx(expected, rel=1e-13)
        others = v.coeffs.copy()
        others[1, 0] = others[-1, 0] = 0.0
        assert np.max(np.abs(others)) < 1e-12 * expected

    def test_round_trip_100_random_fields(self, grid16):
        for seed in range(100):
            u = random_field(grid16, seed)
            back = inverse_transform(forward_transform(u))
            scale = np.max(np.abs(u.values))
            assert np.max(np.abs(back.values - u.values)) <= 1e-12 * scale

    def test_parseval(self, grid32):
        for seed in range(10):
            u = random_field(grid32, seed)
            v = forward_transform(u)
            phys = lp_norm(u, 2) ** 2
            spec = np.sum(np.abs(v.coeffs) ** 2) / grid32.area()
            assert spec == pytest.approx(phys, rel=1e-12)

    def test_linearity(self, grid16):
        u = random_field(grid16, 1)
        w = random_field(grid16, 2)
        a, b = 2.5, -1.25
        combo = forward_transform(PhysicalField(grid16, a * u.values + b * w.values))
        direct = a * forward_transform(u).coeffs + b * forward_transform(w).coeffs
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(combo.coeffs - direct)) <= 1e-13 * scale

    def test_hermitian_symmetry_of_real_transform(self, grid16):
        from anisoflow.spectral import hermitian_defect

        v = forward_transform(random_field(grid16, 3))
        assert hermitian_defect(v.coeffs) <= 1e-12 * np.max(np.abs(v.coeffs))

    def test_forward_rejects_nonfinite(self, grid16):
        values = np.zeros((16, 16))
        values[3, 4] = np.nan
        with pytest.raises(ValueError):
            forward_transform(PhysicalField(grid16, values))

    def test_inverse_zero_spectrum(self, grid16):
        u = inverse_transform(SpectralField(grid16, np.zeros((16, 16), complex)))
        assert np.all(u.values == 0.0)

    def test_inverse_of_cosine_spectrum(self, grid16):
        v = single_mode_spectrum(grid16, 1, 0)
        u = inverse_transform(v)
        expected = np.cos(grid16.x)[:, None] * np.ones(16)[None, :]
        assert np.max(np.abs(u.values - expected)) <= 1e-12

    def test_inverse_rejects_broken_symmetry(self, grid16):
        coeffs = forward_transform(random_field(grid16, 4)).coeffs.copy()
        coeffs[2, 3] += 0.5 * np.max(np.abs(coeffs)) * 1j
        with pytest.raises(MalformedSpectrumError):
            inverse_transform(SpectralField(grid16, coeffs))


def truncate(v: SpectralField, denom: int = 3) -> np.ndarray:
    """Truncation to the alias-free band, as the flux and the stepper apply it."""
    return np.where(band_mask(v.grid, denom, strict=True), v.coeffs, 0.0)


class TestDealias:
    def test_zero_spectrum_unchanged(self, grid16):
        v = SpectralField(grid16, np.zeros((16, 16), complex))
        assert np.all(truncate(v) == 0.0)
        # the mean mode is kept by every band
        v.coeffs[0, 0] = 1.0
        for denom in (2, 3, 4, 5):
            np.testing.assert_array_equal(truncate(v, denom), v.coeffs)

    def test_inside_band_unchanged(self, grid16):
        # nx=16: retained band |j| <= 5
        v = single_mode_spectrum(grid16, 5, -4)
        np.testing.assert_array_equal(truncate(v), v.coeffs)

    def test_near_nyquist_mode_zeroed(self, grid16):
        v = single_mode_spectrum(grid16, 16 // 2 - 1, 0)
        assert np.all(truncate(v) == 0.0)

    def test_idempotent_exactly(self, grid16):
        v = forward_transform(random_field(grid16, 5))
        once = truncate(v)
        twice = truncate(SpectralField(grid16, once))
        np.testing.assert_array_equal(once, twice)
        # one cached, read-only mask per (grid, denom, strict)
        assert band_mask(grid16, 3, strict=True) is band_mask(grid16, 3, strict=True)
        assert not band_mask(grid16, 3, strict=True).flags.writeable

    def test_strict_drops_the_edge_mode(self, grid16):
        # denom 4 divides nx=16: |j| = 4 sits on the band edge
        loose, strict = band_mask(grid16, 4), band_mask(grid16, 4, strict=True)
        assert loose[4, 0] and loose[-4, 0] and loose[0, 4]
        assert not (strict[4, 0] or strict[-4, 0] or strict[0, 4])
        assert strict[3, 3] and strict[-3, -3]


class TestFieldValidation:
    def test_physical_field_shape_checked(self, grid16):
        with pytest.raises(ValueError):
            PhysicalField(grid16, np.zeros((8, 16)))

    def test_spectral_field_shape_checked(self, grid16):
        with pytest.raises(ValueError):
            SpectralField(grid16, np.zeros((16, 8), complex))

    def test_grid_equality_is_structural(self):
        assert GridSpec(8, 8, 1.0, 2.0) == GridSpec(8, 8, 1.0, 2.0)
        assert GridSpec(8, 8, 1.0, 2.0) != GridSpec(8, 8, 2.0, 2.0)
