import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from anisoflow import (
    DissipationSpec,
    GridSpec,
    PhysicalField,
    forward_transform,
    inverse_transform,
    make_grid,
)
from anisoflow.norms import lp_norms
from anisoflow.spectral import SpectralField, band_layout, fourier_weight

from conftest import TWO_PI, cosine_field, keep_mask, random_field, single_mode_spectrum, spectral_energy


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

    def test_y_wavenumbers_span_the_half_lattice(self):
        g = make_grid(8, 12, TWO_PI, TWO_PI)
        np.testing.assert_array_equal(g.xi2, [0, 1, 2, 3, 4, 5, 6])
        assert g.xi_mod.shape == (8, 7)
        np.testing.assert_array_equal(g.column_weight, [1, 2, 2, 2, 2, 2, 1])


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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(nx=st.integers(4, 32).map(lambda n: 2 * n), ny=st.integers(4, 32).map(lambda n: 2 * n),
           lx=st.floats(0.1, 100.0), ly=st.floats(0.1, 100.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_round_trip_property(self, nx, ny, lx, ly, seed):
        u = PhysicalField(make_grid(nx, ny, lx, ly),
                          np.random.default_rng(seed).standard_normal((nx, ny)))
        v = forward_transform(u)
        assert v.coeffs.shape == (nx, ny // 2 + 1)
        back = inverse_transform(v).values
        assert np.max(np.abs(back - u.values)) <= 1e-13 * np.max(np.abs(u.values))

    def test_parseval(self, grid32):
        for seed in range(10):
            u = random_field(grid32, seed)
            v = forward_transform(u)
            assert spectral_energy(v) == pytest.approx(lp_norms(u)[1] ** 2, rel=1e-12)

    def test_coefficients_bounded_by_l1_norm(self, grid32):
        # the dx*dy quadrature weight gives |coeffs(xi)| <= ||u||_L1 on the
        # lattice; a positive field attains it at xi = 0
        for seed in range(10):
            u = random_field(grid32, seed)
            assert np.max(np.abs(forward_transform(u).coeffs)) <= lp_norms(u)[0] * (1.0 + 1e-12)
        u = PhysicalField(grid32, np.exp(random_field(grid32, 0).values))
        assert forward_transform(u).coeffs[0, 0].real == pytest.approx(lp_norms(u)[0], rel=1e-13)

    def test_linearity(self, grid16):
        u = random_field(grid16, 1)
        w = random_field(grid16, 2)
        a, b = 2.5, -1.25
        combo = forward_transform(PhysicalField(grid16, a * u.values + b * w.values))
        direct = a * forward_transform(u).coeffs + b * forward_transform(w).coeffs
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(combo.coeffs - direct)) <= 1e-13 * scale

    def test_forward_rejects_nonfinite(self, grid16):
        values = np.zeros((16, 16))
        values[3, 4] = np.nan
        with pytest.raises(ValueError):
            forward_transform(PhysicalField(grid16, values))

    def test_inverse_zero_spectrum(self, grid16):
        u = inverse_transform(SpectralField(grid16, np.zeros((16, 9), complex)))
        assert np.all(u.values == 0.0)

    def test_inverse_of_cosine_spectrum(self, grid16):
        v = single_mode_spectrum(grid16, 1, 0)
        u = inverse_transform(v)
        expected = np.cos(grid16.x)[:, None] * np.ones(16)[None, :]
        assert np.max(np.abs(u.values - expected)) <= 1e-12

    def test_inverse_of_oblique_cosine_spectrum(self, grid16):
        # one stored coefficient (k > 0) stands for the pair +-(2, -3)
        v = single_mode_spectrum(grid16, 2, -3, amplitude=0.5)
        assert np.count_nonzero(v.coeffs) == 1
        u = inverse_transform(v)
        expected = cosine_field(grid16, 2, -3, amplitude=0.5).values
        assert np.max(np.abs(u.values - expected)) <= 1e-12


def truncate(v: SpectralField, denom: int = 3) -> np.ndarray:
    """Truncation to the alias-free band, as initial_state applies it."""
    band = band_layout(v.grid, denom)
    return band.scatter(band.gather(v.coeffs))


class TestDealias:
    def test_zero_spectrum_unchanged(self, grid16):
        v = SpectralField(grid16, np.zeros((16, 9), complex))
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

    def test_strict_drops_the_edge_mode(self, grid16):
        # denom 4 divides nx=16: |j| = 4 sits on the band edge and is dropped
        for kx, ky in ((4, 0), (0, 4)):
            assert np.all(truncate(single_mode_spectrum(grid16, kx, ky), 4) == 0.0)
        for kx in (3, -3):
            v = single_mode_spectrum(grid16, kx, 3)
            np.testing.assert_array_equal(truncate(v, 4), v.coeffs)


# 4 divides 48 and 32, so the edge modes j = +-12 and k = 8 are dropped;
# 3 divides 48, dropping j = +-16
LAYOUT_CASES = [
    ((32, 32), 3, (11, 10, 11)),
    ((32, 32), 4, (8, 7, 8)),
    ((48, 32), 3, (16, 15, 11)),
    ((48, 32), 4, (12, 11, 8)),
]


class TestBandLayout:
    @pytest.mark.parametrize("shape,denom,fold", LAYOUT_CASES)
    def test_round_trip_is_the_masked_spectrum(self, shape, denom, fold):
        g = make_grid(*shape, TWO_PI, 1.5 * TWO_PI)
        band = band_layout(g, denom)
        assert (band.n_pos, band.n_neg, band.ncols) == fold
        c = forward_transform(random_field(g, 11)).coeffs
        compact = band.gather(c)
        assert compact.shape == (fold[0] + fold[1], fold[2])
        assert compact.size == np.count_nonzero(keep_mask(g, denom))
        masked = np.where(keep_mask(g, denom), c, 0.0)
        np.testing.assert_array_equal(band.scatter(compact), masked)
        # scatter writes every entry: a freed NaN half lattice, whose block
        # the next allocation of its size reuses, leaves no trace
        for _ in range(3):
            junk = np.full(c.shape, complex(np.nan, np.nan))
            del junk
            np.testing.assert_array_equal(band.scatter(compact), masked)
        # gather of the scattered band is the band again, and both are fresh
        np.testing.assert_array_equal(band.gather(band.scatter(compact)), compact)
        assert not np.shares_memory(compact, c)
        # rows j >= 0 first, then j < 0 in lattice order, as the ledger fold reads them
        rows = band.gather(np.broadcast_to(g.jx[:, None], c.shape))[:, 0]
        np.testing.assert_array_equal(rows, np.r_[0:fold[0], -fold[1]:0])

    @pytest.mark.parametrize("denom", [1, 3, 4])
    def test_fold_sums_rows_j_and_minus_j(self, denom):
        g = make_grid(48, 32, TWO_PI, 1.5 * TWO_PI)
        band = band_layout(g, denom)
        c = forward_transform(random_field(g, 13)).coeffs
        if denom == 1:
            # the flux-free step folds the half lattice through this layout
            np.testing.assert_array_equal(band.gather(c), c)
            assert band.n_folded == g.nx // 2 + 1
        abs2 = np.abs(np.where(keep_mask(g, denom), c, 0.0)) ** 2
        folded = band.folded_abs2(band.gather(c))
        assert folded.shape == (band.n_folded, band.ncols)
        for j in range(band.n_folded):
            # j = 0 and the Nyquist row j = -nx/2 have no partner
            rows = np.flatnonzero(np.abs(g.jx) == j)
            expected = abs2[rows, : band.ncols].sum(axis=0)
            np.testing.assert_allclose(folded[j], expected, rtol=1e-14)

    def test_cached_per_key_with_read_only_multiplier(self):
        g = make_grid(48, 32, TWO_PI, TWO_PI)
        band = band_layout(g, 3)
        assert band_layout(make_grid(48, 32, TWO_PI, TWO_PI), 3) is band
        assert band_layout(g, 4) is not band
        assert band.ixi is band.ixi
        with pytest.raises(ValueError):
            band.ixi[0, 0] = 1.0
        xi1, xi2 = g.mesh_xi()
        np.testing.assert_array_equal(band.ixi, band.gather(1j * (xi1 + xi2)))


@pytest.mark.parametrize("shape", [(32, 32), (48, 32), (16, 40)])
class TestScipyReference:
    """The package runs on numpy.fft; scipy.fft is the outside reference
    whose bits every transform reproduces."""

    @pytest.mark.parametrize("denom", [1, 3, 4])
    def test_band_pair_is_bit_identical(self, shape, denom):
        g = make_grid(*shape, TWO_PI, 1.5 * TWO_PI)
        band = band_layout(g, denom)
        w = random_field(g, 17).values
        b = band.gather(scipy.fft.rfft2(random_field(g, 19).values))
        kept = b.copy()
        # the band's inverse is unscaled, which scipy.fft calls norm="forward"
        np.testing.assert_array_equal(band.to_physical(b),
                                      scipy.fft.irfft2(band.scatter(b), s=shape, norm="forward"))
        np.testing.assert_array_equal(b, kept)
        np.testing.assert_array_equal(band.from_physical(w), band.gather(scipy.fft.rfft2(w)))

    def test_full_lattice_pair_is_bit_identical(self, shape):
        g = make_grid(*shape, TWO_PI, 1.5 * TWO_PI)
        u = random_field(g, 23)
        coeffs = forward_transform(u).coeffs
        np.testing.assert_array_equal(coeffs, scipy.fft.rfft2(u.values) * g.cell_area())
        kept = coeffs.copy()
        np.testing.assert_array_equal(inverse_transform(SpectralField(g, coeffs)).values,
                                      scipy.fft.irfft2(coeffs, s=shape) / g.cell_area())
        # the inverse leaves the coefficients it read unchanged
        np.testing.assert_array_equal(coeffs, kept)


class TestFourierWeightCache:
    def test_repeat_call_returns_the_same_read_only_array(self):
        g = make_grid(16, 12, TWO_PI, 2.0 * TWO_PI)
        for p, axis in ((2.0, None), (1.5, "x"), (1.5, "y"), (3, None)):
            w = fourier_weight(g, p, axis)
            assert fourier_weight(g, p, axis) is w
            with pytest.raises(ValueError):
                w[0, 0] = 1.0
        # an equal grid shares the entry; int and float exponents agree
        assert fourier_weight(make_grid(16, 12, TWO_PI, 2.0 * TWO_PI), 3.0) is fourier_weight(g, 3)

    def test_bad_arguments_raise_on_every_call(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        for _ in range(3):
            for p in (-0.5, np.inf, np.nan):
                with pytest.raises(ValueError, match="exponent"):
                    fourier_weight(g, p, "x")
            with pytest.raises(ValueError, match="axis"):
                fourier_weight(g, 1.0, "z")

    def test_zero_exponent_is_scalar_one(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        for axis in ("x", "y", None):
            w = fourier_weight(g, 0.0, axis)
            assert type(w) is float and w == 1.0

    def test_dissipation_symbol_unchanged(self):
        g = make_grid(32, 16, TWO_PI, 3.0)
        x1, x2 = g.mesh_xi()
        for a1, a2 in ((2.0, 2.0), (1.5, 2.0), (1.2, 1.7)):
            d = DissipationSpec(g, a1, a2)
            np.testing.assert_array_equal(d.symbol, np.abs(x1) ** a1 + np.abs(x2) ** a2)
            assert not d.symbol.flags.writeable


class TestFieldValidation:
    def test_physical_field_shape_checked(self, grid16):
        with pytest.raises(ValueError):
            PhysicalField(grid16, np.zeros((8, 16)))

    def test_spectral_field_shape_checked(self, grid16):
        SpectralField(grid16, np.zeros((16, 9), complex))
        # the full lattice is not a valid layout
        for shape in ((16, 8), (16, 16), (9, 16)):
            with pytest.raises(ValueError):
                SpectralField(grid16, np.zeros(shape, complex))

    def test_grid_equality_is_structural(self):
        assert GridSpec(8, 8, 1.0, 2.0) == GridSpec(8, 8, 1.0, 2.0)
        assert GridSpec(8, 8, 1.0, 2.0) != GridSpec(8, 8, 2.0, 2.0)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc policy is glibc's")
@pytest.mark.parametrize("mib", [2, 4, 8])
def test_malloc_policy_keeps_freed_arrays_resident(mib):
    # importing the package fixes glibc's thresholds, so a 2-8 MiB array
    # freed and allocated again reuses pages already faulted in; measured
    # 0.0 faults per allocation with the policy, 49-50 without it (numpy
    # alone, or numpy, scipy.fft and scipy.stats)
    code = f"""
import resource
import numpy as np
import anisoflow
n = {mib} * 2 ** 20 // 8
np.ones(n)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    np.ones(n)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 4.0


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc policy is glibc's")
def test_malloc_policy_shares_one_arena_across_threads():
    # an 8 MiB array freed on another thread is reused by the main thread's
    # next one, whose pages are already faulted in; measured 0 faults with
    # one arena, 468-494 with an arena per thread
    code = """
import resource
import threading
import numpy as np
import anisoflow
n = 8 * 2 ** 20 // 8
worker = threading.Thread(target=lambda: np.ones(n))
worker.start()
worker.join()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
np.ones(n)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 4.0
