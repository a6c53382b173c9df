import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisoflow import (
    CutoffSpec,
    DissipationSpec,
    FluxSpec,
    NormSample,
    PhysicalField,
    SimState,
    SpectralField,
    default_mu,
    directional_seminorm,
    forward_transform,
    hgamma_seminorm,
    lp_norm,
    make_grid,
    record,
)
from anisoflow.norms import _parseval_weighted

from conftest import cosine_field, random_field


class TestLpNorm:
    def test_constant_field(self, grid16):
        u = PhysicalField(grid16, np.full((16, 16), 2.0))
        area = grid16.area()
        assert lp_norm(u, 2) == pytest.approx(2.0 * np.sqrt(area), rel=1e-14)
        assert lp_norm(u, np.inf) == 2.0
        assert lp_norm(u, 1) == pytest.approx(2.0 * area, rel=1e-14)

    def test_sine_l2(self, grid32):
        u = PhysicalField(
            grid32, np.sin(grid32.x)[:, None] * np.ones(grid32.ny)[None, :]
        )
        # integral of sin^2 over the 2pi x 2pi box is 2*pi^2
        assert lp_norm(u, 2) == pytest.approx(np.sqrt(2.0 * np.pi ** 2), rel=1e-13)

    def test_rejects_unsupported_p(self, grid16):
        u = PhysicalField(grid16, np.ones((16, 16)))
        with pytest.raises(ValueError):
            lp_norm(u, 3)


class TestHgamma:
    def test_gamma_zero_is_parseval_l2(self, grid32):
        u = random_field(grid32, 0)
        v = forward_transform(u)
        assert hgamma_seminorm(v, 0.0) == pytest.approx(lp_norm(u, 2), rel=1e-12)

    def test_unit_wavenumber(self, grid16):
        u = cosine_field(grid16, 1, 0)
        v = forward_transform(u)
        assert hgamma_seminorm(v, 1.0) == pytest.approx(lp_norm(u, 2), rel=1e-12)

    def test_weight_four(self, grid16):
        u = cosine_field(grid16, 2, 0)
        v = forward_transform(u)
        assert hgamma_seminorm(v, 2.0) == pytest.approx(4.0 * lp_norm(u, 2), rel=1e-12)

    def test_norm_nesting(self, grid32):
        # ||u||_H(a+b) == || |xi|^a u ||_H(b)
        v = forward_transform(random_field(grid32, 1))
        for a, b in ((0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (0.5, 1.5), (1.0, 1.0)):
            direct = hgamma_seminorm(v, a + b)
            nested = hgamma_seminorm(SpectralField(grid32, v.coeffs * grid32.xi_mod ** a), b)
            assert nested == pytest.approx(direct, rel=1e-12)

    def test_rejects_negative(self, grid16):
        v = forward_transform(random_field(grid16, 2))
        with pytest.raises(ValueError):
            hgamma_seminorm(v, -1.0)


class TestDirectionalSeminorm:
    def test_no_x_dependence_vanishes(self, grid16):
        v = forward_transform(cosine_field(grid16, 0, 1))
        assert directional_seminorm(v, "x", 1.0) <= 1e-13

    def test_single_mode_weight(self, grid16):
        u = cosine_field(grid16, 2, 0)
        v = forward_transform(u)
        expected = 2.0 ** 0.75 * lp_norm(u, 2)
        assert directional_seminorm(v, "x", 0.75) == pytest.approx(expected, rel=1e-12)

    def test_beta_zero_is_l2(self, grid16):
        u = random_field(grid16, 3)
        v = forward_transform(u)
        assert directional_seminorm(v, "y", 0.0) == pytest.approx(lp_norm(u, 2), rel=1e-12)

    def test_rejects_negative_beta(self, grid16):
        v = forward_transform(random_field(grid16, 4))
        with pytest.raises(ValueError):
            directional_seminorm(v, "x", -0.25)


even_points = st.integers(4, 32).map(lambda n: 2 * n)
box_lengths = st.floats(0.1, 100.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(nx=even_points, ny=even_points, lx=box_lengths, ly=box_lengths,
       seed=st.integers(0, 2 ** 32 - 1), p=st.floats(0.0, 2.0))
def test_parseval_sums_match_explicit_weighted_sums(nx, ny, lx, ly, seed, p):
    grid = make_grid(nx, ny, lx, ly)
    u = PhysicalField(grid, np.random.default_rng(seed).standard_normal((nx, ny)))
    v = forward_transform(u)
    assert _parseval_weighted(v, 1.0) == pytest.approx(lp_norm(u, 2), rel=1e-12)
    # wavenumbers 2*pi*j/l and |coeffs|^2 rebuilt from numpy, not from GridSpec
    k1, k2 = np.meshgrid(2.0 * np.pi * np.fft.fftfreq(nx, d=lx / nx),
                         2.0 * np.pi * np.fft.fftfreq(ny, d=ly / ny), indexing="ij")
    abs2 = np.abs(np.fft.fft2(u.values) * (lx * ly / (nx * ny))) ** 2

    def explicit(weight):
        return np.sqrt(np.sum(weight * abs2) / (lx * ly))

    assert hgamma_seminorm(v, p) == pytest.approx(explicit((k1 ** 2 + k2 ** 2) ** p), rel=1e-12)
    assert directional_seminorm(v, "x", p) == pytest.approx(explicit(np.abs(k1) ** (2 * p)), rel=1e-12)
    assert directional_seminorm(v, "y", p) == pytest.approx(explicit(np.abs(k2) ** (2 * p)), rel=1e-12)


def make_sim_state(grid, values, alpha1=2.0, alpha2=2.0, t=0.0):
    d = DissipationSpec(grid, alpha1, alpha2)
    return SimState(t, forward_transform(PhysicalField(grid, values)), d, FluxSpec(1))


class TestRecord:
    def test_zero_state(self, grid16):
        s = make_sim_state(grid16, np.zeros((16, 16)), t=0.75)
        sample = record(s, CutoffSpec(8.0), [1, 2])
        assert sample.t == 0.75
        for name in ("l1", "l2", "l4", "linf", "diss_x", "diss_y", "ul_l2", "uh_l2"):
            assert getattr(sample, name) == 0.0
        assert sample.hgamma == {1: 0.0, 2: 0.0}

    def test_sign_symmetry(self, grid32):
        values = random_field(grid32, 5).values
        c = CutoffSpec(8.0)
        a = record(make_sim_state(grid32, values, t=1.0), c, [1])
        b = record(make_sim_state(grid32, -values, t=1.0), c, [1])
        for name in ("l1", "l2", "l4", "linf", "diss_x", "diss_y", "ul_l2", "uh_l2"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-13)

    def test_split_energy_bounded_by_total(self, grid32):
        c = CutoffSpec(default_mu(1.5, 2.0))
        for seed in range(5):
            values = random_field(grid32, seed).values
            s = make_sim_state(grid32, values, alpha1=1.5, t=2.0)
            sample = record(s, c, [1])
            assert sample.ul_l2 ** 2 + sample.uh_l2 ** 2 <= sample.l2 ** 2 + 1e-9

    def test_interpolation_sanity_enforced(self):
        with pytest.raises(ValueError):
            NormSample(
                t=0.0, l1=1.0, l2=10.0, l4=1.0, linf=1.0, hgamma={},
                diss_x=0.0, diss_y=0.0, ul_l2=0.0, uh_l2=0.0,
            )

    def test_rejects_negative_entries(self):
        for bad in ({"l1": -1.0}, {"ledger": -1.0}, {"ledger": np.inf}):
            entries = dict(
                t=0.0, l1=0.0, l2=0.0, l4=0.0, linf=0.0, hgamma={},
                diss_x=0.0, diss_y=0.0, ul_l2=0.0, uh_l2=0.0, ledger=0.0,
            )
            NormSample(**entries)
            entries.update(bad)
            with pytest.raises(ValueError):
                NormSample(**entries)
