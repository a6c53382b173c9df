import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisoflow import (
    CutoffSpec,
    DissipationSpec,
    FluxSpec,
    PhysicalField,
    SimState,
    forward_transform,
    make_grid,
    record,
)
from anisoflow.freqsplit import chi0, default_mu
from anisoflow.norms import NormSample, folded_power, lp_norms, power_sums
from anisoflow.run import advance_to
from anisoflow.spectral import SpectralField, band_layout, fourier_weight

from conftest import cosine_field, parseval, random_field


def hgamma(v, gamma):
    """||(xi1^2 + xi2^2)^(gamma/2) v||_2 through the one Parseval route."""
    return parseval(v, [fourier_weight(v.grid, 2.0 * gamma)])[0]


def directional(v, axis, beta):
    """||xi_axis|^beta v||_2 through the one Parseval route."""
    return parseval(v, [fourier_weight(v.grid, 2.0 * beta, axis)])[0]


class TestLpNorm:
    def test_constant_field(self, grid16):
        u = PhysicalField(grid16, np.full((16, 16), 2.0))
        area = grid16.area()
        l1, l2, _, linf = lp_norms(u)
        assert l2 == pytest.approx(2.0 * np.sqrt(area), rel=1e-14)
        assert linf == 2.0
        assert l1 == pytest.approx(2.0 * area, rel=1e-14)

    def test_sine_l2(self, grid32):
        u = PhysicalField(
            grid32, np.sin(grid32.x)[:, None] * np.ones(grid32.ny)[None, :]
        )
        # integral of sin^2 over the 2pi x 2pi box is 2*pi^2
        assert lp_norms(u)[1] == pytest.approx(np.sqrt(2.0 * np.pi ** 2), rel=1e-13)

    def test_quadrature_formula_bit_for_bit(self, grid32):
        # the CSV's l1/l2/l4 bytes depend on how |u|^p is formed: |u|^4 is
        # (a*a)**2, which over these seeds moves the last bit of l4 against
        # a ** 4
        for seed in range(32):
            u = random_field(grid32, seed)
            a = np.abs(u.values)
            expected = [float((np.sum(ap) * grid32.cell_area()) ** (1.0 / p))
                        for p, ap in ((1, a), (2, a * a), (4, (a * a) ** 2))]
            assert lp_norms(u) == (*expected, a.max())


class TestHgamma:
    def test_gamma_zero_is_parseval_l2(self, grid32):
        u = random_field(grid32, 0)
        v = forward_transform(u)
        assert hgamma(v, 0.0) == pytest.approx(lp_norms(u)[1], rel=1e-12)

    def test_unit_wavenumber(self, grid16):
        u = cosine_field(grid16, 1, 0)
        v = forward_transform(u)
        assert hgamma(v, 1.0) == pytest.approx(lp_norms(u)[1], rel=1e-12)

    def test_weight_four(self, grid16):
        u = cosine_field(grid16, 2, 0)
        v = forward_transform(u)
        assert hgamma(v, 2.0) == pytest.approx(4.0 * lp_norms(u)[1], rel=1e-12)

    def test_norm_nesting(self, grid32):
        # ||u||_H(a+b) == || |xi|^a u ||_H(b)
        v = forward_transform(random_field(grid32, 1))
        for a, b in ((0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (0.5, 1.5), (1.0, 1.0)):
            direct = hgamma(v, a + b)
            nested = hgamma(SpectralField(grid32, v.coeffs * grid32.xi_mod ** a), b)
            assert nested == pytest.approx(direct, rel=1e-12)

    def test_rejects_negative(self, grid16):
        with pytest.raises(ValueError):
            fourier_weight(grid16, -2.0)


class TestDirectionalSeminorm:
    def test_no_x_dependence_vanishes(self, grid16):
        v = forward_transform(cosine_field(grid16, 0, 1))
        assert directional(v, "x", 1.0) <= 1e-13

    def test_single_mode_weight(self, grid16):
        u = cosine_field(grid16, 2, 0)
        v = forward_transform(u)
        expected = 2.0 ** 0.75 * lp_norms(u)[1]
        assert directional(v, "x", 0.75) == pytest.approx(expected, rel=1e-12)

    def test_beta_zero_is_l2(self, grid16):
        u = random_field(grid16, 3)
        v = forward_transform(u)
        assert directional(v, "y", 0.0) == pytest.approx(lp_norms(u)[1], rel=1e-12)

    def test_rejects_negative_beta(self, grid16):
        with pytest.raises(ValueError):
            fourier_weight(grid16, -0.5, "x")


even_points = st.integers(4, 32).map(lambda n: 2 * n)
box_lengths = st.floats(0.1, 100.0)


def full_lattice(grid, values):
    """Wavenumbers 2*pi*j/l and quadrature-scaled fft2 coefficients over the
    full lattice, rebuilt from numpy rather than from GridSpec."""
    nx, ny, lx, ly = grid.nx, grid.ny, grid.lx, grid.ly
    k1, k2 = np.meshgrid(2.0 * np.pi * np.fft.fftfreq(nx, d=lx / nx),
                         2.0 * np.pi * np.fft.fftfreq(ny, d=ly / ny), indexing="ij")
    return k1, k2, np.fft.fft2(values) * (lx * ly / (nx * ny))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(nx=even_points, ny=even_points, lx=box_lengths, ly=box_lengths,
       seed=st.integers(0, 2 ** 32 - 1), p=st.floats(0.0, 2.0))
def test_parseval_sums_match_explicit_weighted_sums(nx, ny, lx, ly, seed, p):
    grid = make_grid(nx, ny, lx, ly)
    u = PhysicalField(grid, np.random.default_rng(seed).standard_normal((nx, ny)))
    v = forward_transform(u)
    k1, k2, c = full_lattice(grid, u.values)
    abs2 = np.abs(c) ** 2

    def explicit(weight):
        return np.sqrt(np.sum(weight * abs2) / (lx * ly))

    weights = [1.0, fourier_weight(grid, 2 * p), fourier_weight(grid, 2 * p, "x"),
               fourier_weight(grid, 2 * p, "y")]
    one, hg, dx, dy = parseval(v, weights)
    assert one == pytest.approx(lp_norms(u)[1], rel=1e-12)
    assert hg == pytest.approx(explicit((k1 ** 2 + k2 ** 2) ** p), rel=1e-12)
    assert dx == pytest.approx(explicit(np.abs(k1) ** (2 * p)), rel=1e-12)
    assert dy == pytest.approx(explicit(np.abs(k2) ** (2 * p)), rel=1e-12)
    # one folded power serves every weight: each sum is the float it is alone
    assert [parseval(v, [w])[0] for w in weights] == [one, hg, dx, dy]


@pytest.mark.parametrize("nx, ny", [(16, 16), (32, 16), (64, 48), (64, 64)])
def test_stacked_weights_equal_the_list_form(nx, ny):
    # weights even in j over the folded rows |j| = 0 .. nx/2 of the whole
    # half lattice: power_sums gives the same bits for the broadcastable
    # weights as for their copies stacked into one array
    grid = make_grid(nx, ny, 3.0, 7.5)
    n = nx // 2 + 1
    weights = [1.0, fourier_weight(grid, 1.5, "x")[:n], fourier_weight(grid, 2.0, "y"),
               fourier_weight(grid, 3.0)[:n],
               fourier_weight(grid, 2.0)[:n] * fourier_weight(grid, 0.5, "x")[:n]]
    stack = np.empty((len(weights), n, ny // 2 + 1))
    for w, weight in zip(stack, weights):
        w[...] = weight
    for seed in range(4):
        v = forward_transform(random_field(grid, seed))
        power = folded_power(band_layout(grid, 1), v.coeffs)
        assert power.shape == stack.shape[1:]
        listed, stacked = power_sums(grid, power, weights), power_sums(grid, power, stack)
        assert len(stacked) == len(weights)
        assert listed == stacked


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

    @pytest.mark.parametrize("flux", [FluxSpec(1), None])
    def test_bit_identical_to_standalone_route(self, flux):
        # a square grid, and one whose sides are unequal and not multiples
        # of 3 in an unequal box: the flux band's fold edge, n_pos = n_neg + 1
        # rows, and the Nyquist row of the flux-free fold
        for grid in (make_grid(64, 64, 2.0 * np.pi, 2.0 * np.pi),
                     make_grid(40, 50, 3.0 * np.pi, 5.0 * np.pi)):
            d = DissipationSpec(grid, 1.5, 2.0)
            u0 = forward_transform(random_field(grid, 17, band_denom=3))
            s = advance_to(SimState(0.0, u0, d, flux), 0.25, 0.5)
            c = CutoffSpec(default_mu(1.5, 2.0))
            gammas = [1, 2, 3]
            sample = record(s, c, gammas)

            u = s.physical
            assert (sample.l1, sample.l2, sample.l4, sample.linf) == lp_norms(u)
            denom = 1 if flux is None else flux.dealias_denom
            band = band_layout(grid, denom)
            chi = c.symbol(s.t, d.symbol[: band.n_folded, : band.ncols])
            weights = [fourier_weight(grid, 2.0 * g) for g in gammas]
            weights += [fourier_weight(grid, d.alpha1, "x"), fourier_weight(grid, d.alpha2, "y"),
                        chi * chi, (1.0 - chi) ** 2]
            *hg, diss_x, diss_y, ul, uh = parseval(s.u_hat, weights, denom)
            assert sample.hgamma == dict(zip(gammas, hg))
            assert (sample.diss_x, sample.diss_y, sample.ul_l2, sample.uh_l2) == \
                (diss_x, diss_y, ul, uh)

            # every Parseval column summed over the full fft2 lattice
            k1, k2, coeffs = full_lattice(grid, u.values)
            chi_full = chi0((1.0 + s.t) / c.mu * (np.abs(k1) ** d.alpha1 + np.abs(k2) ** d.alpha2))
            abs2 = np.abs(coeffs) ** 2
            oracle = [(k1 ** 2 + k2 ** 2) ** g for g in gammas]
            oracle += [np.abs(k1) ** d.alpha1, np.abs(k2) ** d.alpha2,
                       chi_full ** 2, (1.0 - chi_full) ** 2]
            columns = [sample.hgamma[g] for g in gammas]
            columns += [sample.diss_x, sample.diss_y, sample.ul_l2, sample.uh_l2]
            for value, w in zip(columns, oracle, strict=True):
                expected = np.sqrt(np.sum(w * abs2) / grid.area())
                assert value == pytest.approx(expected, rel=1e-13, abs=0.0)
            # the split is nontrivial, so both halves carry weight
            assert 0.0 < sample.uh_l2 < sample.l2 and 0.0 < sample.ul_l2 < sample.l2

    def test_interpolation_sanity_enforced(self):
        with pytest.raises(ValueError):
            NormSample(
                t=0.0, l1=1.0, l2=10.0, l4=1.0, linf=1.0, hgamma={},
                diss_x=0.0, diss_y=0.0, ul_l2=0.0, uh_l2=0.0,
            )

    def test_rejects_negative_entries(self):
        for bad in ({"l1": -1.0}, {"ledger": -1.0}, {"ledger": np.inf},
                    {"t": -1.0}, {"t": np.nan}, {"t": np.inf}):
            entries = dict(
                t=0.0, l1=0.0, l2=0.0, l4=0.0, linf=0.0, hgamma={},
                diss_x=0.0, diss_y=0.0, ul_l2=0.0, uh_l2=0.0, ledger=0.0,
            )
            NormSample(**entries)
            entries.update(bad)
            with pytest.raises(ValueError):
                NormSample(**entries)
