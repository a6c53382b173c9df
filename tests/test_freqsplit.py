import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisoflow import CutoffSpec, DissipationSpec, SimState, forward_transform, record
from anisoflow.freqsplit import chi0, default_mu
from anisoflow.spectral import SpectralField
from conftest import parseval, random_field


class TestChi0:
    def test_plateau(self):
        assert chi0(0.0) == 1.0
        assert chi0(0.5) == 1.0
        assert chi0(1.0) == 1.0

    def test_support(self):
        assert chi0(2.0) == 0.0
        assert chi0(3.0) == 0.0
        assert chi0(1e6) == 0.0

    def test_midpoint_symmetry(self):
        # bridge value phi(0.5)/(2*phi(0.5)) at the middle of the ramp
        assert chi0(1.5) == 0.5

    def test_array_input(self):
        s = np.array([0.0, 1.0, 1.5, 2.0, 5.0])
        np.testing.assert_allclose(chi0(s), [1.0, 1.0, 0.5, 0.0, 0.0])

    def test_monotone_nonincreasing(self):
        s = np.linspace(0.0, 3.0, 4001)
        vals = chi0(s)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            chi0(-0.1)

    @given(st.floats(min_value=0.0, max_value=10.0), st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert chi0(lo) >= chi0(hi)


def full_lattice_chi0(s):
    """chi0 as the quotient phi(2-s) / (phi(2-s) + phi(s-1)) evaluated at
    every s > 1, not only on the bridge: the reference for the bridge-only
    form."""
    s = np.asarray(s, dtype=np.float64)

    def phi(t):
        out = np.zeros_like(t)
        pos = t > 0.0
        with np.errstate(divide="ignore", over="ignore"):
            out[pos] = np.exp(-1.0 / t[pos])
        return out

    a, b = phi(2.0 - s), phi(s - 1.0)
    out = np.ones_like(s)
    mid = s > 1.0
    out[mid] = a[mid] / (a[mid] + b[mid])
    return out


class TestChi0BridgeOnly:
    POINTS = [0.0, 1.0, np.nextafter(1.0, 2.0), 1.5, np.nextafter(2.0, 1.0), 2.0, 3.0, 1e6]

    def points(self):
        bridge = np.random.default_rng(12).uniform(1.0, 2.0, 2000)
        return np.concatenate([self.POINTS, bridge])

    def test_array_matches_full_lattice_bit_for_bit(self):
        s = self.points()
        assert chi0(s).tobytes() == full_lattice_chi0(s).tobytes()
        grid_shaped = s[:2000].reshape(40, 50)
        assert chi0(grid_shaped).tobytes() == full_lattice_chi0(grid_shaped).tobytes()

    def test_scalar_returns_float_bit_for_bit(self):
        for x in self.points()[:200]:
            v = chi0(float(x))
            assert type(v) is float
            assert np.float64(v).tobytes() == full_lattice_chi0(x).tobytes()

    def test_no_warning_at_the_bridge_ends(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = chi0(np.array(self.POINTS))
        assert vals[2] == 1.0 and vals[4] == 0.0


class TestCutoffSpec:
    def test_rejects_bad_mu(self):
        for mu in (0.0, -1.0, np.inf):
            with pytest.raises(ValueError):
                CutoffSpec(mu)

    def test_default_mu_value(self):
        assert default_mu(2.0, 2.0) == pytest.approx(8.0)
        assert default_mu(1.5, 2.0) == pytest.approx(4.0 * (2.0 / 3.0 + 0.5 + 1.0))


class TestSplit:
    """The low/high split as record reports it: ul_l2 = ||chi*u||_2 and
    uh_l2 = ||(1 - chi)*u||_2.  A negative time or a field on another grid
    never reaches record: SimState rejects both (see
    test_timestepper.TestSimState)."""

    @staticmethod
    def split_norms(v, t, c, d):
        sample = record(SimState(t, v, d, None), c, [])
        return sample.ul_l2, sample.uh_l2, sample.l2

    def test_reconstruction(self, grid32):
        # uH is the complement u - uL of uL = chi*u, to one rounding per mode
        d = DissipationSpec(grid32, 1.5, 2.0)
        c = CutoffSpec(default_mu(1.5, 2.0))
        v = forward_transform(random_field(grid32, 0))
        ul, uh, _ = self.split_norms(v, 3.0, c, d)
        low = c.symbol(3.0, d.symbol) * v.coeffs
        high = v.coeffs - low
        expected = [parseval(SpectralField(grid32, part), [1.0])[0] for part in (low, high)]
        assert 0.0 < uh and 0.0 < ul
        assert [ul, uh] == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_large_time_leaves_only_zero_mode(self, grid16):
        d = DissipationSpec(grid16, 2.0, 2.0)
        mu = 8.0
        # smallest nonzero symbol value on the unit-spacing lattice is 1
        t = 2.0 * mu  # (1+t)/mu >= 2 on every nonzero mode
        v = forward_transform(random_field(grid16, 1))
        ul, uh, _ = self.split_norms(v, t, CutoffSpec(mu), d)
        zero_mode = np.zeros(v.coeffs.shape)
        zero_mode[0, 0] = 1.0
        # uL keeps the zero mode alone, and uH every other mode
        assert [ul, uh] == parseval(v, [zero_mode, 1.0 - zero_mode])
        assert ul == pytest.approx(abs(v.coeffs[0, 0]) / np.sqrt(grid16.area()), rel=1e-15)

    def test_huge_mu_keeps_everything_low(self, grid16):
        d = DissipationSpec(grid16, 2.0, 2.0)
        mu = 2.0 * float(np.max(d.symbol))
        v = forward_transform(random_field(grid16, 2))
        ul, uh, _ = self.split_norms(v, 0.0, CutoffSpec(mu), d)
        assert uh == 0.0
        assert ul == parseval(v, [1.0])[0]

    def test_pythagoras_with_transition_slack(self, grid32):
        d = DissipationSpec(grid32, 1.5, 2.0)
        c = CutoffSpec(default_mu(1.5, 2.0))
        for seed in range(5):
            v = forward_transform(random_field(grid32, seed))
            # pick t so the transition annulus is populated
            ul, uh, l2 = self.split_norms(v, 2.0, c, d)
            low, high, total = ul ** 2, uh ** 2, l2 ** 2
            assert low + high <= total * (1.0 + 1e-12)
            assert total <= 2.0 * (low + high) * (1.0 + 1e-12)


@pytest.fixture(scope="module")
def small_run():
    from anisoflow import GaussianIC, GridSpec, RunConfig, run_simulation
    from anisoflow.norms import lp_norms
    from anisoflow.run import synthesize_ic

    a1, a2 = 1.5, 2.0
    # normalize the bump so ||u0||_L1 = 1
    grid = GridSpec(128, 128, 40 * np.pi, 40 * np.pi)
    raw = synthesize_ic(
        RunConfig(nx=128, ny=128, lx=grid.lx, ly=grid.ly, ic=GaussianIC(1.0, 2.0)),
        grid,
    )
    amp = 1.0 / lp_norms(raw)[0]
    cfg = RunConfig(
        nx=128, ny=128, lx=grid.lx, ly=grid.ly, alpha1=a1, alpha2=a2,
        t_end=30.0, sample_every=0.5, ic=GaussianIC(amp, 2.0),
        nonlinearity_enabled=True, timeseries_path="", checkpoint_path="",
    )
    series, _ = run_simulation(cfg)
    return series, (a1, a2)


class TestSplitAlongSimulation:
    def test_low_frequency_decay_law(self, small_run):
        series, (a1, a2) = small_run
        sigma = 0.5 * (1.0 / a1 + 1.0 / a2)
        scaled = [s.ul_l2 * (1.0 + s.t) ** sigma for s in series if 5.0 <= s.t]
        assert max(scaled) / min(scaled) <= 3.0

    def test_prop41_shadow_exponent_ordering(self, small_run):
        from anisoflow import fit_power_law

        series, _ = small_run
        window = (5.0, 30.0)
        u_fit = fit_power_law([(s.t, s.l2) for s in series], window)
        ul_fit = fit_power_law([(s.t, s.ul_l2) for s in series], window)
        assert u_fit.exponent <= ul_fit.exponent + 0.1
