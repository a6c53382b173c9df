import numpy as np
import pytest

from anisoflow import (
    DegenerateSampleError,
    DissipationSpec,
    FieldCorpusSpec,
    FluxSpec,
    GridSpec,
    PhysicalField,
    SpectrumLaw,
    corpus_report,
    forward_transform,
    fourier_bound_report,
    generate_corpus,
    gn_ratio,
    hgamma_seminorm,
    lemma53_ratio,
    lemma54_ratio,
)

from conftest import TWO_PI, cosine_field, random_field


def small_spec(seed=1, count=8, law=None, grid=None):
    grid = grid or GridSpec(32, 32, TWO_PI, TWO_PI)
    law = law or SpectrumLaw("powerlaw", decay=1.0)
    return FieldCorpusSpec(count=count, seed=seed, spectrum_law=law, band_limit=2.0 / 3.0, grid=grid)


class TestCorpusGeneration:
    def test_deterministic(self):
        a = generate_corpus(small_spec(seed=11))
        b = generate_corpus(small_spec(seed=11))
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.values, fb.values)

    def test_different_seeds_differ(self):
        a = generate_corpus(small_spec(seed=1))
        b = generate_corpus(small_spec(seed=2))
        assert not np.array_equal(a[0].values, b[0].values)

    def test_zero_mean(self):
        for f in generate_corpus(small_spec(count=4)):
            assert abs(np.mean(f.values)) <= 1e-13 * np.max(np.abs(f.values))

    def test_count_zero_rejected(self):
        with pytest.raises(ValueError):
            small_spec(count=0)

    @pytest.mark.parametrize("band", [0.0, 0.7, 1.0])
    def test_band_limit_domain(self, band):
        with pytest.raises(ValueError):
            FieldCorpusSpec(
                count=1, seed=0, spectrum_law=SpectrumLaw("flat"), band_limit=band,
                grid=GridSpec(16, 16, TWO_PI, TWO_PI),
            )

    def test_band_limit_respected(self):
        spec = small_spec(count=2)
        nx = spec.grid.nx
        for f in generate_corpus(spec):
            c = forward_transform(f).coeffs
            outside = (np.abs(spec.grid.jx)[:, None] > 2.0 / 3.0 * nx / 2.0) | (
                spec.grid.jy[None, :] > 2.0 / 3.0 * nx / 2.0
            )
            assert np.max(np.abs(c[outside])) <= 1e-10 * np.max(np.abs(c))

    def test_zero_width_ring_shell_identity(self):
        # modes with |xi| exactly 5 exist on the unit lattice: (3,4),(5,0),...
        law = SpectrumLaw("ring", k0=5.0, width=0.0)
        spec = small_spec(count=6, law=law)
        for gamma in (1.0, 2.0):
            for f in generate_corpus(spec):
                v = forward_transform(f)
                ratio = hgamma_seminorm(v, gamma) / hgamma_seminorm(v, 0.0)
                assert ratio == pytest.approx(5.0 ** gamma, rel=1e-12)


class TestRatioClosedForms:
    def test_lemma53_single_x_mode_is_one(self, grid32):
        u = cosine_field(grid32, 1, 0)
        d = DissipationSpec(grid32, 2.0, 2.0)
        assert lemma53_ratio(u, 1, d) == pytest.approx(1.0, rel=1e-12)

    def test_lemma54_endpoint_x_only(self, grid32):
        # alpha1=2: s1=0, both RHS terms collapse to ||grad^g u||
        u = cosine_field(grid32, 2, 0)
        d = DissipationSpec(grid32, 2.0, 2.0)
        ratio = lemma54_ratio(u, 1, d)
        assert ratio <= 1.0 + 1e-12
        assert ratio == pytest.approx(0.5, rel=1e-12)

    def test_gn_two_mode_closed_form(self, grid32):
        u = PhysicalField(
            grid32, np.cos(grid32.x)[:, None] * np.cos(grid32.y)[None, :]
        )
        # ||u||_inf = 1, ||u||_L2 = pi, ||u||_H2 = 2*pi on the 2pi box
        expected = 1.0 / (np.sqrt(2.0 * np.pi) * np.sqrt(np.pi))
        assert gn_ratio(u) == pytest.approx(expected, rel=1e-12)

    def test_gamma_validated(self, grid32):
        d = DissipationSpec(grid32, 1.5, 2.0)
        with pytest.raises(ValueError):
            lemma53_ratio(cosine_field(grid32, 1, 0), 0, d)


class TestRatioInvariances:
    @pytest.mark.parametrize("ratio_name", ["lemma53", "lemma54", "gn"])
    def test_amplitude_scaling(self, grid32, ratio_name):
        d = DissipationSpec(grid32, 1.5, 2.0)
        funcs = {
            "lemma53": lambda u: lemma53_ratio(u, 2, d),
            "lemma54": lambda u: lemma54_ratio(u, 2, d),
            "gn": gn_ratio,
        }
        for seed in range(3):
            u = random_field(grid32, seed, band_denom=3)
            base = funcs[ratio_name](u)
            for lam in (5.0, -0.03):
                scaled = funcs[ratio_name](PhysicalField(grid32, lam * u.values))
                assert scaled == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("ratio_name", ["lemma53", "lemma54", "gn"])
    def test_translation(self, grid32, ratio_name):
        d = DissipationSpec(grid32, 1.2, 1.8)
        funcs = {
            "lemma53": lambda u: lemma53_ratio(u, 1, d),
            "lemma54": lambda u: lemma54_ratio(u, 1, d),
            "gn": gn_ratio,
        }
        u = random_field(grid32, 9, band_denom=3)
        base = funcs[ratio_name](u)
        shifted = PhysicalField(grid32, np.roll(u.values, (7, -3), axis=(0, 1)))
        assert funcs[ratio_name](shifted) == pytest.approx(base, rel=1e-10)

    def test_degenerate_zero_field(self, grid32):
        u = PhysicalField(grid32, np.zeros((32, 32)))
        d = DissipationSpec(grid32, 1.5, 2.0)
        with pytest.raises(DegenerateSampleError):
            lemma53_ratio(u, 1, d)
        with pytest.raises(DegenerateSampleError):
            gn_ratio(u)


class TestCorpusReport:
    def test_report_fields_and_no_degenerates(self):
        spec = small_spec(count=12)
        d = DissipationSpec(spec.grid, 1.5, 2.0)
        fields = generate_corpus(spec)
        rep = corpus_report(fields, "lemma53", 1, d)
        assert rep.count == 12 and rep.degenerate_count == 0
        assert 0.0 < rep.min <= rep.mean <= rep.max < np.inf
        assert set(rep.exponents) == {"theta1", "theta2"}

    def test_closure_under_rescaling(self):
        spec = small_spec(count=10)
        d = DissipationSpec(spec.grid, 1.5, 2.0)
        fields = generate_corpus(spec)
        enlarged = fields + [
            PhysicalField(spec.grid, 4.0 * f.values) for f in fields
        ]
        for lemma in ("lemma53", "lemma54", "gn"):
            base = corpus_report(fields, lemma, 1, d)
            grown = corpus_report(enlarged, lemma, 1, d)
            assert grown.max == pytest.approx(base.max, rel=1e-12)

    def test_unknown_lemma_rejected(self):
        spec = small_spec(count=1)
        d = DissipationSpec(spec.grid, 1.5, 2.0)
        with pytest.raises(ValueError):
            corpus_report(generate_corpus(spec), "lemma99", 1, d)


def _run_snapshots(nx, t_end, nonlinear, amplitude=1.0):
    """Short simulation of a smooth bump on a 20*pi box; (t, u_hat) list."""
    from anisoflow import SimState, advance_to, sample_times

    grid = GridSpec(nx, nx, 20 * np.pi, 20 * np.pi)
    d = DissipationSpec(grid, 1.5, 2.0)
    x = grid.x[:, None] - grid.lx / 2.0
    y = grid.y[None, :] - grid.ly / 2.0
    u0 = PhysicalField(grid, amplitude * np.exp(-(x ** 2 + y ** 2) / 4.0 ** 2))
    flux = FluxSpec(1) if nonlinear else None
    state = SimState(0.0, forward_transform(u0), d, flux)
    snaps = [(0.0, state.u_hat)]
    for target in sample_times(t_end, 0.25):
        state = advance_to(state, target, 0.5)
        snaps.append((state.t, state.u_hat))
    return snaps


class TestFourierBound:
    PROBES = [(1, 0), (0, 1), (1, 1), (3, 2), (5, 5)]

    def test_linear_run_constant_zero(self):
        snaps = _run_snapshots(64, 2.0, nonlinear=False)
        rep = fourier_bound_report(snaps, self.PROBES)
        assert rep.sup_constant == 0.0
        assert rep.max_pointwise_excess <= 1e-10

    def test_pointwise_bound_nonlinear(self):
        snaps = _run_snapshots(64, 2.0, nonlinear=True)
        rep = fourier_bound_report(snaps, self.PROBES)
        assert rep.max_pointwise_excess <= 1e-10
        assert np.isfinite(rep.sup_constant)

    def test_refinement_stability(self):
        # the pointwise bound |u_hat| <= ||u||_L1 <= ||u0||_L1 makes the
        # clamped numerator vanish identically, so the sup is 0 at every
        # resolution: finite and trivially stable under refinement
        reps = {}
        for nx in (256, 512):
            snaps = _run_snapshots(nx, 2.0, nonlinear=True, amplitude=2.0)
            reps[nx] = fourier_bound_report(snaps, self.PROBES)
        a, b = reps[256].sup_constant, reps[512].sup_constant
        assert np.isfinite(a) and np.isfinite(b)
        assert abs(a - b) <= 0.2 * max(a, b) + 1e-30
        assert a == 0.0 and b == 0.0

    def test_negative_k_probe_reads_the_mirror_mode(self):
        # the half lattice stores (-j, -k) for a probe (j, k) with k < 0;
        # |u_hat(xi)| = |u_hat(-xi)| makes both probes one measurement
        snaps = _run_snapshots(64, 1.0, nonlinear=True)
        negative_k = fourier_bound_report(snaps, [(1, -1), (3, -2)])
        positive_k = fourier_bound_report(snaps, [(-1, 1), (-3, 2)])
        assert negative_k == positive_k
        assert negative_k.probe == (-1, 1)
        with pytest.raises(ValueError):
            fourier_bound_report(snaps, [(0, 33)])
