import os
import threading

import numpy as np
import pytest

from anisoflow import (
    DissipationSpec,
    FieldCorpusSpec,
    GridSpec,
    PhysicalField,
    SpectrumLaw,
    corpus_report,
    forward_transform,
    generate_corpus,
)
import anisoflow.ineq as ineq_mod
from anisoflow.ineq import DegenerateSampleError
from anisoflow.norms import parseval_sums
from anisoflow.spectral import BandLayout, fourier_weight

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

    @pytest.mark.parametrize("keys", [{"count": 2.5}, {"seed": 1.5}])
    def test_non_integer_count_or_seed_rejected(self, keys):
        # before the check, a float count or seed failed later, in range or
        # SeedSequence, with a TypeError
        with pytest.raises(ValueError, match="must be an integer"):
            small_spec(**keys)

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
                hg, l2 = parseval_sums(v, [fourier_weight(v.grid, 2.0 * gamma), 1.0])
                ratio = hg / l2
                assert ratio == pytest.approx(5.0 ** gamma, rel=1e-12)

    def test_fields_are_read_only(self):
        for f in generate_corpus(small_spec(count=3)):
            assert not f.values.flags.writeable
            with pytest.raises(ValueError):
                f.values[0, 0] = 1.0

    @pytest.mark.parametrize("band_limit", [2.0 / 3.0, 0.5, 0.3])
    @pytest.mark.parametrize("grid", [GridSpec(32, 32, TWO_PI, TWO_PI), GridSpec(48, 16, 3.0, 7.5)])
    @pytest.mark.parametrize("law", [
        SpectrumLaw("flat"), SpectrumLaw("powerlaw", decay=1.0),
        SpectrumLaw("ring", k0=5.0, width=0.0), SpectrumLaw("ring", k0=4.0, width=1.5),
    ])
    def test_equals_the_full_lattice_construction(self, law, grid, band_limit):
        spec = FieldCorpusSpec(count=4, seed=7, spectrum_law=law, band_limit=band_limit, grid=grid)
        for f, ref in zip(generate_corpus(spec), full_lattice_corpus(spec), strict=True):
            assert f.values.tobytes() == ref.tobytes()


def corpus_threads():
    return [t for t in threading.enumerate() if t.name.startswith("anisoflow-corpus")]


class TestCorpusPool:
    """generate_corpus synthesizes its members on a pool of its own."""

    def test_same_bits_for_one_and_four_workers(self, monkeypatch):
        spec = small_spec(count=20)  # more members than four workers keep in flight
        corpora = []
        for workers in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)),
                                raising=False)
            corpora.append(b"".join(f.values.tobytes() for f in generate_corpus(spec)))
        assert corpora[0] == corpora[1]

    def test_members_are_built_on_pool_threads_that_end_with_the_call(self, monkeypatch):
        names = []
        to_physical = BandLayout.to_physical

        def recorded(band, b):
            names.append(threading.current_thread().name)
            return to_physical(band, b)

        monkeypatch.setattr(BandLayout, "to_physical", recorded)
        generate_corpus(small_spec(count=6))
        assert len(names) == 6 and all(n.startswith("anisoflow-corpus") for n in names)
        assert corpus_threads() == []

    def test_a_member_error_propagates_and_no_thread_outlives_it(self, monkeypatch):
        calls = []
        to_physical = BandLayout.to_physical

        def failing(band, b):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("third member failed")
            return to_physical(band, b)

        monkeypatch.setattr(BandLayout, "to_physical", failing)
        with pytest.raises(RuntimeError, match="third member failed"):
            generate_corpus(small_spec(count=12))
        assert corpus_threads() == []

    def test_a_worker_sees_the_callers_errstate(self, monkeypatch):
        seen = []
        to_physical = BandLayout.to_physical

        def recorded(band, b):
            seen.append((threading.current_thread().name, np.geterr()))
            return to_physical(band, b)

        monkeypatch.setattr(BandLayout, "to_physical", recorded)
        with np.errstate(divide="raise", over="ignore", under="warn", invalid="call"):
            caller = np.geterr()
            generate_corpus(small_spec(count=4))
        assert caller != np.geterr()
        assert len(seen) == 4
        for name, err in seen:
            assert name.startswith("anisoflow-corpus") and err == caller


def full_lattice_corpus(spec):
    """The corpus values built over the whole half lattice: the masked
    envelope times the phases' exponential everywhere, the Hermitian fix-up
    and signs of both self-conjugate columns, then the unscaled inverse."""
    rng = np.random.default_rng(spec.seed)
    g = spec.grid
    env = np.where(
        (np.abs(g.jx[:, None]) <= spec.band_limit * g.nx / 2.0)
        & (g.jy[None, :] <= spec.band_limit * g.ny / 2.0),
        spec.spectrum_law.envelope(g.xi_mod),
        0.0,
    )
    nx, hy = env.shape
    out = []
    for _ in range(spec.count):
        c = env * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(nx, hy)))
        for col in (0, hy - 1):
            c[nx // 2 + 1:, col] = np.conj(c[1:nx // 2, col])[::-1]
            c[0, col] = env[0, col] * rng.choice((-1.0, 1.0))
            c[nx // 2, col] = env[nx // 2, col] * rng.choice((-1.0, 1.0))
        c[0, 0] = 0.0
        out.append(np.fft.irfft2(c, s=(g.nx, g.ny), norm="forward"))
    return out


def ratio(u, lemma, gamma, d):
    """The lemma's ratio for the single field u, through corpus_report."""
    rep = corpus_report([u], lemma, gamma, d)
    assert rep.count == 1 and rep.degenerate_count == 0
    assert rep.max == rep.mean == rep.min
    return rep.max


def reference_ratios(u, gamma, d):
    """All three ratios of u from explicit sums over the full fft2 lattice."""
    g = u.grid
    c = np.fft.fft2(u.values) * g.dx * g.dy
    ax = np.abs(2.0 * np.pi * np.fft.fftfreq(g.nx, g.lx / g.nx))[:, None]
    ay = np.abs(2.0 * np.pi * np.fft.fftfreq(g.ny, g.ly / g.ny))[None, :]
    xi2 = ax ** 2 + ay ** 2

    def norm(weight):
        return np.sqrt(np.sum(weight * np.abs(c) ** 2) / (g.lx * g.ly))

    a1, a2 = d.alpha1, d.alpha2
    lhs = norm(xi2 ** gamma * ax ** (2.0 - a1))
    big_x, small_x = norm(xi2 ** gamma * ax ** a1), norm(ax ** a1)
    big_y, small_y = norm(xi2 ** gamma * ay ** a2), norm(ay ** a2)
    grad_g = norm(xi2 ** gamma)
    t1, t2 = (gamma + 1.0 - a1) / gamma, (2.0 * gamma + 2.0 - a1 - a2) / (2.0 * gamma)
    s1, s2 = (2.0 - a1) / a1, (2.0 - a1) / a2
    return {
        "lemma53": lhs / (big_x ** t1 * small_x ** (1 - t1) + big_y ** t2 * small_y ** (1 - t2)),
        "lemma54": lhs / (big_x ** s1 * grad_g ** (1 - s1) + big_y ** s2 * grad_g ** (1 - s2)),
        "gn": np.max(np.abs(u.values)) / np.sqrt(norm(xi2 ** 2) * norm(1.0)),
    }


class TestRatioReference:
    @pytest.mark.parametrize("gamma", [1, 2])
    @pytest.mark.parametrize("alphas", [(1.5, 2.0), (1.2, 1.8)])
    def test_corpus_matches_full_lattice_sums(self, gamma, alphas):
        # nx != ny and lx != ly; the unbanded fields carry both Nyquist lines
        grid = GridSpec(24, 16, 3.0, 7.5)
        d = DissipationSpec(grid, *alphas)
        fields = [random_field(grid, seed, band_denom) for seed, band_denom
                  in ((1, None), (2, None), (3, 3), (4, 3))]
        refs = [reference_ratios(u, gamma, d) for u in fields]
        for lemma in ("lemma53", "lemma54", "gn"):
            expected = np.array([r[lemma] for r in refs])
            rep = corpus_report(fields, lemma, gamma, d)
            assert rep.count == 4 and rep.degenerate_count == 0
            assert rep.max == pytest.approx(expected.max(), rel=1e-12)
            assert rep.mean == pytest.approx(expected.mean(), rel=1e-12)
            assert rep.min == pytest.approx(expected.min(), rel=1e-12)


class TestRatioClosedForms:
    def test_lemma53_single_x_mode_is_one(self, grid32):
        u = cosine_field(grid32, 1, 0)
        d = DissipationSpec(grid32, 2.0, 2.0)
        assert ratio(u, "lemma53", 1, d) == pytest.approx(1.0, rel=1e-12)

    def test_lemma54_endpoint_x_only(self, grid32):
        # alpha1=2: s1=0, both RHS terms collapse to ||grad^g u||
        u = cosine_field(grid32, 2, 0)
        d = DissipationSpec(grid32, 2.0, 2.0)
        r = ratio(u, "lemma54", 1, d)
        assert r <= 1.0 + 1e-12
        assert r == pytest.approx(0.5, rel=1e-12)

    def test_gn_two_mode_closed_form(self, grid32):
        u = PhysicalField(
            grid32, np.cos(grid32.x)[:, None] * np.cos(grid32.y)[None, :]
        )
        # ||u||_inf = 1, ||u||_L2 = pi, ||u||_H2 = 2*pi on the 2pi box
        expected = 1.0 / (np.sqrt(2.0 * np.pi) * np.sqrt(np.pi))
        d = DissipationSpec(grid32, 1.5, 2.0)
        assert ratio(u, "gn", 1, d) == pytest.approx(expected, rel=1e-12)

    def test_gamma_validated(self, grid32):
        # gn reads no gamma, but a bad one is still rejected
        d = DissipationSpec(grid32, 1.5, 2.0)
        for lemma in ("lemma53", "lemma54", "gn"):
            for gamma in (0, 1.5):
                with pytest.raises(ValueError, match="gamma must be an integer"):
                    corpus_report([cosine_field(grid32, 1, 0)], lemma, gamma, d)


class TestRatioInvariances:
    @pytest.mark.parametrize("lemma", ["lemma53", "lemma54", "gn"])
    def test_amplitude_scaling(self, grid32, lemma):
        d = DissipationSpec(grid32, 1.5, 2.0)
        for seed in range(3):
            u = random_field(grid32, seed, band_denom=3)
            base = ratio(u, lemma, 2, d)
            for lam in (5.0, -0.03):
                scaled = ratio(PhysicalField(grid32, lam * u.values), lemma, 2, d)
                assert scaled == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("lemma", ["lemma53", "lemma54", "gn"])
    def test_translation(self, grid32, lemma):
        d = DissipationSpec(grid32, 1.2, 1.8)
        u = random_field(grid32, 9, band_denom=3)
        base = ratio(u, lemma, 1, d)
        shifted = PhysicalField(grid32, np.roll(u.values, (7, -3), axis=(0, 1)))
        assert ratio(shifted, lemma, 1, d) == pytest.approx(base, rel=1e-10)

    def test_degenerate_zero_field(self, grid32):
        zero = PhysicalField(grid32, np.zeros((32, 32)))
        u = random_field(grid32, 5, band_denom=3)
        d = DissipationSpec(grid32, 1.5, 2.0)
        for lemma in ("lemma53", "lemma54", "gn"):
            rep = corpus_report([zero, u], lemma, 1, d)
            assert rep.count == 2 and rep.degenerate_count == 1
            assert rep.max == rep.min == ratio(u, lemma, 1, d)

    @pytest.mark.parametrize("lemma", ["lemma53", "lemma54", "gn"])
    def test_all_degenerate_corpus_rejected(self, grid32, lemma):
        zero = PhysicalField(grid32, np.zeros((32, 32)))
        d = DissipationSpec(grid32, 1.5, 2.0)
        for fields in ([zero, zero], []):
            with pytest.raises(DegenerateSampleError):
                corpus_report(fields, lemma, 1, d)


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

    def test_field_on_another_grid_rejected(self):
        spec = small_spec(count=2)
        d = DissipationSpec(GridSpec(32, 32, TWO_PI, 2.0 * TWO_PI), 1.5, 2.0)
        for lemma in ("lemma53", "lemma54", "gn"):
            with pytest.raises(ValueError, match="dissipation is on"):
                corpus_report(generate_corpus(spec), lemma, 1, d)


class TestFieldRows:
    LEMMAS = ("lemma53", "lemma54", "gn")

    def test_one_transform_per_read_only_field(self, monkeypatch):
        calls = []

        def counted(u):
            calls.append(u)
            return forward_transform(u)

        monkeypatch.setattr(ineq_mod, "forward_transform", counted)
        spec = small_spec(count=6)
        d = DissipationSpec(spec.grid, 1.5, 2.0)
        fields = generate_corpus(spec)
        for lemma in self.LEMMAS:
            corpus_report(fields, lemma, 1, d)
        assert len(calls) == 6 and all(a is b for a, b in zip(calls, fields))
        for lemma in self.LEMMAS:
            corpus_report(fields, lemma, 2, d)
        assert len(calls) == 12
        # a writeable copy is transformed on every report
        copies = [PhysicalField(u.grid, u.values.copy()) for u in fields]
        for lemma in self.LEMMAS:
            corpus_report(copies, lemma, 1, d)
        assert len(calls) == 12 + 3 * 6

    def test_writeable_field_changed_in_place_is_evaluated_afresh(self):
        # b has another spectrum law: members of one corpus share their
        # Fourier moduli, so their Parseval-only lemma ratios agree in exact
        # arithmetic and would differ by rounding alone.  Measured: a and b
        # differ by 9-160% in each lemma's ratio
        spec = small_spec(count=1)
        d = DissipationSpec(spec.grid, 1.5, 2.0)
        (a,) = generate_corpus(spec)
        (b,) = generate_corpus(small_spec(count=1, law=SpectrumLaw("powerlaw", decay=3.0)))
        u = PhysicalField(spec.grid, a.values.copy())
        for lemma in self.LEMMAS:
            before = corpus_report([u], lemma, 1, d)
            u.values[:] = b.values
            after = corpus_report([u], lemma, 1, d)
            assert after == corpus_report([b], lemma, 1, d) != before
            u.values[:] = a.values

    def test_read_only_rows_match_writeable_copies_bit_for_bit(self):
        spec = small_spec(count=5, grid=GridSpec(24, 16, 3.0, 7.5))
        fields = generate_corpus(spec)
        copies = [PhysicalField(u.grid, u.values.copy()) for u in fields]
        # interleaved, so each field holds every (gamma, d) row at once
        for _ in range(2):
            for gamma in (1, 2):
                for alphas in ((1.5, 2.0), (1.2, 1.8)):
                    d = DissipationSpec(spec.grid, *alphas)
                    for lemma in self.LEMMAS:
                        kept = corpus_report(fields, lemma, gamma, d)
                        fresh = corpus_report(copies, lemma, gamma, d)
                        assert (kept.max, kept.mean, kept.min) == (fresh.max, fresh.mean, fresh.min)
