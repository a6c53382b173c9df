import hashlib
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisoflow import (
    DissipationSpec,
    FieldCorpusSpec,
    FluxSpec,
    GaussianIC,
    PhysicalField,
    RunConfig,
    SimState,
    SpectrumLaw,
    checkpoint_read,
    energy_audit,
    forward_transform,
    generate_corpus,
    inverse_transform,
    load_config,
    make_grid,
    max_principle_audit,
    read_timeseries,
    run_simulation,
    sample_times,
)
from anisoflow.cli import load_lab_config, main as cli_main
from anisoflow.config import RandomBlobIC, SingleModeIC, parse_ic
from anisoflow.errors import CheckpointError, ConfigError
from anisoflow.io import checkpoint_write, write_timeseries
from anisoflow.run import advance_to, initial_state, synthesize_ic

from conftest import keep_mask

TWO_PI = 2.0 * np.pi
ROOT = Path(__file__).resolve().parent.parent


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadConfig:
    def test_single_key_rest_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "alpha1 = 1.5\n"))
        assert cfg.alpha1 == 1.5
        assert cfg.nx == cfg.ny == 512
        assert cfg.lx == pytest.approx(100 * math.pi)
        assert cfg.alpha2 == 2.0
        assert cfg.kappa == 1
        assert cfg.t_end == 100.0
        assert cfg.cfl_safety == 0.5
        assert cfg.sample_every == 0.5
        assert cfg.gammas == (1, 2)
        assert cfg.ic == GaussianIC(5.0, 5.0)
        assert cfg.nonlinearity_enabled

    def test_comments_and_blank_lines(self, tmp_path):
        text = "# a comment\n\nnx = 64  # trailing\nny=64\n"
        cfg = load_config(write_cfg(tmp_path, text))
        assert cfg.nx == cfg.ny == 64

    def test_alpha_above_two_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="alpha1"):
            load_config(write_cfg(tmp_path, "alpha1 = 2.5\n"))

    def test_alpha_at_one_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="alpha2"):
            load_config(write_cfg(tmp_path, "alpha2 = 1.0\n"))

    def test_odd_nx_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="nx"):
            load_config(write_cfg(tmp_path, "nx = 7\n"))

    def test_unknown_key_rejected(self, tmp_path):
        # every unknown key is listed, not only the first
        with pytest.raises(ConfigError, match=r"unknown config key\(s\): foo, wavelength$"):
            load_config(write_cfg(tmp_path, "wavelength = 3\nnx = 64\nfoo = 1\n"))

    def test_parse_error_carries_line_number(self, tmp_path):
        with pytest.raises(ConfigError, match=":3"):
            load_config(write_cfg(tmp_path, "nx = 64\nny = 64\nbogus line\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(write_cfg(tmp_path, "nx = 64\nnx = 32\n"))

    def test_empty_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=":2: empty key$"):
            load_config(write_cfg(tmp_path, "nx = 64\n = 3\n"))

    def test_boolean_words(self, tmp_path):
        for word, value in (("true", True), ("Off", False)):
            text = f"nonlinearity_enabled = {word}\n"
            assert load_config(write_cfg(tmp_path, text)).nonlinearity_enabled is value
        with pytest.raises(ConfigError, match="'nonlinearity_enabled': not a boolean: 'maybe'"):
            load_config(write_cfg(tmp_path, "nonlinearity_enabled = maybe\n"))

    def test_bad_value_names_key(self, tmp_path):
        with pytest.raises(ConfigError, match="t_end"):
            load_config(write_cfg(tmp_path, "t_end = soon\n"))

    def test_ic_forms(self):
        assert parse_ic("gaussian(5, 2.5)") == GaussianIC(5.0, 2.5)
        assert parse_ic("gaussian(1, 2, 3, 4)") == GaussianIC(1.0, 2.0, (3.0, 4.0))
        assert parse_ic("random_blob(42, 1.5, 0.25)") == RandomBlobIC(42, 1.5, 0.25)
        assert parse_ic("single_mode(3, -2, 0.01)") == SingleModeIC(3, -2, 0.01)
        for bad in ("gaussian(1)", "blob(1,2,3)", "gaussian", "single_mode(1,2)"):
            with pytest.raises(ValueError):
                parse_ic(bad)
        with pytest.raises(ValueError, match="malformed initial condition 'gaussian\\(1,'"):
            parse_ic("gaussian(1,")

    @pytest.mark.parametrize("ic,what", [
        ("gaussian(1, 1, nan, 0)", "center"),
        ("gaussian(1, 1, 0, inf)", "center"),
        ("gaussian(1, 1, -inf, nan)", "center"),
        ("random_blob(1, nan, 0.5)", "amplitude"),
        ("single_mode(1, 1, inf)", "amplitude"),
        # on 16^2 the flux keeps |j| < 16/3; the mode would run from zero
        ("single_mode(6, 0, 1.0)\nnx = 16\nny = 16\nlx = 6.283185307179586", "band"),
    ], ids=["nan, 0", "0, inf", "-inf, nan", "random_blob-amplitude", "single_mode-amplitude",
            "single_mode-outside-band"])
    def test_nonfinite_gaussian_center_rejected(self, tmp_path, ic, what):
        # every form's nonfinite entries, not only the gaussian center
        with pytest.raises(ConfigError, match=f"'ic'.*{what}"):
            load_config(write_cfg(tmp_path, f"ic = {ic}\n"))

    def test_single_mode_band_edge(self, tmp_path):
        grid = "nx = 16\nny = 16\nlx = 6.283185307179586\nly = 6.283185307179586\n"
        for k in ("5, 0", "-5, 0", "0, 5", "-5, -5"):
            cfg = load_config(write_cfg(tmp_path, f"{grid}ic = single_mode({k}, 1)\n"))
            # the mode survives the truncation to the band
            assert initial_state(cfg).u_hat.coeffs.any()
        for k in ("6, 0", "-6, 0", "0, 6", "0, -6"):
            with pytest.raises(ConfigError, match="'ic'.*band"):
                load_config(write_cfg(tmp_path, f"{grid}ic = single_mode({k}, 1)\n"))
            # without the flux nothing is truncated
            load_config(write_cfg(tmp_path, f"{grid}ic = single_mode({k}, 1)\n"
                                            "nonlinearity_enabled = false\n"))
        with pytest.raises(ConfigError, match="'ic'.*band"):
            load_config(write_cfg(tmp_path, f"{grid}kappa = 2\nic = single_mode(4, 0, 1)\n"))

    def test_duplicate_gammas_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="'gammas'.*distinct"):
            load_config(write_cfg(tmp_path, "gammas = 1,1\n"))

    def test_empty_gammas_accepted(self, tmp_path):
        assert RunConfig(gammas=()).gammas == ()
        assert load_config(write_cfg(tmp_path, "gammas =\n")).gammas == ()

    @pytest.mark.parametrize("key,value,raw", [
        ("nx", 7, "7"),
        ("alpha1", 0.5, "0.5"),
        ("kappa", 0, "0"),
        ("mu", -1.0, "-1"),
        ("cfl_safety", 1.5, "1.5"),
        ("gammas", (0, 1), "0,1"),
        ("ic", GaussianIC(1.0, -1.0), "gaussian(1, -1)"),
        ("t_end", 0.0, "0"),
        ("sample_every", -0.5, "-0.5"),
        ("ic", RandomBlobIC(-1, 1.0, 0.5), "random_blob(-1, 1, 0.5)"),
        # the blob is a generate_corpus member, whose band limit is (0, 2/3]
        ("ic", RandomBlobIC(1, 1.0, 0.7), "random_blob(1, 1, 0.7)"),
        # on 32^2 the flux keeps |j| < 32/3; the mode would run from zero
        ("ic", SingleModeIC(15, 0, 1.0), "single_mode(15, 0, 1)"),
        # and the lattice itself stops at 32/2 - 1
        ("ic", SingleModeIC(0, 16, 1.0), "single_mode(0, 16, 1)"),
    ], ids=["nx", "alpha1", "kappa", "mu", "cfl_safety", "gammas", "t_end", "sample_every",
            "gaussian-radius", "random_blob-seed", "random_blob-band", "single_mode-outside-band",
            "single_mode-beyond-lattice"])
    def test_direct_config_rejected_as_from_a_file(self, tmp_path, key, value, raw):
        # a RunConfig checks itself, so code and files share one rule and
        # one message, which names the key
        keys = {"nx": 32, "ny": 32, key: value}
        with pytest.raises(ConfigError, match=rf"^config(: | key '){key}\b") as direct:
            RunConfig(**keys)
        text = "".join(f"{k} = {raw if k == key else v}\n" for k, v in keys.items())
        with pytest.raises(ConfigError) as loaded:
            load_config(write_cfg(tmp_path, text))
        assert str(loaded.value) == str(direct.value)
        with pytest.raises(ConfigError, match=rf"^config(: | key '){key}\b"):
            replace(RunConfig(nx=32, ny=32), **{key: value})

    def test_full_file(self, tmp_path):
        text = (
            "nx = 64\nny = 64\nlx = 12.566370614359172\nly = 12.566370614359172\n"
            "alpha1 = 1.5\nalpha2 = 2\nkappa = 2\nt_end = 5\ncfl_safety = 0.4\n"
            "sample_every = 0.25\nmu = 9.5\ngammas = 1,2,3\n"
            "ic = single_mode(2, 1, 0.125)\nnonlinearity_enabled = false\n"
            "timeseries_path = out.csv\ncheckpoint_path = final.ckpt\n"
        )
        cfg = load_config(write_cfg(tmp_path, text))
        assert cfg.kappa == 2 and cfg.mu == 9.5 and cfg.gammas == (1, 2, 3)
        assert cfg.ic == SingleModeIC(2, 1, 0.125)
        assert not cfg.nonlinearity_enabled


def tiny_config(tmp_path, **overrides):
    base = dict(
        nx=32, ny=32, lx=TWO_PI, ly=TWO_PI, alpha1=1.5, alpha2=2.0,
        t_end=1.0, sample_every=0.25, ic=SingleModeIC(2, 1, 1.0),
        nonlinearity_enabled=False,
        timeseries_path=str(tmp_path / "ts.csv"), checkpoint_path="",
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRunSimulation:
    def test_linear_single_mode_matches_closed_form(self, tmp_path):
        cfg = tiny_config(tmp_path)
        series, state = run_simulation(cfg)
        m = 2.0 ** 1.5 + 1.0 ** 2
        for s in series:
            exact = np.exp(-s.t * m) * np.sqrt(cfg.lx * cfg.ly / 2.0)
            assert s.l2 == pytest.approx(exact, rel=1e-10)
        assert state.t == cfg.t_end

    def test_deterministic_csv(self, tmp_path):
        digests = []
        for name in ("a.csv", "b.csv"):
            cfg = tiny_config(
                tmp_path, nonlinearity_enabled=True,
                ic=RandomBlobIC(7, 1.0, 0.5),
                timeseries_path=str(tmp_path / name),
            )
            run_simulation(cfg)
            digests.append(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_gaussian_run_passes_max_principle(self, tmp_path):
        # positive data sits at the L1 equality case, so truncation
        # undershoot must stay below tol*mass: keep the viscous front
        # width (4*nu/amplitude) well above dx
        cfg = tiny_config(
            tmp_path, nx=128, ny=128, lx=20 * np.pi, ly=20 * np.pi,
            alpha1=2.0, alpha2=2.0, t_end=10.0, sample_every=0.5,
            ic=GaussianIC(0.3, 2.0), nonlinearity_enabled=True,
            timeseries_path="",
        )
        series, _ = run_simulation(cfg)
        rep = max_principle_audit(series, 1e-6)
        assert rep.passed, rep
        # the first 0.5-wide pair under-samples the spectral transient of
        # the compact IC, so only a coarse bound is meaningful here; tight
        # energy checks use fine sampling (test_timestepper, test_decay)
        en = energy_audit(series)
        assert en.max_relative_residual < 0.2

    def test_gaussian_ic_is_periodic(self):
        # distances wrap across the seam: the bump at the origin is the
        # centred bump rolled by half the box
        grid = make_grid(64, 64, 2.0 * np.pi, 2.0 * np.pi)

        def bump(center):
            cfg = RunConfig(nx=64, ny=64, lx=grid.lx, ly=grid.ly, ic=GaussianIC(1.0, 1.0, center))
            return synthesize_ic(cfg, grid).values

        rolled = np.roll(bump(None), (32, 32), axis=(0, 1))
        assert np.max(np.abs(bump((0.0, 0.0)) - rolled)) <= 1e-14

    def test_sample_times_cover_t_end(self):
        assert sample_times(1.0, 0.25) == [0.25, 0.5, 0.75, 1.0]
        got = sample_times(1.0, 0.3)
        assert got[-1] == 1.0 and len(got) == 4

    @pytest.mark.parametrize("every", [0.0, -0.25, math.nan, math.inf])
    def test_sample_times_reject_bad_spacing(self, every):
        # with a nonpositive spacing the sampling loop would never end
        with pytest.raises(ValueError, match="sample_every must be positive and finite"):
            sample_times(1.0, every)

    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.nan, math.inf])
    def test_sample_times_reject_bad_end(self, t_end):
        # a nonpositive or NaN end gave [t_end] back; with an infinite one
        # the sampling loop would never end
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            sample_times(t_end, 0.5)

    def test_blowup_flushes_partial_series(self, tmp_path, monkeypatch):
        from anisoflow.errors import BlowUpError
        import anisoflow.run as run_mod

        calls = {"n": 0}
        real_step = run_mod.step_ifrk4

        def exploding_step(state, dt):
            calls["n"] += 1
            if state.t >= 0.5:
                raise BlowUpError(state.t + dt)
            return real_step(state, dt)

        monkeypatch.setattr(run_mod, "step_ifrk4", exploding_step)
        cfg = tiny_config(tmp_path, nonlinearity_enabled=True, t_end=2.0)
        with pytest.raises(BlowUpError):
            run_simulation(cfg)
        flushed = read_timeseries(cfg.timeseries_path)
        assert calls["n"] > 0
        # samples up to the failure time were written out
        assert [s.t for s in flushed] == [0.0, 0.25, 0.5]


class TestRandomBlobIC:
    """random_blob data are one member of a flat corpus, rescaled."""

    GRIDS = [make_grid(32, 32, TWO_PI, TWO_PI), make_grid(48, 32, TWO_PI, 2.0 * TWO_PI)]

    @staticmethod
    def blob(grid, seed, amplitude, band):
        cfg = RunConfig(nx=grid.nx, ny=grid.ny, lx=grid.lx, ly=grid.ly,
                        ic=RandomBlobIC(seed, amplitude, band))
        return synthesize_ic(cfg, grid).values

    @pytest.mark.parametrize("band", [0.25, 0.5, 2.0 / 3.0])
    @pytest.mark.parametrize("grid", GRIDS, ids=["32x32", "48x32"])
    def test_is_the_flat_corpus_member_rescaled(self, grid, band):
        for seed, amplitude in ((0, 1.0), (7, 0.3), (12345, -2.5)):
            u = self.blob(grid, seed, amplitude, band)
            (member,) = generate_corpus(FieldCorpusSpec(1, seed, SpectrumLaw("flat"), band, grid))
            peak = np.max(np.abs(member.values))
            assert u.tobytes() == (member.values * (amplitude / peak)).tobytes()
            assert np.max(np.abs(u)) == pytest.approx(abs(amplitude), rel=1e-15)
            assert abs(np.mean(u)) <= 1e-15 * abs(amplitude)

    @pytest.mark.parametrize("band", [0.25, 0.5, 2.0 / 3.0])
    @pytest.mark.parametrize("grid", GRIDS, ids=["32x32", "48x32"])
    def test_unit_moduli_on_the_band_and_zero_outside(self, grid, band):
        # the band |j| <= band*nx/2, k <= band*ny/2 without the mean: one
        # modulus on it, and nothing but the forward transform's rounding off it
        band_mask = ((np.abs(grid.jx) <= band * grid.nx / 2.0)[:, None]
                     & (grid.jy <= band * grid.ny / 2.0)[None, :])
        band_mask[0, 0] = False
        c = np.abs(forward_transform(PhysicalField(grid, self.blob(grid, 3, 1.0, band))).coeffs)
        on = c[band_mask]
        assert np.max(on) - np.min(on) <= 1e-13 * np.max(on)
        assert np.max(c[~band_mask]) <= 1e-14 * np.max(on)

    def test_deterministic_per_seed(self):
        grid = self.GRIDS[1]
        a, b, other = (self.blob(grid, seed, 1.0, 0.5) for seed in (5, 5, 6))
        assert a.tobytes() == b.tobytes()
        assert not np.array_equal(a, other)

    def test_a_band_holding_only_the_mean_gives_zero(self):
        grid = self.GRIDS[0]
        assert not np.any(self.blob(grid, 1, 1.0, 0.01))

    def test_takes_no_two_dimensional_fft(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the blob is synthesized through its band layout")

        for name in ("fft2", "ifft2", "rfft2", "irfft2"):
            monkeypatch.setattr(np.fft, name, forbidden)
        assert np.any(self.blob(self.GRIDS[0], 1, 1.0, 0.5))


class TestTimeseriesIO:
    def test_empty_series_header_only(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        write_timeseries([], path, [1, 2])
        content = (tmp_path / "empty.csv").read_text()
        assert content == "t,l1,l2,l4,linf,hg1,hg2,diss_x,diss_y,ul_l2,uh_l2\n"

    def test_single_sample_two_lines(self, tmp_path):
        cfg = tiny_config(tmp_path, t_end=0.25, sample_every=0.5)
        series, _ = run_simulation(cfg)
        write_timeseries(series[:1], str(tmp_path / "one.csv"), [1, 2])
        assert len((tmp_path / "one.csv").read_text().splitlines()) == 2

    def test_round_trip_bit_exact(self, tmp_path):
        cfg = tiny_config(tmp_path, nonlinearity_enabled=True)
        series, _ = run_simulation(cfg)
        path = str(tmp_path / "rt.csv")
        write_timeseries(series, path, [1, 2])
        # the in-step ledger is not serialized: same header, and samples
        # read back carry no ledger, so their audit has no ledger residual
        header = (tmp_path / "rt.csv").read_text().splitlines()[0]
        assert header == "t,l1,l2,l4,linf,hg1,hg2,diss_x,diss_y,ul_l2,uh_l2"
        back = read_timeseries(path)
        assert len(back) == len(series)
        for a, b in zip(series, back):
            for name in ("t", "l1", "l2", "l4", "linf", "diss_x", "diss_y",
                         "ul_l2", "uh_l2"):
                assert getattr(a, name) == getattr(b, name)
            assert a.hgamma == b.hgamma
            assert b.ledger is None
        assert energy_audit(series).ledger_residuals is not None
        audit = energy_audit(back)
        assert audit.ledger_residuals is None
        assert audit.residuals == energy_audit(series).residuals

    def test_round_trip_without_gammas(self, tmp_path):
        # a programmatic run with no H^gamma column writes no empty column
        cfg = tiny_config(tmp_path, gammas=(), nonlinearity_enabled=True)
        series, _ = run_simulation(cfg)
        header = (tmp_path / "ts.csv").read_text().splitlines()[0]
        assert header == "t,l1,l2,l4,linf,diss_x,diss_y,ul_l2,uh_l2"
        back = read_timeseries(cfg.timeseries_path)
        assert [b.hgamma for b in back] == [{}] * len(series)
        # 17 significant digits: equal bytes mean equal floats
        write_timeseries(back, str(tmp_path / "again.csv"), ())
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "ts.csv").read_bytes()

    def test_read_rejects_malformed_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,l2\n0,1\n")
        with pytest.raises(ValueError):
            read_timeseries(str(p))

    def test_read_rejects_a_row_of_another_width(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("t,l1,l2,l4,linf,diss_x,diss_y,ul_l2,uh_l2\n0,1,1,1,1,0,0,1\n")
        with pytest.raises(ValueError, match="row width 8 != header width 9"):
            read_timeseries(str(p))


class TestCheckpoint:
    def test_round_trip_bit_exact_physical(self, tmp_path):
        cfg = tiny_config(tmp_path, nonlinearity_enabled=True)
        _, state = run_simulation(cfg)
        path = tmp_path / "s.ckpt"
        checkpoint_write(state, str(path))
        # the stored payload is exactly the physical state at write time,
        # which a band-held flux state builds from its band and which agrees
        # with the inverse transform to rounding
        raw = path.read_bytes()
        payload = np.frombuffer(raw[8 + 8 * 8:], dtype="<f8").reshape(32, 32)
        np.testing.assert_array_equal(payload, state.physical.values)
        ref = inverse_transform(state.u_hat).values
        assert np.max(np.abs(payload - ref)) <= 4e-16 * np.max(np.abs(ref))
        loaded = checkpoint_read(str(path))
        assert loaded.t == state.t
        assert loaded.flux is not None and loaded.flux.kappa == 1
        assert loaded.dissipation.alpha1 == 1.5
        # and the reloaded state agrees through the transform pair to roundoff
        a = inverse_transform(loaded.u_hat).values
        b = inverse_transform(state.u_hat).values
        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(nx=st.integers(4, 32).map(lambda n: 2 * n), ny=st.integers(4, 32).map(lambda n: 2 * n),
           lx=st.floats(0.1, 100.0), ly=st.floats(0.1, 100.0), t=st.floats(0.0, 1e3),
           alpha1=st.floats(1.01, 2.0), alpha2=st.floats(1.01, 2.0),
           kappa=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_round_trip_property(self, nx, ny, lx, ly, t, alpha1, alpha2, kappa, seed):
        grid = make_grid(nx, ny, lx, ly)
        u = PhysicalField(grid, np.random.default_rng(seed).standard_normal((nx, ny)))
        state = SimState(t, forward_transform(u), DissipationSpec(grid, alpha1, alpha2),
                         FluxSpec(kappa) if kappa else None)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.ckpt"
            checkpoint_write(state, str(path))
            payload = path.read_bytes()[-8 * nx * ny:]
            loaded = checkpoint_read(str(path))
        # the state's own field is stored and read back byte for byte, and
        # the loaded state is its forward transform, truncated to the flux's
        # band when the flux is on
        written = state.physical
        assert payload == written.values.astype("<f8").tobytes()
        expected = forward_transform(written).coeffs
        if kappa:
            expected = np.where(keep_mask(grid, kappa + 2), expected, 0.0)
        np.testing.assert_array_equal(loaded.u_hat.coeffs, expected)
        assert (loaded.grid, loaded.t) == (grid, t)
        assert (loaded.dissipation.alpha1, loaded.dissipation.alpha2) == (alpha1, alpha2)
        assert (loaded.flux.kappa if loaded.flux else 0) == kappa

    def test_linear_flag_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path)
        _, state = run_simulation(cfg)
        path = str(tmp_path / "lin.ckpt")
        checkpoint_write(state, path)
        assert checkpoint_read(path).flux is None

    def test_magic_validated(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            checkpoint_read(str(p))

    def test_truncated_header_detected(self, tmp_path):
        p = tmp_path / "head.ckpt"
        p.write_bytes(b"ANISOFL1" + b"\x00" * 20)
        with pytest.raises(CheckpointError, match="truncated checkpoint header"):
            checkpoint_read(str(p))

    def test_truncation_detected(self, tmp_path):
        cfg = tiny_config(tmp_path)
        _, state = run_simulation(cfg)
        path = tmp_path / "trunc.ckpt"
        checkpoint_write(state, str(path))
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(CheckpointError):
            checkpoint_read(str(path))

    def test_nonfinite_payload_detected(self, tmp_path):
        cfg = tiny_config(tmp_path)
        _, state = run_simulation(cfg)
        path = tmp_path / "nan.ckpt"
        checkpoint_write(state, str(path))
        raw = bytearray(path.read_bytes())
        raw[-8:] = np.float64(np.nan).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="nonfinite"):
            checkpoint_read(str(path))

    def test_resume_matches_uninterrupted(self, tmp_path):
        full_cfg = tiny_config(
            tmp_path, nonlinearity_enabled=True, ic=RandomBlobIC(3, 1.0, 0.5),
            t_end=1.0, timeseries_path="",
        )
        full_series, full_state = run_simulation(full_cfg)

        half_cfg = tiny_config(
            tmp_path, nonlinearity_enabled=True, ic=RandomBlobIC(3, 1.0, 0.5),
            t_end=0.5, timeseries_path="",
            checkpoint_path=str(tmp_path / "half.ckpt"),
        )
        run_simulation(half_cfg)
        state = checkpoint_read(str(tmp_path / "half.ckpt"))
        assert state.t == 0.5
        resumed_l2 = {}
        for target in (0.75, 1.0):
            state = advance_to(state, target, half_cfg.cfl_safety)
            u = inverse_transform(state.u_hat)
            resumed_l2[target] = float(
                np.sqrt(np.sum(u.values ** 2) * state.grid.cell_area())
            )
        for sample in full_series:
            if sample.t in resumed_l2:
                assert resumed_l2[sample.t] == pytest.approx(sample.l2, rel=1e-12)
        final_full = inverse_transform(full_state.u_hat).values
        final_resumed = inverse_transform(state.u_hat).values
        scale = np.max(np.abs(final_full))
        assert np.max(np.abs(final_full - final_resumed)) <= 1e-12 * scale


class TestCli:
    def test_exponent_prints_exact_half(self, capsys):
        assert cli_main(["exponent", "--alphas", "2,2", "--space", "l2"]) == 0
        assert capsys.readouterr().out.strip() == "-0.5"

    def test_exponent_hgamma(self, capsys):
        assert cli_main(["exponent", "--alphas", "2,2", "--space", "hg:1"]) == 0
        assert capsys.readouterr().out.strip() == "-1.0"

    def test_exponent_rejects_bad_alphas(self, capsys):
        assert cli_main(["exponent", "--alphas", "2,3", "--space", "l2"]) == 1

    @pytest.mark.parametrize("flag,argv", [
        ("--space", ["exponent", "--alphas", "2,2", "--space", "foo"]),
        ("--quantity", ["analyze", "ts.csv", "--quantity", "hg:x", "--window", "1,2"]),
        ("--window", ["analyze", "ts.csv", "--window", "1,2,3"]),
        ("--window", ["analyze", "ts.csv", "--window", "a,b"]),
        ("--window", ["analyze", "ts.csv", "--window", "10,5"]),
        ("--window", ["analyze", "ts.csv", "--window", "nan,5"]),
        ("--alphas", ["exponent", "--alphas", "2,x"]),
        ("--space", ["exponent", "--alphas", "2,2", "--space", "hg:0"]),
        ("--quantity", ["analyze", "ts.csv", "--quantity", "hg:0", "--window", "1,10"]),
    ], ids=["space", "quantity", "window-arity", "window-float", "window-order", "window-nan",
            "alphas", "space-gamma0", "quantity-gamma0"])
    def test_bad_flag_value_is_a_usage_error(self, flag, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"argument {flag}:" in err
        assert "Traceback" not in err

    def test_decay_experiment_rejects_short_window_before_running(self):
        # --window 1,3 holds 5 samples (0.5 spacing), fewer than a fit needs
        argv = ["--nx", "64", "--box", "20", "--t-end", "3", "--window", "1,3"]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "decay_experiment.py"), *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].endswith(
            "error: need at least 8 samples in window [1.0, 3.0], found 5")
        assert proc.stdout == ""  # the run report never started

    def test_decay_experiment_smoke(self, tmp_path):
        csv = tmp_path / "series.csv"
        argv = ["--nx", "32", "--box", "8", "--t-end", "4", "--sample-every", "0.25",
                "--window", "1,4", "--csv", str(csv)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "decay_experiment.py"), *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert sum(line.startswith("l2 linear twin:") for line in proc.stdout.splitlines()) == 1
        # the CSV is the nonlinear run's, not the linear twin's
        ref = tmp_path / "ref.csv"
        run_simulation(RunConfig(
            nx=32, ny=32, lx=8 * math.pi, ly=8 * math.pi, t_end=4.0, sample_every=0.25,
            ic=GaussianIC(5.0, 2.5), timeseries_path=str(ref),
        ))
        assert csv.read_bytes() == ref.read_bytes()

    def test_inequality_experiment_smoke(self):
        argv = ["--count", "4", "--nx", "16", "--nx-fine", "32", "--seeds", "1"]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "inequality_experiment.py"),
                               *argv], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            f"nx={nx} seed=1 {lemma}" for nx in (16, 32) for lemma in ("lemma53", "lemma54", "gn")]
        assert all(line.endswith(" degenerate=0") for line in lines)

    def test_analyze_rejects_missing_hgamma_column(self, tmp_path, capsys):
        from anisoflow.norms import NormSample

        series = [NormSample(t=t, l1=1.0, l2=1.0, l4=1.0, linf=1.0, hgamma={1: 1.0},
                             diss_x=0.0, diss_y=0.0, ul_l2=0.0, uh_l2=0.0)
                  for t in (1.0, 2.0)]
        path = str(tmp_path / "hg1.csv")
        write_timeseries(series, path, [1])
        assert cli_main(["analyze", path, "--quantity", "hg:2", "--window", "1,2"]) == 1
        assert "no hg2 column" in capsys.readouterr().err

    def test_simulate_and_analyze_pipeline(self, tmp_path, capsys):
        csv_path = tmp_path / "ts.csv"
        cfg_text = (
            "nx = 32\nny = 32\nlx = 6.283185307179586\nly = 6.283185307179586\n"
            "alpha1 = 2\nalpha2 = 2\nt_end = 2\nsample_every = 0.1\n"
            "ic = single_mode(1, 0, 1.0)\nnonlinearity_enabled = false\n"
            f"timeseries_path = {csv_path}\n"
        )
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(cfg_text)
        assert cli_main(["simulate", str(cfg_file)]) == 0
        capsys.readouterr()

        outs = []
        for _ in range(2):
            assert cli_main([
                "analyze", str(csv_path), "--quantity", "l2",
                "--window", "0.5,2", "--alphas", "2,2",
            ]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        # pure exponential single-mode decay: steep negative slope
        exponent = float([l for l in outs[0].splitlines() if "exponent" in l][0].split()[-1])
        assert exponent < -1.0

    def test_audit_cli(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, nonlinearity_enabled=True,
                          ic=GaussianIC(0.5, 1.5), t_end=2.0)
        run_simulation(cfg)
        assert cli_main(["audit", cfg.timeseries_path]) == 0
        out = capsys.readouterr().out
        assert "max principle: PASS" in out
        assert "energy identity" in out

    def test_audit_cli_fails_on_uptick(self, tmp_path, capsys):
        from anisoflow.norms import NormSample

        def mk(t, v):
            return NormSample(t=t, l1=2 * v, l2=v, l4=v, linf=v, hgamma={1: v},
                              diss_x=0.0, diss_y=0.0, ul_l2=0.0, uh_l2=0.0)

        series = [mk(0.0, 1.0), mk(0.5, 0.9), mk(1.0, 0.95)]
        path = str(tmp_path / "up.csv")
        write_timeseries(series, path, [1])
        assert cli_main(["audit", path]) == 2

    @pytest.mark.parametrize("csv,message", [
        ("t,l1,l2,l4,linf,diss_x,diss_y,ul_l2,uh_l2\n"
         "0,1,1,1,1,0,0,0,0\nnan,1,1,1,1,0,0,0,0\n", "time must be finite"),
        ("t,l1,l2,l4,linf,diss_x,diss_y,ul_l2,uh_l2\n"
         "1,1,1,1,1,0,0,0,0\n0.5,1,1,1,1,0,0,0,0\n", "increase strictly"),
        ("t,l1,l2,l4,linf,diss_x,diss_y,ul_l2,uh_l2\n"
         "0,1,1,1,1,0,0,0,0\n0,1,1,1,1,0,0,0,0\n", "increase strictly"),
        ("t,l1,l2,l4,linf,hg1,hg1,diss_x,diss_y,ul_l2,uh_l2\n"
         "0,1,1,1,1,1,2,0,0,0,0\n", "distinct integers >= 1"),
        ("t,l1,l2,l4,linf,hg-1,diss_x,diss_y,ul_l2,uh_l2\n"
         "0,1,1,1,1,1,0,0,0,0\n", "distinct integers >= 1"),
    ], ids=["nan_time", "decreasing", "repeated", "duplicate_hg", "negative_hg"])
    def test_audit_cli_rejects_invalid_times_and_columns(self, tmp_path, capsys, csv, message):
        path = tmp_path / "bad.csv"
        path.write_text(csv)
        assert cli_main(["audit", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_audit_cli_rejects_bad_tol(self, tmp_path, capsys, tol):
        from anisoflow.norms import NormSample

        series = [NormSample(t=t, l1=v, l2=v, l4=v, linf=v, hgamma={},
                             diss_x=0.0, diss_y=0.0, ul_l2=0.0, uh_l2=0.0)
                  for t, v in ((0.0, 1.0), (0.5, 0.5))]
        path = str(tmp_path / "down.csv")
        write_timeseries(series, path, [])
        assert cli_main(["audit", path, "--tol", tol]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite and >= 0" in err

    @pytest.mark.parametrize("script,flag,value", [
        ("decay_experiment.py", "--alphas", "1.5,2,2"),
        ("inequality_experiment.py", "--alphas", "1.5"),
        ("inequality_experiment.py", "--seeds", "1,x"),
        ("inequality_experiment.py", "--seeds", "-1"),
        ("decay_experiment.py", "--tol", "nan"),
        # domain errors, found before any corpus is made
        ("inequality_experiment.py", "--nx", "7"),
        ("inequality_experiment.py", "--gamma", "0"),
        ("inequality_experiment.py", "--count", "0"),
        ("inequality_experiment.py", "--alphas", "0.5,2"),
        ("inequality_experiment.py", "--decay", "nan"),
    ])
    def test_script_bad_flag_is_a_usage_error(self, script, flag, value):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), flag, value],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "error: " in proc.stderr and flag in proc.stderr.splitlines()[-1]
        assert proc.stdout == ""  # nothing ran

    def test_ineq_lab_cli(self, tmp_path, capsys):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("count = 5\nnx = 32\nny = 32\nseed = 3\n")
        assert cli_main(["ineq-lab", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "lemma53" in out and "lemma54" in out and "gn" in out
        assert "degenerate=0" in out

    @pytest.mark.parametrize("law", ["flat(3)", "powerlaw(1, 2)", "ring", "ring(4, 1, 2)",
                                     "ring(nan)", "ring(4, inf)", "powerlaw(nan)"])
    def test_spectrum_law_argument_count_checked(self, tmp_path, law):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(f"spectrum = {law}\n")
        with pytest.raises(ConfigError, match="spectrum"):
            load_lab_config(str(cfg))

    def test_spectrum_law_forms(self, tmp_path):
        cfg = tmp_path / "lab.cfg"
        for law, expected in (("flat", SpectrumLaw("flat")),
                              ("powerlaw", SpectrumLaw("powerlaw", decay=1.0)),
                              ("powerlaw(2.5)", SpectrumLaw("powerlaw", decay=2.5)),
                              ("ring(4)", SpectrumLaw("ring", k0=4.0, width=1.0)),
                              ("ring(4, 0)", SpectrumLaw("ring", k0=4.0, width=0.0))):
            cfg.write_text(f"spectrum = {law}\n")
            assert load_lab_config(str(cfg))["spectrum"] == expected

    def test_ineq_lab_checks_gamma_before_the_corpus(self, tmp_path, capsys, monkeypatch):
        made = []
        monkeypatch.setattr("anisoflow.cli.generate_corpus", made.append)
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("count = 2\nnx = 16\nny = 16\ngamma = 0\n")
        assert cli_main(["ineq-lab", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: gamma must be an integer >= 1, got 0\n"
        assert made == []

    def test_missing_config_reports_error(self, capsys):
        assert cli_main(["simulate", "/nonexistent.cfg"]) == 1
        assert "error" in capsys.readouterr().err

    def test_simulate_reports_a_blowup(self, tmp_path, capsys, monkeypatch):
        from anisoflow.errors import BlowUpError
        import anisoflow.run as run_mod

        real_step = run_mod.step_ifrk4

        def exploding_step(state, dt):
            if state.t >= 0.5:
                raise BlowUpError(state.t + dt)
            return real_step(state, dt)

        monkeypatch.setattr(run_mod, "step_ifrk4", exploding_step)
        csv_path = tmp_path / "ts.csv"
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "nx = 32\nny = 32\nlx = 6.283185307179586\nly = 6.283185307179586\n"
            "alpha1 = 2\nalpha2 = 2\nt_end = 2\nsample_every = 0.25\n"
            "ic = single_mode(1, 0, 1.0)\nnonlinearity_enabled = false\n"
            f"timeseries_path = {csv_path}\n"
        )
        assert cli_main(["simulate", str(cfg_file)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: solution blew up at t=0.75\n"
        assert captured.out == ""
        # the samples before the failure were flushed
        assert [s.t for s in read_timeseries(str(csv_path))] == [0.0, 0.25, 0.5]


class TestDocs:
    @staticmethod
    def table_keys(heading):
        """The backticked names in the first column of a README section's table."""
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split(f"### {heading}\n", 1)[1].split("\n#", 1)[0]
        return {key for line in section.splitlines() if line.startswith("| `")
                for key in re.findall(r"`(\w+)`", line.split("|")[1])}

    def test_run_config_table_lists_every_key(self):
        from anisoflow import config

        assert self.table_keys("Run configuration") == set(config._PARSERS)

    def test_lab_config_table_lists_every_key(self):
        from anisoflow import cli

        assert self.table_keys("Inequality-lab configuration") == set(cli._LAB)


class TestPackage:
    def test_import_loads_no_scipy(self):
        # the package needs numpy only; scipy.fft took about 60% of a fresh
        # import's time and about 20 MB of resident memory, scipy.stats more
        code = ("import sys, anisoflow, anisoflow.cli\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_star_import_exports_no_submodule(self):
        import types

        import anisoflow

        assert anisoflow.__all__
        assert not [n for n in anisoflow.__all__
                    if isinstance(getattr(anisoflow, n), types.ModuleType)]
        namespace = {}
        exec("import io\nfrom anisoflow import *", namespace)
        assert namespace["io"].__name__ == "io"

    def test_no_private_name_imported_across_modules(self):
        # the primitives one module lends another, or lends the scripts,
        # are public module names
        import ast

        private = []
        for path in [*sorted((ROOT / "src" / "anisoflow").glob("*.py")),
                     *sorted((ROOT / "scripts").glob("*.py"))]:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for n in ast.walk(tree):
                if isinstance(n, ast.ImportFrom) and (
                        n.level >= 1 or (n.module or "").split(".")[0] == "anisoflow"):
                    private += [f"{path.name}: from {'.' * n.level}{n.module or ''} "
                                f"import {a.name}"
                                for a in n.names if a.name.startswith("_")]
        assert private == []

    def test_all_is_what_callers_import(self):
        # the scripts, the benchmark and the acceptance suite are the
        # package's callers; their sources are parsed, not imported
        import ast
        import types

        import anisoflow

        callers = [*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py"),
                   ROOT / "tests" / "test_acceptance.py"]
        used = set()
        for path in callers:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            # `import anisoflow.cli` binds anisoflow; `import anisoflow as af` binds af
            aliases = {a.asname if a.asname and a.name == "anisoflow" else "anisoflow"
                       for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names
                       if a.name.split(".")[0] == "anisoflow"}
            for n in ast.walk(tree):
                if isinstance(n, ast.ImportFrom) and n.module == "anisoflow":
                    used.update(a.name for a in n.names)
                elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                      and n.value.id in aliases):
                    used.add(n.attr)
        used = {n for n in used if not n.startswith("__")
                and not isinstance(getattr(anisoflow, n, None), types.ModuleType)}
        assert len(anisoflow.__all__) == len(set(anisoflow.__all__))
        assert set(anisoflow.__all__) == used

    def test_every_public_name_has_a_caller_outside_the_tests(self):
        # a public top-level name of the package that only tests use should
        # go; the package itself, the scripts and the benchmark are parsed,
        # and a re-export in __init__ is not a use
        import ast

        package = sorted((ROOT / "src" / "anisoflow").glob("*.py"))
        defined = {}
        for path in package:
            for n in ast.parse(path.read_text(encoding="utf-8")).body:
                if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                    names = [n.name]
                elif isinstance(n, (ast.Assign, ast.AnnAssign)):
                    targets = n.targets if isinstance(n, ast.Assign) else [n.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    names = []
                defined.update((name, path.name) for name in names if not name.startswith("_"))
        used = set()
        for path in [*package, *ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")]:
            for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    used.add(n.id)
                elif isinstance(n, ast.Attribute):
                    used.add(n.attr)
                elif isinstance(n, ast.ImportFrom) and path.name != "__init__.py":
                    used.update(a.name for a in n.names)
        assert len(defined) > 60
        assert sorted(f"{where}: {name}" for name, where in defined.items()
                      if name not in used) == []

    def test_fft_calls_sit_in_the_band_transform_pair(self):
        # every field the package builds comes through _rfft2 and
        # BandLayout.to_physical; GridSpec.jx takes the lattice indices
        import ast

        def fft_attrs(node):
            return [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                    and isinstance(n.value, ast.Attribute) and n.value.attr == "fft"]

        calls = set()
        for path in sorted((ROOT / "src" / "anisoflow").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            scopes = [(n.name, n) for n in tree.body if isinstance(n, ast.FunctionDef)]
            scopes += [(f"{c.name}.{f.name}", f) for c in tree.body if isinstance(c, ast.ClassDef)
                       for f in c.body if isinstance(f, ast.FunctionDef)]
            scoped = [(f"{path.name}: {name}", a) for name, scope in scopes
                      for a in fft_attrs(scope)]
            # none outside a function or method
            assert len(scoped) == len(fft_attrs(tree)), path.name
            calls.update(scoped)
        assert calls == {("spectral.py: _rfft2", "rfft"), ("spectral.py: _rfft2", "fft"),
                         ("spectral.py: BandLayout.to_physical", "ifft"),
                         ("spectral.py: BandLayout.to_physical", "irfft"),
                         ("spectral.py: GridSpec.jx", "fftfreq")}
