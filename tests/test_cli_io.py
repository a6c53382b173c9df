import hashlib
import math

import numpy as np
import pytest

from anisoflow import (
    CheckpointError,
    ConfigError,
    GaussianIC,
    RandomBlobIC,
    RunConfig,
    SingleModeIC,
    advance_to,
    checkpoint_read,
    checkpoint_write,
    energy_audit,
    inverse_transform,
    load_config,
    max_principle_audit,
    read_timeseries,
    run_simulation,
    sample_times,
    write_timeseries,
)
from anisoflow.cli import main as cli_main
from anisoflow.config import parse_ic

TWO_PI = 2.0 * np.pi


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
        with pytest.raises(ConfigError, match="wavelength"):
            load_config(write_cfg(tmp_path, "wavelength = 3\n"))

    def test_parse_error_carries_line_number(self, tmp_path):
        with pytest.raises(ConfigError, match=":3"):
            load_config(write_cfg(tmp_path, "nx = 64\nny = 64\nbogus line\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(write_cfg(tmp_path, "nx = 64\nnx = 32\n"))

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

    def test_sample_times_cover_t_end(self):
        assert sample_times(1.0, 0.25) == [0.25, 0.5, 0.75, 1.0]
        got = sample_times(1.0, 0.3)
        assert got[-1] == 1.0 and len(got) == 4

    def test_blowup_flushes_partial_series(self, tmp_path, monkeypatch):
        from anisoflow import BlowUpError
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

    def test_read_rejects_malformed_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,l2\n0,1\n")
        with pytest.raises(ValueError):
            read_timeseries(str(p))


class TestCheckpoint:
    def test_round_trip_bit_exact_physical(self, tmp_path):
        cfg = tiny_config(tmp_path, nonlinearity_enabled=True)
        _, state = run_simulation(cfg)
        path = tmp_path / "s.ckpt"
        checkpoint_write(state, str(path))
        # the stored payload is exactly the physical state at write time
        raw = path.read_bytes()
        payload = np.frombuffer(raw[8 + 8 * 8:], dtype="<f8").reshape(32, 32)
        np.testing.assert_array_equal(payload, inverse_transform(state.u_hat).values)
        loaded = checkpoint_read(str(path))
        assert loaded.t == state.t
        assert loaded.flux is not None and loaded.flux.kappa == 1
        assert loaded.dissipation.alpha1 == 1.5
        # and the reloaded state agrees through the transform pair to roundoff
        a = inverse_transform(loaded.u_hat).values
        b = inverse_transform(state.u_hat).values
        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))

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
    ], ids=["space", "quantity", "window-arity", "window-float"])
    def test_bad_flag_value_is_a_usage_error(self, flag, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"argument {flag}:" in err
        assert "Traceback" not in err

    def test_analyze_rejects_missing_hgamma_column(self, tmp_path, capsys):
        from anisoflow import NormSample

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
        from anisoflow import NormSample

        def mk(t, v):
            return NormSample(t=t, l1=2 * v, l2=v, l4=v, linf=v, hgamma={1: v},
                              diss_x=0.0, diss_y=0.0, ul_l2=0.0, uh_l2=0.0)

        series = [mk(0.0, 1.0), mk(0.5, 0.9), mk(1.0, 0.95)]
        path = str(tmp_path / "up.csv")
        write_timeseries(series, path, [1])
        assert cli_main(["audit", path]) == 2

    def test_ineq_lab_cli(self, tmp_path, capsys):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("count = 5\nnx = 32\nny = 32\nseed = 3\n")
        assert cli_main(["ineq-lab", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "lemma53" in out and "lemma54" in out and "gn" in out
        assert "degenerate=0" in out

    def test_missing_config_reports_error(self, capsys):
        assert cli_main(["simulate", "/nonexistent.cfg"]) == 1
        assert "error" in capsys.readouterr().err
