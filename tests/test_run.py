"""run_simulation's sampled loop: one physical field per state, and the
sampler thread giving the bits and the errors of a serial loop."""

import threading
from dataclasses import replace

import numpy as np
import pytest

import anisoflow.run as run_mod
from anisoflow import (
    CutoffSpec,
    GaussianIC,
    RunConfig,
    initial_state,
    record,
    run_simulation,
    sample_times,
)
from anisoflow.io import checkpoint_write, write_timeseries
from anisoflow.errors import BlowUpError
from anisoflow.run import advance_to
from anisoflow.spectral import inverse_transform


def small_config(tmp_path, **overrides):
    """64^2 with the cell size of the 512^2, 100*pi production box, so the
    flux runs through its CFL-limited transient."""
    base = dict(
        nx=64, ny=64, lx=12.5 * np.pi, ly=12.5 * np.pi, alpha1=1.5, alpha2=2.0,
        kappa=1, t_end=2.0, sample_every=0.25, cfl_safety=0.5,
        ic=GaussianIC(5.0, 2.5), nonlinearity_enabled=True,
        timeseries_path=str(tmp_path / "run.csv"),
        checkpoint_path=str(tmp_path / "run.ckpt"),
    )
    base.update(overrides)
    return RunConfig(**base)


def serial_run(cfg):
    """The advance_to + record loop that run_simulation samples in parallel."""
    state = initial_state(cfg)
    cutoff = CutoffSpec(cfg.resolved_mu())
    gammas = list(cfg.gammas)
    series = [record(state, cutoff, gammas)]
    for target in sample_times(cfg.t_end, cfg.sample_every):
        state = advance_to(state, target, cfg.cfl_safety)
        series.append(record(state, cutoff, gammas))
    write_timeseries(series, cfg.timeseries_path, gammas)
    checkpoint_write(state, cfg.checkpoint_path)
    return series, state


@pytest.mark.parametrize("nonlinear", [True, False], ids=["kappa1", "linear"])
def test_one_inverse_transform_per_state(tmp_path, monkeypatch, nonlinear):
    # with the flux, per step: 4 flux evaluations with one rfft each, 3 of
    # them with an irfft and stage 1 reusing the state's field, plus the new
    # state's field; without it, per step only the new state's field; then
    # the initial forward transform and the initial field.  numpy's own
    # rfft2/irfft2 reach rfft/irfft through numpy.fft._pocketfft, so both
    # modules are patched
    counts = {"irfft": 0, "rfft": 0, "steps": 0}
    for name in ("irfft", "rfft"):
        real = getattr(np.fft, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
        monkeypatch.setattr(np.fft._pocketfft, name, counted)
    real_step = run_mod.step_ifrk4

    def counted_step(state, dt):
        counts["steps"] += 1
        return real_step(state, dt)

    monkeypatch.setattr(run_mod, "step_ifrk4", counted_step)
    run_simulation(small_config(tmp_path, alpha1=2.0, nonlinearity_enabled=nonlinear))
    steps = counts["steps"]
    if nonlinear:
        assert steps > len(sample_times(2.0, 0.25))  # the CFL bound limited some steps
        assert counts == {"irfft": 4 * steps + 1, "rfft": 4 * steps + 1, "steps": steps}
    else:
        assert steps == len(sample_times(2.0, 0.25))  # one exact step per sample
        assert counts == {"irfft": steps + 1, "rfft": 1, "steps": steps}


@pytest.mark.parametrize("nonlinear", [True, False], ids=["kappa1", "linear"])
def test_sampled_run_equals_serial_loop(tmp_path, nonlinear):
    sampled_dir, serial_dir = tmp_path / "sampled", tmp_path / "serial"
    sampled_dir.mkdir()
    serial_dir.mkdir()
    cfg = small_config(sampled_dir, nonlinearity_enabled=nonlinear)
    series, state = run_simulation(cfg)
    ref_cfg = replace(cfg, timeseries_path=str(serial_dir / "run.csv"),
                      checkpoint_path=str(serial_dir / "run.ckpt"))
    ref_series, ref_state = serial_run(ref_cfg)
    assert series == ref_series
    for key in ("timeseries_path", "checkpoint_path"):
        with open(getattr(cfg, key), "rb") as a, open(getattr(ref_cfg, key), "rb") as b:
            assert a.read() == b.read(), key
    assert state.u_hat.coeffs.tobytes() == ref_state.u_hat.coeffs.tobytes()
    assert repr(state.ledger) == repr(ref_state.ledger)
    assert state.t == ref_state.t == cfg.t_end


def test_record_error_propagates_unchanged(tmp_path, monkeypatch):
    err = ValueError("record failed at the third sample")
    calls = []

    def failing_record(*args):
        calls.append(args[0].t)
        if len(calls) == 3:
            raise err
        return record(*args)

    monkeypatch.setattr(run_mod, "record", failing_record)
    cfg = small_config(tmp_path)
    with pytest.raises(ValueError) as info:
        run_simulation(cfg)
    assert info.value is err
    assert calls[:3] == [0.0, 0.25, 0.5]
    # as in the serial loop, which stops at the failed sample: no CSV
    assert not (tmp_path / "run.csv").exists()


def test_record_runs_on_one_sampler_thread(tmp_path, monkeypatch):
    seen = []

    def recording(s, *args):
        seen.append(threading.current_thread())
        return record(s, *args)

    monkeypatch.setattr(run_mod, "record", recording)
    run_simulation(small_config(tmp_path, nonlinearity_enabled=False))
    assert len(seen) > 1
    assert len(set(seen)) == 1 and threading.current_thread() not in seen


def sampler_threads():
    return [t for t in threading.enumerate() if t.name.startswith("anisoflow-sampler")]


@pytest.mark.parametrize("ending", [None, "record", "step_ifrk4"],
                         ids=["normal", "record-error", "blow-up"])
def test_no_sampler_thread_outlives_the_run(tmp_path, monkeypatch, ending):
    real_record, real_step = run_mod.record, run_mod.step_ifrk4

    def failing_record(s, *args):
        if s.t >= 0.5:
            raise ValueError("record failed")
        return real_record(s, *args)

    def exploding_step(s, dt):
        if s.t >= 0.5:
            raise BlowUpError(s.t + dt)
        return real_step(s, dt)

    assert not sampler_threads()
    if ending is None:
        run_simulation(small_config(tmp_path))
    else:
        failing, error = {"record": (failing_record, ValueError),
                          "step_ifrk4": (exploding_step, BlowUpError)}[ending]
        monkeypatch.setattr(run_mod, ending, failing)
        with pytest.raises(error):
            run_simulation(small_config(tmp_path))
    assert not sampler_threads()


class TestPhysicalField:
    def test_built_once_and_kept_across_a_time_snap(self, tmp_path):
        # a band-held state's field is built from the band and scaled once
        # by 1/(lx*ly), where inverse_transform scales twice
        s = initial_state(small_config(tmp_path))
        u = s.physical
        assert s.physical is u
        assert replace(s, t=1.0).physical is u
        ref = inverse_transform(s.u_hat).values
        assert np.max(np.abs(u.values - ref)) <= 4e-16 * np.max(np.abs(ref))
        with pytest.raises(ValueError):
            u.values[0, 0] = 1.0

    def test_a_flux_free_state_takes_the_inverse_transform(self, tmp_path):
        s = initial_state(small_config(tmp_path, nonlinearity_enabled=False))
        np.testing.assert_array_equal(s.physical.values, inverse_transform(s.u_hat).values)

    def test_rebuilt_for_a_new_spectrum(self, tmp_path):
        s = initial_state(small_config(tmp_path))
        u = s.physical
        doubled = replace(s, u_hat=replace(s.u_hat, coeffs=2.0 * s.u_hat.coeffs))
        assert doubled.physical is not u
        np.testing.assert_array_equal(doubled.physical.values, 2.0 * u.values)
