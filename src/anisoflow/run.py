"""Simulation orchestration: initial data, the time loop, and sampling."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import GaussianIC, RandomBlobIC, RunConfig, SingleModeIC
from .errors import BlowUpError
from .freqsplit import CutoffSpec
from .io import checkpoint_write, write_timeseries
from .norms import NormSample, record
from .operators import DissipationSpec, FluxSpec
from .spectral import GridSpec, PhysicalField, band_mask, forward_transform, inverse_transform
from .timestepper import SimState, cfl_dt, linear_exact, step_ifrk4

_SNAP_TOL = 1e-9


def synthesize_ic(cfg: RunConfig, grid: GridSpec) -> PhysicalField:
    """Build the configured initial field on the grid; deterministic."""
    ic = cfg.ic
    if isinstance(ic, GaussianIC):
        cx, cy = ic.center if ic.center is not None else (grid.lx / 2.0, grid.ly / 2.0)
        x = grid.x[:, None]
        y = grid.y[None, :]
        r2 = (x - cx) ** 2 + (y - cy) ** 2
        values = ic.amplitude * np.exp(-r2 / ic.radius ** 2)
        return PhysicalField(grid, values)
    if isinstance(ic, SingleModeIC):
        phase = 2.0 * np.pi * (
            ic.k1 * grid.x[:, None] / grid.lx + ic.k2 * grid.y[None, :] / grid.ly
        )
        return PhysicalField(grid, ic.amplitude * np.cos(phase))
    if isinstance(ic, RandomBlobIC):
        rng = np.random.default_rng(ic.seed)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(grid.nx, grid.ny))
        keep_x = np.abs(grid.jx) <= ic.band * grid.nx / 2.0
        keep_y = np.abs(grid.jy) <= ic.band * grid.ny / 2.0
        c = np.where(keep_x[:, None] & keep_y[None, :], np.exp(1j * phases), 0.0)
        c[0, 0] = 0.0
        # real part of the inverse transform symmetrizes the spectrum
        values = np.fft.ifft2(c).real
        peak = np.max(np.abs(values))
        if peak > 0.0:
            values *= ic.amplitude / peak
        return PhysicalField(grid, values)
    raise TypeError(f"unsupported initial condition {type(ic).__name__}")


def initial_state(cfg: RunConfig) -> SimState:
    """The configured initial data at t=0.

    With the flux on, the spectrum is truncated to the alias-free band that
    step_ifrk4 keeps, so the t=0 sample describes the field the solver
    evolves and the first step drops no energy outside the ledger.
    """
    grid = GridSpec(cfg.nx, cfg.ny, cfg.lx, cfg.ly)
    dissipation = DissipationSpec(grid, cfg.alpha1, cfg.alpha2)
    flux = FluxSpec(cfg.kappa) if cfg.nonlinearity_enabled else None
    u_hat = forward_transform(synthesize_ic(cfg, grid))
    if flux is not None:
        # the transform returned a fresh array, so truncate it in place
        u_hat.coeffs[~band_mask(grid, flux.dealias_denom, strict=True)] = 0.0
    return SimState(t=0.0, u_hat=u_hat, dissipation=dissipation, flux=flux)


def sample_times(t_end: float, sample_every: float) -> list[float]:
    times = []
    k = 1
    while k * sample_every <= t_end * (1.0 + 1e-12):
        times.append(k * sample_every)
        k += 1
    if not times or times[-1] < t_end * (1.0 - 1e-12):
        times.append(t_end)
    return times


def linear_twin_series(cfg: RunConfig) -> list[NormSample]:
    """Sample the exact multiplier semigroup of the configured initial data
    at t = 0 and at every sample time of run_simulation."""
    state = initial_state(cfg)
    cutoff = CutoffSpec(cfg.resolved_mu())
    gammas = list(cfg.gammas)
    return [
        record(SimState(t, linear_exact(state.u_hat, state.dissipation, t),
                        state.dissipation, None), cutoff, gammas)
        for t in [0.0] + sample_times(cfg.t_end, cfg.sample_every)
    ]


def advance_to(state: SimState, target: float, cfl_safety: float) -> SimState:
    """Step until t reaches target, recomputing the CFL limit every step.

    The last step is shortened to land on the target, and t is snapped to
    it exactly so sample times stay clean across resumes.
    """
    if target < state.t - _SNAP_TOL:
        raise ValueError(f"target {target} precedes current time {state.t}")
    while state.t < target - _SNAP_TOL:
        u = inverse_transform(state.u_hat)
        dt = min(cfl_dt(u, state.grid, cfl_safety), target - state.t)
        state = step_ifrk4(state, dt)
    return replace(state, t=target)


def run_simulation(cfg: RunConfig) -> tuple[list[NormSample], SimState]:
    """Step the configured system to t_end, sampling every sample_every.

    Deterministic for a given config.  On blow-up the partial series is
    flushed to the configured CSV before the error propagates.
    """
    state = initial_state(cfg)
    cutoff = CutoffSpec(cfg.resolved_mu())
    gammas = list(cfg.gammas)
    series = [record(state, cutoff, gammas)]
    try:
        for target in sample_times(cfg.t_end, cfg.sample_every):
            state = advance_to(state, target, cfg.cfl_safety)
            series.append(record(state, cutoff, gammas))
    except BlowUpError:
        if cfg.timeseries_path:
            write_timeseries(series, cfg.timeseries_path, gammas)
        raise
    if cfg.timeseries_path:
        write_timeseries(series, cfg.timeseries_path, gammas)
    if cfg.checkpoint_path:
        checkpoint_write(state, cfg.checkpoint_path)
    return series, state
