"""Simulation orchestration: initial data, the time loop, and sampling."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from .config import GaussianIC, RandomBlobIC, RunConfig, SingleModeIC
from .errors import BlowUpError
from .freqsplit import CutoffSpec
from .io import checkpoint_write, write_timeseries
from .norms import NormSample, record
from .operators import DissipationSpec, FluxSpec
from .spectral import GridSpec, PhysicalField, forward_transform
from .timestepper import SimState, cfl_dt, step_ifrk4

_SNAP_TOL = 1e-9


def synthesize_ic(cfg: RunConfig, grid: GridSpec) -> PhysicalField:
    """Build the configured initial field on the grid; deterministic."""
    ic = cfg.ic
    if isinstance(ic, GaussianIC):
        cx, cy = ic.center if ic.center is not None else (grid.lx / 2.0, grid.ly / 2.0)
        dx = grid.x[:, None] - cx
        dy = grid.y[None, :] - cy
        # minimum image: distances are taken across the periodic seam
        dx -= grid.lx * np.round(dx / grid.lx)
        dy -= grid.ly * np.round(dy / grid.ly)
        r2 = dx ** 2 + dy ** 2
        values = ic.amplitude * np.exp(-r2 / ic.radius ** 2)
        return PhysicalField(grid, values)
    if isinstance(ic, SingleModeIC):
        phase = 2.0 * np.pi * (
            ic.k1 * grid.x[:, None] / grid.lx + ic.k2 * grid.y[None, :] / grid.ly
        )
        return PhysicalField(grid, ic.amplitude * np.cos(phase))
    if isinstance(ic, RandomBlobIC):
        rng = np.random.default_rng(ic.seed)
        # phases drawn over the full lattice; the real part of the inverse
        # transform symmetrizes the spectrum
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(grid.nx, grid.ny))
        keep_x = np.abs(grid.jx) <= ic.band * grid.nx / 2.0
        jy = np.fft.fftfreq(grid.ny, d=1.0 / grid.ny).astype(np.int64)
        keep_y = np.abs(jy) <= ic.band * grid.ny / 2.0
        c = np.where(keep_x[:, None] & keep_y[None, :], np.exp(1j * phases), 0.0)
        c[0, 0] = 0.0
        values = np.fft.ifft2(c).real
        peak = np.max(np.abs(values))
        if peak > 0.0:
            values *= ic.amplitude / peak
        return PhysicalField(grid, values)
    raise TypeError(f"unsupported initial condition {type(ic).__name__}")


def initial_state(cfg: RunConfig) -> SimState:
    """The configured initial data at t=0.

    With the flux on, SimState truncates the spectrum to the alias-free
    band that step_ifrk4 keeps, so the t=0 sample describes the field the
    solver evolves and the first step drops no energy outside the ledger.
    """
    grid = GridSpec(cfg.nx, cfg.ny, cfg.lx, cfg.ly)
    dissipation = DissipationSpec(grid, cfg.alpha1, cfg.alpha2)
    flux = FluxSpec(cfg.kappa) if cfg.nonlinearity_enabled else None
    u_hat = forward_transform(synthesize_ic(cfg, grid))
    return SimState(t=0.0, u_hat=u_hat, dissipation=dissipation, flux=flux)


def sample_times(t_end: float, sample_every: float) -> list[float]:
    if not (t_end > 0.0 and np.isfinite(t_end)):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not (sample_every > 0.0 and np.isfinite(sample_every)):
        raise ValueError(f"sample_every must be positive and finite, got {sample_every}")
    times = []
    k = 1
    while k * sample_every <= t_end * (1.0 + 1e-12):
        times.append(k * sample_every)
        k += 1
    if not times or times[-1] < t_end * (1.0 - 1e-12):
        times.append(t_end)
    return times


def advance_to(state: SimState, target: float, cfl_safety: float) -> SimState:
    """Step until t reaches target.

    With the flux on, each step is limited by the CFL bound of the current
    field (SimState.physical, which stage 1 of the step then reuses) and the
    last one is shortened to land on the target.  Without it step_ifrk4 is
    exact for any dt, so the target is reached in one step.  t is snapped
    to the target exactly so sample times stay clean across resumes; the
    snapped state keeps its field.
    """
    if target < state.t - _SNAP_TOL:
        raise ValueError(f"target {target} precedes current time {state.t}")
    while state.t < target - _SNAP_TOL:
        dt = target - state.t
        if state.flux is not None:
            dt = min(cfl_dt(state.physical, state.grid, cfl_safety, state.flux.kappa), dt)
        state = step_ifrk4(state, dt)
    return replace(state, t=target)


def run_simulation(cfg: RunConfig) -> tuple[list[NormSample], SimState]:
    """Step the configured system to t_end, sampling every sample_every.

    Each sample state's field is built on the calling thread, which then
    hands the state to one background sampler thread that runs record
    while the caller steps the next interval.  At most one sample is in
    flight, and the series is assembled in sample order.  record keeps
    nothing between calls and the stepping shares no array with it;
    neither takes a lock, so neither waits on the other.

    Deterministic for a given config: the series, the final state and the
    files are the bits a serial advance_to + record loop gives, and so are
    its errors.  When stepping fails, the pending sample is drained first,
    so an error that record raised on an earlier state propagates
    unchanged, as it would have before the step, and nothing is written.
    Otherwise a BlowUpError flushes the partial series to the configured
    CSV before it propagates.
    """
    state = initial_state(cfg)
    cutoff = CutoffSpec(cfg.resolved_mu())
    gammas = list(cfg.gammas)
    series: list[NormSample] = []
    failed = None
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="anisoflow-sampler") as sampler:
        state.physical  # built on this thread; the sampler only reads it
        pending = sampler.submit(record, state, cutoff, gammas)
        try:
            for target in sample_times(cfg.t_end, cfg.sample_every):
                state = advance_to(state, target, cfg.cfl_safety)
                state.physical  # built while the sampler may still be busy
                series.append(pending.result())
                pending = sampler.submit(record, state, cutoff, gammas)
        except Exception as exc:
            # held until the pending sample is in: a record error on an
            # earlier state comes first, as in a serial loop
            failed = exc
        series.append(pending.result())
    if cfg.timeseries_path and (failed is None or isinstance(failed, BlowUpError)):
        write_timeseries(series, cfg.timeseries_path, gammas)
    if failed is not None:
        raise failed
    if cfg.checkpoint_path:
        checkpoint_write(state, cfg.checkpoint_path)
    return series, state
