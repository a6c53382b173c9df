"""The transient peaks of record, the flux right-hand side and the flux
step: allocation budgets, nothing kept between calls but the step's last
factors, and the norms and the step on several threads at once."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from anisoflow import (
    CutoffSpec,
    DissipationSpec,
    FluxSpec,
    PhysicalField,
    SimState,
    forward_transform,
    inverse_transform,
    make_grid,
    record,
    step_ifrk4,
)
from anisoflow import timestepper
from anisoflow.norms import lp_norms, parseval_sums
from anisoflow.operators import nonlinear_coeffs
from anisoflow.spectral import SpectralField, band_layout, fourier_weight

N = 128


@pytest.fixture(scope="module")
def grid():
    # the cell size of the 512^2, 100*pi production box
    return make_grid(N, N, 25.0 * np.pi, 25.0 * np.pi)


def gaussian_state(grid, t=0.0, kappa=1, amplitude=5.0, shift=0.0):
    """The production Gaussian bump (radius 2.5), truncated to the band when
    the flux is on, as initial_state does."""
    x = grid.x[:, None] - grid.lx / 2 - shift
    y = grid.y[None, :] - grid.ly / 2
    c = forward_transform(PhysicalField(grid, amplitude * np.exp(-(x * x + y * y) / 2.5 ** 2))).coeffs
    flux = FluxSpec(kappa) if kappa else None
    if flux is not None:
        band = band_layout(grid, flux.dealias_denom)
        c = band.scatter(band.gather(c))
    return SimState(t, SpectralField(grid, c), DissipationSpec(grid, 1.5, 2.0), flux)


def transient_peak(fn) -> int:
    """Bytes allocated at the peak of one call of fn above what was live
    before it, its result included, after one warm-up call (tracemalloc).
    The warm-up is traced too, so what the call frees of the warm-up's
    allocations counts against its peak."""
    tracemalloc.start()
    try:
        fn()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestAllocationBudget:
    REAL = N * N * 8  # one real field, bytes

    @pytest.mark.parametrize("t", [0.0, 0.5, 3.0])
    def test_record_peak_is_about_one_real_field(self, grid, t):
        # measured at 128^2 (numpy 2.4): 1.015, 1.014 and 1.014 real fields
        # at t = 0, 0.5 and 3, nearly all of it lp_norms's |u|, squared in
        # place for its powers; parseval_sums holds two blocks of nx/4 rows
        # of |u_hat|^2 at most (0.27 real fields when called alone), and
        # the field is the state's own, built by the warm-up call.  0.31,
        # 0.25 and 0.17 when every temporary lived in a resident per-grid
        # workspace, 4.06 when each was allocated over the whole lattice
        # per call.  Margin 25% of one field.
        s = gaussian_state(grid, t, kappa=None)
        peak = transient_peak(lambda: record(s, CutoffSpec(4.0), [1, 2]))
        assert peak <= 1.25 * self.REAL, f"{peak / self.REAL:.3f} real fields"

    def test_record_keeps_nothing_per_grid(self):
        # the first record on a grid retains nothing but its sample; the
        # grid's weights, the dissipation symbol and the state's field are
        # cached by their owners, so they are built before the measurement.
        # Measured at 128^2: 600 bytes, the sample; 2.05 real fields when
        # record kept a scratch workspace per grid.  The bound, 2% of a real
        # field, is 4.4 times the measurement.
        def state_on(box):
            grid = make_grid(N, N, box, box)
            s = gaussian_state(grid, 0.5, kappa=None)
            s.physical, s.dissipation.symbol, grid.column_weight
            for p, axis in ((2.0, None), (4.0, None), (1.5, "x"), (2.0, "y")):
                fourier_weight(grid, p, axis)
            return s

        record(state_on(21.0), CutoffSpec(4.0), [1, 2])
        s = state_on(23.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sample = record(s, CutoffSpec(4.0), [1, 2])
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert sample.l2 > 0.0
        assert kept <= 0.02 * self.REAL, f"{kept} bytes"

    @pytest.mark.parametrize("kappa", [1, 2])
    def test_nonlinear_coeffs_peak_is_its_fft_outputs_and_result(self, grid, kappa):
        # measured at 128^2 (numpy 2.4): 1.002 (kappa = 1 and 2) times the
        # inverse transform's output, the forward transform's half lattice
        # and the returned band array together (the rest is under 1 kB of
        # small objects): the half lattice the inverse fills is freed
        # before the forward transform allocates its own, and the power
        # and the two band multiplies are taken in place.  The same 1.002
        # when the real field was scaled in its own pass and the scalar
        # built on a copy of band.ixi, and when the inverse padded a block
        # of the band's columns; 1.41 when the flux power also allocated
        # per call.  Margin 25%.
        s = gaussian_state(grid, kappa=kappa)
        band = band_layout(grid, s.flux.dealias_denom)
        c = band.gather(s.u_hat.coeffs)
        budget = self.REAL + N * (N // 2 + 1) * 16 + c.nbytes
        peak = transient_peak(lambda: nonlinear_coeffs(grid, c, s.flux))
        assert peak <= 1.25 * budget, f"{peak / budget:.3f} of the budget"


    @pytest.mark.parametrize("kappa", [1, 2])
    @pytest.mark.parametrize("dts", [(0.05, 0.05), (0.05, 0.06)], ids=["same_dt", "new_dt"])
    def test_flux_step_peak_is_six_band_arrays_and_the_fft_outputs(self, grid, monkeypatch,
                                                                    kappa, dts):
        # measured at 128^2 (numpy 2.4): one real field and one half
        # lattice, the transform outputs of a right-hand side, and 5.53
        # (kappa = 1) and 5.55 (kappa = 2) band arrays when the step takes
        # the warm-up's dt, 5.54 and 5.56 when its dt is new.  Inside the
        # third RHS the step holds e_full*c, e_full*k1, k2 and the stage,
        # the ledger's two folded sums (half a band array between them),
        # and the RHS its result.  e_half, e_full and the ledger weights
        # are the last dt's factors (_step_factors): a new dt frees them
        # before it builds its own, so the step with a new dt peaks no
        # higher.  6.04 and 6.06 when the step built e_half and e_full
        # itself and freed e_full before the third RHS; 8.05 and 7.83 when
        # the stages and the RK4 combination were built from
        # per-operation temporaries.  Margin 25% of six band arrays.
        s = gaussian_state(grid, kappa=kappa)
        band = band_layout(grid, s.flux.dealias_denom)
        band_bytes = band.gather(s.u_hat.coeffs).nbytes
        fft_outputs = self.REAL + N * (N // 2 + 1) * 16
        # the warm-up builds its dt's factors while traced, so a new dt's
        # step is seen to free them
        monkeypatch.setattr(timestepper, "_factors", None)
        steps = iter(dts)
        peak = transient_peak(lambda: step_ifrk4(s, next(steps)))
        assert peak <= fft_outputs + 1.25 * 6 * band_bytes, \
            f"{(peak - fft_outputs) / band_bytes:.2f} band arrays"


class TestNoAliasing:
    def test_results_unchanged_by_a_later_call_on_another_state(self, grid):
        a, b = gaussian_state(grid), gaussian_state(grid, t=1.0, amplitude=3.0, shift=4.0)
        band = band_layout(grid, a.flux.dealias_denom)
        calls = {
            "step_ifrk4": lambda s: step_ifrk4(s, 0.1).u_hat.coeffs,
            "nonlinear_coeffs": lambda s: nonlinear_coeffs(grid, band.gather(s.u_hat.coeffs), s.flux),
            "inverse_transform": lambda s: inverse_transform(s.u_hat).values,
        }
        for name, call in calls.items():
            r = call(a)
            kept = r.copy()
            for f in calls.values():
                f(b)
            record(b, CutoffSpec(4.0), [1, 2])
            assert np.array_equal(r, kept), name


class TestPerThread:
    def test_record_on_threads_equals_serial(self, grid):
        # more threads than the 2 cores, each with its own states, and a
        # short switch interval so the threads interleave inside record;
        # one more thread takes the norms' primitives on the same grid
        # between the records of the others
        cutoff = CutoffSpec(4.0)
        amplitudes = (5.0, 2.0, 3.5, 1.0)
        states = [[gaussian_state(grid, t, kappa=None, amplitude=a, shift=a)
                   for t in (0.0, 0.5, 3.0)] for a in amplitudes]
        serial = [[record(s, cutoff, [1, 2]) for s in row] for row in states]
        lone = gaussian_state(grid, kappa=None, amplitude=4.0, shift=-3.0)
        weights = [fourier_weight(grid, 2.0), fourier_weight(grid, 1.5, "x")]

        def primitives():
            return (lp_norms(lone.physical, (1, 2, 4, np.inf)),
                    parseval_sums(lone.u_hat, weights))

        serial_primitives = primitives()
        threaded = [[] for _ in amplitudes]
        threaded_primitives = []
        errors = []

        def work(i):
            try:
                for _ in range(40):
                    if i == len(amplitudes):
                        threaded_primitives.append(primitives())
                    else:
                        threaded[i].extend(record(s, cutoff, [1, 2]) for s in states[i])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(amplitudes) + 1)]
        run_threads(threads, 1e-5)
        assert not errors
        for i in range(len(amplitudes)):
            assert threaded[i] == serial[i] * 40
        assert threaded_primitives == [serial_primitives] * 40

    def test_step_on_threads_equals_serial(self, grid):
        # more threads than the 2 cores step different states of one grid:
        # the flux shares no array between calls and takes no lock, and the
        # step's kept factors, one entry for the process, are taken and
        # replaced in turn by two threads on one dt and two on others
        runs = [(gaussian_state(grid), 0.05),
                (gaussian_state(grid, amplitude=3.0, shift=4.0), 0.05),
                (gaussian_state(grid, kappa=2, amplitude=2.0), 0.04),
                (gaussian_state(grid, kappa=None), 0.5)]

        def steps(s, dt):
            out = []
            for _ in range(6):
                s = step_ifrk4(s, dt)
                out.append((s.u_hat.coeffs.tobytes(), repr(s.ledger)))
            return out

        serial = [steps(*run) for run in runs]
        threaded = [None] * len(runs)
        errors = []

        def work(i):
            try:
                threaded[i] = steps(*runs[i])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(runs))]
        run_threads(threads, 1e-6)
        assert not errors
        assert threaded == serial


def run_threads(threads, interval):
    """Start and join threads at a short switch interval, so that they
    interleave inside the calls they make; assert that they all ended."""
    saved = sys.getswitchinterval()
    sys.setswitchinterval(interval)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
