"""Span tracing of anisoflow's public functions, installed from outside.

Nothing in the package is edited.  `Tracer.install` wraps each hook target
and rebinds every module attribute of `anisoflow.*` that refers to it, so
calls made through `from .spectral import inverse_transform` style imports
are caught as well as package-level calls.  The FFT entry points of
`scipy.fft` and `numpy.fft` are wrapped the same way, for counts, points
and computed bytes.  Each wrapper calls the original unchanged.

Spans (name, start, end, parent, payload) stay in memory until the traced
section ends; `layer_metrics` then reduces them.  A target that no longer
exists is reported as absent, never as an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time

# (span name, module, attribute).  Deleted or renamed targets are reported
# as absent; hermitian_defect is a planned removal.
HOOKS = [
    ("spectral.forward_transform", "anisoflow.spectral", "forward_transform"),
    ("spectral.inverse_transform", "anisoflow.spectral", "inverse_transform"),
    ("spectral.hermitian_defect", "anisoflow.spectral", "hermitian_defect"),
    ("operators.nonlinear_coeffs", "anisoflow.operators", "nonlinear_coeffs"),
    ("timestepper.step_ifrk4", "anisoflow.timestepper", "step_ifrk4"),
    ("timestepper.cfl_dt", "anisoflow.timestepper", "cfl_dt"),
    ("timestepper.linear_exact", "anisoflow.timestepper", "linear_exact"),
    ("run.initial_state", "anisoflow.run", "initial_state"),
    ("run.advance_to", "anisoflow.run", "advance_to"),
    ("run.run_simulation", "anisoflow.run", "run_simulation"),
    ("norms.record", "anisoflow.norms", "record"),
    ("norms.lp_norm", "anisoflow.norms", "lp_norm"),
    ("norms.hgamma_seminorm", "anisoflow.norms", "hgamma_seminorm"),
    ("norms.directional_seminorm", "anisoflow.norms", "directional_seminorm"),
    ("freqsplit.split", "anisoflow.freqsplit", "split"),
    ("freqsplit.chi0", "anisoflow.freqsplit", "chi0"),
    ("decay.fit_power_law", "anisoflow.decay", "fit_power_law"),
    ("decay.max_principle_audit", "anisoflow.decay", "max_principle_audit"),
    ("decay.energy_audit", "anisoflow.decay", "energy_audit"),
    ("io.write_timeseries", "anisoflow.io", "write_timeseries"),
    ("io.read_timeseries", "anisoflow.io", "read_timeseries"),
    ("io.checkpoint_write", "anisoflow.io", "checkpoint_write"),
    ("io.checkpoint_read", "anisoflow.io", "checkpoint_read"),
    ("ineq.generate_corpus", "anisoflow.ineq", "generate_corpus"),
    ("ineq.corpus_report", "anisoflow.ineq", "corpus_report"),
    ("ineq.lemma53_ratio", "anisoflow.ineq", "lemma53_ratio"),
    ("ineq.lemma54_ratio", "anisoflow.ineq", "lemma54_ratio"),
    ("ineq.gn_ratio", "anisoflow.ineq", "gn_ratio"),
]

FFT_MODULES = ("scipy.fft", "numpy.fft")
FFT_FUNCS = ("fft2", "ifft2", "rfft2", "irfft2")
FFT_SPAN = "spectral.fft"

# Per-layer metrics, in the order of BENCHMARK.json: name -> (unit, better).
PER_LAYER = {
    "spectral.fft.calls": ("count", "lower"),
    "spectral.fft.points": ("count", "lower"),
    "spectral.fft.bytes_computed": ("B", "lower"),
    "spectral.fft.busy_s": ("s", "lower"),
    "spectral.inverse_transform.calls": ("count", "lower"),
    "spectral.inverse_transform.busy_s": ("s", "lower"),
    "spectral.inverse_transform.self_s": ("s", "lower"),
    "spectral.hermitian_defect.busy_s": ("s", "lower"),
    "spectral.forward_transform.calls": ("count", "lower"),
    "spectral.forward_transform.busy_s": ("s", "lower"),
    "operators.nonlinear_coeffs.calls": ("count", "lower"),
    "operators.nonlinear_coeffs.busy_s": ("s", "lower"),
    "operators.nonlinear_coeffs.self_s": ("s", "lower"),
    "timestepper.step_ifrk4.calls": ("count", "lower"),
    "timestepper.step_ifrk4.busy_s": ("s", "lower"),
    "timestepper.step_ifrk4.self_s": ("s", "lower"),
    "timestepper.step_ifrk4.p50_ms": ("ms", "lower"),
    "timestepper.step_ifrk4.p90_ms": ("ms", "lower"),
    "timestepper.cfl_dt.calls": ("count", "lower"),
    "timestepper.cfl_dt.busy_s": ("s", "lower"),
    "timestepper.linear_exact.busy_s": ("s", "lower"),
    "run.dt_cfl_limited_frac": ("frac", "lower"),
    "run.advance_to.calls": ("count", "lower"),
    "run.advance_to.busy_s": ("s", "lower"),
    "run.advance_to.self_s": ("s", "lower"),
    "run.initial_state.busy_s": ("s", "lower"),
    "run.steps_per_s": ("1/s", "higher"),
    "norms.record.calls": ("count", "lower"),
    "norms.record.busy_s": ("s", "lower"),
    "norms.record.self_s": ("s", "lower"),
    "norms.record.p50_ms": ("ms", "lower"),
    "norms.lp_norm.busy_s": ("s", "lower"),
    "norms.hgamma_seminorm.busy_s": ("s", "lower"),
    "norms.directional_seminorm.busy_s": ("s", "lower"),
    "freqsplit.split.calls": ("count", "lower"),
    "freqsplit.split.busy_s": ("s", "lower"),
    "freqsplit.chi0.busy_s": ("s", "lower"),
    "decay.fit_power_law.busy_s": ("s", "lower"),
    "decay.max_principle_audit.busy_s": ("s", "lower"),
    "decay.energy_audit.busy_s": ("s", "lower"),
    "io.write_timeseries.busy_s": ("s", "lower"),
    "io.write_timeseries.bytes": ("B", "lower"),
    "io.read_timeseries.busy_s": ("s", "lower"),
    "io.checkpoint_write.busy_s": ("s", "lower"),
    "io.checkpoint_write.bytes": ("B", "lower"),
    "io.checkpoint_read.busy_s": ("s", "lower"),
    "ineq.generate_corpus.busy_s": ("s", "lower"),
    "ineq.corpus_report.calls": ("count", "lower"),
    "ineq.corpus_report.busy_s": ("s", "lower"),
    "ineq.corpus_report.self_s": ("s", "lower"),
    "ineq.lemma53_ratio.busy_s": ("s", "lower"),
    "ineq.lemma54_ratio.busy_s": ("s", "lower"),
    "ineq.gn_ratio.busy_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def _fft_payload(args, kwargs, out):
    """(spectral points, bytes read + written) of one 2-D transform call.

    The points are those of the complex side: nx*ny for fft2/ifft2 and
    nx*(ny//2+1) for rfft2/irfft2.
    """
    x = args[0] if args else kwargs.get("x", kwargs.get("a"))
    spectral = out if out.dtype.kind == "c" else x
    return (int(spectral.size), int(getattr(x, "nbytes", 0) + out.nbytes))


def _written_bytes(fn):
    """Payload hook: size of the file the wrapped writer was given."""
    sig = inspect.signature(fn)

    def payload(args, kwargs, out):
        try:
            path = sig.bind(*args, **kwargs).arguments.get("path")
        except TypeError:
            return 0
        return os.path.getsize(path) if path and os.path.exists(path) else 0

    return payload


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, payload]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_cfl = None
        self.absent: list[str] = []

    def span(self, name, fn, payload=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if payload is not None:
                rec[4] = payload(args, kwargs, out)
            return out

        return wrapper

    def _payload_for(self, name, fn):
        if name in ("io.write_timeseries", "io.checkpoint_write"):
            return _written_bytes(fn)
        if name == "timestepper.cfl_dt":
            def remember(args, kwargs, out):
                self._last_cfl = out
            return remember
        if name == "timestepper.step_ifrk4":
            def cfl_limited(args, kwargs, out):
                dt = args[1] if len(args) > 1 else kwargs.get("dt")
                limited = self._last_cfl is not None and dt == self._last_cfl
                self._last_cfl = None
                return int(limited)
            return cfl_limited
        return None

    def _rebind(self, original, wrapper, owners) -> None:
        for mod in owners:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def install(self) -> None:
        owners = [m for k, m in list(sys.modules.items())
                  if m is not None and (k == "anisoflow" or k.startswith("anisoflow."))]
        for name, modname, attr in HOOKS:
            try:
                fn = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self._rebind(fn, self.span(name, fn, self._payload_for(name, fn)), owners)
        for modname in FFT_MODULES:
            mod = importlib.import_module(modname)
            for attr in FFT_FUNCS:
                fn = getattr(mod, attr, None)
                if fn is not None:
                    self._rebind(fn, self.span(FFT_SPAN, fn, _fft_payload), [mod] + owners)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy and self seconds, durations, payloads."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, t0, t1, _, payload) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                      "durations": [], "payloads": []})
            s["calls"] += 1
            s["busy_s"] += t1 - t0
            s["self_s"] += (t1 - t0) - child[i]
            s["durations"].append(t1 - t0)
            if payload is not None:
                s["payloads"].append(payload)
        return out

    def dump(self) -> list[dict]:
        return [{"name": n, "start": t0, "end": t1, "parent": p, "payload": pl}
                for n, t0, t1, p, pl in self.spans]


def _quantile_ms(durations, q):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(summary, untraced_wall_s, traced_wall_s, jobs) -> dict[str, float]:
    """Reduce a traced section to the PER_LAYER metrics (absent layers read 0)."""
    def stat(name, key):
        s = summary.get(name)
        return 0 if s is None else s[key]

    fft = summary.get(FFT_SPAN, {"payloads": []})
    steps = summary.get("timestepper.step_ifrk4", {"durations": [], "payloads": []})
    record = summary.get("norms.record", {"durations": []})
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        layer, _, key = metric.rpartition(".")
        if key in ("calls", "busy_s", "self_s"):
            out[metric] = stat(layer, key)
    out["spectral.fft.points"] = sum(p for p, _ in fft["payloads"])
    out["spectral.fft.bytes_computed"] = sum(b for _, b in fft["payloads"])
    out["timestepper.step_ifrk4.p50_ms"] = _quantile_ms(steps["durations"], 50)
    out["timestepper.step_ifrk4.p90_ms"] = _quantile_ms(steps["durations"], 90)
    out["norms.record.p50_ms"] = _quantile_ms(record["durations"], 50)
    n_steps = len(steps["durations"])
    out["run.dt_cfl_limited_frac"] = sum(steps["payloads"]) / n_steps if n_steps else 0.0
    out["run.steps_per_s"] = n_steps / jobs / untraced_wall_s
    for name in ("io.write_timeseries", "io.checkpoint_write"):
        out[f"{name}.bytes"] = sum(summary.get(name, {"payloads": []})["payloads"])
    out["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics without a reduction: {sorted(missing)}")
    return {k: out[k] for k in PER_LAYER}
