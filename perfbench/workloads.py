"""The benchmark's three workloads, built from a seed on anisoflow's public API.

Each workload has `prepare` (config, grid, initial state, first-call
warm-up: what `setup_s` times in a fresh process), `job` (one closed-loop
unit of user work, timed) and `check` (invariants that hold for every
seed, untimed).  NOTES.md says why each workload exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import anisoflow as af
import anisoflow.cli  # noqa: F401  (counted in setup_s with config)


@dataclass
class Job:
    """What one job produced: its throughput counts and what `check` reads."""

    samples: int
    sim_time: float = 0.0
    fields: int = 0
    data: object = None


def _gaussian_centre(seed: int, lx: float, ly: float) -> tuple[float, float]:
    # the interior half of the box keeps the radius-2.5 bump clear of the
    # periodic seam, so every seed gives the same smooth problem, translated
    rng = np.random.default_rng(seed)
    return (lx * rng.uniform(0.25, 0.75), ly * rng.uniform(0.25, 0.75))


def _write_config(path: Path, **keys) -> af.RunConfig:
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return af.load_config(str(path))


class Workload:
    name = ""

    def final_check(self, inp, first: Job) -> list[str]:
        """Run-level checks made once, untimed, after the last job."""
        return []


class _Simulation(Workload):
    """Shared set-up of the two 512^2 workloads."""

    nx = 512
    box = 100.0 * math.pi
    alphas = (2.0, 2.0)
    nonlinear = True
    t_end = 10.0

    def __init__(self, small: bool):
        if small:
            # same cell size as 512^2 over 100*pi, so the same CFL regime
            self.nx, self.box = 64, self.box / 8.0
            self.t_end = min(self.t_end, 6.0)
        self.window = (self.t_end / 10.0, self.t_end)

    def prepare(self, seed: int, workdir: Path):
        cx, cy = _gaussian_centre(seed, self.box, self.box)
        cfg = _write_config(
            workdir / "run.cfg",
            nx=self.nx, ny=self.nx, lx=repr(self.box), ly=repr(self.box),
            alpha1=self.alphas[0], alpha2=self.alphas[1], kappa=1,
            t_end=self.t_end, cfl_safety=0.5, sample_every=0.5,
            ic=f"gaussian(5.0, 2.5, {cx!r}, {cy!r})",
            nonlinearity_enabled=str(self.nonlinear).lower(),
            timeseries_path="", checkpoint_path="",
        )
        state = af.initial_state(cfg)
        # first-call warm-up of every layer a job touches
        u = af.inverse_transform(state.u_hat)
        af.step_ifrk4(state, af.cfl_dt(u, state.grid, cfg.cfl_safety))
        af.record(state, af.CutoffSpec(cfg.resolved_mu()), list(cfg.gammas))
        return {"cfg": cfg, "u0_hat": state.u_hat, "workdir": workdir}


class DecayNonlinear(_Simulation):
    name = "decay_nonlinear_512"

    def job(self, inp, index: int) -> Job:
        csv = inp["workdir"] / f"decay_{index}.csv"
        cfg = replace(inp["cfg"], timeseries_path=str(csv))
        series, state = af.run_simulation(cfg)
        return Job(samples=len(series), sim_time=state.t,
                   data={"csv": csv, "z": state.u_hat.coeffs[0, 0]})

    def check(self, inp, job: Job, first: Job) -> list[str]:
        failed = []
        z0 = inp["u0_hat"].coeffs[0, 0]
        if not abs(job.data["z"] - z0) <= 1e-12 * abs(z0):
            failed.append("zero mode not conserved to 1e-12")
        if job.data["csv"].read_bytes() != first.data["csv"].read_bytes():
            failed.append("CSV differs from the first run with the same seed")
        if job is not first:
            job.data["csv"].unlink()
        return failed


class LinearSampled(_Simulation):
    name = "linear_sampled_512"
    alphas = (1.5, 2.0)
    nonlinear = False
    t_end = 100.0

    def job(self, inp, index: int) -> Job:
        csv = inp["workdir"] / "linear.csv"
        ckpt = inp["workdir"] / "linear.ckpt"
        cfg = replace(inp["cfg"], timeseries_path=str(csv), checkpoint_path=str(ckpt))
        # simulate -> analyze -> audit, as a user chains the CLI commands
        series, state = af.run_simulation(cfg)
        back = af.read_timeseries(str(csv))
        a = [cfg.alpha1, cfg.alpha2]
        fits = [
            af.fit_power_law([(s.t, s.l2) for s in back], self.window, "l2",
                             af.theoretical_exponent(a, "l2")),
            af.fit_power_law([(s.t, s.hgamma[1]) for s in back], self.window, "hg1",
                             af.theoretical_exponent(a, "hgamma", 1)),
        ]
        audits = (af.max_principle_audit(back, 1e-6), af.energy_audit(back))
        return Job(samples=len(series), sim_time=state.t,
                   data={"series": series, "back": back, "state": state,
                         "ckpt": ckpt, "fits": fits, "audits": audits})

    def check(self, inp, job: Job, first: Job) -> list[str]:
        failed = []
        d = job.data
        state = d["state"]
        exact = af.linear_exact(inp["u0_hat"], state.dissipation, state.t).coeffs
        err = np.max(np.abs(state.u_hat.coeffs - exact))
        if not err <= 1e-12 * np.max(np.abs(exact)):
            failed.append(f"linear oracle off by {err:.3e} (> 1e-12 relative)")
        loaded = af.checkpoint_read(str(d["ckpt"]))
        written = af.forward_transform(af.inverse_transform(state.u_hat))
        if not (loaded.t == state.t and loaded.flux is None
                and loaded.dissipation.alpha1 == state.dissipation.alpha1
                and loaded.dissipation.alpha2 == state.dissipation.alpha2
                and np.array_equal(loaded.u_hat.coeffs, written.coeffs)):
            failed.append("checkpoint does not read back equal to the written state")
        keys = ("t", "l1", "l2", "l4", "linf", "hgamma", "diss_x", "diss_y", "ul_l2", "uh_l2")
        if [[getattr(s, k) for k in keys] for s in d["series"]] != \
                [[getattr(s, k) for k in keys] for s in d["back"]]:
            failed.append("CSV does not read back equal to the recorded series")
        if not all(np.isfinite(f.exponent) for f in d["fits"]):
            failed.append("nonfinite fitted exponent")
        if not all(np.isfinite(r) for r in (d["audits"][0].worst_violation,
                                             d["audits"][1].max_relative_residual)):
            failed.append("nonfinite audit result")
        job.data = None
        return failed


class IneqLab(Workload):
    """Criterion-8 corpus shape at 128^2 and 256^2, three lemmas per field."""

    name = "ineq_lab"
    lemmas = ("lemma53", "lemma54", "gn")
    gamma = 1
    scale = 137.0

    def __init__(self, small: bool):
        self.sizes = (16, 32) if small else (128, 256)
        self.count = 8 if small else 200

    def prepare(self, seed: int, workdir: Path):
        law = af.SpectrumLaw("powerlaw", decay=3.5)
        specs = []
        for n in self.sizes:
            grid = af.make_grid(n, n, 2.0 * math.pi, 2.0 * math.pi)
            d = af.DissipationSpec(grid, 1.5, 2.0)
            specs.append((af.FieldCorpusSpec(self.count, seed, law, 2.0 / 3.0, grid), d))
        # first-call warm-up: one field of each size through every lemma
        for spec, d in specs:
            (u,) = af.generate_corpus(replace(spec, count=1))
            for lemma in self.lemmas:
                af.corpus_report([u], lemma, self.gamma, d)
        return {"specs": specs}

    def _maxima(self, fields_by_size, inp):
        maxima, degenerate = [], 0
        for fields, (_, d) in zip(fields_by_size, inp["specs"]):
            for lemma in self.lemmas:
                rep = af.corpus_report(fields, lemma, self.gamma, d)
                maxima.append(rep.max)
                degenerate += rep.degenerate_count
        return maxima, degenerate

    def job(self, inp, index: int) -> Job:
        fields = [af.generate_corpus(spec) for spec, _ in inp["specs"]]
        maxima, degenerate = self._maxima(fields, inp)
        n = sum(len(f) for f in fields)
        return Job(samples=n, fields=n, data={"maxima": maxima, "degenerate": degenerate})

    def check(self, inp, job: Job, first: Job) -> list[str]:
        failed = []
        if job.data["degenerate"]:
            failed.append(f"{job.data['degenerate']} degenerate samples")
        if job.data["maxima"] != first.data["maxima"]:
            failed.append("lemma maxima differ from the first run with the same seed")
        return failed

    def final_check(self, inp, first: Job) -> list[str]:
        """Amplitude-scaling invariance of every lemma maximum, to 1e-12."""
        scaled = [[af.PhysicalField(u.grid, self.scale * u.values)
                   for u in af.generate_corpus(spec)] for spec, _ in inp["specs"]]
        maxima, degenerate = self._maxima(scaled, inp)
        failed = [f"{degenerate} degenerate scaled samples"] if degenerate else []
        for a, b in zip(first.data["maxima"], maxima):
            if not abs(b - a) <= 1e-12 * a:
                failed.append(f"scaling changed a lemma maximum: {a!r} -> {b!r}")
        return failed


WORKLOADS = {cls.name: cls for cls in (DecayNonlinear, LinearSampled, IneqLab)}
