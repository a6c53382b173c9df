"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The two 512^2 production
runs are session fixtures shared across criteria; the suite takes a few
minutes of wall time.

Criterion 6 gates the in-step energy ledger (SimState.ledger, integrated
over the RK stages of every step) at 1e-4 on every sample pair, so it
measures the solver's energy error.  The trapezoid residual over the
0.5-spaced samples is printed for information only: across the t<1
transient it measures the trapezoid rule (3.7e-2 on the first pair even
for the exact linear semigroup), and its ~4x improvement per halving of
the sampling interval is checked on the pairs inside WINDOW, where the
sampling resolves the dissipation rate.

Criterion 5 is implemented exactly as stated and is expected to FAIL on
the large-amplitude production runs: for positive data L1 is conserved,
so the Gibbs undershoot of the 2/3-truncated steepening front counts as
an uptick (l1 only, 6.2e-3 at t=0.5).  The cause is spatial resolution,
not the time step: cfl_safety 0.1 gives the same 6.17e-3, while 256^2
gives 1.2e-1 and 1024^2 gives 2.5e-5.  The module suites show the audit
passing at its tolerance on configurations that resolve the data.
"""

from dataclasses import replace

import numpy as np
import pytest

from anisoflow import (
    DissipationSpec,
    FieldCorpusSpec,
    FluxSpec,
    GaussianIC,
    PhysicalField,
    RunConfig,
    SimState,
    SpectrumLaw,
    corpus_report,
    energy_audit,
    fit_power_law,
    forward_transform,
    generate_corpus,
    initial_state,
    linear_exact,
    make_grid,
    max_principle_audit,
    run_simulation,
    step_ifrk4,
    theoretical_exponent,
)

WINDOW = (10.0, 100.0)


def announce(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def production_config(alpha1: float, alpha2: float) -> RunConfig:
    # criterion-pinned: amplitude 5, box 100*pi, grid 512^2, sample 0.5;
    # radius 2.5 keeps the self-similar crossover (~R^2/2) below the fit
    # window so the asymptotic rate is measurable by t=10
    return RunConfig(
        nx=512, ny=512, lx=100.0 * np.pi, ly=100.0 * np.pi,
        alpha1=alpha1, alpha2=alpha2, t_end=100.0, sample_every=0.5,
        ic=GaussianIC(5.0, 2.5), nonlinearity_enabled=True,
        timeseries_path="", checkpoint_path="",
    )


@pytest.fixture(scope="session")
def run22():
    return run_simulation(production_config(2.0, 2.0))


@pytest.fixture(scope="session")
def run1520():
    return run_simulation(production_config(1.5, 2.0))


@pytest.fixture(scope="session")
def linear22_series():
    # without the flux, run_simulation samples the exact semigroup
    cfg = replace(production_config(2.0, 2.0), nonlinearity_enabled=False)
    return run_simulation(cfg)[0]


def fit(series, quantity, theoretical=np.nan):
    if quantity == "l2":
        pts = [(s.t, s.l2) for s in series]
    elif quantity == "uh_l2":
        pts = [(s.t, s.uh_l2) for s in series]
    else:
        pts = [(s.t, s.hgamma[int(quantity[2:])]) for s in series]
    return fit_power_law(pts, WINDOW, quantity, theoretical)


class TestCriterion1:
    def test_linear_semigroup_oracle(self):
        details = []
        ok = True
        for a1, a2 in ((2.0, 2.0), (1.5, 2.0), (1.2, 1.8)):
            cfg = RunConfig(
                nx=256, ny=256, lx=20.0 * np.pi, ly=20.0 * np.pi,
                alpha1=a1, alpha2=a2, t_end=10.0, sample_every=5.0,
                ic=GaussianIC(2.0, 2.0), nonlinearity_enabled=False,
                timeseries_path="", checkpoint_path="",
            )
            u0_hat = initial_state(cfg).u_hat
            _, state = run_simulation(cfg)
            exact = linear_exact(u0_hat, state.dissipation, state.t)
            err = np.max(np.abs(state.u_hat.coeffs - exact.coeffs))
            rel = err / np.max(np.abs(exact.coeffs))
            details.append(f"({a1},{a2}): rel={rel:.2e}")
            ok = ok and rel <= 1e-12
        announce(1, "linear-semigroup oracle", ok, "; ".join(details))


class TestCriterion2:
    def test_l2_decay_isotropic(self, run22, linear22_series):
        series, _ = run22
        nl = fit(series, "l2", theoretical_exponent([2, 2], "l2"))
        lin = fit(linear22_series, "l2")
        dev_theory = abs(nl.exponent - (-0.5))
        dev_linear = abs(nl.exponent - lin.exponent)
        ok = dev_theory <= 0.08 and dev_linear <= 0.05
        announce(
            2, "L2 decay exponent, isotropic", ok,
            f"fitted={nl.exponent:+.4f} theory=-0.5 dev={dev_theory:.4f} (<=0.08); "
            f"linear={lin.exponent:+.4f} |nl-lin|={dev_linear:.4f} (<=0.05)",
        )


class TestCriterion3:
    def test_l2_decay_anisotropic(self, run22, run1520):
        theory = theoretical_exponent([1.5, 2], "l2")  # -7/12
        aniso = fit(run1520[0], "l2", theory)
        iso = fit(run22[0], "l2")
        within_band = abs(aniso.exponent - theory) <= 0.15 * abs(theory)
        ordered = aniso.exponent < iso.exponent
        ok = within_band and ordered
        announce(
            3, "L2 decay exponent, anisotropic", ok,
            f"fitted={aniso.exponent:+.4f} theory={theory:+.4f} "
            f"dev={abs(aniso.exponent - theory):.4f} (<= {0.15 * abs(theory):.4f}); "
            f"ordering {aniso.exponent:+.4f} < {iso.exponent:+.4f}: {ordered}",
        )


class TestCriterion4:
    def test_h1_decay(self, run22, run1520):
        iso = fit(run22[0], "hg1", theoretical_exponent([2, 2], "hgamma", 1))
        dev_iso = abs(iso.exponent - (-1.0))
        theory_aniso = theoretical_exponent([1.5, 2], "hgamma", 1)  # -23/24
        aniso = fit(run1520[0], "hg1", theory_aniso)
        dev_aniso = abs(aniso.exponent - theory_aniso)
        ok = dev_iso <= 0.2 * 1.0 and dev_aniso <= 0.25 * abs(theory_aniso)
        announce(
            4, "H1 decay", ok,
            f"isotropic fitted={iso.exponent:+.4f} theory=-1 dev={dev_iso:.4f} (<=0.2); "
            f"anisotropic fitted={aniso.exponent:+.4f} theory={theory_aniso:+.4f} "
            f"dev={dev_aniso:.4f} (<= {0.25 * abs(theory_aniso):.4f})",
        )


class TestCriterion5:
    def test_max_principle_audit(self, run22, run1520):
        reports = {
            "(2,2)": max_principle_audit(run22[0], 1e-6),
            "(1.5,2)": max_principle_audit(run1520[0], 1e-6),
        }
        ok = all(r.passed for r in reports.values())
        detail = "; ".join(
            f"{k}: worst={r.worst_violation:.3e} at t={r.time:g} ({r.quantity or '-'})"
            for k, r in reports.items()
        )
        announce(5, "maximum principle audit (tol 1e-6)", ok, detail)


def window_max(report):
    """Worst trapezoid residual over the pairs lying inside WINDOW."""
    return max(
        r for (t_a, t_b), r in zip(report.pair_times, report.residuals)
        if WINDOW[0] <= t_a and t_b <= WINDOW[1]
    )


class TestCriterion6:
    def test_energy_identity(self, run22, run1520):
        from dataclasses import replace

        r22 = energy_audit(run22[0])
        r1520 = energy_audit(run1520[0])
        short = replace(production_config(2.0, 2.0), t_end=30.0)
        series_half, _ = run_simulation(replace(short, sample_every=0.25))
        # the t=30 run at 0.5 sampling is a bit-exact prefix of run22
        series_base = [s for s in run22[0] if s.t <= 30.0]
        ratio = window_max(energy_audit(series_base)) / window_max(energy_audit(series_half))
        ledger22 = max(r22.ledger_residuals)
        ledger1520 = max(r1520.ledger_residuals)
        ok = ledger22 <= 1e-4 and ledger1520 <= 1e-4 and 3.0 <= ratio <= 5.0
        announce(
            6, "energy identity", ok,
            f"ledger residual (2,2)={ledger22:.3e}, (1.5,2)={ledger1520:.3e} "
            f"(<=1e-4 on every pair); "
            f"trapezoid residual (2,2)={r22.max_relative_residual:.3e}, "
            f"(1.5,2)={r1520.max_relative_residual:.3e} (information); "
            f"trapezoid halving improvement on WINDOW pairs x{ratio:.2f} (3..5, ~4 expected)",
        )


class TestCriterion7:
    def test_low_high_split(self, run22):
        series, _ = run22
        scaled = [
            s.ul_l2 * (1.0 + s.t) ** 0.5
            for s in series
            if WINDOW[0] <= s.t <= WINDOW[1]
        ]
        spread = max(scaled) / min(scaled)
        uh = fit(series, "uh_l2")
        u = fit(series, "l2")
        ok = spread <= 3.0 and uh.exponent <= u.exponent + 0.1
        announce(
            7, "low/high frequency split", ok,
            f"ul_l2*(1+t)^0.5 max/min={spread:.3f} (<=3); "
            f"uh exponent {uh.exponent:+.4f} <= u exponent {u.exponent:+.4f} + 0.1",
        )


class TestCriterion8:
    GAMMA = 1
    # envelope with convergent H2 content so the corpus represents fixed
    # continuum fields and refinement is a meaningful comparison
    LAW = SpectrumLaw("powerlaw", decay=3.5)

    def _maxima(self, nx, seed, scale=1.0):
        grid = make_grid(nx, nx, 2.0 * np.pi, 2.0 * np.pi)
        d = DissipationSpec(grid, 1.5, 2.0)
        spec = FieldCorpusSpec(200, seed, self.LAW, 2.0 / 3.0, grid)
        fields = generate_corpus(spec)
        if scale != 1.0:
            fields = [PhysicalField(grid, scale * f.values) for f in fields]
        out = {}
        degenerate = 0
        for lemma in ("lemma53", "lemma54", "gn"):
            rep = corpus_report(fields, lemma, self.GAMMA, d)
            out[lemma] = rep.max
            degenerate += rep.degenerate_count
        return out, degenerate

    def test_inequality_lab(self):
        base, deg_base = self._maxima(128, seed=1)
        scaled, deg_scaled = self._maxima(128, seed=1, scale=137.0)
        other_seed, deg_seed = self._maxima(128, seed=2)
        fine, deg_fine = self._maxima(256, seed=1)

        scale_ok = all(
            abs(scaled[k] - base[k]) <= 1e-12 * base[k] for k in base
        )
        seed_ok = all(
            abs(other_seed[k] - base[k]) <= 0.10 * max(other_seed[k], base[k])
            for k in base
        )
        res_ok = all(
            abs(fine[k] - base[k]) <= 0.20 * max(fine[k], base[k]) for k in base
        )
        deg_ok = deg_base == deg_scaled == deg_seed == deg_fine == 0
        ok = scale_ok and seed_ok and res_ok and deg_ok
        announce(
            8, "inequality lab stability", ok,
            f"maxima 128^2 seed1: " +
            ", ".join(f"{k}={v:.4f}" for k, v in base.items()) +
            f"; scaling exact={scale_ok}, seeds within 10%={seed_ok}, "
            f"128^2 vs 256^2 within 20%={res_ok}, degenerates=0: {deg_ok}",
        )


class TestCriterion9:
    def test_order_verification(self):
        grid = make_grid(32, 32, 2.0 * np.pi, 2.0 * np.pi)
        d = DissipationSpec(grid, 1.5, 2.0)
        rng = np.random.default_rng(3)
        values = rng.standard_normal((32, 32))
        from conftest import keep_mask

        c = np.fft.rfft2(values)
        values = np.fft.irfft2(np.where(keep_mask(grid, 3), c, 0.0), s=values.shape)
        s0 = SimState(0.0, forward_transform(PhysicalField(grid, values)), d, FluxSpec(1))
        t_end = 0.1

        def integrate(n):
            s = s0
            for _ in range(n):
                s = step_ifrk4(s, t_end / n)
            return s.u_hat.coeffs

        ref = integrate(1600)
        errs = [np.max(np.abs(integrate(n) - ref)) for n in (25, 50, 100)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        ok = min(orders) >= 3.8
        announce(
            9, "time-stepper order verification", ok,
            f"observed orders {orders[0]:.3f}, {orders[1]:.3f} (>=3.8)",
        )
