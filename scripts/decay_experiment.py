#!/usr/bin/env python3
"""Decay-rate experiment: run the solver on a Gaussian bump, fit the
measured norm histories against the theoretical exponents, and audit the
maximum principle and energy identity along the way.

Example:
    python scripts/decay_experiment.py --alphas 2,2 --nx 512 --t-end 100
"""

from __future__ import annotations

import argparse
import math
import time

from anisoflow import (
    GaussianIC,
    RunConfig,
    energy_audit,
    fit_power_law,
    linear_twin_series,
    max_principle_audit,
    run_simulation,
    theoretical_exponent,
)


def report(args) -> None:
    a1, a2 = (float(x) for x in args.alphas.split(","))
    window = tuple(float(x) for x in args.window.split(","))
    cfg = RunConfig(
        nx=args.nx, ny=args.nx, lx=args.box * math.pi, ly=args.box * math.pi,
        alpha1=a1, alpha2=a2, t_end=args.t_end, sample_every=args.sample_every,
        cfl_safety=args.cfl_safety, ic=GaussianIC(args.amplitude, args.radius),
        nonlinearity_enabled=not args.linear, timeseries_path=args.csv or "",
    )
    t0 = time.perf_counter()
    series, _ = run_simulation(cfg)
    elapsed = time.perf_counter() - t0
    print(f"# alphas=({a1},{a2}) amplitude={args.amplitude} radius={args.radius} "
          f"grid={args.nx}^2 box={args.box}pi t_end={args.t_end} "
          f"steps_wall={elapsed:.1f}s")

    theory_l2 = theoretical_exponent([a1, a2], "l2")
    fit_l2 = fit_power_law([(s.t, s.l2) for s in series], window, "l2", theory_l2)
    print(f"l2 : fitted={fit_l2.exponent:+.4f} theory={theory_l2:+.4f} "
          f"dev={fit_l2.deviation:.4f} r2={fit_l2.r_squared:.6f}")
    for g in cfg.gammas:
        theory_g = theoretical_exponent([a1, a2], "hgamma", g)
        fit_g = fit_power_law([(s.t, s.hgamma[g]) for s in series], window, f"hg{g}", theory_g)
        print(f"hg{g}: fitted={fit_g.exponent:+.4f} theory={theory_g:+.4f} "
              f"dev={fit_g.deviation:.4f} r2={fit_g.r_squared:.6f}")

    lin = linear_twin_series(cfg)
    lin_fit = fit_power_law([(s.t, s.l2) for s in lin], window, "l2-linear", theory_l2)
    print(f"l2 linear twin: fitted={lin_fit.exponent:+.4f} "
          f"|nl-lin|={abs(lin_fit.exponent - fit_l2.exponent):.4f}")

    mp = max_principle_audit(series, args.tol)
    print(f"max principle (tol={args.tol:g}): {'PASS' if mp.passed else 'FAIL'} "
          f"worst={mp.worst_violation:.3e} at t={mp.time:g} ({mp.quantity or '-'})")
    en = energy_audit(series)
    print(f"energy identity: max rel residual={en.max_relative_residual:.3e} at t={en.time:g} "
          f"(trapezoid); {max(en.ledger_residuals):.3e} (in-step ledger)")

    ul_scaled = [s.ul_l2 * (1 + s.t) ** 0.5 for s in series if window[0] <= s.t <= window[1]]
    print(f"ul_l2*(1+t)^0.5 over window: max/min={max(ul_scaled) / min(ul_scaled):.3f}")
    uh_fit = fit_power_law([(s.t, s.uh_l2) for s in series], window, "uh_l2")
    print(f"uh_l2 fitted={uh_fit.exponent:+.4f} (u fitted {fit_l2.exponent:+.4f})")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--alphas", default="2,2")
    p.add_argument("--amplitude", type=float, default=5.0)
    p.add_argument("--radius", type=float, default=2.5)
    p.add_argument("--nx", type=int, default=512)
    p.add_argument("--box", type=float, default=100.0, help="box size in units of pi")
    p.add_argument("--t-end", type=float, default=100.0)
    p.add_argument("--sample-every", type=float, default=0.5)
    p.add_argument("--cfl-safety", type=float, default=0.5)
    p.add_argument("--window", default="10,100")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--linear", action="store_true", help="disable the nonlinearity")
    p.add_argument("--csv", default="", help="optional timeseries output path")
    args = p.parse_args()
    report(args)


if __name__ == "__main__":
    main()
