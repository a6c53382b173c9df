"""Command-line front end: simulate, exponent, analyze, ineq-lab, audit."""

from __future__ import annotations

import argparse
import math
import re
import sys
from functools import partial

from .config import load_config, parse_call, parse_keys
from .decay import energy_audit, fit_power_law, max_principle_audit, theoretical_exponent
from .errors import BlowUpError, ConfigError
from .ineq import FieldCorpusSpec, SpectrumLaw, corpus_report, generate_corpus
from .io import read_timeseries
from .operators import DissipationSpec
from .run import run_simulation
from .spectral import make_grid


def parse_floats(raw: str, count: int | None = None) -> list[float]:
    """`a,b,...` -> the numbers, exactly count of them when count is given;
    parses --alphas here and in the scripts, which take two."""
    try:
        values = [float(p) for p in raw.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated numbers, got {raw!r}") from None
    if count is not None and len(values) != count:
        raise argparse.ArgumentTypeError(f"must be {count} comma-separated numbers, got {raw!r}")
    return values


def _parse_space(raw: str) -> tuple[str, int | None]:
    """`l2` or `hg:<gamma>` with gamma >= 1 -> the (space, gamma) pair of
    theoretical_exponent."""
    if raw == "l2":
        return "l2", None
    m = re.fullmatch(r"hg:(\d+)", raw)
    if m and int(m.group(1)) >= 1:
        return "hgamma", int(m.group(1))
    raise argparse.ArgumentTypeError(f"must be l2 or hg:<gamma> with gamma >= 1, got {raw!r}")


def parse_window(raw: str) -> tuple[float, float]:
    """`lo,hi` with finite lo < hi -> the (lo, hi) fit window; shared with
    the decay script."""
    lo, hi = parse_floats(raw, 2)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise argparse.ArgumentTypeError(f"must be finite lo < hi, got {raw!r}")
    return lo, hi


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    series, state = run_simulation(cfg)
    print(f"simulated to t={state.t:g} with {len(series)} samples")
    if cfg.timeseries_path:
        print(f"timeseries written to {cfg.timeseries_path}")
    if cfg.checkpoint_path:
        print(f"checkpoint written to {cfg.checkpoint_path}")
    return 0


def _cmd_exponent(args) -> int:
    space, gamma = args.space
    value = theoretical_exponent(args.alphas, space, gamma)
    print(repr(value))
    return 0


def _cmd_analyze(args) -> int:
    space, gamma = args.quantity
    series = read_timeseries(args.csv)
    theoretical = math.nan
    if args.alphas:
        theoretical = theoretical_exponent(args.alphas, space, gamma)
    if gamma is None:
        column, pts = "l2", [(s.t, s.l2) for s in series]
    else:
        column = f"hg{gamma}"
        if any(gamma not in s.hgamma for s in series):
            raise ValueError(f"{args.csv} has no {column} column")
        pts = [(s.t, s.hgamma[gamma]) for s in series]
    fit = fit_power_law(pts, args.window, quantity=column, theoretical=theoretical)
    print(f"quantity:    {fit.quantity}")
    print(f"window:      [{fit.window[0]:g}, {fit.window[1]:g}]")
    print(f"exponent:    {fit.exponent!r}")
    print(f"r_squared:   {fit.r_squared:.12g}")
    print(f"theoretical: {fit.theoretical!r}")
    print(f"deviation:   {fit.deviation!r}")
    return 0


#: spectrum law -> (the argument counts it takes, its usage, its builder)
_LAWS = {
    "flat": ((0,), "flat", lambda: SpectrumLaw("flat")),
    "powerlaw": ((0, 1), "powerlaw[(decay)]",
                 lambda decay=1.0: SpectrumLaw("powerlaw", decay=float(decay))),
    "ring": ((1, 2), "ring(k0[, width])",
             lambda k0, width=1.0: SpectrumLaw("ring", k0=float(k0), width=float(width))),
}

#: ineq-lab key -> (its parser, its default)
_LAB = {
    "count": (int, 200),
    "seed": (int, 1),
    "spectrum": (partial(parse_call, forms=_LAWS, what="spectrum law"),
                 SpectrumLaw("powerlaw", decay=1.0)),
    "band_limit": (float, 2.0 / 3.0),
    "nx": (int, 128),
    "ny": (int, 128),
    "lx": (float, 2.0 * math.pi),
    "ly": (float, 2.0 * math.pi),
    "alpha1": (float, 1.5),
    "alpha2": (float, 2.0),
    "gamma": (int, 1),
}


def load_lab_config(path: str) -> dict:
    lab = parse_keys(path, {key: parser for key, (parser, _) in _LAB.items()}, "ineq-lab")
    return {key: lab.get(key, default) for key, (_, default) in _LAB.items()}


def _cmd_ineq_lab(args) -> int:
    lab = load_lab_config(args.config)
    grid = make_grid(lab["nx"], lab["ny"], lab["lx"], lab["ly"])
    spec = FieldCorpusSpec(
        count=lab["count"], seed=lab["seed"], spectrum_law=lab["spectrum"],
        band_limit=lab["band_limit"], grid=grid,
    )
    d = DissipationSpec(grid, lab["alpha1"], lab["alpha2"])
    if lab["gamma"] < 1:  # corpus_report's rule, checked before the corpus is made
        raise ValueError(f"gamma must be an integer >= 1, got {lab['gamma']}")
    fields = generate_corpus(spec)
    for lemma in ("lemma53", "lemma54", "gn"):
        rep = corpus_report(fields, lemma, lab["gamma"], d)
        exps = ", ".join(f"{k}={v:.6g}" for k, v in rep.exponents.items())
        print(
            f"{rep.lemma}: count={rep.count} degenerate={rep.degenerate_count} "
            f"max={rep.max:.12g} mean={rep.mean:.12g} min={rep.min:.12g} [{exps}]"
        )
    return 0


def _cmd_audit(args) -> int:
    series = read_timeseries(args.csv)
    mp = max_principle_audit(series, args.tol)
    en = energy_audit(series)
    status = "PASS" if mp.passed else "FAIL"
    print(
        f"max principle: {status} worst_violation={mp.worst_violation:.6g} "
        f"at t={mp.time:g} ({mp.quantity or 'none'})"
    )
    print(
        f"energy identity: max_relative_residual={en.max_relative_residual:.6g} "
        f"at t={en.time:g}"
    )
    return 0 if mp.passed else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="anisoflow",
        description="Pseudo-spectral decay-rate toolkit for 2D anisotropic "
        "fractional conservation laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configured simulation")
    p.add_argument("config")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("exponent", help="print the theoretical decay exponent")
    p.add_argument("--alphas", required=True, type=parse_floats,
                   help="comma-separated, each in (1,2]")
    p.add_argument("--space", default="l2", type=_parse_space, help="l2 or hg:<gamma>")
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("analyze", help="fit a power law to a norm history")
    p.add_argument("csv")
    p.add_argument("--quantity", default="l2", type=_parse_space, help="l2 or hg:<gamma>")
    p.add_argument("--window", required=True, type=parse_window, help="lo,hi")
    p.add_argument("--alphas", default=[], type=parse_floats,
                   help="optional, for the theoretical rate")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("ineq-lab", help="inequality ratio reports over a corpus")
    p.add_argument("config")
    p.set_defaults(func=_cmd_ineq_lab)

    p = sub.add_parser("audit", help="max-principle and energy audits of a CSV")
    p.add_argument("csv")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_audit)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, BlowUpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
