"""Command-line front end: simulate, exponent, analyze, ineq-lab, audit."""

from __future__ import annotations

import argparse
import math
import re
import sys

from .config import load_config, parse_flat_file
from .decay import energy_audit, fit_power_law, max_principle_audit, theoretical_exponent
from .errors import ConfigError
from .ineq import FieldCorpusSpec, SpectrumLaw, corpus_report, generate_corpus
from .io import read_timeseries
from .operators import DissipationSpec
from .run import run_simulation
from .spectral import make_grid


def _parse_alphas(raw: str) -> list[float]:
    return [float(p) for p in raw.split(",") if p.strip()]


def _parse_space(raw: str) -> tuple[str, int | None]:
    """`l2` or `hg:<gamma>` -> the (space, gamma) pair of theoretical_exponent."""
    if raw == "l2":
        return "l2", None
    m = re.fullmatch(r"hg:(\d+)", raw)
    if m:
        return "hgamma", int(m.group(1))
    raise argparse.ArgumentTypeError(f"must be l2 or hg:<gamma>, got {raw!r}")


def _parse_window(raw: str) -> tuple[float, float]:
    try:
        lo, hi = (float(p) for p in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be lo,hi, got {raw!r}") from None
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
    value = theoretical_exponent(_parse_alphas(args.alphas), space, gamma)
    print(repr(value))
    return 0


def _cmd_analyze(args) -> int:
    space, gamma = args.quantity
    series = read_timeseries(args.csv)
    theoretical = math.nan
    if args.alphas:
        theoretical = theoretical_exponent(_parse_alphas(args.alphas), space, gamma)
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


_LAW_RE = re.compile(r"^(\w+)\s*(?:\((.*)\))?$")


def parse_spectrum_law(raw: str) -> SpectrumLaw:
    m = _LAW_RE.match(raw.strip())
    if not m:
        raise ValueError(f"malformed spectrum law {raw!r}")
    name = m.group(1).lower()
    args = [float(a) for a in m.group(2).split(",")] if m.group(2) else []
    if name == "flat":
        return SpectrumLaw("flat")
    if name == "powerlaw":
        return SpectrumLaw("powerlaw", decay=args[0] if args else 1.0)
    if name == "ring":
        if len(args) not in (1, 2):
            raise ValueError("ring takes (k0[, width])")
        return SpectrumLaw("ring", k0=args[0], width=args[1] if len(args) == 2 else 1.0)
    raise ValueError(f"unknown spectrum law {name!r}")


_LAB_PARSERS = {
    "count": int,
    "seed": int,
    "spectrum": parse_spectrum_law,
    "band_limit": float,
    "nx": int,
    "ny": int,
    "lx": float,
    "ly": float,
    "alpha1": float,
    "alpha2": float,
    "gamma": int,
}

_LAB_DEFAULTS = {
    "count": 200,
    "seed": 1,
    "spectrum": SpectrumLaw("powerlaw", decay=1.0),
    "band_limit": 2.0 / 3.0,
    "nx": 128,
    "ny": 128,
    "lx": 2.0 * math.pi,
    "ly": 2.0 * math.pi,
    "alpha1": 1.5,
    "alpha2": 2.0,
    "gamma": 1,
}


def load_lab_config(path: str) -> dict:
    raw = parse_flat_file(path)
    unknown = sorted(set(raw) - set(_LAB_PARSERS))
    if unknown:
        raise ConfigError(f"unknown ineq-lab key(s): {', '.join(unknown)}")
    out = dict(_LAB_DEFAULTS)
    for key, value in raw.items():
        try:
            out[key] = _LAB_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"ineq-lab key {key!r}: {exc}") from None
    return out


def _cmd_ineq_lab(args) -> int:
    lab = load_lab_config(args.config)
    grid = make_grid(lab["nx"], lab["ny"], lab["lx"], lab["ly"])
    spec = FieldCorpusSpec(
        count=lab["count"], seed=lab["seed"], spectrum_law=lab["spectrum"],
        band_limit=lab["band_limit"], grid=grid,
    )
    d = DissipationSpec(grid, lab["alpha1"], lab["alpha2"])
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
    p.add_argument("--alphas", required=True, help="comma-separated, each in (1,2]")
    p.add_argument("--space", default="l2", type=_parse_space, help="l2 or hg:<gamma>")
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("analyze", help="fit a power law to a norm history")
    p.add_argument("csv")
    p.add_argument("--quantity", default="l2", type=_parse_space, help="l2 or hg:<gamma>")
    p.add_argument("--window", required=True, type=_parse_window, help="lo,hi")
    p.add_argument("--alphas", default="", help="optional, for the theoretical rate")
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
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
