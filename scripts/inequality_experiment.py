#!/usr/bin/env python3
"""Interpolation-inequality stress test: evaluate the lemma ratios over
synthetic corpora and report the stability of the maxima across seeds and
resolutions.

Example:
    python scripts/inequality_experiment.py --count 200 --nx 128 --gamma 1
"""

from __future__ import annotations

import argparse
import math
from contextlib import contextmanager
from functools import partial

from anisoflow import (
    DissipationSpec,
    FieldCorpusSpec,
    GridSpec,
    SpectrumLaw,
    corpus_report,
    generate_corpus,
)
from anisoflow.cli import parse_floats


def _parse_seeds(raw: str) -> list[int]:
    """`a,b,...` -> the corpus seeds, integers >= 0."""
    try:
        seeds = [int(p) for p in raw.split(",")]
    except ValueError:
        seeds = []
    if not seeds or min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers >= 0, got {raw!r}")
    return seeds


@contextmanager
def _flag(name: str):
    """Prefix a ValueError raised in the block with the flag it came from."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def build(args) -> list[tuple[DissipationSpec, FieldCorpusSpec]]:
    """Each corpus spec, resolution by resolution and seed by seed, with its
    dissipation, all built, and the gamma checked, before any corpus is made."""
    with _flag("--decay"):
        law = SpectrumLaw("powerlaw", decay=args.decay)
    plan = []
    for name, nx in (("--nx", args.nx), ("--nx-fine", args.nx_fine)):
        with _flag(name):
            grid = GridSpec(nx, nx, 2 * math.pi, 2 * math.pi)
        with _flag("--alphas"):
            d = DissipationSpec(grid, *args.alphas)
        with _flag("--count"):
            plan += [(d, FieldCorpusSpec(args.count, seed, law, 2.0 / 3.0, grid))
                     for seed in args.seeds]
    if args.gamma < 1:  # corpus_report's rule, checked before the corpora
        raise ValueError(f"--gamma must be an integer >= 1, got {args.gamma}")
    return plan


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seeds", default="1,2", type=_parse_seeds)
    p.add_argument("--nx", type=int, default=128)
    p.add_argument("--nx-fine", type=int, default=256)
    p.add_argument("--alphas", default="1.5,2", type=partial(parse_floats, count=2), help="a1,a2")
    p.add_argument("--gamma", type=int, default=1)
    p.add_argument("--decay", type=float, default=1.0, help="powerlaw envelope decay")
    args = p.parse_args()
    try:
        plan = build(args)
    except ValueError as exc:
        p.error(str(exc))

    for d, spec in plan:
        fields = generate_corpus(spec)
        for lemma in ("lemma53", "lemma54", "gn"):
            rep = corpus_report(fields, lemma, args.gamma, d)
            print(
                f"nx={spec.grid.nx} seed={spec.seed} {lemma}: max={rep.max:.6g} "
                f"mean={rep.mean:.6g} min={rep.min:.6g} "
                f"degenerate={rep.degenerate_count}"
            )


if __name__ == "__main__":
    main()
