"""Empirical stress tests of the interpolation inequalities.

Each inequality asserts LHS <= C * RHS for some finite constant that is
never quantified, so the testable content is the ratio LHS / RHS-with-C=1:
it must be exactly invariant under amplitude scaling and translation, and
its maximum over a random corpus must be stable across seeds and grid
resolutions.
"""

from __future__ import annotations

import contextvars
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .norms import folded_power, power_sums
from .operators import DissipationSpec
from .spectral import (BandLayout, GridSpec, PhysicalField, band_layout, forward_transform,
                       fourier_weight)


class DegenerateSampleError(ValueError):
    """The inequality's right-hand side vanished for this sample."""


@dataclass(frozen=True)
class SpectrumLaw:
    """Spectral envelope family for synthetic corpus fields."""

    kind: str  # "flat" | "powerlaw" | "ring"
    decay: float = 1.0
    k0: float = 4.0
    width: float = 1.0

    def __post_init__(self):
        if self.kind not in ("flat", "powerlaw", "ring"):
            raise ValueError(f"unknown spectrum law {self.kind!r}")
        for name, value in (("decay", self.decay), ("k0", self.k0), ("width", self.width)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    def envelope(self, xi_mod: np.ndarray) -> np.ndarray:
        if self.kind == "flat":
            return np.ones_like(xi_mod)
        if self.kind == "powerlaw":
            return (1.0 + xi_mod) ** (-self.decay)
        if self.width == 0.0:
            # exact lattice shell
            return (np.abs(xi_mod - self.k0) <= 1e-9 * max(1.0, self.k0)).astype(float)
        return np.exp(-((xi_mod - self.k0) ** 2) / (2.0 * self.width ** 2))


@dataclass(frozen=True)
class FieldCorpusSpec:
    """Deterministic family of zero-mean band-limited test fields."""

    count: int
    seed: int
    spectrum_law: SpectrumLaw
    band_limit: float
    grid: GridSpec

    def __post_init__(self):
        for name, value in (("count", self.count), ("seed", self.seed)):
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name, value, kind in (("spectrum_law", self.spectrum_law, SpectrumLaw),
                                  ("grid", self.grid, GridSpec)):
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not (0.0 < self.band_limit <= 2.0 / 3.0):
            raise ValueError(f"band_limit must lie in (0, 2/3], got {self.band_limit}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class RatioReport:
    """Corpus statistics of one inequality's LHS/RHS ratio."""

    lemma: str
    count: int
    degenerate_count: int
    max: float
    mean: float
    min: float
    exponents: dict[str, float]


def _synthesize(env: np.ndarray, band: BandLayout, phases: np.ndarray) -> PhysicalField:
    """The read-only member whose band array has moduli env and the given
    phases (both band arrays): the rfft2-layout spectrum of a real field,
    through the band's to_physical, unscaled.  Its exact power spectrum,
    the folded_power of that band array, whose quadrature-weighted
    coefficients are lx * ly times it, is kept read-only in the member's
    own __dict__ for corpus_report."""
    b = env * np.exp(1j * phases)
    # the self-conjugate column xi2 = 0 needs Hermitian symmetry along x
    b[band.n_pos:, 0] = np.conj(b[1:band.n_neg + 1, 0])[::-1]
    b[0, 0] = 0.0  # zero mean
    values = band.to_physical(b)
    values.flags.writeable = False
    u = PhysicalField(band.grid, values)
    power = folded_power(band, b, band.grid.area())
    power.flags.writeable = False
    vars(u)["_power"] = power
    return u


def generate_corpus(spec: FieldCorpusSpec) -> list[PhysicalField]:
    """Synthesize the corpus; bit-identical for identical specs.

    The quadrature-weighted coefficients of each member have modulus
    envelope(xi) * lx * ly on the retained band |j1| <= band_limit * nx/2,
    j2 <= band_limit * ny/2, which is held as a BandLayout; its rule (<=,
    from band_limit) is not band_layout's alias-free one, so it is counted
    here.  The envelope draws nothing, so it is gathered onto the band
    once for the corpus.  The fields are read-only, and each keeps its
    exact power spectrum (_synthesize).

    The calling thread draws every member's randomness from the one
    generator, in stream order: the phases of the whole half lattice, so
    that the stream, and with it every later member, does not depend on the
    band, then four signs for the real-axis modes (rows 0 and nx/2 of
    columns 0 and ny/2), which lie outside the band or are the mean and are
    drawn only to keep the stream.  A pool of one thread per usable CPU,
    started and joined within the call, synthesizes the members
    (_synthesize); each task runs in its own copy of the caller's context,
    so numpy's errstate holds there as it does here.  At most two members
    per thread are in flight, and they are collected in order, so the
    corpus is the bits of a serial loop whatever the thread count.  An
    error in a member propagates, and the members not yet started are
    cancelled.
    """
    rng = np.random.default_rng(spec.seed)
    g = spec.grid
    keep_x = np.abs(g.jx) <= spec.band_limit * g.nx / 2.0
    n_pos, n_neg = (int(np.count_nonzero(h)) for h in np.split(keep_x, 2))
    band = BandLayout(g, n_pos, n_neg, int(np.count_nonzero(g.jy <= spec.band_limit * g.ny / 2.0)))
    env = band.gather(spec.spectrum_law.envelope(g.xi_mod))
    workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
    fields, pending = [], deque()
    pool = ThreadPoolExecutor(workers, thread_name_prefix="anisoflow-corpus")
    try:
        for _ in range(spec.count):
            phases = band.gather(rng.uniform(0.0, 2.0 * np.pi, size=(g.nx, g.ny // 2 + 1)))
            for _ in range(4):
                rng.choice((-1.0, 1.0))
            if len(pending) == 2 * workers:
                fields.append(pending.popleft().result())
            pending.append(pool.submit(contextvars.copy_context().run,
                                       _synthesize, env, band, phases))
        fields += [f.result() for f in pending]
    finally:
        pool.shutdown(cancel_futures=True)
    return fields


def _lemma53_exponents(gamma: int, d: DissipationSpec) -> dict[str, float]:
    return {
        "theta1": (gamma + 1.0 - d.alpha1) / gamma,
        "theta2": (2.0 * gamma + 2.0 - d.alpha1 - d.alpha2) / (2.0 * gamma),
    }


def _lemma54_exponents(gamma: int, d: DissipationSpec) -> dict[str, float]:
    return {
        "s1": (2.0 - d.alpha1) / d.alpha1,
        "s2": (2.0 - d.alpha1) / d.alpha2,
    }


def _gn_exponents(gamma: int, d: DissipationSpec) -> dict[str, float]:
    return {"h2": 0.5, "l2": 0.5}


#: the Parseval sums of a field, in the order of its row; linf ends the row
_SUMS = ("lhs", "big_x", "small_x", "big_y", "small_y", "grad_g", "h2", "l2")


def _sum_weight(name: str, gamma: int, d: DissipationSpec, out: np.ndarray) -> None:
    """Write the Fourier weight |xi|^p * |xi_axis|^q of a named Parseval sum
    over the first rows and columns of the half lattice, out's shape, into
    out.  Every such weight is even in j, so those rows are the folded
    rows |j| of a folded_power."""
    p, q, axis = {
        "lhs": (2.0 * gamma, 2.0 - d.alpha1, "x"),
        "big_x": (2.0 * gamma, d.alpha1, "x"),
        "small_x": (0.0, d.alpha1, "x"),
        "big_y": (2.0 * gamma, d.alpha2, "y"),
        "small_y": (0.0, d.alpha2, "y"),
        "grad_g": (2.0 * gamma, 0.0, None),
        "h2": (4.0, 0.0, None),
        "l2": (0.0, 0.0, None),
    }[name]
    n, c = out.shape
    factors = [w if np.ndim(w) == 0 else w[:n, :c]
               for w in (fourier_weight(d.grid, p), fourier_weight(d.grid, q, axis))]
    np.multiply(*factors, out=out)


def _lemma53(s, e):
    """grad^g Lx^(1-a1/2) u against interpolated dissipation seminorms."""
    return s["lhs"], (s["big_x"] ** e["theta1"] * s["small_x"] ** (1.0 - e["theta1"])
                      + s["big_y"] ** e["theta2"] * s["small_y"] ** (1.0 - e["theta2"]))


def _lemma54(s, e):
    """The variant interpolating against ||grad^g u|| instead."""
    return s["lhs"], (s["big_x"] ** e["s1"] * s["grad_g"] ** (1.0 - e["s1"])
                      + s["big_y"] ** e["s2"] * s["grad_g"] ** (1.0 - e["s2"]))


def _gn(s, e):
    """Gagliardo-Nirenberg: ||u||_inf against ||u||_H2^0.5 * ||u||_L2^0.5."""
    return s["linf"], s["h2"] ** e["h2"] * s["l2"] ** e["l2"]


#: lemma id -> (its (numerator, denominator) formula of (sums over the
#: corpus, exponents), its exponents of (gamma, d))
_LEMMAS = {
    "lemma53": (_lemma53, _lemma53_exponents),
    "lemma54": (_lemma54, _lemma54_exponents),
    "gn": (_gn, _gn_exponents),
}


def corpus_report(
    fields: list[PhysicalField], lemma: str, gamma: int, d: DissipationSpec
) -> RatioReport:
    """Evaluate one inequality over a corpus; deterministic reduction order.

    Every lemma reads the same row of each field: its Parseval sums
    (_SUMS), taken by power_sums from the field's folded_power and their
    weights, all even in j and stacked over the folded rows, and its
    physical-space sup norm, max|u| taken as max(max u, -min u), the
    same float.  A generate_corpus member brings its exact power spectrum,
    so it costs no transform; any other field's power is folded from its
    forward_transform.  A read-only field keeps its row per (gamma, d)
    across reports, so another read-only field is transformed once per
    (gamma, d); a writeable one is evaluated afresh on every call.  Each
    stack of weights, one per shape of power, is built on the first row a
    call computes with it and dropped with the call, so it adds nothing to
    the resident set between reports.  A sample whose denominator is
    exactly 0 is degenerate, and a corpus of only such samples, or none,
    raises.
    """
    if lemma not in _LEMMAS:
        raise ValueError(f"unknown lemma id {lemma!r}")
    if int(gamma) != gamma or gamma < 1:
        raise ValueError(f"gamma must be an integer >= 1, got {gamma}")
    formula, exponents = _LEMMAS[lemma]
    # one contiguous array per sum, the operands of the formula
    rows = np.empty((len(_SUMS) + 1, len(fields)))
    stacks = {}
    for i, u in enumerate(fields):
        if u.grid != d.grid:
            raise ValueError(f"field on {u.grid}, but the dissipation is on {d.grid}")
        # a read-only field keeps its row per (gamma, d) in its own __dict__;
        # a writeable one may change between calls
        memo = None if u.values.flags.writeable else vars(u).setdefault("_rows", {})
        row = None if memo is None else memo.get((gamma, d))
        if row is None:
            power = None if memo is None else vars(u).get("_power")
            if power is None:
                power = folded_power(band_layout(u.grid, 1), forward_transform(u).coeffs)
            weights = stacks.get(power.shape)
            if weights is None:
                weights = stacks[power.shape] = np.empty((len(_SUMS),) + power.shape)
                for w, name in zip(weights, _SUMS):
                    _sum_weight(name, gamma, d, w)
            v = u.values
            row = (*power_sums(u.grid, power, weights), float(max(v.max(), -v.min())))
            if memo is not None:
                memo[gamma, d] = row
        rows[:, i] = row
    e = exponents(gamma, d)
    num, den = formula(dict(zip(_SUMS + ("linf",), rows)), e)
    live = den != 0.0
    if not live.any():
        raise DegenerateSampleError("all corpus samples were degenerate")
    ratios = num[live] / den[live]
    return RatioReport(lemma=lemma, count=len(fields), degenerate_count=len(fields) - ratios.size,
                       max=float(ratios.max()), mean=float(ratios.mean()),
                       min=float(ratios.min()), exponents=e)
