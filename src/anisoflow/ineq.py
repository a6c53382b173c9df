"""Empirical stress tests of the interpolation inequalities.

Each inequality asserts LHS <= C * RHS for some finite constant that is
never quantified, so the testable content is the ratio LHS / RHS-with-C=1:
it must be exactly invariant under amplitude scaling and translation, and
its maximum over a random corpus must be stable across seeds and grid
resolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norms import lp_norms, parseval_sums
from .operators import DissipationSpec
from .spectral import BandLayout, GridSpec, PhysicalField, forward_transform, fourier_weight


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


def _half_spectrum(env: np.ndarray, band: BandLayout, rng: np.random.Generator) -> np.ndarray:
    """One band array of the rfft2-layout spectrum of a real field: moduli
    env and random phases on the band (env is a band array)."""
    nx, ny = band.grid.nx, band.grid.ny
    # the phases of the whole half lattice are drawn, so the stream, and with
    # it every later field, does not depend on the band
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(nx, ny // 2 + 1))
    b = env * np.exp(1j * band.gather(phases))
    # the self-conjugate column xi2 = 0 needs Hermitian symmetry along x
    b[band.n_pos:, 0] = np.conj(b[1:band.n_neg + 1, 0])[::-1]
    # the real axis modes (rows 0 and nx/2 of columns 0 and ny/2) lie outside
    # the band or are the mean; their signs are still drawn, as above
    for _ in range(4):
        rng.choice((-1.0, 1.0))
    b[0, 0] = 0.0  # zero mean
    return b


def generate_corpus(spec: FieldCorpusSpec) -> list[PhysicalField]:
    """Synthesize the corpus; bit-identical for identical specs.

    The quadrature-weighted coefficients of each member have modulus
    envelope(xi) * lx * ly on the retained band |j1| <= band_limit * nx/2,
    j2 <= band_limit * ny/2, which is held as a BandLayout; its rule (<=,
    from band_limit) is not band_layout's alias-free one, so it is counted
    here.  The envelope draws nothing, so it is gathered onto the band
    once for the corpus.  Each member is the band's to_physical of its band
    array, the one inverse transform, unscaled.  The fields are read-only.
    """
    rng = np.random.default_rng(spec.seed)
    g = spec.grid
    keep_x = np.abs(g.jx) <= spec.band_limit * g.nx / 2.0
    n_pos, n_neg = (int(np.count_nonzero(h)) for h in np.split(keep_x, 2))
    band = BandLayout(g, n_pos, n_neg, int(np.count_nonzero(g.jy <= spec.band_limit * g.ny / 2.0)))
    env = band.gather(spec.spectrum_law.envelope(g.xi_mod))
    fields = []
    for _ in range(spec.count):
        values = band.to_physical(_half_spectrum(env, band, rng))
        values.flags.writeable = False
        fields.append(PhysicalField(g, values))
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


def _sum_weight(name: str, gamma: int, d: DissipationSpec):
    """Fourier weight |xi|^p * |xi_axis|^q of a named Parseval sum, in
    fourier_weight's shapes: a directional one is not spread over the lattice."""
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
    return fourier_weight(d.grid, p) * fourier_weight(d.grid, q, axis)


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
    (_SUMS), from one transform and one |coeffs|^2, and its physical-space
    sup norm.  A read-only field, such as a generate_corpus member, keeps
    its row, so it is transformed once per (gamma, d) across reports; a
    writeable one is evaluated afresh on every call.  The weights are
    built on the first row a call computes and dropped with the call, so
    they add nothing to the resident set between reports.  A sample whose
    denominator is exactly 0 is degenerate, and a corpus of only such
    samples, or none, raises.
    """
    if lemma not in _LEMMAS:
        raise ValueError(f"unknown lemma id {lemma!r}")
    if int(gamma) != gamma or gamma < 1:
        raise ValueError(f"gamma must be an integer >= 1, got {gamma}")
    formula, exponents = _LEMMAS[lemma]
    # one contiguous array per sum, the operands of the formula
    rows = np.empty((len(_SUMS) + 1, len(fields)))
    weights = None
    for i, u in enumerate(fields):
        if u.grid != d.grid:
            raise ValueError(f"field on {u.grid}, but the dissipation is on {d.grid}")
        # a read-only field keeps its row per (gamma, d) in its own __dict__;
        # a writeable one may change between calls
        memo = None if u.values.flags.writeable else vars(u).setdefault("_rows", {})
        row = None if memo is None else memo.get((gamma, d))
        if row is None:
            if weights is None:
                weights = [_sum_weight(name, gamma, d) for name in _SUMS]
            row = (*parseval_sums(forward_transform(u), weights), lp_norms(u, (np.inf,))[0])
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
