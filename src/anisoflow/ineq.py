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
from .spectral import GridSpec, PhysicalField, forward_transform, fourier_weight


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


def _half_spectrum(env: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One rfft2-layout spectrum: moduli env, random phases, real field."""
    nx, hy = env.shape
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(nx, hy))
    c = env * np.exp(1j * phases)
    # self-conjugate columns (xi2 = 0 and xi2 = Nyquist) need Hermitian
    # symmetry along x; their axis rows must be purely real.
    for col in (0, hy - 1):
        c[nx // 2 + 1:, col] = np.conj(c[1:nx // 2, col])[::-1]
        c[0, col] = env[0, col] * rng.choice((-1.0, 1.0))
        c[nx // 2, col] = env[nx // 2, col] * rng.choice((-1.0, 1.0))
    c[0, 0] = 0.0  # zero mean
    return c


def generate_corpus(spec: FieldCorpusSpec) -> list[PhysicalField]:
    """Synthesize the corpus; bit-identical for identical specs.

    The quadrature-weighted coefficients of each member have modulus
    envelope(xi) * lx * ly on the retained band.  The masked envelope
    draws nothing, so it is built once for the corpus.
    """
    rng = np.random.default_rng(spec.seed)
    g = spec.grid
    env = np.where(
        (np.abs(g.jx[:, None]) <= spec.band_limit * g.nx / 2.0)
        & (g.jy[None, :] <= spec.band_limit * g.ny / 2.0),
        spec.spectrum_law.envelope(g.xi_mod),
        0.0,
    )
    fields = []
    for _ in range(spec.count):
        c = _half_spectrum(env, rng) * (g.nx * g.ny)
        values = np.fft.irfft2(c, s=(g.nx, g.ny))
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


def _sum_weight(name: str, gamma: int, d: DissipationSpec):
    """Fourier weight |xi|^p * |xi_axis|^q of a named Parseval sum."""
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


#: lemma id -> (the sums it reads, its (numerator, denominator) formula of
#: (sums over the corpus, exponents), its exponents of (gamma, d))
_LEMMAS = {
    "lemma53": (("lhs", "big_x", "small_x", "big_y", "small_y"), _lemma53, _lemma53_exponents),
    "lemma54": (("lhs", "big_x", "big_y", "grad_g"), _lemma54, _lemma54_exponents),
    "gn": (("linf", "h2", "l2"), _gn, _gn_exponents),
}


def corpus_report(
    fields: list[PhysicalField], lemma: str, gamma: int, d: DissipationSpec
) -> RatioReport:
    """Evaluate one inequality over a corpus; deterministic reduction order.

    The weights of the sums the lemma reads are built once from d.grid;
    each field is transformed once, and one |coeffs|^2 serves all of its
    Parseval sums; linf is the physical-space sup norm.  A sample whose
    denominator is exactly 0 is degenerate, and a corpus of only such
    samples, or none, raises.
    """
    if lemma not in _LEMMAS:
        raise ValueError(f"unknown lemma id {lemma!r}")
    if int(gamma) != gamma or gamma < 1:
        raise ValueError(f"gamma must be an integer >= 1, got {gamma}")
    names, formula, exponents = _LEMMAS[lemma]
    spectral = [name for name in names if name != "linf"]
    weights = [_sum_weight(name, gamma, d) for name in spectral]
    sums = {name: np.empty(len(fields)) for name in names}
    for i, u in enumerate(fields):
        if u.grid != d.grid:
            raise ValueError(f"field on {u.grid}, but the dissipation is on {d.grid}")
        v = forward_transform(u)
        for name, value in zip(spectral, parseval_sums(v, weights)):
            sums[name][i] = value
        if "linf" in sums:
            sums["linf"][i] = lp_norms(u, (np.inf,))[0]
    e = exponents(gamma, d)
    num, den = formula(sums, e)
    live = den != 0.0
    if not live.any():
        raise DegenerateSampleError("all corpus samples were degenerate")
    ratios = num[live] / den[live]
    return RatioReport(lemma=lemma, count=len(fields), degenerate_count=len(fields) - ratios.size,
                       max=float(ratios.max()), mean=float(ratios.mean()),
                       min=float(ratios.min()), exponents=e)
