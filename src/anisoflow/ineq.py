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

from .norms import _parseval_weighted, lp_norm
from .operators import DissipationSpec
from .spectral import (
    GridSpec,
    PhysicalField,
    SpectralField,
    forward_transform,
    fourier_weight,
)


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


def _half_spectrum(spec: FieldCorpusSpec, rng: np.random.Generator) -> np.ndarray:
    """One rfft2-layout spectrum: prescribed moduli, random phases, real field."""
    nx, ny = spec.grid.nx, spec.grid.ny
    hy = ny // 2 + 1
    xi1 = spec.grid.xi1[:, None]
    xi2 = spec.grid.xi2[:hy][None, :]
    env = spec.spectrum_law.envelope(np.sqrt(xi1 * xi1 + xi2 * xi2))
    jx = spec.grid.jx[:, None]
    jy = spec.grid.jy[:hy][None, :]
    env = np.where(
        (np.abs(jx) <= spec.band_limit * nx / 2.0)
        & (np.abs(jy) <= spec.band_limit * ny / 2.0),
        env,
        0.0,
    )
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
    envelope(xi) * lx * ly on the retained band.
    """
    rng = np.random.default_rng(spec.seed)
    nx, ny = spec.grid.nx, spec.grid.ny
    fields = []
    for _ in range(spec.count):
        c = _half_spectrum(spec, rng) * (nx * ny)
        values = np.fft.irfft2(c, s=(nx, ny))
        fields.append(PhysicalField(spec.grid, values))
    return fields


def lemma53_exponents(gamma: int, d: DissipationSpec) -> dict[str, float]:
    return {
        "theta1": (gamma + 1.0 - d.alpha1) / gamma,
        "theta2": (2.0 * gamma + 2.0 - d.alpha1 - d.alpha2) / (2.0 * gamma),
    }


def lemma54_exponents(gamma: int, d: DissipationSpec) -> dict[str, float]:
    return {
        "s1": (2.0 - d.alpha1) / d.alpha1,
        "s2": (2.0 - d.alpha1) / d.alpha2,
    }


def _lemma_pieces(u: PhysicalField, gamma: int, d: DissipationSpec):
    if int(gamma) != gamma or gamma < 1:
        raise ValueError(f"gamma must be an integer >= 1, got {gamma}")
    v = forward_transform(u)
    iso2g = fourier_weight(u.grid, 2.0 * gamma)
    wx = fourier_weight(u.grid, d.alpha1, "x")
    wy = fourier_weight(u.grid, d.alpha2, "y")
    lhs = _parseval_weighted(v, iso2g * fourier_weight(u.grid, 2.0 - d.alpha1, "x"))
    big_x = _parseval_weighted(v, iso2g * wx)
    small_x = _parseval_weighted(v, wx)
    big_y = _parseval_weighted(v, iso2g * wy)
    small_y = _parseval_weighted(v, wy)
    grad_g = _parseval_weighted(v, iso2g)
    return lhs, big_x, small_x, big_y, small_y, grad_g


def lemma53_ratio(u: PhysicalField, gamma: int, d: DissipationSpec) -> float:
    """Ratio for the split bounding grad^g Lx^(1-a1/2) by dissipation seminorms."""
    lhs, big_x, small_x, big_y, small_y, _ = _lemma_pieces(u, gamma, d)
    e = lemma53_exponents(gamma, d)
    rhs = big_x ** e["theta1"] * small_x ** (1.0 - e["theta1"]) \
        + big_y ** e["theta2"] * small_y ** (1.0 - e["theta2"])
    if rhs == 0.0:
        raise DegenerateSampleError("interpolation right-hand side vanished")
    return lhs / rhs


def lemma54_ratio(u: PhysicalField, gamma: int, d: DissipationSpec) -> float:
    """Ratio for the variant interpolating against ||grad^g u|| instead."""
    lhs, big_x, _, big_y, _, grad_g = _lemma_pieces(u, gamma, d)
    e = lemma54_exponents(gamma, d)
    rhs = big_x ** e["s1"] * grad_g ** (1.0 - e["s1"]) \
        + big_y ** e["s2"] * grad_g ** (1.0 - e["s2"])
    if rhs == 0.0:
        raise DegenerateSampleError("interpolation right-hand side vanished")
    return lhs / rhs


def gn_ratio(u: PhysicalField) -> float:
    """Gagliardo-Nirenberg ratio ||u||_inf / (||u||_H2^0.5 * ||u||_L2^0.5)."""
    v = forward_transform(u)
    h2 = _parseval_weighted(v, fourier_weight(u.grid, 4))
    l2 = _parseval_weighted(v, 1.0)
    denom = np.sqrt(h2) * np.sqrt(l2)
    if denom == 0.0:
        raise DegenerateSampleError("Gagliardo-Nirenberg denominator vanished")
    return lp_norm(u, np.inf) / denom


#: lemma id -> (ratio of (u, gamma, d), exponents of (gamma, d)).  The
#: ratios are looked up by name on every call, so a wrapper bound to the
#: module attribute (a profiler, a test's monkeypatch) sees each one.
_LEMMAS = {
    "lemma53": (lambda u, gamma, d: lemma53_ratio(u, gamma, d), lemma53_exponents),
    "lemma54": (lambda u, gamma, d: lemma54_ratio(u, gamma, d), lemma54_exponents),
    "gn": (lambda u, gamma, d: gn_ratio(u), lambda gamma, d: {"h2": 0.5, "l2": 0.5}),
}


def corpus_report(
    fields: list[PhysicalField], lemma: str, gamma: int, d: DissipationSpec
) -> RatioReport:
    """Evaluate one inequality over a corpus; deterministic reduction order."""
    if lemma not in _LEMMAS:
        raise ValueError(f"unknown lemma id {lemma!r}")
    func, exponents = _LEMMAS[lemma]
    ratios = []
    degenerate = 0
    for u in fields:
        try:
            ratios.append(func(u, gamma, d))
        except DegenerateSampleError:
            degenerate += 1
    if not ratios:
        raise ValueError("all corpus samples were degenerate")
    return RatioReport(
        lemma=lemma,
        count=len(fields),
        degenerate_count=degenerate,
        max=float(np.max(ratios)),
        mean=float(np.mean(ratios)),
        min=float(np.min(ratios)),
        exponents=exponents(gamma, d),
    )


@dataclass(frozen=True)
class FourierBoundReport:
    """Empirical constant in the pointwise spectral growth bound."""

    sup_constant: float
    probe: tuple[int, int]
    time: float
    max_pointwise_excess: float


def fourier_bound_report(
    run: list[tuple[float, SpectralField]], probes: list[tuple[int, int]]
) -> FourierBoundReport:
    """Track |u_hat(t, xi)|^2 - ||u0||_L1^2 against the Duhamel integral.

    For each probe mode xi the implied constant is
    max(0, |u_hat|^2 - ||u0||_L1^2) / (|xi| * int_0^t ||u||_L2^2 ||u||_L1).
    Also reports the worst excess of |u_hat| over ||u||_L1, which the
    transform convention keeps <= 0 up to roundoff.
    """
    if not run:
        raise ValueError("empty run")
    from .spectral import inverse_transform

    times = np.array([t for t, _ in run])
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("snapshot times must be strictly increasing")
    grid = run[0][1].grid
    l1 = np.empty(len(run))
    l2 = np.empty(len(run))
    for i, (_, v) in enumerate(run):
        u = inverse_transform(v)
        l1[i] = lp_norm(u, 1)
        l2[i] = lp_norm(u, 2)
    integrand = l2 ** 2 * l1
    cumulative = np.concatenate(
        ([0.0], np.cumsum(0.5 * np.diff(times) * (integrand[1:] + integrand[:-1])))
    )
    l1_0_sq = l1[0] ** 2

    sup_c = 0.0
    arg_probe = probes[0]
    arg_time = times[0]
    excess = -np.inf
    for jk in probes:
        j, k = int(jk[0]), int(jk[1])
        xi = np.hypot(2.0 * np.pi * j / grid.lx, 2.0 * np.pi * k / grid.ly)
        if xi == 0.0:
            raise ValueError("probes must be nonzero modes")
        for i, (t, v) in enumerate(run):
            mag = abs(v.coeffs[j % grid.nx, k % grid.ny])
            excess = max(excess, mag - l1[i])
            if cumulative[i] > 0.0:
                c_star = max(0.0, mag ** 2 - l1_0_sq) / (xi * cumulative[i])
                if c_star > sup_c:
                    sup_c = c_star
                    arg_probe = (j, k)
                    arg_time = t
    return FourierBoundReport(
        sup_constant=float(sup_c),
        probe=arg_probe,
        time=float(arg_time),
        max_pointwise_excess=float(excess),
    )
