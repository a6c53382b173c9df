"""Monitored norms and seminorms, and the per-sample record assembly.

Physical L^p norms use grid quadrature (spectrally accurate for smooth
periodic integrands); all L^2-based seminorms go through Parseval on the
quadrature-weighted coefficients, so the two routes agree to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .freqsplit import CutoffSpec, split
from .spectral import PhysicalField, SpectralField, fourier_weight, inverse_transform
from .timestepper import SimState

_SUPPORTED_P = (1, 2, 4, np.inf)


@dataclass(frozen=True)
class NormSample:
    """All monitored quantities at one simulation time.

    ledger is the state's in-step energy ledger (SimState.ledger); samples
    read back from a CSV carry None, since the CSV does not store it.
    """

    t: float
    l1: float
    l2: float
    l4: float
    linf: float
    hgamma: dict[int, float]
    diss_x: float
    diss_y: float
    ul_l2: float
    uh_l2: float
    ledger: float | None = None

    def __post_init__(self):
        scalars = [self.l1, self.l2, self.l4, self.linf, self.diss_x,
                   self.diss_y, self.ul_l2, self.uh_l2]
        if self.ledger is not None:
            scalars.append(self.ledger)
        scalars += list(self.hgamma.values())
        if not all(np.isfinite(v) and v >= 0.0 for v in scalars):
            raise ValueError("norm sample contains negative or nonfinite entries")
        # interpolation sanity, exact for quadrature sums up to roundoff
        if self.l2 ** 2 > self.l1 * self.linf * (1.0 + 1e-12) + 1e-300:
            raise ValueError("norm sample violates l2^2 <= l1*linf")


def _lp_norms(u: PhysicalField, ps) -> list[float]:
    """Quadrature L^p norms for several p in {1, 2, 4, inf}, from one |u|."""
    a = np.abs(u.values)
    cell = u.grid.cell_area()
    return [float(a.max()) if p == np.inf else float((np.sum(a ** p) * cell) ** (1.0 / p))
            for p in ps]


def lp_norm(u: PhysicalField, p) -> float:
    """Quadrature L^p norm for p in {1, 2, 4, inf}."""
    if p not in _SUPPORTED_P:
        raise ValueError(f"unsupported p={p}; monitored set is {{1, 2, 4, inf}}")
    return _lp_norms(u, (p,))[0]


def _parseval_sums(v: SpectralField, weights) -> list[float]:
    """sqrt(sum(weight * |coeffs|^2) / (lx * ly)) over the full lattice for
    each weight, from one |coeffs|^2: the L^2 norm of the multiplier
    weight^(1/2) applied to v, by Parseval.  The half lattice's columns
    enter with grid.column_weight."""
    abs2 = np.abs(v.coeffs) ** 2
    g = v.grid
    return [float(np.sqrt(np.dot(np.sum(w * abs2, axis=0), g.column_weight) / g.area()))
            for w in weights]


def _parseval_weighted(v: SpectralField, weight) -> float:
    """The Parseval sum of _parseval_sums for a single weight."""
    return _parseval_sums(v, (weight,))[0]


def hgamma_seminorm(v: SpectralField, gamma: float) -> float:
    """Homogeneous Sobolev seminorm ||(xi1^2+xi2^2)^(gamma/2) * v|| via Parseval."""
    return _parseval_weighted(v, fourier_weight(v.grid, 2.0 * gamma))


def directional_seminorm(v: SpectralField, axis: str, beta: float) -> float:
    """Directional seminorm with |xi_axis|^(2*beta) weight."""
    return _parseval_weighted(v, fourier_weight(v.grid, 2.0 * beta, axis))


def record(s: SimState, c: CutoffSpec, gammas: list[int]) -> NormSample:
    """Assemble the full NormSample for the state s.

    One |u| serves the four L^p norms and one |u_hat|^2 the H^gamma and
    dissipation seminorms; each value is the same float that lp_norm,
    hgamma_seminorm and directional_seminorm return.
    """
    u = inverse_transform(s.u_hat)
    ul_hat, uh_hat = split(s.u_hat, s.t, c, s.dissipation)
    l1, l2, l4, linf = _lp_norms(u, _SUPPORTED_P)
    g, d = s.u_hat.grid, s.dissipation
    weights = [fourier_weight(g, 2.0 * gamma) for gamma in gammas]
    weights += [fourier_weight(g, d.alpha1, "x"), fourier_weight(g, d.alpha2, "y")]
    *hg, diss_x, diss_y = _parseval_sums(s.u_hat, weights)
    return NormSample(
        t=s.t,
        l1=l1,
        l2=l2,
        l4=l4,
        linf=linf,
        hgamma=dict(zip(gammas, hg)),
        diss_x=diss_x,
        diss_y=diss_y,
        ul_l2=hgamma_seminorm(ul_hat, 0.0),
        uh_l2=hgamma_seminorm(uh_hat, 0.0),
        ledger=s.ledger,
    )
