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


def lp_norm(u: PhysicalField, p) -> float:
    """Quadrature L^p norm for p in {1, 2, 4, inf}."""
    if p not in _SUPPORTED_P:
        raise ValueError(f"unsupported p={p}; monitored set is {{1, 2, 4, inf}}")
    a = np.abs(u.values)
    if p == np.inf:
        return float(a.max())
    cell = u.grid.cell_area()
    return float((np.sum(a ** p) * cell) ** (1.0 / p))


def _parseval_weighted(v: SpectralField, weight) -> float:
    """sqrt(sum(weight * |coeffs|^2) / (lx * ly)): the L^2 norm of the
    multiplier weight^(1/2) applied to v, by Parseval."""
    total = np.sum(weight * np.abs(v.coeffs) ** 2) / v.grid.area()
    return float(np.sqrt(total))


def hgamma_seminorm(v: SpectralField, gamma: float) -> float:
    """Homogeneous Sobolev seminorm ||(xi1^2+xi2^2)^(gamma/2) * v|| via Parseval."""
    return _parseval_weighted(v, fourier_weight(v.grid, 2.0 * gamma))


def directional_seminorm(v: SpectralField, axis: str, beta: float) -> float:
    """Directional seminorm with |xi_axis|^(2*beta) weight."""
    return _parseval_weighted(v, fourier_weight(v.grid, 2.0 * beta, axis))


def record(s: SimState, c: CutoffSpec, gammas: list[int]) -> NormSample:
    """Assemble the full NormSample for the state s."""
    u = inverse_transform(s.u_hat)
    ul_hat, uh_hat = split(s.u_hat, s.t, c, s.dissipation)
    return NormSample(
        t=s.t,
        l1=lp_norm(u, 1),
        l2=lp_norm(u, 2),
        l4=lp_norm(u, 4),
        linf=lp_norm(u, np.inf),
        hgamma={g: hgamma_seminorm(s.u_hat, g) for g in gammas},
        diss_x=directional_seminorm(s.u_hat, "x", s.dissipation.alpha1 / 2.0),
        diss_y=directional_seminorm(s.u_hat, "y", s.dissipation.alpha2 / 2.0),
        ul_l2=hgamma_seminorm(ul_hat, 0.0),
        uh_l2=hgamma_seminorm(uh_hat, 0.0),
        ledger=s.ledger,
    )
