"""Dissipation symbol, flux law, and the dealiased nonlinear flux divergence."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import GridSpec, band_layout, fourier_weight


@dataclass(frozen=True)
class DissipationSpec:
    """Anisotropy pair (alpha1, alpha2) and its symbol.

    symbol[j, k] = |xi1[j]|^alpha1 + |xi2[k]|^alpha2 over the half lattice,
    built on first use and kept, read-only, so that building a spec (as
    every RunConfig does) only checks the pair.
    """

    grid: GridSpec
    alpha1: float
    alpha2: float

    def __post_init__(self):
        for name, a in (("alpha1", self.alpha1), ("alpha2", self.alpha2)):
            if not (1.0 < a <= 2.0):
                raise ValueError(f"{name} must lie in (1, 2], got {a}")

    @cached_property
    def symbol(self) -> np.ndarray:
        m = fourier_weight(self.grid, self.alpha1, "x") \
            + fourier_weight(self.grid, self.alpha2, "y")
        m.flags.writeable = False
        return m


@dataclass(frozen=True)
class FluxSpec:
    """Monomial flux f(u) = u^(1+kappa)/(1+kappa), same in both directions.

    kappa = 1 recovers the quadratic flux u*u_x + u*u_y.
    """

    kappa: int = 1

    def __post_init__(self):
        if not (isinstance(self.kappa, (int, np.integer)) and self.kappa >= 1):
            raise ValueError(f"kappa must be an integer >= 1, got {self.kappa}")

    @property
    def dealias_denom(self) -> int:
        """Band denominator making degree-(kappa+1) products alias-free."""
        return self.kappa + 2


def nonlinear_coeffs(grid: GridSpec, coeffs: np.ndarray, flux: FluxSpec,
                     u: np.ndarray | None = None, scale: float = 1.0) -> np.ndarray:
    """scale times the spectral divergence of the flux, i*(xi1+xi2) * F[f(u)],
    on the band; step_ifrk4 passes scale = -dt and gets its RK4 increment.

    coeffs and the result are band arrays of band_layout(grid,
    flux.dealias_denom), quadrature-weighted: the state is zero outside the
    alias-free band before the pointwise power is taken, and the result is
    kept on the band only, so the monomial products are exact on the
    retained modes.  The zero mode vanishes identically: the flux is in
    divergence form.  The transforms are the band's own pair
    (BandLayout.to_physical and from_physical), whose x-transforms run on
    the band's columns only, both unscaled.  Besides them the call makes
    one pass over the real field, the power u^(kappa+1) taken in place on
    the unscaled inverse, and two band multiplies: by band.ixi and by one
    real scalar that holds the inverse's 1/(lx*ly) to the power kappa+1,
    the forward weight cell_area, the flux's 1/(kappa+1) and scale.  The
    half lattice the inverse fills is freed before the forward transform
    allocates its own, so at its peak a call holds only the two transform
    outputs and the result.
    An inf or NaN in f(u) makes every output of the forward transform
    nonfinite, so the result carries it to the caller, which checks it.

    u, when given, is the real field of the scattered band with its
    1/(lx*ly) already applied: a flux state's own field (SimState.physical),
    which SimState builds from the band, as stage 1 of step_ifrk4 passes
    it.  Its inverse transform is then skipped, the scalar omits that
    factor, and the power is taken into a fresh array, leaving u unchanged.
    """
    band = band_layout(grid, flux.dealias_denom)
    power = flux.kappa + 1
    out = None
    if u is None:
        u = out = band.to_physical(coeffs)
        scale /= grid.area() ** power
    w = np.square(u, out=out) if power == 2 else np.power(u, power, out=out)
    w_hat = band.from_physical(w)
    w_hat *= band.ixi
    w_hat *= scale * grid.cell_area() / power
    return w_hat
