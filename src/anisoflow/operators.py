"""Dissipation symbol, flux law, and the dealiased nonlinear flux divergence."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft as _fft

from .errors import NonFiniteStateError
from .spectral import FFT_WORKERS, GridSpec, band_mask, fourier_weight


@dataclass(frozen=True)
class DissipationSpec:
    """Anisotropy pair (alpha1, alpha2) and the precomputed symbol.

    symbol[j, k] = |xi1[j]|^alpha1 + |xi2[k]|^alpha2 over the grid lattice.
    """

    grid: GridSpec
    alpha1: float
    alpha2: float
    symbol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, a in (("alpha1", self.alpha1), ("alpha2", self.alpha2)):
            if not (1.0 < a <= 2.0):
                raise ValueError(f"{name} must lie in (1, 2], got {a}")
        m = fourier_weight(self.grid, self.alpha1, "x") \
            + fourier_weight(self.grid, self.alpha2, "y")
        m.flags.writeable = False
        object.__setattr__(self, "symbol", m)


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

    def __call__(self, u: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return u ** (self.kappa + 1) / (self.kappa + 1)


def nonlinear_coeffs(grid: GridSpec, coeffs: np.ndarray, flux: FluxSpec) -> np.ndarray:
    """Spectral divergence of the flux, i*(xi1+xi2) * F[f(u)], dealiased.

    coeffs are quadrature-weighted.  The state is truncated to the
    alias-free band before the pointwise power is taken, and the result is
    truncated again, so the monomial products are exact on the retained
    modes.  The zero mode vanishes identically: the flux is in divergence
    form.  Two transforms per call, which dominates the time-step cost.
    """
    keep = band_mask(grid, flux.dealias_denom, strict=True)
    area = grid.cell_area()
    u_band = _fft.ifft2(np.where(keep, coeffs, 0.0), workers=FFT_WORKERS).real / area
    w = flux(u_band)
    if not np.all(np.isfinite(w)):
        raise NonFiniteStateError(
            f"overflow evaluating flux power u^{flux.kappa + 1}"
        )
    w_hat = _fft.fft2(w, workers=FFT_WORKERS) * area
    xi1, xi2 = grid.mesh_xi()
    return np.where(keep, 1j * (xi1 + xi2) * w_hat, 0.0)
