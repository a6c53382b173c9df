"""Periodic grid, discrete Fourier transform conventions, Fourier weights
and the alias-free band masks.

The transform pair approximates the continuous Fourier transform on a
periodic box: forward coefficients carry the dx*dy quadrature weight, so
|coeffs(xi)| <= ||u||_L1 holds discretely and Parseval reads

    sum(|u|^2) * dx * dy == sum(|coeffs|^2) / (lx * ly).

Wavenumbers follow the signed FFT layout: xi1[j] = 2*pi*j_tilde/lx with
j_tilde in [-nx/2, nx/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.fft as _fft

from .errors import MalformedSpectrumError

# pocketfft is deterministic for any worker count; 2 matches the small
# containers this usually runs in.
FFT_WORKERS = 2

#: Hermitian-symmetry tolerance (relative) accepted by inverse_transform.
SYMMETRY_RTOL = 1e-10

_MIN_POINTS = 8


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GridSpec:
    """Periodic computational box and its discrete wavenumber lattice.

    Attributes
    ----------
    nx, ny : int
        Grid points per axis; even and >= 8.
    lx, ly : float
        Box side lengths.
    """

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        for name, n in (("nx", self.nx), ("ny", self.ny)):
            if n % 2 != 0 or n < _MIN_POINTS:
                raise ValueError(f"{name} must be even and >= {_MIN_POINTS}, got {n}")
        for name, l in (("lx", self.lx), ("ly", self.ly)):
            if not (l > 0.0 and np.isfinite(l)):
                raise ValueError(f"{name} must be positive and finite, got {l}")

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    # cached_property stores straight into __dict__, so it coexists with
    # frozen dataclasses; all derived arrays are computed once per grid
    @cached_property
    def x(self) -> np.ndarray:
        """Physical x coordinates, shape (nx,)."""
        return _readonly(np.arange(self.nx) * self.dx)

    @cached_property
    def y(self) -> np.ndarray:
        """Physical y coordinates, shape (ny,)."""
        return _readonly(np.arange(self.ny) * self.dy)

    @cached_property
    def jx(self) -> np.ndarray:
        """Signed integer mode indices along x, FFT order."""
        return _readonly(np.fft.fftfreq(self.nx, d=1.0 / self.nx).astype(np.int64))

    @cached_property
    def jy(self) -> np.ndarray:
        return _readonly(np.fft.fftfreq(self.ny, d=1.0 / self.ny).astype(np.int64))

    @cached_property
    def xi1(self) -> np.ndarray:
        """Wavenumbers 2*pi*j_tilde/lx along x, shape (nx,)."""
        return _readonly(2.0 * np.pi * self.jx / self.lx)

    @cached_property
    def xi2(self) -> np.ndarray:
        return _readonly(2.0 * np.pi * self.jy / self.ly)

    def mesh_xi(self) -> tuple[np.ndarray, np.ndarray]:
        """Broadcastable wavenumber arrays, shapes (nx, 1) and (1, ny)."""
        return self.xi1[:, None], self.xi2[None, :]

    @cached_property
    def xi_mod(self) -> np.ndarray:
        """|xi| over the lattice, shape (nx, ny)."""
        x1, x2 = self.mesh_xi()
        return _readonly(np.sqrt(x1 * x1 + x2 * x2))

    def cell_area(self) -> float:
        return self.dx * self.dy

    def area(self) -> float:
        return self.lx * self.ly


@dataclass(frozen=True)
class PhysicalField:
    """Real-space samples of one scalar state on a GridSpec."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.nx, self.grid.ny):
            raise ValueError(
                f"values shape {v.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})"
            )
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients over the full wavenumber lattice.

    coeffs[j, k] = dx*dy * sum_xy u(x, y) * exp(-i*(xi1[j]*x + xi2[k]*y))
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.grid.nx, self.grid.ny):
            raise ValueError(
                f"coeffs shape {c.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})"
            )
        object.__setattr__(self, "coeffs", c)


def make_grid(nx: int, ny: int, lx: float, ly: float) -> GridSpec:
    """Validate and build the periodic grid."""
    return GridSpec(nx=int(nx), ny=int(ny), lx=float(lx), ly=float(ly))


def forward_transform(u: PhysicalField) -> SpectralField:
    """Physical samples -> quadrature-weighted Fourier coefficients."""
    if not np.all(np.isfinite(u.values)):
        raise ValueError("physical field contains nonfinite values")
    coeffs = _fft.fft2(u.values, workers=FFT_WORKERS) * u.grid.cell_area()
    return SpectralField(u.grid, coeffs)


def hermitian_defect(coeffs: np.ndarray) -> float:
    """Max |coeffs(xi) - conj(coeffs(-xi))| over the lattice."""
    mirror = np.roll(coeffs[::-1, ::-1], shift=(1, 1), axis=(0, 1))
    return float(np.max(np.abs(coeffs - np.conj(mirror))))


def inverse_transform(v: SpectralField) -> PhysicalField:
    """Fourier coefficients -> real samples; rejects asymmetric spectra."""
    scale = float(np.max(np.abs(v.coeffs)))
    if scale > 0.0:
        defect = hermitian_defect(v.coeffs)
        if defect > SYMMETRY_RTOL * scale:
            raise MalformedSpectrumError(
                f"spectrum is not Hermitian-symmetric: defect {defect:.3e} "
                f"exceeds {SYMMETRY_RTOL:.1e} * max|coeffs|"
            )
    values = _fft.ifft2(v.coeffs, workers=FFT_WORKERS).real / v.grid.cell_area()
    return PhysicalField(v.grid, values)


@lru_cache(maxsize=32)
def _band_mask_cached(grid: GridSpec, denom: int, strict: bool) -> np.ndarray:
    jx, jy = denom * np.abs(grid.jx), denom * np.abs(grid.jy)
    if strict:
        keep_x, keep_y = jx < grid.nx, jy < grid.ny
    else:
        keep_x, keep_y = jx <= grid.nx, jy <= grid.ny
    return _readonly(keep_x[:, None] & keep_y[None, :])


def band_mask(grid: GridSpec, denom: int, strict: bool = False) -> np.ndarray:
    """Keep-mask for modes with |j_tilde| <= nx/denom and |k_tilde| <= ny/denom.

    Integer arithmetic, so the band edge is exact.  With strict=True the
    edge mode is dropped when denom divides the grid size, which keeps
    degree-(denom-1) products alias-free on every grid.
    """
    return _band_mask_cached(grid, int(denom), bool(strict))


def fourier_weight(grid: GridSpec, p: float, axis: str | None = None):
    """|xi_axis|^p for axis 'x' or 'y', or |xi|^p for axis=None.

    The one place lattice wavenumbers are raised to a power: the
    dissipation symbol, the seminorms and the inequality ratios all take
    their weights from here.  Directional weights have shape (nx, 1) or
    (1, ny) and broadcast against the lattice; p = 0 gives the scalar 1.0.
    """
    if axis == "x":
        base = np.abs(grid.xi1[:, None])
    elif axis == "y":
        base = np.abs(grid.xi2[None, :])
    elif axis is None:
        base = grid.xi_mod
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    if not (p >= 0.0 and np.isfinite(p)):
        raise ValueError(f"weight exponent must be finite and >= 0, got {p}")
    if p == 0.0:
        return 1.0
    return base ** p
