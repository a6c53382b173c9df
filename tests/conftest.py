import numpy as np
import pytest

from anisoflow import GridSpec, PhysicalField
from anisoflow.spectral import SpectralField

TWO_PI = 2.0 * np.pi


@pytest.fixture
def grid16():
    return GridSpec(16, 16, TWO_PI, TWO_PI)


@pytest.fixture
def grid32():
    return GridSpec(32, 32, TWO_PI, TWO_PI)


def keep_mask(grid: GridSpec, denom: int) -> np.ndarray:
    """Reference half-lattice mask of the alias-free band, |j_tilde| < nx/denom
    and k < ny/denom, built from the lattice indices alone and not from the
    package's band layout."""
    return (denom * np.abs(grid.jx) < grid.nx)[:, None] & (denom * grid.jy < grid.ny)[None, :]


def random_field(grid: GridSpec, seed: int, band_denom: int | None = None) -> PhysicalField:
    """Random real field, optionally truncated to an alias-free band."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((grid.nx, grid.ny))
    if band_denom is not None:
        c = np.fft.rfft2(values)
        values = np.fft.irfft2(np.where(keep_mask(grid, band_denom), c, 0.0),
                               s=values.shape)
    return PhysicalField(grid, values)


def cosine_field(grid: GridSpec, kx: int, ky: int, amplitude: float = 1.0) -> PhysicalField:
    phase = TWO_PI * (kx * grid.x[:, None] / grid.lx + ky * grid.y[None, :] / grid.ly)
    return PhysicalField(grid, amplitude * np.cos(phase))


def single_mode_spectrum(grid: GridSpec, kx: int, ky: int, amplitude: float = 1.0) -> SpectralField:
    """Half-lattice spectrum of amplitude*cos(...): of the two modes +-(kx, ky)
    it stores those with k in [0, ny/2], so both when k is 0 or Nyquist."""
    c = np.zeros((grid.nx, grid.ny // 2 + 1), dtype=complex)
    half = amplitude * grid.area() / 2.0
    for j, k in ((kx, ky), (-kx, -ky)):
        if k % grid.ny <= grid.ny // 2:
            c[j % grid.nx, k % grid.ny] += half
    return SpectralField(grid, c)


def spectral_energy(v: SpectralField) -> float:
    """sum(|coeffs|^2) / (lx * ly) over the full lattice, from the half one."""
    return float(np.sum(v.grid.column_weight * np.abs(v.coeffs) ** 2) / v.grid.area())
