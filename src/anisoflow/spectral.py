"""Periodic grid, discrete Fourier transform conventions, Fourier weights
and the alias-free band as a compact layout.

Every field is real, so a spectrum is stored on the half lattice of
numpy.fft.rfft2, shape (nx, ny//2 + 1): the coefficient at -xi is the
conjugate of the one at xi and is not kept.  The transform pair
approximates the continuous Fourier transform on a periodic box: forward
coefficients carry the dx*dy quadrature weight, so |coeffs(xi)| <= ||u||_L1
holds discretely and Parseval reads

    sum(|u|^2) * dx * dy == sum(column_weight * |coeffs|^2) / (lx * ly),

where column_weight counts each stored column k > 0 twice, for itself and
its mirror -k, and the self-conjugate columns k = 0 and k = ny/2 once.

Wavenumbers along x follow the signed FFT layout: xi1[j] = 2*pi*j_tilde/lx
with j_tilde in [-nx/2, nx/2).  Along y only k = 0 .. ny/2 is stored:
xi2[k] = 2*pi*k/ly >= 0.

The flux step only ever holds modes inside the alias-free band, so it works
on band arrays (band_layout): the retained rows and columns of the half
lattice packed into one smaller array, gathered from and scattered back to
the half lattice once per step.  The layout is the one owner of the band's
row order: truncation to the band, the fold onto |j| that the energy
ledger sums over, the flux's transform pair, which runs its x-transforms
on the band's columns only, and the inequality lab's corpus, which
synthesizes its band-limited fields on a BandLayout of its own band, all
go through it.

Every transform runs on numpy.fft's pocketfft, single-threaded, and gives
the bits of scipy.fft's rfft2 and irfft2; the tests hold it to that.  The
one inverse kernel is to_physical, unscaled: inverse_transform runs it on
band_layout(grid, 1), the whole half lattice, then scales by 1/(nx*ny),
scipy's single factor, and 1/cell_area.  A flux state, which SimState
keeps on its band, builds its field with to_physical and one scaling by
1/(lx*ly) (SimState.physical), which agrees with inverse_transform to
rounding, and the flux folds that scaling into the scalar of its result.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


def _set_malloc_policy() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB,
    and cap its arenas at one, once for the process; a C library without
    mallopt is left as it is.

    Each state brings fresh arrays of about 2 MB at 512^2: its new
    coefficients, the irfft2 output and pocketfft's temporaries.  glibc
    moves both thresholds as blocks are freed, and while they sit below
    those sizes every such array is mapped afresh, or the heap is trimmed
    under it, and its pages fault in again, tens of thousands of times per
    run.  Where they sat depended on what the process happened to free
    first, so import order alone could decide it.  32 MiB is glibc's
    ceiling for the mmap threshold on 64-bit.  Setting either threshold
    stops glibc adjusting both, and the trim threshold would then stay at
    its 128 KiB default, so both are set.  A thread that allocates, the
    corpus pool's or run_simulation's sampler, would otherwise get an arena
    of its own, whose blocks the other threads never reuse, so each array
    would fault its pages in again wherever it is next allocated; with one
    arena every thread draws on the one heap these thresholds keep.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-8, 1)  # M_ARENA_MAX


_set_malloc_policy()

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
        """Integer mode indices 0 .. ny/2 of the stored half lattice along y."""
        return _readonly(np.arange(self.ny // 2 + 1))

    @cached_property
    def xi1(self) -> np.ndarray:
        """Wavenumbers 2*pi*j_tilde/lx along x, shape (nx,)."""
        return _readonly(2.0 * np.pi * self.jx / self.lx)

    @cached_property
    def xi2(self) -> np.ndarray:
        """Wavenumbers 2*pi*k/ly >= 0 along y, shape (ny//2 + 1,)."""
        return _readonly(2.0 * np.pi * self.jy / self.ly)

    def mesh_xi(self) -> tuple[np.ndarray, np.ndarray]:
        """Broadcastable wavenumber arrays, shapes (nx, 1) and (1, ny//2 + 1)."""
        return self.xi1[:, None], self.xi2[None, :]

    @cached_property
    def xi_mod(self) -> np.ndarray:
        """|xi| over the half lattice, shape (nx, ny//2 + 1)."""
        x1, x2 = self.mesh_xi()
        return _readonly(np.sqrt(x1 * x1 + x2 * x2))

    @cached_property
    def column_weight(self) -> np.ndarray:
        """How many lattice columns each stored column stands for, shape
        (ny//2 + 1,): 1 for the self-conjugate k = 0 and Nyquist columns,
        2 for every other k, which also stands for its mirror -k."""
        w = np.full(self.ny // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return _readonly(w)

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
    """Complex Fourier coefficients of a real field on the half lattice.

    coeffs[j, k] = dx*dy * sum_xy u(x, y) * exp(-i*(xi1[j]*x + xi2[k]*y))
    for k = 0 .. ny/2; the modes k < 0 are implied by coeffs(-xi) = conj(coeffs(xi)).
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        half = (self.grid.nx, self.grid.ny // 2 + 1)
        if c.shape != half:
            raise ValueError(f"coeffs shape {c.shape} does not match the half lattice {half}")
        object.__setattr__(self, "coeffs", c)


def make_grid(nx: int, ny: int, lx: float, ly: float) -> GridSpec:
    """Validate and build the periodic grid."""
    return GridSpec(nx=int(nx), ny=int(ny), lx=float(lx), ly=float(ly))


def _rfft2(values: np.ndarray, ncols: int) -> np.ndarray:
    """Fresh half lattice whose first ncols columns are those of
    rfft2(values); the x-transform skips the columns after them, which
    hold only the y-transform."""
    c = np.fft.rfft(values, axis=1)
    block = c[:, :ncols]
    np.fft.fft(block, axis=0, out=block)
    return c


def forward_transform(u: PhysicalField) -> SpectralField:
    """Physical samples -> quadrature-weighted Fourier coefficients."""
    if not np.all(np.isfinite(u.values)):
        raise ValueError("physical field contains nonfinite values")
    g = u.grid
    coeffs = _rfft2(u.values, g.ny // 2 + 1)
    coeffs *= g.cell_area()
    return SpectralField(g, coeffs)


def inverse_transform(v: SpectralField) -> PhysicalField:
    """Half-lattice Fourier coefficients -> real samples: the unscaled band
    inverse on the whole half lattice, then 1/(nx*ny) and 1/cell_area."""
    g = v.grid
    values = band_layout(g, 1).to_physical(v.coeffs)
    values *= 1.0 / (g.nx * g.ny)
    values /= g.cell_area()
    return PhysicalField(g, values)


@dataclass(frozen=True)
class BandLayout:
    """A band of the half lattice, stored compactly: the alias-free band
    of one (grid, denom) from band_layout, or the corpus band of ineq.

    The retained rows of the half lattice are its first n_pos rows (j >= 0)
    and its last n_neg rows (j < 0); the retained columns are its first
    ncols.  A band array stacks those rows, j >= 0 first, into shape
    (n_pos + n_neg, ncols), so its last n_neg rows are the j < 0 ones in
    lattice order.  For denom = 1 every mode is kept and a band array is
    the half lattice itself.
    """

    grid: GridSpec
    n_pos: int
    n_neg: int
    ncols: int

    @property
    def n_folded(self) -> int:
        """Rows |j| = 0 .. n_folded - 1 of the band folded onto |j|; for
        denom = 1 the last is the Nyquist row |j| = nx/2."""
        return max(self.n_pos, self.n_neg + 1)

    @cached_property
    def ixi(self) -> np.ndarray:
        """The flux-divergence multiplier i*(xi1 + xi2) on the band, read-only."""
        xi1, xi2 = self.grid.mesh_xi()
        return _readonly(self.gather(1j * (xi1 + xi2)))

    def gather(self, a: np.ndarray) -> np.ndarray:
        """Half-lattice array -> fresh band array."""
        out = np.empty((self.n_pos + self.n_neg, self.ncols), dtype=a.dtype)
        out[: self.n_pos] = a[: self.n_pos, : self.ncols]
        out[self.n_pos:] = a[self.grid.nx - self.n_neg:, : self.ncols]
        return out

    def scatter(self, b: np.ndarray) -> np.ndarray:
        """Band array -> fresh half-lattice array, zero outside the band.
        Each entry is written once, in row order."""
        tail = self.grid.nx - self.n_neg
        out = np.empty((self.grid.nx, self.grid.ny // 2 + 1), dtype=b.dtype)
        out[: self.n_pos, : self.ncols] = b[: self.n_pos]
        out[: self.n_pos, self.ncols:] = 0.0
        out[self.n_pos: tail] = 0.0
        out[tail:, : self.ncols] = b[self.n_pos:]
        out[tail:, self.ncols:] = 0.0
        return out

    def to_physical(self, b: np.ndarray) -> np.ndarray:
        """nx*ny * irfft2(scatter(b)) for a complex band array b, the
        inverse transform with no scaling, as fresh real samples; the
        caller applies its own.  Only the band's columns are transformed
        along x, in place in the scattered half lattice, whose full width
        the y-transform then reads without padding a copy."""
        c = self.scatter(b)
        block = c[:, : self.ncols]
        np.fft.ifft(block, axis=0, norm="forward", out=block)
        return np.fft.irfft(c, n=self.grid.ny, axis=1, norm="forward")

    def from_physical(self, w: np.ndarray) -> np.ndarray:
        """gather(rfft2(w)) for real samples w, as a fresh band array; only
        the band's columns are transformed along x."""
        return self.gather(_rfft2(w, self.ncols))

    def holds(self, a: np.ndarray) -> bool:
        """Whether the half-lattice array a is exactly zero outside the band,
        so that scatter(gather(a)) equals a."""
        tail = self.grid.nx - self.n_neg
        return not (np.any(a[self.n_pos: tail]) or np.any(a[: self.n_pos, self.ncols:])
                    or np.any(a[tail:, self.ncols:]))

    def folded_abs2(self, b: np.ndarray) -> np.ndarray:
        """|b|^2 of a band array with rows j and -j summed onto row |j|,
        shape (n_folded, ncols): the first n_folded rows and ncols columns
        of the half lattice, where an array even in j is fully known."""
        n = self.n_folded
        out = _abs2(b[:n])
        # the rows after the first n_folded are j < 0 in lattice order, whose
        # |j| runs from the last band row down; for denom = 1 the Nyquist
        # row j = -nx/2 is row n_pos of b and already in place
        neg = b[n:]
        out[1: len(neg) + 1] += _abs2(neg[::-1])
        return out


def _abs2(b: np.ndarray) -> np.ndarray:
    """|b|^2 = re^2 + im^2 of a complex array, as a fresh real array."""
    out = np.square(b.real)
    out += np.square(b.imag)
    return out


@lru_cache(maxsize=32)
def band_layout(grid: GridSpec, denom: int) -> BandLayout:
    """The alias-free band |j_tilde| < nx/denom, k < ny/denom as a
    BandLayout, built once per (grid, denom).

    Integer arithmetic, so the band edge is exact.  The edge mode is dropped
    when denom divides the grid size, which keeps degree-(denom-1) products
    alias-free on every grid.
    """
    keep_x = denom * np.abs(grid.jx) < grid.nx
    n_pos, n_neg = (int(np.count_nonzero(h)) for h in np.split(keep_x, 2))
    return BandLayout(grid, n_pos, n_neg, int(np.count_nonzero(denom * grid.jy < grid.ny)))


@lru_cache(maxsize=32)
def _fourier_weight_cached(grid: GridSpec, p: float, axis: str | None) -> np.ndarray:
    if axis == "x":
        base = np.abs(grid.xi1[:, None])
    elif axis == "y":
        base = np.abs(grid.xi2[None, :])
    else:
        base = grid.xi_mod
    return _readonly(base ** p)


def fourier_weight(grid: GridSpec, p: float, axis: str | None = None):
    """|xi_axis|^p for axis 'x' or 'y', or |xi|^p for axis=None.

    The one place lattice wavenumbers are raised to a power: the
    dissipation symbol, the seminorms and the inequality ratios all take
    their weights from here.  Directional weights have shape (nx, 1) or
    (1, ny//2 + 1) and broadcast against the half lattice; p = 0 gives the
    scalar 1.0.  Each weight is built once per (grid, p, axis) and returned
    read-only.
    """
    if axis not in ("x", "y", None):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    if not (p >= 0.0 and np.isfinite(p)):
        raise ValueError(f"weight exponent must be finite and >= 0, got {p}")
    if p == 0.0:
        return 1.0
    return _fourier_weight_cached(grid, float(p), axis)
