"""Monitored norms and seminorms, and the per-sample record assembly.

Physical L^p norms use grid quadrature (spectrally accurate for smooth
periodic integrands) through lp_norms.  Every L^2-based seminorm is a
Parseval sum over a spectrum folded onto |j| once (folded_power), which
every weight here allows, since each is even in j: power_sums takes one
sum per weight against that folded power, so an L^2 norm taken by
Parseval agrees with lp_norms's to roundoff.  The sample's and the
corpus's Parseval sums take their column weights and their 1/(lx*ly)
here; the flux step's energy ledger applies its own.

Every temporary is the call's own, so the functions keep nothing between
calls, take no lock and may run on several threads at once.  lp_norms
holds one real array, |u|, squared in place for its powers.  record folds
the state's own band, and builds the cutoff chi and its two split weights
over the band's folded rows and columns only, about a quarter of a real
field each.  So record's transient peak is about one real field, which
the sampler thread adds to the stepping's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .freqsplit import CutoffSpec
from .spectral import BandLayout, GridSpec, PhysicalField, band_layout, fourier_weight
from .timestepper import SimState


@dataclass(frozen=True)
class NormSample:
    """All monitored quantities at one simulation time.

    ul_l2 and uh_l2 are ||chi*u||_2 and ||(1 - chi)*u||_2, the L^2 norms of
    the low and high parts u = uL + uH under the cutoff chi of
    CutoffSpec.symbol.

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
        if not (np.isfinite(self.t) and self.t >= 0.0):
            raise ValueError(f"norm sample time must be finite and >= 0, got {self.t}")
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


def lp_norms(u: PhysicalField) -> tuple[float, float, float, float]:
    """Quadrature (l1, l2, l4, linf) norms of u, from one |u|.

    linf is read first; |u| is then squared in place for l2 and again for
    l4, so the call holds one real array of its own.  Squaring also beats
    np.power(a, 4), which goes through libm pow: several times slower,
    slowest on underflowing tails.
    """
    cell = u.grid.cell_area()
    a = np.abs(u.values)
    linf = float(a.max())
    l1 = float(np.sum(a) * cell)
    np.square(a, out=a)
    l2 = float((np.sum(a) * cell) ** 0.5)
    np.square(a, out=a)
    l4 = float((np.sum(a) * cell) ** 0.25)
    return l1, l2, l4, linf


def folded_power(band: BandLayout, b: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """column_weight * |scale * b|^2 of the band array b, its rows j and -j
    summed onto row |j| (BandLayout.folded_abs2): a fresh array of shape
    (band.n_folded, band.ncols), the first rows and columns of the half
    lattice.  scale takes b to quadrature-weighted coefficients: 1 for a
    forward_transform's, lx * ly for the unscaled band spectrum that
    to_physical turns into the samples."""
    p = band.folded_abs2(b)
    p *= scale * scale * band.grid.column_weight[: band.ncols]
    return p


def power_sums(grid: GridSpec, power: np.ndarray, weights) -> list[float]:
    """sqrt(sum(w * power) / (lx * ly)) for each weight w of weights: by
    Parseval, the L^2 norm of the multiplier w^(1/2) applied to the field
    whose folded_power is power.

    Each weight is even in j and given over power's rows |j| and columns,
    as a scalar or an array that broadcasts to power.shape: the first rows
    and columns of a half-lattice weight, (n, 1) along x, (1, ncols) along
    y, or one entry of a stack of weights.  The weights are broadcast in one
    call, and each sum is one np.vdot against its weight made contiguous, a
    copy only if it is broadcast or strided, so its bits do not depend on
    how the weight is laid out."""
    area = grid.area()
    *weights, _ = np.broadcast_arrays(*weights, power)
    return [math.sqrt(np.vdot(np.ascontiguousarray(w), power) / area) for w in weights]


def record(s: SimState, c: CutoffSpec, gammas: list[int]) -> NormSample:
    """Assemble the full NormSample for the state s.

    One |u| serves the four L^p norms, and one folded_power every Parseval
    sum: the H^gamma and dissipation seminorms, and ||uL||_2, ||uH||_2 of
    the low/high split as the weights chi^2 and (1 - chi)^2 of the cutoff
    chi, without building uL or uH.  The power is folded from the state's
    own band: a flux-free state's half lattice, in place, or the alias-free
    band that a flux state is zero outside, gathered.  Every weight is taken
    over the band's folded rows and columns only.  u is the state's own
    field (SimState.physical), so a state whose field is already built
    costs no inverse transform here.
    """
    u, g, d = s.physical, s.grid, s.dissipation
    l1, l2, l4, linf = lp_norms(u)
    if s.flux is None:
        band, b = band_layout(g, 1), s.u_hat.coeffs
    else:
        band = band_layout(g, s.flux.dealias_denom)
        b = band.gather(s.u_hat.coeffs)
    power = folded_power(band, b)
    n, k = power.shape
    weights = [fourier_weight(g, 2.0 * gamma)[:n, :k] for gamma in gammas]
    weights += [fourier_weight(g, d.alpha1, "x")[:n], fourier_weight(g, d.alpha2, "y")[:, :k]]
    chi = c.symbol(s.t, d.symbol[:n, :k])
    high = np.subtract(1.0, chi)
    weights += [np.square(chi, out=chi), np.square(high, out=high)]
    *hg, diss_x, diss_y, ul_l2, uh_l2 = power_sums(g, power, weights)
    return NormSample(
        t=s.t,
        l1=l1,
        l2=l2,
        l4=l4,
        linf=linf,
        hgamma=dict(zip(gammas, hg)),
        diss_x=diss_x,
        diss_y=diss_y,
        ul_l2=ul_l2,
        uh_l2=uh_l2,
        ledger=s.ledger,
    )
