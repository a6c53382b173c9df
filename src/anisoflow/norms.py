"""Monitored norms and seminorms, and the per-sample record assembly.

Physical L^p norms use grid quadrature (spectrally accurate for smooth
periodic integrands) through lp_norms; every L^2-based seminorm is one
weight of parseval_sums on the quadrature-weighted coefficients, so the
two routes agree to roundoff.

Every temporary is the call's own, so the functions keep nothing between
calls, take no lock and may run on several threads at once.  lp_norms
holds one real array, |u|, squared in place for its powers.
parseval_sums walks the half lattice in blocks of nx/4 rows, so its
temporaries are fractions of a half lattice (one half lattice for a caller
that already holds its weights stacked over the lattice); record builds
the cutoff chi and its two split weights block by block inside that walk.
So record's transient peak is about one real field, which the sampler
thread adds to the stepping's own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .freqsplit import CutoffSpec
from .spectral import PhysicalField, SpectralField, fourier_weight
from .timestepper import SimState

_SUPPORTED_P = (1, 2, 4, np.inf)


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


def lp_norms(u: PhysicalField, ps) -> list[float]:
    """Quadrature L^p norms for each p in ps, from one |u|; p in {1, 2, 4, inf}.

    |u| is squared in place for p = 2 and again for p = 4, so the call
    holds one real array of its own.  Squaring also beats np.power(a, 4),
    which goes through libm pow: several times slower, slowest on
    underflowing tails.
    """
    for p in ps:
        if p not in _SUPPORTED_P:
            raise ValueError(f"unsupported p={p}; monitored set is {{1, 2, 4, inf}}")
    cell = u.grid.cell_area()
    a = np.abs(u.values)
    norms = {np.inf: float(a.max())} if np.inf in ps else {}
    power = 1
    for p in sorted({p for p in ps if p != np.inf}):
        while power < p:
            np.square(a, out=a)
            power *= 2
        norms[p] = float((np.sum(a) * cell) ** (1.0 / p))
    return [norms[p] for p in ps]


def parseval_sums(v: SpectralField, weights, block_weights=None) -> list[float]:
    """sqrt(sum(weight * |coeffs|^2) / (lx * ly)) over the full lattice for
    each weight: the L^2 norm of the multiplier weight^(1/2) applied to v,
    by Parseval.  The half lattice's columns enter with grid.column_weight.

    weights is a list, each of fourier_weight's shapes: a scalar, (nx, 1)
    along x, (1, ny//2 + 1) along y, or the half lattice; or one stacked
    array of K half lattices, shape (K, nx, ny//2 + 1).  block_weights, if
    given, maps a slice of rows to further weights over those rows only,
    whose sums follow those of weights; they are never built over the
    lattice.

    A list is taken in blocks of nx/4 rows.  Each block forms
    q = column_weight * |coeffs|^2 once and takes one dot product per
    weight, with no product array: the weight's rows against q, its x
    profile against q's row sums, its y profile against q's column sums,
    or the scalar times q's total.  A stack already holds every weight
    over the lattice, so it takes the whole half lattice as one block and
    all K sums as one matrix product against q.
    """
    g = v.grid
    stacked = isinstance(weights, np.ndarray)
    step = g.nx if stacked else max(1, g.nx // 4)
    sums = 0.0
    for start in range(0, g.nx, step):
        rows = slice(start, start + step)
        q = np.abs(v.coeffs[rows])
        np.square(q, out=q)
        q *= g.column_weight
        if stacked:
            block = list(weights.reshape(len(weights), -1) @ q.ravel())
        else:
            block = [_dot(w, q, rows) for w in weights]
        if block_weights is not None:
            block += [np.vdot(w, q) for w in block_weights(rows)]
        sums += np.array(block)
    return [float(x) for x in np.sqrt(sums / g.area())]


def _dot(w, q, rows) -> float:
    """sum(w * q) for the weight w, q being the rows `rows` of the half lattice."""
    if np.ndim(w) == 0:
        return w * q.sum()
    if w.shape[0] == 1:
        return q.sum(axis=0) @ w[0]
    if w.shape[1] == 1:
        return q.sum(axis=1) @ w[rows, 0]
    return np.vdot(w[rows], q)


def record(s: SimState, c: CutoffSpec, gammas: list[int]) -> NormSample:
    """Assemble the full NormSample for the state s.

    One |u| serves the four L^p norms and one walk of parseval_sums every
    Parseval sum: the H^gamma and dissipation seminorms, and ||uL||_2,
    ||uH||_2 of the low/high split as the weights chi^2 and (1 - chi)^2 of
    the cutoff chi = c.symbol(t, d), without building uL or uH.  chi and
    both split weights are built one block of rows at a time, within that
    walk.  u is the state's own field (SimState.physical), so a state whose
    field is already built costs no inverse transform here.
    """
    u, g, d = s.physical, s.u_hat.grid, s.dissipation
    weights = [fourier_weight(g, 2.0 * gamma) for gamma in gammas]
    weights += [fourier_weight(g, d.alpha1, "x"), fourier_weight(g, d.alpha2, "y")]
    l1, l2, l4, linf = lp_norms(u, _SUPPORTED_P)

    def split(rows):
        chi = c.symbol(s.t, d, rows)
        high = np.subtract(1.0, chi)
        return np.square(chi, out=chi), np.square(high, out=high)

    *hg, diss_x, diss_y, ul_l2, uh_l2 = parseval_sums(s.u_hat, weights, split)
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
