"""Monitored norms and seminorms, and the per-sample record assembly.

Physical L^p norms use grid quadrature (spectrally accurate for smooth
periodic integrands) through lp_norms; every L^2-based seminorm is one
weight of parseval_sums on the quadrature-weighted coefficients, so the
two routes agree to roundoff.

Both primitives, and record, build their temporaries (|u| and its powers,
|coeffs|^2, each weighted product and its column sums, chi and the
(1 - chi)^2 weight) in the grid's Workspace, one per grid for the process,
and hold its lock while they do: at 512^2 each temporary is 1-2 MB, and
allocating them per call raised record's transient peak from about 0.3 to
4 real fields, which the sampler thread adds to the stepping's own.  They
return floats, so nothing they return aliases the workspace.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .freqsplit import CutoffSpec
from .spectral import GridSpec, PhysicalField, SpectralField, fourier_weight
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


class Workspace:
    """Scratch arrays of one grid for lp_norms, parseval_sums and record,
    and the reentrant lock a call holds while it uses them.

    The real arrays and the half-lattice ones are views of one flat array
    of 4 half lattices (about 2*nx*ny floats), so they overlap: abs_u and
    power are used only inside lp_norms, and abs2, product, weight and chi,
    which are disjoint, only outside it.

    abs_u, power : (nx, ny)
        |u| and one power of it (lp_norms).
    abs2, product : half lattice, real
        |coeffs|^2 and one weight times it (parseval_sums).
    weight, chi : half lattice, real
        The cutoff chi and the weight (1 - chi)^2 of the high part (record).
    columns : (ny//2 + 1,)
        The column sums of product (parseval_sums).
    """

    def __init__(self, grid: GridSpec):
        real, half = (grid.nx, grid.ny), (grid.nx, grid.ny // 2 + 1)
        n_real, n_half = grid.nx * grid.ny, grid.nx * half[1]
        flat = np.empty(4 * n_half)  # holds the 2 real arrays
        self.abs_u, self.power = (flat[i * n_real: (i + 1) * n_real].reshape(real)
                                  for i in range(2))
        self.abs2, self.product, self.weight, self.chi = (
            flat[i * n_half: (i + 1) * n_half].reshape(half) for i in range(4))
        self.columns = np.empty(half[1])
        # reentrant: record holds it across its own lp_norms and parseval_sums
        self.lock = threading.RLock()


@lru_cache(maxsize=4)
def workspace(grid: GridSpec) -> Workspace:
    """The Workspace of grid, built on first use; the least recently used
    of more than 4 grids is dropped."""
    return Workspace(grid)


def lp_norms(u: PhysicalField, ps) -> list[float]:
    """Quadrature L^p norms for each p in ps, from one |u|; p in {1, 2, 4, inf}."""
    for p in ps:
        if p not in _SUPPORTED_P:
            raise ValueError(f"unsupported p={p}; monitored set is {{1, 2, 4, inf}}")
    ws = workspace(u.grid)
    cell = u.grid.cell_area()
    norms = []
    with ws.lock:
        a = np.abs(u.values, out=ws.abs_u)
        for p in ps:
            if p == np.inf:
                norms.append(float(a.max()))
                continue
            # |u|^4 as the square of |u|^2: np.power(a, 4) goes through libm
            # pow, several times slower, slowest on underflowing tails
            ap = a if p == 1 else np.square(a, out=ws.power)
            if p == 4:
                np.square(ap, out=ap)
            norms.append(float((np.sum(ap) * cell) ** (1.0 / p)))
    return norms


def parseval_sums(v: SpectralField, weights) -> list[float]:
    """sqrt(sum(weight * |coeffs|^2) / (lx * ly)) over the full lattice for
    each weight, from one |coeffs|^2: the L^2 norm of the multiplier
    weight^(1/2) applied to v, by Parseval.  The half lattice's columns
    enter with grid.column_weight."""
    g = v.grid
    ws = workspace(g)
    sums = []
    with ws.lock:
        abs2 = np.square(np.abs(v.coeffs, out=ws.abs2), out=ws.abs2)
        for w in weights:
            if np.shape(w) != abs2.shape:
                # spread first: with a broadcast operand and out=, np.multiply
                # allocates a buffer of about 65 kB (numpy 2.4), which at 128^2
                # is half a real field
                np.copyto(ws.product, w)
                w = ws.product
            columns = np.sum(np.multiply(w, abs2, out=ws.product), axis=0, out=ws.columns)
            sums.append(float(np.sqrt(np.dot(columns, g.column_weight) / g.area())))
    return sums


def record(s: SimState, c: CutoffSpec, gammas: list[int]) -> NormSample:
    """Assemble the full NormSample for the state s.

    One |u| serves the four L^p norms and one |u_hat|^2 every Parseval sum:
    the H^gamma and dissipation seminorms, and ||uL||_2, ||uH||_2 of the
    low/high split as the weights chi^2 and (1 - chi)^2 of the cutoff
    chi = c.symbol(t, d), without building uL or uH.  u is the state's own
    field (SimState.physical), so a state whose field is already built
    costs no inverse transform here.  chi and both split weights are built
    in the workspace, under its lock: chi^2 over chi, (1 - chi)^2 beside it.
    """
    u, g, d = s.physical, s.u_hat.grid, s.dissipation
    ws = workspace(g)
    weights = [fourier_weight(g, 2.0 * gamma) for gamma in gammas]
    weights += [fourier_weight(g, d.alpha1, "x"), fourier_weight(g, d.alpha2, "y")]
    with ws.lock:
        l1, l2, l4, linf = lp_norms(u, _SUPPORTED_P)
        chi = c.symbol(s.t, d, out=ws.chi)
        high = np.subtract(1.0, chi, out=ws.weight)
        weights += [np.square(chi, out=chi), np.square(high, out=high)]
        *hg, diss_x, diss_y, ul_l2, uh_l2 = parseval_sums(s.u_hat, weights)
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
