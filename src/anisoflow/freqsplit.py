"""Smooth time-frequency cutoff of the low/high decomposition u = uL + uH.

The cutoff symbol is chi = chi0(mu^-1 * (1+t) * m(xi)), with uL = chi*u and
uH = (1 - chi)*u: its support shrinks toward the origin as t grows, so uL
captures the algebraically decaying low-frequency core and uH the
exponentially suppressed remainder.  norms.record takes both L^2 norms by
Parseval from the weights chi^2 and (1 - chi)^2, which it builds one block
of rows at a time (CutoffSpec.symbol's rows); neither part is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import DissipationSpec


def chi0(s):
    """C-infinity bump profile: 1 on [0, 1], 0 on [2, inf), bridged between.

    The bridge is the standard partition-of-unity quotient
    phi(2-s) / (phi(2-s) + phi(s-1)) with phi(t) = exp(-1/t) for t > 0,
    so endpoint values are exact and all derivatives vanish there.
    Accepts scalars or arrays; monotonically nonincreasing.  Only the
    bridge 1 < s < 2 needs phi: both its arguments are positive there, and
    the quotient is exactly 1 or 0 off it.  The result is a fresh array.
    """
    s_arr = np.asarray(s, dtype=np.float64)
    if np.any(s_arr < 0.0):
        raise ValueError("chi0 argument must be >= 0")
    bridge = s_arr > 1.0
    bridge &= s_arr < 2.0
    # a = phi(2 - s) and b = phi(s - 1) on the bridge, each computed in
    # place in one array; b then becomes a + b
    b = s_arr[bridge]
    a = np.subtract(2.0, b)
    b -= 1.0
    for x in (a, b):
        np.exp(np.divide(-1.0, x, out=x), out=x)
    b += a
    out = np.ones_like(s_arr)
    out[s_arr >= 2.0] = 0.0
    out[bridge] = np.divide(a, b, out=a)
    if np.ndim(s) == 0:
        return float(out)
    return out


def default_mu(alpha1: float, alpha2: float) -> float:
    """Generous cutoff constant 4*(1/alpha1 + 1/alpha2 + 1).

    Comfortably above twice any decay exponent measured here, and large
    enough that the split is nontrivial at t=0 on desk-scale grids.
    """
    return 4.0 * (1.0 / alpha1 + 1.0 / alpha2 + 1.0)


@dataclass(frozen=True)
class CutoffSpec:
    """Scaling constant mu for the cutoff argument mu^-1 * (1+t) * m(xi)."""

    mu: float

    def __post_init__(self):
        if not (self.mu > 0.0 and np.isfinite(self.mu)):
            raise ValueError(f"mu must be positive and finite, got {self.mu}")

    def symbol(self, t: float, d: DissipationSpec, rows=slice(None)) -> np.ndarray:
        """Cutoff multiplier chi0(mu^-1*(1+t)*m) over the given rows of the
        half lattice, all of them by default; a fresh array."""
        return chi0(np.multiply((1.0 + t) / self.mu, d.symbol[rows]))
