"""Power-law fits of norm histories and the theory-vs-measurement audits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .norms import NormSample

#: Denominator floor for the energy residual; makes 0/0 read as 0.
RESIDUAL_EPS = 1e-300

_AUDITED = ("l1", "l2", "l4", "linf")


@dataclass(frozen=True)
class DecayFit:
    """Fitted slope of log(value) against log(1+t) on a time window."""

    quantity: str
    window: tuple[float, float]
    exponent: float
    r_squared: float
    theoretical: float
    deviation: float

    def __post_init__(self):
        if not self.window[0] < self.window[1]:
            raise ValueError(f"empty fit window {self.window}")
        if not (0.0 <= self.r_squared <= 1.0):
            raise ValueError(f"r_squared out of [0, 1]: {self.r_squared}")


@dataclass(frozen=True)
class MaxPrincipleReport:
    passed: bool
    worst_violation: float
    time: float
    quantity: str


@dataclass(frozen=True)
class EnergyReport:
    """Energy-identity residuals over adjacent sample pairs.

    max_relative_residual and time are the worst trapezoid residual and the
    end time of its pair.  pair_times holds (t_a, t_b) per pair, residuals
    the trapezoid residual per pair, and ledger_residuals the in-step
    ledger residual per pair, or None when a sample carries no ledger.
    """

    max_relative_residual: float
    time: float
    pair_times: tuple[tuple[float, float], ...]
    residuals: tuple[float, ...]
    ledger_residuals: tuple[float, ...] | None


def theoretical_exponent(
    alphas: Sequence[float], space: str = "l2", gamma: int | None = None
) -> float:
    """Predicted algebraic decay exponent for n-dimensional anisotropy.

    space="l2":      -1/2 * sum(1/alpha_i)
    space="hgamma":  the L2 exponent minus (1/2)*((2*gamma + min)/max - 1)
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("alphas must be nonempty")
    for a in alphas:
        if not (1.0 < a <= 2.0):
            raise ValueError(f"every alpha must lie in (1, 2], got {a}")
    base = -0.5 * sum(1.0 / a for a in alphas)
    if space == "l2":
        return base
    if space == "hgamma":
        if gamma is None or int(gamma) != gamma or gamma < 1:
            raise ValueError(f"hgamma requires an integer gamma >= 1, got {gamma}")
        hi, lo = max(alphas), min(alphas)
        return base - 0.5 * ((2.0 * gamma + lo) / hi - 1.0)
    raise ValueError(f"space must be 'l2' or 'hgamma', got {space!r}")


def fit_power_law(
    series: Iterable[tuple[float, float]],
    window: tuple[float, float],
    quantity: str = "",
    theoretical: float = np.nan,
) -> DecayFit:
    """Least-squares slope of log(value) vs log(1+t) inside the window.

    The (1+t) abscissa matches the normal form of algebraic decay and
    keeps early times from dominating.  Requires >= 8 positive samples.
    """
    t_lo, t_hi = window
    pts = [(float(t), float(v)) for t, v in series if t_lo <= t <= t_hi]
    if len(pts) < 8:
        raise ValueError(
            f"need at least 8 samples in window [{t_lo}, {t_hi}], found {len(pts)}"
        )
    t = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    if np.any(v <= 0.0):
        raise ValueError(
            "nonpositive values in fit window (decayed to roundoff?); shrink the window"
        )
    x, y = np.log1p(t), np.log(v)
    if x.max() == x.min():
        raise ValueError(f"all sample times in window [{t_lo}, {t_hi}] are identical")
    # the formulas of scipy's linregress, so slope and r match it bit for bit
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=True).flat
    slope = float(ssxym / ssxm)
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0.0 else 0.0
    else:
        r = ssxym / np.sqrt(ssxm * ssym)
    r2 = min(max(r ** 2, 0.0), 1.0)
    return DecayFit(
        quantity=quantity,
        window=(t_lo, t_hi),
        exponent=slope,
        r_squared=float(r2),
        theoretical=float(theoretical),
        deviation=abs(slope - float(theoretical)),
    )


def max_principle_audit(series: Sequence[NormSample], tol: float) -> MaxPrincipleReport:
    """Check each monitored L^p history is nonincreasing within (1+tol)."""
    if not series:
        raise ValueError("max principle audit needs a nonempty series")
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"max principle tol must be finite and >= 0, got {tol}")
    worst = 0.0
    worst_t = series[0].t
    worst_q = ""
    for name in _AUDITED:
        vals = [getattr(s, name) for s in series]
        for k in range(len(vals) - 1):
            prev, nxt = vals[k], vals[k + 1]
            if prev == 0.0:
                uptick = np.inf if nxt > 0.0 else 0.0
            else:
                uptick = nxt / prev - 1.0
            if uptick > worst:
                worst = uptick
                worst_t = series[k + 1].t
                worst_q = name
    return MaxPrincipleReport(
        passed=bool(worst <= tol),
        worst_violation=float(worst),
        time=float(worst_t),
        quantity=worst_q,
    )


def energy_audit(series: Sequence[NormSample]) -> EnergyReport:
    """Residuals of the discrete energy identity over adjacent sample pairs.

    Trapezoid residual: |0.5*d(l2^2) + trapezoid(diss_x^2 + diss_y^2)|
    divided by the pair's trapezoid (floored).  It shrinks ~quadratically
    with the sampling interval only once the sampling resolves the
    dissipation rate; across a transient faster than the sampling it
    measures the trapezoid rule, not the solver.

    Ledger residual: |0.5*d(l2^2) + d(ledger)| / d(ledger) (floored), where
    the ledger integrates the dissipation inside every time step, so it
    measures the solver's own energy error.  Reported only when every
    sample carries a ledger.
    """
    if len(series) < 2:
        raise ValueError("energy audit needs at least 2 samples")
    with_ledger = all(s.ledger is not None for s in series)
    pairs, residuals, ledger_residuals = [], [], []
    for a, b in zip(series, series[1:]):
        half_drop = 0.5 * (b.l2 ** 2 - a.l2 ** 2)
        d_a = a.diss_x ** 2 + a.diss_y ** 2
        d_b = b.diss_x ** 2 + b.diss_y ** 2
        trap = 0.5 * (b.t - a.t) * (d_a + d_b)
        pairs.append((float(a.t), float(b.t)))
        residuals.append(float(abs(half_drop + trap) / max(trap, RESIDUAL_EPS)))
        if with_ledger:
            spent = b.ledger - a.ledger
            ledger_residuals.append(float(abs(half_drop + spent) / max(spent, RESIDUAL_EPS)))
    worst = int(np.argmax(residuals))
    return EnergyReport(
        max_relative_residual=residuals[worst],
        time=pairs[worst][1] if residuals[worst] > 0.0 else float(series[0].t),
        pair_times=tuple(pairs),
        residuals=tuple(residuals),
        ledger_residuals=tuple(ledger_residuals) if with_ledger else None,
    )
