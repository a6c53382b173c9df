"""Time integration: integrating-factor RK4 over the stiff multiplier.

The linear flow exp(-t*m(xi)) is applied exactly each step, so only the
nonlinear flux limits the step size and the linear semigroup doubles as
an oracle for the stepper.  The step's factors that depend only on the
symbol and dt (the exponentials and the ledger weights) are kept for the
last (dissipation, dt) stepped, read-only, so a run whose steps share one
dt builds them once; nothing else is kept between steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import factorial

import numpy as np

from .errors import BlowUpError
from .operators import DissipationSpec, FluxSpec, nonlinear_coeffs
from .spectral import GridSpec, PhysicalField, SpectralField, band_layout, inverse_transform

#: Amplitude floor in the CFL denominator; keeps dt finite on a zero field.
CFL_AMPLITUDE_FLOOR = 1e-8

#: Below this z = 2*m*dt the fitted ledger weights come from their Taylor
#: series; the closed forms lose digits to cancellation there.  At the
#: switch both are within 1.1e-13 of the exact weights, and past it the
#: 12-term series falls behind the closed forms.
_Z_SERIES = 0.5
#: Above this z the fitted weights grow like e^z/z and would amplify stage
#: roundoff; such modes are driven by the flux rather than by free decay and
#: take the bounded rule exact for 1, s and exp(-2*m*s) instead.
_Z_FIT = 6.0
_N_SERIES = 12
# P2(z) = z/2 * f(z) and P0(z) = z/2 * f(-z), f(z) = sum (1-n) z^n / (n! (n+1)(n+2)(n+3))
_F_SERIES = [(1 - n) / (factorial(n) * (n + 1) * (n + 2) * (n + 3)) for n in range(_N_SERIES)]
# P1(z) = w * g(w^2) with w = z/2, g(x) = sum_{j>=1} 4j x^(j-1) / (2j+1)!
_G_SERIES = [4 * j / factorial(2 * j + 1) for j in range(1, _N_SERIES // 2 + 1)]


@dataclass(frozen=True)
class SimState:
    """One time level of the semi-discrete system u_hat' = -m*u_hat - N(u).

    flux=None disables the nonlinearity (pure multiplier decay).
    u_hat holds the half lattice of a real field (see SpectralField); t is
    nondecreasing across steps.  ledger is the in-step energy ledger: the
    time integral of the dissipation sum(m*|u_hat|^2)/(lx*ly) over the full
    lattice, accumulated by step_ifrk4 since the state was built, so that
    0.5*||u||^2 + ledger stays constant along exact solutions.

    With the flux on, u_hat is exactly zero outside the flux's alias-free
    band (band_layout(grid, flux.dealias_denom)), the spectrum the solver
    evolves.  Construction replaces a spectrum that the band does not hold
    (BandLayout.holds) by its truncation, after checking that it is finite,
    and raises ValueError on a NaN or inf; a held spectrum, as every state
    from step_ifrk4 has, is kept as the same object.

    The real samples of u_hat are built once per state (physical) and
    shared by everything that reads them: the CFL bound, stage 1 of the
    next flux step, record and checkpoint_write.
    """

    t: float
    u_hat: SpectralField
    dissipation: DissipationSpec
    flux: FluxSpec | None
    ledger: float = 0.0
    # (u_hat, its real samples) once physical has built them; replace()
    # carries the pair, which is reused only while u_hat is that object
    _physical: tuple[SpectralField, PhysicalField] | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (self.t >= 0.0 and np.isfinite(self.t)):
            raise ValueError(f"t must be finite and >= 0, got {self.t}")
        if not (self.ledger >= 0.0 and np.isfinite(self.ledger)):
            raise ValueError(f"ledger must be finite and >= 0, got {self.ledger}")
        if self.u_hat.grid != self.dissipation.grid:
            raise ValueError("state and dissipation symbol live on different grids")
        if self.flux is not None:
            band = band_layout(self.grid, self.flux.dealias_denom)
            coeffs = self.u_hat.coeffs
            # holds reads a NaN as nonzero, so every NaN outside the band
            # reaches the finiteness check
            if not band.holds(coeffs):
                if not np.all(np.isfinite(coeffs)):
                    raise ValueError("flux state spectrum contains nonfinite values")
                object.__setattr__(self, "u_hat", SpectralField(
                    self.grid, band.scatter(band.gather(coeffs))))

    @property
    def grid(self) -> GridSpec:
        return self.u_hat.grid

    @property
    def physical(self) -> PhysicalField:
        """The real samples of u_hat, built on first use and kept, read-only.

        A flux state builds them from its band, band.to_physical(band.gather(
        u_hat)) times 1/(lx*ly) in one pass, the field the flux itself builds
        from a band array, which stage 1 of the next flux step powers; this
        agrees with inverse_transform(u_hat), which scales by 1/(nx*ny) and
        1/cell_area in turn, to rounding.  A flux-free state takes
        inverse_transform(u_hat).
        """
        kept = self._physical
        if kept is None or kept[0] is not self.u_hat:
            if self.flux is None:
                u = inverse_transform(self.u_hat)
            else:
                band = band_layout(self.grid, self.flux.dealias_denom)
                values = band.to_physical(band.gather(self.u_hat.coeffs))
                values *= 1.0 / self.grid.area()
                u = PhysicalField(self.grid, values)
            u.values.flags.writeable = False
            kept = (self.u_hat, u)
            object.__setattr__(self, "_physical", kept)
        return kept[1]


def linear_exact(u0_hat: SpectralField, d: DissipationSpec, t: float) -> SpectralField:
    """Exact multiplier semigroup: coefficients scaled by exp(-t*m(xi))."""
    if not (t >= 0.0 and np.isfinite(t)):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if u0_hat.grid != d.grid:
        raise ValueError("field and dissipation symbol live on different grids")
    return SpectralField(u0_hat.grid, u0_hat.coeffs * np.exp(-t * d.symbol))


# an overflow and its NaNs are reported once, by the check of the result
@np.errstate(over="ignore", invalid="ignore")
def step_ifrk4(s: SimState, dt: float) -> SimState:
    """Advance one step of classical RK4 on the integrating-factor variable.

    Exact on the linear part for any dt.  The factors exp(-dt*m) and the
    ledger weights come from _step_factors, which builds them only when dt
    or the dissipation differs from the last step's; the step only reads
    them.  With the flux enabled the step works on the alias-free band
    only (band_layout): the state is gathered onto it once, every stage
    lives there, and the result is scattered back with everything outside
    the band zeroed, as SimState keeps every flux state.  Stage 1 takes
    the flux of the state's own field (SimState.physical), built from the
    band.  A nonfinite value in the input state, or in the result or
    ledger after the four stages, raises BlowUpError carrying the time the
    step was aiming for; an overflow inside a stage reaches the result, as
    an inf or NaN in the flux makes every mode of its transform nonfinite.
    The step's dissipation integral, over the retained band, is added to
    the ledger (see _ledger_weights); it only reads the stage arrays, so
    u_hat does not depend on it.
    """
    if not (dt > 0.0 and np.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    grid = s.grid
    denom = 1 if s.flux is None else s.flux.dealias_denom
    band = band_layout(grid, denom)
    if s.flux is None:
        decay, weight = _step_factors(s.dissipation, dt, denom)
        new = s.u_hat.coeffs * decay
        dissipated = band.folded_abs2(s.u_hat.coeffs)
        dissipated *= weight
    else:
        e_half, e_full, p0, p1, p2 = _step_factors(s.dissipation, dt, denom)
        c = band.gather(s.u_hat.coeffs)
        # a flux state is zero outside the band (SimState), so a NaN or inf
        # can only sit in c
        if not np.all(np.isfinite(c)):
            raise BlowUpError(s.t + dt, f"nonfinite state entering step to t={s.t + dt:.6g}")
        start = band.folded_abs2(c)
        # Each k is dt times the right-hand side -N.  The stages e_half*(c
        # + k1/2), e_half*c + k2/2 and e_full*c + e_half*k3, and new =
        # e_full*c + (e_full*k1 + 2*e_half*(k2 + k3) + k4)/6, are built in
        # place with the same operations up to commuted operands, so they
        # round as those expressions do.  Each array is folded into its
        # next use as soon as that is known: c and k1 become e_full*c and
        # e_full*k1 before the third RHS, and only they and the stage
        # outlive the last.  2*e_half*(k2 + k3) is taken as
        # ((k2 + k3)*e_half)*2, the same bits, since doubling is exact.
        # Each stage enters the ledger once its RHS is known.
        k1 = nonlinear_coeffs(grid, c, s.flux, s.physical.values, -dt)
        stage = np.multiply(k1, 0.5)
        stage += c
        stage *= e_half
        k2 = nonlinear_coeffs(grid, stage, s.flux, scale=-dt)
        mid = band.folded_abs2(stage)
        np.multiply(c, e_half, out=stage)
        stage += 0.5 * k2
        c *= e_full
        new = k1
        new *= e_full
        del k1
        k3 = nonlinear_coeffs(grid, stage, s.flux, scale=-dt)
        mid += band.folded_abs2(stage)
        np.multiply(e_half, k3, out=stage)
        stage += c
        k2 += k3
        k2 *= e_half
        k2 *= 2.0
        new += k2
        del k2, k3
        k4 = nonlinear_coeffs(grid, stage, s.flux, scale=-dt)
        end = band.folded_abs2(stage)
        del stage
        new += k4
        # numpy divides a complex array by a real scalar as a multiply by
        # its reciprocal, so this has the bits of /6 at a tenth of the cost
        new *= 1.0 / 6.0
        new += c
        # p0*start + p1*(0.5*mid) + p2*end
        dissipated = np.multiply(start, p0, out=start)
        mid *= 0.5
        mid *= p1
        dissipated += mid
        end *= p2
        dissipated += end
    dissipated = float(np.dot(dissipated.sum(0), grid.column_weight[: band.ncols])) / grid.area()
    if not (np.all(np.isfinite(new)) and np.isfinite(dissipated)):
        raise BlowUpError(s.t + dt)
    if s.flux is not None:
        new = band.scatter(new)
    return replace(s, t=s.t + dt, u_hat=SpectralField(grid, new), ledger=s.ledger + dissipated)


#: ((dissipation, dt, denom), factors) of the last _step_factors call, or
#: None.  Read and replaced as one tuple, so a thread sees a whole entry.
_factors = None


def _step_factors(dissipation: DissipationSpec, dt: float, denom: int
                  ) -> tuple[np.ndarray, ...]:
    """The factors of step_ifrk4 that depend only on the symbol m and dt,
    built once per (dissipation, dt, denom) and returned read-only.

    denom = 1 (flux-free): exp(-dt*m) on the half lattice and the free
    decay's dissipation weights -0.5*expm1(-2*dt*m) on the folded rows.
    denom > 1 (flux on band_layout(grid, denom)): e_half = exp(-dt*m/2) and
    e_full = e_half**2 on the band, and the ledger weights p0, p1, p2 of
    _ledger_weights, whose exp(-z/2) is e_full on the folded rows.

    One entry is kept: a run whose steps all take the sample spacing (a
    flux-free run, or a flux run once the CFL bound exceeds it) builds
    them once, and a CFL-limited step, whose dt is new, drops the previous
    entry before it builds the next.  Each array is allocated once, the
    three weights as one block, and built in place, so no freed temporary
    lies below a kept array.  An entry depends on its key alone, so
    threads that race on the cache at worst build the same factors twice.
    """
    global _factors
    key = (dissipation, dt, denom)
    kept = _factors
    if kept is not None and kept[0] == key:
        return kept[1]
    # this frame's reference too, so the last entry is freed here
    kept = _factors = None
    band = band_layout(dissipation.grid, denom)
    m_folded = dissipation.symbol[: band.n_folded, : band.ncols]
    if denom == 1:
        decay = np.multiply(dissipation.symbol, -dt)
        np.exp(decay, out=decay)
        # exact for the free decay: 0.5*|c|^2*(1 - exp(-2*m*dt)) per mode
        weight = np.multiply(m_folded, -2.0 * dt)
        np.expm1(weight, out=weight)
        weight *= -0.5
        factors = (decay, weight)
    else:
        # one band exp: exp(-dt*m) is the square of exp(-dt*m/2)
        e_half = band.gather(dissipation.symbol)
        np.multiply(e_half, -0.5 * dt, out=e_half)
        np.exp(e_half, out=e_half)
        e_full = np.square(e_half)
        weights = np.empty((3, band.n_folded, band.ncols))
        # z = 2*m*dt on the folded rows j >= 0, the band's first n_folded
        # rows, where e_full is exp(-z/2); allocated after the weights, it
        # is freed above them
        _ledger_weights(np.multiply(m_folded, 2.0 * dt), e_full[: band.n_folded], out=weights)
        factors = (e_half, e_full, *weights)
    for a in factors:
        a.flags.writeable = False
    _factors = (key, factors)
    return factors


def _ledger_weights(z: np.ndarray, shrink: np.ndarray, out: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-mode weights of the step's dissipation integral, for z = 2*m*dt >= 0
    and shrink = exp(-z/2), which _step_factors passes as e_full = exp(-dt*m).

    The integral of m*|u_hat|^2 over the step is P0*|c|^2 + P1*mid + P2*end,
    with mid the mean of |u_hat|^2 over the two s = dt/2 stages and end
    |u_hat|^2 at the s = dt stage.  Exponentially fitted: in the
    integrating-factor frame y = exp(m*s)*u_hat the rule interpolates |y|^2
    quadratically through these three points and integrates exp(-2*m*s)
    times that quadratic exactly.  Finite for every z, and exact on the
    free decay u = exp(-m*s)*c: P0 + P1*exp(-z/2) + P2*exp(-z) = (1 - exp(-z))/2.
    The closed forms below are evaluated in the order of
    P0 = (z^2 + 4 - 3z - (z + 4)*shrink^2) / (2z^2),
    P1 = 4*((z - 2)*grow + (z + 2)*shrink) / (2z^2) and
    P2 = ((4 - z)*grow^2 - (z^2 + 4) - 3z) / (2z^2), grow = 1/shrink,
    with every pass taken in place.  The weights are built in out, of
    shape (3,) + z.shape, or in one fresh such array, allocated before
    every temporary, so that those are freed above them.
    """
    p0, p1, p2 = np.empty((3,) + z.shape) if out is None else out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.add(z, 4.0, out=p0)
        np.subtract(z, 2.0, out=p1)
        np.add(z, 2.0, out=p2)
        grow = np.divide(1.0, shrink)
        even = z * z
        half_inv = np.divide(0.5, even)
        even += 4.0
        odd = 3.0 * z
        p0 *= shrink
        p0 *= shrink
        np.subtract(even - odd, p0, out=p0)
        p0 *= half_inv
        p1 *= grow
        p2 *= shrink
        p1 += p2
        p1 *= half_inv
        p1 *= 4.0
        np.subtract(4.0, z, out=p2)
        p2 *= grow
        p2 *= grow
        p2 -= even
        p2 -= odd
        p2 *= half_inv
    small = z < _Z_SERIES
    zs = z[small]
    w = 0.5 * zs
    p0[small] = w * np.polynomial.polynomial.polyval(-zs, _F_SERIES)
    p1[small] = w * np.polynomial.polynomial.polyval(w * w, _G_SERIES)
    p2[small] = w * np.polynomial.polynomial.polyval(zs, _F_SERIES)
    stiff = z > _Z_FIT
    if np.any(stiff):
        # bounded rule: exact for 1, s and exp(-2*m*s), equal end weights
        zb = z[stiff]
        decay = shrink[stiff]
        end = 0.5 * zb * ((1.0 - decay * decay) / zb - decay) / (1.0 - decay) ** 2
        p0[stiff] = end
        p1[stiff] = 0.5 * zb - 2.0 * end
        p2[stiff] = end
    return p0, p1, p2


def cfl_dt(u: PhysicalField, g: GridSpec, safety: float, kappa: int = 1) -> float:
    """Advective step limit: safety * min(dx, dy) / max(max|u|^kappa, floor).

    |u|^kappa bounds the wave speed f'(u) = u^kappa of the flux
    u^(1+kappa)/(1+kappa).  The linear part is integrated exactly and
    imposes no constraint.
    """
    if not (0.0 < safety <= 1.0):
        raise ValueError(f"safety must lie in (0, 1], got {safety}")
    # max|u| without building |u|; NaN and inf both propagate to peak
    peak = float(np.maximum(u.values.max(), -u.values.min()))
    if not np.isfinite(peak):
        raise ValueError("CFL estimate on nonfinite field")
    amp = max(peak ** kappa, CFL_AMPLITUDE_FLOOR)
    return safety * min(g.dx, g.dy) / amp
