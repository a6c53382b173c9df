"""The flux path against answers it cannot share a convention with: the
symmetries of the equation, the Cole-Hopf closed form of viscous Burgers,
and the second-order amplitude expansion of a single mode at any alpha."""

from dataclasses import replace

import numpy as np
import pytest

from anisoflow import (
    DissipationSpec,
    FluxSpec,
    PhysicalField,
    RunConfig,
    SimState,
    forward_transform,
    initial_state,
    make_grid,
    step_ifrk4,
)
from anisoflow.config import RandomBlobIC
from anisoflow.run import advance_to
from anisoflow.spectral import band_layout

from conftest import TWO_PI


def band_state(values, grid, alpha1, alpha2, kappa):
    """The field values at t=0, truncated to the flux's band as
    initial_state does."""
    flux = FluxSpec(kappa)
    band = band_layout(grid, flux.dealias_denom)
    u_hat = forward_transform(PhysicalField(grid, values))
    u_hat = replace(u_hat, coeffs=band.scatter(band.gather(u_hat.coeffs)))
    return SimState(0.0, u_hat, DissipationSpec(grid, alpha1, alpha2), flux)


def reflect(u):
    """u(-x, -y) on the periodic grid: index i goes to -i mod n."""
    return np.roll(u[::-1, ::-1], 1, axis=(0, 1))


# each map sends a solution for (alpha1, alpha2) to one for the pair given
SYMMETRIES = {
    "transpose": (lambda u, kappa: u.T.copy(), True),
    "translate": (lambda u, kappa: np.roll(u, (5, -11), axis=(0, 1)), False),
    # f(u) = u^(1+kappa)/(1+kappa) is even in u for odd kappa, odd for even
    "negate": (lambda u, kappa: -reflect(u) if kappa % 2 else -u, False),
}


@pytest.mark.parametrize("name", list(SYMMETRIES))
@pytest.mark.parametrize("kappa,amplitude", [(1, 0.3), (2, 1.0)], ids=["kappa1", "kappa2"])
def test_symmetry_maps_solutions_to_solutions(kappa, amplitude, name):
    # measured at 64^2 (numpy 2.4): at most 6.3e-16 relative max error over
    # both kappas and all three maps, none bit-identical; the bound is 16
    # times that, and a row-order, sign or axis error reads O(1)
    cfg = RunConfig(nx=64, ny=64, lx=TWO_PI, ly=TWO_PI, alpha1=1.5, alpha2=2.0, kappa=kappa,
                    t_end=1.0, ic=RandomBlobIC(7, amplitude, 0.3), nonlinearity_enabled=True)
    s0 = initial_state(cfg)
    direct = advance_to(s0, 1.0, cfg.cfl_safety).physical.values
    f, swap = SYMMETRIES[name]
    alphas = (cfg.alpha2, cfg.alpha1) if swap else (cfg.alpha1, cfg.alpha2)
    mapped = band_state(f(s0.physical.values, kappa), s0.grid, *alphas, kappa)
    out = advance_to(mapped, 1.0, cfg.cfl_safety).physical.values
    err = np.max(np.abs(out - f(direct, kappa))) / np.max(np.abs(direct))
    assert err <= 1e-14, f"{err:.3e}"


def cole_hopf(grid, t, diagonal):
    """The closed-form solution for alpha = (2, 2), kappa = 1.

    A field u(s) with s = x + y solves V_t + V V_s = 2 V_ss for V = 2u, and
    u(x) solves u_t + u u_x = u_xx; either is viscous Burgers with
    viscosity nu, solved by V = -2 nu phi_s/phi with the heat solution
    phi = 1 + 0.5 cos(s) exp(-nu t).
    """
    x, y = grid.x[:, None], grid.y[None, :]
    s, nu = (x + y, 2.0) if diagonal else (x + 0.0 * y, 1.0)
    e = 0.5 * np.exp(-nu * t)
    v = 2.0 * nu * e * np.sin(s) / (1.0 + e * np.cos(s))
    return v / 2.0 if diagonal else v


# relative max error of u and of the ledger at T = 0.5 after 20 and 40 fixed
# steps, measured at 64^2 (numpy 2.4)
COLE_HOPF_MEASURED = {
    "diagonal": {20: (2.39e-7, 4.97e-6), 40: (1.63e-8, 2.72e-7)},
    "axis": {20: (3.51e-8, 3.39e-7), 40: (2.32e-9, 1.95e-8)},
}


@pytest.mark.parametrize("case", list(COLE_HOPF_MEASURED))
def test_cole_hopf_oracle(case):
    # the error is the time stepper's truncation error, so the bounds carry
    # a 50% margin over the measurements above; fourth order reads about
    # 3.9 from 20 to 40 steps
    grid = make_grid(64, 64, TWO_PI, TWO_PI)
    diagonal = case == "diagonal"
    u0, u_end = cole_hopf(grid, 0.0, diagonal), cole_hopf(grid, 0.5, diagonal)
    # the flux conserves energy, so the ledger is the closed form's loss
    loss = 0.5 * (np.sum(u0 ** 2) - np.sum(u_end ** 2)) * grid.cell_area()
    errors = {}
    for n, (u_bound, ledger_bound) in COLE_HOPF_MEASURED[case].items():
        s = band_state(u0, grid, 2.0, 2.0, 1)
        for _ in range(n):
            s = step_ifrk4(s, 0.5 / n)
        errors[n] = np.max(np.abs(s.physical.values - u_end)) / np.max(np.abs(u_end))
        ledger_err = abs(s.ledger - loss) / loss
        assert errors[n] <= 1.5 * u_bound, f"{n} steps: u error {errors[n]:.3e}"
        assert ledger_err <= 1.5 * ledger_bound, f"{n} steps: ledger error {ledger_err:.3e}"
    order = np.log2(errors[20] / errors[40])
    assert order >= 3.5, f"observed order {order:.2f}"


# relative max errors at T = 0.5 after 100 fixed steps, for eps = 0.05,
# 0.025 and 0.0125, measured at 64^2 (numpy 2.4): of the even part against
# u2, and of the +eps run against u1 + u2
WEAKLY_NONLINEAR_MEASURED = {
    ((1.5, 2.0), (1, 1)): ((1.556e-4, 3.891e-5, 9.727e-6), (9.378e-5, 2.345e-5, 5.862e-6)),
    ((1.5, 2.0), (2, -1)): ((1.343e-5, 3.357e-6, 8.392e-7), (7.057e-6, 1.764e-6, 4.411e-7)),
    ((1.1, 1.3), (1, 1)): ((3.125e-4, 7.814e-5, 1.954e-5), (1.757e-4, 4.394e-5, 1.098e-5)),
    ((1.1, 1.3), (2, -1)): ((3.373e-5, 8.433e-6, 2.108e-6), (1.848e-5, 4.619e-6, 1.155e-6)),
}


@pytest.mark.parametrize("alphas,k", list(WEAKLY_NONLINEAR_MEASURED),
                         ids=[f"{a}-{k}" for a, k in WEAKLY_NONLINEAR_MEASURED])
def test_weakly_nonlinear_oracle(alphas, k):
    # for data eps*cos(theta), theta = k.x, and kappa = 1 the amplitude
    # expansion reads u = u1 + u2 + O(eps^3) at any alpha: u1 = eps
    # e^{-m1 t} cos(theta) is the linear decay of the mode, odd in eps, and
    # the flux drives
    #     u2 = (eps^2/2) (kx + ky) sin(2 theta) (e^{-2 m1 t} - e^{-m2 t}) / (m2 - 2 m1),
    # even in eps, with m1 = m(k), m2 = m(2k) > 2 m1.  The mean of the runs
    # from +eps and -eps is u2 + O(eps^4): its error relative to u2 falls
    # by 4.00 per halving of eps in every case, and the time error does not
    # show.  The +eps run itself is u1 + u2 + O(eps^3): its error relative
    # to u1 + u2 also falls by 4.00, which is 8 for the absolute error.
    # The bounds carry a 50% margin over the measurements above, and both
    # halving ratios must read 4 to within 1%.  A flux right-hand side
    # scaled by 1 + 1e-3 floors the even-part error near 1e-3; scaled by
    # 1 + 1e-5, it breaks the ratio in every case.
    grid = make_grid(64, 64, TWO_PI, TWO_PI)
    theta = k[0] * grid.x[:, None] + k[1] * grid.y[None, :]
    m1, m2 = (abs(s * k[0]) ** alphas[0] + abs(s * k[1]) ** alphas[1] for s in (1, 2))
    t_end, n = 0.5, 100
    even_bounds, full_bounds = WEAKLY_NONLINEAR_MEASURED[alphas, k]
    errors, full_errors = [], []
    for eps, bound, full_bound in zip((0.05, 0.025, 0.0125), even_bounds, full_bounds):
        runs = []
        for sign in (1.0, -1.0):
            s = band_state(sign * eps * np.cos(theta), grid, *alphas, 1)
            for _ in range(n):
                s = step_ifrk4(s, t_end / n)
            runs.append(s.physical.values)
        u1 = eps * np.exp(-m1 * t_end) * np.cos(theta)
        u2 = (0.5 * eps ** 2 * (k[0] + k[1]) * np.sin(2.0 * theta)
              * (np.exp(-2.0 * m1 * t_end) - np.exp(-m2 * t_end)) / (m2 - 2.0 * m1))
        errors.append(np.max(np.abs(0.5 * (runs[0] + runs[1]) - u2)) / np.max(np.abs(u2)))
        full_errors.append(np.max(np.abs(runs[0] - (u1 + u2))) / np.max(np.abs(u1 + u2)))
        assert errors[-1] <= 1.5 * bound, f"eps={eps}: even-part error {errors[-1]:.3e}"
        assert full_errors[-1] <= 1.5 * full_bound, f"eps={eps}: error {full_errors[-1]:.3e}"
    for errs in (errors, full_errors):
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.96 <= coarse / fine <= 4.04, f"halving ratio {coarse / fine:.3f}"
