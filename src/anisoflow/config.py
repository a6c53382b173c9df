"""Flat `key = value` run configuration: parsing, defaults, validation."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import ConfigError
from .freqsplit import CutoffSpec, default_mu
from .operators import DissipationSpec, FluxSpec
from .spectral import GridSpec, band_layout


@dataclass(frozen=True)
class GaussianIC:
    """u0 = amplitude * exp(-r^2 / radius^2) centered in the box by default."""

    amplitude: float
    radius: float
    center: tuple[float, float] | None = None


@dataclass(frozen=True)
class RandomBlobIC:
    """Seeded random-phase field with unit Fourier moduli, band-limited to
    `band` of Nyquist (one member of a flat generate_corpus), rescaled so
    max|u0| = amplitude."""

    seed: int
    amplitude: float
    band: float


@dataclass(frozen=True)
class SingleModeIC:
    """u0 = amplitude * cos(2*pi*(k1*x/lx + k2*y/ly)) for integer modes."""

    k1: int
    k2: int
    amplitude: float


InitialCondition = GaussianIC | RandomBlobIC | SingleModeIC


@dataclass(frozen=True)
class RunConfig:
    """One run, checked on construction (dataclasses.replace included): a
    value outside its domain raises ConfigError naming its key."""

    nx: int = 512
    ny: int = 512
    lx: float = 100.0 * math.pi
    ly: float = 100.0 * math.pi
    alpha1: float = 2.0
    alpha2: float = 2.0
    kappa: int = 1
    t_end: float = 100.0
    cfl_safety: float = 0.5
    sample_every: float = 0.5
    mu: float | None = None  # None -> default_mu(alpha1, alpha2)
    gammas: tuple[int, ...] = (1, 2)
    ic: InitialCondition = field(default_factory=lambda: GaussianIC(5.0, 5.0))
    nonlinearity_enabled: bool = True
    timeseries_path: str = "timeseries.csv"
    checkpoint_path: str = ""

    def __post_init__(self):
        # the grid, the dissipation, the flux and the cutoff check their own
        # keys, and each message starts with the key
        try:
            grid = GridSpec(self.nx, self.ny, self.lx, self.ly)
            DissipationSpec(grid, self.alpha1, self.alpha2)
            flux = FluxSpec(self.kappa)
            CutoffSpec(self.resolved_mu())
        except ValueError as exc:
            raise ConfigError(f"config: {exc}") from None

        def fail(key, msg):
            raise ConfigError(f"config key {key!r}: {msg}")

        for key in ("t_end", "sample_every"):
            v = getattr(self, key)
            if not (v > 0 and math.isfinite(v)):
                fail(key, f"must be positive, got {v}")
        if not (0.0 < self.cfl_safety <= 1.0):
            fail("cfl_safety", f"must lie in (0, 1], got {self.cfl_safety}")
        if (not all(isinstance(g, int) and g >= 1 for g in self.gammas)
                or len(set(self.gammas)) < len(self.gammas)):
            fail("gammas", f"must be distinct integers >= 1, got {self.gammas}")
        ic = self.ic
        if not math.isfinite(ic.amplitude):
            fail("ic", f"amplitude must be finite, got {ic.amplitude}")
        if isinstance(ic, GaussianIC):
            if not (ic.radius > 0 and math.isfinite(ic.radius)):
                fail("ic", f"gaussian radius must be positive, got {ic.radius}")
            if ic.center is not None and not all(map(math.isfinite, ic.center)):
                fail("ic", f"gaussian center must be finite, got {ic.center}")
        elif isinstance(ic, RandomBlobIC):
            if not (0.0 < ic.band <= 2.0 / 3.0):
                fail("ic", f"random_blob band must lie in (0, 2/3], got {ic.band}")
            if ic.seed < 0:
                fail("ic", f"random_blob seed must be nonnegative, got {ic.seed}")
        elif isinstance(ic, SingleModeIC):
            if abs(ic.k1) > self.nx // 2 - 1 or abs(ic.k2) > self.ny // 2 - 1:
                fail("ic", f"single_mode indices ({ic.k1}, {ic.k2}) exceed the lattice")
            if self.nonlinearity_enabled:
                # both rows +-k1 of the mode's coefficients must lie in the band
                band = band_layout(grid, flux.dealias_denom)
                if abs(ic.k1) >= min(band.n_pos, band.n_neg + 1) or abs(ic.k2) >= band.ncols:
                    fail("ic", f"single_mode ({ic.k1}, {ic.k2}) lies outside the alias-free "
                               "band that the flux keeps")

    def resolved_mu(self) -> float:
        return self.mu if self.mu is not None else default_mu(self.alpha1, self.alpha2)


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(p.strip()) for p in raw.split(",") if p.strip())


_CALL_RE = re.compile(r"(\w+)\s*(?:\((.*)\))?")


def parse_call(raw: str, forms: dict, what: str):
    """Parse `name`, `name()` or `name(a, ...)` against forms, a table of
    name -> (the argument counts it takes, its usage, its builder), and
    return the builder applied to the argument strings."""
    m = _CALL_RE.fullmatch(raw.strip())
    if not m:
        raise ValueError(f"malformed {what} {raw!r}")
    name, argstr = m.group(1).lower(), m.group(2) or ""
    if name not in forms:
        raise ValueError(f"unknown {what} {name!r}")
    counts, usage, build = forms[name]
    args = [a.strip() for a in argstr.split(",")] if argstr.strip() else []
    if len(args) not in counts:
        raise ValueError(f"expected {usage}, got {raw!r}")
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"bad {what} {raw!r}: {exc}") from None


_IC_FORMS = {
    "gaussian": ((2, 4), "gaussian(amplitude, radius[, cx, cy])",
                 lambda a, r, *c: GaussianIC(float(a), float(r), tuple(map(float, c)) or None)),
    "random_blob": ((3,), "random_blob(seed, amplitude, band)",
                    lambda s, a, b: RandomBlobIC(int(s), float(a), float(b))),
    "single_mode": ((3,), "single_mode(k1, k2, amplitude)",
                    lambda k1, k2, a: SingleModeIC(int(k1), int(k2), float(a))),
}


def parse_ic(raw: str) -> InitialCondition:
    return parse_call(raw, _IC_FORMS, "initial condition")


_PARSERS = {
    "nx": int,
    "ny": int,
    "lx": float,
    "ly": float,
    "alpha1": float,
    "alpha2": float,
    "kappa": int,
    "t_end": float,
    "cfl_safety": float,
    "sample_every": float,
    "mu": float,
    "gammas": _parse_int_list,
    "ic": parse_ic,
    "nonlinearity_enabled": _parse_bool,
    "timeseries_path": str,
    "checkpoint_path": str,
}


def parse_keys(path: str, parsers: dict, what: str) -> dict:
    """Parse a flat `key = value` file, `#` comments stripped, with one
    parser per key.  A malformed line or a duplicate key raises ConfigError
    naming the line; unknown keys, all listed, and bad values raise it
    naming the key.  Absent keys are left out."""
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            key, eq, value = (p.strip() for p in stripped.partition("="))
            if not eq:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line.strip()!r}")
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = value
    unknown = sorted(set(raw) - set(parsers))
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {', '.join(unknown)}")
    out = {}
    for key, value in raw.items():
        try:
            out[key] = parsers[key](value)
        except ValueError as exc:
            raise ConfigError(f"{what} key {key!r}: {exc}") from None
    return out


def load_config(path: str) -> RunConfig:
    """Parse a run configuration, validated as every RunConfig is; missing
    keys take defaults."""
    return RunConfig(**parse_keys(path, _PARSERS, "config"))
