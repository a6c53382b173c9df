"""Flat `key = value` run configuration: parsing, defaults, validation."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .freqsplit import default_mu


@dataclass(frozen=True)
class GaussianIC:
    """u0 = amplitude * exp(-r^2 / radius^2) centered in the box by default."""

    amplitude: float
    radius: float
    center: tuple[float, float] | None = None


@dataclass(frozen=True)
class RandomBlobIC:
    """Seeded random-phase field, band-limited to `band` of Nyquist,
    rescaled so max|u0| = amplitude."""

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


_IC_RE = re.compile(r"^(\w+)\s*\((.*)\)$")


def parse_ic(raw: str) -> InitialCondition:
    """Parse `gaussian(a, r[, cx, cy])`, `random_blob(seed, a, band)`,
    or `single_mode(k1, k2, a)`."""
    m = _IC_RE.match(raw.strip())
    if not m:
        raise ValueError(f"malformed initial condition {raw!r}")
    name, argstr = m.group(1).lower(), m.group(2)
    args = [a.strip() for a in argstr.split(",")] if argstr.strip() else []
    try:
        if name == "gaussian":
            if len(args) == 2:
                return GaussianIC(float(args[0]), float(args[1]))
            if len(args) == 4:
                return GaussianIC(
                    float(args[0]), float(args[1]), (float(args[2]), float(args[3]))
                )
            raise ValueError("gaussian takes (amplitude, radius[, cx, cy])")
        if name == "random_blob":
            if len(args) != 3:
                raise ValueError("random_blob takes (seed, amplitude, band)")
            return RandomBlobIC(int(args[0]), float(args[1]), float(args[2]))
        if name == "single_mode":
            if len(args) != 3:
                raise ValueError("single_mode takes (k1, k2, amplitude)")
            return SingleModeIC(int(args[0]), int(args[1]), float(args[2]))
    except ValueError as exc:
        raise ValueError(f"bad initial condition {raw!r}: {exc}") from None
    raise ValueError(f"unknown initial condition kind {name!r}")


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


def parse_flat_file(path: str) -> dict[str, str]:
    """Read a `key = value` file, stripping comments; raw string values."""
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line.strip()!r}")
            key, value = stripped.split("=", 1)
            key = key.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = value.strip()
    return raw


def parse_keys(path: str, parsers: dict, what: str) -> dict:
    """Parse each key of a flat file with its parser; unknown keys and bad
    values raise ConfigError naming the key.  Absent keys are left out."""
    raw = parse_flat_file(path)
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


def validate_config(cfg: RunConfig) -> None:
    """Domain checks; violations name the offending key."""
    def fail(key, msg):
        raise ConfigError(f"config key {key!r}: {msg}")

    for key in ("nx", "ny"):
        n = getattr(cfg, key)
        if n % 2 != 0 or n < 8:
            fail(key, f"must be even and >= 8, got {n}")
    for key in ("lx", "ly", "t_end", "sample_every"):
        v = getattr(cfg, key)
        if not (v > 0 and math.isfinite(v)):
            fail(key, f"must be positive, got {v}")
    for key in ("alpha1", "alpha2"):
        a = getattr(cfg, key)
        if not (1.0 < a <= 2.0):
            fail(key, f"must lie in (1, 2], got {a}")
    if cfg.kappa < 1:
        fail("kappa", f"must be >= 1, got {cfg.kappa}")
    if not (0.0 < cfg.cfl_safety <= 1.0):
        fail("cfl_safety", f"must lie in (0, 1], got {cfg.cfl_safety}")
    if cfg.mu is not None and not (cfg.mu > 0 and math.isfinite(cfg.mu)):
        fail("mu", f"must be positive, got {cfg.mu}")
    if not cfg.gammas or any(g < 1 for g in cfg.gammas):
        fail("gammas", f"must be a nonempty list of integers >= 1, got {cfg.gammas}")
    ic = cfg.ic
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
        if abs(ic.k1) > cfg.nx // 2 - 1 or abs(ic.k2) > cfg.ny // 2 - 1:
            fail("ic", f"single_mode indices ({ic.k1}, {ic.k2}) exceed the lattice")


def load_config(path: str) -> RunConfig:
    """Parse and validate a run configuration; missing keys take defaults."""
    cfg = replace(RunConfig(), **parse_keys(path, _PARSERS, "config"))
    validate_config(cfg)
    return cfg
