"""Time-series CSV and binary checkpoint serialization."""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import CheckpointError
from .norms import NormSample
from .operators import DissipationSpec, FluxSpec
from .spectral import PhysicalField, forward_transform, inverse_transform, make_grid
from .timestepper import SimState

MAGIC = b"ANISOFL1"
_HEADER = struct.Struct("<QQdddddQ")  # nx, ny, lx, ly, alpha1, alpha2, t, kappa


def timeseries_header(gammas) -> str:
    hg = ",".join(f"hg{g}" for g in gammas)
    return f"t,l1,l2,l4,linf,{hg},diss_x,diss_y,ul_l2,uh_l2"


def write_timeseries(series: list[NormSample], path: str, gammas) -> None:
    """CSV with full double precision (17 significant digits), time-ordered."""
    lines = [timeseries_header(gammas)]
    for s in series:
        row = [s.t, s.l1, s.l2, s.l4, s.linf]
        row += [s.hgamma[g] for g in gammas]
        row += [s.diss_x, s.diss_y, s.ul_l2, s.uh_l2]
        lines.append(",".join(f"{v:.17g}" for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_timeseries(path: str) -> list[NormSample]:
    """Read a written CSV back; split seminorm maps are not serialized."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        gammas = [int(c[2:]) for c in cols if c.startswith("hg")]
        expected = timeseries_header(gammas).split(",")
        if cols != expected:
            raise ValueError(f"unexpected CSV header {header!r}")
        samples = []
        for line in fh:
            if not line.strip():
                continue
            vals = [float(p) for p in line.split(",")]
            if len(vals) != len(cols):
                raise ValueError(f"row width {len(vals)} != header width {len(cols)}")
            t, l1, l2, l4, linf = vals[:5]
            hg = dict(zip(gammas, vals[5:5 + len(gammas)]))
            diss_x, diss_y, ul_l2, uh_l2 = vals[5 + len(gammas):]
            samples.append(NormSample(
                t=t, l1=l1, l2=l2, l4=l4, linf=linf, hgamma=hg,
                diss_x=diss_x, diss_y=diss_y, ul_l2=ul_l2, uh_l2=uh_l2,
            ))
    return samples


def checkpoint_write(s: SimState, path: str) -> None:
    """Binary snapshot: magic, geometry, time, kappa, then the physical field.

    All little-endian; the field is written row-major.  kappa = 0 encodes a
    disabled nonlinearity.
    """
    u = inverse_transform(s.u_hat)
    grid = s.grid
    kappa = s.flux.kappa if s.flux is not None else 0
    header = _HEADER.pack(
        grid.nx, grid.ny, grid.lx, grid.ly,
        s.dissipation.alpha1, s.dissipation.alpha2, s.t, kappa,
    )
    payload = np.ascontiguousarray(u.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header)
        fh.write(payload)


def checkpoint_read(path: str) -> SimState:
    """Load a checkpoint; the spectral state is recomputed from the field."""
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}")
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise CheckpointError("truncated checkpoint header")
        nx, ny, lx, ly, alpha1, alpha2, t, kappa = _HEADER.unpack(head)
        expected = len(MAGIC) + _HEADER.size + 8 * nx * ny
        if size != expected:
            raise CheckpointError(
                f"checkpoint size {size} does not match expected {expected} bytes"
            )
        payload = fh.read(8 * nx * ny)
    values = np.frombuffer(payload, dtype="<f8").reshape(nx, ny)
    if not np.all(np.isfinite(values)):
        raise CheckpointError("checkpoint payload contains nonfinite values")
    try:
        grid = make_grid(nx, ny, lx, ly)
        dissipation = DissipationSpec(grid, alpha1, alpha2)
        flux = FluxSpec(int(kappa)) if kappa >= 1 else None
        u_hat = forward_transform(PhysicalField(grid, values.astype(np.float64)))
        return SimState(t=t, u_hat=u_hat, dissipation=dissipation, flux=flux)
    except ValueError as exc:
        raise CheckpointError(f"invalid checkpoint contents: {exc}") from exc
