"""Binary field snapshots for offline inspection.

Layout (little-endian): header = dim (uint32), n_per_axis (uint32),
half_width (float64), time (float64); payload = n_per_axis**dim complex128
values in C order, each one real/imag float64 pair (``'<c16'``).
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, InputError
from .grid import make_grid
from .solver import WaveFunction

__all__ = ["save_field", "load_field", "HEADER_STRUCT"]

HEADER_STRUCT = struct.Struct("<IIdd")
PAYLOAD_DTYPE = np.dtype("<c16")


def save_field(path: str | Path, wf: WaveFunction) -> None:
    grid = wf.grid
    header = HEADER_STRUCT.pack(grid.dim, grid.n_per_axis, grid.half_width, wf.time)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(wf.values.astype(PAYLOAD_DTYPE, copy=False).tobytes())


def load_field(path: str | Path) -> WaveFunction:
    """The snapshot at ``path``; a short header, a header no grid can have,
    a non-finite time stamp, or a payload of any other size than the
    header's grid asks for, raises InputError naming it.

    The payload size is checked from the header's integers before a grid is
    built, so a corrupt ``n_per_axis`` allocates nothing.  A ``dim`` past 3
    skips that check (``n**dim`` could be huge) and is left to the grid's.
    """
    with open(path, "rb") as fh:
        raw = fh.read(HEADER_STRUCT.size)
        if len(raw) != HEADER_STRUCT.size:
            raise InputError(f"{path}: truncated header")
        dim, n, half_width, time = HEADER_STRUCT.unpack(raw)
        if not math.isfinite(time):
            raise InputError(f"{path}: time stamp {time} is not finite")
        payload = fh.read()
    if dim <= 3:
        expected = n**dim * PAYLOAD_DTYPE.itemsize
        if len(payload) != expected:
            raise InputError(f"{path}: payload holds {len(payload)} bytes, expected {expected}")
    try:
        grid = make_grid(dim, n, half_width)
    except ConfigError as exc:
        raise InputError(f"{path}: {exc}") from exc
    values = np.frombuffer(payload, dtype=PAYLOAD_DTYPE).reshape(grid.shape)
    return WaveFunction._adopt(grid, values, time)
