"""Binary field snapshots for offline inspection.

Layout (little-endian): header = dim (uint32), n_per_axis (uint32),
half_width (float64), time (float64); payload = interleaved real/imag
float64 pairs in C order, n_per_axis**dim values.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import InputError
from .grid import ComplexField, make_grid
from .solver import WaveFunction

__all__ = ["save_field", "load_field", "HEADER_STRUCT"]

HEADER_STRUCT = struct.Struct("<IIdd")


def save_field(path: str | Path, wf: WaveFunction) -> None:
    grid = wf.grid
    header = HEADER_STRUCT.pack(grid.dim, grid.n_per_axis, grid.half_width, wf.time)
    payload = np.empty(grid.size * 2, dtype="<f8")
    flat = wf.values.ravel()
    payload[0::2] = flat.real
    payload[1::2] = flat.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def load_field(path: str | Path) -> WaveFunction:
    with open(path, "rb") as fh:
        raw = fh.read(HEADER_STRUCT.size)
        if len(raw) != HEADER_STRUCT.size:
            raise InputError(f"{path}: truncated header")
        dim, n, half_width, time = HEADER_STRUCT.unpack(raw)
        grid = make_grid(dim, n, half_width)
        payload = np.frombuffer(fh.read(), dtype="<f8")
    if payload.size != 2 * grid.size:
        raise InputError(
            f"{path}: payload holds {payload.size} floats, expected {2 * grid.size}"
        )
    values = (payload[0::2] + 1j * payload[1::2]).reshape(grid.shape)
    return WaveFunction(field=ComplexField._adopt(grid, values), time=time)
