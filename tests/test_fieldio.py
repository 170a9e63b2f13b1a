import re
import struct

import numpy as np
import pytest

from pilotwave.errors import InputError
from pilotwave.fieldio import HEADER_STRUCT, load_field, save_field
from pilotwave.grid import make_grid
from pilotwave.solver import WaveFunction, gaussian_packet


def test_round_trip(tmp_path):
    g = make_grid(1, 256, 16.0)
    psi = gaussian_packet(g, width=1.0, momentum=1.5)
    psi = WaveFunction(psi.grid, psi.values, 0.75)
    path = tmp_path / "state.field"
    save_field(path, psi)
    back = load_field(path)
    assert back.grid == g
    assert back.time == 0.75
    assert np.array_equal(back.values, psi.values)


def test_round_trip_2d(tmp_path):
    g = make_grid(2, 32, 6.0)
    rng = np.random.default_rng(4)
    vals = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    wf = WaveFunction(g, vals, 0.3)
    path = tmp_path / "state2d.field"
    save_field(path, wf)
    back = load_field(path)
    assert back.grid == g
    assert np.array_equal(back.values, wf.values)


def test_reload_keeps_every_bit(tmp_path):
    # the payload decodes as complex128, so signed zeros survive a reload
    g = make_grid(1, 16, 8.0)
    vals = np.full(g.shape, complex(-0.0, 1.0))
    vals[1] = complex(-0.0, -0.0)
    first, second = tmp_path / "first.field", tmp_path / "second.field"
    save_field(first, WaveFunction(g, vals, 0.5))
    save_field(second, load_field(first))
    assert first.read_bytes() == second.read_bytes()


def test_byte_layout(tmp_path):
    # header: dim uint32, n uint32, half_width f64, time f64 (little-endian);
    # payload: interleaved re/im f64 in C order
    g = make_grid(1, 16, 8.0)
    vals = (np.arange(16) + 1j * np.arange(16, 32)).astype(complex)
    wf = WaveFunction(g, vals, 0.25)
    path = tmp_path / "layout.field"
    save_field(path, wf)
    raw = path.read_bytes()
    dim, n, L, t = struct.unpack("<IIdd", raw[: HEADER_STRUCT.size])
    assert (dim, n, L, t) == (1, 16, 8.0, 0.25)
    payload = np.frombuffer(raw[HEADER_STRUCT.size :], dtype="<f8")
    assert payload.size == 32
    assert np.array_equal(payload[0::2], np.arange(16.0))
    assert np.array_equal(payload[1::2], np.arange(16.0, 32.0))


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "bad.field"
    path.write_bytes(b"\x01\x00")
    with pytest.raises(InputError):
        load_field(path)


def test_short_payload_rejected(tmp_path):
    g = make_grid(1, 16, 8.0)
    wf = WaveFunction(g, np.ones(g.shape, dtype=complex), 0.0)
    path = tmp_path / "short.field"
    save_field(path, wf)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(InputError):
        load_field(path)


@pytest.mark.parametrize("cut", [3, 16])
def test_cut_payload_rejected_naming_the_file(tmp_path, cut):
    # the size is checked before decoding, so a cut in the middle of a
    # float is a clean error naming the file, like a cut between values
    g = make_grid(1, 16, 8.0)
    wf = WaveFunction(g, np.ones(g.shape, dtype=complex), 0.0)
    path = tmp_path / "cut.field"
    save_field(path, wf)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(InputError, match=re.escape(f"{path}: payload holds")):
        load_field(path)


@pytest.mark.parametrize(
    "dim, n, time, payload_bytes, message",
    [
        (7, 16, 0.0, 16, "dim must be 1, 2 or 3, got 7"),
        (1, 17, 0.0, 17 * 16, "n_per_axis must be a power of two >= 16, got 17"),
        # 2**32 points would take 32 GiB to build; the size check comes first
        (2, 65536, 0.0, 32, "payload holds 32 bytes, expected 68719476736"),
        (1, 16, np.nan, 16 * 16, "time stamp nan is not finite"),
        (1, 16, np.inf, 16 * 16, "time stamp inf is not finite"),
    ],
    ids=["dim7", "n17", "n65536", "time_nan", "time_inf"],
)
def test_corrupt_header_rejected_naming_the_file(tmp_path, dim, n, time, payload_bytes, message):
    path = tmp_path / "corrupt.field"
    path.write_bytes(HEADER_STRUCT.pack(dim, n, 8.0, time) + bytes(payload_bytes))
    with pytest.raises(InputError, match=re.escape(f"{path}: {message}")):
        load_field(path)
