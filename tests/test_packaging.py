"""The package metadata in ``pyproject.toml`` matches what the code needs."""

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _project():
    with PYPROJECT.open("rb") as f:
        return tomllib.load(f)["project"]


def test_numpy_floor_has_fft_out():
    # grid.fftn/ifftn pass ``out=`` to np.fft.fft/ifft, added in numpy 2.0
    floors = [
        re.fullmatch(r"numpy\s*>=\s*(\d+)\.(\d+)(?:\.\d+)?", dep.split(";")[0].strip())
        for dep in _project()["dependencies"]
        if re.match(r"numpy\b", dep)
    ]
    assert len(floors) == 1 and floors[0] is not None, floors
    assert tuple(int(v) for v in floors[0].groups()) >= (2, 0)


def test_console_script_is_the_cli_main():
    target = _project()["scripts"]["pilotwave"]
    module, _, attr = target.partition(":")
    import pilotwave.cli

    assert importlib.import_module(module) is pilotwave.cli
    assert getattr(pilotwave.cli, attr) is pilotwave.cli.main
