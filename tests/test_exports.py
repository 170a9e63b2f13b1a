import importlib
import pkgutil

import pilotwave


def test_every_exported_name_exists():
    # a deleted function left in __all__ breaks ``from pilotwave.<module> import *``
    checked = []
    for info in pkgutil.iter_modules(pilotwave.__path__):
        module = importlib.import_module(f"pilotwave.{info.name}")
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, f"pilotwave.{info.name}.__all__ lists missing names {missing}"
        checked.append(info.name)
    assert {"bohm", "harness", "measure", "potential", "solver"} <= set(checked)
