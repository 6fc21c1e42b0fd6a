"""Every name the package exports resolves: `uavlink.__all__` and the
`__all__` of each submodule list only attributes that exist."""

import importlib
import pkgutil

import pytest

import uavlink

MODULES = ["uavlink"] + [f"uavlink.{m.name}"
                         for m in pkgutil.iter_modules(uavlink.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = []
    for attr in exported:
        try:
            getattr(module, attr)
        except AttributeError:
            missing.append(attr)
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
