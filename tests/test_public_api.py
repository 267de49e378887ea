"""Every name a ``repro`` package exports in ``__all__`` imports and resolves.

Guards deletions: removing a class or function must also remove it from
the package's public list, and vice versa.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = sorted(
    ["repro"]
    + [
        f"repro.{info.name}"
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    ]
)


def test_every_subpackage_is_listed():
    assert len(PACKAGES) > 10


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    names = getattr(module, "__all__", None)
    assert names, f"{package} declares no __all__"
    assert len(names) == len(set(names)), f"{package}.__all__ repeats a name"
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ lists names it does not define: {missing}"
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(names) <= set(namespace)
