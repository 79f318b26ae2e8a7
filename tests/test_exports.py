"""Every ``repro.*`` package's ``__all__`` names something that exists.

A deleted definition whose name stays in a package's ``__all__`` breaks
``from repro.<pkg> import *`` without failing any import a test makes by
name, so each package is checked here both ways.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


PACKAGES = sorted(
    ["repro"]
    + [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg]
)
#: ``repro.net`` is imported by module, never by ``*``, and has no ``__all__``.
EXPORTING = [name for name in PACKAGES if hasattr(importlib.import_module(name), "__all__")]


def test_every_subpackage_is_found():
    assert {"repro.routing", "repro.mrt", "repro.net"} <= set(PACKAGES)
    assert "repro.routing" in EXPORTING


@pytest.mark.parametrize("name", EXPORTING)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    exported = package.__all__
    missing = [symbol for symbol in exported if not hasattr(package, symbol)]
    assert missing == [], f"{name}.__all__ names undefined {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
