"""Every hypwave module declares __all__, and every name in it exists.

A stale entry (a class deleted but still exported) breaks
``from hypwave.<module> import *`` only when someone tries it; this test
fails as soon as the entry goes stale.
"""

import importlib
import pkgutil

import pytest

import hypwave

MODULES = sorted(m.name for m in pkgutil.iter_modules(hypwave.__path__))


def test_every_module_is_listed():
    assert MODULES == ["blowlab", "cli", "fdoracle", "globalsolver", "hypgeo",
                       "meanprop", "nonlin"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"hypwave.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"hypwave.{name}.__all__ names missing {missing}"
