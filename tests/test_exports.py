"""Every name a ``simpool`` module exports exists, so ``import *`` works."""

import importlib
import pkgutil

import pytest

import simpool

MODULES = sorted(m.name for m in pkgutil.iter_modules(simpool.__path__))


def test_modules_are_found():
    assert {"autodiff", "data", "layers", "model", "training"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"simpool.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
