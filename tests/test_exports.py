"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import importlib
import pkgutil

import pytest

import pdsvqs

MODULES = ["pdsvqs"] + [
    f"pdsvqs.{info.name}" for info in pkgutil.iter_modules(pdsvqs.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
