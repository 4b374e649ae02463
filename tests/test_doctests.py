"""The ``>>>`` examples in the library docstrings and the README stay true,
and the package root exports what it names."""

import doctest
import importlib
from pathlib import Path

import pytest

MODULES = ("valuation", "ghost", "polygon", "slopes", "prediction", "distribution", "wedge")


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    module = importlib.import_module(f"ghost_slopes.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_examples():
    # the README's Library example pins the names the package root promises
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0


def test_package_root_resolves():
    # ``import *`` raises AttributeError on a name in ``__all__`` the root does not bind
    names = {}
    exec("from ghost_slopes import *", names)
    assert set(importlib.import_module("ghost_slopes").__all__) <= names.keys()
