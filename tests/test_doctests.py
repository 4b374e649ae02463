"""The ``>>>`` examples in the library docstrings stay true."""

import doctest
import importlib

import pytest

MODULES = ("valuation", "ghost", "polygon", "slopes", "prediction", "distribution", "wedge")


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    module = importlib.import_module(f"ghost_slopes.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0
