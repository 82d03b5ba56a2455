"""Every name a module exports through __all__ exists."""

import importlib

import pytest

import trispec


@pytest.mark.parametrize("module", trispec.__all__)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"trispec.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
