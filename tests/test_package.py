"""The package namespace: `import clawpoly` loads no submodule, and each
public name is imported from the module that defines it on first use."""

import importlib

import pytest
from conftest import bare_python

import clawpoly


def test_import_loads_no_submodule():
    code = "import sys, clawpoly; print(sorted(m for m in sys.modules if m.startswith('clawpoly.')))"
    assert bare_python(code).strip() == "[]"


@pytest.mark.parametrize("name", sorted(clawpoly._LAZY))
def test_lazy_name_is_its_modules_object(name):
    module = importlib.import_module(f"clawpoly.{clawpoly._LAZY[name]}")
    value = getattr(clawpoly, name)
    assert value is getattr(module, name)
    assert getattr(value, "__module__", None) == module.__name__
    assert name in dir(clawpoly)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        clawpoly.no_such_name  # noqa: B018
    assert not hasattr(clawpoly, "no_such_name")


def test_from_import_returns_the_submodule():
    from clawpoly import engine

    assert engine is importlib.import_module("clawpoly.engine")


def test_star_import_gets_every_public_name():
    namespace = {}
    exec("from clawpoly import *", namespace)
    assert set(clawpoly._LAZY) <= set(namespace)
