"""The package's public names: exported lazily, each the very object of its home module."""

import importlib

import pytest

import kossprobe
from test_cli import run_fresh

EXPORTS = [name for name in kossprobe.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_its_home_modules_object(name):
    home = importlib.import_module(f"kossprobe.{kossprobe._HOME_OF[name]}")
    assert name in vars(home)
    assert getattr(kossprobe, name) is vars(home)[name]


def test_star_import_binds_every_export():
    namespace = {}
    exec("from kossprobe import *", namespace)
    assert kossprobe.__all__ == ["__version__", *EXPORTS]
    assert all(namespace[name] is getattr(kossprobe, name) for name in kossprobe.__all__)


def test_dir_lists_every_export():
    assert set(kossprobe.__all__) <= set(dir(kossprobe))


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        kossprobe.no_such_name


def test_exports_bound_once_their_home_is_imported():
    # a fresh interpreter, so that no home module is loaded before the probe
    script = (
        "import json, kossprobe\n"
        "before = sorted(vars(kossprobe).keys() & set(kossprobe.__all__))\n"
        "import kossprobe.probe\n"
        "after = vars(kossprobe)\n"
        "print(json.dumps([before, 'forward' in after, 'd_tilde' in after, 'run' in after,\n"
        "                  after['forward'] is kossprobe.probe.forward]))\n"
    )
    assert run_fresh(script) == [["__version__"], True, True, False, True]
