"""The package's public names: exported lazily, each the very object of its home module."""

import dataclasses
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


def _records():
    """One of each frozen record that the per-item path builds, by the library's own calls."""
    co = kossprobe.coefficients(2.0)
    m = kossprobe.build_matrix_programmatic(co, 0.3)
    c = kossprobe.KossakowskiMatrix(1.0, 0.1, -0.2, 0.8, 0.05, 0.6)
    rates = kossprobe.forward(c, co, 0.3)
    result = kossprobe.invert_noisy(rates, [0.01] * 6, m)
    return {"ScatteringCoefficients": co, "ProbeMatrix": m, "KossakowskiMatrix": c,
            "ProbeResult": rates, "InversionResult": result}


@pytest.mark.parametrize("name", ["ScatteringCoefficients", "ProbeMatrix", "KossakowskiMatrix",
                                  "ProbeResult", "InversionResult"])
def test_records_keep_their_dataclass_behaviour(name):
    record = _records()[name]
    names = [f.name for f in dataclasses.fields(record)]
    assert type(record).__name__ == name and names == list(vars(type(record))["__annotations__"])
    assert repr(record).startswith(f"{name}({names[0]}=")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, names[0], getattr(record, names[0]))
    copy = dataclasses.replace(record)
    assert copy == record and copy is not record
    keywords = {f.name: getattr(record, f.name) for f in dataclasses.fields(record) if f.init}
    assert type(record)(**keywords) == record
    if name in ("ScatteringCoefficients", "KossakowskiMatrix"):
        assert hash(copy) == hash(record)


def test_replace_runs_the_entry_checks():
    c = kossprobe.KossakowskiMatrix.identity()
    assert type(dataclasses.replace(c, c22=2).c22) is float
    with pytest.raises(ValueError, match="real and finite"):
        dataclasses.replace(c, c11=float("nan"))
