"""The public names resolve, so do the attributes the benchmark harness uses,
and every batch estimator takes the same input.

`perfbench/` reads or swaps these module attributes to time a run; a name
deleted from the package must not silently break a traced run.
"""

import importlib
import inspect
import pkgutil
import re

import pytest

import weibull_estlab
from weibull_estlab.regression import LogStats

MODULES = sorted(m.name for m in pkgutil.iter_modules(weibull_estlab.__path__))

HARNESS_ATTRIBUTES = (
    "simlab.sample",
    "simlab.fit_method",
    "simlab.simulate_weight_medians",
    "likelihood.simulate_weight_medians",
    "likelihood.WeightStore.get",
    "likelihood.DEFAULT_WEIGHT_REPLICATIONS",
    "likelihood.default_weights_path",
    "cli.fit_method",
    "cli.gof_report",
    "cli.load_dataset",
    "cli.PRESETS",
    "methods.fit_method",
    "core.sample",
)


def test_package_exports_resolve():
    for name in weibull_estlab.__all__:
        assert hasattr(weibull_estlab, name), name


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"weibull_estlab.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"{module}.{name}"


@pytest.mark.parametrize("path", HARNESS_ATTRIBUTES)
def test_harness_attributes_resolve(path):
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"weibull_estlab.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert obj is not None


def test_batch_fits_take_log_stats_first():
    # every estimator's batch function reads one block's LogStats
    found = []
    for module in MODULES:
        mod = importlib.import_module(f"weibull_estlab.{module}")
        for name in getattr(mod, "__all__", ()):
            if re.fullmatch(r"fit_\w+_batch", name):
                first = next(iter(inspect.signature(getattr(mod, name), eval_str=True).parameters.values()))
                found.append((f"{module}.{name}", first.name, first.annotation))
    assert len(found) == 10
    assert [f for f in found if f[1:] != ("stats", LogStats)] == []
