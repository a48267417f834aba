"""The public names resolve, so do the attributes the benchmark harness uses,
every batch estimator takes the same input, and every entry point that reads
observations checks them alike.

`perfbench/` reads or swaps these module attributes to time a run; a name
deleted from the package must not silently break a traced run.
"""

import importlib
import inspect
import math
import pkgutil
import re

import numpy as np
import pytest

import weibull_estlab
from weibull_estlab import (
    DataError,
    SortedSample,
    WeibullParams,
    cdf,
    cvm_distance,
    gof_report,
    gof_reports,
    kernel_h1,
    kernel_h2,
    ks_distance,
    pdf,
)
from weibull_estlab.datasets import parse_dataset_text
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


P = WeibullParams(2.0, 3.0)

# entry point -> (its call on five observations x, the position there of x[2])
READERS = {
    "SortedSample.from_data": (SortedSample.from_data, 3),
    "parse_dataset_text": (lambda x: parse_dataset_text(
        "# header\n" + "\n".join(map(str, x)), "d", "d.txt"), 3),
    "pdf": (lambda x: pdf(P, x), 3),
    "pdf_scalar": (lambda x: pdf(P, x[2]), 1),
    "cdf": (lambda x: cdf(P, x), 3),
    "cdf_2x3": (lambda x: cdf(P, np.array([*x, 4.0]).reshape(2, 3)), 3),
    "gof_report": (lambda x: gof_report(x, P), 3),
    "gof_report_sorted_sample": (lambda x: gof_report(
        SortedSample(np.array(x), np.zeros(len(x)), len(x)), P), 3),
    "gof_reports": (lambda x: gof_reports(x, [P, WeibullParams(1.0, 1.0)]), 3),
    "ks_distance": (lambda x: ks_distance(x, P), 3),
    "cvm_distance": (lambda x: cvm_distance(x, P), 3),
    "kernel_h1": (lambda x: kernel_h1(x[0], x[2]), 2),
    "kernel_h2": (lambda x: kernel_h2(x[0], x[2]), 2),
}


@pytest.mark.parametrize("bad", [0.0, -2.5, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("reader", READERS)
def test_observations_are_checked_in_the_callers_order(reader, bad):
    # position 3 is no sorted position of any bad value: a check after a
    # sort would name another
    call, position = READERS[reader]
    with pytest.raises(DataError, match=(rf"observation {position} is not a positive finite "
                                         rf"real \({re.escape(str(bad))}\)$")):
        call([3.0, 1.0, bad, 5.0, 2.0])


def test_gof_needs_one_observation():
    with pytest.raises(ValueError, match="^need at least one observation$"):
        ks_distance([], P)
