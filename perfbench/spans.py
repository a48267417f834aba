"""Spans around the calls the lab and the CLI make into each library module.

Spans are recorded from the benchmark's side: while a :class:`Tracer` is
active, selected module attributes are swapped for timing wrappers and put
back on exit. Spans are aggregated in memory by key (total seconds, count),
with counters for solver iterations and failures by exception class.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from weibull_estlab import cli, likelihood, simlab

_clock = time.perf_counter


class Tracer:
    """Span totals and call counts by key, plus plain counters."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def record(self, key: str, seconds: float) -> None:
        self.seconds[key] += seconds
        self.calls[key] += 1

    def mean(self, key: str, scale: float = 1.0) -> float:
        calls = self.calls.get(key, 0)
        return self.seconds[key] / calls * scale if calls else 0.0

    def total(self, prefix: str) -> float:
        return sum(v for k, v in self.seconds.items() if k.startswith(prefix))

    # --- wrappers ---------------------------------------------------------

    def _timed(self, key, fn):
        """Wrap fn in a span named key(*args)."""
        def timed(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.record(key(*args), _clock() - t0)
        return timed

    def _fit_method(self, fn):
        def fit_method(name, s, options=None, weights=None):
            t0 = _clock()
            try:
                res = fn(name, s, options, weights)
            except Exception as exc:
                self.counts[f"methods.failed.{name}.{type(exc).__name__}"] += 1
                raise
            finally:
                self.record(f"methods.fit.{name}.n{s.n}", _clock() - t0)
            self.counts[f"roots.iters.{name}.n{s.n}"] += res.iterations
            return res
        return fit_method

    @contextmanager
    def active(self, store_key: str = "likelihood.store"):
        """Swap the traced call sites in; ``store_key`` labels WeightStore.get spans."""
        def weights_key(n, *_):
            return f"likelihood.weights.n{n}"

        targets = [
            (simlab, "sample",
             self._timed(lambda p, n, rng: f"core.sample.n{n}", simlab.sample)),
            (simlab, "fit_method", self._fit_method(simlab.fit_method)),
            (simlab, "simulate_weight_medians",
             self._timed(weights_key, simlab.simulate_weight_medians)),
            (likelihood, "simulate_weight_medians",
             self._timed(weights_key, likelihood.simulate_weight_medians)),
            (likelihood.WeightStore, "get",
             self._timed(lambda *_: store_key, likelihood.WeightStore.get)),
            (cli, "fit_method", self._fit_method(cli.fit_method)),
            (cli, "gof_report", self._timed(lambda *_: "gof.report", cli.gof_report)),
            (cli, "load_dataset", self._timed(lambda *_: "datasets.load", cli.load_dataset)),
        ]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
        for obj, attr, wrapper in targets:
            setattr(obj, attr, wrapper)
        try:
            yield self
        finally:
            for obj, attr, original in saved:
                setattr(obj, attr, original)
