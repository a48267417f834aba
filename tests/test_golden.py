"""Golden outputs: the CLI's byte-reproducible files, regenerated and compared byte for byte.

The files under ``tests/golden/`` are the metric and plot CSVs of
``simulate --preset table1 --reps 300`` and ``--preset table3 --reps 100``,
the ``fit --methods all --out`` document of the bundled lifetime48 dataset
and the ``weights --n 5,10,30`` table, all at the default seed 1729. A change
that leaves every output alone leaves them untouched; a deliberate output
change rewrites them with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from weibull_estlab.cli import EXIT_OK, main
from weibull_estlab.likelihood import WEIGHTS_ENV_VAR

GOLDEN = Path(__file__).with_name("golden")
SIMULATIONS = (("table1", 300), ("table3", 100))
SIM_FILES = ("metrics.csv", "plot_bias_alpha.csv", "plot_bias_beta.csv",
             "plot_rmse_alpha.csv", "plot_rmse_beta.csv")
FILES = tuple(f"{preset}/{name}" for preset, _ in SIMULATIONS for name in SIM_FILES) + (
    "fit_lifetime48.json", "weights.txt")


def generate(out: Path, workers: int) -> None:
    """Write every golden file under ``out`` (plus the simulations' manifests)."""
    with tempfile.TemporaryDirectory() as cache, contextlib.redirect_stdout(io.StringIO()):
        previous = os.environ.get(WEIGHTS_ENV_VAR)
        os.environ[WEIGHTS_ENV_VAR] = str(Path(cache) / "weights.txt")  # fit's WMLE cache
        try:
            runs = [["simulate", "--preset", preset, "--reps", str(reps),
                     "--workers", str(workers), "--out-dir", str(out / preset)]
                    for preset, reps in SIMULATIONS]
            runs.append(["fit", "--methods", "all", "--out", str(out / "fit_lifetime48.json")])
            runs.append(["weights", "--n", "5,10,30", "--out", str(out / "weights.txt")])
            for argv in runs:
                if main(argv) != EXIT_OK:
                    raise RuntimeError(f"{argv} did not exit {EXIT_OK}")
        finally:
            if previous is None:
                del os.environ[WEIGHTS_ENV_VAR]
            else:
                os.environ[WEIGHTS_ENV_VAR] = previous


@pytest.mark.parametrize("workers", [1, 2])
def test_outputs_match_golden_files(tmp_path, workers):
    generate(tmp_path, workers)
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_golden_directory_holds_exactly_the_golden_files():
    present = {p.relative_to(GOLDEN).as_posix() for p in GOLDEN.rglob("*") if p.is_file()}
    assert present == set(FILES) | {"README"}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        generate(Path(work), workers=1)
        for name in FILES:
            (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(Path(work) / name, GOLDEN / name)
    print(f"rewrote {len(FILES)} files under {GOLDEN}", file=sys.stderr)
