"""Golden outputs: the CLI's byte-reproducible files, regenerated and compared byte for byte.

The files under ``tests/golden/`` are the metric and plot CSVs of
``simulate --preset table1 --reps 300`` and ``--preset table3 --reps 100``,
the ``fit --methods all --out`` document of the bundled lifetime48 dataset,
its ``gof --alpha 4.5922 --beta 26.9452 --out`` document and the
``weights --n 5,10,30`` table, all at the default seed 1729. A change
that leaves every output alone leaves them untouched; a deliberate output
change rewrites them with

    PYTHONPATH=src python tests/test_golden.py

which prints, per file, whether it changed and the largest relative change
of its numeric fields, and says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
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
    "fit_lifetime48.json", "gof_lifetime48.json", "weights.txt")


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
            runs.append(["gof", "--alpha", "4.5922", "--beta", "26.9452",
                         "--out", str(out / "gof_lifetime48.json")])
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


def numeric_fields(text: str) -> list[float]:
    """The fields of a golden file that read as floats, in file order."""
    fields = []
    for token in re.split(r'[\s,:"{}\[\]]+', text):
        try:
            fields.append(float(token))
        except ValueError:
            pass
    return fields


def change_report(old: bytes | None, new: bytes) -> str:
    """Whether a golden file changed, and how much its numeric fields moved."""
    if old == new:
        return "unchanged"
    if old is None:
        return "new file"
    a, b = numeric_fields(old.decode()), numeric_fields(new.decode())
    if len(a) != len(b):
        return f"changed: {len(a)} -> {len(b)} numeric fields"
    moved = [(x, y) for x, y in zip(a, b) if not (x == y or math.isnan(x) and math.isnan(y))]
    largest = max((abs(y - x) / abs(x) if x else math.inf for x, y in moved), default=0.0)
    return (f"changed: {len(moved)} of {len(a)} numeric fields, "
            f"largest relative change {largest:.3g}")


def test_change_report():
    assert change_report(b"a,1.0\n", b"a,1.0\n") == "unchanged"
    assert change_report(b"MLE,5,2.0,nan\n", b"MLE,5,2.5,nan\n") == \
        "changed: 1 of 3 numeric fields, largest relative change 0.25"
    assert change_report(b'{"GLS1.alpha": 1}', b'{"GLS1.alpha": 1, "n": 2}') == \
        "changed: 1 -> 2 numeric fields"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        generate(Path(work), workers=1)
        for name in FILES:
            target = GOLDEN / name
            new = (Path(work) / name).read_bytes()
            print(f"{name}: {change_report(target.read_bytes() if target.exists() else None, new)}")
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(new)
    print(f"rewrote {len(FILES)} files under {GOLDEN}", file=sys.stderr)
