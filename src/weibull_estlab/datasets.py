"""Dataset ingestion and the bundled lifetime fixture."""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import check_observations
from .errors import DataError

__all__ = ["Dataset", "BUNDLED_LIFETIME", "parse_dataset", "parse_dataset_text", "load_dataset", "lifetime48"]

BUNDLED_LIFETIME = "bundled:lifetime48"


@dataclass(frozen=True)
class Dataset:
    """Named positive observations and where they came from."""

    name: str
    observations: np.ndarray
    source: str

    @property
    def n(self) -> int:
        return int(self.observations.size)


def _validate(values: list[float], name: str, source: str) -> Dataset:
    if not values:
        raise DataError(f"{source}: no observations found")
    arr = np.asarray(values, dtype=float)
    try:
        check_observations(arr)
    except DataError as exc:
        raise DataError(f"{source}: {exc}") from None
    arr.flags.writeable = False
    return Dataset(name=name, observations=arr, source=source)


def parse_dataset_text(text: str, name: str, source: str) -> Dataset:
    """Parse one-observation-per-line or whitespace/comma-separated values.

    Lines starting with '#' are ignored. Raises DataError with the line
    number on unparseable tokens and with the observation index on
    positivity violations.
    """
    values: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        for token in line.replace(",", " ").split():
            try:
                values.append(float(token))
            except ValueError:
                raise DataError(f"{source}:{lineno}: cannot parse {token!r} as a number")
    return _validate(values, name, source)


def parse_dataset(path) -> Dataset:
    """Read and parse a dataset file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise DataError(f"cannot read dataset {p}: {exc}") from exc
    return parse_dataset_text(text, name=p.stem, source=str(p))


def lifetime48() -> Dataset:
    """The bundled 48-point lifetime dataset (years)."""
    text = resources.files("weibull_estlab.data").joinpath("lifetime48.txt").read_text()
    ds = parse_dataset_text(text, name="lifetime48", source=BUNDLED_LIFETIME)
    if ds.n != 48:
        raise DataError(f"bundled lifetime dataset corrupted: expected 48 points, got {ds.n}")
    return ds


def load_dataset(spec: str) -> Dataset:
    """Resolve 'bundled:lifetime48' or a filesystem path."""
    if spec == BUNDLED_LIFETIME:
        return lifetime48()
    if spec.startswith("bundled:"):
        raise DataError(f"unknown bundled dataset {spec!r}; available: {BUNDLED_LIFETIME}")
    return parse_dataset(spec)
