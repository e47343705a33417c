"""Test-side readers of a built model and of exported files.

The parameter enumeration lives here, not in ``gswin.analysis``, so that the
closed-form ``count_params`` is checked against code that does not sit beside it.
"""
import csv
from pathlib import Path

import numpy as np

from gswin.model import GswinModel
from gswin.tensor import Parameter


def enumerate_params(model: GswinModel) -> dict[str, int]:
    """Instantiated-model scalar counts grouped like count_params' breakdown."""
    per: dict[str, int] = {}
    for p in model.parameters():
        parts = p.name.split(".")
        key = ".".join(parts[:2]) if parts[0] in ("stages", "merges") else parts[0]
        per[key] = per.get(key, 0) + p.size
    return per


def param(model: GswinModel, name: str) -> Parameter:
    """The model's parameter called ``name``."""
    (found,) = (p for p in model.parameters() if p.name == name)
    return found


def read_weight_csv(path: str | Path) -> np.ndarray:
    """A mixing-weight CSV written by ``export_weight_maps``, as a float array."""
    with open(path, newline="") as f:
        rows = [[float(v) for v in row] for row in csv.reader(f)]
    return np.array(rows)
