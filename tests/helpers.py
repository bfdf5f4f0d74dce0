"""Small test helpers: the package's bundled configs, the trajectory CSV a
run writes, and a bit-for-bit array comparison."""
from importlib import resources
from pathlib import Path

import numpy as np


def bundled_config(name: str) -> Path:
    """Path of a bundled scenario config (vtol_safe or vtol_unsafe)."""
    return Path(str(resources.files("safecascade.configs").joinpath(f"{name}.cfg")))


def read_trajectory_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    text = Path(path).read_text().strip().splitlines()
    header = text[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in text[1:]])
    return header, data


def assert_same_bits(got, want) -> None:
    """Equal arrays down to the sign of zero, NaN where the other is NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()
