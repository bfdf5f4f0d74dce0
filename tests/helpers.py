"""Small test helpers that read the package's files: bundled configs and
the trajectory CSV a run writes."""
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
