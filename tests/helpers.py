"""Small test helpers: the package's bundled configs, the trajectory CSV a
run writes, a bit-for-bit array comparison, one array in several memory
layouts, and a spy on the filter's reshaping and projection."""
from importlib import resources
from pathlib import Path

import numpy as np

from safecascade import reshaping
from safecascade.qp_solver import PolygonRows


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


def filter_calls(monkeypatch):
    """The offsets b of every set reshape_b_l gets and of every polygon
    PolygonRows.project gets, as the filter makes those calls."""
    seen = {"reshape": [], "project": []}
    reshape, project = reshaping.reshape_b_l, PolygonRows.project
    monkeypatch.setattr(reshaping, "reshape_b_l",
                        lambda s, cs, *args, **kw: seen["reshape"].append(cs.b) or reshape(s, cs, *args, **kw))
    monkeypatch.setattr(PolygonRows, "project",
                        lambda self, u0, b, **kw: seen["project"].append(b) or project(self, u0, b, **kw))
    return seen


def layouts(m, core: int = 1):
    """(name, array) for m (..., *core) in three memory layouts with m's
    values: C order, Fortran order, and the transposed view of a C-order
    (*core, ...) buffer, as the batch code hands out its results."""
    m = np.asarray(m)
    k = m.ndim - core
    order = (*range(k, m.ndim), *range(k))
    return [("C", np.ascontiguousarray(m)), ("F", np.asfortranarray(m)),
            ("T", np.ascontiguousarray(m.transpose(order)).transpose(np.argsort(order)))]


class Raised(tuple):
    """An exception as (type, message), for comparing two outcomes."""


def outcome(fn):
    """fn()'s result, or the exception it raised as Raised((type, message))."""
    try:
        return fn()
    except Exception as exc:
        return Raised((type(exc), str(exc)))


def one_state_sets(seed: int, count: int):
    """Seeded one-state sets (a, b) of 1-4 unit rows: offsets across
    scales, some NaN, some a signed zero, and some with a second row
    opposite a negative first one and its offset on the pair condition's
    bound within a few tolerances, where the selection's checks decide.
    Some four-row sets have three rows opposite the first, each with an
    offset of about -4e-10: every pair meets the condition within its
    tolerance, but their sum, the selection, violates the first row by more
    than it. Some carry a NaN row with a positive offset, as a disc point
    far enough out for its gradient to overflow gives, half of them with
    every offset positive."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = 1 + k % 4
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
        a = np.column_stack([np.cos(angles), np.sin(angles)])
        b = rng.normal(size=n) * 10.0 ** rng.integers(-10, 1)
        if n >= 2 and k % 5 == 0:
            a[1] = -a[0]
            b[0] = -rng.uniform(0.1, 1.0)
            b[1] = -b[0] - rng.uniform(0.0, 3e-9)
            b[2:] = np.abs(b[2:]) + 10.0
        if n == 4 and k % 19 == 3:
            a[1:] = -a[0]
            b = np.array([-4.0e-10, -4.1e-10, -4.2e-10, -4.3e-10])
        if k % 11 == 0:
            b[rng.integers(n)] = np.nan
        if k % 13 == 0:
            b[rng.integers(n)] = (0.0, -0.0)[k % 2]
        if k % 17 == 0:
            a[-1] = np.nan
            b[-1] = 1.0
            if k % 2 == 0:
                b = np.abs(b) + 1e-3
        yield a, b
