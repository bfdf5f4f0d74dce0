"""The streaming CSV writers against the whole-file formulas they replaced.

The writers format CSV_BLOCK_ROWS rows at a time; the bytes must be those of
the row-by-row string in tests/oracles.py for any row count and any block
size, and the memory a write takes must not grow with the file.
"""
import tracemalloc

import numpy as np
import pytest
from oracles import field_csv_text, trajectory_csv_text

from safecascade import cli, output
from safecascade.output import CSV_BLOCK_ROWS, write_trajectory_csv
from safecascade.sim import Trajectory

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -1e-300, 1.0 / 3.0, 123456789012.0]


def synthetic_trajectory(rows: int, levels: int = 4, n_certs: int = 2, seed: int = 0) -> Trajectory:
    """Random rows over many decades, with the special values scattered in."""
    rng = np.random.default_rng(seed)

    def column_block(width):
        block = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-12, 12, size=(rows, width))
        mask = rng.random(size=block.shape) < 0.05
        block[mask] = rng.choice(SPECIAL, size=int(mask.sum()))
        return block

    return Trajectory(
        times=np.arange(rows) * 1e-3,
        states=column_block(2 * levels),
        inputs=column_block(2),
        virtual_controls=column_block(2 * levels),
        margins_h=column_block(n_certs),
        margins_v=column_block(n_certs),
        termination="completed",
    )


@pytest.mark.parametrize("n_certs", [0, 2])
@pytest.mark.parametrize("rows", [1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 3 * CSV_BLOCK_ROWS + 17])
def test_trajectory_csv_bytes_match_the_whole_file_formula(tmp_path, rows, n_certs):
    traj = synthetic_trajectory(rows, n_certs=n_certs, seed=rows)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, traj)
    assert path.read_bytes() == trajectory_csv_text(traj).encode()


def test_special_values_print_as_before(tmp_path):
    values = np.array(SPECIAL)
    traj = Trajectory(times=values, states=np.column_stack([values, values]),
                      inputs=np.column_stack([values, values[::-1]]),
                      virtual_controls=np.column_stack([values, values, values]),
                      margins_h=np.empty((values.size, 0)), margins_v=np.empty((values.size, 0)),
                      termination="completed")
    path = tmp_path / "special.csv"
    write_trajectory_csv(path, traj)
    text = path.read_text()
    assert text == trajectory_csv_text(traj)
    assert text.splitlines()[1].split(",")[:3] == ["nan", "nan", "nan"]
    assert {"inf", "-inf", "-0", "1e-300"} <= set(text.replace("\n", ",").split(","))


@pytest.mark.parametrize("block_rows", [1, 7, 10_000])
def test_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, block_rows):
    traj = synthetic_trajectory(100, seed=3)
    monkeypatch.setattr(output, "CSV_BLOCK_ROWS", block_rows)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, traj)
    assert path.read_text() == trajectory_csv_text(traj)


def test_empty_trajectory_writes_the_header_line(tmp_path):
    traj = synthetic_trajectory(0)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, traj)
    assert path.read_text() == trajectory_csv_text(traj)
    assert path.read_text().count("\n") == 1


def test_bad_block_dimension_creates_no_file(tmp_path):
    traj = synthetic_trajectory(5)
    bad = Trajectory(times=traj.times, states=traj.states[:, :7], inputs=traj.inputs,
                     virtual_controls=traj.virtual_controls, margins_h=traj.margins_h,
                     margins_v=traj.margins_v, termination="completed")
    path = tmp_path / "trajectory.csv"
    with pytest.raises(ValueError, match="block dimension"):
        write_trajectory_csv(path, bad)
    assert not path.exists()


def test_trajectory_write_memory_does_not_grow_with_the_file(tmp_path):
    # A 25,001-row, 4-level, 2-certificate run: the whole-file string and its
    # two copies took about 18 MB; a block of formatted rows takes about 1.4 MB.
    traj = synthetic_trajectory(25_001)
    path = tmp_path / "trajectory.csv"
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        write_trajectory_csv(path, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 4_000_000
    assert peak < 2_000_000, f"write peaked at {peak / 1e6:.1f} MB"


def test_field_csv_bytes_match_the_nested_loop_formula(tmp_path):
    xs = np.linspace(-2.5, 2.5, 37)
    ys = np.linspace(-2.5, 2.5, 29)
    rng = np.random.default_rng(2)
    field = rng.random((xs.size, ys.size)) * 10.0 ** rng.integers(-9, 9, size=(xs.size, ys.size))
    field[rng.random(field.shape) < 0.1] = np.nan
    field[0, 0], field[-1, -1] = -0.0, np.inf
    path = tmp_path / "field.csv"
    cli._field_csv(path, xs, ys, field)
    assert path.read_text() == field_csv_text(xs, ys, field)
    assert len(path.read_text().splitlines()) == 1 + xs.size * ys.size
