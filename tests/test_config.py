"""The config key tables: every default in its range, every range enforced
on its line, every key documented, and a config without obstacles."""
import re

import pytest

from safecascade import scenario
from safecascade.cli import EXIT_CONFIG, EXIT_OK, main
from safecascade.errors import ConfigError
from safecascade.reshaping import MAX_DIRECTIONS
from safecascade.scenario import KEYS, OBSTACLE_KEYS, build_scenario, parse_config_text

from helpers import bundled_config


def _entries():
    yield from KEYS.items()
    yield from ((f"obstacle.1.{sub}", spec) for sub, spec in OBSTACLE_KEYS.items())


# One value outside each declared range.
_OUT_OF_RANGE = {
    "plant.kind": "rocket",
    "plant.levels": "0",
    "plant.gravity_mps2": "inf",
    "plant.t2": "0.2928",
    "plant.t3": "1, 2, 3",
    "plant.t4": "4.1709, 0",
    "certificate.level": "0",
    "certificate.threshold": "nan",
    "rate.k_alpha": "-1",
    "nominal.value": "0.6, inf",
    # Three rows carry the coverage constant -1/2, which no reshaping can use.
    "reshape.directions": ("103", "3"),
    "reshape.k_phi": "-0.5",
    "cascade.k_tracking": "8, 0, 8",
    "cascade.tau": "0",
    "cascade.theta": "-1e-3",
    "cascade.gamma_12_slope": "nan",
    "cascade.gamma_x2v_slope": "inf",
    "cascade.k1": "three",
    "cascade.k1_grid": "1",
    "sim.x1_0_m": "1, 2, 3",
    "sim.workspace_m": "-3, 6, 12, -0.5",
    "output.csv": "../trajectory.csv",
    "output.svg": "",
    "output.metrics": "out/metrics.json",
    "obstacle.1.kind": "box",
    "obstacle.1.p1_m": "1",
    "obstacle.1.p2_m": "nan, 0",
    "obstacle.1.safe_distance_m": "0",
    "obstacle.1.center_m": "0, 0, 0",
    "obstacle.1.radius_m": "-1",
}


def test_every_default_passes_its_rule():
    for key, spec in _entries():
        if spec.default is not None and spec.ok is not None:
            assert spec.ok(spec.default), key


def test_every_ranged_key_has_an_out_of_range_case():
    assert set(_OUT_OF_RANGE) == {key for key, spec in _entries() if spec.ok is not None}


@pytest.mark.parametrize("key", sorted(_OUT_OF_RANGE))
def test_out_of_range_value_is_rejected_on_its_line(key):
    # Parsing alone rejects the value: reshape.directions = 103 builds
    # nothing on the way.
    stock = bundled_config("vtol_safe").read_text().splitlines()
    kept = [line for line in stock if not line.startswith(f"{key} ")]
    values = _OUT_OF_RANGE[key]
    for value in (values,) if isinstance(values, str) else values:
        text = "\n".join(kept + [f"{key} = {value}"]) + "\n"
        with pytest.raises(ConfigError, match=rf"^line {len(kept) + 1}: {re.escape(key)} must be "):
            parse_config_text(text)


@pytest.mark.parametrize("key, most", [
    ("cascade.k1_grid", scenario.MAX_K1_GRID),
])
def test_grid_and_sample_counts_stop_at_their_bound(key, most):
    # The estimate allocates grid^2 states before it runs, so a count past
    # its bound ended in a MemoryError; parsing alone now rejects such a
    # count, and nothing here builds or runs.
    assert parse_config_text(f"{key} = {most}\n")[key] == most
    with pytest.raises(ConfigError, match=rf"^line 1: {re.escape(key)} must be \d+ to {most}, got '{most + 1}'$"):
        parse_config_text(f"{key} = {most + 1}\n")


@pytest.mark.parametrize("key, value", [
    ("reshape.c_a", "0.99"),
    ("nominal.preset", "zero"),
    ("plant.block_dim", "2"),
    ("audit.samples", "2000"),
    ("audit.grid", "200"),
    ("seed", "0"),
])
def test_a_derived_constant_is_not_a_key(tmp_path, capsys, key, value):
    # reshape.c_a = 0.99 on vtol_safe.cfg ran and audited with exit 0, on a
    # basis that failed 500 of 500 coverage probes: the coverage constant
    # follows from reshape.directions. nominal.preset = zero said
    # nominal.value = 0, 0, and plant.block_dim had the one value 2. The
    # audits' sample count, grid and seed went with the sampling: both
    # audits are exact.
    cfg = tmp_path / "removed.cfg"
    cfg.write_text(bundled_config("vtol_safe").read_text() + f"{key} = {value}\n")
    out = tmp_path / "out"
    for argv in (["run", "--config", str(cfg), "--out", str(out), "--horizon", "0.01"],
                 ["audit", "--config", str(cfg)]):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"unknown key {key!r}" in captured.err and captured.out == ""
    assert not out.exists()


def test_every_direction_count_gives_a_basis_that_covers():
    text = bundled_config("vtol_safe").read_text()
    for n_l in range(5, MAX_DIRECTIONS + 1, 2):
        text = re.sub(r"^reshape\.directions = \d+$", f"reshape.directions = {n_l}", text, flags=re.M)
        basis = build_scenario(parse_config_text(text)).controller.rho1.basis
        assert basis.n_l == n_l and basis.report.uncovered_gaps == 0, n_l


def test_key_reference_names_every_key():
    documented = set(re.findall(r"^    (\S+)", scenario.__doc__, re.M))
    assert documented == set(KEYS) | {f"obstacle.<n>.{sub}" for sub in OBSTACLE_KEYS}


_NO_OBSTACLES = """\
plant.kind = integrator_chain
plant.levels = 4
nominal.value = 0.6, 1.0
cascade.k_tracking = 8.0, 320.0, 4.0e5
cascade.k1 = estimate
sim.x1_0_m = -2.0, 1.0
sim.workspace_m = -3.0, 6.0, -0.5, 12.0
"""


def test_config_without_obstacles_estimates_k1_runs_and_audits(tmp_path, capsys):
    # With no certificates the outer law is the nominal broadcast over the
    # estimate's grid rows; a bare (2,) nominal ended both commands in a
    # reshape traceback.
    cfg = tmp_path / "open.cfg"
    cfg.write_text(_NO_OBSTACLES)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--horizon", "0.01"]) == EXIT_OK
    assert "termination=completed" in capsys.readouterr().out
    assert main(["audit", "--config", str(cfg)]) == EXIT_OK
    assert "gain ledger (k1 = 0 estimated)" in capsys.readouterr().out
