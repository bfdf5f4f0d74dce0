import argparse
import contextlib
import functools
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import safecascade
from safecascade import cli, reshaping, scenario
from safecascade.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_SIM,
    cmd_audit,
    cmd_basis_check,
    cmd_example1,
    cmd_example2,
    cmd_run,
    main,
)
from safecascade.errors import ConfigError
from safecascade.output import SCHEMA_VERSION, validate_metrics
from safecascade.scenario import (KEYS, MAX_STEPS, OBSTACLE_KEYS, DesignReport, build_scenario,
                                  check_time_grid, load_scenario, parse_config_text)

from helpers import bundled_config, read_trajectory_csv


def test_bundled_configs_parse_with_stock_values():
    cfg = load_scenario(bundled_config("vtol_safe"))
    assert cfg.get("cascade.k_tracking") == (8.0, 320.0, 4.0e5)
    assert cfg.get("rate.k_alpha") == 1.0
    assert cfg.get("reshape.directions") == 11
    assert cfg.get("reshape.k_phi") == 2.0
    assert cfg.get("cascade.tau") == 1.001
    assert cfg.get("cascade.theta") == 0.001
    assert cfg.get("cascade.k1") == "3.49"
    assert cfg.get("sim.x1_0_m") == (-2.0, 1.0)
    assert cfg.get("certificate.threshold") == 1.4
    assert len(cfg.obstacles) == 2
    assert cfg.obstacles[0]["p1_m"] == (-2.5, 1.5)
    assert cfg.obstacles[0]["p2_m"] == (1.5, 2.0)
    assert cfg.obstacles[1]["p1_m"] == (-2.5, 0.5)
    assert cfg.obstacles[1]["p2_m"] == (2.5, 0.5)
    assert cfg.obstacles[0]["safe_distance_m"] == 0.35
    assert cfg.source_hash.startswith("sha256:")
    unsafe = load_scenario(bundled_config("vtol_unsafe"))
    assert unsafe.get("cascade.k_tracking") == (8.0, 8.0, 8.0)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("plant.kind = integrator_chain\nmystery.knob = 3\n")
    with pytest.raises(ConfigError):
        parse_config_text("obstacle.1.sharpness = 4\n")


def test_malformed_lines_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError):
        parse_config_text("plant.kind integrator_chain\n")
    with pytest.raises(ConfigError):
        parse_config_text("sim.dt_s = not_a_number\n")
    with pytest.raises(ConfigError):
        parse_config_text("sim.dt_s = 1e-3\nsim.dt_s = 1e-3\n")
    with pytest.raises(ConfigError):
        parse_config_text("obstacle.1.kind = segment\nobstacle.1.p1_m = 0, 0\n")
    # Obstacle keys: a repeated key and a non-numeric vector name their line
    # and make the run exit with the config code.
    stock = bundled_config("vtol_safe").read_text()
    lines = stock.splitlines()
    cases = {
        "duplicate": (stock + "obstacle.1.safe_distance_m = 0.5\n", len(lines) + 1),
        "non_numeric": (stock.replace("obstacle.2.p1_m = -2.5, 0.5", "obstacle.2.p1_m = -2.5, abc"),
                        lines.index("obstacle.2.p1_m = -2.5, 0.5") + 1),
    }
    for name, (text, lineno) in cases.items():
        with pytest.raises(ConfigError, match=f"line {lineno}:"):
            parse_config_text(text)
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == EXIT_CONFIG
        assert f"config error: line {lineno}:" in capsys.readouterr().err


def _with_key(text: str, key: str, value: str) -> str:
    kept = [line for line in text.splitlines() if not line.startswith(f"{key} ")]
    return "\n".join(kept + [f"{key} = {value}"]) + "\n"


@pytest.mark.parametrize("key, value, flags", [
    ("reshape.directions", "10", []),
    ("plant.levels", "0", []),
    ("reshape.k_phi", "-1", []),
    ("reshape.c_a", "1.5", []),
    ("sim.dt_s", "nan", []),
    ("sim.dt_s", "inf", []),
    ("sim.horizon_s", "0.0004", []),
    (None, None, ["--dt", "-1"]),
    (None, None, ["--horizon", "0"]),
    (None, None, ["--dt", "nan"]),
    # 1e13 steps: the run asked numpy for its trajectory arrays and ended in
    # a MemoryError traceback; the step count is refused before any is made.
    ("sim.dt_s", "1e-12", []),
    (None, None, ["--dt", "1e-12"]),
    (None, None, ["--dt", "5e-324"]),
])
def test_run_boundaries_exit_config(tmp_path, capsys, key, value, flags):
    text = bundled_config("vtol_safe").read_text()
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(_with_key(text, key, value) if key else text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)] + flags) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("obstacles", [True, False], ids=["obstacles", "no_obstacles"])
def test_three_directions_are_refused_when_parsed_by_run_and_audit(tmp_path, capsys, obstacles):
    # Three rows carry the coverage constant -1/2: with an obstacle the
    # scenario failed to build ("coverage constant -0.5 too small"), and
    # without one `run` went on with exit 0. Both commands now stop at the
    # config's line, naming the key, and write nothing.
    text = bundled_config("vtol_safe").read_text()
    if not obstacles:
        text = "\n".join(line for line in text.splitlines() if not line.startswith("obstacle.")) + "\n"
    cfg = tmp_path / "three.cfg"
    cfg.write_text(_with_key(_with_key(text, "sim.horizon_s", "0.01"), "reshape.directions", "3"))
    for argv in (["run", "--config", str(cfg), "--out", str(tmp_path / "out")], ["audit", "--config", str(cfg)]):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "reshape.directions must be odd, 5 to 101, got '3'" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("key, value", [
    ("certificate.level", "-1"),
    ("cascade.tau", "0"),
    ("cascade.k_tracking", "8, -1, 8"),
    ("rate.k_alpha", "0"),
    ("obstacle.1.safe_distance_m", "0"),
    ("certificate.threshold", "0.5"),
    ("cascade.theta", "nan"),
    ("nominal.value", "nan, 1"),
    ("cascade.gamma_12_slope", "0"),
    ("cascade.gamma_x2v_slope", "nan"),
    ("cascade.k1", "-1"),
    ("cascade.k1", "nan"),
    ("sim.x1_0_m", "nan, 1"),
    ("cascade.k1_grid", "1"),
    ("sim.workspace_m", "6, -3, -0.5, 12"),
    ("sim.workspace_m", "-3, 6, -0.5, inf"),
    ("plant.gravity_mps2", "nan"),
    ("plant.t2", "0.2928, -1"),
    ("plant.t3", "nan, 29.7555"),
    ("plant.t4", "0, 113.3872"),
])
def test_run_rejects_invalid_key_values(tmp_path, capsys, key, value):
    # Each value is out of range; the short horizon keeps a run that
    # wrongly accepts one fast.
    text = _with_key(bundled_config("vtol_safe").read_text(), "sim.horizon_s", "0.01")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_with_key(text, key, value))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("audit.samples", "0"),
    ("audit.grid", "0"),
    ("cascade.k1_grid", "1"),
])
def test_audit_rejects_invalid_key_values(tmp_path, capsys, key, value):
    # audit.samples = 0 ended in a traceback, audit.grid = 0 printed a pass
    # resting on no sample (both keys went with the sampling, and a config
    # that sets one is refused as an unknown key), and a one-point k1 grid
    # estimated k1 = 0.
    text = _with_key(bundled_config("vtol_safe").read_text(), "cascade.k1", "estimate")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_with_key(text, key, value))
    assert main(["audit", "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error" in captured.err and "Traceback" not in captured.err
    assert "holds" not in captured.out


@pytest.mark.parametrize("command", [
    ["example1", "--out", "OUT", "--radius", "1.0"],
    ["example1", "--out", "OUT", "--radius", "0"],
    ["example2", "--out", "OUT", "--radius", "nan"],
    ["example2", "--out", "OUT", "--radius", "abc"],
    ["example1", "--out", "OUT", "--grid", "1"],
    ["basis-check", "--n-l", "eleven"],
    ["basis-check", "--n-l", "103"],
    ["example1", "--out", "OUT", "--grid", str(cli.MAX_FIELD_GRID + 1)],
    ["example2", "--out", "OUT", "--grid", str(cli.MAX_FIELD_GRID + 1)],
])
def test_cli_values_out_of_range_are_usage_errors(tmp_path, capsys, command):
    # A radius of 1 divided by zero, 0 left no gap, and NaN wrote a NaN
    # report.
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path / "out") if a == "OUT" else a for a in command])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{command[-2].lstrip('-')} must be" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["basis-check", "--n-u", "2"], ["basis-check", "--n-u=2", "--n-l", "11"]])
def test_basis_check_has_no_input_dimension_option(capsys, command):
    # The package is planar, so basis-check builds only bases of the plane:
    # --n-u is an unknown argument, argparse's usage error.
    with pytest.raises(SystemExit) as exc:
        main(command)
    assert exc.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_field_grid_stops_at_its_bound():
    # An example grid holds grid^2 states, so parsing alone decides: the
    # bound passes, one more is a usage error.
    most = cli.MAX_FIELD_GRID
    assert cli._grid(str(most)) == most
    with pytest.raises(argparse.ArgumentTypeError, match=rf"must be \d+ to {most}, got '{most + 1}'$"):
        cli._grid(str(most + 1))


@pytest.mark.parametrize("command", [
    ["example2", "--out", "OUT", "--grid", "3"],
    ["example2", "--out", "OUT", "--radius", "0.5"],
])
def test_negative_seed_override_is_a_usage_error(tmp_path, capsys, command):
    # numpy rejects negative seeds; example2 ended in a traceback. Parsing
    # refuses the seed, so the default 101-point sweep never starts.
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "seed must be nonnegative" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# Replacement values for the config fuzz: every kind of token a key can
# meet, none large enough to make build_scenario allocate or loop much.
_FUZZ_TOKENS = ["", "0", "1", "-1", "2", "3", "0.5", "1e-3", "nan", "inf", "-inf", "1e300",
                "abc", "1, 2", "1, 2, 3, 4", "segment", "disc", "estimate", "zero",
                "integrator_chain", "velocity_loop", "vtol_nonlinear", "=", "#"]
# Every key the tables declare, so a new key is fuzzed as soon as it exists.
_FUZZ_KEYS = [*KEYS, *(f"obstacle.{n}.{sub}" for n in (1, 2) for sub in OBSTACLE_KEYS),
              "obstacle.3.center_m", "obstacle.3.kind", "unknown.key"]


@st.composite
def _mutated_config(draw):
    lines = bundled_config(draw(st.sampled_from(["vtol_safe", "vtol_unsafe"]))).read_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["value", "key", "drop", "duplicate", "truncate"]))
        line = lines[k]
        if op == "value" and "=" in line:
            lines[k] = line.split("=", 1)[0] + "= " + draw(st.sampled_from(_FUZZ_TOKENS))
        elif op == "key":
            lines[k] = draw(st.sampled_from(_FUZZ_KEYS)) + " = " + draw(st.sampled_from(_FUZZ_TOKENS))
        elif op == "drop":
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, line)
        else:
            lines[k] = line[:draw(st.integers(0, len(line)))]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_mutated_config())
def test_mutated_configs_raise_only_config_errors(text):
    # A mutated config either builds or raises ConfigError; anything else
    # would reach the user as a traceback. k1 is numeric, so no example
    # runs the grid estimate.
    try:
        cfg = parse_config_text(text)
        if cfg.get("cascade.k1", "estimate") == "estimate":
            cfg.raw["cascade.k1"] = "3.49"
        build_scenario(cfg)
    except ConfigError:
        pass


_K1_LINE = re.compile(r"^cascade\.k1\s*=.*\n?", re.M)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_mutated_config())
def test_mutated_configs_run_to_a_documented_exit_code(text):
    # A short run of a mutated config ends in success, a config error or a
    # simulation error, never in a traceback. k1 is numeric, so no example
    # runs the grid estimate.
    text = _K1_LINE.sub("", text) + "cascade.k1 = 3.49\n"
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text)
        code = main(["run", "--config", str(cfg), "--out", str(Path(tmp) / "out"),
                     "--dt", "1e-3", "--horizon", "0.01"])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SIM)
    assert "Traceback" not in err.getvalue()


# The exit-code contract over the whole key table: each of these values in
# place of each config key, and of each numeric command-line value.
_HOSTILE = ["nan", "inf", "-inf", "-1", "0", "1e-300", "1e300", "", "abc", "3",
            "1.5", "1, 2", "1, 2, 3", "1, nan"]
# A third obstacle, a disc, gives the disc keys an obstacle that reads them.
_THIRD_DISC = "obstacle.3.kind = disc\nobstacle.3.center_m = 3.5, 6.0\nobstacle.3.radius_m = 0.5\n"


def _exit_code(argv: list[str]):
    """main's exit code for argv (a usage error's too), with RuntimeWarning
    as an error; any exception, or a traceback printed, is returned as text."""
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = repr(exc)
    return err.getvalue() if "Traceback" in err.getvalue() else code


def test_every_key_and_flag_with_hostile_values_ends_in_a_documented_exit_code(tmp_path):
    # Each config is vtol_safe.cfg with one key replaced: the obstacle keys
    # on obstacle 1 (a segment), the disc keys on the third, a disc.
    base = bundled_config("vtol_safe").read_text() + _THIRD_DISC
    cfg, out, safe = str(tmp_path / "fuzz.cfg"), str(tmp_path / "out"), str(bundled_config("vtol_safe"))
    keys = [*KEYS, *(f"obstacle.{3 if sub in ('center_m', 'radius_m') else 1}.{sub}"
                     for sub in OBSTACLE_KEYS)]
    bad = []
    for key, value in itertools.product(keys, _HOSTILE):
        Path(cfg).write_text(_with_key(base, key, value))
        for argv in (["run", "--config", cfg, "--out", out, "--horizon", "0.02"],
                     ["audit", "--config", cfg]):
            code = _exit_code(argv)
            if code not in (EXIT_OK, EXIT_CONFIG, EXIT_SIM):
                bad.append((key, value, argv[0], code))
    for value in _HOSTILE:
        for argv in (["run", "--config", safe, "--out", out, f"--dt={value}", "--horizon", "0.02"],
                     ["run", "--config", safe, "--out", out, "--dt", "0.01", f"--horizon={value}"],
                     ["example1", "--out", out, f"--radius={value}", "--grid", "3"],
                     ["example1", "--out", out, "--radius", "0.5", f"--grid={value}"],
                     ["example2", "--out", out, f"--radius={value}", "--grid", "3"],
                     ["example2", "--out", out, "--grid", "3", f"--seed={value}"],
                     ["basis-check", f"--n-l={value}"]):
            code = _exit_code(argv)
            if code not in (EXIT_OK, EXIT_CONFIG, EXIT_SIM):
                bad.append((argv, code))
    assert bad == []


@pytest.mark.parametrize("key, value, code", [
    # exp(27^2) overflowed in audit's upper end of V; 26.4^2 is below 700.
    ("obstacle.3.radius_m", "27", EXIT_CONFIG),
    ("obstacle.3.radius_m", "26.4", EXIT_OK),
    # exp(710) overflowed, with a numpy warning, in the certificate values.
    ("obstacle.1.safe_distance_m", "710", EXIT_CONFIG),
    ("obstacle.1.safe_distance_m", "700", EXIT_OK),
    # gamma_12^2 overflowed in the small-gain audit of run and of audit.
    ("cascade.gamma_12_slope", "1e155", EXIT_CONFIG),
    ("cascade.gamma_12_slope", "1e150", EXIT_OK),
])
def test_values_past_the_overflow_bounds_are_config_errors(tmp_path, capsys, key, value, code):
    # The third obstacle, a disc, moved far outside the workspace.
    text = _with_key(bundled_config("vtol_safe").read_text() + _THIRD_DISC,
                     "obstacle.3.center_m", "40, 40")
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(_with_key(text, key, value))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["audit", "--config", str(cfg)]) == code
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--horizon", "0.02"]) == code
    err = capsys.readouterr().err
    assert ("config error" in err) == (code == EXIT_CONFIG) and "Traceback" not in err


def test_nominal_past_its_bound_is_a_config_error(tmp_path, capsys):
    # At 1e16 the projection's edge stage cancelled to units: a 2-s run on
    # vtol_unsafe.cfg came to 0.011 m of a wall instead of 0.15 m, with exit 0.
    text = bundled_config("vtol_unsafe").read_text()
    for value, code in (("1e16, 1e16", EXIT_CONFIG), (f"{scenario.MAX_NOMINAL!r}, 1e6", EXIT_OK)):
        cfg = tmp_path / "nominal.cfg"
        cfg.write_text(_with_key(text, "nominal.value", value))
        out = tmp_path / value.replace(", ", "_")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg), "--out", str(out), "--horizon", "2"]) == code
    err = capsys.readouterr().err
    assert "nominal.value must be two finite numbers of magnitude at most 1e+06" in err
    assert not (tmp_path / "1e16_1e16").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["trajectory"]["min_clearance"] == pytest.approx(0.15, abs=1e-12)


def _largest_radius() -> float:
    """The largest disc radius_m the parser accepts."""
    ok = OBSTACLE_KEYS["radius_m"].ok
    radius = math.sqrt(scenario.MAX_CLEARANCE_DEPTH)
    while ok(math.nextafter(radius, math.inf)):
        radius = math.nextafter(radius, math.inf)
    while not ok(radius):
        radius = math.nextafter(radius, 0.0)
    return radius


_EVERY_BOUND = {"rate.k_alpha": "1e300", "cascade.theta": "1e4", "cascade.gamma_12_slope": "1e-3",
                "certificate.level": "1e-3"}


@pytest.mark.parametrize("keys, code", [
    # Each key in range alone, but theta V overflowed in the rate audit.
    ({"cascade.theta": "1e300", "obstacle.1.safe_distance_m": "20"}, EXIT_CONFIG),
    # V / gamma_12 overflowed in the rate audit.
    ({"cascade.gamma_12_slope": "1e-300", "obstacle.1.safe_distance_m": "700"}, EXIT_CONFIG),
    # alpha_bar's inverse, V / level, overflowed in the audit and in a run's offsets.
    ({"certificate.level": "1e-300", "obstacle.1.safe_distance_m": "700"}, EXIT_CONFIG),
    # k_alpha * log1p(V / level) overflowed in the audit and in a run's offsets.
    ({"rate.k_alpha": "1e307", "cascade.theta": "1e300", "obstacle.1.safe_distance_m": "700"},
     EXIT_CONFIG),
    # theta V overflowed at V = 1.01 thresholds.
    ({"certificate.threshold": "1e306", "cascade.theta": "1e4"}, EXIT_CONFIG),
    # Every bound at once keeps each product finite: at the deepest segment,
    # at the highest threshold, and in the largest disc, which holds the start.
    ({**_EVERY_BOUND, "obstacle.1.safe_distance_m": "700"}, EXIT_OK),
    ({**_EVERY_BOUND, "certificate.threshold": "1e300"}, EXIT_OK),
    ({**_EVERY_BOUND, "obstacle.3.kind": "disc", "obstacle.3.center_m": "0, 2",
      "obstacle.3.radius_m": repr(_largest_radius())}, EXIT_OK),
], ids=["theta", "gamma_12", "level", "k_alpha", "threshold", "deepest_segment", "highest_threshold",
        "largest_disc"])
def test_keys_in_range_together_keep_the_rate_products_finite(tmp_path, capsys, keys, code):
    text = bundled_config("vtol_safe").read_text()
    for key, value in keys.items():
        text = _with_key(text, key, value)
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["audit", "--config", str(cfg)]) == code
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--horizon", "0.02"]) == code
    err = capsys.readouterr().err
    assert ("config error" in err) == (code == EXIT_CONFIG) and "Traceback" not in err


def test_time_grid_holds_at_most_max_steps():
    check_time_grid(1.0, float(MAX_STEPS))
    with pytest.raises(ConfigError, match="more than"):
        check_time_grid(1.0, float(MAX_STEPS + 1))


def test_overflowing_tracking_gains_are_a_simulation_error(tmp_path, capsys):
    # Each K is inside its range, but K2 K3 K4 overflows the exact step's
    # block; the run ended in a "math domain error" traceback.
    text = _with_key(bundled_config("vtol_unsafe").read_text(), "sim.horizon_s", "0.01")
    cfg = tmp_path / "big.cfg"
    cfg.write_text(_with_key(text, "cascade.k_tracking", "1e103, 1e103, 1e103"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_SIM
    err = capsys.readouterr().err
    assert err.startswith("simulation error: cascade step block is not finite")
    assert "Traceback" not in err


@pytest.mark.parametrize("gain", ["1e50", "1e80"])
def test_gains_too_large_for_the_step_matrices_are_a_simulation_error(tmp_path, capsys, gain):
    # The block is finite, but the matrix exponential's squarings overflow:
    # the run warned from numpy and ended as nonfinite_state with exit 0.
    cfg = tmp_path / "big.cfg"
    cfg.write_text(_with_key(bundled_config("vtol_unsafe").read_text(),
                             "cascade.k_tracking", f"{gain}, {gain}, {gain}"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--horizon", "0.01"]) == EXIT_SIM
    err = capsys.readouterr().err
    assert err.startswith("simulation error: cascade step matrices are not finite")
    assert err.count("\n") == 1      # the error line alone, no numpy warning


def test_gap_solutions_of_a_batch_equal_the_per_state_solutions():
    # One (N, 2) call gives each state's own solution: NaN rows on the same
    # states (disc centers, deep inside an obstacle) and the same values to
    # rounding (the batched reshaped law differs by at most a few ulp).
    discs = cli.gap_discs(0.99)
    basis = reshaping.make_positive_basis(5)
    grid = cli.axis_slice_grid(0.99)[::10]
    states = np.vstack([np.random.default_rng(3).uniform(-2.5, 2.5, size=(300, 2)),
                        [[0.0, 1.0], [0.0, -1.0], [0.0, 0.5], [-0.3, 0.9]],
                        np.column_stack([grid, np.zeros_like(grid)])])
    for solve in (lambda x: cli.gap_raw_solution(discs, x),
                  lambda x: cli.gap_reshaped_solution(discs, basis, 0.0, x),
                  lambda x: cli.gap_reshaped_solution(discs, basis, 1.0, x)):
        batch = solve(states)
        single = np.array([solve(x) for x in states])
        assert batch.shape == states.shape
        undefined = np.isnan(batch).any(axis=1)
        np.testing.assert_array_equal(np.isnan(batch), np.isnan(single))
        assert undefined[300:302].all() and not undefined.all()
        np.testing.assert_allclose(batch[~undefined], single[~undefined], rtol=1e-12, atol=1e-12)
        # One state where the solution is undefined is a NaN vector, not an error.
        for x in ([0.0, 1.0], np.array([0.0, 0.5])):
            lone = solve(np.asarray(x))
            assert lone.shape == (2,) and np.isnan(lone).all()


@pytest.mark.parametrize("key, value, flags", [
    ("sim.horizon_s", "0.0004", ["--dt", "1e-4"]),
    ("sim.dt_s", "nan", ["--dt", "1e-3", "--horizon", "0.004"]),
    ("sim.horizon_s", "0", ["--horizon", "0.004"]),
])
def test_run_override_rescues_invalid_config_time_grid(tmp_path, key, value, flags):
    # Only the step size and horizon a run uses are checked, after the
    # command-line overrides.
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(_with_key(bundled_config("vtol_safe").read_text(), key, value))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)] + flags) == EXIT_OK
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["trajectory"]["termination"] == "completed"
    _, data = read_trajectory_csv(out / "trajectory.csv")
    assert len(data) == 5


def test_run_that_leaves_the_workspace_names_that_cause(tmp_path):
    # The nonlinear VTOL diverges at the stock gains and is far outside the
    # workspace at step 2; the workspace check comes before the controller,
    # so the run ends there with zero input in its last row.
    cfg = tmp_path / "vtol.cfg"
    cfg.write_text(_with_key(bundled_config("vtol_safe").read_text(), "plant.kind", "vtol_nonlinear"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["trajectory"]["termination"] == "left_workspace"
    header, data = read_trajectory_csv(out / "trajectory.csv")
    assert data.shape[0] == 3
    assert abs(data[-1, header.index("x1_0")]) > 1e5
    np.testing.assert_array_equal(data[-1, [header.index("u_0"), header.index("u_1")]], [0.0, 0.0])


def test_run_that_starts_on_a_segment_spine_ends_with_the_controller_error(tmp_path, capsys):
    # The low wall's spine is y = 0.5: the outer law's gradient is undefined
    # there, so the controller raises at the first step. The run ends with
    # that cause and records the row's finite clearance, -0.35 m (the safe
    # distance), with zero input.
    cfg = tmp_path / "spine.cfg"
    cfg.write_text(_with_key(bundled_config("vtol_safe").read_text(), "sim.x1_0_m", "0.0, 0.5"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--horizon", "0.01"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["trajectory"]["termination"] == "controller_error: ZeroGradientError"
    assert doc["trajectory"]["min_clearance"] == -0.35
    header, data = read_trajectory_csv(out / "trajectory.csv")
    assert data.shape[0] == 1
    np.testing.assert_array_equal(data[-1, [header.index("u_0"), header.index("u_1")]], [0.0, 0.0])


def test_vtol_overflow_ends_the_run_without_a_warning(tmp_path, capsys):
    # At dt = 1e-5 the stock gains drive the held-snap VTOL to overflow in
    # the step after its eleventh row; the step reports a non-finite state
    # instead of numpy warning about the overflow.
    cfg = tmp_path / "vtol.cfg"
    cfg.write_text(_with_key(bundled_config("vtol_safe").read_text(), "plant.kind", "vtol_nonlinear"))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--dt", "1e-5", "--horizon", "0.01"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["trajectory"]["termination"] == "nonfinite_state"
    _, data = read_trajectory_csv(out / "trajectory.csv")
    assert data.shape[0] == 11


def _counted_reports(monkeypatch) -> list:
    """The row counts of the bases whose report is computed from here on."""
    calls, compute = [], reshaping.PositiveBasis.report.func

    def counted(basis):
        calls.append(basis.n_l)
        return compute(basis)

    report = functools.cached_property(counted)
    report.__set_name__(reshaping.PositiveBasis, "report")
    monkeypatch.setattr(reshaping.PositiveBasis, "report", report)
    return calls


def test_run_and_audit_validate_the_basis_once(tmp_path, monkeypatch):
    calls = _counted_reports(monkeypatch)
    out = tmp_path / "out"
    assert main(["run", "--config", str(bundled_config("vtol_unsafe")), "--out", str(out),
                 "--horizon", "0.01"]) == EXIT_OK
    assert calls == [11]
    assert json.loads((out / "metrics.json").read_text())["basis_validation"]["uncovered_gaps"] == 0
    calls.clear()
    assert main(["audit", "--config", str(bundled_config("vtol_unsafe"))]) == EXIT_OK
    assert calls == [11]


def test_run_records_its_checks_and_audit_computes_each_once(tmp_path, monkeypatch):
    # run writes the gain, small-gain and basis parts of the design record
    # and never computes the disjointness and rate-condition audits; audit
    # prints every part, each computed once.
    argv = ["run", "--config", str(bundled_config("vtol_safe")), "--horizon", "0.05", "--out"]
    assert main(argv + [str(tmp_path / "plain")]) == EXIT_OK

    def refused(*args, **kwargs):
        raise AssertionError("run computed a check that metrics.json does not carry")

    with monkeypatch.context() as patch:
        for name in ("disjointness_audit", "rate_condition_audit"):
            patch.setattr(scenario, name, refused)
        assert main(argv + [str(tmp_path / "refused")]) == EXIT_OK
    docs = [json.loads((tmp_path / sub / "metrics.json").read_text()) for sub in ("plain", "refused")]
    for doc in docs:
        del doc["runtime_s"]
    assert docs[0] == docs[1] and docs[0]["basis_validation"] is not None
    calls = []
    for name in ("k_selection_audit", "small_gain_audit", "disjointness_audit", "rate_condition_audit"):
        audit = getattr(scenario, name)
        monkeypatch.setattr(scenario, name, lambda *a, _audit=audit, _name=name, **k:
                            calls.append(_name) or _audit(*a, **k))
    assert main(["audit", "--config", str(bundled_config("vtol_safe"))]) == EXIT_OK
    assert sorted(calls) == ["disjointness_audit", "k_selection_audit", "rate_condition_audit",
                             "small_gain_audit"]


def test_basis_check_validates_the_basis_once(monkeypatch, capsys):
    calls = _counted_reports(monkeypatch)
    assert main(["basis-check", "--n-l", "11"]) == EXIT_OK
    assert calls == [11]
    assert "uncovered gaps 0/11" in capsys.readouterr().out
    # The report is exact, so there is no probe count to choose.
    with pytest.raises(SystemExit) as exc:
        main(["basis-check", "--n-l", "11", "--samples", "200"])
    assert exc.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "unrecognized arguments: --samples 200" in captured.err and captured.out == ""
    assert calls == [11]


_WITHOUT_SCIPY = textwrap.dedent("""
    import json
    import sys
    from importlib.abc import MetaPathFinder

    class RefuseScipy(MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError(f"{name} is refused")
            return None

    sys.meta_path.insert(0, RefuseScipy())
    from safecascade.cli import main

    out, unsafe, safe = sys.argv[1:]
    codes = [
        main(["run", "--config", unsafe, "--out", out, "--horizon", "0.01"]),
        main(["audit", "--config", safe]),
        main(["basis-check", "--n-l", "101"]),
    ]
    print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
""")


def test_cli_runs_without_scipy(tmp_path):
    src = str(Path(safecascade.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path / "out"),
                           str(bundled_config("vtol_unsafe")), str(bundled_config("vtol_safe"))],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [EXIT_OK, EXIT_OK, EXIT_OK], "scipy": []}


def test_run_rejects_bad_config_without_outputs(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("plant.kind = integrator_chain\nnonsense = 1\n")
    out = tmp_path / "out"
    assert cmd_run(bad, out) == EXIT_CONFIG
    assert not out.exists()


def test_run_reports_io_failures(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = cmd_run(bundled_config("vtol_safe"), blocker / "out", horizon=0.01)
    assert code == EXIT_IO
    assert cmd_example1(blocker / "ex1", field_grid=5) == EXIT_IO
    assert cmd_example2(blocker / "ex2", field_grid=5) == EXIT_IO


def test_run_produces_valid_outputs(tmp_path):
    out = tmp_path / "out"
    assert cmd_run(bundled_config("vtol_safe"), out, horizon=0.2) == EXIT_OK
    header, data = read_trajectory_csv(out / "trajectory.csv")
    # Column count: time + state dims + input dims + clearances + values + x2*.
    assert len(header) == 1 + 8 + 2 + 2 * 2 + 2
    assert header[0] == "t"
    assert header[-2:] == ["xs2_0", "xs2_1"]
    assert data.shape[0] == 201
    svg = (out / "path.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg
    doc = json.loads((out / "metrics.json").read_text())
    assert validate_metrics(doc) == []
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["scenario_hash"].startswith("sha256:")
    assert doc["trajectory"]["termination"] in ("completed", "left_workspace")
    margins = [row["margin"] for row in doc["gain_audit"]]
    assert margins[1] > 0 and margins[2] > 0


def test_run_outputs_are_bit_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cmd_run(bundled_config("vtol_safe"), out1, horizon=0.5) == EXIT_OK
    assert cmd_run(bundled_config("vtol_safe"), out2, horizon=0.5) == EXIT_OK
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "path.svg").read_bytes() == (out2 / "path.svg").read_bytes()


def test_csv_roundtrip_matches_formatted_values(tmp_path):
    out = tmp_path / "out"
    cmd_run(bundled_config("vtol_safe"), out, horizon=0.05)
    header, data = read_trajectory_csv(out / "trajectory.csv")
    # Re-formatting the parsed values reproduces the file exactly: the nine
    # significant digit format is a fixed point of parse/format.
    lines = (out / "trajectory.csv").read_text().strip().splitlines()[1:]
    for line, row in zip(lines, data):
        rebuilt = ",".join("{:.9g}".format(v) for v in row)
        assert rebuilt == line


def test_audit_command_prints_margins(capsys):
    assert cmd_audit(bundled_config("vtol_safe")) == EXIT_OK
    text = capsys.readouterr().out
    assert "margin=+59.5848" in text
    assert "margin=+28319.5" in text
    assert "level 2" in text
    assert ("disjointness over the plane: least gap +0.3 between obstacles 1 and 2 (disjoint); "
            "gradient floor 1.0000\n") in text
    assert cmd_audit(bundled_config("vtol_unsafe")) == EXIT_OK
    text = capsys.readouterr().out
    assert "margin=-252.415" in text
    assert "least gap +0.3 between obstacles 1 and 2 (disjoint)" in text


@pytest.mark.parametrize("name, k1, source", [
    ("vtol_safe", None, "configured"),
    ("vtol_unsafe", None, "configured"),
    ("vtol_safe", "estimate", "estimated"),
])
def test_audit_level_2_note_names_the_k1_source(tmp_path, capsys, name, k1, source):
    text = bundled_config(name).read_text()
    if k1 is not None:
        text = _with_key(_with_key(text, "cascade.k1", k1), "cascade.k1_grid", "20")
    cfg = tmp_path / "audit.cfg"
    cfg.write_text(text)
    assert cmd_audit(cfg) == EXIT_OK
    level_2 = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  level 2: K=")]
    assert len(level_2) == 1 and level_2[0].endswith(f"(level 2 uses the {source} outer constant)")
    # The design record carries what audit prints.
    design = DesignReport(build_scenario(load_scenario(cfg)))
    gains = design.scenario.gains
    assert design.k1_source == source and design.k1 == gains.k1
    assert design.kbar_table == [tuple(gains.kbar(p, i) for p in range(1, i + 1)) for i in range(1, 5)]


_ONE_DISC = (
    "plant.kind = integrator_chain\n"
    "plant.levels = 1\n"
    "obstacle.1.kind = disc\n"
    "obstacle.1.center_m = 0.0, 3.0\n"
    "obstacle.1.radius_m = 1.5\n"
    "nominal.value = 0.0, 1.0\n"
    "sim.workspace_m = -3.0, 3.0, -1.0, 6.0\n"
)


@pytest.mark.parametrize("text, v_max", [
    (_ONE_DISC, math.exp(1.5 ** 2)),
    (_with_key(bundled_config("vtol_safe").read_text(), "certificate.level", "0.5"), math.exp(0.35)),
], ids=["disc", "segment_level_0.5"])
def test_audit_rate_condition_spans_the_reachable_certificate_values(tmp_path, monkeypatch, text, v_max):
    # V = exp(-h) is largest at the least clearance, -R^2 for a disc and
    # -safe distance for a segment, whatever the level.
    seen = []
    audit = scenario.rate_condition_audit

    def recorded(*args, **kwargs):
        seen.append(kwargs["v_max"])
        return audit(*args, **kwargs)

    monkeypatch.setattr(scenario, "rate_condition_audit", recorded)
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(text)
    assert cmd_audit(cfg) == EXIT_OK
    assert seen == [v_max]


def test_run_takes_no_seed(tmp_path, capsys):
    # The sampling seed is read by example2 only.
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(bundled_config("vtol_safe")), "--out", str(tmp_path / "out"),
              "--seed", "3"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_audit_flags_overlapping_obstacles(tmp_path, capsys):
    cfg = tmp_path / "overlap.cfg"
    cfg.write_text(
        "plant.kind = integrator_chain\n"
        "plant.levels = 1\n"
        "obstacle.1.kind = disc\n"
        "obstacle.1.center_m = 0.0, 0.0\n"
        "obstacle.1.radius_m = 1.0\n"
        "obstacle.2.kind = disc\n"
        "obstacle.2.center_m = 0.5, 0.0\n"
        "obstacle.2.radius_m = 1.0\n"
        "nominal.value = 1.0, 0.0\n"
        "sim.workspace_m = -2.0, 2.0, -2.0, 2.0\n"
    )
    assert cmd_audit(cfg) == EXIT_OK
    # The centers lie 0.5 apart, less both radii; a disc's set holds its
    # center, where the gradient is 0.
    assert ("disjointness over the plane: least gap -1.5 between obstacles 1 and 2 (NOT disjoint); "
            "gradient floor 0.0000\n") in capsys.readouterr().out


def test_audit_takes_no_seed(capsys):
    # Both audits are exact: nothing in audit samples.
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--config", str(bundled_config("vtol_safe")), "--seed", "3"])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unrecognized arguments: --seed 3" in err and "Traceback" not in err


@pytest.mark.parametrize("safe_distance, gap, verdict", [
    ("0.49", "+0.02", "disjoint"),
    ("0.505", "-0.01", "NOT disjoint"),
    ("0.52", "-0.04", "NOT disjoint"),
    ("0.55", "-0.1", "NOT disjoint"),
])
def test_audit_measures_the_gap_between_the_walls(tmp_path, capsys, safe_distance, gap, verdict):
    # The spines are 1.0 apart at x = -2.5. At 0.505 the capsules overlap
    # by 0.01 m; the sampled audit read 0 joint samples out of 2,000 there,
    # and a run then ended inside a wall.
    text = bundled_config("vtol_safe").read_text().replace("safe_distance_m = 0.35",
                                                           f"safe_distance_m = {safe_distance}")
    cfg = tmp_path / "walls.cfg"
    cfg.write_text(text)
    assert cmd_audit(cfg) == EXIT_OK
    assert (f"disjointness over the plane: least gap {gap} between obstacles 1 and 2 ({verdict}); "
            "gradient floor 1.0000\n") in capsys.readouterr().out


def test_audit_of_a_level_that_empties_every_set(tmp_path, capsys):
    # Above e^{0.35} = 1.419 no point of either wall reaches the level: the
    # empty sets overlap nothing, and there is no gradient to bound.
    text = _with_key(_with_key(bundled_config("vtol_safe").read_text(), "certificate.level", "1.5"),
                     "certificate.threshold", "2")
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(text)
    assert cmd_audit(cfg) == EXIT_OK
    assert ("disjointness over the plane: least gap +inf between obstacles 1 and 2 (disjoint); "
            "gradient floor inf\n") in capsys.readouterr().out


def test_example1_outputs(tmp_path):
    out = tmp_path / "ex1"
    assert cmd_example1(out, field_grid=41) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["measured_max_slope"] >= 99.0 - 1e-3
    assert report["closed_form_max_error"] < 1e-9
    assert (out / "field.csv").exists()
    assert (out / "slice.csv").exists()
    assert (out / "slice.svg").exists()
    # Outside the binding interval the nominal passes through: |u| = 1.
    slice_lines = (out / "slice.csv").read_text().strip().splitlines()[1:]
    xs = np.array([float(l.split(",")[0]) for l in slice_lines])
    vals = np.array([float(l.split(",")[1]) for l in slice_lines])
    outside = xs > (0.99 - 1.0 + 1e-6)
    assert np.allclose(vals[outside], 1.0, atol=1e-9)


def test_example2_outputs(tmp_path):
    out = tmp_path / "ex2"
    assert cmd_example2(out, field_grid=31) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["closed_form_max_error_kphi0"] < 1e-6
    assert report["containment_points_outside"] == 0
    assert report["measured_max_slope_kphi0"] < 2.0
    assert report["measured_max_slope_kphi1"] < 2.0
    assert (out / "field.csv").exists()
    assert (out / "field_kphi1.csv").exists()


def test_basis_check_command(capsys):
    assert cmd_basis_check(11) == EXIT_OK
    text = capsys.readouterr().out
    assert "uncovered gaps 0/11" in text
    assert cmd_basis_check(4) == EXIT_CONFIG
    assert "failed" in capsys.readouterr().err


def test_main_dispatch(tmp_path):
    out = tmp_path / "cli_out"
    code = main(["run", "--config", str(bundled_config("vtol_safe")),
                 "--out", str(out), "--horizon", "0.05"])
    assert code == EXIT_OK
    assert (out / "metrics.json").exists()
    assert main(["basis-check", "--n-l", "5"]) == EXIT_OK


def test_main_dt_override(tmp_path):
    out = tmp_path / "dt_out"
    code = main(["run", "--config", str(bundled_config("vtol_safe")),
                 "--out", str(out), "--horizon", "0.1", "--dt", "2e-3"])
    assert code == EXIT_OK
    _, data = read_trajectory_csv(out / "trajectory.csv")
    assert data.shape[0] == 51
    assert data[1, 0] == pytest.approx(2e-3)
