"""One benchmark iteration in a fresh interpreter.

    python3 benchmarks/iteration.py SPEC_JSON T0

SPEC_JSON is a file written by ``run.py`` (workload spec, mode, trace flag,
result path); T0 is the runner's ``time.monotonic()`` just before it
started this process, so ``setup_s`` includes interpreter start and import.
``time.monotonic`` is CLOCK_MONOTONIC on Linux, one clock for every process.

Untraced, the per-call timer is two ``perf_counter_ns`` reads around each
``CascadeController.evaluate`` (takeoff) or each per-state outer-law call of
the sweeps, and ``hoststate.Sentinel`` samples the host's speed every 10 ms;
``run.py`` keeps the calls that ran while the host was fast. The other
timers fire once per iteration. Traced, every layer boundary in
``workloads.install_trace`` records a span. Times in the result are ns after
the start of the work.
"""
from __future__ import annotations

import contextlib
import json
import math
import resource
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from hoststate import Sentinel  # noqa: E402
from tracing import ROOT_SPAN, Tracer, nesting_violations  # noqa: E402


class Calls:
    """Start time, duration (ns) and number of states of each timed call."""

    def __init__(self):
        self.start = array("q")
        self.dur = array("q")
        self.states = array("q")

    def timed(self, fn, arg: int | None = None):
        """``fn`` timed; with ``arg``, that positional argument holds the
        states (one state, or one per row of a 2-D array)."""
        clock, start, dur, states = time.perf_counter_ns, self.start, self.dur, self.states

        def timed(*args, **kwargs):
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                start.append(t)
                dur.append(clock() - t)
                x = np.shape(args[arg]) if arg is not None else ()
                states.append(x[0] if len(x) == 2 else 1)
        return timed


def _one_shot(owner, attr: str, marks: dict) -> None:
    """Rebind ``owner.attr`` to record when its first call starts and ends."""
    fn = getattr(owner, attr)

    def marked(*args, **kwargs):
        marks.setdefault(f"{attr}_start", time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            marks.setdefault(f"{attr}_end", time.perf_counter_ns())
    setattr(owner, attr, marked)


def _takeoff_values(spec: dict, codes: list[int]) -> dict:
    out = Path(spec["out"])
    doc = json.loads((out / "metrics.json").read_text())["trajectory"]
    lines = (out / "trajectory.csv").read_text().splitlines()
    last = [float(v) for v in lines[-1].split(",")]
    return {
        "exit_codes": codes,
        "min_clearance": doc["min_clearance"],
        "termination": doc["termination"],
        "rows": len(lines) - 1,
        "final_state_finite": all(math.isfinite(v) for v in last),
    }


def _gap_values(spec: dict, codes: list[int]) -> tuple[dict, int]:
    out = Path(spec["out"])
    r1 = json.loads((out / "example1" / "report.json").read_text())
    r2 = json.loads((out / "example2" / "report.json").read_text())
    size = spec["size"]
    slice1 = len((out / "example1" / "slice.csv").read_text().splitlines()) - 1
    slice2 = len((out / "example2" / "slice.csv").read_text().splitlines()) - 1
    states = size["grid1"] ** 2 + slice1 + 2 * (size["grid2"] ** 2 + slice2)
    values = {
        "exit_codes": codes,
        "example1_slope": r1["measured_max_slope"],
        "example2_slope_kphi0": r2["measured_max_slope_kphi0"],
        "example2_slope_kphi1": r2["measured_max_slope_kphi1"],
        "containment_points_outside": r2["containment_points_outside"],
    }
    return values, states


def _time_states(scenario, cli, calls: Calls) -> None:
    """Time each per-state outer-law call of the sweeps: the function the
    k1 estimate evaluates on its grid, and the gap examples' solutions."""
    estimate = scenario.estimate_lipschitz
    scenario.estimate_lipschitz = lambda fn, box, grid=200: estimate(calls.timed(fn, 0), box, grid=grid)
    cli.gap_raw_solution = calls.timed(cli.gap_raw_solution, 1)
    cli.gap_reshaped_solution = calls.timed(cli.gap_reshaped_solution, 3)


def run(spec: dict, t0: float) -> dict:
    name, trace, mode = spec["workload"], spec["trace"], spec["mode"]
    root = Path(spec["root"])
    from safecascade import cli, scenario
    package = Path(cli.__file__).resolve()
    if root.resolve() / "src" not in package.parents:
        raise RuntimeError(f"imported safecascade from {package}, not from {root}/src")

    if mode == "setup":
        if name == "k1_grid":
            scenario.parse_config_text(spec["config_text"])
        elif name != "gap_fields":
            scenario.build_scenario(scenario.load_scenario(spec["argv"][0][2]))
        return {"setup_s": time.monotonic() - t0}

    tracer = None
    if trace:
        tracer = Tracer(iteration=spec["iteration"])
        workloads.install_trace(tracer)

    calls = Calls()
    marks: dict[str, int] = {}
    result: dict = {}
    if name.startswith("takeoff"):
        _one_shot(cli, "build_scenario", marks)
        _one_shot(cli, "run_closed_loop", marks)
        if not trace:
            from safecascade.cascade import CascadeController
            CascadeController.evaluate = calls.timed(CascadeController.evaluate)
        work = lambda: [cli.main(argv) for argv in spec["argv"]]
    elif name == "k1_grid":
        cfg = scenario.parse_config_text(spec["config_text"])
        work = lambda: [scenario.build_scenario(cfg)]
    else:
        work = lambda: [cli.main(argv) for argv in spec["argv"]]
    if not trace and not name.startswith("takeoff"):
        _time_states(scenario, cli, calls)

    if tracer is not None:
        work = tracer.wrap(work, ROOT_SPAN)
    sentinel = Sentinel()
    monotonic_started = time.monotonic()
    started = time.perf_counter_ns()
    with sentinel if not trace else contextlib.nullcontext():
        outputs = work()
        ended = time.perf_counter_ns()

    # The takeoff runs parse and build inside ``cli.main``; their measured
    # work starts when build_scenario returns.
    measured_from = marks.get("build_scenario_end", started)
    result["setup_s"] = monotonic_started + (measured_from - started) / 1e9 - t0
    result["wall_s"] = (ended - measured_from) / 1e9
    result["root_s"] = (ended - started) / 1e9
    window = (measured_from, ended)
    if name.startswith("takeoff"):
        values = _takeoff_values(spec, outputs)
        cfg = scenario.load_scenario(spec["argv"][0][2])
        values["expected_rows"] = int(round(cfg.get("sim.horizon_s", 10.0) / cfg.get("sim.dt_s", 1e-3))) + 1
        result["evals"] = values["rows"]
        window = (marks["run_closed_loop_start"], marks["run_closed_loop_end"])
    elif name == "k1_grid":
        built = outputs[0]
        values = {"k1": built.gains.k1, "k1_estimated": built.k1_estimated}
        result["evals"] = spec["size"]["k1_grid"] ** 2
    else:
        values, result["evals"] = _gap_values(spec, outputs)
    result["evals_per_s"] = result["evals"] / ((window[1] - window[0]) / 1e9)
    result["values"] = values
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not trace:
        rel = lambda a: (np.frombuffer(a, dtype=np.int64) - started).tolist()
        result["window"] = [window[0] - started, window[1] - started]
        result["call_start"], result["call_dur"] = rel(calls.start), calls.dur.tolist()
        result["call_states"] = calls.states.tolist()
        result["sentinel_start"], result["sentinel_dur"] = rel(sentinel.start), sentinel.dur.tolist()

    if tracer is not None:
        tracer.restore()
        span = tracer.arrays()
        result["layers"] = workloads.layer_metrics(tracer, span)
        result["spans"] = int(span["start"].shape[0])
        result["nesting_violations"] = nesting_violations(span)
        tracer.save(Path(spec["trace_file"]))
    return result


def main() -> int:
    spec_path, t0 = Path(sys.argv[1]), float(sys.argv[2])
    spec = json.loads(spec_path.read_text())
    result = run(spec, t0)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
