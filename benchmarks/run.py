"""safecascade benchmark runner.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root. NAME is one of takeoff_safe, takeoff_unsafe,
k1_grid, gap_fields; ``all`` runs the four with their iterations
interleaved. Every iteration is a fresh interpreter (``iteration.py``) so
that ``setup_s`` includes import. One child runs at a time, with the BLAS
and OpenMP pools at one thread.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced iteration and the tracing
overhead against an untraced one. Per-layer metrics, ``setup_s`` and
``peak_rss_mb`` are medians over the run's iterations; the rates and
latencies count only the calls that ran while the host was fast
(``hoststate.py``). Human-readable lines above it give every metric with
its unit and the machine record; the full record goes to
``.bench_out/<workload>[-trace].json``. A run ends within 170 s: children
still running then are killed and count as failed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hoststate  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text()) \
    if (HERE.parent / "BENCHMARK.json").is_file() else None
SETUP_SAMPLES = 5          # setup_s is the median of at least this many interpreters
RUN_DEADLINE_S = 170.0     # a run ends within this, even when the program hangs
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                              "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def e2e_units() -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def layer_units() -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def machine_record(root: Path) -> dict:
    """nproc, CPU model, interpreter and library versions, and the commit."""
    record = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "cpu_model": "unknown", "commit": "unknown"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        record["commit"] = ref
    from importlib import metadata
    for lib in ("numpy", "scipy"):
        try:
            record[lib] = metadata.version(lib)
        except metadata.PackageNotFoundError:
            record[lib] = "missing"
    return record


class Runner:
    """Starts iteration children one at a time and collects their results."""

    def __init__(self, root: Path, seed: int, sizes: dict | None = None, refs: dict | None = None):
        self.root = root
        self.seed = seed
        self.sizes = sizes or {}
        self.refs = refs or workloads.STOCK_REFERENCES
        self.out = root / ".bench_out"
        self.env = dict(os.environ, **THREAD_ENV)
        self.env["PYTHONPATH"] = str(root / "src")
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.count = 0

    def child(self, name: str, mode: str, trace: bool) -> tuple[dict | None, str | None]:
        """Run one iteration; returns (result, None) or (None, failure)."""
        self.count += 1
        work_dir = self.out / "work" / name
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        spec = workloads.make_spec(name, self.seed, self.root, work_dir, self.sizes.get(name))
        spec.update(mode=mode, trace=trace, root=str(self.root), iteration=self.count,
                    result=str(work_dir / "result.json"),
                    trace_file=str(self.out / f"spans-{name}.npz"))
        spec_path = work_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "iteration.py"), str(spec_path), repr(t0)],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=max(self.deadline - t0, 0.1))
        except subprocess.TimeoutExpired:
            return None, f"killed at the run's {RUN_DEADLINE_S:.0f} s deadline"
        try:
            if proc.returncode != 0:
                tail = (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
                return None, f"exit code {proc.returncode}: {tail}"
            result = json.loads(Path(spec["result"]).read_text())
            if mode == "work":
                problems = workloads.check(name, self.seed, result["values"], self.refs[name])
                if problems:
                    return None, "; ".join(problems)
            return result, None
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def run(names: list[str], seconds: float, trace: bool, runner: Runner, log=print) -> dict:
    """Iterate the workloads round-robin for about ``seconds`` seconds.

    A new round starts only while the previous round's duration still fits
    in the budget; every workload gets at least one iteration (untraced,
    and traced too with ``trace``, alternating). Setup-only interpreters top
    each workload up to SETUP_SAMPLES setup times. The first failure ends
    the run: its result is wrong whatever follows.

    ``attempted`` counts work iterations plus setup interpreters that
    failed, so that a wrong reference value gives an error rate of 1.
    """
    state = {n: {"work": [], "traced": [], "setup": [], "attempted": 0, "failed": 0,
                 "failures": []} for n in names}

    def attempt(name: str, mode: str, traced: bool) -> bool:
        s = state[name]
        result, failure = runner.child(name, mode, traced)
        if mode == "work" or failure is not None:
            s["attempted"] += 1
        if failure is not None:
            s["failed"] += 1
            s["failures"].append(failure)
            log(f"  {name}: {mode} iteration failed: {failure}")
            return False
        s["setup"].append(result["setup_s"])
        if mode == "work":
            s["traced" if traced else "work"].append(result)
        return True

    started = time.monotonic()
    # The first interpreter of each workload also warms the page cache and
    # writes the .pyc files; it is one of the setup samples.
    ok = all(attempt(name, "setup", False) for name in names)
    budget_start = time.monotonic()
    plan = [False, True] if trace else [False]
    rounds = 0
    while ok:
        round_start = time.monotonic()
        ok = all(attempt(name, "work", plan[rounds % len(plan)]) for name in names)
        rounds += 1
        now = time.monotonic()
        if rounds >= len(plan) and now - budget_start + (now - round_start) > seconds:
            break
    for name in names:
        while ok and len(state[name]["setup"]) < SETUP_SAMPLES \
                and time.monotonic() < runner.deadline - 10.0:
            ok = attempt(name, "setup", False)
    log(f"  {runner.count} interpreters in {time.monotonic() - started:.1f} s")
    return state


def fast_host(work: list[dict]) -> dict[str, float]:
    """Latency percentiles and throughput of a run's untraced iterations,
    counted only where ``hoststate`` saw the host fast.

    The timed calls are ``evaluate`` (takeoff) or the sweeps' per-state
    outer-law calls; a call's latency is its duration per state it
    evaluates, and only calls that lie wholly inside a fast stretch count.
    p50 pools the run's calls; p99 is the median of the iterations' p99s,
    so that one iteration whose fast stretches caught a burst of contention
    does not set the run's tail. Throughput: one over the median time per
    state from the start of a call to the start of the next, over the calls
    in the measured window whose two starts fall inside one fast stretch;
    the median, because the slowest steps in fast stretches follow the
    host's contention as the tail does. A run with no fast call keeps every
    call; one with no timed call (a sweep that no longer evaluates its
    states through the timed functions) falls back to the median
    whole-window rate, and to its inverse as the latency.
    """
    ref = hoststate.reference_ns([np.asarray(r["sentinel_dur"], dtype=np.int64) for r in work])
    kept, every, gaps = [], [], []
    for r in work:
        lo, hi = hoststate.fast_stretches(np.asarray(r["sentinel_start"], dtype=np.int64),
                                          np.asarray(r["sentinel_dur"], dtype=np.int64), ref)
        start = np.asarray(r["call_start"], dtype=np.int64)
        dur = np.asarray(r["call_dur"], dtype=np.int64)
        n = np.asarray(r["call_states"], dtype=np.int64)
        per_state = np.repeat(dur / np.maximum(n, 1), n)
        every.append(per_state)
        kept.append(per_state[np.repeat(hoststate.inside(lo, hi, start, start + dur), n)])
        in_window = (start >= r["window"][0]) & (start < r["window"][1])
        start, n = start[in_window], n[in_window]
        pair = hoststate.inside(lo, hi, start[:-1], start[1:])
        gaps.append(np.diff(start)[pair] / np.maximum(n[:-1][pair], 1))
    per_iteration = [k for k in kept if k.size] or [e for e in every if e.size]
    fallback_rate = median([r["evals_per_s"] for r in work])
    if per_iteration:
        p50 = np.percentile(np.concatenate(per_iteration), 50) / 1e3
        p99 = median([np.percentile(k, 99) for k in per_iteration]) / 1e3
    else:
        p50 = p99 = 1e6 / fallback_rate
    gaps = np.concatenate(gaps)
    rate = 1e9 / np.median(gaps) if gaps.size else fallback_rate
    fast = sum(k.size for k in kept)
    return {"evals_per_s": float(rate), "eval_p50_us": float(p50), "eval_p99_us": float(p99),
            "eval_samples": fast or sum(e.size for e in every),
            "host_fast_share": fast / max(sum(e.size for e in every), 1)}


def summarize(s: dict, trace: bool) -> dict[str, float]:
    """Metrics of one workload's iterations; empty after a failure.

    ``setup_s``, ``wall_s`` and ``peak_rss_mb`` are medians over the run;
    the rates and latencies come from ``fast_host``.
    """
    work = s["work"]
    if s["failed"] or not work or (trace and not s["traced"]):
        return {}
    e2e = {
        "setup_s": median(s["setup"]),
        "wall_s": median([r["wall_s"] for r in work]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in work]),
        **fast_host(work),
    }
    if not trace:
        return e2e
    traced = s["traced"]
    layers = {k: median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
    layers["trace.overhead_ratio"] = median([r["wall_s"] for r in traced]) / e2e["wall_s"] - 1.0
    return layers


def execute(names: list[str], seconds: float, trace: bool, runner: Runner,
            log=print) -> tuple[dict, dict]:
    """Run, print every metric with its unit, and return the result object
    and the full report (machine record and every iteration).

    With several workloads each metric name is prefixed by its workload.
    """
    machine = machine_record(runner.root)
    log("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    state = run(names, seconds, trace, runner, log)
    units = layer_units() if trace else e2e_units()
    merged: dict[str, dict] = {}
    report = {"machine": machine, "seed": runner.seed, "seconds": seconds, "trace": trace,
              "workloads": {}}
    for name in names:
        s = state[name]
        metrics = summarize(s, trace)
        for key, unit in units.items():
            if key in metrics:
                log(f"{name:15s} {key:40s} {metrics[key]:>16.6g} {unit}")
        for key in sorted(metrics.keys() - units.keys()):
            log(f"{name:15s} {key:40s} {metrics[key]:>16.6g} (not gated)")
        log(f"{name:15s} {'error_rate':40s} {s['failed'] / max(s['attempted'], 1):>16.6g} "
            f"failed/attempted ({s['failed']}/{s['attempted']})")
        report["workloads"][name] = {"metrics": metrics, "failures": s["failures"],
                                     "setup_s": s["setup"], "iterations": s["work"] + s["traced"]}
        prefix = "" if len(names) == 1 else f"{name}."
        merged.update({prefix + k: {"value": metrics[k], "unit": u}
                       for k, u in units.items() if k in metrics})
    runner.out.mkdir(exist_ok=True)
    label = names[0] if len(names) == 1 else "all"
    (runner.out / f"{label}{'-trace' if trace else ''}.json").write_text(json.dumps(report, indent=1))
    attempted = sum(s["attempted"] for s in state.values())
    failed = sum(s["failed"] for s in state.values())
    return {
        "correct": failed == 0 and len(merged) == len(names) * len(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": merged,
    }, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if SPEC is None or not (root / "src" / "safecascade" / "__init__.py").is_file():
        print("run from the repository root: needs BENCHMARK.json and src/safecascade",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    result, _ = execute(names, args.seconds, bool(args.trace), Runner(root, args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
