"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 benchmarks/smoke.py

Run from the repository root. Checks that every metric in BENCHMARK.json is
printed with its unit for every workload, that traced spans nest, that the
layers' self times sum to the traced wall time, and that a deliberately
wrong reference value drives the error rate to 1. Exits 0 when all hold.
"""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

TINY_SIZES = {
    "takeoff_safe": {"horizon_s": 0.3},
    "takeoff_unsafe": {"horizon_s": 0.3},
    "k1_grid": {"k1_grid": 20},
    "gap_fields": {"grid1": 21, "grid2": 11},
}
# Taken from the parent commit at TINY_SIZES, seed 0. The gap slopes come
# from the fixed axis slice, so they equal the stock references.
TINY_REFERENCES = {
    "takeoff_safe": {"min_clearance": 0.15, "termination": "completed"},
    "takeoff_unsafe": {"min_clearance": 0.15, "termination": "completed"},
    "k1_grid": {"k1": 1.7097},
    "gap_fields": dict(workloads.STOCK_REFERENCES["gap_fields"]),
}
SELF_SUM_TOLERANCE = 0.03


def _run(trace: bool, refs: dict, names=workloads.WORKLOADS):
    lines: list[str] = []
    runner = run.Runner(Path.cwd(), seed=0, sizes=TINY_SIZES, refs=refs)
    result, report = run.execute(list(names), 0.0, trace, runner, log=lines.append)
    return result, lines, report


def main() -> int:
    problems: list[str] = []

    for trace, units in ((False, run.e2e_units()), (True, run.layer_units())):
        result, lines, report = _run(trace, TINY_REFERENCES)
        print("\n".join(lines))
        if not result["correct"] or result["failed"]:
            problems.append(f"trace={trace}: run not correct: {result}")
        for name in workloads.WORKLOADS:
            for key, unit in units.items():
                if not any(line.split()[:2] == [name, key] and line.split()[-1] == unit
                           for line in lines):
                    problems.append(f"{name}: {key} not printed with unit {unit}")
            if not any(line.split()[:3] == [name, "error_rate", "0"] for line in lines):
                problems.append(f"{name}: error_rate 0 not printed")
            if not trace:
                continue
            for it in report["workloads"][name]["iterations"]:
                if "layers" not in it:
                    continue
                if it["nesting_violations"]:
                    problems.append(f"{name}: {it['nesting_violations']} spans do not nest")
                self_sum = sum(v for k, v in it["layers"].items() if k.endswith(".self_s"))
                if abs(self_sum - it["root_s"]) > SELF_SUM_TOLERANCE * it["root_s"]:
                    problems.append(f"{name}: self times sum to {self_sum:.4f} s, "
                                    f"traced wall {it['root_s']:.4f} s")

    wrong = {name: dict(refs) for name, refs in TINY_REFERENCES.items()}
    wrong["k1_grid"]["k1"] += 1.0
    result, lines, _ = _run(False, wrong, names=("k1_grid",))
    rate = result["failed"] / result["attempted"]
    if rate != 1.0 or result["correct"]:
        problems.append(f"wrong reference gave error rate {rate}, correct={result['correct']}")

    for p in problems:
        print("SMOKE FAIL:", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
