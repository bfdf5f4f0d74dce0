"""Time one controller step and the batched outer law in this tree and in
OTHER_ROOT, interleaved.

Usage: python3 tools/step_timing.py OTHER_ROOT

Each tree runs in its own Python process with its own PYTHONPATH=src. A
process builds both bundled scenarios (vtol_safe, vtol_unsafe), runs each
closed loop once, keeps every 25th state of both runs and evaluates the
controller once at each of them, untimed. It also makes one batch of the
x_1 blocks of vtol_unsafe's kept states for each width in BATCH_WIDTHS,
evenly spaced over them (repeating states where the width exceeds their
count), and evaluates its outer law (`SafetyLaw.evaluate`) on each once,
untimed. Then the two processes take turns, ROUNDS rounds each, the first
tree alternating: in a round a process times `CascadeController.evaluate`
once at every kept state (two perf_counter_ns reads around the call) and
reports the median, then times the outer law on each batch
max(BATCH_CALLS // width, 5) times and reports each width's median call.
The tool prints each round's step medians and their ratio (this tree over
OTHER_ROOT), then each tree's median over all rounds and the ratio of
those medians, for the step and for each batch width, with the cost per
state.
"""
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROUNDS = 15
STRIDE = 25
BATCH_WIDTHS = (1, 10, 100, 1000, 4000)
BATCH_CALLS = 1000

# The process each tree runs: it reads one line a round and answers with the
# round's median step time and the median call of each batch width, in
# microseconds.
CHILD = f"""
import json, statistics, sys, time
import numpy as np
from safecascade.scenario import build_scenario, load_scenario
from safecascade.sim import run_closed_loop
from importlib import resources

steps = []
for name in ("vtol_safe", "vtol_unsafe"):
    path = resources.files("safecascade") / "configs" / f"{{name}}.cfg"
    sc = build_scenario(load_scenario(str(path)))
    traj = run_closed_loop(sc.plant, sc.controller, sc.x0, sc.horizon, sc.dt, workspace=sc.workspace)
    kept = [sc.plant.blocks(s) for s in traj.states[::{STRIDE}]]
    steps += [(sc.controller.evaluate, blocks) for blocks in kept]
x1 = np.array([blocks[0] for blocks in kept])           # vtol_unsafe's, the last built
law = sc.controller.rho1
batches = [x1[np.arange(width) * len(x1) // width] for width in {BATCH_WIDTHS}]
for evaluate, blocks in steps:
    evaluate(blocks)
for x in batches:
    law.evaluate(x)
print(json.dumps(len(steps)), flush=True)
clock = time.perf_counter_ns
for _ in sys.stdin:
    times = []
    for evaluate, blocks in steps:
        t = clock()
        evaluate(blocks)
        times.append(clock() - t)
    calls = []
    for x in batches:
        batch_times = []
        for _ in range(max({BATCH_CALLS} // len(x), 5)):
            t = clock()
            law.evaluate(x)
            batch_times.append(clock() - t)
        calls.append(statistics.median(batch_times) / 1e3)
    print(json.dumps([statistics.median(times) / 1e3, calls]), flush=True)
"""


def start(root: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"))
    return subprocess.Popen([sys.executable, "-c", CHILD], env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit(__doc__)
    trees = {"this": HERE, "other": Path(argv[0])}
    procs = {name: start(root) for name, root in trees.items()}
    try:
        counts = {name: json.loads(proc.stdout.readline()) for name, proc in procs.items()}
        if counts["this"] != counts["other"]:
            sys.exit(f"the trees keep different numbers of states: {counts}")
        medians = {name: [] for name in trees}
        calls = {name: [] for name in trees}
        for k in range(ROUNDS):
            for name in (("this", "other") if k % 2 == 0 else ("other", "this")):
                procs[name].stdin.write("round\n")
                procs[name].stdin.flush()
                step, widths = json.loads(procs[name].stdout.readline())
                medians[name].append(step)
                calls[name].append(widths)
            print(f"round {k + 1}: this {medians['this'][-1]:.1f} us, other {medians['other'][-1]:.1f} us, "
                  f"ratio {medians['this'][-1] / medians['other'][-1]:.3f}")
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()
    this, other = (statistics.median(medians[name]) for name in trees)
    print(f"{counts['this']} states a round, {ROUNDS} rounds: median step this {this:.1f} us, "
          f"other {other:.1f} us, ratio {this / other:.3f}")
    print("batched outer law on vtol_unsafe's kept states, median call over the rounds:")
    for i, width in enumerate(BATCH_WIDTHS):
        this, other = (statistics.median(call[i] for call in calls[name]) for name in trees)
        print(f"  N = {width:5d}: this {this:8.1f} us ({this / width:7.3f} a state), "
              f"other {other:8.1f} us ({other / width:7.3f} a state), ratio {this / other:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
