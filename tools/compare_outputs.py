"""Compare every output of the package's commands in this tree and in OTHER_ROOT.

Usage: python3 tools/compare_outputs.py OTHER_ROOT

Each tree runs with its own PYTHONPATH=src: `run` on both bundled configs,
on both with the start shifted to (-1.9, 1.1) (inside the benchmark's
seeded start range), and on a vtol_nonlinear and a velocity_loop variant,
`example1`, `example2`, a short `run` at `cascade.k1 = estimate` with the
safe config's two walls, with a third obstacle, a disc, on a 21-row basis,
and at `certificate.level = 0.9` with `certificate.threshold = 1.3` (the
gain rows of metrics.json carry k1 at full precision, where `audit` prints
it with :g; the level variant's k1 covers a non-unit level on the batch
path, its run the float path), a short `run` of the safe config with a zero
nominal input (`nominal.value = 0, 0`), and `audit` on both configs and on
every variant but the shifted starts, so each branch of the design record
is printed: the disc's exp(R^2) upper end of V, a 21-row basis, no cascade
gains (velocity), every margin positive with the rate condition holding
(derived: the constants ROADMAP item 2 derives for the safe config), and
walls whose capsules overlap by 0.01 m (overlap: both safe distances at
0.505, which the disjointness audit fails). Two more variants at `cascade.k1 = estimate`
move the batched filter's inactive-state threshold: `reshape.k_phi = 0`
(kphi0) and a larger nominal `2.0, 3.0` (far_nominal), for which fewer
grid states are inactive. A 1-s `run` of the unsafe config at that nominal
(unsafe_far_nominal), where every step projects, puts the law's kept
A_L u0 and the one-state path under a nominal other than the stock one.
Two short runs at `cascade.k1 = estimate` put the estimate's mask under
load: the overlapping walls (overlap_estimate), whose grid has NaN rows
beside masked states, and a third wall from (4.5, -0.5) to (4.5, 12) at
safe distance 0.9 (third_wall), which masks every state of the 200-point
grid's rows 160 to 179. A short run at `cascade.k1 = estimate` with
`cascade.k1_grid = 130` (estimate_grid130) ends the grid in an uneven
block (two of 63 rows and one of 4 at 8,192 states a block; four of 31
and one of 6 at 4,096), so a change of the block size is compared by
bytes. Two more short runs at `cascade.k1 = estimate` reshape on
the two ends of the admitted `reshape.directions`, 5 and 101 rows
(directions_5, directions_101), whose coverage constants c_a the
reshaping reads directly. A short run at `cascade.k1 = estimate` on a
51-row basis with `reshape.k_phi = 0` (directions_51_kphi0) sends about
5,000 of its grid states through the projection's vertex stage.
`basis-check` builds the smallest (3 rows), a 5-row, the stock 11-row and
the largest (101-row) basis, and refuses an even row count (4, exit 2); stdout, stderr and the exit code of each are
compared.
Prints "same" or "differs" per file and stdout, ignoring only
metrics.json's runtime_s, and exits 1 on any difference.
"""
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
VARIANTS = {  # name: (bundled config, {key: value}); a key the config lacks is appended
    "safe": ("vtol_safe", {}), "unsafe": ("vtol_unsafe", {}),
    "safe_shifted": ("vtol_safe", {"sim.x1_0_m": "-1.9, 1.1"}),
    "unsafe_shifted": ("vtol_unsafe", {"sim.x1_0_m": "-1.9, 1.1"}),
    "estimate": ("vtol_safe", {"cascade.k1": "estimate"}),
    "three": ("vtol_safe", {"cascade.k1": "estimate", "obstacle.3.kind": "disc",
                            "obstacle.3.center_m": "3.5, 6.0", "obstacle.3.radius_m": "0.5"}),
    "estimate_wide": ("vtol_safe", {"cascade.k1": "estimate", "reshape.directions": "21"}),
    "level": ("vtol_safe", {"certificate.level": "0.9", "certificate.threshold": "1.3", "cascade.k1": "estimate"}),
    "nonlinear": ("vtol_unsafe", {"plant.kind": "vtol_nonlinear"}),
    "velocity": ("vtol_safe", {"plant.kind": "velocity_loop", "cascade.k_tracking": ""}),
    "derived": ("vtol_safe", {"cascade.k_tracking": "20.14, 1827, 1.503e7", "cascade.gamma_12_slope": "0.99",
                              "rate.k_alpha": "5", "cascade.k1": "estimate"}),
    "overlap": ("vtol_safe", {"obstacle.1.safe_distance_m": "0.505", "obstacle.2.safe_distance_m": "0.505"}),
    "zero_nominal": ("vtol_safe", {"nominal.value": "0, 0"}),
    "kphi0": ("vtol_safe", {"reshape.k_phi": "0", "cascade.k1": "estimate"}),
    "far_nominal": ("vtol_safe", {"nominal.value": "2.0, 3.0", "cascade.k1": "estimate"}),
    "unsafe_far_nominal": ("vtol_unsafe", {"nominal.value": "2.0, 3.0"}),
    "overlap_estimate": ("vtol_safe", {"obstacle.1.safe_distance_m": "0.505", "obstacle.2.safe_distance_m": "0.505",
                                       "cascade.k1": "estimate"}),
    "third_wall": ("vtol_safe", {"cascade.k1": "estimate", "obstacle.3.kind": "segment",
                                 "obstacle.3.p1_m": "4.5, -0.5", "obstacle.3.p2_m": "4.5, 12",
                                 "obstacle.3.safe_distance_m": "0.9"}),
    "directions_5": ("vtol_safe", {"reshape.directions": "5", "cascade.k1": "estimate"}),
    "directions_101": ("vtol_safe", {"reshape.directions": "101", "cascade.k1": "estimate"}),
    "directions_51_kphi0": ("vtol_safe", {"cascade.k1": "estimate", "reshape.directions": "51",
                                          "reshape.k_phi": "0"}),
    "estimate_grid130": ("vtol_safe", {"cascade.k1": "estimate", "cascade.k1_grid": "130"}),
}
COMMANDS = {**{f"run_{n}": ["run", "--config", f"{n}.cfg", "--out", f"run_{n}"]
               for n in ("safe", "unsafe", "safe_shifted", "unsafe_shifted", "nonlinear", "velocity")},
            **{f"run_{n}": ["run", "--config", f"{n}.cfg", "--out", f"run_{n}", "--horizon", "0.05"]
               for n in ("estimate", "three", "estimate_wide", "level", "zero_nominal", "kphi0", "far_nominal",
                         "overlap_estimate", "third_wall", "directions_5", "directions_101",
                         "directions_51_kphi0", "estimate_grid130")},
            "run_unsafe_far_nominal": ["run", "--config", "unsafe_far_nominal.cfg", "--out", "run_unsafe_far_nominal",
                                       "--horizon", "1"],
            **{f"audit_{n}": ["audit", "--config", f"{n}.cfg"]
               for n in ("safe", "unsafe", "estimate", "three", "estimate_wide", "level", "nonlinear",
                         "velocity", "derived", "overlap", "zero_nominal", "kphi0", "far_nominal")},
            **{f"basis_check_{n}": ["basis-check", "--n-l", n] for n in ("3", "4", "5", "11", "101")},
            "example1": ["example1", "--out", "example1"], "example2": ["example2", "--out", "example2"]}


def outputs(root: Path, work: Path) -> dict:
    """{name: bytes} of every file and stdout the commands leave in work (made here)."""
    work.mkdir()
    for name, (config, keys) in VARIANTS.items():
        text = (root / "src" / "safecascade" / "configs" / f"{config}.cfg").read_text()
        for key, value in keys.items():
            text, hits = re.subn(rf"^{re.escape(key)}\s*=.*$", f"{key} = {value}", text, count=1, flags=re.M)
            if not hits:
                text += f"\n{key} = {value}\n"
        (work / f"{name}.cfg").write_text(text)
    env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"))
    found = {}
    for name, argv in COMMANDS.items():
        proc = subprocess.run([sys.executable, "-m", "safecascade.cli", *argv], cwd=work, env=env,
                              capture_output=True, check=False)
        found[f"{name} stdout (exit {proc.returncode})"] = proc.stdout + proc.stderr
    for path in sorted(p for p in work.rglob("*") if p.is_file() and p.suffix != ".cfg"):
        data = path.read_bytes()
        if path.name == "metrics.json":
            doc = json.loads(data)
            doc.pop("runtime_s", None)
            data = json.dumps(doc, sort_keys=True).encode()
        found[str(path.relative_to(work))] = data
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        here, other = (outputs(root, Path(tmp) / sub) for root, sub in ((HERE, "a"), (Path(argv[0]), "b")))
    differs = False
    for key in sorted(here.keys() | other.keys()):
        same = here.get(key) == other.get(key)
        differs |= not same
        print(f"{'same' if same else 'differs'}  {key}")
    return int(differs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
