#!/usr/bin/env python3
"""Run the neo-Hookean Newton path up a ladder of bulk moduli.

Usage (from anywhere inside the repository)::

    python3 tools/newton_ladder.py [REV] [--meshes 4,8,16]
                                   [--kappa 1e4,1e5,1e6,1e7]

Solves one ``cook-neohookean`` cell per (mesh, kappa) in ``STEPS`` load
steps, in a child process that imports the package from the working
tree, and prints one line per cell: the Newton iterations, the accepted
load steps, whether any step stopped at the assembly's roundoff floor
(``floor_limited``), the monitored tip displacement and the cell's
seconds, which include building its mesh.  A failed cell prints its
error instead.  With REV, it also
extracts REV with ``git archive`` (the helper of ``same_outputs.py``),
runs the same ladder there, and prints REV's cell beside the working
tree's.  The seconds are single runs: read them as a rough cost.  Exit
status 0 when every cell of every side converges, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from same_outputs import extract  # noqa: E402

STEPS = 10   # the scenario's default, the steps of every ladder cell
# one JSON line per cell, from the package on the child's PYTHONPATH
CHILD = """
import json, sys, time
from smoothfem.benchmarks import make_config, run_scenario
meshes, kappas, steps = json.loads(sys.argv[1])
for n in meshes:
    for kappa in kappas:
        start = time.perf_counter()
        (report,), _ = run_scenario(make_config(
            "cook-neohookean", meshes=(n,), kappa=(kappa,), steps=steps))
        extra = report.extra
        print(json.dumps({
            "mesh": n, "kappa": kappa, "status": extra["status"],
            "error": extra.get("error"),
            "iterations": extra.get("newton_iterations"),
            "steps": extra.get("load_steps"),
            "floor_limited": extra.get("floor_limited"),
            "tip": report.tip_uy,
            "seconds": time.perf_counter() - start}), flush=True)
"""


def _numbers(text, kind):
    return tuple(kind(x) for x in text.split(","))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Newton iterations, steps and tips of the neo-Hookean "
                    "Cook membrane over a ladder of bulk moduli.")
    parser.add_argument("rev", nargs="?",
                        help="git revision to run beside the working tree")
    parser.add_argument("--meshes", type=lambda t: _numbers(t, int),
                        default=(4, 8, 16))
    parser.add_argument("--kappa", type=lambda t: _numbers(t, float),
                        default=(1e4, 1e5, 1e6, 1e7))
    return parser.parse_args(argv)


def run_ladder(tree, meshes, kappas):
    """The cell records of one tree, in ladder order."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD,
         json.dumps([list(meshes), list(kappas), STEPS])],
        cwd=tree, env=env, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def cell_text(cell):
    """One side of a ladder line."""
    if cell["status"] != "ok":
        return f"failed: {cell['error']}"
    floor = "floor" if cell["floor_limited"] else "tol"
    return (f"{cell['iterations']:5d} it {cell['steps']:4d} steps {floor:5s} "
            f"tip {cell['tip']:.9g} {cell['seconds']:7.2f} s")


def main(argv=None):
    args = parse_args(argv)
    repo = Path(__file__).resolve().parents[1]
    ladder = (args.meshes, args.kappa)
    with tempfile.TemporaryDirectory(prefix="newton-ladder-") as tmp:
        sides = {}
        if args.rev:
            base = Path(tmp) / "rev"
            extract(args.rev, repo, base)
            sides[args.rev] = run_ladder(base, *ladder)
        sides["tree"] = run_ladder(repo, *ladder)
    print(f"cook-neohookean, {STEPS} steps; sides: {', '.join(sides)}")
    for cells in zip(*sides.values()):
        head = f"mesh {cells[0]['mesh']:3d} kappa {cells[0]['kappa']:<8g}"
        print(" | ".join([head] + [cell_text(c) for c in cells]))
    ok = all(c["status"] == "ok" for cells in sides.values() for c in cells)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
