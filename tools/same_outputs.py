#!/usr/bin/env python3
"""Check that the working tree reproduces a revision's scenario outputs.

Usage (from anywhere inside the repository)::

    python3 tools/same_outputs.py REV

Extracts REV with ``git archive`` into a temporary directory and runs the
seven default scenarios, ``smoothfem run <scenario> --out DIR``, once on
REV and once on the working tree.  For each scenario it compares the JSON
file byte for byte, the CSV rows without their timestamp line, the exit
status, and standard output without its ``wrote ...`` line.  A difference
is reported with the worst relative drift of a numeric JSON field and its
path, plus the non-numeric mismatches.  Exit status 0 when all seven
scenarios are identical, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SCENARIOS = ("cook", "cook-distorted", "pipe", "block3d", "cook-neohookean",
             "infsup", "lemma-checks")
RUN = ("import sys; from smoothfem.cli import main; "
       "sys.exit(main(sys.argv[1:]))")
SHOWN = 5    # non-numeric mismatches printed per scenario


def run_scenario(tree, scenario, out):
    """(exit status, stdout without the 'wrote' line) of one run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", RUN, "run", scenario, "--out", str(out)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines()
             if not line.startswith("wrote ")]
    return proc.returncode, lines


def csv_rows(path):
    if not path.exists():
        return None
    return [line for line in path.read_text().splitlines()
            if not line.startswith("# generated")]


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def json_diff(a, b, path="$"):
    """(worst relative drift, its path, non-numeric mismatches)."""
    if _number(a) and _number(b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0, None, []
        scale = max(abs(a), abs(b))
        drift = abs(a - b) / scale if math.isfinite(scale) else math.inf
        return drift, path, []
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        items = [(f"{path}.{k}", a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        items = [(f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b))]
    else:
        return 0.0, None, [] if a == b else [f"{path}: {a!r} != {b!r}"]
    worst, where, other = 0.0, None, []
    for sub, x, y in items:
        drift, at, mism = json_diff(x, y, sub)
        if drift > worst:
            worst, where = drift, at
        other += mism
    return worst, where, other


def compare(scenario, base, head):
    """Lines describing how two runs of one scenario differ; empty if none."""
    problems = []
    if base["status"] != head["status"]:
        problems.append(f"exit status {base['status']} -> {head['status']}")
    if base["stdout"] != head["stdout"]:
        problems.append("standard output differs")
    name = f"{scenario}.csv"
    if csv_rows(base["out"] / name) != csv_rows(head["out"] / name):
        problems.append("CSV rows differ")
    paths = [run["out"] / f"{scenario}.json" for run in (base, head)]
    if not all(p.exists() for p in paths):
        problems.append("JSON missing")
        return problems
    raw_a, raw_b = (p.read_bytes() for p in paths)
    if raw_a != raw_b:
        drift, where, other = json_diff(json.loads(raw_a), json.loads(raw_b))
        problems.append("JSON differs")
        if where is not None:
            problems.append(f"worst numeric drift {drift:.3g} at {where}")
        problems += other[:SHOWN]
        if len(other) > SHOWN:
            problems.append(f"... {len(other) - SHOWN} more mismatches")
    return problems


def extract(rev, repo, dest):
    """Unpack the committed tree of ``rev`` into ``dest``."""
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "-C", str(repo), "archive", "--format=tar",
                    "-o", str(archive), rev], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rev = argv[0]
    repo = Path(subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], check=True,
        capture_output=True, text=True).stdout.strip())
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        trees = {"base": tmp / "rev", "head": repo}
        extract(rev, repo, trees["base"])
        same = 0
        for scenario in SCENARIOS:
            runs = {}
            for side, tree in trees.items():
                out = tmp / "out" / side
                status, stdout = run_scenario(tree, scenario, out)
                runs[side] = {"status": status, "stdout": stdout, "out": out}
            problems = compare(scenario, runs["base"], runs["head"])
            print(f"{scenario}: {'identical' if not problems else 'DIFFERS'}")
            for line in problems:
                print(f"  {line}")
            same += not problems
        print(f"{same} of {len(SCENARIOS)} scenarios identical to {rev}")
    return 0 if same == len(SCENARIOS) else 1


if __name__ == "__main__":
    sys.exit(main())
