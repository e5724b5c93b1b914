#!/usr/bin/env python3
"""Check that the working tree reproduces a revision's scenario outputs.

Usage (from anywhere inside the repository)::

    python3 tools/same_outputs.py REV [--rtol R]

Extracts REV with ``git archive`` into a temporary directory and runs the
seven default scenarios, ``smoothfem run <scenario> --out DIR``, once on
REV and once on the working tree.  For each scenario it compares the JSON
file byte for byte, the CSV rows without their timestamp line, the exit
status, and standard output without its ``wrote ...`` line.  A difference
is reported with the worst relative drift of a numeric JSON field or CSV
cell and its path, plus the non-numeric mismatches.  With ``--rtol R`` a
scenario also passes when its JSON and CSV differ only in numeric fields
and cells, each within R relative; exit status, standard output, the CSV
row and cell counts and every non-numeric field or cell (statuses, check
verdicts) must still be identical, and the worst drift is still printed.
For every report row whose ``err_u``, ``err_p`` or ``err_E`` moved, it also
prints each moved field's relative drift next to its drift at the solution
scale, in machine epsilons: the absolute drift divided by the row's
|``tip_uy``|, a displacement, or for ``err_p`` by the applied load, a
pressure.  A small error norm amplifies a change of the solution, so only
the scaled drift tells rounding from a real move; rows above ``FLAG_EPS``
epsilons are flagged.  These lines are information: they change neither
the verdict nor the exit status.
Each scenario's line ends with its wall time and peak resident set size
on REV and on the working tree; the peak is the run's own
``ru_maxrss``, which the child process prints to standard error (the
compared standard output never holds it).  Each is a single run, so read
both as a rough cost, not a benchmark.
Last it prints the ``src/smoothfem/*.py`` line count of REV and of the
working tree, then one ``name: REV -> tree`` line per file whose count
differs, and the number of defaulted parameters of REV and of the working
tree (every ``def``'s parameters with a default plus every dataclass field
with one), so a refactor's size, where its lines went, how many options it
offers and its identity gate come from one command.  Exit status 0 when
all seven scenarios pass, 1 otherwise.
"""

import argparse
import ast
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

SCENARIOS = ("cook", "cook-distorted", "pipe", "block3d", "cook-neohookean",
             "infsup", "lemma-checks")
RUN = ("import resource, sys; from smoothfem.cli import main; "
       "code = main(sys.argv[1:]); "
       "print('peak rss kB', resource.getrusage(resource.RUSAGE_SELF)"
       ".ru_maxrss, file=sys.stderr); sys.exit(code)")
SHOWN = 5    # non-numeric mismatches printed per scenario
ERROR_FIELDS = ("err_u", "err_p", "err_E")
# a drift at the solution scale above this many machine epsilons is more
# than the rounding of a refined solve (bes-fem's pipe rows move by at most
# 26 epsilons under a 1e-14 operator change)
FLAG_EPS = 100
EPS = sys.float_info.epsilon


def peak_rss_mb(stderr):
    """The peak RSS in MB (``ru_maxrss``, kB on Linux, over 1024) that a
    ``RUN`` child printed last on ``stderr``; NaN when it printed none."""
    lines = [line for line in stderr.splitlines()
             if line.startswith("peak rss kB ")]
    return int(lines[-1].split()[-1]) / 1024.0 if lines else math.nan


def run_scenario(tree, scenario, out):
    """(exit status, stdout without the 'wrote' line, wall seconds, peak
    RSS in MB) of one run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", RUN, "run", scenario, "--out", str(out)],
        cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = [line for line in proc.stdout.splitlines()
             if not line.startswith("wrote ")]
    return proc.returncode, lines, wall, peak_rss_mb(proc.stderr)


def _cell(text):
    """A CSV cell as a float when it parses as one, else the text itself."""
    try:
        return float(text)
    except ValueError:
        return text


def csv_rows(path):
    """Cells of each CSV row without the timestamp line (None if missing)."""
    if not path.exists():
        return None
    return [[_cell(text) for text in line.split(",")]
            for line in path.read_text().splitlines()
            if not line.startswith("# generated")]


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def json_diff(a, b, path="$"):
    """(worst relative drift, its path, non-numeric mismatches)."""
    if _number(a) and _number(b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0, None, []
        # NaN against a number, or an infinity, is an unbounded drift
        drift = abs(a - b) / max(abs(a), abs(b))
        return drift if math.isfinite(drift) else math.inf, path, []
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


def _scale(x):
    """|x| when it can scale a drift (a finite nonzero number), else None."""
    return abs(x) if _number(x) and math.isfinite(x) and x != 0 else None


def _load(doc):
    """The applied load ``summary.config.load`` of a report document."""
    summary = doc.get("summary")
    config = summary.get("config") if isinstance(summary, dict) else None
    return config.get("load") if isinstance(config, dict) else None


def scaled_drifts(a, b):
    """(row, field, relative drift, scaled drift, scale name) of each moved
    error field of two report documents with the same rows.

    The scaled drift of ``err_u`` and ``err_E`` is the absolute drift over
    the row's |``tip_uy``|, a displacement.  A row without a usable
    ``tip_uy`` takes the largest |``tip_uy``| of the document's rows.
    ``err_p`` is a pressure, so its drift is scaled by the applied load
    |``summary.config.load``|, which is the pipe's internal pressure (the
    pipe is the only scenario that reports ``err_p``).  A field without
    its scale takes its own size, so its relative drift.
    """
    rows = [d.get("reports") if isinstance(d, dict) else None for d in (a, b)]
    if not (all(isinstance(r, list) for r in rows)
            and len(rows[0]) == len(rows[1])):
        return []
    tips = [_scale(r.get("tip_uy")) for r in rows[0]]
    largest = max((t for t in tips if t is not None), default=None)
    load = max(_scale(_load(a)) or 0, _scale(_load(b)) or 0)
    moved = []
    for ra, rb in zip(*rows):
        label = f"{ra.get('method')} {ra.get('mesh_id')}"
        tip = max(_scale(ra.get("tip_uy")) or 0, _scale(rb.get("tip_uy")) or 0)
        for name in ERROR_FIELDS:
            drift, _, _ = json_diff(ra.get(name), rb.get(name))
            if drift == 0.0:
                continue
            step = abs(ra[name] - rb[name])
            if name == "err_p":
                scaled, scale = ((step / load, "|config.load|") if load
                                 else (drift, "|err_p| itself"))
            elif tip:
                scaled, scale = step / tip, "|tip_uy|"
            elif largest is not None:
                scaled, scale = step / largest, "largest |tip_uy| of the rows"
            else:
                scaled, scale = drift, f"|{name}| itself"
            moved.append((label, name, drift, scaled, scale))
    return moved


def _scaled_notes(moved):
    """Report lines of ``scaled_drifts``, flagging drifts above FLAG_EPS."""
    if not moved:
        return []
    lines = [f"moved error fields: relative drift, and drift at the solution "
             f"scale in machine epsilons (flagged above {FLAG_EPS})"]
    for label, name, drift, scaled, scale in moved:
        flag = "  FLAGGED" if not scaled <= FLAG_EPS * EPS else ""
        lines.append(f"  {label} {name}: {drift:.2g} relative, {scaled:.2g} "
                     f"= {scaled / EPS:.3g} eps of {scale}{flag}")
    return lines


def compare(scenario, base, head, rtol=0.0):
    """(problems, notes) describing how two runs of one scenario differ.

    A JSON file that differs only in numeric fields, each by at most
    ``rtol`` relative, gives a note instead of a problem.
    """
    problems, notes = [], []
    if base["status"] != head["status"]:
        problems.append(f"exit status {base['status']} -> {head['status']}")
    if base["stdout"] != head["stdout"]:
        problems.append("standard output differs")
    name = f"{scenario}.csv"
    rows = [csv_rows(run["out"] / name) for run in (base, head)]
    if rows[0] != rows[1]:
        _judge("CSV rows differ", json_diff(*rows, path=name), rtol,
               problems, notes)
    paths = [run["out"] / f"{scenario}.json" for run in (base, head)]
    if not all(p.exists() for p in paths):
        problems.append("JSON missing")
        return problems, notes
    raw_a, raw_b = (p.read_bytes() for p in paths)
    if raw_a != raw_b:
        docs = json.loads(raw_a), json.loads(raw_b)
        _judge("JSON differs", json_diff(*docs), rtol, problems, notes)
        notes += _scaled_notes(scaled_drifts(*docs))
    return problems, notes


def _judge(headline, diff, rtol, problems, notes):
    """File one ``json_diff`` result under problems or notes."""
    drift, where, other = diff
    if other or drift > rtol:
        problems.append(headline)
    if where is not None:
        (notes if drift <= rtol else problems).append(
            f"worst numeric drift {drift:.3g} at {where}")
    problems += other[:SHOWN]
    if len(other) > SHOWN:
        problems.append(f"... {len(other) - SHOWN} more mismatches")


def file_lines(tree):
    """``wc -l`` of each package source ``src/smoothfem/*.py``, by name."""
    return {path.name: path.read_bytes().count(b"\n")
            for path in (tree / "src" / "smoothfem").glob("*.py")}


def source_lines(tree):
    """``wc -l`` total of the package sources ``src/smoothfem/*.py``."""
    return sum(file_lines(tree).values())


def moved_lines(base, head):
    """``name: before -> after`` for each package source whose line count
    differs between two trees; a file missing from a tree has 0 lines."""
    before, after = file_lines(base), file_lines(head)
    return [f"{name}: {before.get(name, 0)} -> {after.get(name, 0)}"
            for name in sorted(before.keys() | after.keys())
            if before.get(name, 0) != after.get(name, 0)]


def _is_dataclass(node):
    """Whether a class definition carries a ``dataclass`` decorator."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = (target.attr if isinstance(target, ast.Attribute)
                else getattr(target, "id", None))
        if name == "dataclass":
            return True
    return False


def defaulted_parameters(tree):
    """Defaulted parameters of the package sources ``src/smoothfem/*.py``:
    every ``def``'s positional and keyword parameters with a default plus
    every dataclass field with one."""
    count = 0
    for path in (tree / "src" / "smoothfem").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_bytes())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(isinstance(s, ast.AnnAssign)
                             and s.value is not None for s in node.body)
    return count


def extract(rev, repo, dest):
    """Unpack the committed tree of ``rev`` into ``dest``."""
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "-C", str(repo), "archive", "--format=tar",
                    "-o", str(archive), rev], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Check that the working tree reproduces a revision's "
                    "scenario outputs.")
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative drift a numeric JSON field "
                             "or CSV cell may show (default 0: "
                             "byte-identical JSON)")
    args = parser.parse_args(argv)
    repo = Path(subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], check=True,
        capture_output=True, text=True).stdout.strip())
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        trees = {"base": tmp / "rev", "head": repo}
        extract(args.rev, repo, trees["base"])
        same = 0
        for scenario in SCENARIOS:
            runs = {}
            for side, tree in trees.items():
                out = tmp / "out" / side
                status, stdout, wall, rss = run_scenario(tree, scenario, out)
                runs[side] = {"status": status, "stdout": stdout, "out": out,
                              "wall": wall, "rss": rss}
            problems, notes = compare(scenario, runs["base"], runs["head"],
                                      args.rtol)
            verdict = ("DIFFERS" if problems else
                       f"within rtol {args.rtol:g}" if notes else "identical")
            base, head = runs["base"], runs["head"]
            print(f"{scenario}: {verdict} (single run: {base['wall']:.2f} s, "
                  f"{base['rss']:.0f} MB at {args.rev}, {head['wall']:.2f} s, "
                  f"{head['rss']:.0f} MB in the working tree)")
            for line in problems + notes:
                print(f"  {line}")
            same += not problems
        print(f"src/smoothfem/*.py: {source_lines(trees['base'])} lines at "
              f"{args.rev}, {source_lines(repo)} in the working tree")
        for line in moved_lines(trees["base"], repo):
            print(f"  {line}")
        print(f"defaulted parameters: {defaulted_parameters(trees['base'])} "
              f"at {args.rev}, {defaulted_parameters(repo)} in the working "
              "tree")
        print(f"{same} of {len(SCENARIOS)} scenarios match {args.rev}")
    return 0 if same == len(SCENARIOS) else 1


if __name__ == "__main__":
    sys.exit(main())
