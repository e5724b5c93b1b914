#!/usr/bin/env python3
"""Compare a revision and the working tree on benchmark workloads.

Usage (from anywhere inside the repository)::

    python3 tools/ab_pairs.py REV --workload W [--workload W2 ...]
                              [--pairs 10] [--seconds 42]

Extracts REV with ``git archive`` (the helper of ``same_outputs.py``) and
copies the working tree's files (tracked, or untracked and not ignored)
into sibling directories of one temporary directory, so neither side runs
from a location the other does not share. It then runs ``perfbench/run.py
--workload W --seed N --seconds S --trace 0`` PAIRS times on REV and on the
working tree for each workload W. Every pair runs each workload in the
order given, both sides back to back; the sides alternate, and the side
that goes first alternates from pair to pair, so a slow drift of the host
hits both sides and every workload alike. Pair N uses seed N on both
sides. For each workload and every end-to-end metric that
``BENCHMARK.json`` declares, it prints the median and quartiles of each
side and the number of pairs the working tree won. A metric counts as a
clear change when the working tree wins at least nine pairs in ten and its
median is better by more than REV's interquartile range. It then prints the
same figures, labelled "unscaled, no verdict", for the unscaled medians
``raw.wall_s`` and ``raw.cpu_s`` that each run prints before its result
line: the host-speed scaling divides wall and CPU time by different kernel
timings, so an effect that moves between the two shows best unscaled.
Exit status 0 when every run is correct, 1 otherwise.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from same_outputs import extract  # noqa: E402

RAW_TIMES = ("raw.wall_s", "raw.cpu_s")


def copy_worktree(repo, dest):
    """Copy the working tree's files, uncommitted edits included, into
    ``dest``: what git tracks, and untracked files it does not ignore."""
    listed = subprocess.run(
        ["git", "-C", str(repo), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], check=True, capture_output=True).stdout
    for name in listed.decode().split("\0"):
        source = Path(repo) / name
        # a tracked file deleted in the working tree is not part of it
        if name and source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_workload(tree, workload, seed, seconds):
    """The result object a benchmark run prints last, or None."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    result["raw"] = raw_medians(proc.stdout)
    return result if proc.returncode == 0 else dict(result, correct=False)


def raw_medians(stdout):
    """The ``RAW_TIMES`` medians from the ``NAME median=VALUE UNIT ...``
    lines that a benchmark run prints before its result line."""
    found = {}
    for line in stdout.splitlines():
        name, _, rest = line.partition(" ")
        if name in RAW_TIMES and "median=" in rest:
            found[name] = float(rest.split("median=", 1)[1].split()[0])
    return found


def quartiles(samples):
    """(first quartile, median, third quartile) of a sample list."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base, head, better):
    """Medians, quartiles and wins of paired samples of one metric.

    ``base[i]`` and ``head[i]`` come from pair i; ``better`` is "lower" or
    "higher".  The head wins a pair when it is strictly better there.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (h - b) < 0.0 for b, h in zip(base, head))
    bq, hq = quartiles(base), quartiles(head)
    gain = sign * (bq[1] - hq[1])
    return {"base": bq, "head": hq, "wins": wins, "pairs": len(base),
            "clear": 10 * wins >= 9 * len(base) and gain > bq[2] - bq[0]}


def report_line(name, unit, summary, judged=True):
    """One comparison line; with ``judged`` false it states no verdict."""
    b, h = summary["base"], summary["head"]
    verdict = ("unscaled, no verdict" if not judged else
               "clear change" if summary["clear"] else "no clear change")
    return (f"{name:12s} rev {b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}] {unit}  "
            f"tree {h[1]:.4g} [{h[0]:.4g}, {h[2]:.4g}] {unit}  "
            f"tree wins {summary['wins']}/{summary['pairs']}: {verdict}")


def parse_args(argv=None):
    """The command line: a revision, one or more distinct workloads, and
    the pair count and seconds of each run."""
    parser = argparse.ArgumentParser(
        description="Alternate benchmark runs of a revision and the working "
                    "tree and compare their end-to-end metrics.")
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to compare; repeat for more")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=42)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if len(set(args.workload)) < len(args.workload):
        parser.error("each --workload may be given once")
    return args


def schedule(pairs, workloads):
    """(pair, workload, side) of every run, in run order: each pair runs
    every workload on both sides, and the side that goes first flips from
    pair to pair."""
    for pair in range(pairs):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for workload in workloads:
            for side in order:
                yield pair, workload, side


def report(workload, metrics, results):
    """Print one workload's comparison; False when a run was incorrect."""
    print(f"== {workload}")
    correct = all(r is not None and r["correct"]
                  for side in results.values() for r in side)
    if not correct:
        print("some runs were incorrect or gave no result; no comparison")
        return False
    for metric in metrics:
        name = metric["name"]
        base, head = ([r["metrics"][name]["value"] for r in results[side]]
                      for side in ("base", "head"))
        print(report_line(name, metric["unit"],
                          summarize(base, head, metric["better"])))
    for name in RAW_TIMES:
        base, head = ([r["raw"].get(name) for r in results[side]]
                      for side in ("base", "head"))
        if None not in base + head:
            print(report_line(name, "s", summarize(base, head, "lower"),
                              judged=False))
    return True


def main(argv=None):
    args = parse_args(argv)
    repo = Path(subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], check=True,
        capture_output=True, text=True).stdout.strip())
    metrics = json.loads((repo / "BENCHMARK.json").read_text())["end_to_end"]
    results = {w: {"base": [], "head": []} for w in args.workload}
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        trees = {"base": Path(tmp) / "rev", "head": Path(tmp) / "tree"}
        extract(args.rev, repo, trees["base"])
        copy_worktree(repo, trees["head"])
        for pair, workload, side in schedule(args.pairs, args.workload):
            result = run_workload(trees[side], workload, pair + 1,
                                  args.seconds)
            results[workload][side].append(result)
            state = ("no result" if result is None else
                     "correct" if result["correct"] else "INCORRECT")
            print(f"pair {pair + 1} {workload} "
                  f"{'rev' if side == 'base' else 'tree'}: {state}",
                  flush=True)
    correct = [report(w, metrics, results[w]) for w in args.workload]
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
