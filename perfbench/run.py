"""The smoothfem benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every pass is a fresh
``python3 perfbench/passrun.py`` process that imports ``src/smoothfem``,
runs ``run_scenario`` once and judges its outputs against
``perfbench/reference``.  With ``--trace 0`` the run makes set-up probes and
untraced passes until S seconds are used, times a fixed calibration kernel
after each (``calibrate.py``) and reports medians of the end-to-end metrics,
times scaled to the reference host speed.  With ``--trace 1`` it alternates
untraced and traced passes, adds one pass with a single BLAS thread, and
reports per-layer self times and counts.  The last line of standard output is one JSON object; details go
to ``perfbench/results/``.  The exit status is nonzero when any output is
wrong or a pass failed.
"""

import argparse
import ctypes
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

PASS_TIMEOUT = 150     # seconds before a pass is killed and counted failed
ADDR_NO_RANDOMIZE = 0x0040000   # personality(2) flag, linux/personality.h
SETUP_PROBES = 4       # set-up-only processes per timed run, besides passes

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "ok_frac": "ratio"}
# measured times before the host-speed scaling, and the calibration kernel
RAW_METRICS = {"raw.wall_s": "s", "raw.cpu_s": "s", "raw.setup_s": "s",
               "calibrate.wall_s": "s", "calibrate.cpu_s": "s"}
TRACE_METRICS = {"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                 "trace.overhead_s": "s", "single_thread.wall_s": "s",
                 "single_thread.cpu_s": "s"}
PER_LAYER = {**{m: "s" for m in spans.TIME_METRICS.values()},
             **spans.COUNT_METRICS, **TRACE_METRICS}


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def source_stats(root):
    """Line count and content hash of the package sources under src/."""
    files = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def git_revision(root):
    """HEAD of the checkout, or "unknown" when it is not a git checkout."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine():
    """The host as this process sees it."""
    info = {"nproc": os.cpu_count()}
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            info["cpu"] = line.split(":", 1)[1].strip()
            break
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        level = _read(index / "level").strip()
        if level in ("2", "3"):
            info[f"l{level}"] = _read(index / "size").strip()
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal"):
            info["mem_total"] = line.split(":", 1)[1].strip()
    return info


def provenance(versions):
    info = {"machine": machine(), "git_revision": git_revision(ROOT),
            "calibration_ref": {"wall_s": calibrate.REF_WALL_S,
                                "cpu_s": calibrate.REF_CPU_S},
            **source_stats(ROOT)}
    if versions:
        nproc = info["machine"]["nproc"] or 1
        info.update({k: versions[k] for k in ("python", "numpy", "scipy")})
        info["openblas"] = [
            {**lib, "threads_in_effect": min(lib.get("threads", 1), nproc)}
            for lib in versions["openblas"]]
    return info


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------

def _fixed_layout():
    """In the child before exec: no address-space randomization.

    With it, peak RSS of one block-3d input took two values 8 % apart from
    pass to pass.  Acts on this process only; if the call is refused the
    pass runs randomized as usual.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def launch(workload, seed, mode, run_index=0, single_thread=False,
           tiny=False):
    """Run one pass process; its JSON record plus ``elapsed`` and ``error``."""
    # a fixed string-hash seed: with a random one, peak RSS of one input
    # moves by up to 10 % from pass to pass
    env = dict(os.environ, PYTHONHASHSEED="0")
    if single_thread:
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--run-index",
           str(run_index), "--t0", repr(t0)] + (["--tiny"] if tiny else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT,
                              preexec_fn=_fixed_layout)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "elapsed": time.monotonic() - t0,
                "error": f"pass exceeded {PASS_TIMEOUT} s"}
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"mode": mode, "elapsed": elapsed,
                "error": f"exit {proc.returncode}: " + " | ".join(tail)}
    record = json.loads(lines[-1])
    record["elapsed"] = elapsed
    record["single_thread"] = single_thread
    return record


def calibrated(record):
    """``record`` with one timing of the calibration kernel taken after it."""
    record["calib"] = calibrate.measure()
    return record


def tally(records, expected_cells):
    """(attempted, failed, problems) over judged passes.

    An operation is one cell, plus one per pass for its summary (fitted
    rates, derived values and check verdicts).  A pass that did not finish
    fails all of its operations.
    """
    attempted = failed = 0
    problems = []
    for r in records:
        if r["mode"] == "setup" and "error" not in r:
            continue
        attempted += expected_cells + 1
        if "error" in r:
            failed += expected_cells + 1
            problems.append(f"{r['mode']} pass: {r['error']}")
            continue
        bad = len(r["failed_cells"]) + bool(r["summary_mismatches"])
        failed += bad
        if bad:
            problems.append(f"{r['mode']} pass off the reference: cells "
                            f"{r['failed_cells']}, summary "
                            f"{r['summary_mismatches']}")
        if r.get("nesting_problems"):
            problems.append(f"spans do not nest: {r['nesting_problems'][:3]}")
        if "layers" in r:
            self_sum = sum(r["layers"][m] for m in spans.TIME_METRICS.values())
            if self_sum > r["wall_s"]:
                problems.append(f"self times {self_sum} exceed traced wall "
                                f"{r['wall_s']}")
    return attempted, failed, problems


def tail_percentile(samples):
    """(p, value): the highest percentile with ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(samples)[k - 1]


def summarize(name, samples, unit):
    tail = tail_percentile(samples)
    tail_text = (f"p{tail[0]:.0f}={tail[1]:.6g}" if tail
                 else "tail=n/a (fewer than 11 samples)")
    return (f"{name:34s} median={statistics.median(samples):.6g} {unit}  "
            f"{tail_text}  n={len(samples)}")


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------

def timed_run(args, deadline):
    calibrate.measure()     # warm-up: first calls in this process, not kept
    records = [calibrated(launch(args.workload, args.seed, "setup"))
               for _ in range(SETUP_PROBES)]
    longest = 0.0
    passes = []
    while not passes or time.monotonic() + longest <= deadline:
        record = calibrated(launch(args.workload, args.seed, "timed"))
        longest = max(longest, record["elapsed"] + record["calib"]["wall_s"])
        passes.append(record)
        if "error" in record:
            break
    return records + passes


def traced_run(args, deadline):
    records = [launch(args.workload, args.seed, "timed"),
               launch(args.workload, args.seed, "traced"),
               launch(args.workload, args.seed, "timed", single_thread=True)]
    pair = records[0]["elapsed"] + records[1]["elapsed"]
    while time.monotonic() + pair <= deadline \
            and not any("error" in r for r in records):
        records.append(launch(args.workload, args.seed, "traced",
                              run_index=len(records)))
        records.append(launch(args.workload, args.seed, "timed"))
    return records


def scaled(records, metric, kind, modes=("setup", "timed", "traced")):
    """``metric`` of calibrated, finished records of ``modes``, scaled to the
    reference host speed.

    A record's host speed is taken from the calibration kernel timed just
    before its process started and just after it ended (``kind`` is the
    kernel's ``wall_s`` or ``cpu_s``); the first record has only the latter.
    """
    ref = calibrate.REF_WALL_S if kind == "wall_s" else calibrate.REF_CPU_S
    out = []
    for k, r in enumerate(records):
        if "calib" not in r or "error" in r or r["mode"] not in modes:
            continue
        around = [r["calib"][kind]]
        if k and "calib" in records[k - 1]:
            around.append(records[k - 1]["calib"][kind])
        out.append(r[metric] * ref / statistics.fmean(around))
    return out


def timed_samples(records):
    """End-to-end samples: one per pass, set-up from probes and passes.

    Times are scaled to the reference host speed with the calibration kernel
    timed around each process (see ``scaled``); records without calibration
    timings give no time samples.
    """
    good = [r for r in records if "error" not in r]
    passes = [r for r in good if r["mode"] == "timed"]
    return {
        "wall_s": scaled(records, "wall_s", "wall_s", ("timed",)),
        "cpu_s": scaled(records, "cpu_s", "cpu_s", ("timed",)),
        "setup_s": scaled(records, "setup_s", "wall_s"),
        "peak_rss_mb": [r["peak_rss_mb"] for r in passes],
        "raw.wall_s": [r["wall_s"] for r in passes],
        "raw.cpu_s": [r["cpu_s"] for r in passes],
        "raw.setup_s": [r["setup_s"] for r in good],
        "calibrate.wall_s": [r["calib"]["wall_s"] for r in records
                             if "calib" in r],
        "calibrate.cpu_s": [r["calib"]["cpu_s"] for r in records
                            if "calib" in r]}


def traced_samples(records):
    """Per-layer samples from traced passes, plus overhead and baseline."""
    good = [r for r in records if "error" not in r]
    traced = [r for r in good if r["mode"] == "traced"]
    untraced = [r for r in good
                if r["mode"] == "timed" and not r["single_thread"]]
    single = [r for r in good if r["single_thread"]]
    samples = {m: [r["layers"][m] for r in traced]
               for m in list(spans.TIME_METRICS.values())
               + list(spans.COUNT_METRICS)}
    samples["trace.wall_s"] = [r["wall_s"] for r in traced]
    samples["trace.untraced_wall_s"] = [r["wall_s"] for r in untraced]
    if traced and untraced:
        samples["trace.overhead_s"] = [
            statistics.median(samples["trace.wall_s"])
            - statistics.median(samples["trace.untraced_wall_s"])]
    samples["single_thread.wall_s"] = [r["wall_s"] for r in single]
    samples["single_thread.cpu_s"] = [r["cpu_s"] for r in single]
    return samples


def judge(records, samples, units, expected_cells):
    """(result line, problems): the contract's JSON object for one run."""
    attempted, failed, problems = tally(records, expected_cells)
    samples["ok_frac"] = [1.0 - failed / attempted]
    missing = [m for m in units if not samples.get(m)]
    if missing:
        problems.append(f"no samples of {missing}")
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in units.items() if samples.get(name)}
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, problems


def count_drift(args, samples):
    """Counts that differ between traced passes or from an earlier run.

    The first run of a workload and input stores its counts under
    ``results/``; later runs of the same input must repeat them exactly.
    """
    counts = {}
    drift = []
    for key in spans.COUNT_METRICS:
        values = set(samples.get(key, []))
        if len(values) > 1:
            drift.append(f"{key} differs between passes: {sorted(values)}")
        if values:
            counts[key] = min(values)
    key = workloads.reference_key(args.workload, args.seed)
    path = RESULTS / f"counts-{args.workload}-{key}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        for name, value in counts.items():
            if name in earlier and earlier[name] != value:
                drift.append(f"{name} was {earlier[name]} in an earlier run, "
                             f"now {value}")
    elif counts:
        path.write_text(json.dumps(counts, indent=1, sort_keys=True))
    return drift


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # on SIGTERM, unwind: subprocess.run then kills and reaps a running pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "smoothfem" / "__init__.py").is_file():
        print(f"no smoothfem sources under {ROOT / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    reference = workloads.reference_path(args.workload)
    if not reference.is_file():
        print(f"missing reference outputs {reference}", file=sys.stderr)
        return 2
    expected_cells = len(workloads.load_reference(
        args.workload, args.seed)["cells"])

    deadline = time.monotonic() + args.seconds
    if args.trace:
        records = traced_run(args, deadline)
        samples, units = traced_samples(records), PER_LAYER
    else:
        records = timed_run(args, deadline)
        samples, units = timed_samples(records), END_TO_END
    result, problems = judge(records, samples, units, expected_cells)
    RESULTS.mkdir(exist_ok=True)
    drift = count_drift(args, samples) if args.trace else []

    versions = next((r["versions"] for r in records if "versions" in r), None)
    info = provenance(versions)
    info.update({"workload": args.workload, "seed": args.seed,
                 "config_seed": workloads.config_seed(args.workload,
                                                      args.seed),
                 "seed_affects_inputs":
                     workloads.WORKLOADS[args.workload].seeded,
                 "seconds": args.seconds, "trace": args.trace})
    print("provenance " + json.dumps(info, sort_keys=True))
    for name, unit in {**units, **RAW_METRICS}.items():
        if samples.get(name):
            print(summarize(name, samples[name], unit))
    if args.trace:
        traced = [r for r in records if r.get("mode") == "traced"
                  and "error" not in r]
        if traced:
            first = traced[0]
            self_sum = sum(first["layers"][m]
                           for m in spans.TIME_METRICS.values())
            print(f"traced wall {first['wall_s']:.4f} s, sum of self times "
                  f"{self_sum:.4f} s, unaccounted "
                  f"{first['wall_s'] - self_sum:.2e} s")
            ranked = sorted(((first["layers"][m], m)
                             for m in spans.TIME_METRICS.values()),
                            reverse=True)[:5]
            print("largest self times: " + ", ".join(
                f"{m} {v:.3f} s ({100 * v / first['wall_s']:.0f} %)"
                for v, m in ranked))
            inclusive = sorted(((v, m) for m, v in first["inclusive_s"].items()
                                if m != spans.ROOT), reverse=True)[:5]
            print("largest inclusive times: " + ", ".join(
                f"{m} {v:.3f} s ({100 * v / first['wall_s']:.0f} %)"
                for v, m in inclusive))
    for line in drift:
        print(f"NONDETERMINISM {line}")
    for line in problems:
        print(f"PROBLEM {line}")

    detail = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(
        {"provenance": info, "samples": samples, "records": records,
         "nondeterminism": drift, "problems": problems}, sort_keys=True))

    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
