"""One benchmark pass in a fresh process: set up, run one workload, judge it.

    python3 perfbench/passrun.py --workload NAME --seed N --mode MODE --t0 T

MODE is ``setup`` (stop once ready), ``timed`` (tracing off) or ``traced``.
T is the caller's ``time.monotonic()`` just before it started this process,
so ``setup_s`` covers interpreter start, ``import smoothfem``,
``acceptance_data()`` and the config build.  Prints one JSON line.
"""

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_info():
    """Version and thread count of every OpenBLAS loaded in this process."""
    libs = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in Path(path).name.lower():
                libs.add(path)
    out = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                  None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    entry["threads"] = threads()
                    entry["config"] = config().decode()
                    break
            if "threads" in entry:
                break
        out.append(entry)
    return out


def versions():
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas_info()}


def run_pass(args):
    sys.path.insert(0, str(ROOT / "src"))
    import smoothfem
    package = Path(smoothfem.__file__).resolve().parent
    if package != (ROOT / "src" / "smoothfem").resolve():
        raise SystemExit(f"smoothfem imported from {package}, not this "
                         "checkout")
    from smoothfem.benchmarks import acceptance_data, make_config, run_scenario

    import workloads
    acceptance_data()
    work = workloads.WORKLOADS[args.workload]
    config = make_config(work.scenario, **workloads.make_overrides(
        args.workload, args.seed, tiny=args.tiny))
    out = {"mode": args.mode, "setup_s": time.monotonic() - args.t0}
    if args.mode == "setup":
        return out

    tracer = None
    if args.mode == "traced":
        import spans
        tracer = spans.Tracer(f"{args.workload}/seed{args.seed}/"
                              f"{args.mode}/{args.run_index}")
        restore = spans.install(tracer)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    if tracer is None:
        reports, summary = run_scenario(config)
    else:
        with tracer.span(spans.ROOT):
            reports, summary = run_scenario(config)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        restore()

    out.update({
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime
                  + after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "cells": len(reports),
        "versions": versions(),
    })
    outputs = workloads.key_outputs(reports, summary)
    if args.tiny:
        out["outputs"] = outputs
        out["failed_cells"] = sorted(c for c, v in outputs["cells"].items()
                                     if v["status"] != "ok")
        out["summary_mismatches"] = []
    else:
        reference = workloads.load_reference(args.workload, args.seed)
        failed, off = workloads.compare(outputs, reference, work.rtol)
        out["failed_cells"] = failed
        out["summary_mismatches"] = off
    if tracer is not None:
        tracer.add("benchmarks.cells", len(reports))
        out["run_id"] = tracer.run_id
        out["layers"] = tracer.metrics()
        out["inclusive_s"] = dict(tracer.inclusive_times())
        out["nesting_problems"] = tracer.check_nesting()
        out["spans"] = [span + [tracer.run_id] for span in tracer.spans]
    return out


def main(argv=None):
    import workloads
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "traced"))
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--run-index", type=int, default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="the self-test's small inputs, not judged "
                             "against the reference")
    args = parser.parse_args(argv)
    print(json.dumps(run_pass(args)))


if __name__ == "__main__":
    main()
