"""Smoke self-test of the benchmark harness.

    python3 perfbench/selftest.py

For every workload, runs an untraced, a traced and a single-BLAS-thread pass
on tiny inputs, each in a fresh process, and times the calibration kernel
after the untraced ones.  Checks the pass records' schema,
that every span nests inside its parent and carries the pass's run id, and
that per-layer self times sum to no more than the traced wall time.  Then
builds both result lines from those records and checks that they carry
exactly the contract's keys and every metric of ``BENCHMARK.json`` with its
unit.  Exits nonzero on the first failure.  Takes under a minute.
"""

import json
import sys

import run
import spans
import workloads

PASS_KEYS = {"mode", "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "cells",
             "versions", "failed_cells", "summary_mismatches", "elapsed",
             "single_thread", "outputs"}
TRACED_KEYS = PASS_KEYS | {"run_id", "layers", "inclusive_s",
                           "nesting_problems", "spans"}
CALIBRATED_KEYS = PASS_KEYS | {"calib"}


def fail(message):
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def check_pass(record, keys):
    if "error" in record:
        fail(f"{record['mode']} pass: {record['error']}")
    if set(record) != keys:
        fail(f"pass keys {sorted(set(record) ^ keys)} differ")
    if record["failed_cells"]:
        fail(f"cells failed: {record['failed_cells']}")
    if not record["cells"] or record["wall_s"] <= 0:
        fail("empty pass")


def check_trace(record):
    if record["nesting_problems"]:
        fail(f"spans do not nest: {record['nesting_problems'][:3]}")
    trace = record["spans"]
    if trace[0][0] != spans.ROOT or trace[0][3] != -1:
        fail("the first span is not the benchmark root")
    if any(s[4] != record["run_id"] for s in trace):
        fail("spans of one pass carry different run ids")
    for name, start, end, parent, _ in trace[1:]:
        p_start, p_end = trace[parent][1:3]
        if not p_start <= start <= end <= p_end:
            fail(f"span {name} is not inside its parent")
    self_sum = sum(record["layers"][m] for m in spans.TIME_METRICS.values())
    if self_sum > record["wall_s"]:
        fail(f"self times {self_sum} exceed traced wall {record['wall_s']}")
    if set(record["layers"]) != set(spans.TIME_METRICS.values()) \
            | set(spans.COUNT_METRICS):
        fail("per-layer metric names differ from spans.py")


def check_result(result, declared):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1 or result["failed"]:
        fail(f"result not correct: {result}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: "
             f"{sorted(set(got.items()) ^ set(want.items()))}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} \
                or not isinstance(m["value"], (int, float)):
            fail(f"metric {name} is malformed: {m}")


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name in sorted(workloads.WORKLOADS):
        records = [run.calibrated(run.launch(name, 1, "timed", tiny=True)),
                   run.launch(name, 1, "traced", tiny=True),
                   run.calibrated(run.launch(name, 1, "timed",
                                             single_thread=True, tiny=True))]
        check_pass(records[0], CALIBRATED_KEYS)
        check_pass(records[1], TRACED_KEYS)
        check_pass(records[2], CALIBRATED_KEYS)
        check_trace(records[1])
        cells = records[0]["cells"]
        for samples, units, declared in (
                (run.timed_samples(records), run.END_TO_END,
                 bench["end_to_end"]),
                (run.traced_samples(records), run.PER_LAYER,
                 bench["per_layer"])):
            result, problems = run.judge(records, samples, units, cells)
            if problems:
                fail(f"{name}: {problems}")
            check_result(result, declared)
        print(f"selftest {name}: ok ({cells} cells, "
              f"{len(records[1]['spans'])} spans)")
    print("selftest passed")


if __name__ == "__main__":
    main()
