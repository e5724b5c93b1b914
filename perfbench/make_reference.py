"""Regenerate the stored reference outputs of the benchmark workloads.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every workload (every folded seed of a seeded one) once in this
process from ``src/`` and writes ``perfbench/reference/<workload>.json``.
Refuses to write when a cell fails or a check does not pass.  Only rerun it
on purpose: the benchmark judges every later commit against these files.
"""

import json
import sys

import run
import workloads


def main(names):
    sys.path.insert(0, str(run.ROOT / "src"))
    from smoothfem.benchmarks import make_config, run_scenario

    for name in names or sorted(workloads.WORKLOADS):
        work = workloads.WORKLOADS[name]
        seeds = range(workloads.SEEDED_INPUTS) if work.seeded else [0]
        outputs = {}
        for seed in seeds:
            config = make_config(work.scenario,
                                 **workloads.make_overrides(name, seed))
            out = workloads.key_outputs(*run_scenario(config))
            bad = [c for c, v in out["cells"].items() if v["status"] != "ok"]
            failing = [k for k, v in out["summary"].items()
                       if k.startswith("check.") and not v]
            if bad or failing or out["summary"]["failures"]:
                raise SystemExit(f"{name} seed {seed}: failed cells {bad}, "
                                 f"failing checks {failing}")
            outputs[workloads.reference_key(name, seed)] = out
            print(f"{name} seed {seed}: {len(out['cells'])} cells", flush=True)
        data = {"workload": name, "scenario": work.scenario,
                "overrides": dict(work.overrides),
                "git_revision": run.git_revision(run.ROOT),
                **run.source_stats(run.ROOT), "outputs": outputs}
        workloads.REFERENCE_DIR.mkdir(exist_ok=True)
        workloads.reference_path(name).write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
