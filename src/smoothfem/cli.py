"""Command-line driver for the benchmark scenarios.

Usage::

    smoothfem run cook --methods bes-fem,mini --meshes 2,4,8 --out results
    smoothfem run cook-neohookean --kappa 1.95,100 --steps 5
    smoothfem check --out results

``run`` executes one scenario and prints a plain-text result table plus
one line per recorded check.  With ``--out DIR`` it also writes
``DIR/<scenario>.csv`` (a timestamp comment line is the only content
allowed to differ between reruns) and ``DIR/<scenario>.json`` (reports
plus the full summary, fully deterministic).  ``check`` runs the
operator property battery and the inf-sup sweep back to back.

Options may also be read from a flat ``key = value`` file through
``--config``; command-line flags override file values, which override
the scenario defaults.  Each scenario accepts only the settings it reads;
any other option is an error.  :func:`config_to_text` renders a
configuration in that file format: the scenario and the settings it
accepts, which :func:`parse_config_text` reads back to an equal
configuration.

The process exits nonzero when any cell failed to solve or any recorded
check did not pass.
"""

import argparse
import dataclasses
import datetime
import math
import os
import sys

from .analysis import CSV_COLUMNS, reports_to_csv, reports_to_json
from .benchmarks import (SCENARIOS, accepted_settings, format_bound,
                         make_config, run_scenario)


def _parse_names(text):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_ints(text):
    return tuple(int(part) for part in _parse_names(text))


def _parse_floats(text):
    return tuple(float(part) for part in _parse_names(text))


# configuration field -> (command-line flag, parser, help)
OPTIONS = {
    "methods": ("--methods", _parse_names, "comma-separated method names"),
    "meshes": ("--meshes", _parse_ints, "comma-separated mesh resolutions"),
    "young": ("--young", float, "Young's modulus"),
    "poisson": ("--nu", float, "Poisson ratio"),
    "load": ("--load", float,
             "resultant edge force (Cook) or boundary pressure"),
    "bubble": ("--bubble", str,
               "bubble family for the enriched methods: power or hat"),
    "kappa": ("--kappa", _parse_floats,
              "comma-separated bulk moduli (neo-Hookean)"),
    "mu": ("--mu", float, "shear modulus (neo-Hookean)"),
    "steps": ("--steps", int, "number of load steps (neo-Hookean)"),
    "distort": ("--distort", float,
                "interior node perturbation as a fraction of h"),
    "seed": ("--seed", int, "random seed for mesh distortion"),
    "pattern": ("--pattern", str,
                "3D block mesh pattern: uniform or unstructured"),
    "out": ("--out", str, "directory for the CSV and JSON reports"),
}


def config_to_text(config):
    """Render a configuration as a flat ``key = value`` file holding the
    scenario and the settings it accepts."""
    lines = ["# benchmark scenario configuration"]
    names = ("scenario", *accepted_settings(config.scenario))
    for f in dataclasses.fields(config):
        if f.name not in names:
            continue
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ",".join(repr(v) if isinstance(v, float) else str(v)
                             for v in value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def parse_config_text(text):
    """Parse a ``key = value`` configuration file into typed overrides.

    Blank lines and ``#`` comments are skipped.  The returned dict maps
    field names to values ready for :func:`make_config`; a ``scenario``
    key is returned under that name as a plain string.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', "
                             f"got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "scenario":
            values[key] = value
        elif key in OPTIONS:
            values[key] = OPTIONS[key][1](value)
        else:
            raise ValueError(f"line {lineno}: unknown configuration key "
                             f"{key!r}")
    return values


def _cell(value):
    if isinstance(value, float):
        return "-" if math.isnan(value) else f"{value:.6g}"
    return str(value)


def format_table(reports):
    """Render reports as an aligned plain-text table."""
    rows = [list(CSV_COLUMNS)]
    for r in reports:
        rows.append([r.method, r.mesh_id, _cell(r.h), str(r.n_elements),
                     _cell(r.err_u), _cell(r.err_p), _cell(r.err_E),
                     _cell(r.tip_uy)])
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0]), row[1].ljust(widths[1])]
        cells += [row[i].rjust(widths[i]) for i in range(2, len(row))]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def format_checks(checks):
    """One line per recorded check, ending in PASS or FAIL."""
    lines = []
    for name, c in checks.items():
        verdict = "PASS" if c["passed"] else "FAIL"
        lines.append(f"check {name}: {format_bound(c)} [{c['source']}] "
                     f"{verdict}")
    return lines


def _report_scenario(config, reports, summary, stream):
    """Print the table, check lines and failures; return overall success."""
    print(f"scenario {config.scenario}", file=stream)
    print(format_table(reports), file=stream)
    checks = summary.get("checks", {})
    for line in format_checks(checks):
        print(line, file=stream)
    failures = summary.get("failures", [])
    details = {f"{r.method}/{r.mesh_id}": r.extra.get("error", "")
               for r in reports if r.extra.get("status") == "failed"}
    # pressure profiles run on their own mesh and have no report row
    mesh = summary.get("profile", {}).get("mesh")
    profiles = {f"{m}/{mesh}": why
                for m, why in summary.get("profile_errors", {}).items()}
    for cell in failures:
        kind = "profile" if cell in profiles else "cell"
        why = profiles.get(cell, details.get(cell, ""))
        print(f"failed {kind} {cell}: {why}", file=stream)
    n_bad = sum(1 for c in checks.values() if not c["passed"])
    print(f"{len(reports)} cells, {len(failures) - len(profiles)} failed; "
          f"{len(checks)} checks, {n_bad} failed", file=stream)
    return not failures and n_bad == 0


def _write_outputs(config, reports, summary):
    os.makedirs(config.out, exist_ok=True)
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    base = os.path.join(config.out, config.scenario)
    with open(base + ".csv", "w", encoding="utf-8") as fh:
        fh.write(reports_to_csv(reports, timestamp=stamp))
    with open(base + ".json", "w", encoding="utf-8") as fh:
        fh.write(reports_to_json(reports, summary=summary))
    return base


def _execute(config, stream):
    reports, summary = run_scenario(config)
    ok = _report_scenario(config, reports, summary, stream)
    if config.out:
        base = _write_outputs(config, reports, summary)
        print(f"wrote {base}.csv and {base}.json", file=stream)
    return ok


def _collect_overrides(args):
    overrides = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            values = parse_config_text(fh.read())
        values.pop("scenario", None)
        overrides.update(values)
    for name in OPTIONS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return overrides


def _cmd_run(args, stream):
    config = make_config(args.scenario, **_collect_overrides(args))
    return 0 if _execute(config, stream) else 1


def _cmd_check(args, stream):
    ok = True
    for scenario in ("lemma-checks", "infsup"):
        config = make_config(scenario, out=args.out or "")
        ok = _execute(config, stream) and ok
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="smoothfem",
        description="Benchmark driver for smoothed and mixed simplicial "
                    "finite elements in nearly incompressible elasticity.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="execute one benchmark scenario",
        description="Execute one benchmark scenario and report per-cell "
                    "results plus pass/fail checks.")
    run.add_argument("scenario", choices=SCENARIOS)
    for name, (flag, parse, text) in OPTIONS.items():
        run.add_argument(flag, dest=name, type=parse, default=None,
                         metavar=flag[2:].upper(), help=text)
    run.add_argument("--config", default=None, metavar="FILE",
                     help="key = value file with defaults for the flags")

    check = sub.add_parser(
        "check", help="run the operator property battery and inf-sup sweep",
        description="Run the operator property checks and the inf-sup "
                    "refinement sweep with their default settings.")
    check.add_argument("--out", default=None, metavar="DIR",
                       help="directory for the CSV and JSON reports")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    stream = sys.stdout
    try:
        if args.command == "run":
            return _cmd_run(args, stream)
        return _cmd_check(args, stream)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
