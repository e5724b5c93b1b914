"""Workload definitions, key-output extraction and the reference oracle.

Every workload is one ``smoothfem.benchmarks.run_scenario(make_config(...))``
call, the same entry point ``smoothfem run`` uses.  The reference outputs
in ``reference/<workload>.json`` were produced by ``make_reference.py``;
each pass of the benchmark compares its own outputs against them.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# infsup-2d draws its mesh distortion from the seed; the benchmark folds
# every --seed onto this many distinct inputs, each with a stored reference
SEEDED_INPUTS = 16


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``overrides`` go to ``make_config(scenario, **overrides)``.  ``rtol`` is
    the relative tolerance of every numeric output against the reference.
    ``tiny`` replaces the mesh list in the harness self-test.  Only a
    ``seeded`` workload receives a distinct input per seed.
    """

    scenario: str
    overrides: dict
    rtol: float
    seeded: bool = False
    tiny: dict = field(default_factory=dict)


WORKLOADS = {
    # convergence against the closed-form pipe solution; factorization-heavy
    "pipe-2d": Workload(
        "pipe",
        dict(methods=("bes-fem", "mini", "ns-fem"), meshes=(4, 8, 16, 32)),
        rtol=1e-12, tiny=dict(meshes=(2, 3, 4))),
    # 3D face smoothing on unstructured Delaunay blocks; assembly-heavy.  The
    # finest mesh stays at 5: the tip-reference check is pinned to it
    "block-3d": Workload(
        "block3d", dict(meshes=(3, 4, 5)),
        rtol=1e-12, tiny=dict(meshes=(3,))),
    # neo-Hookean Newton load stepping over the default bulk-modulus sweep;
    # many small tangent factorizations.  Newton stops at a relative
    # residual of 1e-9, so outputs agree to well within 1e-7
    "newton-2d": Workload(
        "cook-neohookean", dict(meshes=(2, 4, 8), steps=10),
        rtol=1e-7, tiny=dict(meshes=(2, 3), kappa=(1.95, 100.0), steps=2)),
    # dense inf-sup eigenproblem on distorted membranes; the memory user.
    # The smallest eigenvalue of the vertex pairing decays to ~1e-4 of the
    # largest, so beta carries ~eps * 1e4 of rounding that changes with the
    # BLAS thread count (up to 3e-12 measured); 1e-10 is the agreement
    # ROADMAP item 5 asks of any inf-sup solver
    "infsup-2d": Workload(
        "infsup",
        dict(methods=("bes-fem", "es-fem"), meshes=(4, 8, 16, 32, 40),
             distort=0.4),
        rtol=1e-10, seeded=True, tiny=dict(meshes=(2, 3, 4))),
}


def config_seed(name, seed):
    """The ``config.seed`` a workload runs with for a benchmark seed."""
    return seed % SEEDED_INPUTS if WORKLOADS[name].seeded else seed


def reference_key(name, seed):
    """Key of the stored reference outputs for a workload and seed."""
    return str(config_seed(name, seed)) if WORKLOADS[name].seeded else "any"


def make_overrides(name, seed, tiny=False):
    """Keyword overrides for ``make_config`` of one workload pass."""
    work = WORKLOADS[name]
    overrides = dict(work.overrides)
    if tiny:
        overrides.update(work.tiny)
    overrides["seed"] = config_seed(name, seed)
    return overrides


# ----------------------------------------------------------------------
# key outputs
# ----------------------------------------------------------------------

_CELL_FIELDS = ("tip_uy", "err_u", "err_p", "err_E")
_CELL_EXTRA = ("beta", "energy")
_SUMMARY_FIELDS = ("tip_limit", "ordering_margin", "locking_ratio",
                   "min_increment")


def _num(x):
    x = float(x)
    return None if math.isnan(x) else x


def key_outputs(reports, summary):
    """The outputs a pass is judged on, as plain JSON-ready values.

    ``cells`` maps ``method/mesh`` to the cell's status and numeric outputs
    (tips, error norms, inf-sup constants, Newton energies).  ``summary``
    holds the fitted rates, derived scalars and every check verdict.
    """
    cells = {}
    for r in reports:
        values = {"status": r.extra.get("status", "missing")}
        for key in _CELL_FIELDS:
            values[key] = _num(getattr(r, key))
        for key in _CELL_EXTRA:
            if key in r.extra:
                values[key] = _num(r.extra[key])
        cells[f"{r.method}/{r.mesh_id}"] = values
    out = {}
    for method, rates in sorted(summary.get("rates", {}).items()):
        for norm, value in sorted(rates.items()):
            out[f"rate.{method}.{norm}"] = _num(value)
    for key in _SUMMARY_FIELDS:
        if key in summary:
            out[key] = _num(summary[key])
    for name, check in sorted(summary.get("checks", {}).items()):
        out[f"check.{name}"] = bool(check["passed"])
    out["failures"] = len(summary.get("failures", ()))
    return {"cells": cells, "summary": out}


def _close(got, want, rtol):
    if isinstance(want, (bool, int, str)) or want is None or got is None:
        return got == want
    return abs(got - want) <= rtol * max(abs(got), abs(want))


def _diff(got, want, rtol):
    """Keys of two flat dicts whose values disagree (missing counts)."""
    return sorted(k for k in set(got) | set(want)
                  if k not in got or k not in want
                  or not _close(got[k], want[k], rtol))


def compare(outputs, reference, rtol):
    """Judge one pass against its reference outputs.

    Returns (failed_cells, summary_mismatches): the cell ids whose status is
    not ``ok`` or whose outputs are off the reference (missing and extra
    cells included), and the summary keys that disagree.
    """
    got, want = outputs["cells"], reference["cells"]
    failed = []
    for cell in sorted(set(got) | set(want)):
        if cell not in got or cell not in want \
                or got[cell]["status"] != "ok" \
                or _diff(got[cell], want[cell], rtol):
            failed.append(cell)
    return failed, _diff(outputs["summary"], reference["summary"], rtol)


def reference_path(name):
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name, seed):
    """The reference outputs stored for one workload and seed."""
    data = json.loads(reference_path(name).read_text())
    return data["outputs"][reference_key(name, seed)]
