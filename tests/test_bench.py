"""Tests of the benchmark configuration, scenario engine and CLI."""

import dataclasses
import gc
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import smoothfem
import smoothfem.assembly as assembly
import smoothfem.benchmarks as benchmarks
import smoothfem.cli as cli
import smoothfem.smoothing as smoothing
from smoothfem.analysis import (ExactPipeSolution, reports_from_json,
                                reports_to_json)
from smoothfem.benchmarks import SCENARIOS, make_config, run_scenario
from smoothfem.cli import (config_to_text, format_checks, format_table, main,
                           parse_config_text)
from smoothfem.mesh import distort_mesh, generate_block, generate_cook
from smoothfem.solve import infsup_measure


def test_defaults_cook():
    cfg = make_config("cook")
    assert cfg.methods == ("fem-t3", "es-fem", "ns-fem", "mini", "bes-fem")
    assert cfg.meshes == (2, 4, 8, 16, 32)
    assert (cfg.young, cfg.poisson, cfg.load) == (250.0, 0.4999, 100.0)
    assert cfg.bubble == "power" and cfg.distort == 0.0


def test_defaults_pipe_block_neo():
    pipe = make_config("pipe")
    assert (pipe.young, pipe.poisson, pipe.load) == (21000.0, 0.4999999, 8.0)
    block = make_config("block3d")
    assert block.scenario == "block3d" and block.load == 250.0
    assert "bfs-fem" in block.methods and "fs-fem" in block.methods
    neo = make_config("cook-neohookean")
    assert neo.methods == ("bes-fem",) and neo.mu == 0.6
    assert neo.kappa == (1.95, 10.0, 100.0, 1000.0, 10000.0)
    assert neo.load == 1.0
    distorted = make_config("cook-distorted")
    assert distorted.distort == pytest.approx(0.4)


def test_make_config_overrides_and_none_passthrough():
    cfg = make_config("cook", meshes=(2, 4), poisson=None, young=100.0)
    assert cfg.meshes == (2, 4)
    assert cfg.poisson == 0.4999  # None keeps the default
    assert cfg.young == 100.0
    with pytest.raises(ValueError, match="unknown configuration key"):
        make_config("cook", wavelength=3)


@pytest.mark.parametrize("kwargs, match", [
    ({"bubble": "cubic"}, "bubble"),
    ({"poisson": 0.5}, "Poisson"),
    ({"young": -1.0}, "positive"),
    ({"meshes": ()}, "mesh"),
    ({"methods": ()}, "method"),
    ({"methods": ("bfs-fem",)}, "not defined"),
    ({"distort": 1.5}, "distortion"),
    ({"pattern": "random"}, "pattern"),
    ({"meshes": (2, 2, 4)}, "repeated meshes"),
    ({"methods": ("bes-fem", "bes")}, "repeated methods"),
    ({"meshes": (16, 1)}, ">= 2"),
    ({"kappa": (10.0,)}, "kappa"),
    ({"meshes": (2.5, 4.9)}, "mesh resolution 2.5 is not an integer"),
    ({"seed": 1.5}, "seed 1.5 is not an integer"),
])
def test_config_validation_cook(kwargs, match):
    with pytest.raises(ValueError, match=match):
        make_config("cook", **kwargs)


def test_config_validation_scenario_specific():
    with pytest.raises(ValueError, match="unknown scenario"):
        make_config("plate")
    with pytest.raises(ValueError, match="not defined"):
        make_config("block3d", methods=("bes-fem",))
    with pytest.raises(ValueError, match="not defined"):
        make_config("cook-neohookean", methods=("mini",))
    with pytest.raises(ValueError, match="not defined"):
        make_config("infsup", methods=("mini",))
    with pytest.raises(ValueError, match="bulk"):
        make_config("cook-neohookean", kappa=(-1.0,))
    with pytest.raises(ValueError, match="repeated kappa"):
        make_config("cook-neohookean", meshes=(2,), kappa=(1.95, 1.95),
                    steps=2)
    for scenario in ("pipe", "block3d", "lemma-checks"):
        with pytest.raises(ValueError, match="does not read distort"):
            make_config(scenario, distort=0.4)
    with pytest.raises(ValueError, match="kappa"):
        make_config("pipe", kappa=(1.95,))
    with pytest.raises(ValueError, match="mesh resolution 2.5 is not"):
        make_config("pipe", meshes=(2.5, 4.9))
    with pytest.raises(ValueError, match="load step count 2.5 is not"):
        make_config("cook-neohookean", steps=2.5)
    with pytest.raises(ValueError, match="seed 1.5 is not"):
        make_config("infsup", seed=1.5)
    with pytest.raises(ValueError, match="does not read mu"):
        make_config("pipe", meshes=(2, 3), methods=("bes-fem",), seed=7,
                    mu=5.0, steps=3, pattern="uniform")


# a valid value other than the dataclass default for every setting that some
# scenario does not read (seed is accepted by every scenario)
_OTHER_VALUES = dict(methods=("bes-fem",), meshes=(3,), young=100.0,
                     poisson=0.3, load=2.0, bubble="hat", kappa=(5.0,),
                     mu=2.0, steps=3, distort=0.2, pattern="uniform")


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_config_rejects_settings_the_scenario_does_not_read(scenario):
    accepted = benchmarks.accepted_settings(scenario)
    assert "seed" in accepted and "out" not in accepted
    make_config(scenario, seed=7)
    # the output directory belongs to the command line, not the scenario
    with pytest.raises(ValueError, match="unknown configuration key 'out'"):
        make_config(scenario, out="results")
    for name, value in _OTHER_VALUES.items():
        if name not in accepted:
            with pytest.raises(ValueError,
                               match=f"does not read {name}|not defined"):
                make_config(scenario, **{name: value})


def _load_repo_module(relpath):
    """A script module of the repository (``perfbench/``, ``tools/``)."""
    path = Path(__file__).resolve().parents[1] / relpath
    spec = importlib.util.spec_from_file_location(
        f"{path.parent.name}_{path.stem}", path)
    loaded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return loaded


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("seed", [0, 501])
def test_perfbench_workloads_make_valid_configs(tiny, seed):
    workloads = _load_repo_module("perfbench/workloads.py")
    for name, work in workloads.WORKLOADS.items():
        overrides = workloads.make_overrides(name, seed, tiny=tiny)
        cfg = make_config(work.scenario, **overrides)
        assert cfg.seed == workloads.config_seed(name, seed)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_config_file_round_trip(scenario):
    cfg = make_config(scenario)
    values = parse_config_text(config_to_text(cfg))
    assert values.pop("scenario") == scenario
    assert make_config(scenario, **values) == cfg


def test_parse_config_text_errors_and_comments():
    values = parse_config_text("# note\n\n meshes = 2,4 # inline\nmu=0.7\n")
    assert values == {"meshes": (2, 4), "mu": 0.7}
    # a # opens a comment only at a line's start or after whitespace
    assert parse_config_text("out = runs#2\nmeshes = 2,4  # coarse\n"
                             "#meshes = 8\nmu = 0.7\t# tab\n") == {
        "out": "runs#2", "meshes": (2, 4), "mu": 0.7}
    with pytest.raises(ValueError, match="unknown configuration key"):
        parse_config_text("color = red\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("just words\n")
    # a repeated key names both lines instead of keeping the last value
    with pytest.raises(ValueError,
                       match="lines 1 and 3: 'meshes' is set twice"):
        parse_config_text("meshes = 2,4\nmu = 0.7\nmeshes = 8\n")
    with pytest.raises(ValueError, match="lines 2 and 4: 'scenario'"):
        parse_config_text("# note\nscenario = cook\n\nscenario = pipe\n")


def test_a_config_file_out_line_writes_the_reports(tmp_path):
    """An ``out`` line stands for ``--out``, keeps a ``#`` inside its value,
    and stays out of the recorded configuration."""
    out = tmp_path / "runs#2"
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(f"out = {out}  # the reports\nmeshes = 2\n"
                        "methods = fem-t3\n")
    assert main(["run", "cook", "--config", str(cfg_file)]) == 0
    assert (out / "cook.csv").exists()
    _, summary = reports_from_json((out / "cook.json").read_text())
    config = make_config("cook", meshes=(2,), methods=("fem-t3",))
    assert summary["config"] == json.loads(json.dumps(
        dataclasses.asdict(config)))


def test_cook_smoke_one_row_per_method():
    cfg = make_config("cook", meshes=(2,))
    start = time.perf_counter()
    reports, summary = run_scenario(cfg)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert [r.method for r in reports] == list(cfg.methods)
    assert all(r.mesh_id == "2" for r in reports)
    assert not summary["failures"]


def test_failed_cell_is_marked_not_raised(monkeypatch):
    solve = benchmarks._solve_linear

    def breaking(disc, method, mat, tractions, bubble):
        if method == "fem-t3":
            raise RuntimeError("synthetic breakdown")
        return solve(disc, method, mat, tractions, bubble)

    monkeypatch.setattr(benchmarks, "_solve_linear", breaking)
    cfg = make_config("cook", methods=("fem-t3", "bes-fem"), meshes=(2,))
    reports, summary = run_scenario(cfg)
    assert summary["failures"] == ["fem-t3/2"]
    failed = next(r for r in reports if r.method == "fem-t3")
    assert failed.extra["status"] == "failed"
    assert "synthetic breakdown" in failed.extra["error"]
    assert np.isnan(failed.tip_uy)
    good = next(r for r in reports if r.method == "bes-fem")
    assert good.extra["status"] == "ok" and np.isfinite(good.tip_uy)


def test_failed_middle_mesh_is_not_extrapolated_across(monkeypatch):
    """The tip limit and tip-change gate use only the meshes after the
    last failed one, never a series with a gap."""
    solve = benchmarks._solve_linear
    failing = benchmarks.generate_cook(3).n_elements

    def breaking(disc, method, mat, tractions, bubble):
        if disc.mesh.n_elements == failing:
            raise RuntimeError("synthetic breakdown")
        return solve(disc, method, mat, tractions, bubble)

    monkeypatch.setattr(benchmarks, "_solve_linear", breaking)
    cfg = make_config("cook", methods=("bes-fem",), meshes=(2, 3, 4, 5))
    _, summary = run_scenario(cfg)
    assert summary["failures"] == ["bes-fem/3"]
    tips = summary["tips"]["bes-fem"]
    assert np.isnan(tips[1])
    assert summary["tip_limit"] == tips[3]
    change = summary["checks"]["tip-change"]["value"]
    assert change == pytest.approx(abs(tips[3] - tips[2]) / abs(tips[3]))


def test_cli_run_writes_reports_and_is_deterministic(tmp_path):
    argv = ["run", "cook", "--methods", "bes-fem", "--meshes", "2,4",
            "--out", str(tmp_path / "a")]
    assert main(argv) == 1  # tip-change check needs the full default series
    csv_a = (tmp_path / "a" / "cook.csv").read_text().splitlines()
    json_a = (tmp_path / "a" / "cook.json").read_bytes()
    assert csv_a[0].startswith("# generated")
    assert csv_a[1].startswith("method,mesh_id,h,N_e")
    assert len(csv_a) == 4  # timestamp, header, two cells

    argv[-1] = str(tmp_path / "b")
    assert main(argv) == 1
    csv_b = (tmp_path / "b" / "cook.csv").read_text().splitlines()
    assert csv_a[1:] == csv_b[1:]  # identical modulo the timestamp line
    assert json_a == (tmp_path / "b" / "cook.json").read_bytes()

    reports, summary = reports_from_json(json_a.decode())
    assert len(reports) == 2 and reports[0].method == "bes-fem"
    assert summary["config"]["meshes"] == [2, 4]


def test_cli_precedence_cli_over_file_over_defaults(tmp_path):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text("meshes = 4,8\npoisson = 0.3\nmethods = fem-t3\n")
    out = tmp_path / "out"
    code = main(["run", "cook", "--config", str(cfg_file),
                 "--meshes", "2", "--out", str(out)])
    assert code == 0
    _, summary = reports_from_json((out / "cook.json").read_text())
    effective = summary["config"]
    assert effective["meshes"] == [2]          # CLI wins over file
    assert effective["poisson"] == 0.3         # file wins over default
    assert effective["methods"] == ["fem-t3"]  # file wins over default
    assert effective["young"] == 250.0         # default preserved


def test_cli_config_file_scenario_must_match(tmp_path, capsys):
    cfg_file = tmp_path / "infsup.cfg"
    cfg_file.write_text("scenario = infsup\nmethods = es-fem\n"
                        "meshes = 2,3\n")
    assert main(["run", "pipe", "--config", str(cfg_file)]) == 2
    assert "'infsup'" in capsys.readouterr().err
    # a file naming the command's own scenario still applies
    out = tmp_path / "out"
    assert main(["run", "infsup", "--config", str(cfg_file),
                 "--out", str(out)]) != 2
    _, summary = reports_from_json((out / "infsup.json").read_text())
    assert summary["config"]["methods"] == ["es-fem"]
    assert summary["config"]["meshes"] == [2, 3]


def test_pipe_mini_ignores_the_bubble_setting():
    """MINI always carries the power bubble; the setting only reaches the
    enriched smoothed method."""
    rows = {}
    for bubble in ("power", "hat"):
        reports, _ = run_scenario(make_config(
            "pipe", methods=("bes-fem", "mini"), meshes=(2, 4),
            bubble=bubble))
        rows[bubble] = {(r.method, r.mesh_id): (r.err_u, r.err_p, r.err_E)
                        for r in reports}
    for mesh_id in ("2", "4"):
        assert rows["power"][("mini", mesh_id)] == rows["hat"][("mini",
                                                                mesh_id)]
        assert rows["power"][("bes-fem", mesh_id)] != rows["hat"][(
            "bes-fem", mesh_id)]


def test_pipe_evaluates_each_exact_field_once_per_mesh(monkeypatch):
    """The pipe's methods share one evaluation of the exact displacement
    and strain at a mesh's micro-cell points (MINI's energy also takes the
    strain at its element points), and the last mesh's fields are freed
    before the next mesh's first solve."""
    calls, alive = [], []
    for name in ("displacement", "strain"):
        def field(self, X, name=name, exact=getattr(ExactPipeSolution, name)):
            value = exact(self, X)
            calls.append((name, X.shape[0]))
            alive.append(weakref.ref(value))
            return value
        monkeypatch.setattr(ExactPipeSolution, name, field)
    solve, meshes, freed = benchmarks._solve_linear, [], []

    def first_solve_checks(disc, *args):
        if not any(ref() is disc for ref in meshes):
            meshes.append(weakref.ref(disc))
            calls.append(("mesh", disc.micro.n_cells, disc.mesh.n_elements))
            freed.append(all(ref() is None for ref in alive))
        return solve(disc, *args)

    monkeypatch.setattr(benchmarks, "_solve_linear", first_solve_checks)
    reports, _ = run_scenario(make_config("pipe", meshes=(2, 3)))
    assert [r.extra["status"] for r in reports] == ["ok"] * 6
    assert freed == [True, True]
    expected = []
    for mesh in [c for c in calls if c[0] == "mesh"]:
        _, cells, elements = mesh
        expected += [mesh, ("displacement", cells), ("strain", cells),
                     ("strain", elements)]
    assert calls == expected


def test_cli_rejects_bad_values(tmp_path, capsys):
    assert main(["run", "cook", "--nu", "0.7"]) == 2
    assert "Poisson" in capsys.readouterr().err
    missing = tmp_path / "absent.cfg"
    assert main(["run", "cook", "--config", str(missing)]) == 2


def test_cli_reports_failed_cells_nonzero(monkeypatch, capsys, tmp_path):
    def breaking(disc, method, mat, tractions, bubble):
        raise RuntimeError("synthetic breakdown")

    monkeypatch.setattr(benchmarks, "_solve_linear", breaking)
    code = main(["run", "cook", "--methods", "fem-t3", "--meshes", "2",
                 "--out", str(tmp_path)])
    assert code == 1
    text = capsys.readouterr().out
    assert "failed cell fem-t3/2" in text and "synthetic breakdown" in text
    body = (tmp_path / "cook.csv").read_text()
    assert "nan" in body  # the failed cell still produced a row


def test_cli_reports_profile_failure_reason(monkeypatch, capsys):
    def breaking(*args, **kwargs):
        raise RuntimeError("synthetic profile breakdown")

    monkeypatch.setattr(benchmarks, "pressure_profile", breaking)
    code = main(["run", "cook", "--methods", "bes-fem,ns-fem", "--meshes",
                 "2"])
    assert code == 1
    text = capsys.readouterr().out
    for method in ("bes-fem", "ns-fem"):
        assert (f"failed profile {method}/8x16: RuntimeError: synthetic "
                "profile breakdown") in text
    assert "failed cell" not in text
    assert "2 cells, 0 failed;" in text  # both report rows are ok


def test_a_profile_mesh_that_cannot_be_built_fails_its_cells(monkeypatch):
    """The profile cells run through the scenario sweep, so a profile mesh
    that cannot be built fails its cells instead of aborting the run."""
    generate = benchmarks.generate_cook

    def breaking(resolution):
        if resolution == benchmarks.PROFILE_MESH:
            raise ValueError("synthetic mesh breakdown")
        return generate(resolution)

    monkeypatch.setattr(benchmarks, "generate_cook", breaking)
    reports, summary = run_scenario(make_config(
        "cook", methods=("ns-fem", "bes-fem"), meshes=(2,)))
    assert [r.extra["status"] for r in reports] == ["ok", "ok"]
    assert summary["failures"] == ["ns-fem/8x16", "bes-fem/8x16"]
    assert summary["profile_errors"] == dict.fromkeys(
        ("ns-fem", "bes-fem"), "ValueError: synthetic mesh breakdown")
    assert summary["profile"]["methods"] == {}
    assert "pressure-tv-ratio" not in summary["checks"]


def test_cli_reports_failed_property_bound(monkeypatch, capsys, tmp_path):
    """A lemma property that misses its bound without raising still says
    why its row failed."""
    monkeypatch.setattr(benchmarks, "vertex_column_defect",
                        lambda *args: 1.0)
    code = main(["run", "lemma-checks", "--out", str(tmp_path)])
    assert code == 1
    text = capsys.readouterr().out
    reason = "check failed: 1 <= 1e-12"
    assert f"failed cell property/vertex-columns: {reason}\n" in text
    assert "1 failed; 10 checks, 1 failed" in text
    reports, summary = reports_from_json(
        (tmp_path / "lemma-checks.json").read_text())
    assert summary["failures"] == ["property/vertex-columns"]
    failed = [r for r in reports if r.extra["status"] != "ok"]
    assert [(r.mesh_id, r.extra["error"]) for r in failed] == [
        ("vertex-columns", reason)]


def test_cli_reports_a_property_measure_that_raises(monkeypatch, capsys,
                                                   tmp_path):
    """A lemma property whose measure raises fails its row with the
    exception's text and records its check as NaN, not passed."""
    def breaking(*args):
        raise ValueError("synthetic measure breakdown")

    monkeypatch.setattr(benchmarks, "vertex_column_defect", breaking)
    code = main(["run", "lemma-checks", "--out", str(tmp_path)])
    assert code == 1
    reason = "ValueError: synthetic measure breakdown"
    assert (f"failed cell property/vertex-columns: {reason}\n"
            in capsys.readouterr().out)
    reports, summary = reports_from_json(
        (tmp_path / "lemma-checks.json").read_text())
    assert summary["failures"] == ["property/vertex-columns"]
    failed = [r for r in reports if r.extra["status"] != "ok"]
    assert [(r.mesh_id, r.extra["error"]) for r in failed] == [
        ("vertex-columns", reason)]
    check = summary["checks"]["vertex-columns"]
    assert math.isnan(check["value"]) and check["passed"] is False


def test_lemma_checks_build_each_product_once(monkeypatch):
    """One lemma-checks run assembles each coupling once per (probe mesh,
    kind, bubble), 18 times where each check once assembled its own (33),
    and the smoothed one once for its coupling check, its inf-sup pairing
    and its condensed bundle; it builds one micro-cell rule per mesh and
    one facet rule per gradient build: 60, not one rule per sampled oracle
    domain.  A discretization returns its kept domains, gradients,
    overlaps and couplings on a second request, and the smoothing oracle
    reads its micro-cell rule."""
    calls, couplings = {}, []

    def count(module, name):
        build = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return build(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    build_B_bar = assembly.assemble_B_bar

    def recorded(disc, kind, bubble=None):
        # the discretization itself, so no two share an id
        couplings.append((disc, kind, bubble))
        return build_B_bar(disc, kind, bubble)

    monkeypatch.setattr(assembly, "assemble_B_bar", recorded)
    count(benchmarks, "assemble_plain_B")
    for module in (assembly, smoothing):
        count(module, "simplex_quadrature")
    reports, _ = run_scenario(make_config("lemma-checks"))
    assert [r.extra["status"] for r in reports] == ["ok"] * len(reports)
    assert calls == {"assemble_plain_B": 18, "simplex_quadrature": 60}
    assert len(couplings) == len(set(couplings)) == 18

    disc = assembly.Discretization(generate_cook(3))
    kind = disc.smoothing_kind()
    for product, args in ((disc.domains, (kind,)),
                          (disc.gradient_ops, (kind, "power")),
                          (disc.overlap, (kind,)),
                          (disc.coupling, (kind, "power"))):
        assert product(*args) is product(*args)
    disc.quadrature()
    calls.clear()
    U = np.random.default_rng(3).normal(
        size=(disc.mesh.n_nodes + disc.mesh.n_elements, 2))
    for bubble in ("power", "hat"):
        smoothing.volume_average_gradient(disc, disc.domains(kind), 0, U,
                                          bubble=bubble)
    assert calls == {}


def test_a_mesh_that_cannot_be_built_fails_only_its_cells(tmp_path):
    """The unstructured block has no valid mesh 2; its cells are reported
    as failed and mesh 3 still runs."""
    code = main(["run", "block3d", "--meshes", "2,3", "--methods",
                 "bfs-fem,fs-fem", "--out", str(tmp_path)])
    assert code == 1
    reports, summary = reports_from_json(
        (tmp_path / "block3d.json").read_text())
    assert summary["failures"] == ["bfs-fem/2", "fs-fem/2"]
    for report in reports:
        if report.mesh_id == "2":
            assert report.extra["status"] == "failed"
            assert "stayed degenerate" in report.extra["error"]
            assert np.isnan(report.h) and report.n_elements == 0
        else:
            assert report.extra["status"] == "ok"
            assert np.isfinite(report.tip_uy) and report.n_elements > 0
    assert len(reports) == 4


def test_distorted_infsup_is_a_function_of_its_seed():
    """The membranes of a distorted inf-sup run are drawn from the seed:
    every cell solves, a seed repeats its output byte for byte, and another
    seed moves some beta."""
    def run(seed):
        reports, summary = run_scenario(make_config(
            "infsup", meshes=(2, 3, 4), distort=0.4, seed=seed))
        assert [r.extra["status"] for r in reports] == ["ok"] * len(reports)
        assert all(np.isfinite(r.extra["beta"]) for r in reports)
        return reports_to_json(reports, summary), summary["betas"]

    first, betas = run(1)
    again, _ = run(1)
    assert first == again
    assert run(2)[1] != betas


def test_a_zero_load_is_rejected(capsys):
    """At zero load every solution is zero and no check means anything."""
    with pytest.raises(ValueError, match="load must be nonzero"):
        make_config("pipe", load=0.0)
    assert main(["run", "cook", "--load", "0", "--meshes", "2,3,4"]) == 2
    assert "load must be nonzero" in capsys.readouterr().err
    assert make_config("cook", load=-100.0).load == -100.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("scenario, name", [
    ("cook", "young"), ("cook", "load"), ("pipe", "young"), ("block3d", "load"),
    ("cook-neohookean", "load"), ("cook-neohookean", "mu"),
    ("cook-neohookean", "kappa"),
])
def test_non_finite_settings_are_rejected(scenario, name, bad):
    """A NaN or infinite modulus or load is named, not left to fail every
    cell as a singular system."""
    value = (1.95, bad) if name == "kappa" else bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        make_config(scenario, **{name: value})


def test_cli_names_a_non_finite_setting(capsys):
    argv = ["run", "cook", "--load", "nan", "--meshes", "2,3,4",
            "--methods", "bes-fem"]
    assert main(argv) == 2
    assert "load must be finite" in capsys.readouterr().err


def test_pipe_at_zero_poisson_ratio_fails_its_pressure_checks(tmp_path):
    """With lambda = 0 every pressure error is exactly zero: the pressure
    rate and the error ordering read NaN and fail, and the run completes."""
    code = main(["run", "pipe", "--nu", "0", "--meshes", "2,3,4",
                 "--out", str(tmp_path)])
    assert code == 1
    reports, summary = reports_from_json((tmp_path / "pipe.json").read_text())
    assert len(reports) == 9 and not summary["failures"]
    assert all(r.err_p == 0.0 for r in reports)
    for rates in summary["rates"].values():
        assert math.isnan(rates["p"])
        assert rates["u"] > 1.0 and rates["E"] > 0.5
    assert math.isnan(summary["ordering_margin"])
    checks = summary["checks"]
    assert checks["rate-u"]["passed"]
    for name in ("rate-p", "error-ordering"):
        assert math.isnan(checks[name]["value"])
        assert not checks[name]["passed"]


def test_cli_check_runs_lemma_checks_then_infsup(monkeypatch, tmp_path):
    """``smoothfem check`` runs the property battery, then the inf-sup
    sweep, forwards --out to both and fails when either run fails."""
    calls, outcome = [], {}

    def execute(config, out, stream):
        calls.append((config.scenario, out))
        return outcome[config.scenario]

    monkeypatch.setattr(cli, "_execute", execute)
    outcome.update({"lemma-checks": True, "infsup": True})
    assert main(["check", "--out", str(tmp_path)]) == 0
    assert calls == [("lemma-checks", str(tmp_path)),
                     ("infsup", str(tmp_path))]
    for failing in ("lemma-checks", "infsup"):
        calls.clear()
        outcome.update({"lemma-checks": True, "infsup": True})
        outcome[failing] = False
        assert main(["check"]) == 1
        assert calls == [("lemma-checks", ""), ("infsup", "")]


def test_format_table_and_checks():
    reports, summary = run_scenario(make_config("cook", methods=("bes-fem",),
                                                meshes=(2,)))
    table = format_table(reports)
    lines = table.splitlines()
    assert lines[0].startswith("method") and "tip_uy" in lines[0]
    assert "-" in lines[1]  # NaN error columns render as dashes
    checks = {"demo": {"value": 1.5, "op": ">=", "threshold": 1.0,
                       "passed": True, "source": "measured-baseline"}}
    line, = format_checks(checks)
    assert line == "check demo: 1.5 >= 1 [measured-baseline] PASS"


def test_unstructured_block_mesh_invariants():
    mesh = generate_block(3, pattern="unstructured")
    assert mesh.n_elements > 0
    assert mesh.element_measures().sum() == pytest.approx(50.0 ** 3,
                                                          rel=1e-9)
    tri = mesh.nodes[mesh.boundary["traction"]]
    areas = 0.5 * np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
    # the default patch is the corner grid cell, (50/3)^2 at resolution 3
    assert areas.sum() == pytest.approx((50.0 / 3) ** 2, rel=1e-9)
    np.testing.assert_allclose(tri[..., 2], 50.0, atol=1e-9)
    clamped = mesh.nodes[np.unique(mesh.boundary["clamped"])]
    np.testing.assert_allclose(clamped[:, 2], 0.0, atol=1e-9)

    again = generate_block(3, pattern="unstructured")
    np.testing.assert_array_equal(mesh.nodes, again.nodes)
    np.testing.assert_array_equal(mesh.elements, again.elements)


def test_unstructured_block_too_coarse_raises():
    with pytest.raises(ValueError, match="degenerate"):
        generate_block(2, pattern="unstructured")


def test_acceptance_data_is_packaged():
    data = benchmarks.acceptance_data()
    assert {"cook", "pipe", "block3d", "infsup",
            "lemma-checks"} <= set(data)
    sources = {entry.get("source")
               for section in data.values() if isinstance(section, dict)
               for entry in section.values() if isinstance(entry, dict)}
    assert sources <= {"published-value", "measured-baseline"}


class _RecordedTable(dict):
    """A scenario's threshold table that records every key read from it."""

    def __init__(self, table, read):
        super().__init__(table)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _recorded_thresholds(monkeypatch, drop=None):
    """Patch ``acceptance_data`` to hand out recording tables, without the
    key ``drop``; returns the set of keys read."""
    data, read = benchmarks.acceptance_data(), set()
    tables = {name: _RecordedTable({k: v for k, v in table.items()
                                    if k != drop}, read)
              for name, table in data.items() if isinstance(table, dict)}
    monkeypatch.setattr(benchmarks, "acceptance_data", lambda: tables)
    return read


# small runs of every gated scenario that reach all of its gates
_GATED_RUNS = {
    "cook": dict(methods=("fem-t3", "ns-fem", "bes-fem"), meshes=(2, 3)),
    "pipe": dict(methods=("bes-fem", "ns-fem"), meshes=(2, 3, 4)),
    "block3d": dict(methods=("bfs-fem", "fs-fem"), meshes=(2,),
                    pattern="uniform"),
    "cook-neohookean": dict(meshes=(2, 3), kappa=(1.95,), steps=2),
    "infsup": dict(meshes=(2, 3, 4)),
    "lemma-checks": {},
}


def test_every_scenario_with_thresholds_is_gated():
    data = benchmarks.acceptance_data()
    assert set(_GATED_RUNS) == {s for s in SCENARIOS if data.get(s)}
    assert "cook-distorted" not in data


@pytest.mark.parametrize("scenario", sorted(_GATED_RUNS))
def test_every_packaged_threshold_is_read(monkeypatch, scenario):
    """A dead or misspelled threshold is one that its scenario never reads."""
    read = _recorded_thresholds(monkeypatch)
    _, summary = run_scenario(make_config(scenario, **_GATED_RUNS[scenario]))
    assert not summary["failures"]
    assert read == set(benchmarks.acceptance_data()[scenario])


@pytest.mark.parametrize("scenario, key", [
    ("cook", "locking_gap_min"), ("pipe", "ordering"),
    ("block3d", "tip_reference"), ("cook-neohookean", "monotone_in_mesh")])
def test_a_missing_threshold_is_named_not_skipped(monkeypatch, scenario, key):
    _recorded_thresholds(monkeypatch, drop=key)
    with pytest.raises(KeyError, match=key):
        run_scenario(make_config(scenario, **_GATED_RUNS[scenario]))


def test_cook_distorted_records_no_check(monkeypatch):
    read = _recorded_thresholds(monkeypatch)
    reports, summary = run_scenario(make_config(
        "cook-distorted", methods=("fem-t3", "bes-fem"), meshes=(2, 3, 4)))
    assert len(reports) == 6 and not summary["failures"]
    assert summary["checks"] == {} and read == set()
    assert "tip_limit" in summary and "locking_gap_mesh" not in summary


def test_public_names_resolve():
    missing = [name for name in smoothfem.__all__
               if not hasattr(smoothfem, name)]
    assert missing == []


def test_perfbench_tracer_finds_its_seams():
    """The benchmark's outside-in tracer nests and still sees every layer.

    A refactor that stops looking a traced name up at call time would
    leave its span unrecorded here.
    """
    spans = _load_repo_module("perfbench/spans.py")
    seams = [(benchmarks, "error_displacement"), (benchmarks, "solve_bundle"),
             (assembly, "build_smoothing_domains"),
             (assembly.Discretization, "__init__")]
    before = [owner.__dict__[name] for owner, name in seams]
    tracer = spans.Tracer("pipe-tiny")
    restore = spans.install(tracer)
    try:
        with tracer.span(spans.ROOT):
            reports, _ = run_scenario(make_config("pipe", meshes=(2, 3, 4)))
    finally:
        restore()
    assert [owner.__dict__[name] for owner, name in seams] == before
    assert len(reports) == 9
    assert tracer.check_nesting() == []
    names = {span[0] for span in tracer.spans}
    assert {"analysis.error_norms", "dualmesh.domains"} <= names
    # each mesh builds its edge and node domains, the gradients of each and
    # their overlaps once: a memo that bypasses a seam or rebuilds shows here
    assert tracer.counts["dualmesh.domain_builds"] == 6
    assert tracer.counts["smoothing.gradient_builds"] == 6
    assert [span[0] for span in tracer.spans].count("dualmesh.overlap") == 6


def test_perfbench_tracer_sees_the_newton_seams():
    """The tracer still sees the Newton layer: residual_tangent and the
    tangent factorizations through the module-global ``spla`` seam."""
    spans = _load_repo_module("perfbench/spans.py")
    tracer = spans.Tracer("newton-tiny")
    restore = spans.install(tracer)
    try:
        with tracer.span(spans.ROOT):
            reports, _ = run_scenario(make_config(
                "cook-neohookean", meshes=(2,), kappa=(1.95, 100.0),
                steps=2))
    finally:
        restore()
    assert len(reports) == 2
    assert [r.extra["status"] for r in reports] == ["ok", "ok"]
    assert tracer.check_nesting() == []
    # the load-step wrapper unpacks what _newton returns on every step
    assert tracer.counts["hyperelastic.newton_iterations"] == sum(
        r.extra["newton_iterations"] for r in reports)

    def inside_newton(parent):
        while parent >= 0:
            if tracer.spans[parent][0] == "hyperelastic.newton":
                return True
            parent = tracer.spans[parent][3]
        return False

    for name in ("hyperelastic.residual_tangent", "hyperelastic.factorize"):
        parents = [span[3] for span in tracer.spans if span[0] == name]
        assert parents and all(inside_newton(p) for p in parents), name
    factorize_spans = sum(span[0] == "hyperelastic.factorize"
                          for span in tracer.spans)
    factorizations = tracer.counts["hyperelastic.factorizations"]
    assert 0 < factorizations == factorize_spans


def test_perfbench_tracer_sees_the_linear_solve_seams():
    """The tracer still sees the linear solve layer: each pipe cell makes
    one factorization inside its ``solve_bundle`` span, through the
    module-global ``spla`` seam, and refines with the factor."""
    spans = _load_repo_module("perfbench/spans.py")
    tracer = spans.Tracer("pipe-tiny")
    restore = spans.install(tracer)
    try:
        with tracer.span(spans.ROOT):
            reports, _ = run_scenario(make_config("pipe", meshes=(2, 3, 4)))
    finally:
        restore()
    assert len(reports) == 9
    assert tracer.check_nesting() == []
    parents = [span[3] for span in tracer.spans if span[0] == "solve.factorize"]
    assert len(parents) == 9
    assert all(tracer.spans[p][0] == "solve.solve" for p in parents)
    assert tracer.counts["solve.factorizations"] == len(reports)
    assert tracer.counts["solve.refine_rounds"] > 0


def test_perfbench_tracer_sees_the_infsup_seams():
    """The tracer still sees the inf-sup layer, and every pairing costs
    one factorization through the module-global ``spla`` seam."""
    spans = _load_repo_module("perfbench/spans.py")
    tracer = spans.Tracer("infsup-tiny")
    restore = spans.install(tracer)
    try:
        with tracer.span(spans.ROOT):
            reports, _ = run_scenario(make_config("infsup", meshes=(2, 3)))
    finally:
        restore()
    assert len(reports) == 4
    assert tracer.check_nesting() == []
    assert "solve.infsup" in {span[0] for span in tracer.spans}
    assert tracer.counts["solve.factorizations"] == len(reports)


def test_same_outputs_tolerates_only_numeric_drift(tmp_path):
    tool = _load_repo_module("tools/same_outputs.py")
    base = {"beta": 0.125, "status": "ok",
            "checks": {"gate": {"passed": True}}}
    drifted = {**base, "beta": 0.125 * (1 + 1e-12)}
    flipped = {**drifted, "checks": {"gate": {"passed": False}}}
    drift, where, other = tool.json_diff(base, drifted)
    assert drift == pytest.approx(1e-12, rel=1e-3)
    assert where == "$.beta" and other == []
    assert tool.json_diff(base, flipped)[2] == [
        "$.checks.gate.passed: True != False"]
    for x in (float("nan"), float("inf")):
        assert tool.json_diff([1.0, x], [1.0, 1.0]) == (math.inf, "$[1]", [])
        assert tool.json_diff([1.0, 1.0], [1.0, x]) == (math.inf, "$[1]", [])

    def runs(head):
        """Two runs of scenario ``s`` whose JSON files are base and head."""
        sides = []
        for side, doc in (("base", base), ("head", head)):
            out = tmp_path / side
            out.mkdir(exist_ok=True)
            (out / "s.json").write_text(json.dumps(doc))
            sides.append({"status": 0, "stdout": [], "out": out})
        return sides

    drift_note = f"worst numeric drift {drift:.3g} at $.beta"
    assert tool.compare("s", *runs(drifted)) == (
        ["JSON differs", drift_note], [])
    assert tool.compare("s", *runs(drifted), rtol=1e-10) == (
        [], [drift_note])
    problems, _ = tool.compare("s", *runs(flipped), rtol=1e-10)
    assert "$.checks.gate.passed: True != False" in problems


def test_same_outputs_compares_csv_cells_within_rtol(tmp_path):
    tool = _load_repo_module("tools/same_outputs.py")
    header = "# generated 2026-01-01T00:00:00\nmethod,err_u,status\n"
    base = header + "bes-fem,0.1,ok\n"
    drifted = header + f"bes-fem,{0.1 * (1 + 1e-15)!r},ok\n"
    failed = header + "bes-fem,0.1,failed\n"
    shorter = header

    def runs(head):
        """Two runs of scenario ``s`` whose CSV files are base and head."""
        sides = []
        for side, text in (("base", base), ("head", head)):
            out = tmp_path / side
            out.mkdir(exist_ok=True)
            (out / "s.csv").write_text(text)
            (out / "s.json").write_text("{}")
            sides.append({"status": 0, "stdout": [], "out": out})
        return sides

    problems, notes = tool.compare("s", *runs(drifted), rtol=1e-12)
    assert problems == [] and len(notes) == 1
    assert notes[0].endswith("at s.csv[1][1]")
    assert "CSV rows differ" in tool.compare("s", *runs(drifted))[0]
    for head in (failed, shorter):
        problems, _ = tool.compare("s", *runs(head), rtol=1e-12)
        assert problems[0] == "CSV rows differ"
    assert "s.csv[1][2]: 'ok' != 'failed'" in tool.compare(
        "s", *runs(failed), rtol=1e-12)[0]


def test_same_outputs_tells_rounding_from_noise_at_the_solution_scale(
        tmp_path):
    """Two pipe rows from a 1e-14 operator change (mesh 32, |tip_uy| about
    7.6e-4): bes-fem's err_u moves 3.6e-11 relative but only 5.7e-15 of
    the solution, ns-fem's moves 7.2e-9 of it.  Both fail --rtol 1e-12;
    only the scaled drift tells the rounding from the lambda-noise."""
    tool = _load_repo_module("tools/same_outputs.py")
    tip = 7.6e-4

    def row(method, err_u, step, tip_uy=tip):
        return ({"method": method, "mesh_id": "32", "err_u": err_u,
                 "err_p": 0.25, "err_E": float("nan"), "tip_uy": tip_uy},
                {"method": method, "mesh_id": "32", "err_u": err_u + step,
                 "err_p": 0.25, "err_E": float("nan"), "tip_uy": tip_uy})

    bes = row("bes-fem", 1.2e-7, 5.7e-15 * tip)
    ns = row("ns-fem", 6.4e-7, 7.2e-9 * tip)
    untipped = row("mini", 1.2e-7, 5.7e-15 * tip, tip_uy=float("nan"))
    # a pressure-only rounding move: mini's err_p (0.0702 at mesh 32) moves
    # by 1.1e-14 relative, 7.8e-16 absolute: about 4,600 eps of |tip_uy|,
    # a displacement, but only 0.44 eps of the applied pressure 8.0
    pressure = row("mini", 4.8e-7, 0.0)
    pressure[0]["err_p"], pressure[1]["err_p"] = 0.0702, 0.0702 * (1 + 1.1e-14)
    summary = {"config": {"load": 8.0}}
    base = {"reports": [bes[0], ns[0], untipped[0], pressure[0]],
            "summary": summary}
    head = {"reports": [bes[1], ns[1], untipped[1], pressure[1]],
            "summary": summary}
    moved = tool.scaled_drifts(base, head)
    assert [(label, name, scale) for label, name, _, _, scale in moved] == [
        ("bes-fem 32", "err_u", "|tip_uy|"),
        ("ns-fem 32", "err_u", "|tip_uy|"),
        ("mini 32", "err_u", "largest |tip_uy| of the rows"),
        ("mini 32", "err_p", "|config.load|")]
    p_step = abs(pressure[1]["err_p"] - pressure[0]["err_p"])
    assert moved[3][3] == p_step / 8.0 <= tool.FLAG_EPS * tool.EPS < \
        p_step / tip
    eps = tool.EPS
    (_, _, bes_rel, bes_scaled, _), (_, _, ns_rel, ns_scaled, _) = moved[:2]
    assert bes_rel > 1e-11 and ns_rel > 1e-6
    assert bes_scaled == pytest.approx(5.7e-15, rel=1e-6)
    assert ns_scaled == pytest.approx(7.2e-9, rel=1e-6)
    assert bes_scaled <= tool.FLAG_EPS * eps < ns_scaled
    # no row has a tip: the field's own size, so the relative drift
    bare = [{k: v for k, v in r.items() if k != "tip_uy"}
            for r in (bes[0], bes[1])]
    [(_, _, rel, scaled, scale)] = tool.scaled_drifts(
        {"reports": bare[:1]}, {"reports": bare[1:]})
    assert scaled == rel and scale == "|err_u| itself"
    # no applied load: err_p's own size
    [(_, name, rel, scaled, scale)] = tool.scaled_drifts(
        {"reports": [pressure[0]]}, {"reports": [pressure[1]]})
    assert (name, scaled, scale) == ("err_p", rel, "|err_p| itself")

    sides = []
    for side, doc in (("base", base), ("head", head)):
        out = tmp_path / side
        out.mkdir()
        (out / "pipe.json").write_text(json.dumps(doc))
        sides.append({"status": 0, "stdout": [], "out": out})
    problems, notes = tool.compare("pipe", *sides, rtol=1e-12)
    # the verdict still follows --rtol alone
    assert problems[0] == "JSON differs"
    assert tool.compare("pipe", *sides, rtol=1e-5)[0] == []
    flagged = [line for line in notes if line.endswith("FLAGGED")]
    assert len(flagged) == 1 and "ns-fem 32 err_u" in flagged[0]
    assert any("bes-fem 32 err_u" in line for line in notes)
    assert any("mini 32 err_p" in line for line in notes)


def test_same_outputs_gates_every_scenario():
    """The identity gate runs exactly the package's scenarios, so a new
    scenario cannot escape it."""
    tool = _load_repo_module("tools/same_outputs.py")
    assert tool.SCENARIOS == SCENARIOS


def test_same_outputs_counts_source_lines(tmp_path):
    tool = _load_repo_module("tools/same_outputs.py")
    package = tmp_path / "src" / "smoothfem"
    package.mkdir(parents=True)
    (package / "a.py").write_text("import numpy\n\nX = 1\n")
    (package / "b.py").write_text("Y = 2\n")
    (package / "notes.txt").write_text("not counted\n")
    assert tool.source_lines(tmp_path) == 4
    # a second tree: a.py shrinks, b.py is unchanged, c.py is new and
    # d.py is gone
    head = tmp_path / "head"
    package = head / "src" / "smoothfem"
    package.mkdir(parents=True)
    (package / "a.py").write_text("X = 1\n")
    (package / "b.py").write_text("Y = 2\n")
    (package / "c.py").write_text("Z = 3\n\n")
    (tmp_path / "src" / "smoothfem" / "d.py").write_text("W = 4\n")
    assert tool.moved_lines(tmp_path, head) == [
        "a.py: 3 -> 1", "c.py: 0 -> 2", "d.py: 1 -> 0"]
    assert tool.moved_lines(head, head) == []
    # the option count: every def's defaulted parameters, keyword-only ones
    # included, and every dataclass field with a default; a plain class's
    # attributes, a lambda's defaults and a required parameter do not count
    opts = tmp_path / "opts"
    package = opts / "src" / "smoothfem"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        "def f(x, y=1, *, z=2, w):\n"
        "    g = lambda v=3: v\n"
        "    def inner(q=4):\n"
        "        return q\n"
        "    return inner\n")
    (package / "b.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: dict = field(default_factory=dict)\n"
        "    K = 5\n\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class B:\n"
        "    u: float = 1.0\n"
        "    async def m(self, t=2):\n"
        "        return t\n\n"
        "class C:\n"
        "    v: int = 7\n")
    assert tool.defaulted_parameters(opts) == 7
    assert tool.defaulted_parameters(head) == 0


def test_same_outputs_reads_the_peak_rss_from_stderr():
    """A run's peak RSS is the last ``ru_maxrss`` line its child prints to
    standard error, which the compared standard output never holds."""
    tool = _load_repo_module("tools/same_outputs.py")
    assert tool.peak_rss_mb("warning: slow\npeak rss kB 1024\n"
                            "peak rss kB 137216\n") == 134.0
    assert math.isnan(tool.peak_rss_mb("Traceback (most recent call)\n"))
    # a rejected setting ends main() before any scenario runs
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", tool.RUN, "run", "cook", "--nu", "0.7"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Poisson" in proc.stderr
    assert 1.0 < tool.peak_rss_mb(proc.stderr) < 4096.0


def test_readme_states_the_package_line_count():
    """README's size line is the count that tools/same_outputs.py prints."""
    tool = _load_repo_module("tools/same_outputs.py")
    root = Path(__file__).resolve().parents[1]
    stated = re.search(r"The package is ([\d,]+) source lines",
                       (root / "README.md").read_text())
    assert stated is not None
    assert int(stated.group(1).replace(",", "")) == tool.source_lines(root)


def test_newton_ladder_prints_each_cell_of_a_tiny_ladder(capsys):
    """The ladder tool runs the working tree in a child process and prints
    one line per (mesh, kappa) with the scenario's own counts and tip."""
    tool = _load_repo_module("tools/newton_ladder.py")
    assert tool.main(["--meshes", "2", "--kappa", "1.95,100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "cook-neohookean, 10 steps; sides: tree"
    reports, _ = run_scenario(make_config(
        "cook-neohookean", meshes=(2,), kappa=(1.95, 100.0), steps=10))
    assert len(lines) == 1 + len(reports) == 3
    for line, report in zip(lines[1:], reports):
        extra = report.extra
        assert line.startswith(f"mesh   2 kappa {extra['kappa']:<8g} | ")
        assert (f"{extra['newton_iterations']:5d} it "
                f"{extra['load_steps']:4d} steps tol   "
                f"tip {report.tip_uy:.9g} ") in line


def test_ab_pairs_summarizes_paired_samples():
    tool = _load_repo_module("tools/ab_pairs.py")
    base = [2.0, 2.1, 1.9, 2.2, 2.0, 2.05, 1.95, 2.1, 2.0, 2.15]
    head = [1.7, 1.8, 1.75, 1.8, 2.1, 1.7, 1.72, 1.78, 1.74, 1.76]
    summary = tool.summarize(base, head, "lower")
    assert summary["wins"] == 9 and summary["pairs"] == 10
    assert summary["base"] == pytest.approx((2.0, 2.025, 2.1))
    assert summary["head"][1] == pytest.approx(1.755)
    assert summary["clear"]
    # higher-is-better flips every pair; a tie is no win
    flipped = tool.summarize(base, head, "higher")
    assert flipped["wins"] == 1 and not flipped["clear"]
    assert tool.summarize([1.0, 1.0], [1.0, 0.5], "lower")["wins"] == 1
    # nine wins but a median gain inside the base quartiles is not clear
    near = [b - 0.01 for b in base[:9]] + [3.0]
    close = tool.summarize(base, near, "lower")
    assert close["wins"] == 9 and not close["clear"]
    line = tool.report_line("wall_s", "s", summary)
    assert "tree wins 9/10: clear change" in line


def test_ab_pairs_quartiles_and_the_clear_change_rule():
    tool = _load_repo_module("tools/ab_pairs.py")
    assert tool.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert tool.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == pytest.approx(
        (2.0, 3.0, 4.0))
    # one pair: its sample is every quartile, so any win is clear
    one = tool.summarize([2.0], [1.5], "lower")
    assert one["wins"] == 1 and one["pairs"] == 1 and one["clear"]
    assert not tool.summarize([2.0], [2.0], "lower")["clear"]
    # a higher-is-better metric that rises in every pair
    base = [float(v) for v in range(10, 20)]
    up = [b + 10.0 for b in base]
    higher = tool.summarize(base, up, "higher")
    assert higher["wins"] == 10 and higher["clear"]
    lower = tool.summarize(base, up, "lower")
    assert lower["wins"] == 0 and not lower["clear"]
    # a large median gain in only eight pairs of ten is not clear
    eight = [b - 10.0 for b in base[:8]] + [b + 1.0 for b in base[8:]]
    summary = tool.summarize(base, eight, "lower")
    assert summary["wins"] == 8 and not summary["clear"]
    assert "no clear change" in tool.report_line("wall_s", "s", summary)


def test_ab_pairs_reads_the_unscaled_medians_without_a_verdict():
    """The raw times come from the summary lines a benchmark run prints
    before its result line, and are reported without a verdict."""
    tool = _load_repo_module("tools/ab_pairs.py")
    stdout = "\n".join([
        'provenance {"workload": "pipe-2d"}',
        "wall_s                             median=1.6543 s  "
        "tail=n/a (fewer than 11 samples)  n=9",
        "cpu_s                              median=1.6612 s  "
        "tail=n/a (fewer than 11 samples)  n=9",
        "raw.wall_s                         median=1.43057 s  "
        "tail=n/a (fewer than 11 samples)  n=9",
        "raw.cpu_s                          median=1.43791 s  "
        "tail=n/a (fewer than 11 samples)  n=9",
        "raw.setup_s                        median=0.51 s  p90=0.6  n=13",
        "calibrate.wall_s                   median=0.0872 s  p90=0.09  n=13",
        '{"correct": true, "metrics": {}}'])
    assert tool.raw_medians(stdout) == {"raw.wall_s": 1.43057,
                                        "raw.cpu_s": 1.43791}
    assert tool.raw_medians("no summary\n{}") == {}
    summary = tool.summarize([2.0, 2.1], [1.0, 1.1], "lower")
    assert summary["clear"]
    line = tool.report_line("raw.cpu_s", "s", summary, judged=False)
    assert line.endswith("tree wins 2/2: unscaled, no verdict")
    assert "clear change" not in line


def test_ab_pairs_copies_the_working_tree_as_git_sees_it(tmp_path):
    """The working-tree side is a copy of what git sees: tracked files
    with their uncommitted edits and untracked files, but neither ignored
    files nor tracked files deleted from the tree."""
    tool = _load_repo_module("tools/ab_pairs.py")
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "pkg" / "a.py").write_text("A = 1\n")
    (repo / "gone.txt").write_text("deleted below\n")
    git = ["git", "-C", str(repo), "-c", "user.name=test",
           "-c", "user.email=test@example.invalid"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "x"]):
        subprocess.run(git + args, check=True, capture_output=True)
    (repo / "pkg" / "a.py").write_text("A = 2\n")
    (repo / "pkg" / "new.py").write_text("B = 3\n")
    (repo / "pkg" / "run.log").write_text("ignored\n")
    (repo / "gone.txt").unlink()
    copy = tmp_path / "copy"
    tool.copy_worktree(repo, copy)
    copied = sorted(str(f.relative_to(copy)) for f in copy.rglob("*")
                    if f.is_file())
    assert copied == [".gitignore", "pkg/a.py", "pkg/new.py"]
    assert (copy / "pkg" / "a.py").read_text() == "A = 2\n"


def test_ab_pairs_takes_several_workloads_and_alternates_them(capsys):
    """``--workload`` repeats; each pair runs every workload on both sides,
    and the side that goes first flips from pair to pair.  Parsing and
    scheduling start no benchmark."""
    tool = _load_repo_module("tools/ab_pairs.py")
    args = tool.parse_args(["HEAD", "--workload", "infsup-2d",
                            "--workload", "pipe-2d", "--pairs", "2"])
    assert args.workload == ["infsup-2d", "pipe-2d"]
    assert (args.rev, args.pairs, args.seconds) == ("HEAD", 2, 42)
    assert tool.parse_args(["HEAD", "--workload", "pipe-2d"]).workload == [
        "pipe-2d"]
    assert list(tool.schedule(2, args.workload)) == [
        (0, "infsup-2d", "base"), (0, "infsup-2d", "head"),
        (0, "pipe-2d", "base"), (0, "pipe-2d", "head"),
        (1, "infsup-2d", "head"), (1, "infsup-2d", "base"),
        (1, "pipe-2d", "head"), (1, "pipe-2d", "base")]
    for argv, message in ((["HEAD"], "--workload"),
                          (["HEAD", "--workload", "a", "--pairs", "0"],
                           "at least 1"),
                          (["HEAD", "--workload", "a", "--workload", "a"],
                           "once")):
        with pytest.raises(SystemExit):
            tool.parse_args(argv)
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("setting, message", [
    ({"mu": 0.0}, "shear modulus must be positive"),
    ({"steps": 0}, "need at least one load step"),
])
def test_config_rejects_a_bad_neohookean_setting(setting, message):
    with pytest.raises(ValueError, match=message):
        make_config("cook-neohookean", **setting)


def test_pipe_ordering_skips_a_mesh_without_a_bes_fem_result(monkeypatch):
    """A failed bes-fem cell leaves its mesh out of the error ordering; the
    margin comes from the meshes where bes-fem solved."""
    solve = benchmarks._solve_linear

    def failing(disc, method, *args):
        if method == "bes-fem" and disc.mesh.n_elements == 16:
            raise RuntimeError("synthetic breakdown")
        return solve(disc, method, *args)

    monkeypatch.setattr(benchmarks, "_solve_linear", failing)
    reports, summary = run_scenario(make_config(
        "pipe", methods=("bes-fem", "ns-fem"), meshes=(2, 3)))
    rows = {(r.method, r.mesh_id): r for r in reports}
    assert rows[("bes-fem", "2")].extra["status"] == "failed"
    bes, ns = rows[("bes-fem", "3")], rows[("ns-fem", "3")]
    assert summary["ordering_margin"] == min(
        (getattr(ns, k) - getattr(bes, k)) / getattr(ns, k)
        for k in ("err_u", "err_p", "err_E"))


def test_infsup_operators_assemble_each_mesh_pairing_once(monkeypatch):
    """Both inf-sup pairings of one discretization slice one enriched G and
    B, which go with the discretization; es-fem's beta is the one it gets
    from a discretization of its own."""
    built = []
    gram = benchmarks.assemble_h1_gram

    def spy(*args):
        G = gram(*args)
        built.append(weakref.ref(G))
        return G

    monkeypatch.setattr(benchmarks, "assemble_h1_gram", spy)
    mesh = distort_mesh(generate_cook(4), 0.4, seed=3)
    disc = assembly.Discretization(mesh)
    benchmarks.infsup_operators(disc, "bes-fem")
    es = benchmarks.infsup_operators(disc, "es-fem")
    assert len(built) == 1
    alone = benchmarks.infsup_operators(assembly.Discretization(mesh),
                                        "es-fem")
    assert len(built) == 2
    assert infsup_measure(*es)[0] == infsup_measure(*alone)[0]
    del disc
    gc.collect()
    assert built[0]() is None


def test_infsup_operators_reject_an_unknown_pairing():
    disc = assembly.Discretization(generate_block(2))
    with pytest.raises(ValueError, match="no inf-sup pairing for 'mini'"):
        benchmarks.infsup_operators(disc, "mini")
