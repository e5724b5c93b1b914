"""Tests of the benchmark configuration, scenario engine and CLI."""

import importlib.util
import json
import time
from pathlib import Path

import numpy as np
import pytest

import smoothfem
import smoothfem.assembly as assembly
import smoothfem.benchmarks as benchmarks
from smoothfem.analysis import reports_from_json
from smoothfem.benchmarks import SCENARIOS, make_config, run_scenario
from smoothfem.cli import (config_to_text, format_checks, format_table, main,
                           parse_config_text)
from smoothfem.mesh import generate_block


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
    with pytest.raises(ValueError, match="does not read mu"):
        make_config("pipe", meshes=(2, 3), methods=("bes-fem",), seed=7,
                    mu=5.0, steps=3, pattern="uniform")


# a valid value other than the dataclass default for every setting that some
# scenario does not read (seed and out are accepted by every scenario)
_OTHER_VALUES = dict(methods=("bes-fem",), meshes=(3,), young=100.0,
                     poisson=0.3, load=2.0, bubble="hat", kappa=(5.0,),
                     mu=2.0, steps=3, distort=0.2, pattern="uniform")


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_config_rejects_settings_the_scenario_does_not_read(scenario):
    accepted = benchmarks.accepted_settings(scenario)
    assert {"seed", "out"} <= set(accepted)
    make_config(scenario, seed=7, out="results")
    for name, value in _OTHER_VALUES.items():
        if name not in accepted:
            with pytest.raises(ValueError,
                               match=f"does not read {name}|not defined"):
                make_config(scenario, **{name: value})


def _load_perfbench(module):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{module}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{module}", path)
    loaded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return loaded


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("seed", [0, 501])
def test_perfbench_workloads_make_valid_configs(tiny, seed):
    workloads = _load_perfbench("workloads")
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
    with pytest.raises(ValueError, match="unknown configuration key"):
        parse_config_text("color = red\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("just words\n")


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


def test_public_names_resolve():
    missing = [name for name in smoothfem.__all__
               if not hasattr(smoothfem, name)]
    assert missing == []


def test_perfbench_tracer_finds_its_seams():
    """The benchmark's outside-in tracer nests and still sees every layer.

    A refactor that stops looking a traced name up at call time would
    leave its span unrecorded here.
    """
    spans = _load_perfbench("spans")
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
