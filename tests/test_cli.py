import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bourgen as bg
from bourgen.cli import DEMOS, RunConfig, main, run, write_obj
from bourgen.errors import ConfigError, SpecError
from bourgen.expressions import Expression
from test_artifact_digests import FAMILIES


def _family_config(**overrides):
    cfg = {
        "space": {"kind": "euclidean_rotational", "a": 0.0},
        "generatrix": "sqrt(s^2+1)",
        "m_values": [1.0],
        "epsilon": 1,
        "s_range": [-1.0, 1.0],
        "step": 0.01,
        "anchor": 0.0,
        "grid": {"s_count": 9, "t_count": 5, "t_range": [0.0, 1.0]},
    }
    cfg.update(overrides)
    return cfg


def test_config_m_zero_rejected():
    with pytest.raises(ConfigError, match="m must be positive"):
        RunConfig.from_dict(_family_config(m_values=[0.0]))


def test_config_duplicate_m_rejected():
    with pytest.raises(ConfigError, match="distinct"):
        RunConfig.from_dict(_family_config(m_values=[1.0, 1.0]))


def test_config_missing_space():
    with pytest.raises(ConfigError, match="space"):
        RunConfig.from_dict({"generatrix": "s"})


def test_config_bad_epsilon():
    with pytest.raises(ConfigError, match="epsilon"):
        RunConfig.from_dict(_family_config(epsilon=3))


def test_config_small_grid_rejected():
    with pytest.raises(ConfigError, match="grid counts"):
        RunConfig.from_dict(_family_config(grid={"s_count": 1, "t_count": 5}))


def test_config_unparseable_generatrix():
    with pytest.raises(ConfigError, match="parse"):
        RunConfig.from_dict(_family_config(generatrix="sqrt(s"))


def test_run_demo_catenoid(tmp_path):
    cfg = RunConfig.from_dict(DEMOS["catenoid"])
    code, report = run(cfg, tmp_path / "out", strict=True)
    assert code == 0
    assert report["all_passed"]
    out = tmp_path / "out"
    assert (out / "report.json").exists()
    assert (out / "member_m1.json").exists()
    assert (out / "member_m1.obj").exists()
    assert (out / "member_m1_profile.csv").exists()
    data = np.loadtxt(out / "member_m1_profile.csv", delimiter=",", skiprows=1)
    assert data.shape[1] == 6  # s, x1, x2, omega, theta, V


def test_runs_are_byte_identical(tmp_path):
    # two members, so the member loop and the report order are covered
    cfg = _family_config(m_values=[1.0, 1.25])
    outputs = []
    for name in ("a", "b"):
        code = main(["family", "--config", _write_cfg(tmp_path, cfg, name),
                     "--out", str(tmp_path / name)])
        assert code == 0
        outputs.append({
            p.name: p.read_bytes()
            for p in sorted((tmp_path / name).iterdir())})
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name


@pytest.fixture(scope="module")
def demo_outputs(tmp_path_factory):
    """The output directory of each demo, run once."""
    out = {}
    for name in DEMOS:
        out[name] = tmp_path_factory.mktemp(f"demo_{name}")
        assert main(["demo", name, "--out", str(out[name])]) == 0
    return out


@pytest.fixture(scope="module")
def family_outputs(tmp_path_factory):
    """The output directory of each two-member config of
    test_artifact_digests.py, by "family_<kind>", run once; their t
    windows are not [0, 1]."""
    out = {}
    for kind, cfg in FAMILIES.items():
        directory = tmp_path_factory.mktemp(f"family_{kind}")
        path = directory / "config.json"
        path.write_text(json.dumps(cfg))
        out[f"family_{kind}"] = directory / "out"
        assert main(["family", "--config", str(path), "--out",
                     str(out[f"family_{kind}"])]) == 0
    return out


_OUTPUTS = sorted(DEMOS) + [f"family_{kind}" for kind in FAMILIES]


def _members(name, demo_outputs, family_outputs):
    """(member file, report.json entry) of every member of the output
    directory ``name``, a demo or a family config."""
    out = {**demo_outputs, **family_outputs}[name]
    report = json.loads((out / "report.json").read_text())
    return [(out / entry["artifacts"][1], entry)
            for entry in report["members"]]


@pytest.mark.parametrize("name", _OUTPUTS)
def test_mesh_rewrites_the_family_obj(tmp_path, demo_outputs, family_outputs,
                                      name):
    # the reloaded member is re-solved through its space's frame: the map
    # that family exported, over the t window that the file stores
    for member, entry in _members(name, demo_outputs, family_outputs):
        assert main(["mesh", str(member), "--out", str(tmp_path)]) == 0
        obj = member.with_suffix(".obj").name
        assert (tmp_path / obj).read_bytes() == \
            member.with_suffix(".obj").read_bytes()


@pytest.mark.parametrize("name", _OUTPUTS)
def test_reloaded_member_verifies_as_family_did(demo_outputs, family_outputs,
                                                name, capsys):
    # the isometry report of the reloaded member, over the grid that its
    # file stores, is the one in report.json, and verify prints its maxima
    for path, entry in _members(name, demo_outputs, family_outputs):
        member = bg.SurfaceMember.from_json(path)
        assert member.frame is not None
        grid = member.isometry_grid
        iso = entry["isometry"]
        assert grid == {k: iso[k] for k in grid}
        rep = bg.isometry_report(
            bg.make_chart(member.space), member, member.U,
            (np.linspace(*grid["s_range"], grid["grid_shape"][0]),
             np.linspace(*grid["t_range"], grid["grid_shape"][1])),
            tol=grid["tol"], h=grid["fd_step"])
        assert rep.to_dict() == iso
        capsys.readouterr()
        assert main(["verify", str(path), "--strict"]) == 0
        assert capsys.readouterr() == (
            f"member m={member.m:g}: pass (max devs E {iso['max_E_dev']:.3e}, "
            f"F {iso['max_F_dev']:.3e}, G {iso['max_G_dev']:.3e})\n", "")


def test_version_1_member_file_verifies_on_its_old_grid(tmp_path, capsys,
                                                       demo_outputs):
    # a version-1 file stores no isometry grid and no t window: verify
    # measures 15 x 7 points over t in [0, 1], says so, and mesh writes
    # the t window [0, 1]
    document = json.loads(
        (demo_outputs["bcv"] / "member_m1.json").read_text())
    del document["isometry_grid"]
    document["version"] = 1
    path = tmp_path / "member_m1.json"
    path.write_text(json.dumps(document, indent=1))
    member = bg.SurfaceMember.from_json(path)
    assert member.isometry_grid is None and member.frame is not None
    rep = bg.isometry_report(
        bg.make_chart(member.space), member, member.U,
        (np.linspace(member.s_range[0] + 2e-5, member.s_range[1] - 2e-5, 15),
         np.linspace(0.0, 1.0, 7)), tol=1e-5, h=1e-5)
    capsys.readouterr()
    assert main(["verify", str(path), "--strict"]) == 0
    assert capsys.readouterr() == (
        f"member m=1: pass (max devs E {rep.max_E_dev:.3e}, "
        f"F {rep.max_F_dev:.3e}, G {rep.max_G_dev:.3e})\n",
        "note: the member file stores no isometry grid; verifying on 15 x 7 "
        "points, t in [0, 1]\n")
    assert main(["mesh", str(path), "--out", str(tmp_path / "mesh")]) == 0
    write_obj(member, member.space, tmp_path / "expected.obj")
    assert (tmp_path / "mesh" / "member_m1.obj").read_bytes() == (
        tmp_path / "expected.obj").read_bytes()


def test_verify_fd_step_measures_the_default_grid(demo_outputs, monkeypatch):
    # --fd-step measures 15 x 7 points over t in [0, 1] at that step, and
    # --tol alone keeps the stored grid
    seen = []
    report = bg.verify.isometry_report

    def spy(chart, member, U, grid, tol, h):
        seen.append((len(grid[0]), len(grid[1]), grid[1][-1], tol, h))
        return report(chart, member, U, grid, tol=tol, h=h)

    monkeypatch.setattr(bg.verify, "isometry_report", spy)
    member = str(demo_outputs["helicoid"] / "member_m1.json")
    assert main(["verify", member, "--fd-step", "2e-5"]) == 0
    assert main(["verify", member, "--tol", "1e-3"]) == 0
    assert seen == [(15, 7, 1.0, 1e-5, 2e-5), (21, 21, 1.0, 1e-3, 1e-5)]


def _write_cfg(tmp_path, cfg, tag):
    path = tmp_path / f"cfg_{tag}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_strict_failure_exit_code(tmp_path):
    cfg = _family_config(tolerances={"isometry": 1e-16, "cross_check": 1e-16})
    code = main(["family", "--config", _write_cfg(tmp_path, cfg, "strict"),
                 "--out", str(tmp_path / "out"), "--strict"])
    assert code == 2
    # without --strict the failure is reported but the exit code stays 0
    code = main(["family", "--config", _write_cfg(tmp_path, cfg, "strict"),
                 "--out", str(tmp_path / "out2")])
    assert code == 0


def test_main_reports_config_errors(tmp_path):
    cfg = _family_config(m_values=[0.0])
    code = main(["family", "--config", _write_cfg(tmp_path, cfg, "bad"),
                 "--out", str(tmp_path / "out")])
    assert code == 1


def test_verify_and_mesh_subcommands(tmp_path):
    cfg = RunConfig.from_dict(_family_config())
    code, _ = run(cfg, tmp_path / "out")
    assert code == 0
    member_path = str(tmp_path / "out" / "member_m1.json")
    assert main(["verify", member_path, "--strict"]) == 0
    assert main(["mesh", member_path, "--out", str(tmp_path / "mesh")]) == 0
    assert (tmp_path / "mesh" / "member_m1.obj").exists()


def _session(tmp, capsys):
    """main() on every subcommand but natural, a usage error and a config
    error, in one process: the exit code (or SystemExit code), stdout and
    stderr of each call, with the directory tmp written as <tmp>."""
    tmp.mkdir()
    member = str(tmp / "family" / "member_m1.json")
    argvs = [
        ["family", "--config", _write_cfg(tmp, _family_config(), "session"),
         "--out", str(tmp / "family")],
        ["verify", member, "--strict"],
        ["mesh", member, "--out", str(tmp / "mesh")],
        ["demo", "helicoid", "--out", str(tmp / "demo"), "--strict"],
        ["verify", member, "--out", str(tmp / "x")],
        ["family", "--config", str(tmp / "missing.json")],
        ["verify", member, "--tol", "1e-300", "--strict"],
    ]
    calls = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out, err = capsys.readouterr()
        calls.append((code, out.replace(str(tmp), "<tmp>"),
                      err.replace(str(tmp), "<tmp>")))
    return calls


def test_cached_parser_gives_what_a_fresh_parser_gives(tmp_path, capsys,
                                                       monkeypatch):
    from bourgen import cli
    assert cli.build_parser() is cli.build_parser()
    cached = _session(tmp_path / "cached", capsys)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    fresh = _session(tmp_path / "fresh", capsys)
    assert cached == fresh
    assert [c[0] for c in cached] == [0, 0, 0, 0, ("SystemExit", 2), 1, 2]


def test_verify_tiny_tol_is_an_override(tmp_path, capsys):
    # an explicit tolerance, however small, replaces the default
    code, _ = run(RunConfig.from_dict(_family_config()), tmp_path / "out")
    assert code == 0
    member_path = str(tmp_path / "out" / "member_m1.json")
    assert main(["verify", member_path, "--strict"]) == 0
    capsys.readouterr()
    assert main(["verify", member_path, "--strict", "--tol", "1e-300"]) == 2
    assert "FAIL" in capsys.readouterr().out


def _meridian_inputs(tmp_path):
    u = np.linspace(0.5, 2.0, 801)
    curve = bg.LiftedCurve(u=u, x1=u, x2=np.zeros_like(u), x3=np.zeros_like(u))
    curve_path = tmp_path / "curve.csv"
    curve.to_csv(curve_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"space": {"kind": "euclidean_helicoidal", "a": 1.0}}))
    return ["--config", str(cfg_path), "--curve", str(curve_path)]


def test_natural_passes_fd_step_and_tol(tmp_path, monkeypatch):
    seen = []
    report = bg.verify.isometry_report

    def spy(*args, **kwargs):
        seen.append((kwargs["tol"], kwargs["h"]))
        return report(*args, **kwargs)

    monkeypatch.setattr(bg.verify, "isometry_report", spy)
    code = main(["natural", *_meridian_inputs(tmp_path), "--out",
                 str(tmp_path / "nat"), "--strict", "--tol", "1e-300",
                 "--fd-step", "2e-5"])
    assert seen == [(1e-300, 2e-5)]
    assert code == 2


def test_natural_subcommand(tmp_path, helicoidal_chart):
    code = main(["natural", *_meridian_inputs(tmp_path), "--out",
                 str(tmp_path / "nat"), "--strict"])
    assert code == 0
    gen = np.loadtxt(tmp_path / "nat" / "generatrix.csv", delimiter=",",
                     skiprows=1)
    s, vals = gen[:, 0], gen[:, 1]
    assert np.allclose(vals, np.sqrt((s + 0.5) ** 2 + 1.0), atol=1e-5)
    report = json.loads((tmp_path / "nat" / "natural_report.json").read_text())
    assert report["isometry"]["passed"]


def test_obj_structure(tmp_path, catenoid_member, rotational_spec):
    path = tmp_path / "m.obj"
    write_obj(catenoid_member, rotational_spec, path)
    lines = path.read_text().strip().splitlines()
    vertices = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(vertices) == 41 * 41
    assert len(faces) == 2 * 40 * 40
    # all face indices are valid and 1-based
    idx = [int(tok) for l in faces for tok in l.split()[1:]]
    assert min(idx) == 1 and max(idx) == len(vertices)


def test_demo_configs_are_valid():
    for name, raw in DEMOS.items():
        cfg = RunConfig.from_dict(raw)
        assert cfg.make_generatrix()(sum(cfg.s_range) / 2) > 0


def test_catenoid_mesh_is_a_catenoid(tmp_path, catenoid_member,
                                     rotational_spec):
    # end-to-end export check: every mesh vertex of the rotational member
    # satisfies the catenary relation radius = cosh(height)
    path = tmp_path / "cat.obj"
    write_obj(catenoid_member, rotational_spec, path, t_range=(0.0, 2.0))
    for line in path.read_text().splitlines():
        if line.startswith("v "):
            x, y, z = map(float, line.split()[1:])
            assert np.isclose(np.hypot(x, y), np.cosh(z), atol=1e-9)


def test_member_json_format_guard(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError):
        bg.SurfaceMember.from_json(bad)


def test_csv_generatrix_config(tmp_path, capsys):
    # table generatrix: interpolated values and derivative, approximate
    # radicand checks (documented); the catenoid stays well inside the
    # feasible region so the run passes at the default tolerances
    s = np.linspace(-1.0, 1.0, 4001)
    np.savetxt(tmp_path / "U.csv", np.column_stack([s, np.sqrt(s * s + 1)]),
               delimiter=",", header="s,U", comments="")
    cfg = _family_config(generatrix={"csv": str(tmp_path / "U.csv")},
                         s_range=[-1.0, 1.0])
    code = main(["family", "--config", _write_cfg(tmp_path, cfg, "csv"),
                 "--out", str(tmp_path / "out"), "--strict"])
    assert code == 0
    # the stored table holds the generatrix's own knots and values, so the
    # member reloads with the same U, re-solved through its frame, and
    # verifies to report.json's maxima
    member = bg.SurfaceMember.from_json(tmp_path / "out" / "member_m1.json")
    assert member.U.representation == "table"
    assert member.frame is not None
    assert [a.tobytes() for a in member.U.source] == [
        a.tobytes() for a in (s, np.sqrt(s * s + 1))]
    iso = json.loads((tmp_path / "out" / "report.json").read_text())[
        "members"][0]["isometry"]
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "out" / "member_m1.json"),
                 "--strict"]) == 0
    assert capsys.readouterr().out == (
        f"member m=1: pass (max devs E {iso['max_E_dev']:.3e}, "
        f"F {iso['max_F_dev']:.3e}, G {iso['max_G_dev']:.3e})\n")
    # a version-1 file's table samples the generatrix at the member's
    # nodes, not its knots: that member loads frameless, on its splines
    document = json.loads((tmp_path / "out" / "member_m1.json").read_text())
    del document["isometry_grid"]
    document.update(version=1, generatrix={
        "kind": "table", "s": member.s.tolist(),
        "values": member.U(member.s).tolist()})
    (tmp_path / "v1.json").write_text(json.dumps(document))
    assert bg.SurfaceMember.from_json(tmp_path / "v1.json").frame is None
    assert main(["verify", str(tmp_path / "v1.json"), "--strict"]) == 0


def test_lower_end_cut_when_s0_infeasible(tmp_path):
    # at m = 1.25 the radicand 1 - m^2 U'^2 of U = sqrt(s^2+1) is negative
    # for |s| > 4/3, so both ends of [-2, 2] are cut
    cfg = _family_config(m_values=[1, 0.8, 1.25], s_range=[-2, 2])
    del cfg["step"], cfg["anchor"]
    out = tmp_path / "out"
    code = main(["family", "--config", _write_cfg(tmp_path, cfg, "cut"),
                 "--out", str(out), "--strict"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert [r["m"] for r in report["members"]] == [1.0, 0.8, 1.25]
    assert [r["shrunk"] for r in report["members"]] == [False, False, True]
    lo, hi = report["members"][2]["s_range"]
    assert -4 / 3 < lo < -1.2 and 1.2 < hi < 4 / 3


def test_dropped_anchor_is_reported(tmp_path):
    # at m = 1.25 the range is cut to about (-4/3, 4/3): the anchor 1.9
    # falls out, and without --strict that member is anchored at its s0
    cfg = _family_config(m_values=[1, 1.25], s_range=[-2, 2], anchor=1.9)
    out = tmp_path / "out"
    code = main(["family", "--config", _write_cfg(tmp_path, cfg, "anchor"),
                 "--out", str(out)])
    assert code == 0
    kept, dropped = json.loads((out / "report.json").read_text())["members"]
    assert "anchor_dropped" not in kept
    assert dropped["anchor_dropped"] == 1.9
    member = json.loads((out / "member_m1p25.json").read_text())
    assert member["metadata"]["anchor"] == dropped["s_range"][0]
    assert json.loads((out / "member_m1.json").read_text())[
        "metadata"]["anchor"] == 1.9


def test_dropped_anchor_under_strict_is_a_config_error(tmp_path, capsys):
    cfg = _family_config(m_values=[1, 1.25], s_range=[-2, 2], anchor=1.9)
    code = main(["family", "--config", _write_cfg(tmp_path, cfg, "anchor"),
                 "--out", str(tmp_path / "out"), "--strict"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == ("error: ConfigError: m = 1.25: anchor 1.9 lies outside "
                   "the feasible s_range [-1.13, 1.13]\n")
    assert not (tmp_path / "out" / "report.json").exists()


def test_feasible_range_unchanged_when_s0_feasible(rotational_frame):
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+1)", (-1.0, 2.0))
    # s0 = -1 feasible: only the upper end moves, on the grid from s0
    lo, hi = bg.feasible_s_range(U, 1.25, rotational_frame, (-1.0, 2.0),
                                 step=0.005)
    assert lo == -1.0
    assert hi == -1.0 + (math.floor((4 / 3 + 1.0) / 0.005 - 1e-6) - 20) * 0.005


def _exit_and_error(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().err


def test_nonpositive_generatrix_is_a_config_error(tmp_path, capsys):
    cfg = _family_config(generatrix="s", s_range=[-1.0, 1.0])
    code, err = _exit_and_error(capsys, [
        "family", "--config", _write_cfg(tmp_path, cfg, "neg"),
        "--out", str(tmp_path / "out")])
    assert code == 1
    assert err.startswith("error: ConfigError: ") and "positive" in err


def test_natural_config_without_space_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{}")
    code, err = _exit_and_error(capsys, [
        "natural", "--config", str(cfg_path), "--curve",
        str(tmp_path / "curve.csv"), "--out", str(tmp_path / "nat")])
    assert code == 1
    assert err == "error: ConfigError: the config has no 'space' entry\n"


def test_natural_curve_with_repeated_u_is_a_config_error(tmp_path, capsys):
    u = np.array([0.5, 1.0, 1.0, 1.5, 2.0])
    curve_path = tmp_path / "curve.csv"
    np.savetxt(curve_path, np.column_stack([u, u, 0 * u, 0 * u]),
               delimiter=",", header="u,x1,x2,x3", comments="")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"space": {"kind": "euclidean_helicoidal", "a": 1.0}}))
    code, err = _exit_and_error(capsys, [
        "natural", "--config", str(cfg_path), "--curve", str(curve_path),
        "--out", str(tmp_path / "nat")])
    assert code == 1
    assert err.startswith("error: ConfigError: ")
    assert "strictly increasing" in err


def test_missing_csv_generatrix_is_a_config_error(tmp_path, capsys):
    cfg = _family_config(generatrix={"csv": str(tmp_path / "missing.csv")})
    code, err = _exit_and_error(capsys, [
        "family", "--config", _write_cfg(tmp_path, cfg, "missing"),
        "--out", str(tmp_path / "out")])
    assert code == 1
    assert err.startswith("error: ConfigError: generatrix ")
    assert "missing.csv" in err


def test_unsorted_csv_generatrix_is_a_config_error(tmp_path, capsys):
    s = np.array([-1.0, 0.0, -0.5, 0.5, 1.0])
    np.savetxt(tmp_path / "U.csv", np.column_stack([s, np.sqrt(s * s + 1)]),
               delimiter=",", header="s,U", comments="")
    cfg = _family_config(generatrix={"csv": str(tmp_path / "U.csv")})
    code, err = _exit_and_error(capsys, [
        "family", "--config", _write_cfg(tmp_path, cfg, "unsorted"),
        "--out", str(tmp_path / "out")])
    assert code == 1
    assert err.startswith("error: ConfigError: generatrix ")
    assert "strictly increasing" in err


def test_natural_missing_curve_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"space": {"kind": "euclidean_helicoidal", "a": 1.0}}))
    code, err = _exit_and_error(capsys, [
        "natural", "--config", str(cfg_path), "--curve",
        str(tmp_path / "missing.csv"), "--out", str(tmp_path / "nat")])
    assert code == 1
    assert err.startswith("error: ConfigError: curve ")
    assert "missing.csv" in err


@pytest.mark.parametrize("argv", [
    ["family", "--config", "{missing}", "--out", "{out}"],
    ["natural", "--config", "{missing}", "--curve", "{missing}", "--out", "{out}"],
    ["verify", "{missing}"],
    ["mesh", "{missing}", "--out", "{out}"],
])
def test_missing_input_file_is_a_config_error(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing.json")
    code, err = _exit_and_error(capsys, [
        a.format(missing=missing, out=tmp_path / "o") for a in argv])
    assert code == 1
    assert err.startswith("error: ConfigError: ")
    assert "missing.json" in err and err.count("\n") == 1


def _catenoid_member_with(key, value):
    """A function that sets the entry ``key`` of a member document to
    ``value``."""
    def edit(document):
        document[key] = value
        return document
    return edit


def _catenoid_grid_with(key, value):
    """A function that sets the entry ``key`` of a member document's
    'isometry_grid' to ``value``."""
    def edit(document):
        document["isometry_grid"][key] = value
        return document
    return edit


def _catenoid_space_with(key, value):
    """A function that sets the entry ``key`` of a member document's
    'space' to ``value``."""
    def edit(document):
        document["space"][key] = value
        return document
    return edit


@pytest.mark.parametrize("command", ["verify", "mesh"])
@pytest.mark.parametrize("document,message", [
    ({"format": "bourgen-member", "m": 1.0},
     "the member file has no 'profile' entry"),
    ([1, 2], "the document must be a JSON object, not list"),
    ({"format": "bourgen-member", "m": 1, "epsilon": 1, "profile": [1],
      "V": [], "V_prime": []},
     "the member file's 'profile' entry must be an object, not list"),
    ({"format": "bourgen-member", "profile": {"s": [0.5, None]}},
     "the member file's 'profile.s' entry must be a list of finite numbers"),
    # the catenoid demo's member with one entry changed: an m of 0 or -1
    # failed at a chart point, an epsilon of 0.5 or 3 passed verify --strict
    *[(_catenoid_member_with(key, value),
       f"the member file's {key!r} entry must be {what}, not {value!r}")
      for key, what, values in (
          ("m", "a positive finite number", (0, -1, -0.0, math.inf)),
          ("epsilon", "1 or -1", (0.5, 3, 0)))
      for value in values],
    # a space that SpaceSpec refuses: a NaN tau made verify --strict
    # report NaN maxima and mesh write an OBJ, and a pitch was a SpecError
    (_catenoid_space_with("tau", math.nan),
     "euclidean_rotational needs a finite tau, not nan"),
    (_catenoid_space_with("kappa", math.inf),
     "euclidean_rotational needs a finite kappa, not inf"),
    (_catenoid_space_with("a", 1),
     "euclidean_rotational has no pitch; set a = 0"),
    (_catenoid_member_with("version", 3),
     "the member file's 'version' entry must be 1 or 2, not 3"),
    (_catenoid_member_with("version", "2"),
     "the member file's 'version' entry must be an integer, not str"),
    # a stored isometry grid whose counts, ranges or steps cannot be
    # measured
    *[(_catenoid_grid_with("grid_shape", shape),
       f"the member file's 'isometry_grid.grid_shape' entry must be two "
       f"counts from 1 to 1000, not {shape!r}")
      for shape in ([0, 5], [21], [21, 1001], [21, 2.0], [True, 5])],
    *[(_catenoid_grid_with(key, value),
       f"the member file's 'isometry_grid.{key}' entry must be a positive "
       f"finite number, not {value!r}")
      for key in ("fd_step", "tol") for value in (0, -1e-5)],
    (_catenoid_grid_with("t_range", [0.0]),
     "the member file's 'isometry_grid.t_range' entry must be a list of 2 "
     "finite numbers"),
])
def test_malformed_member_file_is_a_config_error(tmp_path, capsys, command,
                                                 document, message,
                                                 demo_outputs):
    if callable(document):
        document = document(json.loads(
            (demo_outputs["catenoid"] / "member_m1.json").read_text()))
    path = tmp_path / "member.json"
    path.write_text(json.dumps(document))
    argv = [command, str(path)] + (["--out", str(tmp_path / "o")]
                                   if command == "mesh" else [])
    code, err = _exit_and_error(capsys, argv)
    assert code == 1
    assert err == f"error: ConfigError: member: {message}\n"


@pytest.mark.parametrize("command", ["verify", "mesh"])
def test_member_file_without_its_generatrix_text_is_a_config_error(
        tmp_path, capsys, demo_outputs, command):
    document = json.loads(
        (demo_outputs["catenoid"] / "member_m1.json").read_text())
    del document["generatrix"]["text"]
    path = tmp_path / "member.json"
    path.write_text(json.dumps(document))
    argv = [command, str(path)] + (["--out", str(tmp_path / "o")]
                                   if command == "mesh" else [])
    code, err = _exit_and_error(capsys, argv)
    assert code == 1
    assert err == ("error: ConfigError: member: the member file has no "
                   "'generatrix.text' entry\n")


@pytest.mark.parametrize("command", ["verify", "mesh"])
@pytest.mark.parametrize("entry", ["0.5", True], ids=["word", "bool"])
def test_member_sample_that_is_not_a_number_is_a_config_error(
        tmp_path, capsys, demo_outputs, command, entry):
    # np.asarray would read "0.5" as 0.5 and true as 1.0
    document = json.loads(
        (demo_outputs["catenoid"] / "member_m1.json").read_text())
    document["profile"]["s"][3] = entry
    path = tmp_path / "member.json"
    path.write_text(json.dumps(document))
    argv = [command, str(path)] + (["--out", str(tmp_path / "o")]
                                   if command == "mesh" else [])
    code, err = _exit_and_error(capsys, argv)
    assert code == 1
    assert err == ("error: ConfigError: member: the member file's "
                   "'profile.s' entry must be a list of finite numbers\n")


def _write_rows(path, header, rows):
    path.write_text("\n".join([header] + [",".join(map(str, r)) for r in rows])
                    + "\n")
    return str(path)


@pytest.mark.parametrize("header,rows,message", [
    ("u,x1", [(0.5 + 0.1 * k, 1.0) for k in range(6)],
     "expected the 4 columns u,x1,x2,x3, found 2"),
    ("u,x1,x2,x3", [(0.5, 0.5, 0.0, 0.0)],
     "a lifted curve needs at least 4 samples"),
])
def test_malformed_curve_csv_is_a_config_error(tmp_path, capsys, header, rows,
                                               message):
    curve = _write_rows(tmp_path / "curve.csv", header, rows)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"space": {"kind": "euclidean_helicoidal", "a": 1.0}}))
    code, err = _exit_and_error(capsys, [
        "natural", "--config", str(cfg_path), "--curve", curve,
        "--out", str(tmp_path / "nat")])
    assert code == 1
    assert err == f"error: ConfigError: curve {curve}: {message}\n"


@pytest.mark.parametrize("header,rows,message", [
    ("s,U", [(0.5, 1.2)], "at least two samples"),
    ("s", [(-1.0 + 0.5 * k,) for k in range(5)],
     "expected the 2 columns s,U, found 1"),
])
def test_malformed_csv_generatrix_is_a_config_error(tmp_path, capsys, header,
                                                    rows, message):
    table = _write_rows(tmp_path / "U.csv", header, rows)
    cfg = _family_config(generatrix={"csv": table})
    code, err = _exit_and_error(capsys, [
        "family", "--config", _write_cfg(tmp_path, cfg, "table"),
        "--out", str(tmp_path / "out")])
    assert code == 1
    assert err.startswith(f"error: ConfigError: generatrix {table}: ")
    assert message in err and err.count("\n") == 1


def test_one_row_csv_generatrix_is_refused_in_bourgens_words(tmp_path,
                                                              capsys):
    table = _write_rows(tmp_path / "U.csv", "s,U", [(0.5, 1.2)])
    cfg = _family_config(generatrix={"csv": table})
    code, err = _exit_and_error(capsys, [
        "family", "--config", _write_cfg(tmp_path, cfg, "table"),
        "--out", str(tmp_path / "out")])
    assert code == 1
    assert err == (f"error: ConfigError: generatrix {table}: a table "
                   f"generatrix needs at least two samples\n")


# ---------------------------------------------------------------------------
# malformed config values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key,value,message", [
    ("m_values", "abc",
     "the config's 'm_values' entry must be a list, not str"),
    ("m_values", 1.0,
     "the config's 'm_values' entry must be a list, not float"),
    ("m_values", [math.nan],
     "the config's 'm_values' entry must be a list of finite numbers"),
    ("s_range", [1],
     "the config's 's_range' entry must be a list of 2 finite numbers"),
    ("s_range", "ab", "the config's 's_range' entry must be a list, not str"),
    ("grid", [], "the config's 'grid' entry must be an object, not list"),
    ("tolerances", 5,
     "the config's 'tolerances' entry must be an object, not int"),
    ("step", "x", "the config's 'step' entry must be a number, not str"),
    ("anchor", "x", "the config's 'anchor' entry must be a number, not str"),
    ("space", "helicoidal",
     "the config's 'space' entry must be an object, not str"),
    ("space", {"kind": "euclidean_rotational", "a": "x"},
     "the config's 'space.a' entry must be a number, not str"),
    ("space", {}, "the config has no 'space.kind' entry"),
    # NaN and infinite space parameters, which SpaceSpec used to accept
    ("space", {"kind": "bcv_helicoidal", "a": 1.0, "kappa": 1.0,
               "tau": math.nan}, "bcv_helicoidal needs a finite tau, not nan"),
    ("space", {"kind": "euclidean_helicoidal", "a": -math.inf},
     "euclidean_helicoidal needs a finite a, not -inf"),
    # a zero step gave nan maxima, a nan one a stencil RangeError
    ("tolerances", {"fd_step": 0},
     "the config's 'tolerances.fd_step' entry must be a positive finite "
     "number, not 0"),
    ("tolerances", {"fd_step": -1e-5},
     "the config's 'tolerances.fd_step' entry must be a positive finite "
     "number, not -1e-05"),
    ("tolerances", {"fd_step": math.nan},
     "the config's 'tolerances.fd_step' entry must be a positive finite "
     "number, not nan"),
    ("tolerances", {"fd_step": math.inf},
     "the config's 'tolerances.fd_step' entry must be a positive finite "
     "number, not inf"),
    ("tolerances", {"fd_step": "x"},
     "the config's 'tolerances.fd_step' entry must be a number, not str"),
    # a nan tolerance failed every check, a negative one every check too
    ("tolerances", {"isometry": math.nan},
     "the config's 'tolerances.isometry' entry must be a positive finite "
     "number, not nan"),
    ("tolerances", {"isometry": -1},
     "the config's 'tolerances.isometry' entry must be a positive finite "
     "number, not -1"),
    ("tolerances", {"isometry": 0},
     "the config's 'tolerances.isometry' entry must be a positive finite "
     "number, not 0"),
    ("tolerances", {"cross_check": math.inf},
     "the config's 'tolerances.cross_check' entry must be a positive finite "
     "number, not inf"),
    ("tolerances", {"cross_check": -1e-5},
     "the config's 'tolerances.cross_check' entry must be a positive finite "
     "number, not -1e-05"),
    ("tolerances", {"cross_check": "x"},
     "the config's 'tolerances.cross_check' entry must be a number, not str"),
    ("auto_shrink", "false",
     "the config's 'auto_shrink' entry must be true or false, not str"),
    ("auto_shrink", "no",
     "the config's 'auto_shrink' entry must be true or false, not str"),
    ("auto_shrink", [0],
     "the config's 'auto_shrink' entry must be true or false, not list"),
    # values that int(), float() and str() bent into others, and ran
    ("epsilon", 1.7, "the config's 'epsilon' entry must be an integer, "
                     "not float"),
    ("epsilon", True, "the config's 'epsilon' entry must be an integer, "
                      "not bool"),
    ("grid", {"s_count": 5.9, "t_count": 5},
     "the config's 'grid.s_count' entry must be an integer, not float"),
    ("m_values", [True],
     "the config's 'm_values' entry must be a list of finite numbers"),
    ("m_values", ["1"],
     "the config's 'm_values' entry must be a list of finite numbers"),
    ("s_range", ["-2", "2"],
     "the config's 's_range' entry must be a list of 2 finite numbers"),
    ("step", "0.01", "the config's 'step' entry must be a number, not str"),
    ("step", True, "the config's 'step' entry must be a number, not bool"),
    # values that failed later under another name: a NaN theta0 as an
    # infeasible s interval, a NaN t_range as NaN maxima, an infinite
    # s_range as U(nan); an infinite anchor was dropped
    ("theta0", math.nan,
     "the config's 'theta0' entry must be a finite number, not nan"),
    ("anchor", math.inf,
     "the config's 'anchor' entry must be a finite number, not inf"),
    ("grid", {"s_count": 9, "t_count": 5, "t_range": [0.0, math.nan]},
     "the config's 'grid.t_range' entry must be a list of 2 finite numbers"),
    ("s_range", [0.0, math.inf],
     "the config's 's_range' entry must be a list of 2 finite numbers"),
    # values that reached code which should never see them: a space
    # without a pitch, and np.loadtxt reading a list as lines of text
    ("integrator", 4,
     "the config's 'integrator' entry must be a string, not int"),
    ("space", {"kind": "euclidean_rotational", "a": True},
     "the config's 'space.a' entry must be a number, not bool"),
    ("generatrix", {"csv": 5},
     "the config's 'generatrix.csv' entry must be a string, not int"),
    ("generatrix", {"csv": ["a"]},
     "the config's 'generatrix.csv' entry must be a string, not list"),
    # an empty list wrote a report of no members that passed, and a step
    # of 1e-300 was a numpy traceback.  Both steps fail the check before
    # any array is built
    ("m_values", [], "the config's 'm_values' entry must be a list of one m "
                     "or more, not []"),
    ("step", 1e-300,
     "step 1e-300 takes more than 1000000 steps across s_range"),
    ("step", 1e-9, "step 1e-09 takes more than 1000000 steps across s_range"),
    # a count past numpy's array size was a traceback from np.linspace,
    # and one it can allocate would build its whole grid; both fail the
    # check before any array is built
    ("grid", {"s_count": 10 ** 20, "t_count": 5},
     "the config's 'grid.s_count' entry must be at most 1000, not "
     "100000000000000000000"),
    ("grid", {"s_count": 9, "t_count": 1001},
     "the config's 'grid.t_count' entry must be at most 1000, not 1001"),
    # U = sqrt(s^2+1) overflows on this range, which was a traceback
    ("s_range", [-1e200, 1.0],
     "generatrix: U(s) must be positive and finite on s_range; numerical "
     "result out of range"),
])
def test_malformed_config_value_is_a_config_error(tmp_path, capsys, key,
                                                  value, message):
    cfg = _family_config(**{key: value})
    code, err = _exit_and_error(capsys, [
        "family", "--config", _write_cfg(tmp_path, cfg, "bad"),
        "--out", str(tmp_path / "out")])
    assert code == 1
    assert err == f"error: ConfigError: {message}\n"


@pytest.mark.parametrize("step", ["0", "-1e-5", "nan", "inf"])
@pytest.mark.parametrize("command", ["family", "demo", "natural", "verify"])
def test_fd_step_option_must_be_positive_and_finite(tmp_path, capsys,
                                                    catenoid_member, command,
                                                    step):
    # a zero step wrote nan maxima (verify printed "FAIL (max devs E nan"),
    # a nan one failed with a misleading stencil RangeError
    member = tmp_path / "member.json"
    catenoid_member.to_json(member)
    inputs = {"family": ["--config", _write_cfg(tmp_path, _family_config(),
                                                "ok")],
              "demo": ["catenoid"],
              "natural": _meridian_inputs(tmp_path),
              "verify": [str(member)]}[command]
    out = [] if command == "verify" else ["--out", str(tmp_path / "out")]
    code, err = _exit_and_error(capsys, [command, *inputs, *out,
                                         f"--fd-step={step}"])
    assert code == 1
    assert err == ("error: ConfigError: --fd-step must be a positive finite "
                   f"number, not {float(step)!r}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["family", "demo", "natural", "verify"])
def test_tol_option_must_be_positive_and_finite(tmp_path, capsys, command,
                                                tol):
    # a nan tolerance printed FAIL for every member and exited 0, a
    # negative one exited 2 under --strict.  The input files do not
    # exist: the option is refused before any file is read or written
    missing = str(tmp_path / "missing")
    inputs = {"family": ["--config", missing],
              "demo": ["catenoid"],
              "natural": ["--config", missing, "--curve", missing],
              "verify": [missing]}[command]
    out = [] if command == "verify" else ["--out", str(tmp_path / "out")]
    code, err = _exit_and_error(capsys, [command, *inputs, *out,
                                         f"--tol={tol}", "--strict"])
    assert code == 1
    assert err == ("error: ConfigError: --tol must be a positive finite "
                   f"number, not {float(tol)!r}\n")
    assert not (tmp_path / "out").exists()


def test_generatrix_chain_too_deep_to_evaluate_is_a_config_error(tmp_path,
                                                                 capsys):
    # a left-associated chain is as deep as it is long
    cfg = _family_config(generatrix="+".join(["sqrt(s^2+1)/3000"] * 3000))
    code, err = _exit_and_error(capsys, [
        "family", "--config", _write_cfg(tmp_path, cfg, "chain"),
        "--out", str(tmp_path / "out")])
    assert code == 1
    assert err == ("error: ConfigError: generatrix does not parse: expression "
                   "nested deeper than 100 levels at offset 1648\n")


def test_config_that_is_not_an_object_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([_family_config()]))
    code, err = _exit_and_error(capsys, [
        "family", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert err == ("error: ConfigError: config: the document must be a JSON "
                   "object, not list\n")


# each entry that the readers' test replaces, and the attribute path of
# its loaded value (None for an object entry, whose value is not compared,
# and for a key that the reader does not read)
_CONFIG_ENTRIES = {
    "space": None, "grid": None, "tolerances": None,
    "space.t_count": None, "grid.isometry": None, "tolerances.kind": None,
    "generatrix": "generatrix", "m_values": "m_values", "epsilon": "epsilon",
    "s_range": "s_range", "step": "step", "anchor": "anchor",
    "theta0": "theta0", "integrator": "integrator",
    "auto_shrink": "auto_shrink", "seed": "seed",
    "grid.s_count": "s_count", "grid.t_count": "t_count",
    "grid.t_range": "t_range", "tolerances.isometry": "isometry_tol",
    "tolerances.cross_check": "cross_tol", "tolerances.fd_step": "fd_step",
    **{f"space.{k}": f"space.{k}" for k in ("kind", "a", "kappa", "tau")},
}
_MEMBER_ENTRIES = {
    "m": "m", "epsilon": "epsilon",
    **{f"space.{k}": f"space.{k}" for k in ("kind", "a", "kappa", "tau")},
    "generatrix.kind": "U.representation", "generatrix.text": "U.source",
    "generatrix.s_range": "U.s_range",
}
_entry_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([10 ** 400, "rk4", "euler", "s", "sqrt(s^2+1)",
                       "euclidean_rotational"]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(st.integers(-3, 3) | st.floats(), max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=4)


def _replaced(document, name, value):
    """A deep copy of document with the entry at the dotted name set to
    value, the objects on its path made where missing."""
    document = json.loads(json.dumps(document))
    *path, key = name.split(".")
    node = document
    for part in path:
        node = node.setdefault(part, {})
    node[key] = value
    return document


def _same_json(loaded, drawn):
    """True when loaded is the JSON value drawn, unchanged: a number for a
    number (never a bool), equal or NaN for NaN; a list of the same
    elements, as a list, tuple or array; otherwise of the same type and
    equal."""
    if isinstance(loaded, np.ndarray):
        loaded = loaded.tolist()
    if isinstance(drawn, list):
        return (isinstance(loaded, (list, tuple)) and len(loaded) == len(drawn)
                and all(map(_same_json, loaded, drawn)))
    if isinstance(drawn, (int, float)) and not isinstance(drawn, bool):
        return (isinstance(loaded, (int, float))
                and not isinstance(loaded, bool)
                and (loaded == drawn or math.isnan(loaded) and drawn != drawn))
    return type(loaded) is type(drawn) and loaded == drawn


def _apart(names):
    """names without each one that lies on the path of one kept before it
    (an object and an entry inside it): replacing the object would move
    the entry."""
    kept = []
    for name in names:
        if not any(f"{name}.".startswith(f"{k}.") or f"{k}.".startswith(
                f"{name}.") for k in kept):
            kept.append(name)
    return kept


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_both_readers_load_a_value_unchanged_or_refuse_it(data,
                                                         demo_outputs):
    # one to four entries of a valid config or of the catenoid demo's
    # member file are replaced by drawn JSON values: the document loads
    # with each value as it was written, or is refused in an error that
    # names one of the entries
    member = data.draw(st.booleans(), label="member file")
    entries = _MEMBER_ENTRIES if member else _CONFIG_ENTRIES
    names = _apart(data.draw(st.lists(st.sampled_from(sorted(entries)),
                                      min_size=1, max_size=4), label="entries"))
    values = [data.draw(_entry_values, label=name) for name in names]
    if member:
        document = json.loads(
            (demo_outputs["catenoid"] / "member_m1.json").read_text())
        read, refused = bg.SurfaceMember.from_dict, (ValueError, SpecError)
    else:
        document = _family_config()
        read, refused = RunConfig.from_dict, ConfigError
    for name, value in zip(names, values):
        document = _replaced(document, name, value)
    try:
        loaded = read(document)
    except refused as exc:
        # the error names an entry or an object on its path; SpaceSpec's
        # refusals name the parameter instead
        spec = isinstance(exc if member else exc.__cause__, SpecError)
        assert spec or any(re.search(rf"\b{part}\b", str(exc))
                           for name in names
                           for part in name.split(".")), str(exc)
        return
    for name, value in zip(names, values):
        path = entries[name]
        if path is not None:
            got = loaded
            for attribute in path.split("."):
                got = getattr(got, attribute)
            if isinstance(got, Expression):
                got = got.text
            assert _same_json(got, value), (name, got, value)


# ---------------------------------------------------------------------------
# options a subcommand does not read
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("inputs,option", [
    ("verify m.json", "--out o"),
    ("verify m.json", "--step 0.01"),
    ("mesh m.json", "--strict"),
    ("mesh m.json", "--step 0.01"),
    ("mesh m.json", "--tol 0"),
    ("mesh m.json", "--fd-step 1e-5"),
    ("natural --config c.json --curve u.csv", "--step 0.01"),
], ids=["verify-out", "verify-step", "mesh-strict", "mesh-step", "mesh-tol",
        "mesh-fd-step", "natural-step"])
def test_option_a_subcommand_does_not_read_is_a_usage_error(capsys, inputs,
                                                            option):
    with pytest.raises(SystemExit) as exc:
        main(inputs.split() + option.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"unrecognized arguments: {option}\n")


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def test_start_up_imports_no_scipy():
    # every command is a fresh process, and scipy.interpolate alone takes
    # longer to import than bourgen's own work on a typical member
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, bourgen, bourgen.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
    imports = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
    assert not [p.name for p in (SRC / "bourgen").glob("*.py")
                if imports.search(p.read_text())]


def test_writers_import_no_masked_arrays_fractions_or_decimal(tmp_path):
    # each would add to every command's peak memory: numpy.ma comes with
    # np.unique on an int array (without return_inverse, numpy 2.4),
    # fractions brings decimal along
    env = dict(os.environ, PYTHONPATH=str(SRC))
    member = tmp_path / "member_m1.json"
    script = (
        "import sys\n"
        "from bourgen.cli import main\n"
        f"assert main(['demo', 'bcv', '--out', {str(tmp_path)!r}]) == 0\n"
        f"assert main(['mesh', {str(member)!r}, '--out', "
        f"{str(tmp_path / 'mesh')!r}]) == 0\n"
        "print(sorted(m for m in ('numpy.ma', 'fractions', 'decimal')"
        " if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert (tmp_path / "mesh" / "member_m1.obj").exists()
    assert out.splitlines()[-1] == "[]"
