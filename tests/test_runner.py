"""Config parsing, pipeline execution, report determinism."""

import dataclasses
import json
import logging
import pathlib
import re

import numpy as np
import pytest

import nlscurve.ansatz as ansatz
import nlscurve.radial as radial
import nlscurve.runner as runner
import nlscurve.spectrum as spectrum
from nlscurve.errors import ValidationError
from nlscurve.geometry import (CurveSpec, PotentialField, build_curve,
                               sample_potential)
from nlscurve.resonance import FastModes, gap_scan
from nlscurve.runner import emit_report, main, parse_config, run_pipeline
from nlscurve.scalings import compute_exponents, critical_circle_radius

ROOT = pathlib.Path(__file__).resolve().parents[1]

# The critical circle of V = 1/(1+r²) in R³ at A = 0.05, as typed into the
# n = 3 run files here and in CI (test_n3_radius_is_critical pins it)
N3_RADIUS = "0.9950370682751267"

MINIMAL = """
[problem]
n = 2
p = 3.0
potential = 1

[curve]
kind = circle
radius = 1.0
"""

CRITICAL = """
[problem]
n = 2
p = 3.0
phase_speed = 0.0
potential = 1/(1+r2)

[curve]
kind = circle
radius = 0.70710678118655
samples = 128

[resonance]
eps = 0.05
gap_eps_grid = 0.08:0.04:10

[run]
stages = profile, geometry, scalings, criticality
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def readme_run_file():
    """The ```ini run file of README.md."""
    readme = ROOT / "README.md"
    return re.search(r"```ini\n(.*?)```", readme.read_text(), re.S).group(1)


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        assert cfg.n == 2 and cfg.p == 3.0
        assert cfg.curve.kind == "circle"
        assert cfg.stages == ("profile",)
        assert cfg.radial.m == 3000

    def test_p_out_of_range_rejected(self, tmp_path):
        text = MINIMAL.replace("n = 2", "n = 5").replace("p = 3.0", "p = 7")
        with pytest.raises(ValidationError, match="admissible"):
            parse_config(write(tmp_path, text))

    def test_negative_radius_rejected(self, tmp_path):
        text = MINIMAL.replace("radius = 1.0", "radius = -2")
        with pytest.raises(ValidationError, match="radius"):
            parse_config(write(tmp_path, text))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config(write(tmp_path, MINIMAL + "\nwibble = 3\n"))
        # a removed key that never changed any output is unknown too
        text = MINIMAL.replace("potential = 1", "potential = 1\njacobi_drift = 0.5")
        with pytest.raises(ValidationError, match="unknown key 'jacobi_drift'"):
            parse_config(write(tmp_path, text))

    def test_violations_aggregated(self, tmp_path):
        text = MINIMAL.replace("radius = 1.0", "radius = -2") \
                      .replace("p = 3.0", "p = 0.5")
        try:
            parse_config(write(tmp_path, text))
            assert False, "expected failure"
        except ValidationError as exc:
            msg = str(exc)
            assert "radius" in msg and "p" in msg

    def test_missing_file(self):
        with pytest.raises(ValidationError):
            parse_config("/nonexistent/run.cfg")

    def test_bad_potential_rejected(self, tmp_path):
        text = MINIMAL.replace("potential = 1", "potential = __import__('os')")
        with pytest.raises(ValidationError, match="potential"):
            parse_config(write(tmp_path, text))

    def test_readme_example_parses(self, tmp_path):
        # the README's run file carries inline ';' comments after its values
        cfg = parse_config(write(tmp_path, readme_run_file()))
        assert cfg.phase_speed == 0.05
        assert cfg.potential == "1/(1+r2)"
        assert cfg.curve.kind == "circle"
        assert cfg.assert_acceptance is True

    def test_semicolon_separated_eps_list(self, tmp_path):
        text = MINIMAL + "\n[residual]\neps_list = 0.2;0.1;0.05\n"
        assert parse_config(write(tmp_path, text)).residual_eps == (0.2, 0.1, 0.05)

    @pytest.mark.parametrize("section, key", [
        ("residual", "base_samples"), ("residual", "levels"),
        ("grids", "tube_delta_bar"), ("grids", "varsigma"),
        ("grids", "dz_factor"), ("problem", "f1_drift")])
    def test_removed_residual_key_is_rejected(self, tmp_path, section, key,
                                              capsys):
        # the residual stage runs levels 0-2 on the run's curve with the
        # library's tube and weight defaults; these keys no longer exist
        text = MINIMAL if f"[{section}]" in MINIMAL else MINIMAL + f"\n[{section}]\n"
        path = write(tmp_path, text.replace(f"[{section}]\n",
                                            f"[{section}]\n{key} = 1\n"))
        assert main([path]) == 2
        assert f"unknown key {key!r} in section [{section}]" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("section, line", [
        ("residual", "eps_list = 0.2,abc,0.05"),
        ("resonance", "gap_eps_grid = 0.08:0.02:0"),
        ("resonance", "gap_eps_grid = 0.02:0.08:1"),
        ("resonance", "gap_eps_grid = 0.08:-0.02:1"),
        ("residual", "eps_list = 0.2,0.2,0.1")],
        ids=["eps_list", "gap_eps_grid", "gap_eps_grid_ascending",
             "gap_eps_grid_negative", "repeated_eps"])
    def test_bad_list_value_is_a_violation(self, tmp_path, section, line):
        # a non-numeric value, an empty ε scan, an ε scan that breaks
        # hi > lo > 0 (with one point too, which is hi alone) and a repeated ε
        # are run-file violations (exit status 2), not a crash, a silent read
        # or an order fit over fewer distinct ε than the list counts
        path = write(tmp_path, MINIMAL + f"\n[{section}]\n{line}\n")
        with pytest.raises(ValidationError, match=line.split(" =")[0]):
            parse_config(path)
        assert main([path]) == 2

    def test_config_is_frozen(self, tmp_path):
        # an override (--stages, -o) makes a new config; none is assigned,
        # and no sequence of a parsed config is changed in place
        cfg = parse_config(write(tmp_path, MINIMAL))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.stages = ["geometry"]
        for seq in (cfg.stages, cfg.residual_eps):
            with pytest.raises(AttributeError):
                seq.append(1)
        with pytest.raises(ValueError, match="read-only"):
            cfg.gap_eps_grid[0] = 1.0

    def test_unknown_stage_is_named(self, tmp_path):
        path = write(tmp_path, MINIMAL + "\n[run]\nstages = profile, wibble\n")
        with pytest.raises(ValidationError,
                           match=r"\[run\] stages: unknown stages \['wibble'\]"):
            parse_config(path)
        assert main([path]) == 2

    def test_bad_boolean_is_a_violation(self, tmp_path):
        text = MINIMAL + "\n[run]\nassert_acceptance = maybe\n"
        with pytest.raises(ValidationError, match="assert_acceptance"):
            parse_config(write(tmp_path, text))
        assert main([write(tmp_path, text)]) == 2


@pytest.fixture(scope="module")
def critical_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runner")
    cfg = parse_config(write(tmp, CRITICAL))
    summary, csvs = run_pipeline(cfg)
    return cfg, summary, csvs


class TestPipeline:
    def test_stage_outputs(self, critical_run):
        _, summary, csvs = critical_run
        assert summary["stages"]["criticality"]["euler_residual_sup"] < 1e-8
        assert summary["stages"]["criticality"]["jacobi_min_abs_eig"] > 0
        assert summary["all_checks_pass"]
        assert {"profile", "curve", "scalings", "euler_residual"} <= set(csvs)

    def test_emit_and_determinism(self, critical_run, tmp_path):
        cfg, summary, csvs = critical_run
        d1, d2 = tmp_path / "a", tmp_path / "b"
        emit_report(summary, csvs, str(d1))
        emit_report(summary, csvs, str(d2))
        j1 = json.load(open(d1 / "summary.json"))
        j2 = json.load(open(d2 / "summary.json"))
        j1.pop("timestamp"), j2.pop("timestamp")
        assert j1 == j2
        assert (d1 / "euler_residual.csv").exists()

    def test_rerun_summary_bytes_identical(self, critical_run, tmp_path):
        # a second pipeline run emits the same summary.json bytes, apart
        # from the timestamp
        cfg, summary, csvs = critical_run
        emit_report(summary, csvs, str(tmp_path / "a"))
        emit_report(*run_pipeline(cfg), str(tmp_path / "b"))
        texts = [re.sub(rb'"timestamp": "[^"]*"', b"",
                        (tmp_path / name / "summary.json").read_bytes())
                 for name in ("a", "b")]
        assert texts[0] == texts[1]

    def test_rerun_bytes_identical_through_gap_scan(self, tmp_path):
        # the branch, resonance and gap-scan stages solve coupled eigenproblems;
        # a rerun must still emit the same summary.json bytes
        text = (CRITICAL
                .replace("phase_speed = 0.0", "phase_speed = 0.05")
                .replace("radius = 0.70710678118655", "radius = 0.7012465")
                .replace("[resonance]", "[grids]\nradial_m = 1000\n\n[resonance]")
                .replace("criticality\n", "criticality, branches, resonance, gap_scan\n"))
        cfg = parse_config(write(tmp_path, text))
        texts = []
        for name in ("a", "b"):
            emit_report(*run_pipeline(cfg), str(tmp_path / name))
            texts.append(re.sub(rb'"timestamp": "[^"]*"', b"",
                                (tmp_path / name / "summary.json").read_bytes()))
        assert texts[0] == texts[1]
        assert b'"alpha_bar"' in texts[0] and b'"gap_scan"' in texts[0]
        # the inertia certificate is a check that all_checks_pass covers
        assert b'"branches.bound_states_are_the_traced_branches": true' in texts[0]
        assert b'"continuum_threshold"' in texts[0]

    def test_rerun_bytes_identical_on_ellipse(self, tmp_path):
        # variable coefficients: alpha_field continues each μ group's
        # crossing from the previous one, so every result depends on the
        # solve order, and a rerun must still emit the same bytes
        text = (CRITICAL
                .replace("phase_speed = 0.0", "phase_speed = 0.05")
                .replace("kind = circle\nradius = 0.70710678118655",
                         "kind = ellipse\na = 0.85\nb = 0.6")
                .replace("[resonance]", "[grids]\nradial_m = 1000\n\n[resonance]")
                .replace("criticality\n", "branches, resonance, gap_scan\n"))
        cfg = parse_config(write(tmp_path, text))
        texts = []
        for name in ("a", "b"):
            emit_report(*run_pipeline(cfg), str(tmp_path / name))
            texts.append(re.sub(rb'"timestamp": "[^"]*"', b"",
                                (tmp_path / name / "summary.json").read_bytes()))
        assert texts[0] == texts[1]
        assert b'"branches.alpha_bar_in_traced_bracket": true' in texts[0]
        assert b'"n_admissible"' in texts[0]

    def test_alpha_bar_checked_against_the_traced_branch(self, tmp_path,
                                                         monkeypatch):
        # the Newton ᾱ lies in the grid cell where the traced ground branch
        # changes sign; moved by 0.2, two cells of the α grid, it does not
        text = (CRITICAL
                .replace("phase_speed = 0.0", "phase_speed = 0.05")
                .replace("radius = 0.70710678118655", "radius = 0.7012465")
                .replace("[resonance]", "[grids]\nradial_m = 1000\n\n[resonance]")
                .replace("profile, geometry, scalings, criticality", "branches"))
        cfg = parse_config(write(tmp_path, text))
        key = "branches.alpha_bar_in_traced_bracket"
        assert run_pipeline(cfg)[0]["checks"][key] is True
        find_alpha_bar = runner.find_alpha_bar

        def moved(sectors, mu):
            mode = find_alpha_bar(sectors, mu)
            return dataclasses.replace(mode, alpha_bar=mode.alpha_bar + 0.2)

        monkeypatch.setattr(runner, "find_alpha_bar", moved)
        summary, _ = run_pipeline(cfg)
        assert summary["checks"][key] is False
        assert summary["all_checks_pass"] is False

    @pytest.mark.parametrize("n, potential, alpha_end", [
        (2, "1/(1+r2)", 2.2), (3, "1/(1+r2)", 2.4), (3, "1/(1+r2+x3*x3)", 2.4)],
        ids=["n2", "n3", "n3_nondegenerate"])
    def test_alpha_grid_reaches_the_ground_crossing(self, tmp_path, n,
                                                    potential, alpha_end):
        # the α grid is [0, 2.2] in steps of 0.1, extended while the traced
        # ground branch is still <= 0 at its end: on the README circle in R³
        # (ᾱ = 2.3304) it reads -0.589 at 2.2, -0.140 at 2.3 and 0.328 at
        # 2.4, so the grid ends at 2.4 and brackets ᾱ.  The n = 3 count
        # finds a second ℓ = 0 bound state that no branch traces yet.
        text = readme_run_file()
        for pattern, repl in [
                (r"\nn = 2\n", f"\nn = {n}\n"),
                (r"\nradius = .*", f"\nradius = {N3_RADIUS}" if n == 3
                 else "\nradius = 0.7012465"),
                (r"\npotential = .*", f"\npotential = {potential}"),
                (r"\nstages = .*", "\nstages = branches")]:
            text, count = re.subn(pattern, repl, text)
            assert count == 1, pattern
        summary, csvs = run_pipeline(parse_config(write(tmp_path, text)))
        alphas = csvs["branches"][1][:, 0]
        assert np.array_equal(alphas, np.linspace(0.0, alpha_end,
                                                  round(10 * alpha_end) + 1))
        checks = summary["stages"]["branches"]["checks"]
        assert checks["alpha_bar_in_traced_bracket"] is True
        assert checks["bound_states_are_the_traced_branches"] is (n == 2)

    def test_branches_stage_traces_once(self, tmp_path, monkeypatch):
        # the README circle in R³: the grid end follows from the Newton ᾱ
        # (2.3304), so one trace on [0, 2.4] serves the stage
        grids = []

        def counted(sectors, mu, alphas):
            grids.append(alphas)
            return trace_branches(sectors, mu, alphas)

        trace_branches = runner.trace_branches
        monkeypatch.setattr(runner, "trace_branches", counted)
        text = readme_run_file()
        for pattern, repl in [(r"\nn = 2\n", "\nn = 3\n"),
                              (r"\nradius = .*", f"\nradius = {N3_RADIUS}"),
                              (r"\nstages = .*", "\nstages = branches")]:
            text, count = re.subn(pattern, repl, text)
            assert count == 1, pattern
        summary, csvs = run_pipeline(parse_config(write(tmp_path, text)))
        assert len(grids) == 1
        assert np.array_equal(grids[0], csvs["branches"][1][:, 0])
        assert grids[0][-1] == 2.4
        assert summary["stages"]["branches"]["checks"]["alpha_bar_in_traced_bracket"]

    def test_resonance_and_gap_scan_share_fast_modes(self, tmp_path,
                                                     monkeypatch):
        # one FastModes (D2 and the pencil spectrum) serves both stages, and
        # the gap-scan records are bitwise those of a scan that builds its own
        built = []

        class Counted(runner.FastModes):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(runner, "FastModes", Counted)
        text = (CRITICAL
                .replace("phase_speed = 0.0", "phase_speed = 0.05")
                .replace("kind = circle\nradius = 0.70710678118655",
                         "kind = ellipse\na = 0.85\nb = 0.6")
                .replace("[resonance]", "[grids]\nradial_m = 1000\n\n[resonance]")
                .replace("profile, geometry, scalings, criticality",
                         "resonance, gap_scan"))
        cfg = parse_config(write(tmp_path, text))
        _, csvs = run_pipeline(cfg)
        assert len(built) == 1
        records = gap_scan(FastModes(*built[0]), cfg.gap_eps_grid, cfg.delta,
                           cfg.gap_threshold)
        rows = np.array([[r["eps"], r["min_abs_eigenvalue"], float(r["admissible"])]
                         for r in records])
        assert np.array_equal(csvs["gap_scan"][1], rows)

    def test_each_coupled_sector_is_set_up_once(self, tmp_path, monkeypatch):
        # the branches, resonance and gap-scan stages share one ℓ = 0 and one
        # ℓ = 1 sector: each builds its two scalar tridiagonals and their
        # lowest pairs once, and no stage computes a sector kernel (every
        # tridiagonal eigensolve is one pair of lowest_eigenpairs: two of
        # each ℓ = 0 tridiagonal, one of each ℓ = 1 one)
        calls = []

        def counting(name, func):
            def counted(*args, **kwargs):
                calls.append(name)
                return func(*args, **kwargs)
            return counted

        for name in ("Sector", "lowest_eigenpairs"):
            monkeypatch.setattr(spectrum, name,
                                counting(name, getattr(spectrum, name)))
        monkeypatch.setattr(radial, "eigh_tridiagonal", counting(
            "eigh_tridiagonal", radial.eigh_tridiagonal))
        monkeypatch.setattr(spectrum._CoupledSector, "__init__", counting(
            "set-up", spectrum._CoupledSector.__init__))
        text = re.sub(r"stages = .*", "stages = branches, resonance, gap_scan",
                      readme_run_file())
        summary, _ = run_pipeline(parse_config(write(tmp_path, text)))
        assert summary["all_checks_pass"]
        assert [calls.count(name) for name in
                ("set-up", "Sector", "lowest_eigenpairs", "eigh_tridiagonal")
                ] == [2, 4, 4, 6]

    @pytest.mark.parametrize("kind, gate", [("circle", True), ("ellipse", None)])
    def test_oracle_gate_reads_the_fast_modes_decision(self, tmp_path, kind, gate):
        # the README circle's gap scan is gated by the arithmetic oracle and
        # passes it; the README ellipse, whose FastModes found variable
        # coefficients, has no oracle and no such check.  Both report the
        # four parity blocks of a curve even about node 0 and node M/4
        text = re.sub(r"stages = .*", "stages = gap_scan", readme_run_file())
        if kind == "ellipse":
            text, count = re.subn(r"kind = circle.*\nradius = .*",
                                  "kind = ellipse\na = 0.85\nb = 0.6", text)
            assert count == 1
        summary, _ = run_pipeline(parse_config(write(tmp_path, text)))
        assert summary["checks"].get("gap_scan.gap_scan_matches_oracle") is gate
        assert summary["stages"]["gap_scan"]["blocks"] == [65, 64, 64, 63]

    @pytest.mark.parametrize("curve, min_abs_eig", [
        ("kind = circle\nradius = 0.7012465", 0.71076659),
        ("kind = ellipse\na = 0.85\nb = 0.6", 0.03192731)])
    def test_benchmark_curves_nondegenerate(self, tmp_path, curve, min_abs_eig):
        # the curves of the pipeline benchmark workloads at their nominal
        # A = 0.05 and 256 samples
        text = (CRITICAL
                .replace("phase_speed = 0.0", "phase_speed = 0.05")
                .replace("kind = circle\nradius = 0.70710678118655", curve)
                .replace("samples = 128", "samples = 256")
                .replace("profile, geometry", "geometry"))
        summary, _ = run_pipeline(parse_config(write(tmp_path, text)))
        crit = summary["stages"]["criticality"]
        assert crit["jacobi_invertible"]
        assert abs(crit["jacobi_min_abs_eig"] - min_abs_eig) < 1e-8

    @pytest.mark.parametrize("potential, invertible", [
        ("1/(1+r2+x3*x3)", True), ("1/(1+r2)", False)])
    def test_readme_circle_n3_nondegeneracy(self, tmp_path, potential,
                                             invertible):
        # the README circle in R³ at its critical radius: 1/(1+r²) is
        # SO(3)-invariant, so the two rotations that tilt the circle out of
        # its plane are an exact kernel pair of the Jacobi operator; the x3
        # term keeps the potential on the plane, and so the critical
        # radius, and lifts that pair
        text = readme_run_file()
        for pattern, repl in [
                (r"\nn = 2\n", "\nn = 3\n"),
                (r"\nradius = .*", f"\nradius = {N3_RADIUS}"),
                (r"\npotential = .*", f"\npotential = {potential}"),
                (r"\nstages = .*", "\nstages = geometry, scalings, criticality")]:
            text, count = re.subn(pattern, repl, text)
            assert count == 1, pattern
        summary, _ = run_pipeline(parse_config(write(tmp_path, text)))
        crit = summary["stages"]["criticality"]
        assert crit["euler_residual_sup"] <= 1e-14
        assert crit["jacobi_invertible"] == invertible
        if invertible:
            assert abs(crit["jacobi_min_abs_eig"] - 0.009950493835881789) < 1e-8
        else:
            assert crit["jacobi_min_abs_eig"] < 1e-10

    def test_empty_stage_selection(self, tmp_path):
        text = CRITICAL.replace(
            "stages = profile, geometry, scalings, criticality", "stages =")
        cfg = parse_config(write(tmp_path, text))
        summary, csvs = run_pipeline(cfg)
        assert summary["stages"] == {} and csvs == {}
        assert summary["all_checks_pass"]

    def test_residual_stage_on_readme_circle(self, tmp_path, monkeypatch):
        # the criterion-8 residual study on the README circle runs on the
        # run's one curve: every tube grid has its [curve] samples = 256 s̄
        # nodes, whatever ε
        curves, grids = [], []
        build_curve, build_tube_grid = runner.build_curve, ansatz.build_tube_grid

        def curve(*args):
            curves.append(build_curve(*args))
            return curves[-1]

        def tube(*args, **kwargs):
            grids.append(build_tube_grid(*args, **kwargs))
            assert args[0] is curves[0]
            return grids[-1]

        monkeypatch.setattr(runner, "build_curve", curve)
        monkeypatch.setattr(ansatz, "build_tube_grid", tube)
        text = re.sub(r"stages = .*", "stages = profile, geometry, residual",
                      readme_run_file())
        summary, csvs = run_pipeline(parse_config(write(tmp_path, text)))
        assert len(curves) == 1
        assert [grid.n_s for grid in grids] == [256] * 3
        emit_report(summary, csvs, str(tmp_path / "out"))
        checks = summary["stages"]["residual"]["checks"]
        assert checks == {"level0_slope_ge_0.9": True,
                          "level1_slope_ge_1.8": True,
                          "level2_slope_ge_1.8": True,
                          "level2_below_level1": True}
        lines = (tmp_path / "out" / "residual.csv").read_text().splitlines()
        assert lines[0] == "eps,level,norm" and len(lines) == 10

    def test_two_stages_two_csv_groups(self, tmp_path):
        text = CRITICAL.replace(
            "stages = profile, geometry, scalings, criticality",
            "stages = profile, geometry")
        cfg = parse_config(write(tmp_path, text))
        summary, csvs = run_pipeline(cfg)
        assert "profile" in csvs and "curve" in csvs


def test_n3_radius_is_critical():
    # the n = 3 run files here and in CI's tier1.yml type the radius in; a
    # root-finder change must not leave them on an off-critical circle
    exps = compute_exponents(3, 3)
    V = PotentialField("1/(1+r2)", 3)

    def builder(R):
        curve = build_curve(CurveSpec("circle", n=3, radius=R), 128)
        return curve, sample_potential(V, curve)

    rstar = critical_circle_radius(builder, (0.6, 1.4), 0.05, exps)
    assert abs(rstar - float(N3_RADIUS)) <= 1e-12
    ci = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert set(re.findall(r'"\\nradius = ([0-9.]+)"', ci)) == {N3_RADIUS}


@pytest.mark.parametrize("n", [2, 3])
def test_csv_headers_name_every_column(tmp_path, n):
    text = (CRITICAL.replace("n = 2", f"n = {n}")
            .replace("[resonance]", "[grids]\nradial_m = 1000\n\n[resonance]"))
    out = tmp_path / "out"
    assert main([write(tmp_path, text), "-o", str(out)]) == 0
    paths = sorted(out.glob("*.csv"))
    assert {p.stem for p in paths} == {"profile", "curve", "potential", "scalings",
                                       "euler_residual", "jacobi_spectrum"}
    for path in paths:
        header, row = path.read_text().splitlines()[:2]
        assert len(header.split(",")) == len(row.split(",")), path.name
    assert (out / "curve.csv").read_text().startswith(
        "s," + ",".join(f"x{i}" for i in range(1, n + 1)) + ","
        + ",".join(f"H{j}" for j in range(1, n)) + "\n")


def test_csv_bytes_are_savetxt(tmp_path):
    # every CSV of a pipeline run through the gap scan, and a single row,
    # byte for byte as np.savetxt writes them
    text = (CRITICAL
            .replace("phase_speed = 0.0", "phase_speed = 0.05")
            .replace("radius = 0.70710678118655", "radius = 0.7012465")
            .replace("[resonance]", "[grids]\nradial_m = 1000\n\n[resonance]")
            .replace("criticality\n", "criticality, branches, resonance, gap_scan\n"))
    summary, csvs = run_pipeline(parse_config(write(tmp_path, text)))
    csvs["one_row"] = ("a,b,c", np.array([1.0, -2.5e-300, np.nan]))
    emit_report(summary, csvs, str(tmp_path / "out"))
    assert len(csvs) == 11          # ten of the pipeline and the single row
    for name, (header, rows) in csvs.items():
        ref = tmp_path / f"{name}.ref"
        np.savetxt(ref, np.atleast_2d(rows), delimiter=",", header=header,
                   comments="")
        assert (tmp_path / "out" / f"{name}.csv").read_bytes() == ref.read_bytes()


class TestMain:
    def test_cli_roundtrip(self, tmp_path):
        cfgpath = write(tmp_path, CRITICAL.replace(
            "stages = profile, geometry, scalings, criticality",
            "stages = geometry, scalings"))
        out = tmp_path / "out"
        rc = main([cfgpath, "-o", str(out)])
        assert rc == 0
        assert (out / "summary.json").exists()

    def test_cli_rejects_bad_config(self, tmp_path):
        bad = write(tmp_path, MINIMAL.replace("p = 3.0", "p = 0.1"))
        assert main([bad]) == 2

    def test_cli_rejects_parametric_curve(self, tmp_path, capsys):
        # circle and ellipse are the only kinds, as the README lists them
        bad = write(tmp_path, MINIMAL.replace("kind = circle", "kind = parametric"))
        assert main([bad]) == 2
        assert "[curve] unknown curve kind 'parametric'" \
            in capsys.readouterr().err
        assert re.search(r"kind = circle +; circle \| ellipse\n",
                         readme_run_file())

    def test_cli_stage_override(self, tmp_path):
        cfgpath = write(tmp_path, CRITICAL)
        out = tmp_path / "out2"
        rc = main([cfgpath, "-o", str(out), "--stages", "geometry"])
        assert rc == 0
        summary = json.load(open(out / "summary.json"))
        assert list(summary["stages"]) == ["geometry"]

    def test_cli_rejects_unknown_stage(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([write(tmp_path, CRITICAL), "-o", str(out),
                     "--stages", "geometry, wibble"]) == 2
        assert "error: unknown stages ['wibble']" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_acceptance_check_exits_1(self, tmp_path, capsys):
        # at p = 1.1 the Dirichlet wall truncates the profile's tail, so
        # its fitted decay rate misses 1 by more than 2%
        text = MINIMAL.replace("p = 3.0", "p = 1.1") \
            + "\n[run]\nstages = profile\nassert_acceptance = true\n"
        assert main([write(tmp_path, text), "-o", str(tmp_path / "out")]) == 1
        assert "profile.decay_rate_within_2pct" in capsys.readouterr().err

    def test_failed_stage_exits_3(self, tmp_path, capsys):
        # 1 - r2 is negative on a circle of radius 2; at phase_speed = 1 the
        # README circle's second variation loses positivity (PhaseLawError)
        negative = MINIMAL.replace("potential = 1", "potential = 1-r2").replace(
            "radius = 1.0", "radius = 2.0") + "\n[run]\nstages = profile, geometry\n"
        fast, count = re.subn(r"\nphase_speed = .*", "\nphase_speed = 1.0",
                              readme_run_file())
        assert count == 1
        for text, expected in (
                (negative, "stage 'geometry' failed"),
                (fast, "stage 'criticality' failed: second-variation "
                       "denominators lose positivity")):
            assert main([write(tmp_path, text), "-o", str(tmp_path / "out")]) == 3
            assert expected in capsys.readouterr().err

    def test_env_default_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NLSCURVE_OUT", str(tmp_path / "envout"))
        cfgpath = write(tmp_path, CRITICAL.replace(
            "stages = profile, geometry, scalings, criticality",
            "stages = geometry"))
        rc = main([cfgpath])
        assert rc == 0
        assert (tmp_path / "envout" / "summary.json").exists()

    def test_verbose_logs_stages_to_stderr(self, tmp_path, capsys, caplog):
        cfgpath = write(tmp_path, CRITICAL.replace(
            "stages = profile, geometry, scalings, criticality",
            "stages = geometry, scalings"))
        out = tmp_path / "out"
        with caplog.at_level(logging.INFO, logger="nlscurve.runner"):
            assert main([cfgpath, "-o", str(out), "-v"]) == 0
        msgs = [r.getMessage() for r in caplog.records
                if r.name == "nlscurve.runner" and r.levelno == logging.INFO]
        assert msgs[0] == "[geometry] ..."
        assert re.fullmatch(r"\[geometry\] done in \d+\.\d{3}s", msgs[1])
        assert msgs[2] == "[scalings] ..."
        assert f"wrote {out / 'summary.json'}" in msgs
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert all(m in stderr for m in msgs)
        # without -v nothing reaches either stream, and -v left no handler
        assert main([cfgpath, "-o", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
