"""The names the benchmark harness in perfbench/ reads from the package.

perfbench/ stays fixed between changes to the benchmark, and it reads
arguments by position and grids and configurations by attribute
(perfbench/tracer.py, perfbench/child.py).  A signature change that breaks
it fails here, not only in a traced benchmark run.
"""

import inspect

import numpy as np
import pytest

from nlscurve import ansatz, resonance, scalings, spectrum, tube
from nlscurve.geometry import PotentialField, sample_potential
from nlscurve.runner import parse_config

from conftest import runner_setup
from oracles import straight_segment_curve


LEADING = [
    # tracer._span_name reads the ansatz level off args[5]
    (ansatz.assemble_ansatz,
     ["grid", "curve", "sf", "U", "correctors", "params"]),
    (ansatz.build_correctors, ["curve"]),
    (spectrum.alpha_field, ["sf"]),
    (tube.apply_S_eps, ["values", "grid"]),
    # child.residual_ladder's calls, positional but for base_M
    (ansatz.residual_study, ["curve_for", "V", "phase_speed", "exps", "U",
                             "eps_list", "levels", "base_M"]),
    (scalings.critical_circle_radius,
     ["V_of_R_builder", "bracket", "phase_speed", "exps"]),
    # the runner's gap-scan stage
    (resonance.gap_scan, ["modes", "eps_grid", "delta", "threshold"]),
]


@pytest.mark.parametrize("fn, leading", LEADING,
                         ids=[fn.__name__ for fn, _ in LEADING])
def test_leading_parameters(fn, leading):
    assert list(inspect.signature(fn).parameters)[:len(leading)] == leading


def test_tube_grid_attributes():
    # the tracer counts S_ε flops from stencil_order and d, and records
    # (n_s, *z_shape) per built grid
    seg = straight_segment_curve(5.0, 16, 2)
    V = PotentialField("1", 2)
    sf = scalings.compute_scalings(seg, sample_potential(V, seg), 0.0,
                                   scalings.compute_exponents(2, 3))
    grid = tube.build_tube_grid(seg, V, sf, 0.2, dz_factor=4)
    assert grid.stencil_order == 4 and grid.d == 1
    assert grid.n_s == 16 and grid.z_shape == grid.znorm.shape


def test_run_config_attributes(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[problem]\nn = 2\np = 3.0\npotential = 1\n\n"
                    "[curve]\nkind = circle\nradius = 1.0\nsamples = 64\n")
    cfg = parse_config(str(path))
    assert cfg.curve_samples == 64 and cfg.radial.m == 3000


@pytest.mark.parametrize("name", ["circle", "ellipse"])
def test_gap_scan_records(name, sectors23, bump_potential, exps23):
    # the tracer's resonance.gap_scan_points is len(result), and the runner
    # writes each record's eps, min_abs_eigenvalue and admissible; the
    # circle takes the constant-coefficient path, the ellipse the other
    modes = runner_setup(name, sectors23, bump_potential, exps23)["fast"]
    grid = np.linspace(0.08, 0.02, 100)
    records = resonance.gap_scan(modes, grid, 0.3, 0.1)
    assert len(records) == grid.size
    for record in records:
        assert {"eps", "min_abs_eigenvalue", "admissible"} <= set(record)
