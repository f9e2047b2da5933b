"""The package loads scipy.linalg and no other SciPy subpackage: each of the
others costs 0.02–0.2 s of start-up.  No eigensolver of the package is
ARPACK's; the tests keep it as an oracle."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
UNWANTED = ("scipy.integrate", "scipy.interpolate", "scipy.optimize",
            "scipy.sparse", "scipy.spatial", "scipy.special")
# the names of ARPACK's entry points and of the operator wrapper they take
ARPACK_NAMES = ("eigs", "eigsh", "LinearOperator", "arpack")


def _unwanted(name):
    return any(name == mod or name.startswith(mod + ".") for mod in UNWANTED)


def test_runner_import_and_set_up_load_no_unwanted_scipy():
    # a fresh interpreter imports the runner, then solves a ground state,
    # traces its branches and finds their crossing, builds a sampled loop
    # and finds a critical circle (the code paths that used those
    # subpackages), and lists the SciPy modules it holds
    code = """
import sys
import nlscurve.runner
loaded = {m for m in sys.modules if m.startswith("scipy.")}
import numpy as np
from nlscurve.geometry import CurveSpec, PotentialField, build_curve, sample_potential
from nlscurve.radial import RadialGrid, ground_state
from nlscurve.scalings import compute_exponents, critical_circle_radius
from nlscurve.spectrum import coupled_sectors, find_alpha_bar, trace_branches
sectors = coupled_sectors(ground_state(3, 3, RadialGrid(30.0, 1000)), 3.0)
trace_branches(sectors, 0.1, np.linspace(0.0, 1.0, 3))
find_alpha_bar(sectors, 0.1)
t = np.linspace(0, 2 * np.pi, 100, endpoint=False)
build_curve(CurveSpec("parametric", n=2, points=np.stack([np.cos(t), 2 * np.sin(t)], 1)), 64)
V = PotentialField("1/(1+r2)", 2)
def builder(R):
    curve = build_curve(CurveSpec("circle", n=2, radius=R), 64)
    return curve, sample_potential(V, curve)
critical_circle_radius(builder, (0.4, 1.2), 0.0, compute_exponents(2, 3))
print(" ".join(sorted(loaded)))
print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy."))))
"""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path)).stdout
    after_import, after_use = (line.split() for line in out.splitlines())
    assert "scipy.linalg" in after_import
    assert not [m for m in after_import + after_use if _unwanted(m)]


def test_no_import_of_unwanted_scipy_in_source():
    # every import statement, at module level or inside a function
    found = []
    for path in sorted((SRC / "nlscurve").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            else:
                continue
            found += [(path.name, node.lineno, n) for n in names if _unwanted(n)]
    assert not found


def _referenced_names():
    """(module, line, name) of every name, attribute and imported alias in
    the package, however it was imported."""
    for path in sorted((SRC / "nlscurve").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name is not None:
                yield path.name, getattr(node, "lineno", None), name.split(".")[-1]


def test_no_arpack_call_in_source():
    assert not [ref for ref in _referenced_names() if ref[2] in ARPACK_NAMES]


def test_radial_grid_primitives_live_in_radial():
    # the radial quadrature, the tridiagonal eigensolver and the row
    # interpolation on the radial grid have one home
    assert not [ref for ref in _referenced_names() if ref[0] != "radial.py"
                and ref[2] in ("trapezoid", "eigh_tridiagonal")]
    defined = [path.name for path in sorted((SRC / "nlscurve").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.FunctionDef) and node.name == "_interp_rows"]
    assert defined == ["radial.py"]
