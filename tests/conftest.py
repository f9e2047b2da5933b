"""Shared fixtures: cached ground states and the reference critical circle."""

import pytest

from nlscurve.geometry import CurveSpec, PotentialField, build_curve, sample_potential
from nlscurve.radial import RadialGrid, ground_state
from nlscurve.resonance import FastModes
from nlscurve.scalings import (compute_exponents, compute_scalings,
                               critical_circle_radius)
from nlscurve.spectrum import alpha_field, coupled_sectors

# The curves of the runner pipelines, with their phase speed: the README
# circle and ellipse, and the same circle at A = 0.0537, where kᾱ spreads by
# one rounding step along the curve instead of being bitwise constant.
RUNNER_CURVES = {
    "circle": (CurveSpec("circle", n=2, radius=0.7012465), 0.05),
    "ellipse": (CurveSpec("ellipse", n=2, a=0.85, b=0.6), 0.05),
    "circle_A0.0537": (CurveSpec("circle", n=2, radius=0.7012465), 0.0537),
}


@pytest.fixture(scope="session")
def grid30():
    return RadialGrid(30.0, 3000)


@pytest.fixture(scope="session")
def U23(grid30):
    """Ground state for (n, p) = (2, 3): U = sqrt(2)·sech."""
    return ground_state(2, 3, grid30)


@pytest.fixture(scope="session")
def sectors23(U23):
    """The coupled sectors of U23, set up once (spectrum.coupled_sectors)."""
    return coupled_sectors(U23, 3.0)


@pytest.fixture(scope="session")
def exps23():
    return compute_exponents(2, 3)


@pytest.fixture(scope="session")
def bump_potential():
    """Radial decreasing potential admitting a critical circle at 1/sqrt(2)."""
    return PotentialField("1/(1+r2)", 2)


def circle_setup(V, R, M, phase_speed, exps):
    curve = build_curve(CurveSpec("circle", n=2, radius=R), M)
    pot = sample_potential(V, curve)
    sf = compute_scalings(curve, pot, phase_speed, exps)
    return curve, pot, sf


@pytest.fixture(scope="session")
def critical_circle(bump_potential, exps23):
    """Critical circle of V = 1/(1+r²) at phase speed 0, with its fields."""
    V = bump_potential

    def builder(R):
        curve = build_curve(CurveSpec("circle", n=2, radius=R), 128)
        return curve, sample_potential(V, curve)

    rstar = critical_circle_radius(builder, (0.4, 1.2), 0.0, exps23)
    curve, pot, sf = circle_setup(V, rstar, 256, 0.0, exps23)
    return {"rstar": rstar, "curve": curve, "pot": pot, "sf": sf, "V": V}


def runner_setup(name, sectors, V, exps):
    """Resonance inputs of the runner curve ``name`` at 256 nodes."""
    spec, phase_speed = RUNNER_CURVES[name]
    curve = build_curve(spec, 256)
    sf = compute_scalings(curve, sample_potential(V, curve), phase_speed, exps)
    crossing = alpha_field(sf, sectors)
    fast = FastModes(sf, crossing)
    return {"name": name, "kind": spec.kind, "sf": sf, "abar": fast.abar,
            "crossing": crossing, "fast": fast}
