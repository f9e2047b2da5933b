"""Locating a critical circle and checking its nondegeneracy.

For the radial potential V = 1/(1+r²) the reduced length R·V(R)^{θ/(p-1)}
has an interior stationary point; the extremality condition picks the same
radius through a completely different computation (normal gradient against
curvature).  The second-variation operator assembled there is symmetric with
a clean spectral gap: the nondegeneracy hypothesis is checkable by eye.  It
is built from the Fourier collocation D2, so at zero phase speed its
eigenvalues are the continuum symbol -8/3 + 2m² to round-off.
"""

import numpy as np

from nlscurve.geometry import CurveSpec, PotentialField, build_curve, sample_potential
from nlscurve.scalings import (assemble_jacobi, compute_exponents,
                               compute_scalings, critical_circle_radius,
                               euler_residual, reduced_functional,
                               weighted_eigenbasis)

exps = compute_exponents(2, 3)
V = PotentialField("1/(1+r2)", 2)


def builder(R):
    curve = build_curve(CurveSpec("circle", n=2, radius=R), 128)
    return curve, sample_potential(V, curve)


for A in (0.0, 0.05):
    rstar = critical_circle_radius(builder, (0.4, 1.2), A, exps)
    curve, pot = builder(rstar)
    sf = compute_scalings(curve, pot, A, exps)
    _, sup = euler_residual(curve, pot, sf, exps)
    red = reduced_functional(curve, sf, exps)
    matrix, weight = assemble_jacobi(curve, pot, sf, exps)
    vals, _, verdict = weighted_eigenbasis(matrix, weight, 6, 1,
                                           ds=curve.L / curve.M)
    print(f"phase speed {A}: critical radius {rstar:.8f} "
          f"(residual sup {sup:.1e})")
    print(f"   reduced functional {red:.6f}; second-variation eigenvalues "
          f"{np.round(vals, 4)}")
    if A == 0.0:
        # 2R² = c(1+R²) with c = (p-1)/θ: the Euler condition in closed form
        c = (exps.p - 1) / exps.theta
        exact = np.sqrt(c / (2 - c))
        print(f"   closed form sqrt(c/(2-c)), c = (p-1)/θ: {exact:.16f} "
              f"(difference {rstar - exact:.1e})")
        # R = 1/√2: the continuum symbol is exactly -8/3 + 2m², m ≠ 0 twice
        m = np.array([0, 1, 1, 2, 2, 3])
        print(f"   continuum symbol -8/3 + 2m²:    {np.round(-8 / 3 + 2.0 * m**2, 4)}")
    print(f"   nondegenerate: {verdict['invertible']} "
          f"(min |eig| = {verdict['min_abs_eigenvalue']:.4f})")

print("\nzero-speed analytic check: r* = 1/sqrt(2) =",
      f"{2**-0.5:.8f}")
