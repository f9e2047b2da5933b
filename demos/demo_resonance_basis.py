"""The fast-mode eigenbasis and its near-diagonal quadratic form.

Around the transverse crossing frequency, the periodic weighted eigenproblem
along the curve produces eigenvalues ν_j that are affine in j near zero with
slope proportional to ε.  Each eigenfunction gets a companion β_j; together
they satisfy a coupled first-order system up to O(ν² + ε), and the leading
quadratic form is nearly diagonal in the β-coordinates with the ν_j on the
diagonal.
"""

import numpy as np

from nlscurve.geometry import CurveSpec, PotentialField, build_curve, sample_potential
from nlscurve.radial import RadialGrid, ground_state
from nlscurve.resonance import (FastModes, assemble_lambda0, lambda0_spectrum,
                                resonance_eigenpairs, verify_coupled_system,
                                weyl_slope)
from nlscurve.scalings import compute_exponents, compute_scalings
from nlscurve.spectrum import alpha_field, coupled_sectors

exps = compute_exponents(2, 3)
V = PotentialField("1/(1+r2)", 2)
sectors = coupled_sectors(ground_state(2, 3, RadialGrid(30.0, 3000)), 3.0)

curve = build_curve(CurveSpec("circle", n=2, radius=0.7012465), 256)
pot = sample_potential(V, curve)
sf = compute_scalings(curve, pot, 0.05, exps)
# the crossing field: one CrossingMode per node, with ᾱ and the overlap
# integrals Q of its pair (Z, W); one FastModes gathers them for every basis
crossing = alpha_field(sf, sectors)
fast = FastModes(sf, crossing)
print(f"crossing frequency ᾱ = {fast.abar[0]:.6f};  "
      f"Q1 = {fast.q1[0]:.4f}, Q2 = {fast.q2[0]:.4f}, Q3 = {fast.q3[0]:.4f}")

eps = 0.05
basis = resonance_eigenpairs(fast, eps, delta=0.5)
print(f"\nwindow of {basis.nu.size} modes around the first nonnegative "
      f"eigenvalue (index {basis.j_eps}):")
print("   j     nu_j")
for j, nu in zip(basis.window, basis.nu):
    print(f"  {j:+3d}   {nu:+.6f}")

slope = weyl_slope(basis)
print(f"\nfitted slope of nu against j: {slope:.5f} "
      f"(= eps * C0 with C0 = {slope / eps:.3f})")

maxres, per_j = verify_coupled_system(basis)
print(f"coupled-system residual: {maxres:.3e} "
      f"(C = residual/eps = {maxres / eps:.3f})")

lam, mass, asym = assemble_lambda0(basis)
vals = np.sort(lambda0_spectrum(basis))
print(f"\nleading quadratic form: asymmetry {asym:.2e}; generalized "
      f"spectrum vs nu_j:")
print("   " + "  ".join(f"{v:+.4f}" for v in vals))
print("   " + "  ".join(f"{v:+.4f}" for v in np.sort(basis.nu)))
print(f"max difference: {np.max(np.abs(vals - np.sort(basis.nu))):.2e} "
      f"(bound O(nu² + eps) = {np.max(basis.nu**2) + eps:.3f})")
