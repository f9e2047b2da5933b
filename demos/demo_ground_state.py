"""Ground-state profile and the spectrum of its linearizations.

Solves -ΔU + U = U^p on R^{n-1} for a few (n, p) (Petviashvili's iteration,
then Newton, on the radial grid), prints the closed-form check for (2, 3)
where U = sqrt(2)·sech, and lists the low-lying sector
eigenvalues that drive the whole construction: the single negative
eigenvalue of L_r, the translation kernel in the ℓ=1 sector, and the gauge
kernel of L_i.
"""

import numpy as np

from nlscurve.radial import (RadialGrid, Sector, ground_state, ode_residual,
                             sector_spectrum)

grid = RadialGrid(30.0, 3000)

for n, p in [(2, 3), (3, 3), (4, 2)]:
    U = ground_state(n, p, grid)
    print(f"(n={n}, p={p}):  U(0) = {U.values[0]:.8f}")
    print(f"   discrete ODE residual {ode_residual(U, p):.2e},  "
          f"fitted decay rate {U.decay_rate:.4f}")

U = ground_state(2, 3, grid)
print(f"\nclosed form for (2,3): |U(0) - sqrt(2)| = {abs(U.values[0] - np.sqrt(2)):.2e},"
      f"  max |U - sqrt(2) sech| = "
      f"{np.max(np.abs(U.values - np.sqrt(2) / np.cosh(grid.nodes))):.2e}")

print("\nsector spectra (n=2, p=3):")
for kind, ell, note in [("Lr", 0, "single negative eigenvalue"),
                        ("Lr", 1, "translation kernel"),
                        ("Li", 0, "gauge kernel"),
                        ("Li", 1, "positive")]:
    vals = [v for v, _ in sector_spectrum(Sector(U, 3.0, kind, ell), 3)]
    print(f"   {kind} sector {ell}: {np.round(vals, 6)}   ({note})")

U.to_csv("ground_state.csv")
print("\nwrote ground_state.csv")
