"""Spectral-gap selection of ε for the fast-mode quadratic form.

The fast Fourier modes along the curve produce eigenvalues that sweep
through zero as ε varies; ε is admissible when the leading quadratic form
keeps a gap of size threshold·ε.  On a constant-coefficient circle the
admissible set is pure arithmetic — the distance from kᾱL/(2πε) to the
integers — and the scan must reproduce it exactly.
"""

import numpy as np

from nlscurve.geometry import CurveSpec, PotentialField, build_curve, sample_potential
from nlscurve.radial import RadialGrid, ground_state
from nlscurve.resonance import FastModes, gap_scan, gap_scan_oracle, q_integrals
from nlscurve.scalings import compute_exponents, compute_scalings
from nlscurve.spectrum import alpha_field

exps = compute_exponents(2, 3)
V = PotentialField("1/(1+r2)", 2)
U = ground_state(2, 3, RadialGrid(30.0, 3000))

curve = build_curve(CurveSpec("circle", n=2, radius=2 ** -0.5), 256)
pot = sample_potential(V, curve)
sf = compute_scalings(curve, pot, 0.0, exps)
abar, modes = alpha_field(sf, U)
# the fast-mode problem of (sf, ᾱ, Q), built once for the scan and the oracle
fast = FastModes(sf, abar, q_integrals(modes))

eps_grid = np.linspace(0.08, 0.02, 61)
records = gap_scan(fast, eps_grid, delta=0.3, threshold=0.1)
oracle = gap_scan_oracle(fast, eps_grid, delta=0.3, threshold=0.1)

print("eps       min|eig|    admissible   oracle")
for r, o in zip(records, oracle):
    mark = "ok" if r["admissible"] == o["admissible"] else "MISMATCH"
    print(f"{r['eps']:.4f}   {r['min_abs_eigenvalue']:.5f}      "
          f"{str(r['admissible']):5}      {str(o['admissible']):5}  {mark}")

n_adm = sum(r["admissible"] for r in records)
print(f"\nadmissible: {n_adm}/{len(records)}; "
      f"scan equals the arithmetic oracle: "
      f"{all(r['admissible'] == o['admissible'] for r, o in zip(records, oracle))}")
