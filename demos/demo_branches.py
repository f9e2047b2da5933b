"""Tracing the model-operator branches and the resonance crossing.

At coupling μ the two-component system has a lowest branch η_α starting at
η_0 < 0, flat at α = 0, crossing zero at a unique ᾱ; the zero modes continue
into two branches with curvature 2 + O(μ²).  Above them the essential
spectrum starts at the closed-form threshold τ_α = 1 + α² − |μα|, which stays
safely positive; an inertia count certifies that the three traced branches
are the only eigenvalues below it.  The crossing eigenpair (Z, W) decays
like e^{-√τ_ᾱ r}, faster than e^{-r}, and the branch crosses with the
closed-form slope ∂η/∂α = 2ᾱ + 2μ∫ZW (the tests check it against finite
differences).
"""

import numpy as np

from nlscurve.radial import RadialGrid, ground_state
from nlscurve.spectrum import (BOUND_BRANCHES, bound_state_counts,
                               continuum_threshold, coupled_sectors,
                               crossing_slope, find_alpha_bar, trace_branches)

# the coupled ℓ-sectors of the profile, set up once for every μ
sectors = coupled_sectors(ground_state(2, 3, RadialGrid(30.0, 3000)), 3.0)
alphas = np.linspace(0.0, 2.0, 21)

for mu in (0.0, 0.1):
    branches = trace_branches(sectors, mu, alphas)
    print(f"mu = {mu}:")
    tau = continuum_threshold(alphas, mu)
    print("   alpha      ground   translation   gauge    threshold")
    for i in range(0, alphas.size, 5):
        row = [branches[k].eigenvalues[i]
               for k in ("ground", "translation", "gauge")] + [tau[i]]
        print(f"   {alphas[i]:.2f}    " + "  ".join(f"{v:+8.4f}" for v in row))
    for ell, counts in bound_state_counts(sectors, mu, alphas).items():
        print(f"   l={ell}: eigenvalues below the threshold at every alpha: "
              f"{sorted(set(counts.tolist()))} "
              f"(traced: {len(BOUND_BRANCHES[ell])})")
    mode = find_alpha_bar(sectors, mu)
    print(f"   crossing at alpha_bar = {mode.alpha_bar:.6f} "
          f"(mu=0 closed form sqrt(3) = {np.sqrt(3):.6f})")
    print(f"   crossing slope 2a+2mu∫ZW = {crossing_slope(mode):.6f}")
    print(f"   (Z, W) decay rate sqrt(tau) = {mode.decay_rate:.3f}  "
          f"(> 1 required)\n")
