"""Tracing the model-operator branches and the resonance crossing.

At coupling μ the two-component system has a lowest branch η_α starting at
η_0 < 0, flat at α = 0, crossing zero at a unique ᾱ; the zero modes continue
into two branches with curvature 2 + O(μ²).  Above them the essential
spectrum starts at the closed-form threshold τ_α = 1 + α² − |μα|, which stays
safely positive; an inertia count certifies that the three traced branches
are the only eigenvalues below it.  The crossing eigenpair (Z, W) decays
faster than e^{-r} and its slope identity ∂η/∂α = 2ᾱ + 2μ∫ZW is verified
against finite differences.
"""

import numpy as np

from nlscurve.radial import RadialGrid, ground_state
from nlscurve.spectrum import (BOUND_BRANCHES, bound_state_counts,
                               continuum_threshold, crossing_slope_identity,
                               find_alpha_bar, trace_branches)

U = ground_state(2, 3, RadialGrid(30.0, 3000))
alphas = np.linspace(0.0, 2.0, 21)

for mu in (0.0, 0.1):
    branches = trace_branches(U, 3.0, mu, alphas)
    print(f"mu = {mu}:")
    tau = continuum_threshold(alphas, mu)
    print("   alpha      ground   translation   gauge    threshold")
    for i in range(0, alphas.size, 5):
        row = [branches[k].eigenvalues[i]
               for k in ("ground", "translation", "gauge")] + [tau[i]]
        print(f"   {alphas[i]:.2f}    " + "  ".join(f"{v:+8.4f}" for v in row))
    for ell, labels in BOUND_BRANCHES.items():
        counts = bound_state_counts(U, 3.0, mu, alphas, ell)
        print(f"   l={ell}: eigenvalues below the threshold at every alpha: "
              f"{sorted(set(counts.tolist()))} (traced: {len(labels)})")
    mode = find_alpha_bar(U, 3.0, mu)
    num, closed = crossing_slope_identity(mode)
    print(f"   crossing at alpha_bar = {mode.alpha_bar:.6f} "
          f"(mu=0 closed form sqrt(3) = {np.sqrt(3):.6f})")
    print(f"   slope identity: finite differences {num:.6f} vs "
          f"2a+2mu∫ZW = {closed:.6f}")
    print(f"   (Z, W) decay rate {mode.decay_rate:.3f}  (> 1 required)\n")
