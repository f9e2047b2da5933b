"""Independent oracles used to freeze expected values.

Each oracle is deliberately dumb and separate from the code paths it checks:
collocation instead of shooting, golden-section instead of root finding,
integer arithmetic instead of eigen-solves, closed forms wherever they exist.
"""

import numpy as np
from scipy.integrate import solve_bvp
from scipy.optimize import minimize_scalar


def ground_state_u0_collocation(n, p, r_max=30.0, tol=1e-10):
    """U(0) via solve_bvp collocation (independent of the shooting path)."""
    d = n - 1
    r0 = 1e-8

    def rhs(r, y):
        u, up = y
        return np.vstack([up, u - np.abs(u) ** (p - 1) * u - (d - 1) / r * up])

    def bc(ya, yb):
        # regularity at the origin and exponential decay at r_max
        return np.array([ya[1] - (ya[0] - ya[0] ** p) * r0 / d,
                         yb[1] + (1.0 + (d - 1) / (2 * r_max)) * yb[0]])

    x = np.linspace(r0, r_max, 4000)
    guess_amp = {1: 1.5, 2: 2.2, 3: 4.2}.get(d, 2.0)
    y0 = np.vstack([guess_amp / np.cosh(x) ** (2 / (p - 1)),
                    np.gradient(guess_amp / np.cosh(x) ** (2 / (p - 1)), x)])
    sol = solve_bvp(rhs, bc, x, y0, tol=tol, max_nodes=400000)
    assert sol.success, sol.message
    return float(sol.y[0, 0])


def poschl_teller_levels(lmbda, count=2):
    """Bound-state eigenvalues of -d²/dx² - λ(λ+1)sech²x: -(λ-m)², m=0.."""
    return [-((lmbda - m) ** 2) for m in range(count)]


def reduced_length_stationary_radius(Vfun, theta_over_pm1, bracket):
    """Golden-section stationary point of R ↦ R·V(R)^{θ/(p-1)} (a maximum)."""
    res = minimize_scalar(lambda R: -R * Vfun(R) ** theta_over_pm1,
                          bounds=bracket, method="bounded",
                          options={"xatol": 1e-12})
    return float(res.x)


def constant_coefficient_gap_oracle(k, abar, L, M, wfun, eps_values, delta,
                                    threshold):
    """Distance-to-integer admissibility for the constant-coefficient scan.

    Pure arithmetic: builds the in-window eigenvalue multiset
    ν(m) = (ε²(2πm/L)² - k²ᾱ²)·wfun with sin/cos multiplicity, re-indexes
    around the first nonnegative entry, and applies the gap threshold.
    """
    out = []
    for eps in eps_values:
        vals = []
        for m in range(0, M // 2 + 1):
            nu = (eps**2 * (2 * np.pi * m / L) ** 2 - k**2 * abar**2) * wfun
            vals.append(nu)
            if 0 < m < M / 2:
                vals.append(nu)
        vals = np.sort(np.array(vals))
        j_eps = int(np.searchsorted(vals, 0.0))
        J = int(np.floor(delta**2 / eps))
        window = vals[j_eps - J: j_eps + J + 1]
        min_abs = float(np.min(np.abs(window)))
        out.append(bool(min_abs >= threshold * eps))
    return out


def fourier_symbol_jacobi_circle(h, Vpp, Hcomp, theta, sigma, p, A, L, M):
    """Continuum Fourier symbol of the second-variation operator on a circle.

    Constant coefficients in the plane: the operator diagonalizes per mode m
    with the symbol a·(2πm/L)² plus the zeroth-order block, all divided by
    the h^θ mass; m runs over the M grid modes -(M/2)+1 .. M/2.
    """
    a = h**theta - 2.0 * A**2 * theta / (p - 1.0) * h**sigma
    denom = (p - 1.0) * h**theta - 2.0 * sigma * A**2 * h**sigma
    bracket = (-(p - 1.0) * (3.0 + sigma / theta) * h ** (2 * theta)
               - 16.0 * sigma * theta * A**4 / (p - 1.0) * h ** (2 * sigma)
               + 2.0 * A**2 * (5.0 * sigma + 3.0 * theta) * h ** (theta + sigma)) / denom
    zero_order = (theta / (p - 1.0)) * h ** (-sigma) * Vpp \
        + a * Hcomp**2 + bracket * Hcomp**2
    vals = [(a * (2 * np.pi * m / L) ** 2 + zero_order) / h**theta
            for m in range(-(M // 2) + 1, M // 2 + 1)]
    return np.sort(np.array(vals))
