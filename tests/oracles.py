"""Independent oracles used to freeze expected values.

Each oracle is deliberately dumb and separate from the code paths it checks:
shooting and collocation instead of the grid equation, golden-section
instead of root finding, shift-invert Lanczos (ARPACK) instead of inverse
iteration, finite differences instead of Hellmann–Feynman slopes, integer
arithmetic instead of eigen-solves, closed forms wherever they exist.  The
straight-segment curve harness and the sector operator's apply, which the
round-trip checks multiply solutions by, live here too.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_bvp, solve_ivp
from scipy.linalg import cho_solve_banded
from scipy.optimize import minimize_scalar
from scipy.sparse.linalg import LinearOperator, eigsh

from nlscurve.ansatz import (VARSIGMA, AnsatzParams, assemble_ansatz,
                             build_correctors, residual_field)
from nlscurve.errors import ConvergenceError, ValidationError
from nlscurve.geometry import CurveData, sample_potential
from nlscurve.radial import Sector, sector_solve, tridiagonal_apply
from nlscurve.scalings import compute_scalings
from nlscurve.spectrum import _CoupledSector, _band_matvec, _cholesky_below
from nlscurve.tube import build_tube_grid, core_radius, weighted_norm


def straight_segment_curve(L, M, n=2):
    """Periodic straight-segment harness (not a closed curve).

    Useful for manufactured-solution tests: zero curvature, constant frame,
    arc length identified with the first coordinate modulo L.
    """
    sb = np.arange(M) * (L / M)
    positions = np.zeros((M, n))
    positions[:, 0] = sb
    tangents = np.zeros((M, n))
    tangents[:, 0] = 1.0
    frame = np.zeros((M, n - 1, n))
    for j in range(n - 1):
        frame[:, j, j + 1] = 1.0
    curvature = np.zeros((M, n - 1))
    return CurveData(s=sb, L=float(L), positions=positions, tangents=tangents,
                     frame=frame, curvature=curvature)


def budget_mismatch(curve, pot, exps, A_ref, eps_ref, eps_new):
    """Mismatch A -> budget(A)/eps_new - budget(A_ref)/eps_ref, and a bracket top.

    Its root is the phase-speed constant that keeps the total phase variation
    of A_ref over eps_ref when ε becomes eps_new; the root lies in [0, hi].
    """
    target = compute_scalings(curve, pot, A_ref, exps).phase_budget / eps_ref

    def mismatch(A):
        return compute_scalings(curve, pot, A, exps).phase_budget / eps_new - target

    return mismatch, A_ref * eps_new / eps_ref * 2.0 + 1e-12


def ground_state_u0_collocation(n, p, r_max=30.0, tol=1e-10):
    """U(0) via solve_bvp collocation (independent of the shooting oracle)."""
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


def _shoot(a, d, p, r_max, dense=False):
    """Integrate the radial ODE from r≈0 with u(0)=a.

    The integrator is SciPy's Dormand–Prince 8(5,3) pair (``DOP853``) at
    rtol 1e-12, atol 1e-14.  Returns (-1, sol) on overshoot (u crosses zero),
    (+1, sol) on undershoot (u' turns positive while u > 0), (0, sol) if
    integration reaches r_max.  ``sol.sol`` is the dense output when
    ``dense`` is set and None otherwise: the bisection reads only the status.
    """
    r0 = 1e-6
    u0 = a + (a - a**p) * r0**2 / (2 * d)
    du0 = (a - a**p) * r0 / d

    def rhs(r, y):
        u, du = y
        return [du, -(d - 1) / r * du + u - np.sign(u) * np.abs(u) ** p]

    def cross_zero(r, y):
        return y[0]
    cross_zero.terminal = True
    cross_zero.direction = -1

    def turn_up(r, y):
        return y[1]
    turn_up.terminal = True
    turn_up.direction = 1

    sol = solve_ivp(rhs, (r0, r_max), [u0, du0], events=[cross_zero, turn_up],
                    rtol=1e-12, atol=1e-14, dense_output=dense, method="DOP853")
    if sol.t_events[0].size:
        return -1, sol
    if sol.t_events[1].size:
        return +1, sol
    return 0, sol


def shooting_ground_state(n, p, grid):
    """Shooting on U(0) with bisection, independent of the grid equation.

    Returns (a_star, u): the bisected amplitude, an independent high-order
    value of U(0) (√2 for n = 2, p = 3), and the kept trajectory, one dense
    shot at the lower bracket end, sampled on ``grid`` with a_star at r = 0
    and an e^{-r} tail past the point it reached.  Only that shot carries
    dense output; the bisection shots read the over/undershoot status.
    """
    d = n - 1
    a_lo, a_hi = 1.0 + 1e-9, 2.0
    status, _ = _shoot(a_hi, d, p, grid.r_max)
    tries = 0
    while status != -1:
        a_hi *= 2.0
        tries += 1
        if tries > 40:
            raise ConvergenceError("could not bracket the ground state amplitude")
        status, _ = _shoot(a_hi, d, p, grid.r_max)

    for _ in range(80):
        a_mid = 0.5 * (a_lo + a_hi)
        status, _ = _shoot(a_mid, d, p, grid.r_max)
        if status == -1:
            a_hi = a_mid
        else:
            a_lo = a_mid
        if a_hi - a_lo < 1e-15 * a_hi:
            break
    a_star = 0.5 * (a_lo + a_hi)
    _, sol_keep = _shoot(a_lo, d, p, grid.r_max, dense=True)

    r = grid.nodes
    u = np.zeros(grid.m)
    r_reach = sol_keep.t[-1]
    mid = (r > 1e-6) & (r <= r_reach)
    u[mid] = sol_keep.sol(r[mid])[0]
    u[0] = a_star
    tail = r > r_reach
    if tail.any():
        u[tail] = max(u[~tail][-1], 1e-280) * np.exp(-(r[tail] - r_reach))
    return a_star, np.maximum(u, 0.0)


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


def odd_corrector_per_node(curve, pot, sf, U):
    """The odd real corrector solved one row per node and normal direction.

    The reference for ``ansatz.build_correctors``: the ℓ=1 sector solve of
    each node's source [-(2f'²H + ∇V)(h/k)·yU - hkH·U']/k², as the paper
    writes it.  Returns (w_ro, removed) with w_ro (M, d, m) on U's whole
    grid and removed (M, d) each row's removed kernel fraction.
    """
    r = U.grid.nodes
    h, k, fp = sf.h, sf.k, sf.fprime
    Hc, G = curve.curvature, pot.grad_normal
    src = ((-(2.0 * fp[:, None]**2 * Hc + G) * (h / k)[:, None])[..., None]
           * r * U.values
           - ((h * k)[:, None] * Hc)[..., None] * U.derivative(r)) \
        / (k**2)[:, None, None]
    return sector_solve(Sector(U, sf.exps.p, "Lr", 1), src)


def level2_correctors_per_node(curve, pot, sf, U, w_ro):
    """Second-order correctors v⁰ with the sources assembled node by node.

    The reference for ``ansatz.build_correctors``: for every curve node the
    level-2 sources are built on the radial grid from that node's odd
    corrector rows ``w_ro`` (M, d, ny), then each sector is solved with one
    row per node.  Returns (v0_even0, v0_even2, v0_odd, (A, C), B) with the
    sources of node M-1.
    """
    from nlscurve.geometry import periodic_derivative

    p = sf.exps.p
    M, d = curve.M, curve.n - 1
    r = U.grid.nodes
    y = r
    Uv = U.values
    dU = U.derivative(r)
    d2U = np.gradient(dU, y, edge_order=2)
    ny = w_ro.shape[-1]
    h, k, fp = sf.h, sf.k, sf.fprime
    Hc = curve.curvature
    G = pot.grad_normal
    L = curve.L
    hp = periodic_derivative(h, L)
    h2p = periodic_derivative(h, L, 2)
    kp = periodic_derivative(k, L)
    k2p = periodic_derivative(k, L, 2)
    fpp = periodic_derivative(fp, L)
    dH = periodic_derivative(Hc, L)

    dw_ro = periodic_derivative(w_ro, L)              # ∂_s̄ at fixed y
    yU, y2U, y3U = y * Uv, y**2 * Uv, y**3 * Uv
    ydU, y2dU = y * dU, y**2 * dU
    Upm2 = np.where(Uv > 0, Uv ** (p - 2.0), 0.0)

    c_ie = 0.25 * (p - 1.0) * fp * hp
    dc_ie = periodic_derivative(c_ie, L)

    upper = np.triu_indices(d)
    rhs_even0 = np.empty((M, r.size))
    rhs_even2 = np.empty((M, upper[0].size, r.size)) if d >= 2 else None
    rhs_odd = np.empty((M, d, r.size))

    for i in range(M):
        ki, hi, fpi = k[i], h[i], fp[i]
        phi_i = np.zeros((d, r.size))
        dsphi_i = np.zeros((d, r.size))
        phi_i[:, :ny] = w_ro[i]
        dsphi_i[:, :ny] = dw_ro[i]
        dphi_i = np.gradient(phi_i, y, axis=1, edge_order=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            phi_over_y = np.where(y > 0, phi_i / np.maximum(y, 1e-300), 0.0)
        phi_over_y[:, 0] = dphi_i[:, 0]

        A = np.zeros(r.size)
        C = np.zeros((d, d, r.size))

        # <H,z>²-type quadratic sources and the Hessian of V
        C += np.einsum("m,l,y->mly", Hc[i], Hc[i],
                       3.0 * fpi**2 * hi * y2U / ki**2 + hi * ydU)
        C += 0.5 * (hi / ki**2) * np.einsum("ml,y->mly", pot.hess_normal[i], y2U)
        # <H,z>·w_ro and <∇V,z>·w_ro
        vec = 2.0 * fpi**2 * Hc[i] + G[i]
        Cadd = np.einsum("m,ly->mly", vec / ki, y * phi_i)
        C += 0.5 * (Cadd + Cadd.transpose(1, 0, 2))
        # Σ_l H^l ∂_l w_ro
        A += ki * np.einsum("j,jy->y", Hc[i], phi_over_y)
        Cadd = np.einsum("l,jy->ljy", Hc[i], ki * (dphi_i - phi_over_y))
        C += 0.5 * (Cadd + Cadd.transpose(1, 0, 2))
        # -f''·w_ie - 2f'·∂_s̄ w_ie
        A += (-fpp[i] * c_ie[i] * y2U / ki**2
              - 2.0 * fpi * (dc_ie[i] * y2U / ki**2
                             + c_ie[i] * kp[i] * y**3 * dU / ki**3))
        # -(hU(kz))'' at fixed z
        A += -(h2p[i] * Uv
               + (2.0 * hp[i] * kp[i] + hi * k2p[i]) * ydU / ki
               + hi * kp[i]**2 * y**2 * d2U / ki**2)
        # quadratic corrector feedback through the nonlinearity
        C += np.einsum("my,ly->mly", phi_i, phi_i) * \
            (-0.5 * p * (p - 1.0) * hi ** (p - 2.0) * Upm2)
        A += -0.5 * (p - 1.0) * hi ** (p - 2.0) * Upm2 * \
            c_ie[i] ** 2 * y**4 * Uv**2 / ki**4

        # trace of C folds into the ℓ=0 sector; traceless part solves at ℓ=2
        tr = np.einsum("mmy->y", C)
        rhs_even0[i] = -(A + tr / d) / ki**2
        if d >= 2:
            Ctl = C - np.einsum("ml,y->mly", np.eye(d), tr / d)
            rhs_even2[i] = -Ctl[upper] / ki**2

        # odd imaginary source
        B = np.zeros((d, r.size))
        X = 2.0 * fpp[i] * hi * Uv + 4.0 * fpi * (hp[i] * Uv + hi * kp[i] * ydU / ki)
        B += np.einsum("j,y->jy", Hc[i], X * y / ki)
        B += 2.0 * fpi * (dsphi_i + kp[i] * (y / ki) * dphi_i) + fpp[i] * phi_i
        B += np.einsum("j,y->jy", dH[i], fpi * hi * yU / ki)
        B += np.einsum("j,y->jy", Hc[i], c_ie[i] * (2.0 * yU + y2dU) / ki)
        B += np.einsum("j,y->jy", Hc[i], 2.0 * fpi**2 * c_ie[i] * y3U / ki**3)
        B += np.einsum("j,y->jy", G[i], c_ie[i] * y3U / ki**3)
        B += -(p - 1.0) * hi ** (p - 2.0) * Upm2 * c_ie[i] * (y2U / ki**2) * phi_i
        rhs_odd[i] = -B / ki**2

    v0_even0 = sector_solve(Sector(U, p, "Lr", 0), rhs_even0)[0][:, :ny]
    v0_even2 = np.zeros((M, d, d, ny))
    if d >= 2:
        sol2 = sector_solve(Sector(U, p, "Lr", 2), rhs_even2)[0][..., :ny]
        v0_even2[:, upper[0], upper[1]] = sol2
        v0_even2[:, upper[1], upper[0]] = sol2
    v0_odd = sector_solve(Sector(U, p, "Li", 1), rhs_odd)[0][..., :ny]
    return v0_even0, v0_even2, v0_odd, (A, C), B


@dataclass(frozen=True)
class CoupledSectorOperator:
    """The coupled ℓ-sector operator (Lr-sector + α², μα; μα, Li-sector + α²);
    the profile it is applied to sets the dimension."""

    alpha: float
    mu: float
    ell: int
    p: float


def coupled_bands(op, U):
    """(bands, scalar) of the coupled sector operator: the interleaved
    pentadiagonal in lower band storage that spectrum's inverse iteration
    solves with (spectrum._CoupledSector), and its L_r radial.Sector, whose
    φ map both components share."""
    sector = _CoupledSector(U, op.p, op.ell)
    return sector.bands(op.alpha, op.mu), sector.lr


def sector_floors(U, p, ell):
    """Lowest eigenvalues (a, b) of the scalar L_r and L_i ℓ-sectors,
    unshifted: the floors under spectrum's Cholesky shift."""
    return _CoupledSector(U, p, ell).floors


def coupled_spectrum(op, U, count, floors=None):
    """Lowest ``count`` eigenpairs of the coupled sector operator.

    Shift-invert Lanczos (ARPACK) with the shift SHIFT_MARGIN below the lower
    bound of the spectrum of spectrum._cholesky_below, built from the scalar
    ``floors`` of sector_floors (when omitted, read off the one coupled
    sector that the call sets up for its bands).  The banded Cholesky
    factorization of the shifted pentadiagonal matrix checks the bound
    (ConvergenceError if it fails) and serves every inverse application.  The Lanczos start vector is fixed, so identical calls
    return identical arrays.  Returns a list of (eigenvalue, u_values,
    v_values) with the two-component eigenfunction on the full radial grid,
    normalized to ∫(u²+v²) r^{d-1}dr = 1.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    sector = _CoupledSector(U, op.p, op.ell)
    if floors is None:
        floors = sector.floors
    bands = sector.bands(op.alpha, op.mu)
    sigma, chol = _cholesky_below(bands, floors, op.alpha, op.mu)
    n = bands.shape[1]
    K = LinearOperator((n, n), matvec=lambda x: _band_matvec(bands, x),
                       dtype=float)
    OPinv = LinearOperator(
        (n, n), matvec=lambda x: cho_solve_banded((chol, True), x,
                                                  check_finite=False),
        dtype=float)
    # a fixed start vector: eigsh would draw a fresh random one per call; a
    # single eigenvalue sits alone near the shift, so 4 Lanczos vectors do
    vals, vecs = eigsh(K, k=count, sigma=sigma, which="LM", OPinv=OPinv,
                       v0=np.ones(n), ncv=4 if count == 1 else None)
    # one Rayleigh quotient per vector: squares the eigenvalue accuracy
    vals = np.einsum("ij,ij->j", vecs, _band_matvec(bands, vecs)) \
        / np.einsum("ij,ij->j", vecs, vecs)
    order = np.argsort(vals)
    return [(float(vals[j]), *sector.profiles(vecs[:, j])) for j in order]


def eigenvalue_at(U, p, mu, alpha, ell=0, index=0):
    """Single eigenvalue of the coupled sector operator (lowest by default)."""
    return coupled_spectrum(CoupledSectorOperator(alpha, mu, ell, p),
                            U, index + 1)[index][0]


def eigenvalue_derivative(U, p, mu, alpha, ell=0, index=0, h_alpha=1e-3):
    """Richardson-extrapolated centered dλ/dα (branches are simple, smooth)."""
    lam = lambda a: eigenvalue_at(U, p, mu, a, ell, index)
    d1 = (lam(alpha + h_alpha) - lam(alpha - h_alpha)) / (2 * h_alpha)
    d2 = (lam(alpha + h_alpha / 2) - lam(alpha - h_alpha / 2)) / h_alpha
    return float((4 * d2 - d1) / 3)


def eigenvalue_second_derivative(U, p, mu, alpha, ell=0, index=0, h_alpha=1e-3):
    """Richardson-extrapolated centered d²λ/dα²."""
    lam = lambda a: eigenvalue_at(U, p, mu, a, ell, index)
    c = lam(alpha)
    dd1 = (lam(alpha + h_alpha) - 2 * c + lam(alpha - h_alpha)) / h_alpha**2
    dd2 = (lam(alpha + h_alpha / 2) - 2 * c + lam(alpha - h_alpha / 2)) / (h_alpha / 2) ** 2
    return float((4 * dd2 - dd1) / 3)


def decay_rate_windowed(r, w, dim):
    """Exponential rate fitted where the values sit above the solver noise.

    Eigenvector tails bottom out near 1e-14 of the peak; the fit window is
    the decade band [1e-11, 1e-4] of the peak, with the polynomial prefactor
    r^{-(d-1)/2} removed.
    """
    peak = np.max(w)
    sel = (w > 1e-11 * peak) & (w < 1e-4 * peak) & (r > 1.0)
    if sel.sum() < 10:
        return 0.0
    y = np.log(w[sel]) + 0.5 * (dim - 1) * np.log(r[sel])
    return float(-np.polyfit(r[sel], y, 1)[0])


def bound_state_counts_per_sector(U, p, mu, alpha_grid, ell):
    """Number of eigenvalues of one ℓ-sector below τ_α, for every α.

    The block LDLᵀ recurrence of spectrum.bound_state_counts run on a single
    sector, with one lane per α: the count is the number of negative
    eigenvalues of the 2×2 pivots.
    """
    m = np.abs(mu * np.asarray(alpha_grid, dtype=float))
    lr, li = Sector(U, p, "Lr", ell), Sector(U, p, "Li", ell)
    dr, er, di, ei = lr.diag, lr.off, li.diag, li.off
    # block A_i = (dr_i + m − 1, m; m, di_i + m − 1), B = diag(er, ei)
    shift = m - 1.0
    ee, ff, ef = er**2, ei**2, er * ei
    a, b, c = dr[0] + shift, di[0] + shift, m
    dets = np.empty((dr.size, m.size))
    leads = np.empty((dr.size, m.size))
    for i in range(dr.size):
        if i:
            q = 1.0 / dets[i - 1]
            a, b, c = (dr[i] + shift - ee[i - 1] * q * b,
                       di[i] + shift - ff[i - 1] * q * a,
                       m + ef[i - 1] * q * c)
        dets[i] = a * b - c * c
        leads[i] = a
    return np.sum((dets < 0) + 2 * ((dets > 0) & (leads < 0)), axis=0)


def apply_sector(sector, prof):
    """Apply a radial.Sector to a profile (for round-trip checks)."""
    phi = sector.to_phi(prof.values)
    return prof.with_values(sector.from_phi(tridiagonal_apply(sector.bands, phi)))


def kernel_projected(sector, values):
    """Nodal ``values`` without their weighted-norm component along the
    sector's kernel (``Sector.kernel``), zero off the active nodes."""
    kernel, b = sector.kernel, sector.to_phi(values)
    if kernel is not None:
        b = b - kernel * (kernel @ b)
    return sector.from_phi(b)


def lr_sector_oracle_error(U, p, ell):
    """Sup error of the ℓ = 1 or 2 L_r sector solve against its closed form.

    For a harmonic polynomial P of degree ℓ, Δ(PU) = PΔU + 2ℓ(P/r)U′, so
    L_r(r^ℓU) = −(p−1)r^ℓU^p − 2ℓr^{ℓ−1}U′.  The solve is the minimal-norm
    one, so r^ℓU first loses its component along the sector's kernel (the
    translations, for ℓ = 1).
    """
    r = U.grid.nodes
    sector = Sector(U, p, "Lr", ell)
    sol, _ = sector_solve(sector, -(p - 1.0) * r**ell * U.values**p
                          - 2.0 * ell * r ** (ell - 1) * U.derivative(r))
    return float(np.max(np.abs(sol - kernel_projected(sector,
                                                      r**ell * U.values))))


def core_mask(grid):
    """The nodes (N_s, *z_shape) with |z| up to their own node's
    ``core_radius``, where the cutoff is identically 1."""
    radius = core_radius(grid.K, grid.eps, grid.delta_bar, grid.dz)
    return grid.znorm[None] <= radius.reshape(-1, *([1] * grid.d))


def core_window(grid):
    """The z-window inside every node's core: min ``core_radius``."""
    return float(np.min(core_radius(grid.K, grid.eps, grid.delta_bar,
                                    grid.dz)))


def residual_norms_full_grid(curve_for, V, phase_speed, exps, U, eps_list,
                             levels=(0, 1, 2), base_M=256, delta_bar=0.25,
                             dz_factor=16):
    """The residual study's norms, in its record order, from full tube grids
    out to the cutoff ball at every ε.  Each is measured up to the largest
    |z| that lies in the core mask of every node at every ε, read off the
    per-node masks rather than from the window formula."""
    curve = curve_for(int(np.ceil(base_M / max(eps_list))))
    pot = sample_potential(V, curve)
    sf = compute_scalings(curve, pot, phase_speed, exps)
    correctors = build_correctors(curve, pot, sf, U)
    grids = [build_tube_grid(curve, V, sf, eps, delta_bar=delta_bar,
                             dz_factor=dz_factor) for eps in eps_list]
    window = min(float(np.min(np.where(core_mask(g), g.znorm, 0.0)
                              .reshape(g.n_s, -1).max(axis=1)))
                 for g in grids)
    norms = []
    for grid in grids:
        for level in levels:
            ans = assemble_ansatz(grid, curve, sf, U, correctors,
                                  AnsatzParams(level=level))
            norms.append(weighted_norm(residual_field(ans), grid,
                                       VARSIGMA * sf.k, window))
    return norms
