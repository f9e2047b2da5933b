"""Spectrum of the coupled two-component model operator and its branches.

Fourier reduction of the model linearization along the curve leaves, for
each transverse frequency α and coupling μ = 2f̂/k̂, the system on R^{n-1}

    -Δu + (1 + α²)u - pU^{p-1}u + μα v = λ u,
    -Δv + (1 + α²)v -  U^{p-1}v + μα u = λ v.

Its first eigenvalue branch η_α starts negative, is simple and increasing,
and crosses zero at a unique ᾱ whose eigenfunction pair (Z, W) decays faster
than e^{-r}; the second branch σ_α starts at zero (translations (∂U, 0) and
the gauge mode (0, U)) with zero slope and positive curvature.  Away from
the core U vanishes and the coupling matrix has eigenvalues ±μα, so the
essential spectrum starts at exactly τ_α = 1 + α² − |μα|; τ_α stays away
from zero, and it is given in closed form, not traced: on a bounded radial
box everything above it is discretized continuum whose lowest level depends
on r_max.  This module discretizes the system sector-by-sector, traces the
bound branches in α with eigenvector-overlap matching, certifies by an
inertia count that no other eigenvalue lies below τ_α, locates ᾱ, and
builds the second-order α-corrections of the eigenfunctions by
kernel-projected sector solves.

The scalar-sector floors and the α = μ = 0 bands of a sector depend on
(U, p, ℓ) only, so branch tracing and the crossing field build them once and
only update the diagonal (+α²) and the coupling band (μα) per point.  A cold
eigensolve (the first α of a branch, each Newton step of find_alpha_bar,
which also solves the first μ of a crossing field, and coupled_spectrum's
other callers) is banded shift-invert Lanczos with the shift just under a
rigorous lower bound of the spectrum built from those floors.  Every later
point is a continuation: inverse iteration from the neighbouring
eigenvector, with the Rayleigh quotient as the eigenvalue.  The
lowest branch of a sector keeps the banded Cholesky factor at the rigorous
shift, which certifies the shift and makes the limit the lowest eigenpair;
the gauge branch, which is not the lowest, is shifted to its predicted
eigenvalue through a banded LU, and the overlap floor and the inertia
count bound_state_counts guard it.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import (LinAlgError, cho_solve_banded, cholesky_banded,
                          eigh_tridiagonal)
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.linalg import LinearOperator, eigsh

from .errors import ValidationError, BranchTrackingError, ConvergenceError
from .geometry import freeze_arrays, readonly_view
from .radial import (SectorOperator, lowest_eigenpairs, sector_matrix,
                     sector_solve)

# distance of the shift-invert shift below the coupled spectrum's lower bound
SHIFT_MARGIN = 1e-2
# relative gap in the sorted μ(s̄) that separates two crossing solves
MU_GROUP_TOL = 1e-12
# inverse iteration stops once a step moves the unit vector by less than this
INVERSE_ITERATION_TOL = 1e-10
INVERSE_ITERATION_STEPS = 100


def sphere_area(d):
    """|S^{d-1}|; d = 1 counts the two half-lines."""
    from math import gamma, pi
    if d == 1:
        return 2.0
    return 2 * pi ** (d / 2) / gamma(d / 2)


@dataclass(frozen=True)
class CoupledSectorOperator:
    """Two-component sector operator with frequency shift and coupling.

    Blocks: (Lr-sector + α², μα; μα, Li-sector + α²).
    """

    alpha: float
    mu: float
    ell: int
    dim: int
    p: float

    def components(self):
        op_r = SectorOperator("Lr", self.ell, self.alpha**2, self.dim, self.p)
        op_i = SectorOperator("Li", self.ell, self.alpha**2, self.dim, self.p)
        return op_r, op_i


def coupled_bands(op, U):
    """Symmetric banded storage of the coupled sector operator.

    The two components are interleaved node-wise, (u_0, v_0, u_1, v_1, ...),
    which makes the operator pentadiagonal: the scalar-sector similarity
    weight is shared by both blocks, so the coupling stays μα·Identity.
    Returns (bands [lower form, 3 x 2*nact], weight, idx).
    """
    op_r, op_i = op.components()
    diag_r, off_r, weight, idx = sector_matrix(op_r, U)
    diag_i, off_i, _, _ = sector_matrix(op_i, U)
    nact = diag_r.size
    bands = np.zeros((3, 2 * nact))
    bands[0, 0::2] = diag_r
    bands[0, 1::2] = diag_i
    bands[1, 0::2] = op.mu * op.alpha
    bands[2, 0:-2:2] = off_r
    bands[2, 1:-2:2] = off_i
    return bands, weight, idx


def _band_matvec(bands, x):
    """Symmetric matrix in lower band storage times x of shape (n,) or (n, k)."""
    b = bands.reshape(bands.shape + (1,) * (x.ndim - 1))
    y = b[0] * x
    for lag in range(1, bands.shape[0]):
        y[lag:] += b[lag, :-lag] * x[:-lag]
        y[:-lag] += b[lag, :-lag] * x[lag:]
    return y


def sector_floors(U, p, ell):
    """Lowest eigenvalues (a, b) of the scalar L_r and L_i ℓ-sectors, unshifted.

    They depend on (U, p, ℓ) only, so one pair serves every α and μ of a
    coupled eigensolve in that sector.  The ℓ = 0 L_r floor is η₀ of
    _solve_crossing, to round-off as sector_spectrum gives it; the others
    only place the shift SHIFT_MARGIN below the spectrum, for which LAPACK's
    default bisection suffices.
    """
    floors = []
    for kind in ("Lr", "Li"):
        diag, off, _, _ = sector_matrix(SectorOperator(kind, ell, 0.0, U.dim, p), U)
        if (kind, ell) == ("Lr", 0):
            floors.append(float(lowest_eigenpairs(diag, off, 1)[0][0]))
        else:
            floors.append(float(eigh_tridiagonal(
                diag, off, eigvals_only=True, select="i", select_range=(0, 0))[0]))
    return tuple(floors)


def _cholesky_below(bands, floors, alpha, mu):
    """(σ, banded Cholesky factor of bands − σ), σ SHIFT_MARGIN under the
    lower bound of the coupled spectrum (coupled_spectrum); ConvergenceError
    if σ is not below the spectrum."""
    a, b = floors
    sigma = (alpha**2 + 0.5 * (a + b) - np.hypot(0.5 * (a - b), mu * alpha)
             - SHIFT_MARGIN)
    shifted = bands.copy()
    shifted[0] -= sigma
    try:
        return sigma, cholesky_banded(shifted, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise ConvergenceError(
            f"shift {sigma:.6g} is not below the coupled spectrum: {exc}") from exc


def _profiles(phi, weight, idx, m):
    """(u, v) on the full radial grid from the interleaved φ = √w·(u, v).

    Normalized to ∫(u²+v²) r^{d-1}dr = 1, with the larger component just off
    the first active node positive.
    """
    sqrtw = np.sqrt(weight)
    u = phi[0::2] / sqrtw
    v = phi[1::2] / sqrtw
    nrm = np.sqrt(np.sum((u**2 + v**2) * weight))
    ufull = np.zeros(m)
    vfull = np.zeros(m)
    ufull[idx], vfull[idx] = u / nrm, v / nrm
    lead = ufull[idx[0] + 1] if abs(ufull[idx[0] + 1]) > abs(vfull[idx[0] + 1]) \
        else vfull[idx[0] + 1]
    if lead < 0:
        ufull, vfull = -ufull, -vfull
    return ufull, vfull


def coupled_spectrum(op, U, count, floors=None):
    """Lowest ``count`` eigenpairs of the coupled sector operator.

    Shift-invert Lanczos with the shift SHIFT_MARGIN below a lower bound of
    the spectrum.  The interleaved blocks are the scalar tridiagonals
    T_r + α² and T_i + α², coupled by μα·Identity, so for a unit vector (x, y)
    the Rayleigh quotient is at least α² + a|x|² + b|y|² − 2|μα||x||y|, with
    a = λ_min(T_r) and b = λ_min(T_i) the unshifted ``floors`` of
    sector_floors (computed here when omitted).  Minimizing over |x|² + |y|² = 1
    gives λ_min ≥ α² + (a+b)/2 − hypot((a−b)/2, μα), which is exact at μα = 0
    and close otherwise, so 1/(λ − shift) isolates the lowest eigenvalues.
    The banded Cholesky factorization of the shifted pentadiagonal matrix
    checks the bound (ConvergenceError if it fails) and serves every inverse
    application.  The Lanczos start vector is fixed, so identical calls
    return identical arrays.  Returns a list of (eigenvalue, u_values,
    v_values) with the two-component eigenfunction on the full radial grid,
    normalized to ∫(u²+v²) r^{d-1}dr = 1.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    if floors is None:
        floors = sector_floors(U, op.p, op.ell)
    bands, weight, idx = coupled_bands(op, U)
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
    return [(float(vals[j]), *_profiles(vecs[:, j], weight, idx, U.grid.m))
            for j in order]


class _CoupledSector:
    """The coupled ℓ-sector of a fixed profile, ready for any (α, μ).

    The scalar floors and the α = μ = 0 bands are built once; a point (α, μ)
    only adds α² to the diagonal and sets the coupling band to μα.
    """

    def __init__(self, U, p, ell):
        self.U, self.p, self.ell = U, p, ell
        self.floors = sector_floors(U, p, ell)
        self.bands0, self.weight, self.idx = coupled_bands(
            CoupledSectorOperator(0.0, 0.0, ell, U.dim, p), U)

    def bands(self, alpha, mu):
        bands = self.bands0.copy()
        bands[0] += alpha**2
        bands[1, 0::2] = mu * alpha
        return bands

    def cold(self, alpha, mu, count):
        """coupled_spectrum at (α, μ): (λ, u, v, φ) with φ = √w·(u, v)."""
        pairs = coupled_spectrum(CoupledSectorOperator(
            alpha, mu, self.ell, self.U.dim, self.p), self.U, count, self.floors)
        sqrtw = np.sqrt(self.weight)
        out = []
        for lam, u, v in pairs:
            phi = np.empty(self.bands0.shape[1])
            phi[0::2], phi[1::2] = u[self.idx] * sqrtw, v[self.idx] * sqrtw
            out.append((lam, u, v, phi))
        return out

    def profiles(self, phi):
        return _profiles(phi, self.weight, self.idx, self.U.grid.m)


def _slopes(U, u, v, alpha, mu):
    """Hellmann–Feynman (∂λ/∂α, ∂λ/∂μ) of an eigenpair (u, v) at (α, μ).

    The operator depends on α through α² + μα·C and on μ through μα·C, with
    C the coupling, so ∂λ/∂α = 2α + 2μ∫uv and ∂λ/∂μ = 2α∫uv for the
    normalized pair.
    """
    r = U.grid.nodes
    w = r ** (U.dim - 1)
    mass = np.trapezoid((u**2 + v**2) * w, r)
    uv = np.trapezoid(u * v * w, r)
    return 2.0 * alpha + 2.0 * mu * uv / mass, 2.0 * alpha * uv / mass


def _lu_solver(bands, shift):
    """x ↦ (bands − shift)⁻¹x through LAPACK's banded LU, for any shift that
    is not an eigenvalue to round-off."""
    n = bands.shape[1]
    ab = np.zeros((7, n))     # general band storage, kl = ku = 2, 2 fill rows
    ab[4] = bands[0] - shift
    ab[3, 1:] = ab[5, :-1] = bands[1, :-1]
    ab[2, 2:] = ab[6, :-2] = bands[2, :-2]
    lu, piv, info = dgbtrf(ab, 2, 2)
    if info != 0:
        raise ConvergenceError(f"shift {shift:.6g} is an eigenvalue to round-off")
    return lambda x: dgbtrs(lu, 2, 2, x, piv)[0]


def _warm_pair(sector, alpha, mu, phi, near=None):
    """Eigenpair (λ, unit φ) at (α, μ) by inverse iteration from φ.

    With ``near`` None it is the lowest eigenpair: the banded Cholesky factor
    at the rigorous shift of coupled_spectrum both certifies that the shift
    lies below the spectrum and makes the lowest eigenvector dominant.
    Otherwise the shift is ``near`` and the limit is the eigenpair nearest
    it, through a banded LU.  λ is the Rayleigh quotient of the limit.
    """
    bands = sector.bands(alpha, mu)
    if near is None:
        _, chol = _cholesky_below(bands, sector.floors, alpha, mu)
        solve = lambda x: cho_solve_banded((chol, True), x, check_finite=False)
    else:
        solve = _lu_solver(bands, near)
    x = phi / np.linalg.norm(phi)
    for _ in range(INVERSE_ITERATION_STEPS):
        y = solve(x)
        y /= np.linalg.norm(y) if y @ x > 0 else -np.linalg.norm(y)
        step, x = np.linalg.norm(y - x), y
        if step < INVERSE_ITERATION_TOL:
            return float(x @ _band_matvec(bands, x)), x
    raise ConvergenceError(f"inverse iteration at alpha={alpha:.6g} did not "
                           "converge")


@dataclass(frozen=True)
class SpectralBranch:
    """One eigenvalue branch over an α grid at fixed μ (immutable)."""

    label: str
    mu: float
    alphas: np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions: tuple  # per α: (u_values, v_values)

    def __post_init__(self):
        freeze_arrays(self)
        object.__setattr__(self, "eigenfunctions", tuple(
            (readonly_view(u), readonly_view(v)) for u, v in self.eigenfunctions))


# the bound branches of each traced sector, in ascending order at α = 0
BOUND_BRANCHES = {0: ("ground", "gauge"), 1: ("translation",)}


def trace_branches(U, p, mu, alpha_grid, overlap_floor=0.5):
    """Trace the bound branches of the coupled system over an ascending α grid.

    Returns a dict of SpectralBranch, per sector as in BOUND_BRANCHES:
      'ground'       η_α: lowest ℓ=0 branch (simple, increasing, crosses 0),
      'gauge'        σ_α continuation of (0, U): next ℓ=0 branch,
      'translation'  σ_α continuation of (∂U, 0): lowest ℓ=1 branch.

    The third branch τ_α is the continuum threshold (continuum_threshold);
    bound_state_counts certifies that nothing else lies below it.  The first
    α is a cold coupled_spectrum; each later α continues every branch from
    its eigenvector at the previous α (_warm_pair), the lowest branch of a
    sector at the rigorous shift and the gauge branch at its eigenvalue
    predicted from the Hellmann–Feynman slope.  Once the gauge value is not
    below τ_α, that α and every later one take the second eigenpair of a
    cold coupled_spectrum.  An overlap between consecutive eigenvectors
    below ``overlap_floor`` raises.
    """
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    if alpha_grid.size < 2 or np.any(np.diff(alpha_grid) <= 0) or alpha_grid[0] < 0:
        raise ValidationError("alpha grid must be ascending from 0")

    out = {}
    for ell, labels in BOUND_BRANCHES.items():
        sector = _CoupledSector(U, p, ell)
        cold = sector.cold(alpha_grid[0], mu, len(labels))
        for index, (lam, u, v, phi) in enumerate(cold):
            lams, funcs = [lam], [(u, v)]
            unbound = False
            for prev, alpha in zip(alpha_grid[:-1], alpha_grid[1:]):
                if not unbound:
                    near = None if index == 0 else \
                        lam + _slopes(U, u, v, prev, mu)[0] * (alpha - prev)
                    lam, new = _warm_pair(sector, alpha, mu, phi, near)
                    # not a bound state: the branch has left them, or the
                    # prediction found a box mode
                    unbound = near is not None and \
                        lam >= continuum_threshold(alpha, mu)
                if unbound:
                    # take the second eigenpair, as a cold trace does, here
                    # and at every later α
                    lam, _, _, new = sector.cold(alpha, mu, 2)[1]
                overlap = abs(float(new @ phi))
                if overlap < overlap_floor:
                    raise BranchTrackingError("branch tracking ambiguous",
                                              alpha, overlap)
                phi = new
                u, v = sector.profiles(phi)
                lams.append(lam)
                funcs.append((u, v))
            label = labels[index]
            out[label] = SpectralBranch(label=label, mu=mu, alphas=alpha_grid,
                                        eigenvalues=np.array(lams),
                                        eigenfunctions=funcs)
    return out


def continuum_threshold(alpha, mu):
    """τ_α = 1 + α² − |μα|, the bottom of the coupled essential spectrum.

    Where U has decayed the sector operator is -Δ + 1 + α² plus the coupling
    matrix (0, μα; μα, 0), whose eigenvalues are ±μα.
    """
    alpha = np.asarray(alpha, dtype=float)
    return 1.0 + alpha**2 - np.abs(mu * alpha)


def bound_state_counts(U, p, mu, alpha_grid, ell):
    """Number of eigenvalues of the ℓ-sector below τ_α, for every α at once.

    Sylvester's law of inertia: the interleaved pentadiagonal is block
    tridiagonal in 2×2 node blocks, and its block LDLᵀ factorization
    K − τ_α = L·D·Lᵀ is a congruence, so the count is the number of negative
    eigenvalues of the 2×2 pivots D_i = A_i − B D_{i−1}⁻¹ B.  Since
    α² − τ_α = |μα| − 1, the pivots depend on α through |μα| only, and the
    recurrence runs over the nodes with one lane per α.  A zero pivot (τ_α an
    eigenvalue to round-off) leaves the count undefined: ConvergenceError.
    """
    m = np.abs(mu * np.asarray(alpha_grid, dtype=float))
    dr, er, _, _ = sector_matrix(SectorOperator("Lr", ell, 0.0, U.dim, p), U)
    di, ei, _, _ = sector_matrix(SectorOperator("Li", ell, 0.0, U.dim, p), U)
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
    if not np.all(np.isfinite(dets)) or np.any(dets == 0.0):
        raise ConvergenceError("a pivot of the inertia count vanished: the "
                               "threshold is an eigenvalue to round-off")
    # a 2×2 pivot has one negative eigenvalue when det < 0, two when det > 0
    # and its leading entry is negative
    return np.sum((dets < 0) + 2 * ((dets > 0) & (leads < 0)), axis=0)


def eigenvalue_at(U, p, mu, alpha, ell=0, index=0):
    """Single eigenvalue of the coupled sector operator (lowest by default)."""
    return coupled_spectrum(CoupledSectorOperator(alpha, mu, ell, U.dim, p),
                            U, index + 1)[index][0]


def eigenvalue_derivative(U, p, mu, alpha, ell=0, index=0, h_alpha=1e-3):
    """Richardson-extrapolated centered dλ/dα (branches are simple, smooth)."""
    lam = lambda a: eigenvalue_at(U, p, mu, a, ell, index)
    d1 = (lam(alpha + h_alpha) - lam(alpha - h_alpha)) / (2 * h_alpha)
    d2 = (lam(alpha + h_alpha / 2) - lam(alpha - h_alpha / 2)) / h_alpha
    return float((4 * d2 - d1) / 3)


def eigenvalue_second_derivative(U, p, mu, alpha, ell=0, index=0, h_alpha=1e-3):
    lam = lambda a: eigenvalue_at(U, p, mu, a, ell, index)
    c = lam(alpha)
    dd1 = (lam(alpha + h_alpha) - 2 * c + lam(alpha - h_alpha)) / h_alpha**2
    dd2 = (lam(alpha + h_alpha / 2) - 2 * c + lam(alpha - h_alpha / 2)) / (h_alpha / 2) ** 2
    return float((4 * dd2 - dd1) / 3)


@dataclass(frozen=True)
class CrossingMode:
    """The zero crossing of the ground branch: ᾱ and its eigenpair (Z, W).

    ``u_values``/``v_values`` are the real/imaginary profile components on
    the radial grid, normalized so ∫(Z² + W²) dy = 1 including the angular
    volume factor; decay_rate is the fitted exponential rate of |Z| + |W|.
    Immutable: alpha_field hands one mode to every node of a μ group.
    """

    alpha_bar: float
    u_values: np.ndarray
    v_values: np.ndarray
    eta_residual: float
    decay_rate: float
    U: object
    mu: float
    p: float

    def __post_init__(self):
        freeze_arrays(self)


def find_alpha_bar(U, p, mu, tol=1e-8):
    """Safeguarded Newton for the unique ᾱ with η_ᾱ = 0 in the ℓ=0 sector.

    A cold search (_solve_crossing without a start): Newton from √(−η₀),
    one coupled_spectrum eigensolve per step.  alpha_field continues it
    from one μ to the next.
    """
    return _solve_crossing(_CoupledSector(U, p, 0), mu, tol)[0]


def _solve_crossing(sector, mu, tol, start=None):
    """Newton for η_ᾱ = 0 at one μ; returns (CrossingMode, continuation state).

    At α = 0 the coupling μα vanishes and the lowest coupled eigenvalue is
    that of the scalar L_r ℓ=0 sector, so η_0 is the L_r floor of
    sector_floors and does not depend on μ.  The branch slope comes for free
    from the eigenvector (Hellmann-Feynman, _slopes), so each Newton step,
    the last one included, costs one eigensolve, and the converged step's
    eigenpair is the returned mode.  Without ``start`` the search is cold:
    it starts at √(−η₀), exact for μ = 0 and close otherwise, and every
    eigensolve is a coupled_spectrum.  ``start`` is the state returned by the
    solve at a neighbouring μ₀: then the first step is ᾱ₀ + (μ − μ₀)·dᾱ/dμ,
    with the exact predictor dᾱ/dμ = −(∂η/∂μ)/(∂η/∂α), and every eigensolve
    is inverse iteration from the previous eigenvector (_warm_pair).
    Bisection on the bracket [1e-6, sqrt(-2η_0) + 1] guards the steps; the η
    branch is increasing with η_0 < 0, and η at the upper end, which lies
    safely past the crossing for small μ, is solved only when a step leaves
    the bracket before any η > 0 was seen.
    """
    eta0 = sector.floors[0]
    if eta0 >= 0:
        raise ConvergenceError("ground branch does not start negative")
    lo, hi = 1e-6, float(np.sqrt(-2 * eta0) + 1.0)
    crossed = False           # some η > 0 was seen: the bracket holds the root
    abar, phi = float(np.sqrt(-eta0)), None
    if start is not None:
        mu0, alpha0, phi, dalpha_dmu = start
        guess = alpha0 + (mu - mu0) * dalpha_dmu
        if lo < guess < hi:
            abar = guess

    def eigenpair(alpha, phi):
        if start is None:
            return sector.cold(alpha, mu, 1)[0]
        lam, phi = _warm_pair(sector, alpha, mu, phi)
        return (lam, *sector.profiles(phi), phi)

    for _ in range(60):
        lam, u, v, phi = eigenpair(abar, phi)
        slope, eta_mu = _slopes(sector.U, u, v, abar, mu)
        if lam > 0:
            hi, crossed = abar, True
        else:
            lo = abar
        if abs(lam) < tol * max(abs(slope), 1.0):
            break
        step = abar - lam / slope
        if lo < step < hi:
            abar = step
            continue
        if not crossed:
            eta_hi, _, _, phi = eigenpair(hi, phi)
            if eta_hi <= 0:
                raise ConvergenceError("ground branch has no sign change on the "
                                       "interval; widen the search or reduce mu")
            crossed = True
        abar = 0.5 * (lo + hi)
    else:
        raise ConvergenceError("crossing search did not converge")

    U, d = sector.U, sector.U.dim
    r = U.grid.nodes
    # renormalize with the angular factor: ∫(Z²+W²) dy = 1 over R^d
    mass = sphere_area(d) * np.trapezoid((u**2 + v**2) * r ** (d - 1), r)
    u, v = u / np.sqrt(mass), v / np.sqrt(mass)

    rate = _decay_rate_windowed(r, np.abs(u) + np.abs(v), d)
    mode = CrossingMode(alpha_bar=float(abar), u_values=u, v_values=v,
                        eta_residual=float(lam), decay_rate=rate, U=U, mu=mu,
                        p=sector.p)
    return mode, (mu, abar, phi, -eta_mu / slope)


def _decay_rate_windowed(r, w, dim):
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


def crossing_slope_identity(mode):
    """(∂η/∂α at ᾱ, closed form 2ᾱ + 2μ∫ZW) for the crossing mode."""
    U, p, mu = mode.U, mode.p, mode.mu
    d = U.dim
    r = U.grid.nodes
    omega = sphere_area(d)
    zw = omega * np.trapezoid(mode.u_values * mode.v_values * r ** (d - 1), r)
    closed = 2 * mode.alpha_bar + 2 * mu * zw
    numeric = eigenvalue_derivative(U, p, mu, mode.alpha_bar)
    return float(numeric), float(closed)


def alpha_field(sf, U, tol=1e-8):
    """Per-node crossing data with μ(s̄) = 2f'(s̄)/k(s̄).

    In the variable-coefficient model the profile argument is k(s̄)z, so the
    crossing equation per node only depends on μ(s̄).  Nodes share one solve
    when their μ, sorted, follow each other with gaps of at most
    MU_GROUP_TOL·max(1, max|μ|); each group is solved at the μ of its first
    node, in ascending order of μ, by continuation: the ℓ=0 sector is set up
    once, the first group is a cold find_alpha_bar search, and every later
    one starts from the previous group's ᾱ, moved by the exact dᾱ/dμ, and its
    eigenvector (_solve_crossing).  Each group's ᾱ is within tol of the root,
    so it agrees with a cold search to 2·tol.  Returns (alpha_bar array,
    modes list parallel to nodes).
    """
    mus = 2.0 * sf.fprime / sf.k
    order = np.argsort(mus, kind="stable")
    gaps = np.diff(mus[order]) > MU_GROUP_TOL * max(1.0, np.max(np.abs(mus)))
    starts = np.concatenate([[0], np.flatnonzero(gaps) + 1])
    group = np.empty(mus.size, dtype=int)
    group[order] = np.cumsum(np.concatenate([[False], gaps]))
    first = np.minimum.reduceat(order, starts)
    sector = _CoupledSector(U, sf.exps.p, 0)
    solved, state = [], None
    for i in first:
        mode, state = _solve_crossing(sector, float(mus[i]), tol, state)
        solved.append(mode)
    modes = [solved[g] for g in group]
    return np.array([m.alpha_bar for m in modes]), modes


# ---------------------------------------------------------------------------
# Perturbation solves: first and second α-derivatives of the eigenfunctions
# ---------------------------------------------------------------------------

def eta_curvature_identity(U, p, mu):
    """Both sides of ∂²η/∂α²|₀ = 2 + 2μ∫(u₀ ∂v/∂α + v₀ ∂u/∂α).

    At α = 0 the ground eigenpair is (Z̃, 0) with eigenvalue η₀ < 0, so only
    the first integral survives and ∂v/∂α solves (L_i - η₀)∂v = -μ Z̃ (an
    invertible shifted solve).  Returns (finite-difference value, identity).
    """
    lam0, u0, v0 = coupled_spectrum(
        CoupledSectorOperator(0.0, mu, 0, U.dim, p), U, 1)[0]
    op = SectorOperator("Li", 0, -lam0, U.dim, p)
    dv, _ = sector_solve(op, U, -mu * u0)
    r = U.grid.nodes
    d = U.dim
    omega = sphere_area(d)
    integral = omega * np.trapezoid(u0 * dv * r ** (d - 1), r)
    mass = omega * np.trapezoid((u0**2 + v0**2) * r ** (d - 1), r)
    closed = 2.0 + 2.0 * mu * integral / mass
    numeric = eigenvalue_second_derivative(U, p, mu, 0.0)
    return float(numeric), float(closed)


def first_derivative_profiles(U, p, mu):
    """∂_α eigenfunction components at α = 0 for the two zero branches.

    For the translation branch (∂_jU, 0) the imaginary component obeys
    L_i⁰ ∂v/∂α = -μ ∂_jU (ℓ=1 sector), with closed form (μ/2)·yU; for the
    gauge branch (0, U) the real component obeys L_r⁰ ∂u/∂α = -μU (ℓ=0),
    with closed form μ(U/(p-1) + ∇U·y/2).  Returns the two solved profiles.
    """
    r = U.grid.nodes
    op_i1 = SectorOperator("Li", 1, 0.0, U.dim, p)
    dv, _ = sector_solve(op_i1, U, -mu * U.derivative(r))

    op_r0 = SectorOperator("Lr", 0, 0.0, U.dim, p)
    du, _ = sector_solve(op_r0, U, -mu * U.values)
    return U.with_values(du), U.with_values(dv)


def second_order_profiles(h_hat, k_hat, phase_speed, exps, U):
    """Half second α-derivatives of the zero-branch eigenfunctions at α = 0.

    The translation branch gives (per normal direction, ℓ=1 sector)

        L_r⁰ (2·X) = c_th ∂U - 2∂U - 4A²ĥ^{2σ-p+1} yU,
        c_th = 2((p-1) - 2A²θ ĥ^{2σ-p+1})/(p-1),

    and the gauge branch (ℓ=0 sector)

        L_i⁰ (2·Y) = c_sg U - 2U - 8A²ĥ^{2σ-p+1} Ũ,
        c_sg = 2((p-1) - 2A²σ ĥ^{2σ-p+1})/(p-1),  Ũ = U/(p-1) + ∇U·y/2.

    Kernel components of the right-hand sides vanish by construction; the
    projected-off magnitude is returned for verification.  Output: (X profile
    [ℓ=1], Y profile [ℓ=0], removed_r, removed_i).
    """
    p, sigma, theta = exps.p, exps.sigma, exps.theta
    A2h = phase_speed**2 * h_hat ** (2 * sigma - p + 1.0)
    r = U.grid.nodes
    dU = U.derivative(r)
    Utilde = U.values / (p - 1.0) + 0.5 * r * dU

    c_th = 2.0 / (p - 1.0) * ((p - 1.0) - 2.0 * A2h * theta)
    rhs_r = c_th * dU - 2.0 * dU - 4.0 * A2h * r * U.values
    op_r1 = SectorOperator("Lr", 1, 0.0, U.dim, p)
    X2, rem_r = sector_solve(op_r1, U, rhs_r)

    c_sg = 2.0 / (p - 1.0) * ((p - 1.0) - 2.0 * A2h * sigma)
    rhs_i = c_sg * U.values - 2.0 * U.values - 8.0 * A2h * Utilde
    op_i0 = SectorOperator("Li", 0, 0.0, U.dim, p)
    Y2, rem_i = sector_solve(op_i0, U, rhs_i)

    return (U.with_values(0.5 * X2), U.with_values(0.5 * Y2),
            float(rem_r), float(rem_i))


def branch_curvature_closed_forms(h_hat, phase_speed, exps):
    """Closed-form ∂²σ_α/∂α²|₀ along the translation and gauge branches."""
    p, sigma, theta = exps.p, exps.sigma, exps.theta
    A2h = phase_speed**2 * h_hat ** (2 * sigma - p + 1.0)
    val_translation = 2.0 / (p - 1.0) * ((p - 1.0) - 2.0 * A2h * theta)
    val_gauge = 2.0 / (p - 1.0) * ((p - 1.0) - 2.0 * A2h * sigma)
    return float(val_translation), float(val_gauge)
