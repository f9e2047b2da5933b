"""Spectrum of the coupled two-component model operator and its branches.

Fourier reduction of the model linearization along the curve leaves, for
each transverse frequency α and coupling μ = 2f̂/k̂, the system on R^{n-1}

    -Δu + (1 + α²)u - pU^{p-1}u + μα v = λ u,
    -Δv + (1 + α²)v -  U^{p-1}v + μα u = λ v.

Its first eigenvalue branch η_α starts negative, is simple and increasing,
and crosses zero at a unique ᾱ whose eigenfunction pair (Z, W) decays like
e^{-√τ_ᾱ r}, faster than e^{-r}; the second branch σ_α starts at zero
(translations (∂U, 0) and the gauge mode (0, U)) with zero slope and
positive curvature.  Away from the core U vanishes and the coupling matrix
has eigenvalues ±μα, so the essential spectrum starts at exactly
τ_α = 1 + α² − |μα|; τ_α stays away from zero, and it is given in closed
form, not traced: on a bounded radial box everything above it is
discretized continuum whose lowest level depends on r_max.  This module
discretizes the system sector-by-sector, traces the bound branches in α
with eigenvector-overlap matching, certifies by an inertia count which
eigenvalues lie below τ_α, locates ᾱ, and builds the second-order
α-corrections of the eigenfunctions by kernel-projected sector solves.

One mechanism computes every eigenpair, and there is no Lanczos.  Every
branch trace and every crossing search starts at α = 0, where the coupling
μα vanishes and the lowest eigenpairs of an ℓ-sector are exactly the lowest
of the scalar L_r and L_i tridiagonal spectra (radial.lowest_eigenpairs).
Every later point is a continuation: inverse iteration on the banded
pentadiagonal from the neighbouring eigenvector, with the Rayleigh quotient
as the eigenvalue.  The lowest branch of a sector keeps the banded Cholesky
factor at a rigorous shift under the spectrum, which certifies the shift and
makes the limit the lowest eigenpair; the gauge branch, which is not the
lowest, is shifted to its predicted eigenvalue through a banded LU, or,
where that prediction overshoots towards the continuum, to a shift isolated
by inertia counts; the overlap floor and the inertia count of
bound_state_counts guard it.  A branch ends where the count says the bound
states end.  The scalar tridiagonals (the L_r and L_i radial.Sector of its
ℓ), their lowest pairs and the α = μ = 0 bands of a sector depend on
(U, p, ℓ) only, so coupled_sectors sets each up once per profile for every
caller, and a point (α, μ) only updates the diagonal (+α²) and the
coupling band (μα).  Every slope (∂λ/∂α, ∂λ/∂μ) is read off the unit
eigenvector (_slopes), exact for the discrete eigenvalue, so no step
converts φ to profiles; a crossing converts its eigenvector once, and its
CrossingMode carries the overlap integrals that the resonance layer reads.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import ValidationError, BranchTrackingError, ConvergenceError
from .geometry import freeze_arrays, readonly_view
from .radial import Sector, lowest_eigenpairs, sector_solve

# distance of the Cholesky shift below the coupled spectrum's lower bound
SHIFT_MARGIN = 1e-2
# relative gap in the sorted μ(s̄) that separates two crossing solves
MU_GROUP_TOL = 1e-12
# inverse iteration stops once a step moves the unit vector by less than this
INVERSE_ITERATION_TOL = 1e-10
INVERSE_ITERATION_STEPS = 100
# least |overlap| between a branch's eigenvectors at consecutive α
OVERLAP_FLOOR = 0.5


def sphere_area(d):
    """|S^{d-1}|; d = 1 counts the two half-lines."""
    from math import gamma, pi
    if d == 1:
        return 2.0
    return 2 * pi ** (d / 2) / gamma(d / 2)


def _band_matvec(bands, x):
    """Symmetric matrix in lower band storage times x of shape (n,) or (n, k)."""
    b = bands.reshape(bands.shape + (1,) * (x.ndim - 1))
    y = b[0] * x
    for lag in range(1, bands.shape[0]):
        y[lag:] += b[lag, :-lag] * x[:-lag]
        y[:-lag] += b[lag, :-lag] * x[lag:]
    return y


def _cholesky_below(bands, floors, alpha, mu):
    """(σ, banded Cholesky factor of bands − σ), σ SHIFT_MARGIN under a
    lower bound of the coupled spectrum; ConvergenceError if σ is not below
    the spectrum.

    The interleaved blocks are the scalar tridiagonals T_r + α² and
    T_i + α², coupled by μα·Identity, so for a unit vector (x, y) the
    Rayleigh quotient is at least α² + a|x|² + b|y|² − 2|μα||x||y|, with
    a = λ_min(T_r) and b = λ_min(T_i) the unshifted ``floors`` of the
    sector (_CoupledSector).  Minimizing over |x|² + |y|² = 1 gives
    λ_min ≥ α² + (a+b)/2 − hypot((a−b)/2, μα), which is exact at μα = 0 and
    close otherwise.
    """
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


# the bound branches of each traced sector, in ascending order at α = 0
BOUND_BRANCHES = {0: ("ground", "gauge"), 1: ("translation",)}


class _CoupledSector:
    """The coupled ℓ-sector of a fixed profile, ready for any (α, μ).

    Its operator is (L_r-sector + α², μα; μα, L_i-sector + α²).  The two
    components are interleaved node-wise, (u_0, v_0, u_1, v_1, ...), which
    makes it pentadiagonal: the scalar-sector similarity weight is shared by
    both blocks, so the coupling stays μα·Identity.  The tridiagonals of the
    unshifted L_r and L_i ℓ-sectors (radial.Sector, which share weight and
    active nodes, so the L_r one, ``lr``, maps φ for both; their kernels
    are never read), the lowest eigenpairs of
    each that the sector's traced branches need (one per label of
    BOUND_BRANCHES[ℓ], one for any other ℓ), their lowest eigenvalues
    ``floors`` and the α = μ = 0 bands (lower band storage, 3 x 2·nact) are
    built once; a point (α, μ) only adds α² to the diagonal and sets the
    coupling band to μα.
    """

    def __init__(self, U, p, ell):
        self.U, self.p, self.ell = U, p, ell
        lr, li = (Sector(U, p, kind, ell) for kind in ("Lr", "Li"))
        self.lr = lr
        self.tridiagonals = (lr.diag, lr.off, li.diag, li.off)
        self.bands0 = np.zeros((3, 2 * lr.diag.size))
        self.bands0[0, 0::2], self.bands0[0, 1::2] = lr.diag, li.diag
        self.bands0[2, 0:-2:2], self.bands0[2, 1:-2:2] = lr.off, li.off
        count = len(BOUND_BRANCHES[ell]) if ell in BOUND_BRANCHES else 1
        self.lowest = tuple(lowest_eigenpairs(s.diag, s.off, count)
                            for s in (lr, li))
        self.floors = tuple(float(vals[0]) for vals, _ in self.lowest)

    def bands(self, alpha, mu):
        bands = self.bands0.copy()
        bands[0] += alpha**2
        bands[1, 0::2] = mu * alpha
        return bands

    def start(self):
        """The lowest eigenpairs (λ, unit φ) at α = 0, ascending, as many as
        the sector keeps of each scalar tridiagonal.

        μα = 0 decouples the components, so they are the lowest among the
        L_r pairs, φ = (x, 0), and the L_i pairs, φ = (0, y), each eigenvalue
        the exact Rayleigh quotient of lowest_eigenpairs.
        """
        pairs = []
        count = self.lowest[0][0].size
        for comp, (vals, vecs) in enumerate(self.lowest):
            for lam, vec in zip(vals, vecs.T):
                phi = np.zeros(self.bands0.shape[1])
                phi[comp::2] = vec
                pairs.append((float(lam), phi))
        pairs.sort(key=lambda pair: pair[0])
        return pairs[:count]

    def profiles(self, phi):
        """(u, v) on the full radial grid from the interleaved φ = √w·(u, v)."""
        return self.lr.profiles(phi[0::2], phi[1::2])

    def isolating_shift(self, alpha, mu, k, lower, upper):
        """A shift under the (k+1)-th eigenvalue λ_k at (α, μ), at least four
        times nearer to it than to any other eigenvalue, by inertia counts.

        The caller knows that λ_k is the one eigenvalue in (lower, upper):
        ``lower`` is λ_{k−1} and exactly k + 1 eigenvalues lie below
        ``upper``.  Each pass counts the eigenvalues below 16 shifts across
        the bracket (_count_below) and keeps the interval where the count
        reaches k + 1.
        """
        lo, hi = lower, upper
        for _ in range(20):
            shifts = np.linspace(lo, hi, 18)[1:-1]
            counts = _count_below([self.tridiagonals],
                                  np.full(shifts.size, abs(mu * alpha)),
                                  alpha**2 - shifts)[0]
            j = int(np.searchsorted(counts, k + 1))
            lo = shifts[j - 1] if j else lo
            hi = shifts[j] if j < shifts.size else hi
            if 4 * (hi - lo) <= min(lo - lower, upper - lo):
                return float(lo)
        raise ConvergenceError(f"no shift isolates eigenvalue {k} at "
                               f"alpha={alpha:.6g}")


def _slopes(phi, alpha, mu):
    """Hellmann–Feynman (∂λ/∂α, ∂λ/∂μ) of a unit eigenvector φ at (α, μ).

    The pentadiagonal depends on α through α² + μα·C and on μ through μα·C,
    with C the coupling band (one per node pair), so ∂λ/∂α = 2α + 2μ·φ_u·φ_v
    and ∂λ/∂μ = 2α·φ_u·φ_v: the exact derivatives of the discrete eigenvalue.
    """
    uv = phi[0::2] @ phi[1::2]
    return 2.0 * alpha + 2.0 * mu * uv, 2.0 * alpha * uv


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
    at the rigorous shift of _cholesky_below both certifies that the shift
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
    """One eigenvalue branch over an α grid at fixed μ (immutable).

    ``sector_counts`` is the inertia count of the branch's sector per α
    (bound_state_counts): the number of eigenvalues below τ_α.  A branch
    that leaves the bound states reads NaN from the first α past its exit
    bracket on, and ``eigenfunctions`` holds its (u, v) at the α before.
    """

    label: str
    mu: float
    alphas: np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions: tuple  # per bound α: (u_values, v_values)
    sector_counts: tuple

    def __post_init__(self):
        freeze_arrays(self)
        object.__setattr__(self, "eigenfunctions", tuple(
            (readonly_view(u), readonly_view(v)) for u, v in self.eigenfunctions))

    @property
    def exit_bracket(self):
        """(last α with a bound value, first α without), or None if the
        branch is bound on the whole grid."""
        traced = len(self.eigenfunctions)
        if traced == self.alphas.size:
            return None
        return (float(self.alphas[traced - 1]) if traced else None,
                float(self.alphas[traced]))


def coupled_sectors(U, p):
    """{ℓ: the coupled ℓ-sector of U} for every sector of BOUND_BRANCHES, the
    set-up that trace_branches, bound_state_counts, find_alpha_bar and
    alpha_field share."""
    return {ell: _CoupledSector(U, p, ell) for ell in BOUND_BRANCHES}


def trace_branches(sectors, mu, alpha_grid):
    """Trace the bound branches of the coupled system over an ascending α
    grid, in ``sectors`` (coupled_sectors).

    Returns a dict of SpectralBranch, per sector as in BOUND_BRANCHES:
      'ground'       η_α: lowest ℓ=0 branch (simple, increasing, crosses 0),
      'gauge'        σ_α continuation of (0, U): next ℓ=0 branch,
      'translation'  σ_α continuation of (∂U, 0): lowest ℓ=1 branch.

    The third branch τ_α is the continuum threshold (continuum_threshold).
    The grid starts at α = 0, where each sector's pairs are exact
    (_CoupledSector.start); each later α continues every branch from its
    eigenvector at the previous α (_warm_pair), the lowest branch of a
    sector at the rigorous shift and the gauge branch at its eigenvalue
    predicted from the Hellmann–Feynman slope, or at a shift isolated by
    inertia counts where that prediction overshoots towards the continuum
    (_next_pair).  The k-th branch of a sector
    is traced while bound_state_counts certifies more than k eigenvalues
    below τ_α; from the first α where it does not, the branch reads NaN, so
    wherever the count does not exceed the traced branches the number of
    finite values equals it.  A continued value at or above τ_α where the
    count says it is bound, or an overlap between consecutive eigenvectors
    below OVERLAP_FLOOR, raises BranchTrackingError.
    """
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    if alpha_grid.size < 2 or alpha_grid[0] != 0 or np.any(np.diff(alpha_grid) <= 0):
        raise ValidationError("alpha grid must be ascending from 0")
    counts = bound_state_counts(sectors, mu, alpha_grid)
    tau = continuum_threshold(alpha_grid, mu)

    out = {}
    for ell, labels in BOUND_BRANCHES.items():
        sector = sectors[ell]
        bound = counts[ell][:, None] > np.arange(len(labels))
        for index, (lam, phi) in enumerate(sector.start()):
            lams, funcs = np.full(alpha_grid.size, np.nan), []
            for i, alpha in enumerate(alpha_grid):
                if not bound[i, index]:
                    break
                if i:
                    if index == 0:
                        lam, new = _warm_pair(sector, alpha, mu, phi)
                    else:
                        prev = alpha_grid[i - 1]
                        near = lam + _slopes(phi, prev, mu)[0] * (alpha - prev)
                        below = out[labels[index - 1]].eigenvalues[i]
                        # τ_α bounds this eigenvalue alone where the count
                        # admits no other above it
                        upper = tau[i] if counts[ell][i] == index + 1 else None
                        lam, new = _next_pair(sector, alpha, mu, phi, near, index,
                                              below, upper)
                    overlap = abs(float(new @ phi))
                    if overlap < OVERLAP_FLOOR or lam >= tau[i]:
                        raise BranchTrackingError("branch tracking ambiguous",
                                                  alpha, overlap)
                    phi = new
                lams[i] = lam
                funcs.append(sector.profiles(phi))
            label = labels[index]
            out[label] = SpectralBranch(
                label=label, mu=mu, alphas=alpha_grid, eigenvalues=lams,
                eigenfunctions=funcs, sector_counts=tuple(counts[ell].tolist()))
    return out


def _next_pair(sector, alpha, mu, phi, near, k, below, upper):
    """Continue the branch of the (k+1)-th eigenvalue of a sector from φ.

    Inverse iteration at its predicted eigenvalue ``near``.  Near the
    continuum the prediction can overshoot towards the box modes above τ_α;
    where it gives no eigenpair below τ_α with the overlap floor, and the
    inertia count says that only λ_k lies between the branch ``below``'s
    value and ``upper`` = τ_α (None where it does not), the shift comes from
    isolating_shift instead.
    """
    try:
        lam, new = _warm_pair(sector, alpha, mu, phi, near)
        if upper is None or (lam < upper and abs(new @ phi) >= OVERLAP_FLOOR):
            return lam, new
    except ConvergenceError:
        if upper is None:
            raise
    shift = sector.isolating_shift(alpha, mu, k, below, upper)
    return _warm_pair(sector, alpha, mu, phi, shift)


def continuum_threshold(alpha, mu):
    """τ_α = 1 + α² − |μα|, the bottom of the coupled essential spectrum.

    Where U has decayed the sector operator is -Δ + 1 + α² plus the coupling
    matrix (0, μα; μα, 0), whose eigenvalues are ±μα.
    """
    alpha = np.asarray(alpha, dtype=float)
    return 1.0 + alpha**2 - np.abs(mu * alpha)


def bound_state_counts(sectors, mu, alpha_grid):
    """Number of eigenvalues below τ_α of every sector of ``sectors``
    (coupled_sectors), for every α at once: {ℓ: counts over alpha_grid}.

    Since α² − τ_α = |μα| − 1, the pivots of _count_below depend on α
    through |μα| only, and one recurrence runs a lane per (sector, α).
    """
    m = np.abs(mu * np.asarray(alpha_grid, dtype=float))
    return dict(zip(sectors, _count_below(
        [sector.tridiagonals for sector in sectors.values()], m, m - 1.0)))


def _count_below(sectors, coupling, diagonal):
    """Negative eigenvalues of (T_r + d, c; c, T_i + d) with c = coupling and
    d = diagonal, one lane per entry of c and d, for every sector at once:
    counts of shape (sectors, lanes).

    ``sectors`` holds the unshifted scalar tridiagonals (diag_r, off_r,
    diag_i, off_i) of each sector, so a point (α, μ) and a threshold s give
    c = |μα| and d = α² − s (the sign of the coupling does not change the
    inertia).  Sylvester's law of inertia: the interleaved pentadiagonal is
    block tridiagonal in 2×2 node blocks, and its block LDLᵀ factorization
    is a congruence, so the count is the number of negative eigenvalues of
    the 2×2 pivots D_i = A_i − B D_{i−1}⁻¹ B.  A sector with fewer nodes
    (ℓ ≥ 1 lacks the origin) ends in decoupled positive definite blocks,
    which add no negative pivot.  A zero pivot (a shift that is an
    eigenvalue to round-off) leaves the count undefined: ConvergenceError.
    """
    nodes = max(sector[0].size for sector in sectors)
    # per node and sector, in the order (a, c, b) of a pivot (a, c; c, b):
    # the node part of A_i and the coupling to the previous node, so that
    # the new pivot is A_i + (d, c, d) + K_i·q·(b, c, a) of the previous
    # one, q = 1/det
    A = np.full((nodes, 3, len(sectors), 1),
                1.0 + np.max(np.abs(coupling)) - np.min(diagonal))
    A[:, 1] = 0.0
    K = np.zeros((nodes, 3, len(sectors), 1))
    for s, (dr, er, di, ei) in enumerate(sectors):
        A[:dr.size, 0, s, 0], A[:dr.size, 2, s, 0] = dr, di
        K[1:dr.size, 0, s, 0], K[1:dr.size, 1, s, 0], K[1:dr.size, 2, s, 0] = \
            -er**2, er * ei, -ei**2
    lanes = np.stack([diagonal, coupling, diagonal])[:, None, :]
    dets = np.empty((nodes, len(sectors), lanes.shape[-1]))
    leads = np.empty_like(dets)
    P = A[0] + lanes
    for i in range(nodes):
        if i:
            w = K[i] * (1.0 / dets[i - 1])
            w *= P[::-1]
            P = A[i] + lanes
            P += w
        dets[i] = P[0] * P[2] - P[1] * P[1]
        leads[i] = P[0]
    if not np.all(np.isfinite(dets)) or np.any(dets == 0.0):
        raise ConvergenceError("a pivot of the inertia count vanished: the "
                               "shift is an eigenvalue to round-off")
    # a 2×2 pivot has one negative eigenvalue when det < 0, two when det > 0
    # and its leading entry is negative
    return np.sum((dets < 0) + 2 * ((dets > 0) & (leads < 0)), axis=0)


@dataclass(frozen=True)
class CrossingMode:
    """The zero crossing of the ground branch: ᾱ and its eigenpair (Z, W).

    ``u_values``/``v_values`` are the real/imaginary profile components on
    the radial grid, normalized so ∫(Z² + W²) dy = 1 including the angular
    volume factor, and ``q`` holds the overlap integrals (∫Z², ∫W², ∫ZW) of
    that trapezoid rule.  decay_rate is √τ_ᾱ = √(1 + ᾱ² − |μᾱ|): past the
    core the pair solves −Δ + τ_ᾱ on the lower eigenvector of the coupling,
    so |Z| + |W| decays like e^{-√τ_ᾱ r} up to a power of r.  Immutable:
    alpha_field hands one mode to every node of a μ group.
    """

    alpha_bar: float
    u_values: np.ndarray
    v_values: np.ndarray
    eta_residual: float
    decay_rate: float
    q: tuple
    U: object
    mu: float
    p: float

    def __post_init__(self):
        freeze_arrays(self)


def find_alpha_bar(sectors, mu, tol=1e-8):
    """Safeguarded Newton for the unique ᾱ with η_ᾱ = 0 in the ℓ=0 sector
    of ``sectors`` (coupled_sectors).

    _solve_crossing from the exact α = 0 ground pair: Newton from √(−η₀),
    one inverse iteration per step.  alpha_field continues it from one μ to
    the next.
    """
    return _solve_crossing(sectors[0], mu, tol)[0]


def _solve_crossing(sector, mu, tol, start=None):
    """Newton for η_ᾱ = 0 at one μ; returns (CrossingMode, continuation state).

    At α = 0 the coupling μα vanishes and the lowest coupled eigenpair is
    that of the scalar L_r ℓ=0 sector, so η_0 is the L_r floor and does not
    depend on μ.  The branch slope comes for free from the eigenvector
    (Hellmann-Feynman, _slopes), so each Newton step, the last one included,
    costs one eigensolve, and only the converged eigenvector is turned into
    the mode's profiles and their integrals.  Every eigensolve is inverse
    iteration at the rigorous shift (_warm_pair) from the previous one.  Without ``start`` the first
    step is √(−η₀), exact for μ = 0 and close otherwise, from the α = 0
    ground eigenvector.  ``start`` is the state returned by the solve at a
    neighbouring μ₀: then the first step is ᾱ₀ + (μ − μ₀)·dᾱ/dμ, with the
    exact predictor dᾱ/dμ = −(∂η/∂μ)/(∂η/∂α), from ᾱ₀'s eigenvector.
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
    abar = float(np.sqrt(-eta0))
    if start is None:
        phi = sector.start()[0][1]
    else:
        mu0, alpha0, phi, dalpha_dmu = start
        guess = alpha0 + (mu - mu0) * dalpha_dmu
        if lo < guess < hi:
            abar = guess

    for _ in range(60):
        lam, phi = _warm_pair(sector, abar, mu, phi)
        slope, eta_mu = _slopes(phi, abar, mu)
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
            eta_hi, phi = _warm_pair(sector, hi, mu, phi)
            if eta_hi <= 0:
                raise ConvergenceError("ground branch has no sign change on the "
                                       "interval; widen the search or reduce mu")
            crossed = True
        abar = 0.5 * (lo + hi)
    else:
        raise ConvergenceError("crossing search did not converge")

    U, d, r = sector.U, sector.U.dim, sector.U.grid.nodes
    w, omega = r ** (d - 1), sphere_area(d)
    u, v = sector.profiles(phi)
    # renormalize with the angular factor: ∫(Z²+W²) dy = 1 over R^d
    mass = omega * np.trapezoid((u**2 + v**2) * w, r)
    u, v = u / np.sqrt(mass), v / np.sqrt(mass)
    q = tuple(float(omega * np.trapezoid(f * w, r)) for f in (u**2, v**2, u * v))
    mode = CrossingMode(alpha_bar=float(abar), u_values=u, v_values=v,
                        eta_residual=float(lam),
                        decay_rate=float(np.sqrt(continuum_threshold(abar, mu))),
                        q=q, U=U, mu=mu, p=sector.p)
    return mode, (mu, abar, phi, -eta_mu / slope)


def crossing_slope(mode):
    """∂η/∂α at ᾱ in closed form, 2ᾱ + 2μ·Q₃ (Hellmann–Feynman)."""
    return float(2 * mode.alpha_bar + 2 * mode.mu * mode.q[2])


def alpha_field(sf, sectors, tol=1e-8):
    """Per-node crossing data with μ(s̄) = 2f'(s̄)/k(s̄).

    In the variable-coefficient model the profile argument is k(s̄)z, so the
    crossing equation per node only depends on μ(s̄).  Nodes share one solve
    when their μ, sorted, follow each other with gaps of at most
    MU_GROUP_TOL·max(1, max|μ|); each group is solved at the μ of its first
    node, in ascending order of μ, by continuation in the ℓ=0 sector of
    ``sectors`` (coupled_sectors): the first group starts from the exact
    α = 0 ground pair as find_alpha_bar does, and every later one starts
    from the previous group's ᾱ, moved by the exact dᾱ/dμ, and its
    eigenvector (_solve_crossing).  Each group's ᾱ is within tol of the
    root, so it agrees with find_alpha_bar to 2·tol.  Returns (alpha_bar
    array, modes list parallel to nodes).
    """
    mus = 2.0 * sf.fprime / sf.k
    order = np.argsort(mus, kind="stable")
    gaps = np.diff(mus[order]) > MU_GROUP_TOL * max(1.0, np.max(np.abs(mus)))
    starts = np.concatenate([[0], np.flatnonzero(gaps) + 1])
    group = np.empty(mus.size, dtype=int)
    group[order] = np.cumsum(np.concatenate([[False], gaps]))
    first = np.minimum.reduceat(order, starts)
    solved, state = [], None
    for i in first:
        mode, state = _solve_crossing(sectors[0], float(mus[i]), tol, state)
        solved.append(mode)
    modes = [solved[g] for g in group]
    return np.array([m.alpha_bar for m in modes]), modes


# ---------------------------------------------------------------------------
# Perturbation solves: first and second α-derivatives of the eigenfunctions
# ---------------------------------------------------------------------------

def eta_curvature(sectors, mu):
    """∂²η/∂α²|₀ = 2 + 2μ∫(u₀ ∂v/∂α + v₀ ∂u/∂α) in closed form.

    At α = 0 the ground eigenpair is (Z̃, 0) with eigenvalue η₀ < 0, the
    exact start of the ℓ=0 sector, so only the first integral survives and
    ∂v/∂α solves (L_i - η₀)∂v = -μ Z̃ (an invertible shifted solve).
    """
    sector = sectors[0]
    U, p = sector.U, sector.p
    lam0, phi0 = sector.start()[0]
    u0, v0 = sector.profiles(phi0)
    dv, _ = sector_solve(Sector(U, p, "Li", 0, -lam0), -mu * u0)
    r = U.grid.nodes
    w = sphere_area(U.dim) * r ** (U.dim - 1)
    integral = np.trapezoid(u0 * dv * w, r)
    mass = np.trapezoid((u0**2 + v0**2) * w, r)
    return float(2.0 + 2.0 * mu * integral / mass)


def first_derivative_profiles(U, p, mu):
    """∂_α eigenfunction components at α = 0 for the two zero branches.

    For the translation branch (∂_jU, 0) the imaginary component obeys
    L_i⁰ ∂v/∂α = -μ ∂_jU (ℓ=1 sector), with closed form (μ/2)·yU; for the
    gauge branch (0, U) the real component obeys L_r⁰ ∂u/∂α = -μU (ℓ=0),
    with closed form μ(U/(p-1) + ∇U·y/2).  Returns the two solved profiles.
    """
    r = U.grid.nodes
    dv, _ = sector_solve(Sector(U, p, "Li", 1), -mu * U.derivative(r))
    du, _ = sector_solve(Sector(U, p, "Lr", 0), -mu * U.values)
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
    X2, rem_r = sector_solve(Sector(U, p, "Lr", 1), rhs_r)

    c_sg = 2.0 / (p - 1.0) * ((p - 1.0) - 2.0 * A2h * sigma)
    rhs_i = c_sg * U.values - 2.0 * U.values - 8.0 * A2h * Utilde
    Y2, rem_i = sector_solve(Sector(U, p, "Li", 0), rhs_i)

    return (U.with_values(0.5 * X2), U.with_values(0.5 * Y2),
            float(rem_r), float(rem_i))


def branch_curvature_closed_forms(h_hat, phase_speed, exps):
    """Closed-form ∂²σ_α/∂α²|₀ along the translation and gauge branches."""
    p, sigma, theta = exps.p, exps.sigma, exps.theta
    A2h = phase_speed**2 * h_hat ** (2 * sigma - p + 1.0)
    val_translation = 2.0 / (p - 1.0) * ((p - 1.0) - 2.0 * A2h * theta)
    val_gauge = 2.0 / (p - 1.0) * ((p - 1.0) - 2.0 * A2h * sigma)
    return float(val_translation), float(val_gauge)
