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
eigenvalues lie below τ_α, locates ᾱ, and gives the α-curvatures of the
branches at α = 0 (eta_curvature, branch_curvature_closed_forms).

One mechanism computes every eigenpair, and there is no Lanczos.  Every
branch trace and every crossing search starts at α = 0, where the coupling
μα vanishes and the lowest eigenpairs of an ℓ-sector are exactly the lowest
of the scalar L_r and L_i tridiagonal spectra (radial.lowest_eigenpairs).
Every later point is a continuation: inverse iteration on the banded
pentadiagonal from the neighbouring eigenvector, or in a trace from the line
through the previous two (scaled by the α spacings), with the Rayleigh
quotient as the eigenvalue.  The iteration stops when a step is below
INVERSE_ITERATION_TOL or, once the steps decrease, when the next step
predicted at their rate is, which saves the solve that would only confirm
convergence.  The lowest branch of a sector keeps the banded Cholesky
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
Every integral is the cell-weight inner product of φ-forms (radial), so
crossing_slope and eta_curvature are exact for the discrete eigenvalues.
"""

import math
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
# inverse iteration stops once a step moves the unit vector by less than
# this, or once the next step predicted at the observed rate would (_converged)
INVERSE_ITERATION_TOL = 1e-10
INVERSE_ITERATION_STEPS = 100
# least |overlap| between a branch's eigenvectors at consecutive α
OVERLAP_FLOOR = 0.5


def sphere_area(d):
    """|S^{d-1}| = 2π^{d/2}/Γ(d/2); d = 1 counts the two half-lines."""
    return 2 * math.pi ** (d / 2) / math.gamma(d / 2)


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
    are never read), the lowest eigenpairs of each that the sector's traced
    branches need (one per label of BOUND_BRANCHES[ℓ], one for any other
    ℓ), their lowest eigenvalues
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
    it, through a banded LU.  λ is the Rayleigh quotient of the limit.  φ
    need not be a unit vector: trace_branches passes the line through the
    eigenvectors at the previous two α.  The iteration converges linearly,
    so it stops when the next step, predicted at the observed rate, would be
    below INVERSE_ITERATION_TOL (_converged), without the solve that would
    only confirm it.
    """
    bands = sector.bands(alpha, mu)
    if near is None:
        _, chol = _cholesky_below(bands, sector.floors, alpha, mu)
        solve = lambda x: cho_solve_banded((chol, True), x, check_finite=False)
    else:
        solve = _lu_solver(bands, near)
    x = phi / np.linalg.norm(phi)
    last = 0.0                # no previous step: the rate needs two
    for _ in range(INVERSE_ITERATION_STEPS):
        y = solve(x)
        y /= np.linalg.norm(y) if y @ x > 0 else -np.linalg.norm(y)
        step, x = np.linalg.norm(y - x), y
        if _converged(step, last):
            return float(x @ _band_matvec(bands, x)), x
        last = step
    raise ConvergenceError(f"inverse iteration at alpha={alpha:.6g} did not "
                           "converge")


def _converged(step, last):
    """Whether inverse iteration stops after a step of length ``step`` that
    followed one of length ``last`` (0 before the second step): when the
    step is below INVERSE_ITERATION_TOL, or when the steps decrease and the
    next one, predicted at their observed rate as step²/last, would be."""
    return step < INVERSE_ITERATION_TOL or (
        step < last and step * step < INVERSE_ITERATION_TOL * last)


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
    (_CoupledSector.start); each later α continues every branch by inverse
    iteration (_warm_pair) from its eigenvector extrapolated linearly from
    the previous two α, with the ratio of the grid spacings (from the α = 0
    eigenvector at the first step): the lowest branch of a sector at the
    rigorous shift and the gauge branch at its eigenvalue predicted from
    the Hellmann–Feynman slope, or at a shift isolated by inertia counts
    where that prediction overshoots towards the continuum (_next_pair).
    The k-th branch of a sector is traced while bound_state_counts
    certifies more than k eigenvalues below τ_α; from the first α where it
    does not, the branch reads NaN, so wherever the count does not exceed
    the traced branches the number of finite values equals it.  A
    continued value at or above τ_α where the count says it is bound, or an
    overlap below OVERLAP_FLOOR between the eigenvectors at consecutive α
    (not the extrapolated start), raises BranchTrackingError.
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
                    prev = alpha_grid[i - 1]
                    start = phi
                    if i > 1:
                        # the line through the previous two eigenvectors
                        start = phi + (phi - older) * (
                            (alpha - prev) / (prev - alpha_grid[i - 2]))
                    if index == 0:
                        lam, new = _warm_pair(sector, alpha, mu, start)
                    else:
                        near = lam + _slopes(phi, prev, mu)[0] * (alpha - prev)
                        below = out[labels[index - 1]].eigenvalues[i]
                        # τ_α bounds this eigenvalue alone where the count
                        # admits no other above it
                        upper = tau[i] if counts[ell][i] == index + 1 else None
                        lam, new = _next_pair(sector, alpha, mu, start, phi, near,
                                              index, below, upper)
                    overlap = abs(float(new @ phi))
                    if overlap < OVERLAP_FLOOR or lam >= tau[i]:
                        raise BranchTrackingError("branch tracking ambiguous",
                                                  alpha, overlap)
                    older, phi = phi, new
                lams[i] = lam
                funcs.append(sector.profiles(phi))
            label = labels[index]
            out[label] = SpectralBranch(
                label=label, mu=mu, alphas=alpha_grid, eigenvalues=lams,
                eigenfunctions=funcs, sector_counts=tuple(counts[ell].tolist()))
    return out


def _next_pair(sector, alpha, mu, start, phi, near, k, below, upper):
    """Continue the branch of the (k+1)-th eigenvalue of a sector, whose
    eigenvector at the previous α is φ, by inverse iteration from ``start``.

    Inverse iteration at its predicted eigenvalue ``near``.  Near the
    continuum the prediction can overshoot towards the box modes above τ_α;
    where it gives no eigenpair below τ_α with the overlap floor, and the
    inertia count says that only λ_k lies between the branch ``below``'s
    value and ``upper`` = τ_α (None where it does not), the shift comes from
    isolating_shift instead.
    """
    try:
        lam, new = _warm_pair(sector, alpha, mu, start, near)
        if upper is None or (lam < upper and abs(new @ phi) >= OVERLAP_FLOOR):
            return lam, new
    except ConvergenceError:
        if upper is None:
            raise
    shift = sector.isolating_shift(alpha, mu, k, below, upper)
    return _warm_pair(sector, alpha, mu, start, shift)


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
    # per node and sector, in the row order (x, c, y, c) of a pivot
    # (a, c; c, b), with (x, y) = (a, b) at even nodes and (b, a) at odd
    # ones: the node part of A_i and the coupling to the previous node.  The
    # new pivot is then A_i + (d, c, d, c) + K_i·q·(the previous pivot) row
    # by row, q = 1/det, and its det is x·y − c·c, the product of its halves
    A = np.full((nodes, 4, len(sectors), 1),
                1.0 + np.max(np.abs(coupling)) - np.min(diagonal))
    A[:, 1::2] = 0.0
    K = np.zeros_like(A)
    for s, (dr, er, di, ei) in enumerate(sectors):
        A[:dr.size, 0, s, 0], A[:dr.size, 2, s, 0] = dr, di
        K[1:dr.size, 0, s, 0], K[1:dr.size, 1, s, 0], K[1:dr.size, 2, s, 0] = \
            -er**2, er * ei, -ei**2
    K[:, 3] = K[:, 1]
    A[1::2, [0, 2]], K[1::2, [0, 2]] = A[1::2, [2, 0]], K[1::2, [2, 0]]
    lanes = np.stack([diagonal, coupling, diagonal, coupling])[:, None, :]
    # a unit det before the first node, where K_0 = 0
    dets = np.ones((nodes + 1, len(sectors), lanes.shape[-1]))
    # x < 0 at every node: where det > 0, x·y > c² makes a and b of one sign
    negative = np.empty(dets[1:].shape, dtype=bool)
    # fixed buffers for the pivot P, the update w, q and (x·y, c·c), so that
    # the loop allocates nothing
    P = np.zeros((4,) + dets.shape[1:])
    w, q, prods = np.empty_like(P), np.empty_like(dets[0]), np.empty_like(P[:2])
    head, tail, lead, xy, cc = P[:2], P[2:], P[0], prods[0], prods[1]
    for k, a, last, det, neg in zip(K, A, dets, dets[1:], negative):
        np.divide(1.0, last, out=q)
        np.multiply(k, q, out=w)
        w *= P
        np.add(a, lanes, out=P)
        P += w
        np.multiply(head, tail, out=prods)
        np.subtract(xy, cc, out=det)
        np.less(lead, 0.0, out=neg)
    dets = dets[1:]
    if not np.all(np.isfinite(dets)) or np.any(dets == 0.0):
        raise ConvergenceError("a pivot of the inertia count vanished: the "
                               "shift is an eigenvalue to round-off")
    # a 2×2 pivot has one negative eigenvalue when det < 0, two when det > 0
    # and its leading entry is negative
    return (np.count_nonzero(dets < 0, axis=0)
            + 2 * np.count_nonzero((dets > 0) & negative, axis=0))


@dataclass(frozen=True)
class CrossingMode:
    """The zero crossing of the ground branch: ᾱ and its eigenpair (Z, W).

    ``u_values``/``v_values`` are the real/imaginary profile components on
    the radial grid, normalized so ∫(Z² + W²) dy = 1 including the angular
    volume factor, and ``q`` holds the overlap integrals (∫Z², ∫W², ∫ZW) in
    the grid's cell weights, (φ_u·φ_u, φ_v·φ_v, φ_u·φ_v) of the unit
    eigenvector φ.  decay_rate is √τ_ᾱ = √(1 + ᾱ² − |μᾱ|): past the core
    the pair solves −Δ + τ_ᾱ on the lower eigenvector of the coupling,
    so |Z| + |W| decays like e^{-√τ_ᾱ r} up to a power of r.  Immutable:
    alpha_field hands one mode to every node of a μ group, and the per-node
    list is the crossing field that resonance.FastModes reads ᾱ and Q from
    and the ansatz reads (Z, W) from.
    """

    alpha_bar: float
    u_values: np.ndarray
    v_values: np.ndarray
    eta_residual: float
    decay_rate: float
    q: tuple
    mu: float

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
    costs one eigensolve, and only the converged unit eigenvector is turned
    into the mode: its profiles, and its overlaps Q, which make crossing_slope
    the last step's slope.  Every eigensolve is inverse iteration at the
    rigorous shift (_warm_pair) from the previous one.  Without ``start``
    the first step is √(−η₀), exact for μ = 0 and close otherwise, from the
    α = 0 ground eigenvector.  ``start`` is the state returned by the solve
    at a neighbouring μ₀: then the first step is ᾱ₀ + (μ − μ₀)·dᾱ/dμ, with
    the exact predictor dᾱ/dμ = −(∂η/∂μ)/(∂η/∂α), from ᾱ₀'s eigenvector.
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

    # the angular factor makes ∫(Z²+W²) dy = 1 over R^d
    u, v = (f / np.sqrt(sphere_area(sector.U.dim)) for f in sector.profiles(phi))
    pu, pv = phi[0::2], phi[1::2]
    mode = CrossingMode(alpha_bar=float(abar), u_values=u, v_values=v,
                        eta_residual=float(lam),
                        decay_rate=float(np.sqrt(continuum_threshold(abar, mu))),
                        q=(float(pu @ pu), float(pv @ pv), float(pu @ pv)),
                        mu=mu)
    return mode, (mu, abar, phi, -eta_mu / slope)


def crossing_slope(mode):
    """∂η/∂α at ᾱ in closed form, 2ᾱ + 2μ·Q₃: bitwise ``_slopes``' value."""
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
    root, so it agrees with find_alpha_bar to 2·tol.  Returns the crossing
    field: the list of CrossingMode parallel to the nodes, whose
    ``alpha_bar`` are the per-node ᾱ.
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
    return [solved[g] for g in group]


# ---------------------------------------------------------------------------
# α-curvatures of the branches at α = 0
# ---------------------------------------------------------------------------

def eta_curvature(sectors, mu):
    """∂²η/∂α²|₀ = 2 + 2μ∫(u₀ ∂v/∂α + v₀ ∂u/∂α) in closed form.

    At α = 0 the ground eigenpair is (Z̃, 0) with eigenvalue η₀ < 0, the
    exact start of the ℓ=0 sector, so only the first integral survives and
    ∂v/∂α solves (L_i - η₀)∂v = -μ Z̃ (an invertible shifted solve); the
    integral is φ(u₀)·φ(∂v), with u₀ unit, exact for the discrete η.
    """
    sector = sectors[0]
    lam0, phi0 = sector.start()[0]
    u0, _ = sector.profiles(phi0)
    dv, _ = sector_solve(Sector(sector.U, sector.p, "Li", 0, -lam0), -mu * u0)
    return float(2.0 + 2.0 * mu * (sector.lr.to_phi(u0) @ sector.lr.to_phi(dv)))


def branch_curvature_closed_forms(h_hat, phase_speed, exps):
    """Closed-form ∂²σ_α/∂α²|₀ of the translation and gauge branches,
    c_th = 2((p-1) - 2aθ)/(p-1) and c_sg = 2((p-1) - 2aσ)/(p-1) with
    a = A²ĥ^{2σ-p+1}: the values that make the second-order α-equations
    solvable (Fredholm), since then the sources c_th ∂U - 2∂U - 4a·yU of
    L_r⁰ (ℓ=1) and c_sg U - 2U - 8a(U/(p-1) + ∇U·y/2) of L_i⁰ (ℓ=0) have no
    component along the kernels ∂U and U.
    """
    p, sigma, theta = exps.p, exps.sigma, exps.theta
    a = phase_speed**2 * h_hat ** (2 * sigma - p + 1.0)
    return tuple(float(2.0 / (p - 1.0) * ((p - 1.0) - 2.0 * a * c))
                 for c in (theta, sigma))
