"""Ground state of -ΔU + U = U^p in R^d and the linearized radial operators.

The ground state U is the positive radial decaying solution of

    -ΔU + U = U^p      in R^d  (d = n - 1),

with U'(0) = 0 and U(r) ~ e^{-r} r^{-(d-1)/2} at infinity.  Linearizing the
scalar equation around U gives the two model operators

    L_r v = -Δv + v - p U^{p-1} v,        L_i v = -Δv + v - U^{p-1} v,

which act sector-by-sector in spherical-harmonic modes ℓ.  Their classical
spectral facts (single negative eigenvalue of L_r, kernel of L_r spanned by
the ∂U, kernel of L_i spanned by U) are what every downstream construction
leans on.  A ``Sector`` holds one (kind, ℓ, shift) sector of a profile: its
symmetric tridiagonal, set up once, its kernel, computed on first use and
only in the two sectors that have one, and the map φ = √weight·u between
its symmetric form and nodal values.  ``sector_spectrum`` and the
minimal-norm ``sector_solve``, which projects off that kernel, take it.

Discretization: uniform radial grid on [0, r_max], second-order finite
differences in divergence form, with the (d-1)/r first-derivative term
regularized at r = 0 by parity.  This module alone knows it:
``_laplacian_rows`` builds -Δ in banded form, with its weight and active
nodes, and the ground state and every Sector read it.  All sector matrices
are symmetrized by the diagonal similarity induced by the radial volume
weight r^{d-1}, so every radial integral is the inner product of φ-forms
and every eigenpair comes from ``lowest_eigenpairs``.  The ground state is
the solution of the discrete equation itself: Petviashvili's iteration from
e^{-r²}, then Newton on the same grid.  Between the nodes a profile is its
not-a-knot cubic (``UniformCubic``) and solved rows are linear
(``_interp_rows``).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

from .errors import ValidationError, ConvergenceError

# Petviashvili's iteration for the ground state: step cap and the relative
# change at which Newton takes over.  The error contracts by the next radial
# eigenvalue of A⁻¹pU^{p-1}, (p+1)/(3p-1) for n = 2, which tends to 1 as
# p -> 1: the steps grow like 8/(p-1) (426 at p = 1.02), so the cap admits
# p down to about 1.01
PETVIASHVILI_MAX_ITER = 1000
PETVIASHVILI_TOL = 1e-6
# Newton's step cap, and the residual after which it takes one last step
NEWTON_MAX_ITER, NEWTON_TOL = 40, 5e-11


def admissible_p_range(n):
    """Open interval of admissible exponents p for ambient dimension n."""
    if n < 2:
        raise ValidationError(f"ambient dimension must be >= 2, got {n}")
    upper = np.inf if n <= 3 else (n + 1) / (n - 3)
    return 1.0, upper


def check_p(n, p):
    lo, hi = admissible_p_range(n)
    if not (lo < p < hi):
        raise ValidationError(f"p={p} outside admissible range ({lo}, {hi}) for n={n}")


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid on [0, r_max] with m nodes (both endpoints included)."""

    r_max: float = 30.0
    m: int = 3000

    def __post_init__(self):
        if self.r_max < 20:
            raise ValidationError(f"r_max must be >= 20, got {self.r_max}")
        if self.m < 1000:
            raise ValidationError(f"m must be >= 1000, got {self.m}")

    @property
    def nodes(self):
        return np.linspace(0.0, self.r_max, self.m)

    @property
    def dr(self):
        return self.r_max / (self.m - 1)


class UniformCubic:
    """C² piecewise cubic through ``values`` (K+1, ...) on uniform knots.

    ``moments`` are its second derivatives at the knots.  ``not_a_knot``
    and ``periodic`` solve for them; a call evaluates the cubic, or its
    ``nu``-th derivative (nu ≤ 2), by Horner's rule on the interval
    [knots[i], knots[i+1]) that holds x (the last one closed), for x within
    [knots[0], knots[-1]].
    """

    def __init__(self, knots, values, moments):
        h = knots[1] - knots[0]
        y0, y1, m0, m1 = values[:-1], values[1:], moments[:-1], moments[1:]
        self.knots, self.h = knots, h
        self.coef = np.stack([(m1 - m0) / (6.0 * h), 0.5 * m0,
                              (y1 - y0) / h - h * (2.0 * m0 + m1) / 6.0, y0])

    @classmethod
    def not_a_knot(cls, knots, values):
        """Third derivative continuous at the second and the second-to-last
        knot: rows 1 and K-1 of the moment system become 6·M_i = rhs_i."""
        h = knots[1] - knots[0]
        rhs = 6.0 * (values[:-2] - 2.0 * values[1:-1] + values[2:]) / h**2
        ab = np.ones((3, rhs.shape[0]))
        ab[1] = 4.0
        ab[1, [0, -1]] = 6.0
        ab[0, 1] = ab[2, -2] = 0.0
        inner = solve_banded((1, 1), ab, rhs)
        ends = (2.0 * inner[:1] - inner[1:2], 2.0 * inner[-1:] - inner[-2:-1])
        return cls(knots, values, np.concatenate([ends[0], inner, ends[1]]))

    @classmethod
    def periodic(cls, values, period):
        """Periodic cubic through ``values`` (N, ...) on N knots of [0,
        period): the moment system is circulant (1, 4, 1), solved by FFT."""
        N = values.shape[0]
        h = period / N
        rhs = 6.0 * (np.roll(values, 1, axis=0) - 2.0 * values
                     + np.roll(values, -1, axis=0)) / h**2
        eig = 4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(N) / N)
        mom = np.fft.ifft(np.fft.fft(rhs, axis=0)
                          / eig.reshape((N,) + (1,) * (values.ndim - 1)),
                          axis=0).real
        closed = lambda a: np.concatenate([a, a[:1]], axis=0)
        return cls(np.linspace(0.0, period, N + 1), closed(values), closed(mom))

    def __call__(self, x, nu=0):
        x = np.asarray(x, dtype=float)
        k = self.knots
        i = np.clip(np.floor((x - k[0]) / self.h).astype(np.intp), 0, k.size - 2)
        i += (i < k.size - 2) & (x >= k[i + 1])
        i -= (x < k[i]) & (i > 0)
        t = (x - k[i]).reshape(x.shape + (1,) * (self.coef.ndim - 2))
        weights = ((1.0, 1.0, 1.0, 1.0), (3.0, 2.0, 1.0), (6.0, 2.0))[nu]
        out = weights[0] * self.coef[0][i]
        for w, c in zip(weights[1:], self.coef[1:]):
            out *= t
            out += w * c[i]
        return out


@dataclass(frozen=True)
class RadialProfile:
    """A radial function on R^d sampled on a RadialGrid.

    ``decay_rate`` is the exponential rate fitted on the last quarter of the
    grid after removing the known polynomial prefactor r^{-(d-1)/2}; it is 0.0
    for profiles where no fit was requested.  Between the nodes the profile
    is the not-a-knot cubic through its values; past r_max it is 0.
    """

    grid: RadialGrid
    values: np.ndarray
    dim: int
    decay_rate: float = 0.0
    _cubic: UniformCubic = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)   # private, read-only copy
        vals.setflags(write=False)
        if vals.shape != (self.grid.m,):
            raise ValidationError("values must match the grid size")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("profile values must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_cubic",
                           UniformCubic.not_a_knot(self.grid.nodes, vals))

    def __call__(self, r):
        """Evaluate at |r| (zero past r_max, the Dirichlet wall)."""
        r = np.abs(np.asarray(r, dtype=float))
        out = self._cubic(np.minimum(r, self.grid.r_max))
        return np.where(r <= self.grid.r_max, out, 0.0)

    def derivative(self, r):
        """Radial derivative du/dr evaluated at |r| (zero past r_max)."""
        r = np.asarray(r, dtype=float)
        inside = np.abs(r) <= self.grid.r_max
        out = self._cubic(np.clip(np.abs(r), 0, self.grid.r_max), 1)
        return np.where(inside, out, 0.0)

    def with_values(self, values):
        return RadialProfile(self.grid, values, self.dim)

    def to_csv(self, path):
        np.savetxt(path, np.column_stack([self.grid.nodes, self.values]),
                   delimiter=",", header="r,value", comments="")


def _interp_rows(ygrid, rows, yq):
    """Row-wise linear interpolation on ``ygrid``, uniform from 0, and zero
    past its last node: rows (M, ..., ny) at yq (M, ...) >= 0, every row of
    node i at yq[i], of shape rows.shape[:-1] + yq.shape[1:]."""
    M, ny = rows.shape[0], rows.shape[-1]
    shape = rows.shape[:-1] + yq.shape[1:]
    yq = yq.reshape(M, 1, -1)
    t = yq / ygrid[1]
    j = np.minimum(t, ny - 2).astype(np.intp)
    flat = j + ny * np.arange(rows.size // ny).reshape(M, -1, 1)
    lo, hi = rows.take(flat), rows.take(flat + 1)
    out = lo + (t - j) * (hi - lo)
    out[np.broadcast_to(yq > ygrid[-1], out.shape)] = 0.0
    return out.reshape(shape)


def _fit_decay_rate(grid, values, dim):
    """Exponential rate on the last quarter of the grid.

    The known polynomial prefactor r^{-(d-1)/2} is removed before fitting,
    and the Dirichlet boundary layer (last ~3 units before r_max, where the
    truncation bends the tail) is excluded from the window.
    """
    r = grid.nodes
    sel = (r >= 0.75 * grid.r_max) & (r <= grid.r_max - 3.0) & (np.abs(values) > 1e-280)
    if sel.sum() < 10:
        return 0.0
    y = np.log(np.abs(values[sel])) + 0.5 * (dim - 1) * np.log(r[sel])
    slope = np.polyfit(r[sel], y, 1)[0]
    return float(-slope)


# ---------------------------------------------------------------------------
# Ground state
# ---------------------------------------------------------------------------

def _laplacian_rows(grid, d, include_origin):
    """Divergence-form radial Laplacian (-Δ) in solve_banded layout, plus its
    weight and active nodes: (ab, weight, idx).

    ab is 3 x nact: ab[0, 1:] the upper, ab[1] the main and ab[2, :-1] the
    lower diagonal.  Active nodes are [0, m-2] when the origin is included,
    [1, m-2] otherwise (Dirichlet at r_max either way).  The matrix is
    self-adjoint with respect to the returned weight.
    """
    r = grid.nodes
    dr = grid.dr
    if include_origin:
        idx = np.arange(0, grid.m - 1)
    else:
        idx = np.arange(1, grid.m - 1)
    rj = r[idx]
    rho = np.where(idx > 0, rj ** float(d - 1), 1.0)
    rho_ph = (rj + dr / 2) ** (d - 1)
    rho_mh = np.maximum(rj - dr / 2, 0.0) ** (d - 1)

    ab = np.zeros((3, idx.size))
    ab[0, 1:] = -rho_ph[:-1] / (rho[:-1] * dr**2)
    ab[1] = (rho_ph + rho_mh) / (rho * dr**2)
    ab[2, :-1] = -rho_mh[1:] / (rho[1:] * dr**2)
    weight = rho * dr
    if include_origin:
        # Δu(0) = d·u''(0) for even radial u; cell mass ∫_0^{dr/2} r^{d-1} dr
        ab[1, 0] = 2 * d / dr**2
        ab[0, 1] = -2 * d / dr**2
        weight[0] = (dr / 2) ** d / d
    return ab, weight, idx


def tridiagonal_apply(ab, x):
    """The tridiagonal ab (solve_banded layout) times x of shape (nact,)."""
    y = ab[1] * x
    y[:-1] += ab[0, 1:] * x[1:]
    y[1:] += ab[2, :-1] * x[:-1]
    return y


def _ground_state_residual(lap, u, p):
    """-Δu + u - |u|^{p-1}u on the active nodes, with -Δ = lap."""
    return tridiagonal_apply(lap, u) + u - np.sign(u) * np.abs(u) ** p


def _newton_polish(u, d, p, grid):
    """Newton iteration on the finite-difference system, Dirichlet at r_max.

    Stops one step after the residual falls below NEWTON_TOL (quadratic
    convergence takes that step to the rounding floor, so the result does
    not depend on the start even where the Jacobian is ill-conditioned, as
    for p near 1), or when the residual stagnates at its rounding floor (the
    diagonal is O(1/dr²), so the floor sits well below any tolerance the
    acceptance checks care about).
    """
    lap, _, _ = _laplacian_rows(grid, d, include_origin=True)
    jac = lap.copy()
    ua = u[:-1].copy()
    best = np.inf
    stalled = 0
    for _ in range(NEWTON_MAX_ITER):
        res = _ground_state_residual(lap, ua, p)
        rnorm = np.max(np.abs(res))
        stalled = stalled + 1 if rnorm > 0.5 * best else 0
        best = min(best, rnorm)
        if stalled >= 3 and best < 1e-9:
            break
        jac[1] = lap[1] + 1.0 - p * np.abs(ua) ** (p - 1)
        ua = ua - solve_banded((1, 1), jac, res)
        if rnorm < NEWTON_TOL:
            break
    else:
        raise ConvergenceError("Newton relaxation for the ground state did not converge")
    full = np.zeros(grid.m)
    full[:-1] = ua
    return full


def ode_residual(profile, p):
    """Sup-norm of the discrete ground-state equation over the active nodes."""
    lap, _, _ = _laplacian_rows(profile.grid, profile.dim, include_origin=True)
    return float(np.max(np.abs(_ground_state_residual(lap, profile.values[:-1], p))))


def _petviashvili(d, p, grid):
    """Petviashvili's iteration for the discrete ground-state equation.

    With A = -Δ + 1 (Dirichlet at r_max) and the stabilizing factor
    M = <u, Au>_w / <u, u^p>_w, each step is u <- M^{p/(p-1)} A⁻¹u^p, one
    banded solve; M -> 1 at the solution.  Starts from e^{-r²} and stops
    once a step changes u by less than PETVIASHVILI_TOL relative to max|u|
    (Pelinovsky and Stepanyants, SIAM J. Numer. Anal. 42 (2004) 1110–1127).
    Returns the active-node values (all but r_max).
    """
    ab, weight, idx = _laplacian_rows(grid, d, include_origin=True)
    ab[1] += 1.0
    u = np.exp(-grid.nodes[idx] ** 2)
    for _ in range(PETVIASHVILI_MAX_ITER):
        Au = tridiagonal_apply(ab, u)
        up = np.abs(u) ** p
        stab = np.dot(weight, u * Au) / np.dot(weight, u * up)
        new = stab ** (p / (p - 1.0)) * solve_banded((1, 1), ab, up)
        change = np.max(np.abs(new - u)) / np.max(np.abs(new))
        u = new
        if change < PETVIASHVILI_TOL:       # False for NaN: runs to the cap
            return u
    raise ConvergenceError(f"Petviashvili iteration for the ground state did "
                           f"not converge in {PETVIASHVILI_MAX_ITER} steps")


def solve_ground_state(n, p, grid=None):
    """Positive radial ground state of -ΔU + U = U^p in R^{n-1}.

    The solution of the finite-difference equation on ``grid``: Petviashvili's
    iteration (``_petviashvili``) brings e^{-r²} to a relative change of
    PETVIASHVILI_TOL, then Newton (``_newton_polish``) drives the discrete
    residual to round-off.  Raises ConvergenceError when either does not
    converge or the result is not positive and decreasing.
    """
    check_p(n, p)
    grid = grid or RadialGrid()
    d = n - 1
    u = np.zeros(grid.m)
    u[:-1] = _petviashvili(d, p, grid)
    u = _newton_polish(u, d, p, grid)
    if np.any(u[:-1] <= 0) or np.any(np.diff(u[: grid.m - 1]) > 1e-12):
        raise ConvergenceError("relaxed profile is not positive decreasing")
    rate = _fit_decay_rate(grid, u, d)
    return RadialProfile(grid, u, d, decay_rate=rate)


_GS_CACHE = {}


def ground_state(n, p, grid=None):
    """Memoized solve_ground_state; profiles are immutable so sharing is safe."""
    grid = grid or RadialGrid()
    key = (n, round(p, 12), grid.r_max, grid.m)
    if key not in _GS_CACHE:
        _GS_CACHE[key] = solve_ground_state(n, p, grid)
    return _GS_CACHE[key]


# ---------------------------------------------------------------------------
# Sector operators
# ---------------------------------------------------------------------------

class Sector:
    """One spherical-harmonic sector of L_r or L_i, plus an additive shift.

    kind 'Lr' carries the coefficient p U^{p-1}, kind 'Li' carries U^{p-1}.
    For U.dim == 1 the sectors are parities: ℓ = 0 even, ℓ = 1 odd.  The
    operator on nodal values u is similar, via D^{1/2} with D =
    diag(weight), to the symmetric tridiagonal ``bands`` (solve_banded
    layout; ``diag`` and ``off`` are views of it) acting on φ = sqrtw·u,
    sqrtw = √weight; idx are the active node indices, a contiguous range.
    All are built once, here, and read-only.  ``to_phi``, ``from_phi`` and
    ``profiles`` are the one map between φ and nodal values.
    """

    def __init__(self, U, p, kind, ell, shift=0.0):
        if kind not in ("Lr", "Li"):
            raise ValidationError(f"kind must be 'Lr' or 'Li', got {kind!r}")
        if ell < 0:
            raise ValidationError("angular mode must be nonnegative")
        if U.dim == 1 and ell > 1:
            raise ValidationError("dim 1 has only parity sectors ell in {0, 1}")
        self.U, self.p, self.kind, self.ell, self.shift = U, p, kind, ell, shift
        d = U.dim
        lap, weight, idx = _laplacian_rows(U.grid, d, ell == 0)
        coeff = p if kind == "Lr" else 1.0
        pot = 1.0 + shift - coeff * U.values[idx] ** (p - 1.0)
        if ell >= 1 and d >= 2:
            pot = pot + ell * (ell + d - 2) / U.grid.nodes[idx]**2
        bands = np.zeros_like(lap)
        bands[1] = lap[1] + pot
        bands[0, 1:] = bands[2, :-1] = lap[0, 1:] * np.sqrt(weight[:-1] / weight[1:])
        self.bands, self.weight, self.idx = bands, weight, idx
        self.sqrtw = np.sqrt(weight)
        self._active = slice(idx[0], idx[-1] + 1)
        for a in (bands, weight, self.sqrtw, idx):      # shared by every user
            a.setflags(write=False)
        self.diag, self.off = bands[1], bands[0, 1:]

    def to_phi(self, values):
        """φ = sqrtw·u of nodal values (..., m) on the active nodes.  A slice,
        not a gather: the result is C-ordered like ``values``, so products
        with it sum in one order."""
        return values[..., self._active] * self.sqrtw

    def from_phi(self, phi):
        """Nodal values (..., m) of φ (..., nact), zero off the active nodes."""
        out = np.zeros(phi.shape[:-1] + (self.U.grid.m,))
        out[..., self._active] = phi / self.sqrtw
        return out

    def profiles(self, *phis):
        """Nodal values of the components φ_k, jointly normalized to
        ∫Σu_k² r^{d-1}dr = 1, with the component largest just off the first
        active node (the later one on a tie) positive there."""
        full = self.from_phi(np.stack(phis))
        full /= np.sqrt(np.sum(np.sum(full[:, self._active]**2, axis=0)
                               * self.weight))
        lead = max(reversed(full[:, self.idx[0] + 1]), key=abs)
        return tuple(-full if lead < 0 else full)

    @cached_property
    def kernel(self):
        """The unit kernel vector in φ-coordinates, or None.

        U is nondegenerate, Ker L_r = span{∂_jU} and Ker L_i = span{U}
        (Weinstein, SIAM J. Math. Anal. 16 (1985); Kwong, ARMA 105 (1989)),
        so only the unshifted L_i ℓ=0 and L_r ℓ=1 sectors have a kernel:
        their lowest eigenvector, whatever the grid leaves of its eigenvalue
        (round-off for d = 1, 1.48e-4 for d = 2, -3.8e-6 for d = 3 on the
        (30, 3000) grid): the vector of pair 0 of ``lowest_eigenpairs``.
        Computed on first use; every other sector runs no eigensolve.
        """
        if self.shift != 0.0 or (self.kind, self.ell) not in (("Li", 0), ("Lr", 1)):
            return None
        return _eigenvector(self.diag, self.off, 0)


def _split(a):
    """Veltkamp's split a = hi + lo, each half with at most 26 significant bits."""
    c = 134217729.0 * a                 # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """(p, e) with p = fl(a·b) and p + e = a·b exactly (Dekker's product)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _rayleigh_quotient(diag, off, v):
    """v·Tv / v·v for the symmetric tridiagonal T = (diag, off), to round-off of
    the result: the products are error-free and their leading parts summed
    exactly, so the O(1/dr²) terms that cancel to an O(1) value leave no error
    of order eps/dr²."""
    p1, e1 = _two_product(diag, v)
    p2, e2 = _two_product(p1, v)
    p3, e3 = _two_product(2.0 * off, v[:-1])
    p4, e4 = _two_product(p3, v[1:])
    num = math.fsum(np.concatenate([p2, p4])) \
        + (np.sum(e2 + e1 * v) + np.sum(e4 + e3 * v[1:]))
    q, e = _two_product(v, v)
    return float(num / (math.fsum(q) + np.sum(e)))


def _eigenvector(diag, off, j):
    """Unit eigenvector j (from 0, ascending) of the symmetric tridiagonal,
    selected by its own index: LAPACK's bisection places an eigenvalue
    differently within a range of indices, and inverse iteration carries
    that into the vector."""
    return eigh_tridiagonal(diag, off, select="i", select_range=(j, j))[1][:, 0]


def lowest_eigenpairs(diag, off, count):
    """Lowest ``count`` eigenpairs (vals, vecs) of the symmetric tridiagonal.

    Each vector is ``_eigenvector``'s, so pair j does not depend on
    ``count``.  Bisection places a value only to about eps·‖T‖ (1e-12 for
    ‖T‖ = O(1/dr²)), so each value is the Rayleigh quotient of its vector,
    whose error is quadratic in the vector's.
    """
    vecs = np.column_stack([_eigenvector(diag, off, j) for j in range(count)])
    vals = np.array([_rayleigh_quotient(diag, off, v) for v in vecs.T])
    return vals, vecs


def sector_spectrum(sector, count):
    """Lowest ``count`` eigenpairs of the sector, ascending.

    Eigenvalues come from ``lowest_eigenpairs``; eigenfunctions are
    RadialProfiles normalized so that ∫ u² r^{d-1} dr = 1.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    vals, vecs = lowest_eigenpairs(sector.diag, sector.off, count)
    return [(float(vals[j]), sector.U.with_values(sector.profiles(vecs[:, j])[0]))
            for j in range(count)]


def sector_solve(sector, rhs):
    """Minimal-norm solutions of (sector operator) u = rhs, one per row.

    ``rhs`` holds nodal values on the profile's grid, shape (..., m).  In the
    two sectors with a kernel (``Sector.kernel``) every row is projected off
    it first; ``removed`` (shape rhs.shape[:-1]) is the relative norm of the
    removed component against the row, both in the weighted norm, and is 0
    in every other sector.  All rows share one banded solve, and the
    solutions are projected off the kernel again, which makes each the
    minimal-norm one.  The solve is linear in the rows, so a combination of
    rows solves to the same combination of their solutions.  Returns
    (values, removed) with values of rhs's shape.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[-1:] != (sector.U.grid.m,) or not np.all(np.isfinite(rhs)):
        raise ValidationError("right-hand sides must be finite nodal values "
                              "on the profile's grid")
    kernel = sector.kernel
    b = sector.to_phi(rhs.reshape(-1, rhs.shape[-1]))      # (rows, nact)

    removed = np.zeros(b.shape[0])
    if kernel is not None:
        coeffs = b @ kernel
        bnorm = np.linalg.norm(b, axis=1)
        removed = np.abs(coeffs) / np.maximum(bnorm, 1e-300)
        b -= np.outer(coeffs, kernel)

    x = solve_banded((1, 1), sector.bands, b.T, overwrite_b=True).T
    if kernel is not None:
        x -= np.outer(x @ kernel, kernel)
    return (sector.from_phi(x).reshape(rhs.shape),
            removed.reshape(rhs.shape[:-1]))
