"""Profile scalings, phase law, criticality, and the second-variation operators.

Along the curve the cross-sectional profile is h(s̄)·U(k(s̄)z) with

    h = ((f')² + V)^{1/(p-1)},     k = ((f')² + V)^{1/2},

and the phase slope obeys the law f' = A·h^σ with σ = (n-1)(p-1)/2 - 2.
``compute_scalings`` meets both by construction: it solves for h at every
node to within 4 ulp, or raises, and sets k = ((f')² + V)^{1/2}.
Candidate limit curves are critical points of the reduced length functional
∫ h^θ ds̄, θ = p + 1 - (p-1)(n-1)/2, whose extremality condition couples the
normal gradient of V to the curvature vector:

    ∇ᴺV = ((p-1)/θ · h^{p-1} - 2A² h^{2σ}) H.

Nondegeneracy is the invertibility of the second-variation operator on
normal sections (assembled here from the Fourier collocation matrix D2 of
``geometry``, so its low spectrum is the continuum one to round-off;
self-adjoint in the plain L²(ds̄) product, generalized-symmetric against the
h^θ mass), together with the divergence-form phase operator T.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .errors import ValidationError, ConvergenceError, PhaseLawError
from .geometry import (fourier_diff_matrices, freeze_arrays,
                       periodic_antiderivative, periodic_derivative)
from .radial import check_p

@dataclass(frozen=True)
class Exponents:
    """Scaling exponents σ, θ for given (n, p)."""

    n: int
    p: float
    sigma: float
    theta: float


def compute_exponents(n, p):
    check_p(n, p)
    sigma = (n - 1) * (p - 1) / 2.0 - 2.0
    theta = p + 1.0 - 0.5 * (p - 1) * (n - 1)
    return Exponents(n=n, p=float(p), sigma=sigma, theta=theta)


@dataclass(frozen=True)
class ScalingFields:
    """Periodic scaling fields h, k, f' and the phase antiderivative f.

    h^{p-1} = k² = (f')² + V to rounding; phase_budget = A·∫ h^σ ds̄ =
    f(L) - f(0).  The first phase correction f1' lives on the correctors.
    Immutable, arrays included (read-only views); derive a variant with
    ``dataclasses.replace``.
    """

    phase_speed: float            # the constant A in f' = A h^σ
    exps: Exponents
    s: np.ndarray
    L: float
    h: np.ndarray
    k: np.ndarray
    fprime: np.ndarray
    f: np.ndarray
    phase_budget: float

    def __post_init__(self):
        freeze_arrays(self)


def _solve_h(A, sigma, p, V):
    """Roots h > 0 of g(h) = h^{p-1} - A²h^{2σ} - V at all nodes at once.

    Newton from h = V^{1/(p-1)}, the A = 0 root, until every step is within
    4 ulp of h.  Raises at the first node where h or g'(h) stops being
    positive (no root nearby: the phase speed is too large).
    """
    h = V ** (1.0 / (p - 1.0))
    for _ in range(60):
        dg = (p - 1.0) * h ** (p - 2.0) - 2.0 * sigma * A**2 * h ** (2.0 * sigma - 1.0)
        bad = ~((h > 0) & (dg > 0))
        if np.any(bad):
            raise ConvergenceError(
                f"scaling fixed point lost h > 0 or g'(h) > 0 at node "
                f"{int(np.argmax(bad))}; try a smaller phase-speed constant")
        step = (h ** (p - 1.0) - A**2 * h ** (2.0 * sigma) - V) / dg
        h = h - step
        pending = ~(np.abs(step) <= 4.0 * np.finfo(float).eps * h)   # NaN pends
        if not pending.any():
            return h
    raise ConvergenceError(f"scaling Newton did not converge in 60 steps at "
                           f"node {int(np.argmax(pending))}")


def small_speed_guard(A, h, exps):
    """Reject runs where 2σA²h^{2σ-p+1} ≥ (p-1)/2 anywhere.

    Keeps every denominator of the second-variation and phase-correction
    formulas safely positive.
    """
    lhs = 2.0 * exps.sigma * A**2 * h ** (2 * exps.sigma - exps.p + 1.0)
    if np.any(lhs >= 0.5 * (exps.p - 1.0)):
        raise PhaseLawError("phase-speed constant too large: "
                            "2σA²h^{2σ-p+1} >= (p-1)/2 at some node")


def compute_scalings(curve, pot, phase_speed, exps):
    """Batched Newton solve of the coupled scaling/phase-law fixed point.

    Solves h^{p-1} = (f')² + V with f' = A·h^σ at every node, integrates f'
    cumulatively (trapezoid; f(L)-f(0) telescopes exactly to phase_budget),
    and records the phase budget A·∫h^σ.
    """
    if phase_speed < 0:
        raise ValidationError("phase-speed constant must be nonnegative")
    A, p, sigma = phase_speed, exps.p, exps.sigma
    V = pot.values
    h = _solve_h(A, sigma, p, V)
    small_speed_guard(A, h, exps)
    fprime = A * h**sigma
    k = np.sqrt(fprime**2 + V)
    f, phase_budget = periodic_antiderivative(fprime, curve.L)
    return ScalingFields(phase_speed=A, exps=exps, s=curve.s, L=curve.L,
                         h=h, k=k, fprime=fprime, f=f,
                         phase_budget=float(phase_budget))


def compute_f1(sf, Phi, f1_drift, curve):
    """First phase correction f1' from the normal displacement Φ.

    f1' = [2A(p-1)k^{n+1} ((p-1)/(2θ) - 1) <H,Φ> + A'(p-1)k^{n+1}]
          / ((p-1)h^{p+1} - 2σA²h^{2σ+2}),

    with A' the nonlocal constant (an input here).  The flux of the phase
    equation (``f1_equation_residual``) is then its right side plus A' at
    every node, so the equation holds to round-off.
    """
    exps = sf.exps
    A, p, sigma, theta = sf.phase_speed, exps.p, exps.sigma, exps.theta
    n = exps.n
    denom = (p - 1.0) * sf.h ** (p + 1.0) - 2.0 * sigma * A**2 * sf.h ** (2 * sigma + 2.0)
    if np.any(np.abs(denom) < 1e-12):
        raise PhaseLawError("vanishing denominator in the phase-correction formula")
    HdotPhi = np.einsum("ij,ij->i", curve.curvature, np.asarray(Phi, dtype=float))
    kpow = sf.k ** (n + 1.0)
    f1p = (2.0 * A * (p - 1.0) * kpow * ((p - 1.0) / (2.0 * theta) - 1.0) * HdotPhi
           + f1_drift * (p - 1.0) * kpow) / denom
    return f1p


def f1_equation_residual(sf, f1prime, Phi, curve):
    """Sup residual (spectral ∂_s̄) of the divergence-form equation for f1.

    ∂_s̄( h²f1'[(p-1)h^{p-1} - 2σA²h^{2σ}] / ((p-1)k^{n+1}) )
        = 2A((p-1)/(2θ) - 1) ∂_s̄<H,Φ>.
    """
    exps = sf.exps
    A, p, sigma, theta = sf.phase_speed, exps.p, exps.sigma, exps.theta
    flux = sf.h**2 * f1prime * ((p - 1.0) * sf.h ** (p - 1.0)
                                - 2.0 * sigma * A**2 * sf.h ** (2 * sigma)) \
        / ((p - 1.0) * sf.k ** (exps.n + 1.0))
    HdotPhi = np.einsum("ij,ij->i", curve.curvature, np.asarray(Phi, dtype=float))
    rhs = 2.0 * A * ((p - 1.0) / (2.0 * theta) - 1.0) * HdotPhi
    return float(np.max(np.abs(periodic_derivative(flux - rhs, curve.L))))


def euler_residual(curve, pot, sf, exps):
    """Extremality defect ∇ᴺV - ((p-1)/θ·h^{p-1} - 2A²h^{2σ})·H per node.

    Returns (residual array of shape (M, n-1), sup norm).
    """
    A, p, sigma, theta = sf.phase_speed, exps.p, exps.sigma, exps.theta
    coeff = (p - 1.0) / theta * sf.h ** (p - 1.0) - 2.0 * A**2 * sf.h ** (2 * sigma)
    res = pot.grad_normal - coeff[:, None] * curve.curvature
    return res, float(np.max(np.abs(res)))


def reduced_functional(curve, sf, exps):
    """Quadrature of ∫_0^L h^θ ds̄ (the reduced length of the curve)."""
    return float(np.sum(sf.h**exps.theta) * (curve.L / curve.M))


def critical_circle_radius(V_of_R_builder, bracket, phase_speed, exps):
    """Radius at which a circle satisfies the extremality condition.

    ``V_of_R_builder(R)`` must return (curve, pot) for the circle of radius
    R.  Finds the sign change of the first curvature component of the Euler
    residual on ``bracket`` by secant steps through the last two radii; a
    step that would leave the sign-change bracket, or is undefined (equal
    defects), becomes a bisection of it.  Stops at the first step of at most
    1e-12 + 4·eps·R and returns the radius it reaches, so no circle is built
    only to confirm convergence (a step test: it assumes a simple root).
    Raises ConvergenceError if the bracket shows no sign change (e.g. a
    potential that admits no critical circle), if a defect is not finite,
    or after 100 steps.
    """
    def defect(R):
        curve, pot = V_of_R_builder(R)
        sf = compute_scalings(curve, pot, phase_speed, exps)
        res, _ = euler_residual(curve, pot, sf, exps)
        return float(res[:, 0].mean())

    lo, hi = bracket
    flo, fhi = defect(lo), defect(hi)
    if not flo * fhi <= 0:
        raise ConvergenceError(
            f"Euler residual has no zero on [{lo}, {hi}] "
            f"(defect {flo:.3e} .. {fhi:.3e}); the potential admits no critical "
            f"circle in this bracket")
    R_prev, f_prev, R, f = lo, flo, hi, fhi
    for _ in range(100):
        tol = 1e-12 + 4 * np.finfo(float).eps * abs(R)
        step = -f * (R - R_prev) / (f - f_prev) if f != f_prev else np.inf
        if abs(step) > tol and not lo < R + step < hi:
            step = 0.5 * (lo + hi) - R
        if abs(step) <= tol:
            return R + step
        R_prev, f_prev, R = R, f, R + step
        f = defect(R)
        if not np.isfinite(f):
            raise ConvergenceError(f"Euler residual is {f} at radius {R}")
        if (f > 0) == (fhi > 0):
            hi, fhi = R, f
        else:
            lo = R
    raise ConvergenceError("critical-radius search did not converge in 100 steps")


# ---------------------------------------------------------------------------
# Second-variation (Jacobi-type) operator and the phase operator T
# ---------------------------------------------------------------------------

def _periodic_divergence_matrix(coeff, L):
    """Matrix of v ↦ -∂_s̄(coeff·∂_s̄ v) on the periodic uniform grid.

    Spectral, as -½(coeff·D2 + D2·coeff) + ½coeff'' (the same operator, since
    (a v)'' = a''v + 2a'v' + av''): exactly symmetric, and unlike D1ᵀ·a·D1
    it keeps the Nyquist mode, which D1 drops.
    """
    D2 = fourier_diff_matrices(coeff.size, L)[1]
    mat = -0.5 * (coeff[:, None] * D2 + D2 * coeff)
    mat[np.diag_indices_from(mat)] += 0.5 * periodic_derivative(coeff, L, 2)
    return mat


def assemble_jacobi(curve, pot, sf, exps):
    """Second-variation operator of the reduced functional on normal sections.

    Component form (m-th component, flat ambient space):

        -(h^θ - 2A²θ/(p-1)·h^σ) V̈^m - θ(h^{θ-1} - 2A²σ/(p-1)·h^{σ-1}) h' V̇^m
        + θ/(p-1)·h^{-σ} D²V[V, E_m] + ½(h^θ - 2A²θ/(p-1)·h^σ) Σ_j ∂²_{jm}g11 V^j
        + H^m <H, V> · [ -(p-1)(3 + σ/θ)h^{2θ} - 16σθA⁴/(p-1)·h^{2σ}
                          + 2A²(5σ + 3θ)h^{θ+σ} ] / ((p-1)h^θ - 2σA²h^σ).

    The principal part is assembled in divergence form -∂(a∂·), which matches
    the stated coefficients exactly since a' reproduces the first-derivative
    coefficient, with the spectral D2.  Every term is built symmetric, so the
    matrix is bitwise so.  Returns (matrix, weight): the matrix, of shape
    ((n-1)M, (n-1)M), is node-major (component j of node i at index
    i*(n-1)+j), and the weight is the h^θ mass per node.
    """
    A, p, sigma, theta = sf.phase_speed, exps.p, exps.sigma, exps.theta
    small_speed_guard(A, sf.h, exps)
    h = sf.h
    M, nm1 = curve.M, curve.n - 1

    a = h**theta - (2.0 * A**2 * theta / (p - 1.0)) * h**sigma
    denom = (p - 1.0) * h**theta - 2.0 * sigma * A**2 * h**sigma
    if np.any(denom <= 0) or np.any(a <= 0):
        raise PhaseLawError("second-variation denominators lose positivity; "
                            "phase-speed constant too large")

    principal = _periodic_divergence_matrix(a, curve.L)

    hess_coeff = (theta / (p - 1.0)) * h ** (-sigma)
    curv_coeff = (-(p - 1.0) * (3.0 + sigma / theta) * h ** (2 * theta)
                  - 16.0 * sigma * theta * A**4 / (p - 1.0) * h ** (2 * sigma)
                  + 2.0 * A**2 * (5.0 * sigma + 3.0 * theta) * h ** (theta + sigma)) / denom

    full = np.kron(principal, np.eye(nm1))
    # H⊗H: the flat metric has ∂²_{jl}g11 = 2H^jH^l, so its term is a·H^m<H, V>
    HH = curve.curvature[:, :, None] * curve.curvature[:, None, :]
    blocks = (hess_coeff[:, None, None] * pot.hess_normal
              + a[:, None, None] * HH + curv_coeff[:, None, None] * HH)
    idx = np.arange(M)
    full.reshape(M, nm1, M, nm1)[idx, :, idx, :] += blocks
    return full, h**theta


def assemble_T(curve, sf, exps):
    """Divergence-form phase operator T(f2) = ∂_s̄(c·f2') with

        c = h²[(p-1)h^{p-1} - 2σA²h^{2σ}] / ((p-1)k^{n+1}).

    Constants are in the kernel to round-off (row sums ½(c·D2·1 + D2·c - c'')).
    """
    A, p, sigma = sf.phase_speed, exps.p, exps.sigma
    c = sf.h**2 * ((p - 1.0) * sf.h ** (p - 1.0)
                   - 2.0 * sigma * A**2 * sf.h ** (2 * sigma)) \
        / ((p - 1.0) * sf.k ** (exps.n + 1.0))
    if np.any(c <= 0):
        raise PhaseLawError("phase operator coefficient lost positivity; "
                            "phase-speed constant too large")
    return -_periodic_divergence_matrix(c, curve.L)


def weighted_eigenbasis(op_matrix, weight, count, per_node_components=1, ds=1.0):
    """Lowest generalized eigenpairs A φ = λ diag(weight) φ, weighted normalization.

    ``weight`` is a per-node array, repeated for each of the
    ``per_node_components`` entries a node carries.  Eigenvectors come back
    normalized so Σ_i w_i |φ_a(i)|² Δs̄ = 1 with Δs̄ = ``ds``, the discrete
    form of ∫ w φ_a φ_b ds̄ = δ_ab.

    Returns (the lowest ``count`` eigenvalues ascending, their eigenvectors
    as columns, nondegeneracy verdict dict): invertible when min |λ| exceeds
    1e-6 times the largest |λ| of the lowest max(count, per_node_components
    + 1), a scale that, unlike the grid's M², is the operator's own.  That
    scale must lie past the kernel: a translation-invariant harness (V ≡ 1
    on a straight segment) has per_node_components constant kernel vectors,
    so the verdict reads at least one eigenvalue more than that.  Only the
    pairs it reads are computed.  Since the spectrum is sorted, min |λ| is
    among them unless they are all negative; then the remaining eigenvalues
    are computed too, without vectors.
    """
    if np.any(weight <= 0) or count < 1:
        raise ValidationError("weight must be positive and count at least 1")
    dim = op_matrix.shape[0]
    if dim != weight.size * per_node_components:
        raise ValidationError("operator size does not match weight/node layout")
    B = np.diag(np.repeat(weight, per_node_components))
    k = min(max(count, per_node_components + 1), dim)
    vals, vecs = eigh(op_matrix, B, subset_by_index=[0, k - 1])
    vecs = vecs / np.sqrt(ds)
    amin = float(np.min(np.abs(vals)))
    if vals[-1] < 0 and k < dim:
        amin = min(amin, float(np.min(np.abs(eigh(
            op_matrix, B, eigvals_only=True, subset_by_index=[k, dim - 1])))))
    amax = float(np.max(np.abs(vals)))
    verdict = {"min_abs_eigenvalue": amin, "max_abs_eigenvalue": amax,
               "invertible": bool(amin > 1e-6 * amax)}
    count = min(count, dim)
    return vals[:count], vecs[:, :count], verdict
