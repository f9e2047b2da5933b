"""Fast-oscillation resonance layer along the curve.

The near-zero eigenvalues of the linearized operator coming from transverse
frequencies of order 1/ε are governed by the weighted periodic problem

    -ε²ξ'' - k²ᾱ²ξ = ν / (1 + 2f'Q₃/(kᾱ)) · ξ       on [0, L],

whose eigenvalues behave like ν_j = Ĉ₀ εj + O(ε²j² + ε) once re-indexed so
j = 0 is the first nonnegative one.  Each eigenfunction ξ_j gets a companion
β_j and small corrections γ_j, κ_j, q_j; with those the pair (β_j, ξ_j)
satisfies the coupled first-order system up to O(ν_j² + ε).  The quadratic
form that controls these degrees of freedom,

    Λ₀ = ∫ Q₁(ε²β'β̲' - k²ᾱ²ββ̲) + Q₂(ε²ξ'ξ̲' - k²ᾱ²ξξ̲)
         + 2f'Q₃(εβ'ξ̲ - εξ'β̲ - kᾱββ̲ - kᾱξξ̲) ds̄,

is nearly diagonal in the (β_j) coordinates with approximate eigenvalues
ν_j; scanning ε for a spectral gap of Λ₀ (relative to the weighted mass)
selects the admissible values ε_k.  The crossing enters only through ᾱ
and the overlap integrals Q of its pair (Z, W) (CrossingMode.q, gathered
per node by q_integrals): one FastModes of (sf, ᾱ, Q) is the entry point
of every solve here, and each ResonanceBasis refers back to it.

Everything here uses Fourier collocation in s̄: the coefficients are smooth
periodic fields, so the discretization is spectrally accurate.  Derivatives
of nodal fields come from ``geometry.periodic_derivative``; the collocation
matrix D2 (``geometry.fourier_diff_matrices``) is built only for the
eigensolve, once per FastModes.  The index j_ε needs no solve per ε:
ν = 0 exactly when −ε²ξ'' = k²ᾱ²ξ, whatever the weight, so j_ε is the number
of eigenvalues θ of the ε-free pencil −ξ'' = θk²ᾱ²ξ with ε²θ < 1 (Sylvester's
law), and one list of θ serves every ε of a scan.  The eigensolve per ε
computes only the 2J+1 eigenpairs of the window.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh

from .errors import ValidationError, PhaseLawError
from .geometry import fourier_diff_matrices, periodic_derivative


@dataclass
class OverlapIntegrals:
    """Q₁ = ∫Z², Q₂ = ∫W², Q₃ = ∫ZW per curve node (unit total mass)."""

    q1: np.ndarray
    q2: np.ndarray
    q3: np.ndarray


def q_integrals(modes):
    """Overlap integrals of the per-node crossing eigenpairs (Z, W): the
    ``q`` of each node's CrossingMode, which the crossing solve integrated
    once per μ group."""
    return OverlapIntegrals(*np.array([m.q for m in modes]).T.copy())


@dataclass
class ResonanceBasis:
    """Re-indexed fast-mode eigenbasis with companions and corrections.

    Arrays are indexed [j, node] with j running over the window
    [-J, ..., J], J = floor(δ²/ε); ``window`` maps row a to j = a - J.
    ``nu`` holds the re-indexed eigenvalues (nu[J] is the first nonnegative
    one) and ``dxi`` the derivatives ξ_j' of the eigenfunctions; ``modes``
    is the FastModes that made it.  A gap-scan basis leaves the corrections
    ``gamma``, ``kappa`` and ``qcorr`` None.
    """

    eps: float
    delta: float
    nu: np.ndarray
    xi: np.ndarray
    dxi: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    kappa: np.ndarray
    qcorr: np.ndarray
    j_eps: int
    modes: "FastModes"

    @property
    def window(self):
        J = (self.nu.size - 1) // 2
        return np.arange(-J, J + 1)


class FastModes:
    """The weighted periodic eigenproblem of (sf, ᾱ, Q), ready for any ε.

    The entry point of the layer: one instance serves every ε of a gap scan,
    resonance basis and oracle of (sf, ᾱ, Q), kept as ``sf``, ``abar``,
    ``Q``, with ``ka`` = kᾱ and the weight ``wfun`` = 1 + 2f'Q₃/(kᾱ).

    With B = diag(1/wfun) and S = diag(√wfun), A·x = ν·B·x is the standard
    problem C(ε)·y = ν·y for C = S·A·S and x = S·y, and yᵀy = 1 gives
    xᵀBx = 1.  D2, the weight and the pencil spectrum θ of
    K̃ = −diag(1/kᾱ)·D2·diag(1/kᾱ) are built once.  Since
    C(ε) = G^{1/2}(ε²K̃ − I)G^{1/2} with G = diag(k²ᾱ²·wfun) > 0, Sylvester's
    law makes the number of negative ν at any ε the number of θ below 1/ε².
    """

    def __init__(self, sf, abar, Q):
        self.sf, self.abar, self.Q = sf, abar, Q
        self.ka = sf.k * abar
        wfun = 1.0 + 2.0 * sf.fprime * Q.q3 / self.ka
        if np.any(wfun <= 0):
            raise PhaseLawError("resonance weight lost positivity; "
                                "phase-speed constant too large")
        self.wfun, self.sw = wfun, np.sqrt(wfun)
        self.SS = np.outer(self.sw, self.sw)
        self.diag = self.ka**2 * wfun
        self.D2 = fourier_diff_matrices(sf.s.size, sf.L)[1]
        self.theta = eigh(-self.D2 / np.outer(self.ka, self.ka),
                          eigvals_only=True)

    def matrix(self, eps):
        """C(ε) = −ε²·S·D2·S − diag(k²ᾱ²·wfun)."""
        C = -eps**2 * self.D2 * self.SS
        C[np.diag_indices(self.sf.s.size)] -= self.diag
        return C

    def count(self, eps):
        """j_ε: the number of negative eigenvalues of C(ε), ε²θ < 1."""
        return int(np.searchsorted(self.theta, 1.0 / eps**2))

    def window(self, eps, delta):
        """ν, ξ, ξ' and β (what Λ₀ reads) over |j| <= floor(δ²/ε) around
        j_ε; the corrections γ, κ, q are left None."""
        sf, Q, ka = self.sf, self.Q, self.ka
        M, L = sf.s.size, sf.L
        j_eps = self.count(eps)
        J = int(np.floor(delta**2 / eps))
        if j_eps - J < 0 or j_eps + J >= M:
            raise ValidationError(
                f"index window [{-J}, {J}] around j_eps={j_eps} leaves the grid; "
                f"use more curve nodes or a larger eps")
        nu, y = eigh(self.matrix(eps), subset_by_index=[j_eps - J, j_eps + J])
        vecs = self.sw[:, None] * y / np.sqrt(L / M)   # ∫ ξ²/wfun ds̄ = 1
        dxi = periodic_derivative(vecs, L).T
        denom = ka**2 + 2.0 * sf.fprime * ka * Q.q3
        beta = -(1.0 / ka) * (1.0 - Q.q1 * nu[:, None] / denom) * eps * dxi
        return ResonanceBasis(eps=eps, delta=delta, nu=nu, xi=vecs.T, dxi=dxi,
                              beta=beta, gamma=None, kappa=None, qcorr=None,
                              j_eps=j_eps, modes=self)


def resonance_eigenpairs(modes, eps, delta=0.3):
    """The full basis of the FastModes ``modes`` at ε.

    Eigenpairs are re-indexed around the first nonnegative eigenvalue and
    restricted to |j| <= floor(δ²/ε): the index j_ε of that eigenvalue is the
    number of eigenvalues θ of the ε-free pencil −ξ'' = θk²ᾱ²ξ with ε²θ < 1
    (ν = 0 exactly when ε²θ = 1, whatever the weight), and only the window's
    eigenpairs are computed.  The companion is

        β_j = -(1/kᾱ)(1 - Q₁ν_j/(k²ᾱ² + 2f'kᾱQ₃))·εξ_j',

    and the corrections come from the cancellation conditions that define
    them,

        γ_j = -(εξ_j' + kᾱβ_j)/(2kQ₁),
        κ_j = -(kᾱξ_j - εβ_j')/(2kQ₂),
        q_j = -(εξ_j' + kᾱβ_j + kγ_j)/(kᾱ).

    At zero phase speed Q₂ vanishes together with the numerator of κ_j; the
    algebraically equivalent stable form κ_j = ν_j ξ_j/(2k(kᾱ + 2f'Q₃)) is
    used there.
    """
    basis = modes.window(eps, delta)
    sf, Q, ka = modes.sf, modes.Q, modes.ka
    k, fp, L = sf.k, sf.fprime, sf.L
    nu, xi, dxi, beta = basis.nu, basis.xi, basis.dxi, basis.beta
    dbeta = periodic_derivative(beta.T, L).T
    gamma = -(eps * dxi + ka * beta) / (2.0 * k * Q.q1)
    if np.min(Q.q2) > 1e-10:
        kappa = -(ka * xi - eps * dbeta) / (2.0 * k * Q.q2)
    else:
        kappa = nu[:, None] * xi / (2.0 * k * (ka + 2.0 * fp * Q.q3))
    qcorr = -(eps * dxi + ka * beta + k * gamma) / ka
    return replace(basis, gamma=gamma, kappa=kappa, qcorr=qcorr)


def weyl_slope(basis):
    """Fitted slope of ν_j against j near j = 0 (should be ε·Ĉ₀)."""
    J = (basis.nu.size - 1) // 2
    if J < 1:
        raise ValidationError("window too small for a slope fit; increase delta")
    hw = min(max(2, J // 4), J)
    j = np.arange(-hw, hw + 1)
    nu = basis.nu[J - hw: J + hw + 1]
    return float(np.polyfit(j, nu, 1)[0])


def verify_coupled_system(basis):
    """Discrete residual of the coupled (β_j, ξ_j) system over the window.

    Line 1: -ε²β'' - k²ᾱ²β - 2f'(Q₃/Q₁)(εξ' + kᾱβ) - νβ,
    line 2: -ε²ξ'' - k²ᾱ²ξ + 2f'(Q₃/Q₂)(εβ' - kᾱξ) - νξ;
    both are expected O(ν² + ε) in sup norm.  The ξ-line coupling carries
    f'·Q₃/Q₂, which is identically zero when the phase speed vanishes (then
    W = 0 makes Q₂ = 0 as well); that case is treated as zero coupling.

    Returns (max residual, per-j residual array).
    """
    sf, Q = basis.modes.sf, basis.modes.Q
    fp, ka = sf.fprime[:, None], basis.modes.ka[:, None]
    eps, nu, L = basis.eps, basis.nu, sf.L
    b, x = basis.beta.T, basis.xi.T                   # [node, j]
    line1 = -eps**2 * periodic_derivative(b, L, 2) - ka**2 * b - nu * b
    line2 = -eps**2 * periodic_derivative(x, L, 2) - ka**2 * x - nu * x
    if np.any(fp != 0):
        q3 = Q.q3[:, None]
        line1 -= 2.0 * fp * (q3 / Q.q1[:, None]) * (eps * periodic_derivative(x, L) + ka * b)
        line2 += 2.0 * fp * (q3 / np.maximum(Q.q2, 1e-300)[:, None]) \
            * (eps * periodic_derivative(b, L) - ka * x)
    res = np.maximum(np.max(np.abs(line1), axis=0), np.max(np.abs(line2), axis=0))
    return float(np.max(res)), res


def correction_identities(basis):
    """Sup norms of the γ/κ relations, each expected O(ν_j²).

    Checks -ε²γ'' - ᾱ²k²γ and (-kᾱκ + εγ') per j, normalized by the mode
    amplitude, returning the two arrays max-ed over nodes.
    """
    ka = basis.modes.ka[:, None]
    eps, L = basis.eps, basis.modes.sf.L
    g, kp = basis.gamma.T, basis.kappa.T              # [node, j]
    r1 = np.max(np.abs(-eps**2 * periodic_derivative(g, L, 2) - ka**2 * g), axis=0)
    r2 = np.max(np.abs(-ka * kp + eps * periodic_derivative(g, L)), axis=0)
    return r1, r2


def assemble_lambda0(basis):
    """Λ₀ and the weighted mass matrix in the β_j coordinates.

    Returns (lambda0, mass, asymmetry): the quadratic form is symmetrized
    (for variable coefficients the εβ'ξ̲-block is symmetric only up to an
    O(ε) coefficient-derivative term, which the reported asymmetry tracks).
    """
    sf, Q, ka = basis.modes.sf, basis.modes.Q, basis.modes.ka
    fp, eps, ds = sf.fprime, basis.eps, sf.L / sf.s.size

    Bm, Xm = basis.beta, basis.xi
    dB = periodic_derivative(Bm.T, sf.L).T
    dX = basis.dxi

    def quad(fa, fb, w):
        return (fa * w) @ fb.T * ds

    cross = 2.0 * fp * Q.q3
    lam = (eps**2 * quad(dB, dB, Q.q1) - quad(Bm, Bm, Q.q1 * ka**2)
           + eps**2 * quad(dX, dX, Q.q2) - quad(Xm, Xm, Q.q2 * ka**2))
    # 2f'Q₃(εβ'ξ̲ - εξ'β̲ - kᾱββ̲ - kᾱξξ̲): rows unbarred, columns barred
    lam += eps * quad(dB, Xm, cross) - eps * quad(dX, Bm, cross) \
        - quad(Bm, Bm, cross * ka) - quad(Xm, Xm, cross * ka)

    mass = quad(Bm, Bm, Q.q1) + quad(Xm, Xm, Q.q2)
    asym = float(np.max(np.abs(lam - lam.T)))
    lam = 0.5 * (lam + lam.T)
    mass = 0.5 * (mass + mass.T)
    return lam, mass, asym


def lambda0_spectrum(basis):
    """Generalized eigenvalues of (Λ₀, mass), ascending."""
    lam, mass, _ = assemble_lambda0(basis)
    return eigh(lam, mass, eigvals_only=True)


def gap_scan(modes, eps_grid, delta=0.3, threshold=0.1):
    """Scan ε for spectral gaps of Λ₀: admissible when min|eig| >= threshold·ε.

    The ε-free work (D2, the weight, the pencil spectrum θ that counts j_ε
    by ε²θ < 1) is done once, in the FastModes ``modes``; each ε forms its
    matrix and solves only the window, building ν, ξ and β but not the
    corrections γ, κ, q, which Λ₀ does not read.  ``eps_grid`` must be
    descending.  Returns a list of records with the minimal |generalized
    eigenvalue| and the admissibility flag.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if np.any(np.diff(eps_grid) >= 0):
        raise ValidationError("eps grid must be strictly descending")
    records = []
    for eps in eps_grid:
        vals = lambda0_spectrum(modes.window(eps, delta))
        min_abs = float(np.min(np.abs(vals)))
        records.append({
            "eps": float(eps),
            "min_abs_eigenvalue": min_abs,
            "admissible": bool(min_abs >= threshold * eps),
        })
    if not any(r["admissible"] for r in records):
        raise ValidationError("no admissible eps on the grid; refine the eps grid")
    return records


def constant_coefficient_nu_oracle(modes, eps, delta=0.3):
    """Arithmetic in-window eigenvalues for constant-coefficient runs.

    For constant k, ᾱ, f', Q₃, the eigenfunctions are Fourier modes and

        ν(m) = (ε²(2πm/L)² - k²ᾱ²)·(1 + 2f'Q₃/(kᾱ)),

    with multiplicity two for 0 < m < M/2.  The multiset is sorted and
    re-indexed exactly as resonance_eigenpairs does, so the window contents
    can be compared elementwise.  No eigensolver involved.
    """
    sf, abar, Q = modes.sf, modes.abar, modes.Q
    for arr in (sf.k, sf.fprime, abar, Q.q3):
        if np.ptp(arr) > 1e-10 * (1 + np.max(np.abs(arr))):
            raise ValidationError("oracle needs constant coefficients")
    M, L = sf.s.size, sf.L
    k, fp, ab, q3 = sf.k[0], sf.fprime[0], abar[0], Q.q3[0]
    wfun = 1.0 + 2.0 * fp * q3 / (k * ab)
    m = np.arange(M // 2 + 1)
    nu = (eps**2 * (2 * np.pi * m / L) ** 2 - k**2 * ab**2) * wfun
    vals = np.sort(np.repeat(nu, np.where((m > 0) & (m < M / 2), 2, 1)))
    j_eps = int(np.searchsorted(vals, 0.0))
    J = int(np.floor(delta**2 / eps))
    if j_eps - J < 0 or j_eps + J >= vals.size:
        raise ValidationError("oracle window leaves the grid")
    return vals[j_eps - J: j_eps + J + 1]


def gap_scan_oracle(modes, eps_grid, delta=0.3, threshold=0.1):
    """Admissibility flags from the arithmetic oracle (constant coefficients)."""
    out = []
    for eps in eps_grid:
        window = constant_coefficient_nu_oracle(modes, eps, delta)
        min_abs = float(np.min(np.abs(window)))
        out.append({"eps": float(eps), "min_abs_eigenvalue": min_abs,
                    "admissible": bool(min_abs >= threshold * eps)})
    return out


def sharp_norm(b):
    """Fourier-weighted norm (Σ b_j²(1+|j|)²)^{1/2} on window coefficients.

    Coefficients are indexed symmetrically: b has odd length 2J+1 with j = 0
    in the middle.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size % 2 == 0:
        raise ValidationError("coefficients must form an odd-length window")
    J = (b.size - 1) // 2
    j = np.arange(-J, J + 1)
    return float(np.sqrt(np.sum(b**2 * (1.0 + np.abs(j)) ** 2)))
