"""Fast-oscillation resonance layer along the curve.

The near-zero eigenvalues of the linearized operator coming from transverse
frequencies of order 1/ε are governed by the weighted periodic problem

    -ε²ξ'' - k²ᾱ²ξ = ν / (1 + 2f'Q₃/(kᾱ)) · ξ       on [0, L],

whose eigenvalues behave like ν_j = Ĉ₀ εj + O(ε²j² + ε) once re-indexed so
j = 0 is the first nonnegative one.  Each eigenfunction ξ_j gets a companion
β_j and small corrections γ_j, κ_j; with those the pair (β_j, ξ_j)
satisfies the coupled first-order system up to O(ν_j² + ε).  The quadratic
form that controls these degrees of freedom,

    Λ₀ = ∫ Q₁(ε²β'β̲' - k²ᾱ²ββ̲) + Q₂(ε²ξ'ξ̲' - k²ᾱ²ξξ̲)
         + 2f'Q₃(εβ'ξ̲ - εξ'β̲ - kᾱββ̲ - kᾱξξ̲) ds̄,

is nearly diagonal in the (β_j) coordinates with approximate eigenvalues
ν_j; scanning ε for a spectral gap of Λ₀ (relative to the weighted mass)
selects the admissible values ε_k.  The crossing enters only through ᾱ
and the overlap integrals Q of its pair (Z, W): one FastModes of (sf,
crossing), the per-node CrossingMode list of spectrum.alpha_field, gathers
both once and does the ε-free work; ``resonance_eigenpairs`` builds every
ResonanceBasis from it, one per ε, the gap scan's too, and the ansatz reads
(Z, W) from the same list.

Everything here uses Fourier collocation in s̄: the coefficients are smooth
periodic fields, so the discretization is spectrally accurate.  Derivatives
of nodal fields come from ``geometry.periodic_derivative``; the collocation
matrix D2 (``geometry.fourier_diff_matrices``) is built only for the
eigensolve, once per FastModes.  The index j_ε needs no solve per ε:
ν = 0 exactly when −ε²ξ'' = k²ᾱ²ξ, whatever the weight, so j_ε is the number
of eigenvalues θ of the ε-free pencil −ξ'' = θk²ᾱ²ξ with ε²θ < 1 (Sylvester's
law), and one list of θ serves every ε of a scan.

FastModes folds C(ε) into blocks once: one, C(ε) whole, or, when the
coefficients are mirror-symmetric about node 0 (an ellipse, whose node 0 is
a vertex), an even and an odd block of about M/2 rows each, since C(ε) then
commutes with the reflection s̄ → −s̄.  θ is the union of the blocks' pencil
spectra.  At each ε resonance_eigenpairs slices or solves each block for
its part of the window, and a stable sort merges the parts.  A block is
sliced when the coefficients are constant (a circle): C(ε) is then a scalar
multiple of ε²K̃ − I, every ε shares the eigenvectors of K̃, and the window
is a slice of the one pencil eigendecomposition, with no solve per ε.
Otherwise each ε solves only the block's eigenpairs around its own count.
Two half-size reductions cost about half of one full one, and a parity
block's vectors are even or odd, so a pair of ν split by round-off comes
out as its parity vectors, not as a rotation that round-off picks.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh

from .errors import ValidationError, PhaseLawError
from .geometry import fourier_diff_matrices, periodic_derivative

# Relative spread below which kᾱ and the weight count as constant along the
# curve: a circle spreads them by at most one rounding step, an ellipse by
# 1e-1 (kᾱ) and 3e-3 (weight).
CONSTANT_RTOL = 8 * np.finfo(float).eps
# Gap between sorted ν, relative to max |ν| of the window, up to which they
# form one cluster in verify_coupled_system: a circle's Fourier pairs split
# by round-off (1e-14), the 0.85:0.6 ellipse's by 2e-9 at ε = 0.05, and
# distinct modes by about 1/J, J the half-width of the window.
NU_CLUSTER_RTOL = 1e-6


def _mirror_bases(M):
    """Orthonormal bases of the nodal vectors even and odd about node 0,
    x[i] = ±x[−i mod M], each with the node that stands for each column.

    The even basis has ⌊M/2⌋ + 1 columns: node 0 and, for even M, node M/2
    with weight 1, and each pair (k, M − k) with 1/√2.  The odd basis has
    ⌈M/2⌉ − 1 columns, the pairs with ±1/√2.
    """
    k = np.arange(1, (M + 1) // 2)
    even, odd = np.zeros((M, M // 2 + 1)), np.zeros((M, k.size))
    even[0, 0] = 1.0
    if M % 2 == 0:
        even[M // 2, M // 2] = 1.0
    even[k, k] = even[M - k, k] = odd[k, k - 1] = np.sqrt(0.5)
    odd[M - k, k - 1] = -np.sqrt(0.5)
    return (even, np.arange(M // 2 + 1)), (odd, k)


@dataclass
class ResonanceBasis:
    """Re-indexed fast-mode eigenbasis with companions.

    Arrays are indexed [j, node] with j running over the window
    [-J, ..., J], J = floor(δ²/ε); ``window`` maps row a to j = a - J.
    ``nu`` holds the re-indexed eigenvalues (nu[J] is the first nonnegative
    one) and ``dxi`` the derivatives ξ_j' of the eigenfunctions; ``modes``
    is the FastModes that resonance_eigenpairs made it from.
    """

    eps: float
    nu: np.ndarray
    xi: np.ndarray
    dxi: np.ndarray
    beta: np.ndarray
    j_eps: int
    modes: "FastModes"

    @property
    def window(self):
        J = (self.nu.size - 1) // 2
        return np.arange(-J, J + 1)


class Block(NamedTuple):
    """The block ε²A − diag(G) = PᵀC(ε)P, P orthonormal with one nonzero
    per row at most, kept as P·v = weight·v[column]; ``theta`` is the pencil
    spectrum of PᵀK̃P.  With constant coefficients ``vectors`` holds its
    eigenvectors, which every window slices, and A is None; otherwise
    ``vectors`` is None and each window solves the block."""

    column: np.ndarray
    weight: np.ndarray
    A: np.ndarray
    G: np.ndarray
    theta: np.ndarray
    vectors: np.ndarray


class FastModes:
    """The weighted periodic eigenproblem of the crossing field, ready for
    any ε.

    The ε-free half of the layer, whose per-ε entry point is
    resonance_eigenpairs: one instance serves every ε of a gap scan,
    resonance basis and oracle of (sf, crossing), where ``crossing`` is the
    per-node CrossingMode list of spectrum.alpha_field, kept as given.  It
    gathers ᾱ (``abar``) and the overlap integrals Q₁ = ∫Z², Q₂ = ∫W²,
    Q₃ = ∫ZW (``q1``, ``q2``, ``q3``, the modes' ``q``) once per node, with
    ``ka`` = kᾱ, the weight ``wfun`` = 1 + 2f'Q₃/(kᾱ) and
    ``diag`` = k²ᾱ²·wfun = k²ᾱ² + 2f'kᾱQ₃, which C(ε), β and κ all read.

    With B = diag(1/wfun) and S = diag(√wfun), A·x = ν·B·x is the standard
    problem C(ε)·y = ν·y for C = S·A·S and x = S·y, and yᵀy = 1 gives
    xᵀBx = 1.  D2, the weight and the pencil spectrum θ of
    K̃ = −diag(1/kᾱ)·D2·diag(1/kᾱ) are built once.  Since
    C(ε) = G^{1/2}(ε²K̃ − I)G^{1/2} with G = diag(k²ᾱ²·wfun) > 0, Sylvester's
    law makes the number of negative ν at any ε the number of θ below 1/ε².

    ``coefficients`` names the class of kᾱ and the weight, tested in this
    order, each to CONSTANT_RTOL: ``"constant"``, ``"mirror"`` (both even
    about node 0, x[i] = x[−i mod M]) or ``"general"``.  The class decides
    only which ``blocks`` are built and whether they keep eigenvectors.  A
    mirror-symmetric curve averages each mirror pair of kᾱ and of the
    weight, so C(ε) and K̃ commute with the reflection exactly, and folds
    −S·D2·S and K̃ once into an even block (⌊M/2⌋ + 1 rows: node 0, node M/2
    for even M, and the pairs (k, M − k) with 1/√2) and an odd one
    (⌈M/2⌉ − 1 rows, the pairs with ±1/√2); any other has one block, C(ε)
    whole.  With constant coefficients G is the scalar g = k²ᾱ²·wfun, so
    C(ε) = g(ε²K̃ − I) has the eigenvectors of K̃ at every ε and
    ν_i = g(ε²θ_i − 1): the block keeps those eigenvectors.  This is the one
    constant-coefficient test, which the arithmetic oracle reads.

    Sylvester's law holds block by block, so θ, the sorted union of the
    blocks' spectra, counts j_ε.  resonance_eigenpairs slices or solves each
    block for [j_b − J, j_b + J] cut to the block, j_b its own count:
    together they hold the J largest negative and the J + 1 smallest
    nonnegative ν of C(ε), and a stable sort of the merged ν keeps J below
    zero and J + 1 from zero.
    """

    def __init__(self, sf, crossing):
        self.sf, self.crossing = sf, crossing
        self.abar = np.array([m.alpha_bar for m in crossing])
        self.q1, self.q2, self.q3 = np.array([m.q for m in crossing]).T.copy()
        ka = sf.k * self.abar
        wfun = 1.0 + 2.0 * sf.fprime * self.q3 / ka
        if np.any(wfun <= 0):
            raise PhaseLawError("resonance weight lost positivity; "
                                "phase-speed constant too large")
        M = sf.s.size
        mirror = -np.arange(M) % M
        if all(np.ptp(x) <= CONSTANT_RTOL * np.max(np.abs(x)) for x in (ka, wfun)):
            self.coefficients = "constant"
        elif all(np.max(np.abs(x - x[mirror])) <= CONSTANT_RTOL * np.max(np.abs(x))
                 for x in (ka, wfun)):
            self.coefficients = "mirror"
            ka, wfun = (0.5 * (x + x[mirror]) for x in (ka, wfun))
        else:
            self.coefficients = "general"
        self.ka, self.wfun, self.sw = ka, wfun, np.sqrt(wfun)
        self.diag = ka**2 * wfun
        self.D2 = fourier_diff_matrices(M, sf.L)[1]
        bases = (_mirror_bases(M) if self.coefficients == "mirror"
                 else [(None, np.arange(M))])
        self.blocks = [self._fold(P, nodes) for P, nodes in bases]
        self.theta = np.sort(np.concatenate([block.theta for block in self.blocks]))

    def _fold(self, P, nodes):
        """The Block of the basis P, whose column c spans node ``nodes[c]``
        (and its mirror image), where S, G and kᾱ take one value; P None is
        the identity, whose block is C(ε) itself."""
        if P is None:
            D2, column, weight = self.D2, nodes, np.ones(nodes.size)
        else:
            D2 = P.T @ self.D2 @ P
            column = np.argmax(np.abs(P), axis=1)
            weight = P[np.arange(P.shape[0]), column]
        sw, ka = self.sw[nodes], self.ka[nodes]
        if self.coefficients == "constant":
            # evd, not the default evr: K̃'s exactly paired eigenvalues make
            # evr's vectors several times slower than the whole evd solve
            theta, vectors = eigh(-D2 / np.outer(ka, ka), driver="evd")
            A = None
        else:
            theta, vectors = eigh(-D2 / np.outer(ka, ka), eigvals_only=True), None
            A = -D2 * np.outer(sw, sw)
        return Block(column, weight, A, self.diag[nodes], theta, vectors)

    def matrix(self, eps):
        """C(ε) = −ε²·S·D2·S − diag(k²ᾱ²·wfun), whole, whatever the blocks."""
        C = -eps**2 * self.D2 * np.outer(self.sw, self.sw)
        C[np.diag_indices(self.sf.s.size)] -= self.diag
        return C

    def count(self, eps):
        """j_ε: the number of negative eigenvalues of C(ε), ε²θ < 1."""
        return int(np.searchsorted(self.theta, 1.0 / eps**2))


def resonance_eigenpairs(modes, eps, delta=0.3):
    """The basis of the FastModes ``modes`` at ε: ν, ξ, ξ' and β (what Λ₀
    reads) over |j| <= floor(δ²/ε) around j_ε, merged from the blocks'
    parts.  The basis keeps ``modes``, so ``basis.modes.crossing`` is the
    crossing field whose Q built it and whose pair (Z, W) the ansatz's fast
    component reads.

    Eigenpairs are re-indexed around the first nonnegative eigenvalue and
    restricted to |j| <= floor(δ²/ε): the index j_ε of that eigenvalue is the
    number of eigenvalues θ of the ε-free pencil −ξ'' = θk²ᾱ²ξ with ε²θ < 1
    (ν = 0 exactly when ε²θ = 1, whatever the weight), and only the window's
    eigenpairs are computed.  The companion is

        β_j = -(1/kᾱ)(1 - Q₁ν_j/(k²ᾱ² + 2f'kᾱQ₃))·εξ_j'.
    """
    sf, ka = modes.sf, modes.ka
    M, L = sf.s.size, sf.L
    j_eps = modes.count(eps)
    J = int(np.floor(delta**2 / eps))
    if j_eps - J < 0 or j_eps + J >= M:
        raise ValidationError(
            f"index window [{-J}, {J}] around j_eps={j_eps} leaves the grid; "
            f"use more curve nodes or a larger eps")
    nus, ys, below = [], [], 0
    for column, weight, A, G, theta, vectors in modes.blocks:
        j = int(np.searchsorted(theta, 1.0 / eps**2))
        lo, hi = max(0, j - J), min(theta.size - 1, j + J)
        if lo > hi:
            continue
        if vectors is None:
            C = eps**2 * A
            C[np.diag_indices_from(C)] -= G
            nu, v = eigh(C, subset_by_index=[lo, hi])
        else:
            nu = G[0] * (eps**2 * theta[lo: hi + 1] - 1.0)
            v = vectors[:, lo: hi + 1]
        nus.append(nu)
        ys.append(weight[:, None] * v[column])
        below += j - lo
    nu = np.concatenate(nus)
    keep = np.argsort(nu, kind="stable")[below - J: below + J + 1]
    nu, y = nu[keep], np.hstack(ys)[:, keep]
    vecs = modes.sw[:, None] * y / np.sqrt(L / M)   # ∫ ξ²/wfun ds̄ = 1
    dxi = periodic_derivative(vecs, L).T
    beta = -(1.0 / ka) * (1.0 - modes.q1 * nu[:, None] / modes.diag) * eps * dxi
    return ResonanceBasis(eps=eps, nu=nu, xi=vecs.T, dxi=dxi, beta=beta,
                          j_eps=j_eps, modes=modes)


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

    Inside a cluster of equal ν (on a circle, the two Fourier modes of each
    0 < m < M/2; ν within NU_CLUSTER_RTOL·max|ν| of each other) the
    eigenvectors are fixed only up to a rotation of the cluster.  So the
    lines take the cluster's mean ν, each line is measured per node by its
    Euclidean norm across the cluster, which a rotation does not change, and
    each j reports its cluster's sup over the nodes.

    Returns (max residual, per-j residual array).
    """
    modes = basis.modes
    q1, q2, q3 = (q[:, None] for q in (modes.q1, modes.q2, modes.q3))
    sf, fp, ka = modes.sf, modes.sf.fprime[:, None], modes.ka[:, None]
    eps, L = basis.eps, sf.L
    order = np.argsort(basis.nu)
    cluster = np.empty(basis.nu.size, dtype=int)
    cluster[order] = np.cumsum(np.concatenate([[0], np.diff(basis.nu[order])
                               > NU_CLUSTER_RTOL * np.max(np.abs(basis.nu))]))
    nu = (np.bincount(cluster, basis.nu) / np.bincount(cluster))[cluster]
    b, x = basis.beta.T, basis.xi.T                   # [node, j]
    line1 = -eps**2 * periodic_derivative(b, L, 2) - ka**2 * b - nu * b
    line2 = -eps**2 * periodic_derivative(x, L, 2) - ka**2 * x - nu * x
    if np.any(fp != 0):
        line1 -= 2.0 * fp * (q3 / q1) * (eps * basis.dxi.T + ka * b)
        line2 += 2.0 * fp * (q3 / np.maximum(q2, 1e-300)) \
            * (eps * periodic_derivative(b, L) - ka * x)
    same = (cluster[:, None] == cluster).astype(float)
    res = np.maximum(*(np.max(np.sqrt(line**2 @ same), axis=0)
                       for line in (line1, line2)))
    return float(np.max(res)), res


def correction_identities(basis):
    """Sup norms of the γ/κ relations, each expected O(ν_j²).

    The corrections come from the cancellation conditions that define them,

        γ_j = -(εξ_j' + kᾱβ_j)/(2kQ₁),
        κ_j = -(kᾱξ_j - εβ_j')/(2kQ₂).

    At zero phase speed Q₂ vanishes together with the numerator of κ_j; the
    algebraically equivalent stable form κ_j = ν_j ξ_j/(2k(kᾱ + 2f'Q₃)) is
    used there, with kᾱ + 2f'Q₃ = k²ᾱ²·wfun/(kᾱ) read off ``modes.diag``.

    Checks -ε²γ'' - ᾱ²k²γ and (-kᾱκ + εγ') per j on the basis's unit
    eigenfunctions, returning the two arrays max-ed over nodes.
    """
    modes, eps = basis.modes, basis.eps
    k, L, ka = modes.sf.k, modes.sf.L, modes.ka
    nu, xi, dxi, beta = basis.nu, basis.xi, basis.dxi, basis.beta
    gamma = -(eps * dxi + ka * beta) / (2.0 * k * modes.q1)
    if np.min(modes.q2) > 1e-10:
        dbeta = periodic_derivative(beta.T, L).T
        kappa = -(ka * xi - eps * dbeta) / (2.0 * k * modes.q2)
    else:
        kappa = nu[:, None] * xi * ka / (2.0 * k * modes.diag)
    ka = ka[:, None]
    g, kp = gamma.T, kappa.T                          # [node, j]
    r1 = np.max(np.abs(-eps**2 * periodic_derivative(g, L, 2) - ka**2 * g), axis=0)
    r2 = np.max(np.abs(-ka * kp + eps * periodic_derivative(g, L)), axis=0)
    return r1, r2


def assemble_lambda0(basis):
    """Λ₀ and the weighted mass matrix in the β_j coordinates.

    Returns (lambda0, mass, asymmetry): the quadratic form is symmetrized
    (for variable coefficients the εβ'ξ̲-block is symmetric only up to an
    O(ε) coefficient-derivative term, which the reported asymmetry tracks).
    """
    modes = basis.modes
    sf, ka, q1, q2 = modes.sf, modes.ka, modes.q1, modes.q2
    fp, eps, ds = sf.fprime, basis.eps, sf.L / sf.s.size

    Bm, Xm = basis.beta, basis.xi
    dB = periodic_derivative(Bm.T, sf.L).T
    dX = basis.dxi

    def quad(fa, fb, w):
        return (fa * w) @ fb.T * ds

    cross = 2.0 * fp * modes.q3
    lam = (eps**2 * quad(dB, dB, q1) - quad(Bm, Bm, q1 * ka**2)
           + eps**2 * quad(dX, dX, q2) - quad(Xm, Xm, q2 * ka**2))
    # 2f'Q₃(εβ'ξ̲ - εξ'β̲ - kᾱββ̲ - kᾱξξ̲): rows unbarred, columns barred
    lam += eps * quad(dB, Xm, cross) - eps * quad(dX, Bm, cross) \
        - quad(Bm, Bm, cross * ka) - quad(Xm, Xm, cross * ka)

    mass = quad(Bm, Bm, q1) + quad(Xm, Xm, q2)
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
    by ε²θ < 1) is done once, in the FastModes ``modes``; each ε builds its
    basis with resonance_eigenpairs, which slices or solves only its window,
    block by block.  ``eps_grid`` must be descending.  Returns a list of records with the
    minimal |generalized eigenvalue| and the admissibility flag.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if np.any(np.diff(eps_grid) >= 0):
        raise ValidationError("eps grid must be strictly descending")
    records = []
    for eps in eps_grid:
        vals = lambda0_spectrum(resonance_eigenpairs(modes, eps, delta))
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
    """Arithmetic in-window eigenvalues for a FastModes that found kᾱ and the
    weight constant (ValidationError for any other).

    Its eigenfunctions are Fourier modes and, with kᾱ and the weight of node 0,

        ν(m) = (ε²(2πm/L)² - k²ᾱ²)·(1 + 2f'Q₃/(kᾱ)),

    with multiplicity two for 0 < m < M/2.  The multiset is sorted and
    re-indexed exactly as resonance_eigenpairs does, so the window contents
    can be compared elementwise.  No eigensolver involved.
    """
    if modes.coefficients != "constant":
        raise ValidationError("oracle needs constant coefficients")
    M, L = modes.sf.s.size, modes.sf.L
    m = np.arange(M // 2 + 1)
    nu = (eps**2 * (2 * np.pi * m / L) ** 2 - modes.ka[0]**2) * modes.wfun[0]
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
