"""Approximate concentrating solutions on the tube and their correctors.

The ansatz at the three accuracy levels is

    level 0:  ψ₀ = e^{-if̃(εs)/ε} h U(kz),
    level 1:  ψ₁ = ψ₀ + ε e^{-if̃/ε} (w_r + i w_i),
    level 2:  Ψ₂ = ψ₁ + e^{-if̃/ε} (ε²ṽ + ε²v⁰ + v_δ),

with f̃ = f + εf₁ + ε²f₂, everything multiplied by the cross-section cutoff.
The tube stores the phase-factored field φ = e^{if̃/ε}ψ with the rate f̃'
(see ``tube``), so f̃ itself is never formed.
The order-ε correctors kill the O(ε) terms of S_ε(ψ₀):

    w_re = [(p-1)/θ·h^p<H,Φ> + 2f'f₁'h]·(U(kz)/((p-1)h^{p-1}) + ∇U(kz)·z/(2k)),
    w_ie = (p-1)/4·f'h'|z|²U(kz),      w_io = -Σ_j Φ_j' f' h z_j U(kz),

and w_ro solves the odd-sector equation whose solvability is exactly the
extremality condition of the limit curve.  The level-2 correctors ṽ (for the
f₂ phase freedom) and v⁰ (cancelling the parameter-independent O(ε²)
residual, even in z in the real part and odd in the imaginary part) are
obtained from sector solves of sources assembled in the closed algebra of
cross-section fields

    F(z) = A(r) + Σ_j B_j(r) ẑ_j + Σ_{ml} C_{ml}(r) ẑ_m ẑ_l,

which is all the corrector calculus produces (ℓ = 0, 2 sectors for even
sources, ℓ = 1 for odd ones).  The fast resonance component v_δ = βZ + iξW
enters through the coefficients of a ResonanceBasis window.

Every corrector solve uses the scaled model operator: factoring the phase
out of -∂²_ss leaves +(f')², so the zeroth-order coefficient is
(f')² + V = k² and the solve reduces to the unit sectors via y = kz.

The operators do not depend on the node, and every corrector source term is
a node coefficient times one of a few fixed radial functions: each sector
solves those functions once and the nodes only combine the solutions.  The
w_ro source is the combination of yU and U' whose kernel part measures the
criticality of the curve at each node.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError, CurveNotCriticalError
from .geometry import (periodic_antiderivative, periodic_derivative,
                       sample_potential)
from .radial import Sector, _derivative_rows, _interp_rows, sector_solve
from .scalings import compute_f1, compute_scalings
from .tube import (apply_S_eps, build_tube_grid, convergence_order,
                   core_radius, weighted_norm, z_spacing)

VARSIGMA = 0.5      # decay weight ς of the residual norms, 𝔭 = ς·k


@dataclass
class AnsatzParams:
    """Free parameters of the ansatz (all default to zero/absent).

    Phi: normal section samples (M, n-1); f2: second phase correction
    samples (M,); b: fast-mode coefficients over a resonance-basis window.
    """

    Phi: np.ndarray = None
    f2: np.ndarray = None
    b: np.ndarray = None
    level: int = 2

    def __post_init__(self):
        if self.level not in (0, 1, 2):
            raise ValidationError("level must be 0, 1 or 2")


@dataclass
class CorrectorSet:
    """Per-node corrector data in the scaled radial variable y = k(s̄)|z|.

    Scalar coefficient arrays have shape (M,); solved radial fields live on
    the common window ``ygrid`` as (M, ...) arrays, each the node
    coefficients times the sector solutions of the radial functions.
    ``removed_wro`` is, per node, the largest relative kernel component of
    the odd real corrector's source over the normal directions, bounded by
    the criticality of the curve.
    """

    ygrid: np.ndarray
    c_wre: np.ndarray             # w_re = c_wre·(U(y)/(p-1) + yU'(y)/2)
    c_wie: np.ndarray             # w_ie = c_wie·|z|²U(kz)
    b_wio: np.ndarray             # w_io = Σ_j b_wio[:, j]·z_j U(kz)
    w_ro: np.ndarray              # (M, d, ny) radial parts of the odd corrector
    removed_wro: np.ndarray
    c_vt: np.ndarray              # ṽ = c_vt·(U(y)/(p-1) + yU'(y)/2)
    v0_even0: np.ndarray          # (M, ny) ℓ=0 part of v⁰_re
    v0_even2: np.ndarray          # (M, d, d, ny) traceless ℓ=2 part (zero if d=1)
    v0_odd: np.ndarray            # (M, d, ny) radial parts of v⁰_io
    f1prime: np.ndarray
    f1: np.ndarray
    f1_budget: float
    source_even: tuple = None     # (A, C) even source arrays of node M-1
    source_odd: np.ndarray = None  # (d, m) odd source array B of node M-1


def build_correctors(curve, pot, sf, U, params=None, f1_drift=0.0,
                     criticality_tol=0.1):
    """All corrector data for the ansatz, one batched solve per sector operator.

    Solvability of the odd real corrector requires the curve to be critical:
    the relative kernel component of its source at each node is recorded,
    and a CurveNotCriticalError is raised when it exceeds
    ``criticality_tol``.  Every source is node coefficients times fixed
    radial functions, so each sector solves a number of rows that does not
    depend on M.
    """
    params = params or AnsatzParams()
    exps = sf.exps
    p, theta = exps.p, exps.theta
    M, d = curve.M, curve.n - 1
    y = U.grid.nodes
    Uv = U.values
    dU = U.derivative(y)
    d2U = _derivative_rows(y, dU)

    Phi = params.Phi if params.Phi is not None else np.zeros((M, d))
    f2 = params.f2 if params.f2 is not None else np.zeros(M)
    Phi = np.asarray(Phi, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    if Phi.shape != (M, d) or f2.shape != (M,):
        raise ValidationError("parameter fields must be sampled on the curve nodes")
    if U.dim != d:
        raise ValidationError("profile and curve dimensions disagree")

    h, k, fp = sf.h, sf.k, sf.fprime
    Hc = curve.curvature
    G = pot.grad_normal
    L = curve.L

    f1p = compute_f1(sf, Phi, f1_drift, curve)
    f1, f1_budget = periodic_antiderivative(f1p, L)

    # s̄-derivatives of the coefficient fields (spectral, periodic)
    hp = periodic_derivative(h, L)
    h2p = periodic_derivative(h, L, 2)
    kp = periodic_derivative(k, L)
    k2p = periodic_derivative(k, L, 2)
    fpp = periodic_derivative(fp, L)
    dH = periodic_derivative(Hc, L)
    dPhi = periodic_derivative(Phi, L)
    df2 = periodic_derivative(f2, L)

    HdotPhi = np.einsum("ij,ij->i", Hc, Phi)
    c_wre = ((p - 1.0) / theta * h**p * HdotPhi + 2.0 * fp * f1p * h) / k**2
    c_wie = 0.25 * (p - 1.0) * fp * hp
    b_wio = -fp[:, None] * h[:, None] * dPhi
    c_vt = 2.0 * fp * df2 * h / k**2

    # restrict stored radial solutions to the y-range the tube can reach
    ymax = min(U.grid.r_max, float(np.max(k)) * 40.0)
    ny = int(np.count_nonzero(y <= ymax))
    ygrid = y[:ny]

    # ---- odd real corrector w_ro: one ℓ=1 solve for all nodes -------------
    # its source at each node and normal direction is w·(yU, U'), so the
    # solves phi of those two rows give w_ro = w·phi, and the source's removed
    # kernel fraction is |w·κ|/√(w·Γ·w) with the weighted rows' kernel
    # overlaps κ and Gram matrix Γ
    vec = (2.0 * fp[:, None]**2 * Hc + G) / k[:, None]   # (2f'²H + ∇V)/k
    w = np.stack([-vec * (h / k**2)[:, None], -Hc * (h / k)[:, None]],
                 axis=-1)                             # (M, d, 2)
    r1 = Sector(U, p, "Lr", 1)                        # its kernel serves the check
    rows = np.stack([y * Uv, dU])
    phi = np.zeros((2, y.size))
    phi[:, :ny] = sector_solve(r1, rows)[0][:, :ny]
    w_ro = w @ phi[:, :ny]                            # (M, d, ny)
    rows = r1.to_phi(rows)                            # weighted, as in the solve
    wGw = np.maximum(np.einsum("ijf,fg,ijg->ij", w, rows @ rows.T, w), 0.0)
    removed = np.max(np.abs(w @ (rows @ r1.kernel))
                     / np.maximum(np.sqrt(wGw), 1e-300), axis=1)
    if np.max(removed) > criticality_tol:
        raise CurveNotCriticalError(
            "odd corrector source has a kernel component; "
            "the curve does not satisfy the extremality condition",
            float(np.max(removed)))

    # ---- level-2 sources in the section algebra ---------------------------
    # Parameter-independent parts only: w_re, w_io, f1, f2 terms are excluded
    # by construction (they carry their own bookkeeping in the expansion).
    dw = periodic_derivative(w, L)                    # ∂_s̄ at fixed y
    dphi = _derivative_rows(y, phi)
    phi_y = np.hstack([dphi[:, :1], phi[:, 1:] / y[1:]])   # phi/y, y[0] = 0
    Upm2 = np.where(Uv > 0, Uv ** (p - 2.0), 0.0)
    hpm2 = h ** (p - 2.0)
    c_ie, dc_ie = c_wie, periodic_derivative(c_wie, L)

    def sym(X):                                       # symmetrize in (m, l)
        return 0.5 * (X + X.swapaxes(1, 2))

    # even source A + Σ C_ml ẑ_m ẑ_l = Σ_f (a_f + c_f,ml ẑ_m ẑ_l)·E_f(y);
    # E_0..E_3 enter A only, then y²U, yU', phi/y, y·phi, ∂_y phi (two rows
    # each) and the four products phi_s·phi_t
    E = np.vstack([Uv, y**3 * dU, y**2 * d2U, Upm2 * y**4 * Uv**2,
                   y**2 * Uv, y * dU, phi_y, y * phi, dphi,
                   Upm2 * np.einsum("sy,ty->sty", phi, phi).reshape(4, -1)])
    a, c = np.zeros((M, E.shape[0])), np.zeros((M, d, d, E.shape[0]))
    # -(hU(kz))'' at fixed z, -f''·w_ie - 2f'·∂_s̄ w_ie, and the quadratic
    # w_ie feedback through the nonlinearity
    a[:, 0] = -h2p
    a[:, 1] = -2.0 * fp * c_ie * kp / k**3
    a[:, 2] = -h * kp**2 / k**2
    a[:, 3] = -0.5 * (p - 1.0) * hpm2 * c_ie**2 / k**4
    a[:, 4] = -(fpp * c_ie + 2.0 * fp * dc_ie) / k**2
    a[:, 5] = -(2.0 * hp * kp + h * k2p) / k
    # <H,z>²-type quadratic sources and the Hessian of V
    HH = np.einsum("im,il->iml", Hc, Hc)
    c[..., 4] = HH * (3.0 * fp**2 * h / k**2)[:, None, None] \
        + 0.5 * (h / k**2)[:, None, None] * pot.hess_normal
    c[..., 5] = HH * h[:, None, None]
    # Σ_l H^l ∂_l w_ro
    a[:, 6:8] = k[:, None] * np.einsum("ij,ijs->is", Hc, w)
    Hw = sym(np.einsum("il,ijs->iljs", k[:, None] * Hc, w))
    c[..., 6:8] = -Hw
    c[..., 10:12] = Hw
    # <H,z>·w_ro and <∇V,z>·w_ro
    c[..., 8:10] = sym(np.einsum("im,ils->imls", vec, w))
    # quadratic w_ro feedback through the nonlinearity
    c[..., 12:] = (-0.5 * p * (p - 1.0) * hpm2)[:, None, None, None] \
        * np.einsum("ims,ilt->imlst", w, w).reshape(M, d, d, 4)

    # odd imaginary source B_j = Σ_f b_jf·O_f(y)
    O = np.vstack([y * Uv, y**2 * dU, y**3 * Uv, phi, y * dphi,
                   Upm2 * y**2 * Uv * phi])
    b = np.zeros((M, d, O.shape[0]))
    b[..., 0] = Hc * ((2.0 * fpp * h + 4.0 * fp * hp + 2.0 * c_ie)
                      / k)[:, None] + dH * (fp * h / k)[:, None]
    b[..., 1] = Hc * (4.0 * fp * h * kp / k**2 + c_ie / k)[:, None]
    b[..., 2] = vec * (c_ie / k**2)[:, None]
    b[..., 3:5] = 2.0 * fp[:, None, None] * dw + fpp[:, None, None] * w
    b[..., 5:7] = (2.0 * fp * kp / k)[:, None, None] * w
    b[..., 7:9] = (-(p - 1.0) * hpm2 * c_ie / k**2)[:, None, None] * w

    # one banded solve per sector for its radial functions; the nodes only
    # combine the solutions.  The trace of C folds into the ℓ=0 sector, the
    # traceless part solves at ℓ=2, one upper-triangle entry at a time.
    tr = np.einsum("immf->if", c) / d
    v0_even0 = (-(a + tr) / k[:, None]**2) @ sector_solve(
        Sector(U, p, "Lr", 0), E)[0][:, :ny]
    v0_even2 = np.zeros((M, d, d, ny))
    if d >= 2:
        ctl = -(c - np.eye(d)[:, :, None] * tr[:, None, None])[..., 4:] \
            / k[:, None, None, None]**2
        sol2 = sector_solve(Sector(U, p, "Lr", 2), E[4:])[0][:, :ny]
        for m, l in zip(*np.triu_indices(d)):
            v0_even2[:, m, l] = v0_even2[:, l, m] = ctl[:, m, l] @ sol2
    v0_odd = (-b / k[:, None, None]**2) @ sector_solve(
        Sector(U, p, "Li", 1), O)[0][:, :ny]

    return CorrectorSet(ygrid=ygrid, c_wre=c_wre, c_wie=c_wie, b_wio=b_wio,
                        w_ro=w_ro, removed_wro=removed, c_vt=c_vt,
                        v0_even0=v0_even0, v0_even2=v0_even2, v0_odd=v0_odd,
                        f1prime=f1p, f1=f1, f1_budget=float(f1_budget),
                        source_even=(a[-1] @ E, c[-1] @ E),
                        source_odd=b[-1] @ O)


# ---------------------------------------------------------------------------
# Assembly on the tube
# ---------------------------------------------------------------------------

@dataclass
class AnsatzField:
    """Phase-factored field φ = e^{if̃/ε}ψ on the tube, with the phase rate
    f̃' = f' + εf₁' + ε²f₂' per s̄ node that apply_S_eps needs."""

    values: np.ndarray
    phase_rate: np.ndarray
    level: int
    grid: object


def assemble_ansatz(grid, curve, sf, U, correctors, params=None, basis=None):
    """Build the ansatz field of the requested level on the tube grid.

    ``basis`` (ResonanceBasis) is needed only when params.b is nonzero; the
    fast component is then v_δ = β(εs)Z(kz) + iξ(εs)W(kz) with
    β = Σ b_j β_j, ξ = Σ b_j ξ_j, and (Z, W) per node from
    ``basis.modes.crossing``, the crossing field whose Q built the basis.
    """
    params = params or AnsatzParams()
    level = params.level
    eps = grid.eps
    p = sf.exps.p
    M = curve.M
    if grid.n_s != M:
        raise ValidationError("tube grid and curve sampling disagree")

    h, k = sf.h, sf.k
    co = correctors
    d = grid.d
    shape1 = (-1,) + (1,) * d

    # the phase e^{-if̃/ε} stays factored out; only its rate f̃' is kept
    phase_rate = sf.fprime + eps * co.f1prime
    if params.f2 is not None:
        phase_rate = phase_rate + eps**2 * periodic_derivative(
            np.asarray(params.f2, dtype=float), curve.L)

    yq = k.reshape(shape1) * grid.znorm[None]             # y = k(s̄)|z|
    Uq = U(yq)
    ut0 = Uq / (p - 1.0) + 0.5 * yq * U.derivative(yq)    # U/(p-1) + yU'/2

    field = (h.reshape(shape1) * Uq).astype(complex)

    if level >= 1:
        w_re = co.c_wre.reshape(shape1) * ut0
        w_ie = co.c_wie.reshape(shape1) * grid.znorm[None] ** 2 * Uq
        w_io = np.einsum("ij,j...->i...", co.b_wio, grid.zcomp) * Uq
        w_ro = np.einsum("ij...,j...->i...",
                         _interp_rows(co.ygrid, co.w_ro, yq), grid.zhat)
        field = field + eps * ((w_re + w_ro) + 1j * (w_ie + w_io))

    if level >= 2:
        vt = co.c_vt.reshape(shape1) * ut0
        v0e = _interp_rows(co.ygrid, co.v0_even0, yq)
        if d >= 2:
            v0e += np.einsum("iml...,m...,l...->i...",
                             _interp_rows(co.ygrid, co.v0_even2, yq),
                             grid.zhat, grid.zhat)
        v0o = np.einsum("ij...,j...->i...",
                        _interp_rows(co.ygrid, co.v0_odd, yq), grid.zhat)
        field = field + eps**2 * (vt + v0e + 1j * v0o)

        if params.b is not None and np.any(np.asarray(params.b) != 0):
            if basis is None:
                raise ValidationError("fast-mode coefficients need a resonance basis")
            b = np.asarray(params.b, dtype=float)
            if b.shape != basis.nu.shape:
                raise ValidationError("coefficients must match the basis window")
            beta = b @ basis.beta
            xi = b @ basis.xi
            ZW = _interp_rows(U.grid.nodes, np.stack(
                [(m.u_values, m.v_values) for m in basis.modes.crossing]), yq)
            field = field + beta.reshape(shape1) * ZW[:, 0] \
                + 1j * xi.reshape(shape1) * ZW[:, 1]

    return AnsatzField(values=field * grid.cutoff, phase_rate=phase_rate,
                       level=level, grid=grid)


def residual_field(ansatz):
    """S_ε applied to an assembled ansatz, phase factored out."""
    return apply_S_eps(ansatz.values, ansatz.grid, ansatz.phase_rate)


def cutoff_negligibility_study(curve, V, sf, U, correctors, eps_list):
    """Effect of the cross-section cutoff, against a cutoff-free wide grid.

    The level-0 ansatz on tubes with δ̄ = 0.5, which puts the cutoff deep in
    the tail, and dz_factor 8; weights use ς = VARSIGMA.  Two quantities per
    ε:

    * the relative difference of the *reported* residual norms (ς-weighted
      sup over the window min ``core_radius``) — zero, because the window's
      z-columns are cutoff-free at every s̄ node: the s̄-derivatives act along
      those columns and the z-stencils stay inside the window's margin;
    * the relative field-level effect sup w·|Ψ_cut - Ψ_free| / sup w·|Ψ|,
      the genuinely exponentially small quantity e^{-(1-ς)(k/K)·ε^{-δ̄}}.

    Returns (norm_diffs, field_diffs, c) with c > 0 the largest constant for
    which every field difference sits below e^{-c·ε^{-δ̄}}.
    """
    delta_bar = 0.5
    norm_diffs, field_diffs = [], []
    for eps in eps_list:
        norms, fields, grids = [], [], []
        for wide in (False, True):
            grid = build_tube_grid(curve, V, sf, eps, delta_bar=delta_bar,
                                   dz_factor=8, half_width=1.6 * grids[0].R_outer
                                   if wide else None)
            if wide:
                grid = replace(grid, cutoff=np.ones_like(grid.cutoff))
            grids.append(grid)
            ans = assemble_ansatz(grid, curve, sf, U, correctors,
                                  AnsatzParams(level=0))
            res = residual_field(ans)
            z_window = float(np.min(core_radius(grid.K, eps, delta_bar,
                                                grid.dz)))
            norms.append(weighted_norm(res, grid, VARSIGMA * sf.k, z_window))
            fields.append(ans)
        norm_diffs.append(abs(norms[0] - norms[1]) / norms[1])
        # field-level effect over the narrow grid's support
        g1, g2 = grids
        n1 = g1.z_shape[0]
        lo = (g2.z_shape[0] - n1) // 2
        sub = fields[1].values[(slice(None),) + tuple(
            slice(lo, lo + n1) for _ in range(g1.d))]
        field_diffs.append(
            weighted_norm(fields[0].values - sub, g1, VARSIGMA * sf.k, np.inf)
            / weighted_norm(sub, g1, VARSIGMA * sf.k, np.inf))
    norm_diffs = np.array(norm_diffs)
    field_diffs = np.array(field_diffs)
    x = np.asarray(eps_list, dtype=float) ** (-delta_bar)
    nz = field_diffs > 0
    c_star = float(np.min(-np.log(field_diffs[nz]) / x[nz])) if nz.any() else np.inf
    return norm_diffs, field_diffs, c_star


def residual_study(curve_for, V, phase_speed, exps, U, eps_list,
                   levels=(0, 1, 2), base_M=256):
    """``residual_orders`` on a curve of N_s = ceil(base_M / max ε) nodes.

    ``curve_for(M)`` must return the concentration curve sampled at M
    nodes; its potential samples and scalings at ``phase_speed`` are built
    here, and ``base_M`` is the s-spacing 1/ds at the largest ε.  The other
    arguments and the return value are those of ``residual_orders``.
    """
    curve = curve_for(int(np.ceil(base_M / max(eps_list))))
    pot = sample_potential(V, curve)
    sf = compute_scalings(curve, pot, phase_speed, exps)
    return residual_orders(curve, V, pot, sf, U, eps_list, levels)


def residual_orders(curve, V, pot, sf, U, eps_list, levels=(0, 1, 2)):
    """Residual norms of the leveled ansatz over a family of ε, on ``curve``.

    ``pot`` and ``sf`` are the potential ``V`` sampled on the curve and the
    scalings there.  The correctors are built once, on the curve's s̄ nodes
    and with no f₁ drift: the phase-factored tube fields are smooth in s̄,
    so one s̄ grid that resolves the curve's coefficients serves every ε.
    For each ε only the tube grid is built (cutoff exponent δ̄ = 0.25,
    dz_factor 16), and the requested ansatz levels are assembled and
    measured in the norm weighted by ς = VARSIGMA.  All ε are measured over
    the common z-window given by the largest ε's cutoff interior
    (``core_radius``), keeping the log-log order fits free of window
    effects.  Each ε's tube grid covers only that window plus the stencil
    margin, so its size does not grow with 1/ε: at a window node the
    cutoff is 1, the field is assembled pointwise, and S_ε reads only the
    node's z-column and 2 nodes either side, so the norms equal those of
    the full grid bit for bit.  Returns (records, fits); a repeated ε or
    level, which would fit an order to fewer distinct points than it
    counts, raises ValidationError.
    """
    eps_list = list(eps_list)
    if len(set(eps_list)) < len(eps_list) or len(set(levels)) < len(levels):
        raise ValidationError("eps_list and levels must not repeat a value")
    delta_bar, dz_factor = 0.25, 16
    correctors = build_correctors(curve, pot, sf, U)
    dz = z_spacing(sf, dz_factor)
    z_window = min(float(np.min(core_radius(np.sqrt(pot.values), eps,
                                            delta_bar, dz)))
                   for eps in eps_list)

    records = []
    for eps in eps_list:
        grid = build_tube_grid(curve, V, sf, eps, delta_bar=delta_bar,
                               half_width=z_window, dz_factor=dz_factor)
        for level in levels:
            ans = assemble_ansatz(grid, curve, sf, U, correctors,
                                  AnsatzParams(level=level))
            res = residual_field(ans)
            nrm = weighted_norm(res, grid, VARSIGMA * sf.k, z_window)
            records.append({"eps": float(eps), "level": int(level),
                            "norm": float(nrm)})

    fits = {}
    for level in levels:
        norms = [r["norm"] for r in records if r["level"] == level]
        slope, intercept, dev = convergence_order(eps_list, norms)
        fits[int(level)] = {"slope": slope, "intercept": intercept,
                            "deviations": dev.tolist()}
    return records, fits
