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

The operators do not depend on the node, so each sector operator is
factored once (one banded factorization) and solved with the sources of all
curve nodes as its columns.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, CurveNotCriticalError, IllPosedSolveError
from .geometry import (periodic_antiderivative, periodic_derivative,
                       sample_potential)
from .radial import SectorOperator, sector_solve
from .scalings import compute_f1, compute_scalings
from .tube import (apply_S_eps, build_tube_grid, convergence_order,
                   weighted_norm)


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
    the common window ``ygrid`` as (M, ...) arrays.  ``removed_wro`` is the
    relative kernel component projected out of the odd real solve, bounded
    by the criticality of the curve.
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

    Solvability of the odd real corrector requires the curve to be critical;
    the relative kernel component removed from its right-hand side is
    recorded, and a CurveNotCriticalError is raised when it exceeds
    ``criticality_tol``.
    """
    params = params or AnsatzParams()
    exps = sf.exps
    p, theta = exps.p, exps.theta
    M, d = curve.M, curve.n - 1
    r = U.grid.nodes
    y = r
    Uv = U.values
    dU = U.derivative(r)
    d2U = np.gradient(dU, y, edge_order=2)

    Phi = params.Phi if params.Phi is not None else np.zeros((M, d))
    f2 = params.f2 if params.f2 is not None else np.zeros(M)
    Phi = np.asarray(Phi, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    if Phi.shape != (M, d) or f2.shape != (M,):
        raise ValidationError("parameter fields must be sampled on the curve nodes")

    h, k, fp = sf.h, sf.k, sf.fprime
    Hc = curve.curvature
    G = pot.grad_normal
    L = curve.L

    f1p = compute_f1(sf, Phi, f1_drift, curve, pot)
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
    ny = int(np.count_nonzero(r <= ymax))
    ygrid = r[:ny]

    # ---- odd real corrector w_ro: one ℓ=1 solve for all nodes -------------
    op_r1 = SectorOperator("Lr", 1, 0.0, d, p)
    q = ((-(2.0 * fp[:, None]**2 * Hc + G) * (h / k)[:, None])[..., None] * y * Uv
         - ((h * k)[:, None] * Hc)[..., None] * dU) / (k**2)[:, None, None]
    try:
        w_ro, removed = sector_solve(op_r1, U, q, ill_posed_tol=criticality_tol)
    except IllPosedSolveError as exc:
        raise CurveNotCriticalError(
            "odd corrector source has a kernel component; "
            "the curve does not satisfy the extremality condition",
            exc.overlap) from exc
    del q                                             # free before level 2
    w_ro = w_ro[..., :ny]                             # (M, d, ny)
    removed = np.max(removed, axis=1)

    # ---- level-2 sources in the section algebra ---------------------------
    # Parameter-independent parts only: w_re, w_io, f1, f2 terms are excluded
    # by construction (they carry their own bookkeeping in the expansion).
    dw_ro = periodic_derivative(w_ro, L)              # ∂_s̄ at fixed y
    yU, y2U, y3U = y * Uv, y**2 * Uv, y**3 * Uv
    ydU, y2dU = y * dU, y**2 * dU
    Upm2 = np.where(Uv > 0, Uv ** (p - 2.0), 0.0)

    c_ie = c_wie
    dc_ie = periodic_derivative(c_ie, L)

    # right-hand sides of the ℓ=0, traceless ℓ=2 (upper triangle) and odd
    # imaginary ℓ=1 solves, one row per node
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

    # one banded solve per sector operator, all nodes as right-hand sides
    v0_even0 = sector_solve(SectorOperator("Lr", 0, 0.0, d, p), U,
                            rhs_even0)[0][:, :ny]
    v0_even2 = np.zeros((M, d, d, ny))
    if d >= 2:
        sol2 = sector_solve(SectorOperator("Lr", 2, 0.0, d, p), U,
                            rhs_even2)[0][..., :ny]
        v0_even2[:, upper[0], upper[1]] = sol2
        v0_even2[:, upper[1], upper[0]] = sol2
    v0_odd = sector_solve(SectorOperator("Li", 1, 0.0, d, p), U,
                          rhs_odd)[0][..., :ny]

    return CorrectorSet(ygrid=ygrid, c_wre=c_wre, c_wie=c_wie, b_wio=b_wio,
                        w_ro=w_ro, removed_wro=removed, c_vt=c_vt,
                        v0_even0=v0_even0, v0_even2=v0_even2, v0_odd=v0_odd,
                        f1prime=f1p, f1=f1, f1_budget=float(f1_budget),
                        source_even=(A, C), source_odd=B)


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


def _interp_rows(ygrid, rows, yq):
    """Row-wise linear interpolation, zero past the last node.

    ``ygrid`` is uniform from 0; rows (M, ny) are evaluated at yq (M, ...),
    yq >= 0, row i at yq[i].
    """
    M, ny = rows.shape
    t = yq.reshape(M, -1) / ygrid[1]
    j = np.minimum(t, ny - 2).astype(np.intp)
    lo = np.take_along_axis(rows, j, axis=1)
    hi = np.take_along_axis(rows, j + 1, axis=1)
    out = lo + (t - j) * (hi - lo)
    out[yq.reshape(M, -1) > ygrid[-1]] = 0.0
    return out.reshape(yq.shape)


def assemble_ansatz(grid, curve, sf, U, correctors, params=None, crossing=None,
                    basis=None):
    """Build the ansatz field of the requested level on the tube grid.

    ``crossing`` (per-node CrossingMode list) and ``basis`` (ResonanceBasis)
    are needed only when params.b is nonzero; the fast component is then
    v_δ = β(εs)Z(kz) + iξ(εs)W(kz) with β = Σ b_j β_j, ξ = Σ b_j ξ_j.
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
        w_ro = np.zeros(field.shape)
        for j in range(d):
            radj = _interp_rows(co.ygrid, co.w_ro[:, j], yq)
            w_ro += radj * grid.zhat[j][None]
        field = field + eps * ((w_re + w_ro) + 1j * (w_ie + w_io))

    if level >= 2:
        vt = co.c_vt.reshape(shape1) * ut0
        v0e = _interp_rows(co.ygrid, co.v0_even0, yq)
        if d >= 2:
            for m in range(d):
                for l in range(d):
                    v0e += _interp_rows(co.ygrid, co.v0_even2[:, m, l], yq) \
                        * grid.zhat[m][None] * grid.zhat[l][None]
        v0o = np.zeros(field.shape)
        for j in range(d):
            v0o += _interp_rows(co.ygrid, co.v0_odd[:, j], yq) \
                * grid.zhat[j][None]
        field = field + eps**2 * (vt + v0e + 1j * v0o)

        if params.b is not None and np.any(np.asarray(params.b) != 0):
            if basis is None or crossing is None:
                raise ValidationError("fast-mode coefficients need a resonance "
                                      "basis and crossing modes")
            b = np.asarray(params.b, dtype=float)
            if b.shape != basis.nu.shape:
                raise ValidationError("coefficients must match the basis window")
            beta = b @ basis.beta
            xi = b @ basis.xi
            Zrows = np.stack([m.u_values for m in crossing])
            Wrows = np.stack([m.v_values for m in crossing])
            Zq = _interp_rows(U.grid.nodes, Zrows, yq)
            Wq = _interp_rows(U.grid.nodes, Wrows, yq)
            field = field + beta.reshape(shape1) * Zq \
                + 1j * xi.reshape(shape1) * Wq

    return AnsatzField(values=field * grid.cutoff, phase_rate=phase_rate,
                       level=level, grid=grid)


def residual_field(ansatz):
    """S_ε applied to an assembled ansatz, phase factored out."""
    return apply_S_eps(ansatz.values, ansatz.grid, ansatz.phase_rate)


def residual_norm(ansatz, sf, varsigma=0.5):
    """Weighted sup of S_ε(ansatz) on the core, decay weight 𝔭 = ς·k(εs)."""
    res = residual_field(ansatz)
    return weighted_norm(res, ansatz.grid, varsigma * sf.k)


def cutoff_negligibility_study(curve, V, sf, U, correctors, eps_list,
                               delta_bar=0.5, level=0, dz_factor=8,
                               varsigma=0.5):
    """Effect of the cross-section cutoff, against a cutoff-free wide grid.

    Two quantities per ε:

    * the relative difference of the *reported* residual norms (ς-weighted
      sup over the cutoff-interior window) — zero, because the window's
      z-columns are cutoff-free at every s̄ node: the s̄-derivatives act along
      those columns and the z-stencils stay inside the window's margin;
    * the relative field-level effect sup w·|Ψ_cut - Ψ_free| / sup w·|Ψ|,
      the genuinely exponentially small quantity e^{-(1-ς)(k/K)·ε^{-δ̄}}.

    Returns (norm_diffs, field_diffs, c) with c > 0 the largest constant for
    which every field difference sits below e^{-c·ε^{-δ̄}}.
    """
    norm_diffs, field_diffs = [], []
    for eps in eps_list:
        norms, fields = [], []
        grids = []
        for wide, off in ((False, False), (True, True)):
            grid = build_tube_grid(curve, V, sf, eps, sf.exps.p,
                                   delta_bar=delta_bar, dz_factor=dz_factor,
                                   radius_factor=1.6 if wide else 1.0,
                                   cutoff_off=off)
            grids.append(grid)
            ans = assemble_ansatz(grid, curve, sf, U, correctors,
                                  AnsatzParams(level=level))
            res = residual_field(ans)
            zwin = eps ** (-delta_bar) / np.max(grid.K) - 4 * grid.dz
            norms.append(weighted_norm(res, grid, varsigma * sf.k, "sup",
                                       "all", z_window=zwin))
            fields.append(ans)
        norm_diffs.append(abs(norms[0] - norms[1]) / norms[1])
        # field-level effect over the narrow grid's support
        g1, g2 = grids
        n1 = g1.z_shape[0]
        lo = (g2.z_shape[0] - n1) // 2
        sub = fields[1].values[(slice(None),) + tuple(
            slice(lo, lo + n1) for _ in range(g1.d))]
        w = np.exp(varsigma * sf.k.reshape(-1, *([1] * g1.d)) * g1.znorm[None])
        fd = np.max(w * np.abs(fields[0].values - sub)) \
            / np.max(w * np.abs(sub))
        field_diffs.append(fd)
    norm_diffs = np.array(norm_diffs)
    field_diffs = np.array(field_diffs)
    x = np.asarray(eps_list, dtype=float) ** (-delta_bar)
    nz = field_diffs > 0
    c_star = float(np.min(-np.log(field_diffs[nz]) / x[nz])) if nz.any() else np.inf
    return norm_diffs, field_diffs, c_star


def residual_study(curve_for, V, phase_speed, exps, U, eps_list,
                   levels=(0, 1, 2), base_M=256, delta_bar=0.25,
                   varsigma=0.5, dz_factor=16, f1_drift=0.0):
    """Residual norms of the leveled ansatz over a family of ε.

    ``curve_for(M)`` must return the concentration curve sampled at M nodes.
    The curve, scalings and correctors are built once, at
    N_s = ceil(base_M / max ε) nodes: the phase-factored tube fields are
    smooth in s̄, so one s̄ grid serves every ε, and ``base_M`` is the
    s-spacing 1/ds at the largest ε.  For each ε only the tube grid is
    built, and the requested ansatz levels are assembled and measured.  All
    ε are measured over the common z-window given by the largest ε's cutoff
    interior, keeping the log-log order fits free of window effects.
    Returns (records, fits).
    """
    eps_list = list(eps_list)
    curve = curve_for(int(np.ceil(base_M / max(eps_list))))
    pot = sample_potential(V, curve)
    sf = compute_scalings(curve, pot, phase_speed, exps)
    correctors = build_correctors(curve, pot, sf, U, f1_drift=f1_drift)
    grids = [build_tube_grid(curve, V, sf, eps, exps.p, delta_bar=delta_bar,
                             dz_factor=dz_factor) for eps in eps_list]
    z_window = min(float(np.min(grid.core_radius)) for grid in grids)

    records = []
    for eps, grid in zip(eps_list, grids):
        for level in levels:
            ans = assemble_ansatz(grid, curve, sf, U, correctors,
                                  AnsatzParams(level=level))
            res = residual_field(ans)
            nrm = weighted_norm(res, grid, varsigma * sf.k, z_window=z_window)
            records.append({"eps": float(eps), "level": int(level),
                            "norm": float(nrm)})

    fits = {}
    for level in levels:
        norms = [r["norm"] for r in records if r["level"] == level]
        slope, intercept, dev = convergence_order(eps_list, norms)
        fits[int(level)] = {"slope": slope, "intercept": intercept,
                            "deviations": dev.tolist()}
    return records, fits
