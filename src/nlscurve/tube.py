"""Discretized tube around the scaled curve and the NLS operator on it.

Coordinates: s along the dilated curve (s̄ = εs, s ∈ [0, L/ε)) and normal
coordinates z ∈ R^{n-1} in the parallel frame.  In flat space the Fermi
metric is exact,

    g_11 = (1 - ε<H(εs), z>)² =: a²,    g_1j = 0,    g_jl = δ_jl,

so the operator

    S_ε(ψ) = -Δ_g ψ + V(εx)ψ - |ψ|^{p-1}ψ

has Laplacian a^{-2}∂²_s ψ - a^{-3}(∂_s a)∂_s ψ + Σ_j (∂²_j ψ - εH^j/a ∂_j ψ)
with ∂_j a = -εH^j exact (a is linear in z) and ∂_s a = -ε²<H'(εs), z>.

Fields are stored phase-factored, ψ = e^{-if̃(s̄)/ε}φ with φ smooth and
periodic in s̄.  As e^{if̃/ε}∂_s e^{-if̃/ε} = ε∂_s̄ - if̃'(s̄) exactly, S_ε
acts on φ through spectral s̄-derivatives on the curve's s̄ grid, whose size
does not depend on ε.  Moduli, hence the nonlinearity and every weighted
norm, are unchanged.  z-boundaries carry zero padding, exact because the
cutoff vanishes on the outermost nodes.

The cross-section cutoff is η̄(K(εs)|z| - ε^{-δ̄}) with η̄ the standard C^∞
step: identically 1 for |z| ≤ ε^{-δ̄}/K and 0 beyond (ε^{-δ̄}+1)/K.
Residual norms are weighted sups over one window |z| ≤ z_window at every s̄
node, taken from ``core_radius``: the cutoff is identically 1 up to there.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import periodic_derivative


def smooth_step(t):
    """C^∞ non-increasing step: 1 for t <= 0, 0 for t >= 1."""
    t = np.asarray(t, dtype=float)
    g = np.zeros_like(t)
    pos = t > 0
    g[pos] = np.exp(-1.0 / np.maximum(t[pos], 1e-12))
    gm = np.zeros_like(t)
    neg = t < 1
    gm[neg] = np.exp(-1.0 / np.maximum(1.0 - t[neg], 1e-12))
    return gm / (g + gm)


@dataclass
class TubeGrid:
    """Tensor grid (s̄, z) around the scaled curve with metric and cutoff data.

    Shapes: s-dependent arrays are (N_s,); z-dependent are z_shape; mixed
    are (N_s, *z_shape).  The s̄ nodes are the curve's.  ``p`` is the
    scalings' exponent.  ``R_outer`` is the radius of the cutoff ball,
    whatever part of it the grid covers.
    """

    eps: float
    delta_bar: float
    p: float
    L: float
    z_axes: list                  # one 1D array per normal direction
    z_shape: tuple
    znorm: np.ndarray             # |z| per z-node, shape z_shape
    zhat: np.ndarray              # unit directions, shape (d, *z_shape)
    zcomp: np.ndarray             # coordinates, shape (d, *z_shape)
    K: np.ndarray                 # sqrt(V) along the curve, (N_s,)
    cutoff: np.ndarray            # (N_s, *z_shape)
    metric_a: np.ndarray          # 1 - eps<H, z>, (N_s, *z_shape)
    ds_a: np.ndarray              # ∂_s a = -eps²<H'(εs), z>, (N_s, *z_shape)
    H_comp: np.ndarray            # curvature components per node, (N_s, d)
    V_amb: np.ndarray             # ambient potential at grid points, (N_s, *z_shape)
    dz: float
    R_outer: float                # (ε^{-δ̄}+1)/min K, the cutoff ball

    stencil_order = 4             # z-stencils of apply_S_eps (class constant)

    @property
    def n_s(self):
        return self.K.size

    @property
    def d(self):
        return len(self.z_axes)


MARGIN = 3                        # z-stencil half-width 2, plus one node


def z_spacing(sf, dz_factor):
    """Normal grid spacing 1/(dz_factor·max k̂); it does not depend on ε."""
    return 1.0 / (dz_factor * float(np.max(sf.k)))


def core_radius(K, eps, delta_bar, dz):
    """Per-node radius of the core: the cutoff is identically 1 up to
    ε^{-δ̄}/K, less a resolution-independent physical margin of at least
    the stencil width, so reported norms are grid-stable."""
    return eps ** (-delta_bar) / K - np.maximum(0.5 / K, MARGIN * dz)


def build_tube_grid(curve, V, sf, eps, dz_factor, delta_bar=0.25,
                    half_width=None):
    """Tube grid on the curve's s̄ nodes, N_s = curve.M for every ε.

    Phase-factored fields are smooth in s̄, so the curve sampling alone sets
    the resolution along it.  The z axes cover |z_j| <= ``half_width``
    (by default the cutoff ball's radius R_outer = (ε^{-δ̄}+1)/min K) plus
    the stencil margin, with spacing ``z_spacing(sf, dz_factor)``.  The
    focal-distance check covers the whole cutoff ball, or the grid if it is
    wider.  The nonlinearity's exponent is that of the scalings ``sf``.
    """
    N_s = curve.M
    L = curve.L

    Kcurve = np.sqrt(V(curve.positions))
    dz = z_spacing(sf, dz_factor)
    R_outer = (eps ** (-delta_bar) + 1.0) / np.min(Kcurve)
    if half_width is None:
        half_width = R_outer
    half = int(np.ceil(half_width / dz)) + MARGIN
    axis = np.arange(-half, half + 1) * dz

    d = curve.n - 1
    z_axes = [axis.copy() for _ in range(d)]
    mesh = np.meshgrid(*z_axes, indexing="ij")
    zcomp = np.stack(mesh)                           # (d, *z_shape)
    z_shape = zcomp.shape[1:]
    znorm = np.sqrt(np.sum(zcomp**2, axis=0))
    zhat = np.where(znorm > 0, zcomp / np.maximum(znorm, 1e-300), 0.0)

    cutoff = smooth_step(Kcurve.reshape(-1, *([1] * d)) * znorm[None]
                         - eps ** (-delta_bar))

    Hc = curve.curvature                              # (N_s, d)
    # a = 1 - ε<H, z> is exact in Fermi coordinates, so it stays positive
    # on the ball |z| <= R iff ε·max|H|·R < 1
    R_ball = max(R_outer, half_width) + (MARGIN + 1) * dz
    if eps * float(np.max(np.linalg.norm(Hc, axis=1))) * R_ball >= 1.0:
        raise ValidationError("tube radius exceeds the focal distance: "
                              "metric factor loses positivity inside the "
                              "cutoff ball")
    # the field is supported in the ball; tensor corners beyond it may
    # legitimately pass the focal distance, where the metric factor is
    # clamped (values there are identically zero)
    metric_a = 1.0 - eps * np.tensordot(Hc, zcomp, axes=(1, 0))
    metric_a = np.where((znorm <= R_ball)[None], metric_a,
                        np.maximum(metric_a, 0.5))

    ds_a = -(eps**2) * np.tensordot(periodic_derivative(Hc, L), zcomp, axes=(1, 0))

    # ambient points: γ(s̄) + Σ_j (εz_j) E_j(s̄)
    pos = curve.positions                              # (N_s, n)
    frame = curve.frame                                # (N_s, d, n)
    amb = pos.reshape(N_s, *([1] * d), curve.n) \
        + eps * np.tensordot(zcomp, frame, axes=(0, 1)).transpose(
            [d] + list(range(d)) + [d + 1])
    V_amb = V(amb)

    return TubeGrid(eps=eps, delta_bar=delta_bar, p=sf.exps.p, L=L,
                    z_axes=z_axes, z_shape=z_shape, znorm=znorm, zhat=zhat,
                    zcomp=zcomp, K=Kcurve, cutoff=cutoff,
                    metric_a=metric_a, ds_a=ds_a, H_comp=Hc, V_amb=V_amb,
                    dz=dz, R_outer=float(R_outer))


# ---------------------------------------------------------------------------
# Finite-difference machinery
# ---------------------------------------------------------------------------

def _diff_z(values, axis, dz):
    """4th-order centered first and second z-derivatives with zero padding.

    The stencil taps are views of one padded copy.  Returns (d1, d2).
    """
    ax = axis + 1  # axis 0 is s̄
    pad = [(0, 0)] * values.ndim
    pad[ax] = (2, 2)
    v = np.pad(values, pad)
    n = values.shape[ax]
    sl = lambda k: v[(slice(None),) * ax + (slice(2 + k, 2 + k + n),)]
    c = sl(0)
    d1 = (sl(-2) - 8 * sl(-1) + 8 * sl(1) - sl(2)) / (12 * dz)
    # neighbours enter the second derivative as differences from the centre,
    # so the round-off scales with those differences rather than with |ψ|
    d2 = (16 * ((sl(1) - c) + (sl(-1) - c))
          - ((sl(2) - c) + (sl(-2) - c))) / (12 * dz**2)
    return d1, d2


def apply_S_eps(values, grid, phase_rate=None):
    """e^{if̃/ε}S_ε(e^{-if̃/ε}φ) for the phase-factored field φ = ``values``.

    ``phase_rate`` is f̃'(s̄) per node, (N_s,); None means no phase.  With
    c = f̃', ∂_s becomes ε∂_s̄ - ic, so ∂²_s becomes
    ε²φ_s̄s̄ - 2iεcφ_s̄ - iεc'φ - c²φ.  s̄-derivatives are spectral
    (periodic), z-derivatives 4th-order stencils with exact zero
    padding outside the cutoff support.
    """
    a = grid.metric_a
    eps, L = grid.eps, grid.L
    ds_phi = eps * periodic_derivative(values, L)
    dss_phi = eps**2 * periodic_derivative(values, L, 2)
    if phase_rate is not None:
        c = np.asarray(phase_rate, dtype=float)
        dc = periodic_derivative(c, L).reshape(-1, *([1] * grid.d))
        c = c.reshape(dc.shape)
        dss_phi = dss_phi - 2j * c * ds_phi - (1j * eps * dc + c**2) * values
        ds_phi = ds_phi - 1j * c * values
    lap = dss_phi / a**2 - grid.ds_a / a**3 * ds_phi

    for j in range(grid.d):
        d1z, d2z = _diff_z(values, j, grid.dz)
        Hj = grid.H_comp[:, j].reshape(-1, *([1] * grid.d))
        lap += d2z - (grid.eps * Hj / a) * d1z
        del d1z, d2z            # freed before the next axis pads its copy

    return -lap + grid.V_amb * values - np.abs(values) ** (grid.p - 1) * values


def weighted_norm(values, grid, decay_weight, z_window):
    """Discrete weighted sup norm of e^{𝔭(εs)|z|}·|values| over |z| <=
    ``z_window`` at every s̄ node."""
    w = np.broadcast_to(np.asarray(decay_weight, dtype=float), (grid.n_s,))
    amp = np.exp(w.reshape(-1, *([1] * grid.d)) * grid.znorm[None]) * np.abs(values)
    return float(np.max(np.where((grid.znorm <= z_window)[None], amp, 0.0)))


def convergence_order(eps_list, norms):
    """Log-log least-squares slope of norms against eps.

    Returns (slope, intercept, per-point deviations from the fit).  A
    non-monotone norm sequence triggers a warning; the fit is still reported.
    """
    import warnings

    eps_list = np.asarray(eps_list, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if eps_list.size < 3:
        raise ValidationError("need at least 3 eps values for an order fit")
    if np.any(norms <= 0):
        raise ValidationError("norms must be positive for a log-log fit")
    order = np.argsort(eps_list)
    if np.any(np.diff(norms[order]) < 0):
        warnings.warn("norms are not monotone in eps; order fit may be "
                      "unreliable", stacklevel=2)
    x, y = np.log(eps_list), np.log(norms)
    slope, intercept = np.polyfit(x, y, 1)
    dev = y - (slope * x + intercept)
    return float(slope), float(intercept), dev
