"""Closed curves in flat R^n: arc length, parallel normal frames, curvature.

A concentration curve is a circle or an ellipse γ(t) = (a cos t, b sin t)
in the x1–x2 plane, stored as M samples equispaced in arc length, with its
unit tangents, an orthonormal normal frame parallel with respect to the
normal connection, and the curvature vector H = γ'' expressed in that
frame, all in closed form at the nodes' parameters t.  In flat space a
parallel normal frame obeys E_j' = -H^j T, which makes the Fermi metric
around the curve exactly

    g_11 = (1 - <H, y>)²,   g_1j = 0,   g_jl = δ_jl,

in the normal coordinates y induced by the frame.  For a planar curve that
frame is closed-form and L-periodic: the in-plane normal is the tangent
turned by a right angle, and the other normals are the constant axes
e₃ … eₙ (Bishop, "There is more than one way to frame a curve", Amer.
Math. Monthly 82 (1975)).  Fields sampled on the nodes are differentiated
and integrated along s̄ by the periodic helpers here, which every later
layer shares; every s̄-derivative is spectral (FFT, or the circulant
Fourier collocation matrices), and ``fourier_tail`` says whether the
node grid resolves a field at all.

Potentials are given in a small arithmetic expression language over the
ambient coordinates (x1..xn, r = |x|, r2 = |x|²) that is evaluated through a
restricted AST walk — config-file friendly and with no code injection.  The
same walk over second-order forward-mode jets gives the exact gradient and
Hessian of the potential, from which the normal derivatives along the curve
are read.
"""

import ast
import operator
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConvergenceError, ValidationError

# largest t grid of the arc-length Fourier series; an ellipse thinner than
# about 1:1000 needs more modes and is refused
ARC_MODES_CAP = 1 << 16
# Gauss–Legendre rule for the arc length inside one cell of that grid
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

# name -> (f, f', f'')
_ALLOWED_FUNCS = {
    "exp": (np.exp, np.exp, np.exp),
    "sqrt": (np.sqrt, lambda x: 0.5 / np.sqrt(x), lambda x: -0.25 / (x * np.sqrt(x))),
    "log": (np.log, lambda x: 1.0 / x, lambda x: -1.0 / x**2),
    "sin": (np.sin, np.cos, lambda x: -np.sin(x)),
    "cos": (np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)),
    "tanh": (np.tanh, lambda x: 1.0 - np.tanh(x)**2,
             lambda x: -2.0 * np.tanh(x) * (1.0 - np.tanh(x)**2)),
    "abs": (np.abs, np.sign, np.zeros_like),
}

_ALLOWED_BINOPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
}


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


class _Jet:
    """Second-order forward-mode jet: value (...), gradient (..., n) and
    Hessian (..., n, n) of one expression node.  Operands that are not jets
    are constants."""

    __array_ufunc__ = None   # numpy operands defer to the reflected methods

    def __init__(self, val, grad, hess):
        self.val, self.grad, self.hess = val, grad, hess

    def chain(self, f, df, d2f):
        """f(self), given f and its first two derivatives."""
        d1 = df(self.val)[..., None]
        d2 = d2f(self.val)[..., None, None]
        return _Jet(f(self.val), d1 * self.grad,
                    d1[..., None] * self.hess + d2 * _outer(self.grad, self.grad))

    def __add__(self, o):
        if isinstance(o, _Jet):
            return _Jet(self.val + o.val, self.grad + o.grad, self.hess + o.hess)
        return _Jet(self.val + o, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return _Jet(-self.val, -self.grad, -self.hess)

    def __sub__(self, o):
        return self + (-o)

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if isinstance(o, _Jet):
            a, b = self.val[..., None], o.val[..., None]
            return _Jet(self.val * o.val, a * o.grad + b * self.grad,
                        a[..., None] * o.hess + b[..., None] * self.hess
                        + _outer(self.grad, o.grad) + _outer(o.grad, self.grad))
        return _Jet(self.val * o, self.grad * o, self.hess * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, _Jet):
            return self * o**-1.0
        return _Jet(self.val / o, self.grad / o, self.hess / o)

    def __rtruediv__(self, c):
        return c * self**-1.0

    def __pow__(self, o):
        if isinstance(o, _Jet):     # a**b = exp(b log a)
            return (o * self.chain(*_ALLOWED_FUNCS["log"])).chain(*_ALLOWED_FUNCS["exp"])
        return self.chain(lambda x: x**o, lambda x: o * x**(o - 1),
                          lambda x: o * (o - 1) * x**(o - 2))

    def __rpow__(self, c):
        ln = np.log(c)
        return self.chain(lambda x: c**x, lambda x: c**x * ln, lambda x: c**x * ln**2)


class PotentialField:
    """Scalar field on R^n from an arithmetic expression string.

    Variables: x1..xn (coordinates), r (|x|), r2 (|x|²).  Operators: + - * /
    ** and unary minus; functions: exp, sqrt, log, sin, cos, tanh, abs.
    Everything else is rejected at parse time, by the one walk that compiles
    the expression into an evaluator.  That evaluator runs on arrays
    (``__call__``) or on second-order jets (``jet``), which gives the
    gradient and Hessian exactly, without a step size.
    """

    def __init__(self, expression, n):
        self.expression = expression
        self.n = n
        try:
            tree = ast.parse(expression, mode="eval")
        except SyntaxError as exc:
            raise ValidationError(f"cannot parse potential {expression!r}: {exc}") from exc
        self._expr = self._compile(tree.body)
        self._uses_r = any(isinstance(node, ast.Name) and node.id == "r"
                           for node in ast.walk(tree))

    def _compile(self, node):
        """Check ``node`` and return its evaluator ``env -> value``, which
        runs on arrays and on jets alike."""
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ValidationError("only numeric constants allowed in potentials")
            return lambda env: np.float64(node.value)
        if isinstance(node, ast.Name):
            names = {f"x{i + 1}" for i in range(self.n)} | {"r", "r2"}
            if node.id not in names:
                raise ValidationError(f"unknown symbol {node.id!r} in potential")
            return lambda env: env[node.id]
        if isinstance(node, ast.BinOp):
            if type(node.op) not in _ALLOWED_BINOPS:
                raise ValidationError("operator not allowed in potential")
            op = _ALLOWED_BINOPS[type(node.op)]
            left, right = self._compile(node.left), self._compile(node.right)
            return lambda env: op(left(env), right(env))
        if isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, (ast.USub, ast.UAdd)):
                raise ValidationError("unary operator not allowed in potential")
            operand = self._compile(node.operand)
            if isinstance(node.op, ast.UAdd):
                return operand
            return lambda env: -operand(env)
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS \
                    or node.keywords or len(node.args) != 1:
                raise ValidationError("function not allowed in potential")
            funcs, arg = _ALLOWED_FUNCS[node.func.id], self._compile(node.args[0])

            def call(env):
                val = arg(env)
                return val.chain(*funcs) if isinstance(val, _Jet) else funcs[0](val)
            return call
        raise ValidationError(f"construct {type(node).__name__} not allowed in potential")

    def _env(self, points, jets):
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.n:
            raise ValidationError(f"points must have last dimension {self.n}")
        x = [pts[..., i] for i in range(self.n)]
        r2 = np.sum(pts**2, axis=-1)
        if jets:
            eye = np.eye(self.n)
            zero = np.zeros(pts.shape + (self.n,))
            x = [_Jet(xi, np.broadcast_to(eye[i], pts.shape), zero)
                 for i, xi in enumerate(x)]
            r2 = _Jet(r2, 2.0 * pts, np.broadcast_to(2.0 * eye, zero.shape))
        env = {f"x{i + 1}": xi for i, xi in enumerate(x)}
        env["r2"] = r2
        if self._uses_r:    # √ is singular at the origin: build r only if used
            env["r"] = r2.chain(*_ALLOWED_FUNCS["sqrt"]) if jets else np.sqrt(r2)
        return pts.shape[:-1], env

    def __call__(self, points):
        """Evaluate on points of shape (..., n)."""
        shape, env = self._env(points, jets=False)
        return np.broadcast_to(self._expr(env), shape).copy()

    def jet(self, points):
        """Exact gradient (..., n) and Hessian (..., n, n) on points (..., n)."""
        shape, env = self._env(points, jets=True)
        out = self._expr(env)
        if not isinstance(out, _Jet):      # constant expression
            out = _Jet(out, 0.0, 0.0)
        return (np.broadcast_to(out.grad, shape + (self.n,)).copy(),
                np.broadcast_to(out.hess, shape + (self.n, self.n)).copy())


def readonly_view(values):
    """A read-only float view of ``values``.

    A view, not a copy: the builders of the result types hand over fresh
    arrays that nothing else refers to, and copying them raised a pipeline's
    peak RSS by about 2 MB.
    """
    out = np.asarray(values, dtype=float).view()
    out.setflags(write=False)
    return out


def freeze_arrays(obj):
    """Replace every ``np.ndarray`` field of a frozen dataclass instance by a
    read-only view; an optional array field left at None stays None."""
    for f in fields(obj):
        val = getattr(obj, f.name)
        if f.type is np.ndarray and val is not None:
            object.__setattr__(obj, f.name, readonly_view(val))


@dataclass(frozen=True)
class CurveSpec:
    """Closed-curve specification: a circle of ``radius``, or an ellipse of
    semi-axes ``a`` along x1 and ``b`` along x2, centred at the origin of the
    x1–x2 plane of R^n."""

    kind: str
    n: int = 2
    radius: float = 1.0
    a: float = 2.0
    b: float = 1.0

    def __post_init__(self):
        if self.kind not in ("circle", "ellipse"):
            raise ValidationError(f"unknown curve kind {self.kind!r}")
        if self.n < 2:
            raise ValidationError("ambient dimension must be >= 2")
        if self.kind == "circle" and self.radius <= 0:
            raise ValidationError("circle radius must be positive")
        if self.kind == "ellipse" and (self.a <= 0 or self.b <= 0):
            raise ValidationError("ellipse semi-axes must be positive")


@dataclass(frozen=True)
class CurveData:
    """Sampled closed curve with parallel normal frame and curvature.

    positions[i], tangents[i] are in R^n; frame[i, j] is the j-th normal
    frame field E_j (j = 0..n-2); curvature[i, j] = <H, E_j> at node i.
    Everything downstream works on these nodes; nothing interpolates
    between them.  Immutable, arrays included (read-only views).
    """

    s: np.ndarray                 # arc-length nodes, uniform on [0, L)
    L: float
    positions: np.ndarray         # (M, n)
    tangents: np.ndarray          # (M, n)
    frame: np.ndarray             # (M, n-1, n)
    curvature: np.ndarray         # (M, n-1) components of H in the frame

    def __post_init__(self):
        freeze_arrays(self)

    @property
    def M(self):
        return self.s.size

    @property
    def n(self):
        return self.positions.shape[1]

    def curvature_vectors(self):
        """H as ambient vectors, shape (M, n)."""
        return np.einsum("ij,ijk->ik", self.curvature, self.frame)


@dataclass(frozen=True)
class PotentialData:
    """Potential and its normal derivatives sampled along a curve.

    Immutable, arrays included (read-only views).
    """

    values: np.ndarray            # (M,)
    grad_normal: np.ndarray       # (M, n-1) components <∇V, E_j>
    hess_normal: np.ndarray       # (M, n-1, n-1) components D²V[E_j, E_l]

    def __post_init__(self):
        freeze_arrays(self)


def fourier_tail(values):
    """Largest |ĉ_k| over the upper half of the node grid's modes (k ≥ N/4
    of the ``rfft`` of N values along axis 0), relative to |ĉ₀|.

    For a smooth periodic field sampled on N equispaced nodes this is how
    far the grid is from resolving it: round-off once the coefficients
    have decayed within N/4 modes, O(1) when they have not.
    """
    coef = np.abs(np.fft.rfft(values, axis=0))
    return np.max(coef[values.shape[0] // 4:], axis=0) / coef[0]


def _arc_length_parameters(a, b, M):
    """Length L, M nodes s equispaced in arc length, and their parameters t.

    The speed |γ'(t)| = hypot(a sin t, b cos t) is smooth and 2π-periodic,
    so its values on N equispaced t give its Fourier coefficients c_k, and
    the trapezoid rule, spectrally accurately: L = 2πc₀ and s(t) = c₀t +
    Σ 2Re(c_k e^{ikt}/(ik)), summed on the t grid by one inverse FFT.  N
    doubles from 64 until the speed's ``fourier_tail`` is at most 4·eps; an
    ellipse of axis ratio b/a has c_k ~ e^{-k·b/a}, and one that still needs
    more at N = ARC_MODES_CAP raises ConvergenceError.  Newton with the exact
    speed then solves s(t) = s_target, with s(t) the grid value at the cell
    start plus a Gauss–Legendre rule over the rest of the cell.
    """
    speed = lambda t: np.hypot(a * np.sin(t), b * np.cos(t))
    N = 64
    while True:
        t_grid = np.arange(N) * (2 * np.pi / N)
        spd = speed(t_grid)
        tail = fourier_tail(spd)
        if tail <= 4 * np.finfo(float).eps:
            break
        if N >= ARC_MODES_CAP:
            raise ConvergenceError(
                f"arc-length series unresolved at {N} modes (tail {tail:.2e}·c0)")
        N *= 2
    coef = np.fft.rfft(spd) / N
    c0 = coef[0].real
    L = 2 * np.pi * c0
    k = np.arange(1, coef.size)
    integ = np.zeros_like(coef)
    integ[1:] = coef[1:] / (1j * k)
    integ[-1] = 0.0                     # the Nyquist sine vanishes on the grid
    osc = np.fft.irfft(integ * N, n=N)
    s_grid = c0 * t_grid + osc - osc[0]

    s_nodes = np.arange(M) * (L / M)
    h = 2 * np.pi / N
    t = np.interp(s_nodes, np.append(s_grid, L), np.append(t_grid, 2 * np.pi))
    for _ in range(50):
        j = np.clip(np.floor(t / h).astype(int), 0, N - 1)
        half = 0.5 * (t - t_grid[j])
        inner = speed((t_grid[j] + half)[:, None] + half[:, None] * _GL_NODES)
        step = (s_grid[j] + half * (inner @ _GL_WEIGHTS) - s_nodes) / speed(t)
        t = t - step
        if np.max(np.abs(step)) < 1e-12:    # quadratic: the error is now ~1e-24
            return L, s_nodes, t
    raise ConvergenceError("arc-length inversion did not converge")


def build_curve(spec, M=256):
    """Arc-length sampled CurveData of γ(t) = (a cos t, b sin t, 0, …), with
    a = b = radius on a circle, in closed form at the node parameters t:
    the speed |γ'| = hypot(a sin t, b cos t), the tangent
    T = (−a sin t, b cos t)/|γ'|, the parallel L-periodic frame, whose first
    normal E₁ = (T₂, −T₁, 0, …) is T turned by a right angle and whose others
    are the constant axes e₃ … eₙ (each obeys E' = −⟨H, E⟩T), and the
    curvature H = −(ab/|γ'|³)·E₁ (do Carmo 1976, §1-5).
    """
    if M < 64:
        raise ValidationError("need at least 64 curve samples")
    a, b = (spec.radius, spec.radius) if spec.kind == "circle" else (spec.a, spec.b)
    L, s_nodes, t = _arc_length_parameters(a, b, M)
    sin, cos = np.sin(t), np.cos(t)
    spd = np.hypot(a * sin, b * cos)

    n = spec.n
    positions = np.zeros((M, n))
    positions[:, :2] = np.column_stack([a * cos, b * sin])
    tangents = np.zeros((M, n))
    tangents[:, :2] = np.column_stack([-a * sin, b * cos]) / spd[:, None]
    frame = np.zeros((M, n - 1, n))
    frame[:, 0, 0] = tangents[:, 1]
    frame[:, 0, 1] = -tangents[:, 0]
    frame[:, 1:, 2:] = np.eye(n - 2)
    curvature = np.zeros((M, n - 1))
    curvature[:, 0] = -a * b / spd**3
    return CurveData(s=s_nodes, L=L, positions=positions, tangents=tangents,
                     frame=frame, curvature=curvature)


def periodic_derivative(values, L, order=1):
    """Spectral s̄-derivative along axis 0 of nodal values on a uniform
    periodic grid of period L: the derivative of the trigonometric
    interpolant, the same operator as the circulant Fourier matrices.

    Complex input gives the complex result, real and imaginary parts
    differentiated alike: an odd derivative drops the Nyquist mode, as
    taking the real part does for real input.
    """
    M = values.shape[0]
    mult = (2j * np.pi * np.fft.fftfreq(M, d=L / M)) ** order
    cplx = np.iscomplexobj(values)
    if cplx and order % 2 and M % 2 == 0:
        mult[M // 2] = 0.0
    out = np.fft.ifft(mult.reshape((M,) + (1,) * (values.ndim - 1))
                      * np.fft.fft(values, axis=0), axis=0)
    return out if cplx else out.real


def fourier_diff_matrices(M, L):
    """First and second derivative Fourier collocation matrices (M x M).

    Columns are the derivatives of the cardinal functions: D f evaluates the
    spectral derivative of the trigonometric interpolant of f at the nodes.
    Both matrices are circulant, D[i, j] = c[(i - j) mod M], with c the
    derivative of the cardinal function at node 0 (fft(e₀) is all ones).
    """
    freqs = 2j * np.pi * np.fft.fftfreq(M, d=L / M)
    lag = np.subtract.outer(np.arange(M), np.arange(M)) % M
    D1 = np.real(np.fft.ifft(freqs))[lag]
    D2 = np.real(np.fft.ifft(freqs**2))[lag]
    D1 = 0.5 * (D1 - D1.T)
    D2 = 0.5 * (D2 + D2.T)
    return D1, D2


def periodic_antiderivative(values, L):
    """Cumulative trapezoid along axis 0 of periodic nodal values.

    Returns (F, total) with F[0] = 0 and total = F(L) - F(0), the last
    cumulative sum, so F[-1] plus the last increment equals total bitwise.
    """
    incr = 0.5 * (values + np.roll(values, -1, axis=0)) * (L / values.shape[0])
    cums = np.cumsum(incr, axis=0)
    return np.concatenate([np.zeros_like(cums[:1]), cums[:-1]]), cums[-1]


def sample_potential(V, curve):
    """Sample V and its normal derivatives along the curve.

    The normal gradient <∇V, E_j> and Hessian D²V[E_j, E_l] are contractions
    of the exact derivatives ``V.jet`` with the frame.
    """
    pos = curve.positions
    vals = V(pos)
    if np.any(vals <= 0):
        raise ValidationError("potential must be positive along the curve")

    grad, hess = V.jet(pos)
    E = curve.frame
    hess_n = np.einsum("ijk,ikm,ilm->ijl", E, hess, E)   # symmetric up to rounding
    return PotentialData(values=vals, grad_normal=np.einsum("ijk,ik->ij", E, grad),
                         hess_normal=0.5 * (hess_n + hess_n.transpose(0, 2, 1)))
