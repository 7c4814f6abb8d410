"""Matrix arguments E_{alpha,beta}(t^alpha A) through Jordan structure.

A matrix argument is specified either by an explicit Jordan form (blocks
(lambda, size) plus an optional similarity transform) or by a plain ndarray,
which is eigendecomposed on the fly when that is numerically safe.  For a
single block J = lambda I + N the function value is the upper-triangular
Toeplitz matrix

    E(t^alpha J)[r, r+j] = (1/j!) d^j/dlambda^j E_{alpha,beta}(lambda t^alpha)

so everything reduces to the lambda-derivatives of orders 0..size-1.
``ml_matrix`` takes them for every block, order and time from one array
call of ``mlfunc.series.evaluate`` (lambda, t and l as arrays): each entry
takes its scalar route (series, expansion at infinity or path by
|lambda| t^alpha), and each route makes one pass for the whole matrix, so
the series entries share one numpy pass, the expansion entries another,
and the path entries one batched path integral.  ``ml_matrix`` takes one
time or a 1-D array of them.

``decay_check`` and ``integral_check`` validate the two stability
statements: under the sector condition |arg lambda_i| > alpha*pi/2 for all
eigenvalues, ||E_alpha(t^alpha A)|| decays like t^(-alpha), and

    integral_0^infinity tau^(alpha-1) ||E_{alpha,alpha}(tau^alpha A)|| dtau

is finite.  The integral is certified by quadrature up to a cutoff T plus a
closed-form bound on the tail past T, built from the asymptotic expansion
of E_{alpha,alpha} with an explicit remainder (see ``mlfunc.bounds``).  To
order N, a block's function value is

    E(tau^alpha J) = sum_{k=2..N} tau^(-alpha k) C_k + (remainder part)

with C_k the constant upper-triangular Toeplitz matrix of expansion
coefficients; the nilpotent shifts have unit norm, so the remainder part is
at most sum_l (1/l!) |d^l R_N| <= B_N tau^(-alpha(N+1)), with the path mass
I_N in B_N from the closed form ``contour.path_mass_bound``.  Every power
integrates in closed form against tau^(alpha-1) on [T, infinity), blocks
are combined through the per-power maximum of their coefficients (a bound on
the block-diagonal norm at every tau), and a transform inflates the result
by cond(T).  N = 1 is Lemma 4's M_hat_l tail; the smallest bound over
N = 1, 2, ... is used, stopping at the first N whose bound grows or
barely shrinks.
"""

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bounds import (
    SectorContextError,
    expansion_coefficient,
    expansion_remainder,
    sector_context,
)
from .contour import path_mass_bound
from .numcore import (
    DomainError,
    QuadratureControls,
    integrate_path,
    line_segment,
    principal_arg,
    require_finite,
    require_grid,
)
from .series import EvalControls, MLParams, evaluate

__all__ = [
    "JordanSpec",
    "SpectralReport",
    "spectral_condition",
    "ml_jordan_block",
    "ml_matrix",
    "DecayReport",
    "decay_check",
    "IntegralReport",
    "integral_check",
]


@dataclass(frozen=True)
class JordanSpec:
    """Jordan data: ((lambda, size), ...) and an optional transform pair.

    When ``transform`` is given the represented matrix is
    T @ blockdiag(J_1, ..., J_k) @ T_inv; both T and T_inv must be supplied
    and multiply to the identity within 1e-10.
    """

    blocks: tuple[tuple[complex, int], ...]
    transform: np.ndarray | None = None
    transform_inv: np.ndarray | None = None

    def __post_init__(self):
        if not self.blocks:
            raise DomainError("at least one Jordan block is required")
        norm_blocks = []
        for lam, size in self.blocks:
            lam = complex(lam)
            if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
                raise DomainError("block eigenvalues must be finite")
            if size != int(size) or int(size) < 1:
                raise DomainError("block sizes must be positive integers")
            norm_blocks.append((lam, int(size)))
        object.__setattr__(self, "blocks", tuple(norm_blocks))
        if (self.transform is None) != (self.transform_inv is None):
            raise DomainError("give both transform and transform_inv or neither")
        if self.transform is not None:
            t = np.asarray(self.transform, dtype=complex)
            ti = np.asarray(self.transform_inv, dtype=complex)
            n = self.dimension
            if t.shape != (n, n) or ti.shape != (n, n):
                raise DomainError(
                    f"transform must be {n}x{n} to match the blocks")
            resid = np.abs(t @ ti - np.eye(n)).max()
            if resid > 1e-10:
                raise DomainError(
                    f"transform_inv is not an inverse of transform "
                    f"(max residual {resid:.2e})")
            object.__setattr__(self, "transform", t)
            object.__setattr__(self, "transform_inv", ti)

    @property
    def dimension(self) -> int:
        return sum(size for _, size in self.blocks)

    @classmethod
    def from_matrix(cls, a) -> "JordanSpec":
        """Eigendecompose a diagonalizable matrix into 1x1 blocks.

        Rejected when the eigenvector basis is ill-conditioned; defective
        or near-defective matrices need an explicit Jordan structure.
        """
        a = np.asarray(a, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError("matrix must be square")
        w, v = np.linalg.eig(a)
        cond = np.linalg.cond(v)
        if not np.isfinite(cond) or cond > 1e8:
            raise DomainError(
                "eigenvector basis too ill-conditioned (cond "
                f"{cond:.2e}); supply an explicit Jordan structure")
        return cls(
            blocks=tuple((complex(lam), 1) for lam in w),
            transform=v,
            transform_inv=np.linalg.inv(v),
        )


def _coerce_spec(a) -> JordanSpec:
    return a if isinstance(a, JordanSpec) else JordanSpec.from_matrix(a)


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: tuple[complex, ...]
    sector_margin: float  # min over eigenvalues of |arg lambda| - alpha*pi/2
    satisfied: bool
    notes: tuple[str, ...] = ()


def spectral_condition(a, alpha: float) -> SpectralReport:
    """Check |arg lambda| > alpha*pi/2 and lambda != 0 for every eigenvalue."""
    if not (0.0 < alpha <= 1.0):
        raise DomainError("alpha must lie in (0, 1]")
    if isinstance(a, JordanSpec):
        eigs = [lam for lam, size in a.blocks for _ in range(size)]
    else:
        a = np.asarray(a, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError("matrix must be square")
        eigs = [complex(w) for w in np.linalg.eigvals(a)]
    notes = []
    satisfied = True
    margin = math.inf
    for lam in eigs:
        if lam == 0:
            satisfied = False
            notes.append("zero eigenvalue violates the sector condition")
            continue
        margin = min(margin, abs(principal_arg(lam)) - alpha * math.pi / 2.0)
    if not math.isfinite(margin):
        margin = math.nan
    elif margin <= 0.0:
        satisfied = False
    return SpectralReport(tuple(eigs), margin, satisfied, tuple(notes))


def ml_jordan_block(p: MLParams, lam: complex, size: int, t,
                    controls: QuadratureControls | None = None) -> np.ndarray:
    """E_{alpha,beta}(t^alpha J) for one Jordan block J = lambda I + N: a
    (size, size) matrix for one time, an (n, size, size) stack for a 1-D
    array of n times.  Every order at every time comes from one array call
    of ``evaluate``."""
    if size != int(size) or int(size) < 1:
        raise DomainError("block size must be a positive integer")
    ts = require_grid("t", t)
    out = _block_stack(p, ((complex(lam), int(size)),), ts, controls)
    return out if ts.ndim else out[0]


def _block_stack(p: MLParams, blocks, ts: np.ndarray,
                 controls: QuadratureControls | None) -> np.ndarray:
    """blockdiag(E(t^alpha J_1), ...) for the (lambda, size) ``blocks`` at
    each time of ``ts``, an (n, d, d) stack, from one array call of
    ``evaluate`` over every block, time and order."""
    ts = np.atleast_1d(ts)
    lams, times, orders = [], [], []
    for lam, size in blocks:
        lams.append(np.full(ts.size * size, lam))
        times.append(np.repeat(ts, size))
        orders.append(np.tile(np.arange(size), ts.size))
    res = evaluate(p, np.concatenate(lams), np.concatenate(times), np.concatenate(orders),
                   EvalControls(quad=controls or QuadratureControls()))
    dim = sum(size for _, size in blocks)
    out = np.zeros((ts.size, dim, dim), dtype=complex)
    at = 0
    for lam, size in blocks:
        values = res.value[at * ts.size:(at + size) * ts.size].reshape(ts.size, size)
        for j in range(size):
            # Python's complex division, as the scalar entry takes it; numpy
            # multiplies by the reciprocal of j!, which can be one ulp off
            entries = [v / math.factorial(j) for v in values[:, j].tolist()]
            for r in range(at, at + size - j):
                out[:, r, r + j] = entries
        at += size
    return out


def ml_matrix(p: MLParams, a, t, controls: QuadratureControls | None = None) -> np.ndarray:
    """E_{alpha,beta}(t^alpha A) for a JordanSpec or a diagonalizable ndarray:
    a (d, d) matrix for one time, an (n, d, d) stack for a 1-D array of n
    times.  Every block, order and time comes from one array call of
    ``evaluate``, so the path entries of all blocks share one path
    integral (split only when no one path clears them all)."""
    spec = _coerce_spec(a)
    ts = require_grid("t", t)
    m = _block_stack(p, spec.blocks, ts, controls)
    if not ts.ndim:
        m = m[0]
    if spec.transform is not None:
        cond = np.linalg.cond(spec.transform)
        if cond > 1e12:
            warnings.warn(
                f"transform condition number {cond:.2e}; matrix values may "
                "lose that many digits", stacklevel=2)
        m = spec.transform @ m @ spec.transform_inv
    return np.asarray(m, dtype=complex)


# --------------------------------------------------------------------------
# stability checks

@dataclass(frozen=True)
class DecayReport:
    spectral: SpectralReport
    t_grid: tuple[float, ...]
    norm2: tuple[float, ...]
    norm_inf: tuple[float, ...]
    strictly_decreasing: bool
    tail_slope: float
    final_norm2: float


def _exterior_setup(alpha: float, a):
    """(spec, spectral report, exterior sector context per block) of the
    matrix argument ``a``; raises unless the sector condition holds."""
    spec = _coerce_spec(a)
    report = spectral_condition(spec, alpha)
    if not report.satisfied:
        raise SectorContextError(
            "hypothesis violated: every eigenvalue must be nonzero with "
            "|arg lambda| > alpha*pi/2")
    return spec, report, [sector_context(alpha, lam, side="exterior")
                          for lam, _ in spec.blocks]


def decay_check(alpha: float, a, t_grid=None) -> DecayReport:
    """Norm decay of E_alpha(t^alpha A) under the sector condition.

    Records 2- and inf-norms on a geometric grid, whether the 2-norm is
    strictly decreasing, and the fitted log-log slope over the last decade
    (the envelopes predict an eventual slope of -alpha).  ``ml_matrix``
    runs at DEFAULT_CONTROLS.
    """
    if t_grid is not None:
        t_grid = np.asarray(t_grid, dtype=float)
        require_finite("t_grid", t_grid)
        if t_grid.ndim != 1 or len(t_grid) < 3 or np.any(np.diff(t_grid) <= 0.0):
            raise DomainError("t_grid must be increasing with at least 3 entries")
    spec, report, ctxs = _exterior_setup(alpha, a)
    if t_grid is None:
        t_start = 2.0 * max(ctx.t0 for ctx in ctxs)
        t_grid = np.geomspace(t_start, 1e4 * t_start, 28)
    ms = ml_matrix(MLParams(alpha, 1.0), spec, t_grid)
    norm2 = np.linalg.norm(ms, 2, axis=(1, 2))
    decreasing = bool(np.all(np.diff(norm2) < 0.0))
    tail = t_grid >= t_grid[-1] / 10.0
    slope = float(np.polyfit(np.log(t_grid[tail]), np.log(norm2[tail]), 1)[0])
    return DecayReport(
        spectral=report,
        t_grid=tuple(t_grid.tolist()),
        norm2=tuple(norm2.tolist()),
        norm_inf=tuple(np.linalg.norm(ms, np.inf, axis=(1, 2)).tolist()),
        strictly_decreasing=decreasing,
        tail_slope=slope,
        final_norm2=float(norm2[-1]),
    )


@dataclass(frozen=True)
class IntegralReport:
    spectral: SpectralReport
    t_max: float
    numeric: float
    numeric_err: float
    tail_bound: float
    total: float
    tail_fraction: float


# relative slack on computed tail coefficients (Toeplitz norms, remainder
# constants), far above their rounding error
_COEFF_SLACK = 1.0 + 1e-10
# the order search stops once an order tightens the tail bound by less than
# this share; it always stops, since I_N grows like Gamma(alpha N)
_MIN_ORDER_GAIN = 1e-3
# integral_check's preset, for the [0, T] integral and its ml_matrix nodes;
# with the nodes batched per panel, DEFAULT_CONTROLS at the nodes makes the
# check 1.1-1.6x slower (one block at alpha = 0.5, two at 0.7; T = 200),
# numeric within 2.2e-16
_INTEGRAL_QUAD = QuadratureControls(rel_tol=1e-8, abs_tol=1e-12, max_panels=512)


def _coefficient_norm(ctx, size: int, k: int) -> float:
    """||C_k||_2 for the size x size block at ctx.lam: the upper-triangular
    Toeplitz matrix of the order-k expansion coefficients, the same at
    every expansion order past k."""
    row = [expansion_coefficient(ctx.alpha, ctx.lam, k, l) for l in range(size)]
    c_k = sum(np.diag(np.full(size - l, row[l]), l) for l in range(size))
    return float(np.linalg.norm(c_k, 2)) * _COEFF_SLACK


def _asymptotic_tail(alpha: float, spec: JordanSpec, ctxs, t_max: float) -> float:
    """Bound on integral_{t_max}^inf tau^(a-1) ||E_{a,a}(tau^a A)|| dtau,
    the smallest over expansion orders N = 1, 2, ... up to the first order
    that tightens it by less than _MIN_ORDER_GAIN (see module docstring).

    With a_k the largest over the blocks of ||C_k|| (k <= N) and of the
    remainder constant B_N (k = N + 1), ||E_{a,a}(tau^a J)|| <= sum_k a_k
    tau^(-a k) for tau >= t0.  Order N adds only C_N and B_N; the path
    masses I_N of every block come in closed form, one ``path_mass_bound``
    call per order."""
    best = math.inf
    turns = [ctx.theta / alpha for ctx in ctxs]
    sizes = [size for _, size in spec.blocks]
    combined: dict[int, float] = {}
    for n in itertools.count(1):
        if n >= 2:
            combined[n] = max(0.0, *(_coefficient_norm(ctx, size, n)
                                     for ctx, size in zip(ctxs, sizes)))
        masses = np.exp(path_mass_bound(alpha, complex(alpha), turns, [n])[:, 0])
        remainder = max(0.0, *(sum(expansion_remainder(ctx, n, l, i_n) / math.factorial(l)
                                   for l in range(size)) * _COEFF_SLACK
                               for ctx, size, i_n in zip(ctxs, sizes, masses.tolist())))
        bound = sum(a_k * t_max ** (-alpha * (k - 1)) / (alpha * (k - 1))
                    for k, a_k in [*combined.items(), (n + 1, remainder)])
        if not bound < (1.0 - _MIN_ORDER_GAIN) * best:  # NaN stops too
            best = min(best, bound)
            break
        best = bound
    if spec.transform is not None:
        best *= float(np.linalg.cond(spec.transform))
    return best


def integral_check(alpha: float, a, t_max: float = 200.0) -> IntegralReport:
    """Finiteness certificate for the tau^(alpha-1)-weighted norm integral.

    The [0, t_max] part is integrated numerically after the substitution
    v = tau^alpha (which removes the endpoint singularity):
    (1/alpha) integral_0^{t_max^alpha} ||E_{alpha,alpha}(v A)|| dv.  The
    rest is covered by the closed-form asymptotic tail bound (the
    expansion order is chosen to make it smallest, and order 1 is the
    Lemma 4 envelope tail), valid once t_max exceeds every block threshold t0.
    The numeric part runs at ``_INTEGRAL_QUAD``; the tail takes no
    quadrature.
    """
    require_finite("t_max", t_max)
    spec, report, ctxs = _exterior_setup(alpha, a)
    t0_max = max(ctx.t0 for ctx in ctxs)
    if t_max <= t0_max:
        raise DomainError(
            f"t_max must exceed the envelope threshold t0 = {t0_max:.6g}")
    paa = MLParams(alpha, complex(alpha))
    inv_alpha = 1.0 / alpha

    def f(vs: np.ndarray) -> np.ndarray:
        ms = ml_matrix(paa, spec, np.real(vs) ** inv_alpha, _INTEGRAL_QUAD)
        return np.linalg.norm(ms, 2, axis=(1, 2))

    num, num_err = integrate_path(f, [line_segment(0.0, t_max ** alpha)], _INTEGRAL_QUAD)
    numeric = float(num.real) / alpha
    numeric_err = float(num_err) / alpha

    tail = float(_asymptotic_tail(alpha, spec, ctxs, t_max))
    total = numeric + tail
    return IntegralReport(
        spectral=report,
        t_max=float(t_max),
        numeric=numeric,
        numeric_err=numeric_err,
        tail_bound=tail,
        total=total,
        tail_fraction=tail / total if total > 0.0 else math.nan,
    )
