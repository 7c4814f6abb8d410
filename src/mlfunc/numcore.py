"""Branch-safe complex primitives and adaptive path quadrature.

This module collects the low-level numerics everything else is built on:

* ``principal_arg`` / ``cpow``   -- principal-branch argument and powers with
  a fixed convention arg(z) in (-pi, pi] (negative reals get +pi).
* ``recip_gamma``                -- 1/Gamma(z) by scipy's ``rgamma``.  The
  reciprocal is the primary form so the poles of Gamma map to exact zeros.
* ``integrate_path``             -- adaptive Gauss-Kronrod (7,15) panels over
  parametrized paths in the complex plane, with truncation of infinite ray
  tails once the integrand has dropped 18 orders below its peak; both
  halves of a bisected panel are evaluated in one integrand call.
  The integrand may return n rows of values on the same nodes; all rows
  then share one adaptive partition, and each row keeps its own error
  estimate, stopping target and tail threshold.

Only double precision is targeted; arbitrary-precision evaluation is out
of scope here.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
from scipy.special import rgamma

__all__ = [
    "DomainError",
    "QuadratureError",
    "QuadratureControls",
    "PathSegment",
    "principal_arg",
    "cpow",
    "recip_gamma",
    "line_segment",
    "circular_arc",
    "radial_ray",
    "integrate_path",
    "require_finite",
    "require_grid",
    "require_orders",
]

_EPS = math.ulp(1.0)


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge.

    Carries the best available estimate so callers can decide whether the
    partial result is still usable.
    """

    def __init__(self, message: str, value: complex, err_estimate: float):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


@dataclass(frozen=True)
class QuadratureControls:
    """Stopping parameters for ``integrate_path``.

    rel_tol / abs_tol  combined target: iteration stops once the summed
                       panel error is below max(abs_tol, rel_tol*|result|),
                       for every integrand row against its own result.
    max_panels         hard cap on the number of panels before giving up;
                       panels are shared by all rows.
    Presets: DEFAULT_CONTROLS (evaluation), bounds._CERT_QUAD (certificates,
    path masses) and matrixfn._INTEGRAL_QUAD (integral_check).
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_panels: int = 4096

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol >= 0.0):
            raise DomainError("tolerances must be positive")
        if self.max_panels < 2:
            raise DomainError("max_panels must be at least 2")


DEFAULT_CONTROLS = QuadratureControls()


def require_finite(name: str, value) -> None:
    """Raise DomainError naming the argument unless ``value`` (a number or an
    array of numbers) is finite in every entry."""
    if isinstance(value, np.ndarray):
        finite = bool(np.isfinite(value).all())
    else:
        finite = cmath.isfinite(value)
    if not finite:
        raise DomainError(f"argument {name} must be finite, got {value!r}")


def require_grid(name: str, value, dtype=float) -> np.ndarray:
    """``value`` as an array of ``dtype``; raise DomainError naming the
    argument unless it is one finite number or a nonempty 1-D array of
    them."""
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim > 1 or not arr.size:
        raise DomainError(f"argument {name} must be a number or a nonempty "
                          f"1-D array, got shape {arr.shape}")
    require_finite(name, arr)
    return arr


def require_orders(name: str, value):
    """``value`` as an int, or as an int array when it is a 1-D array; raise
    DomainError naming the argument unless every entry is a nonnegative
    integer."""
    if isinstance(value, (int, np.integer)) and value >= 0:
        return int(value)  # the common case, without the array checks
    arr = require_grid(name, value)
    if not np.all((arr >= 0.0) & (arr == np.round(arr))):
        raise DomainError(f"argument {name} must hold nonnegative integers, got {value!r}")
    return arr.astype(int) if arr.ndim else int(arr)


# --------------------------------------------------------------------------
# principal branch helpers

def principal_arg(z: complex) -> float:
    """Argument of z in (-pi, pi]; negative reals map to +pi exactly."""
    z = complex(z)
    if z == 0:
        raise DomainError("argument of zero is undefined")
    if z.imag == 0.0:
        # covers -0.0 as well: the branch cut itself belongs to +pi
        return math.pi if z.real < 0.0 else 0.0
    a = math.atan2(z.imag, z.real)
    # atan2 of a barely-negative imaginary part can round to -pi exactly;
    # such points sit on the cut to within one ulp, which belongs to +pi
    return math.pi if a == -math.pi else a


def cpow(z: complex, w: complex) -> complex:
    """Principal-branch power exp(w * Log z) with Log z = ln|z| + i*principal_arg(z)."""
    z = complex(z)
    w = complex(w)
    if z == 0:
        if w.real > 0.0:
            return 0j
        raise DomainError("0**w is undefined for Re(w) <= 0")
    log_z = complex(math.log(abs(z)), principal_arg(z))
    return cmath.exp(w * log_z)


# --------------------------------------------------------------------------
# reciprocal gamma

def recip_gamma(z: complex) -> complex:
    """1/Gamma(z) by scipy's ``rgamma``; exactly 0 at nonpositive integers.

    When Gamma itself overflows the double range the reciprocal underflows
    to 0 (right half-plane).  Where the reciprocal is the thing that is
    huge (far out on the negative axis) the overflow raises OverflowError.
    On the real axis the real routine is used: the complex one returns a
    spurious imaginary part of a few ulp there, which a complex-step
    derivative would read as signal.
    """
    z = complex(z)
    value = complex(rgamma(z.real) if z.imag == 0.0 else rgamma(z))
    if not cmath.isfinite(value):
        raise OverflowError(f"1/Gamma({z!r}) exceeds the double range")
    return value


# --------------------------------------------------------------------------
# path parametrizations

VectorFun = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PathSegment:
    """One smooth piece of an integration path.

    ``point`` maps parameter values (ndarray) to points in the plane and
    ``velocity`` to d(point)/ds, or to one number where that is constant.
    ``s0 > s1`` is allowed and integrates the piece in reverse.
    ``s1 = inf`` marks a ray whose tail is truncated by the quadrature
    engine.
    """

    point: VectorFun
    velocity: VectorFun
    s0: float
    s1: float

    def __post_init__(self):
        if math.isinf(self.s0):
            raise DomainError("segment start must be finite")


def line_segment(z0: complex, z1: complex) -> PathSegment:
    z0 = complex(z0)
    z1 = complex(z1)
    d = z1 - z0
    return PathSegment(
        point=lambda s: z0 + s * d,
        velocity=lambda s: d,
        s0=0.0,
        s1=1.0,
    )


def circular_arc(radius: float, phi0: float, phi1: float) -> PathSegment:
    if radius <= 0.0:
        raise DomainError("arc radius must be positive")
    return PathSegment(
        point=lambda s: radius * np.exp(1j * s),
        velocity=lambda s: 1j * radius * np.exp(1j * s),
        s0=float(phi0),
        s1=float(phi1),
    )


def radial_ray(angle: float, r0: float, r1: float = math.inf) -> PathSegment:
    """Ray (or reversed ray) along direction exp(i*angle), parametrized by radius."""
    direction = cmath.exp(1j * angle)
    return PathSegment(
        point=lambda s: s * direction,
        velocity=lambda s: direction,
        s0=float(r0),
        s1=float(r1),
    )


# --------------------------------------------------------------------------
# Gauss-Kronrod (7,15) panel rule, QUADPACK abscissae

_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full 15-point layout, ascending: -x0 .. -x6, 0, +x6 .. +x0
_NODES = np.concatenate((-_XGK[:7], [0.0], _XGK[6::-1]))
_W_KRONROD = np.concatenate((_WGK[:7], [_WGK[7]], _WGK[6::-1]))
# embedded Gauss weights sit at the odd Kronrod abscissae
_W_GAUSS = np.zeros(15)
_W_GAUSS[[1, 3, 5]] = _WG[:3]
_W_GAUSS[7] = _WG[3]
_W_GAUSS[[9, 11, 13]] = _WG[2::-1]
# Kronrod and Gauss weights against (integrand, panel, node) values
_W_KG3 = np.stack((_W_KRONROD, _W_GAUSS))[:, None, None, :]


def _panel_error(err: float, resasc: float, resabs: float) -> float:
    """QUADPACK's rescaled error of one panel from |kronrod - gauss|."""
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return max(err, 50.0 * _EPS * resabs)


def _eval_panel(f, seg: PathSegment, edges: tuple, arclength: bool):
    """Apply the (7,15) pair to every integrand on one panel [a, b] of one
    segment, ``edges = (a, b)``, or on the two halves [a, m] and [m, b] of a
    bisected one, ``edges = (a, m, b)``, with one call of ``f`` on all their
    nodes.

    ``f`` returns one value per node or an (n, nodes) array, one row per
    integrand.  Returns (rows, magnitude, single): row i of ``rows`` packs
    panel i's Kronrod values (as interleaved real/imaginary floats), error
    magnitudes and |f| sums (resabs) of all n integrands into one float
    vector of length 4n, ``magnitude`` holds the |weighted integrand| of
    every integrand (rows) at every node (columns), and ``single`` tells
    whether ``f`` returned a 1-D array.  Each half's row is the row of a
    call on that half alone, bit for bit.
    """
    if len(edges) == 2:
        a, b = edges
        h = 0.5 * (b - a)
        width = b - a
        s = 0.5 * (a + b) + h * _NODES
    else:
        a, m, b = edges
        # each half's node and scale arithmetic, as a call on it alone does it
        h = np.array([0.5 * (m - a), 0.5 * (b - m)])
        width = np.array([[m - a], [b - m]])
        s = np.concatenate((0.5 * (a + m) + h[0] * _NODES, 0.5 * (m + b) + h[1] * _NODES))
    weight = seg.velocity(s)
    if arclength:
        weight = np.abs(weight)
    fz = np.asarray(f(seg.point(s)), dtype=complex)
    single = fz.ndim < 2
    if single:  # one value per node, or one for all of them
        fz = fz.reshape(1, -1)
    elif fz.ndim != 2:
        raise DomainError("integrand must return one value per node or an "
                          "(n, nodes) array")
    # buf[0] holds the weighted integrand and buf[1] its deviation from the
    # mean of each (integrand, panel) pair, so that one pass takes the
    # |.| sums of both
    n, panels = len(fz), len(edges) - 1
    buf = np.empty((2, n, panels * 15), dtype=complex)
    np.multiply(fz, weight, out=buf[0])
    finite = np.isfinite(buf[0])
    if not finite.all():
        # a non-finite value poisons every sum it enters, and bisection
        # never removes it; name the first panel that holds one
        i = int(finite.reshape(n, panels, 15).all(axis=(0, 2)).argmin())
        za, zb = seg.point(np.array(edges[i:i + 2])).tolist()
        raise QuadratureError(
            f"integrand is not finite on the path panel from {za:.6g} to {zb:.6g}",
            value=0j, err_estimate=math.inf)
    y = buf.reshape(2, n, panels, 15)
    y0 = y[0]
    # Kronrod and embedded Gauss sums in one (2, n, panels) reduction
    kg = h * np.add.reduce(y0 * _W_KG3, axis=3)
    np.subtract(y0, kg[0, ..., None] / width, out=y[1])
    magnitude = np.abs(buf)
    sums = abs(h) * np.add.reduce(_W_KRONROD * magnitude.reshape(y.shape), axis=3)
    k_val, g_val = kg.reshape(2, -1).tolist()
    resabs, resasc = sums.reshape(2, -1).tolist()
    err = [_panel_error(abs(k - g), asc, rab) for k, g, asc, rab
           in zip(k_val, g_val, resasc, resabs)]
    packed = np.concatenate((kg[0].ravel().view(float), err, resabs))
    if panels == 1:
        return packed[None, :], magnitude[0], single
    # each quantity is laid out integrand by integrand, both halves side by
    # side; a row takes one half's share of each
    k_part, err_part, abs_part = np.split(packed, [4 * n, 6 * n])
    rows = np.concatenate((k_part.reshape(n, 2, 2).swapaxes(0, 1).reshape(2, 2 * n),
                           err_part.reshape(n, 2).T, abs_part.reshape(n, 2).T), axis=1)
    return rows, magnitude[0], single


_MAX_TAIL_BLOCKS = 64
# an infinite ray tail is cut once the local integrand magnitude falls below
# this fraction of its peak, for every row against its own peak
_TRUNCATION_DROP = 1e-18


def _seed_panels(f, seg: PathSegment, arclength: bool):
    """Initial evaluated panels of one segment; truncates an infinite tail.

    Returns a list of ((seg, a, b), _eval_panel result).  A ray is laid out
    in doubling blocks until every integrand has dropped below
    _TRUNCATION_DROP times its own peak; each block is evaluated once and
    becomes a panel.
    """
    if math.isfinite(seg.s1):
        return [((seg, seg.s0, seg.s1), _eval_panel(f, seg, (seg.s0, seg.s1), arclength))]
    panels = []
    start = seg.s0
    length = max(1.0, abs(seg.s0))
    peak = 0.0
    for _ in range(_MAX_TAIL_BLOCKS):
        end = start + length
        evaluated = _eval_panel(f, seg, (start, end), arclength)
        panels.append(((seg, start, end), evaluated))
        block_peak = evaluated[1].max(axis=1)
        peak = np.maximum(peak, block_peak)
        if len(panels) >= 2 and np.all(block_peak <= _TRUNCATION_DROP * peak):
            return panels
        start = end
        length *= 2.0
    raise QuadratureError(
        "ray tail did not decay below the truncation threshold",
        value=0j,
        err_estimate=math.inf,
    )


PathLike = Union[PathSegment, Sequence[PathSegment]]


def integrate_path(
    f: Callable[[np.ndarray], np.ndarray],
    path: PathLike,
    controls: QuadratureControls | None = None,
    arclength: bool = False,
):
    """Integrate f along a path: sum of integral(f(p(s)) * p'(s) ds) per segment.

    ``f`` must accept an ndarray of complex points and return the integrand
    values elementwise, or an (n, len(points)) array holding n integrands
    on the same points.  With ``arclength=True`` the weight is |p'(s)|,
    i.e. the integral is taken against |d zeta|.

    All n integrands share one adaptive partition.  Integrand j has its own
    Gauss-Kronrod error sum and has converged once that sum is below
    max(abs_tol, rel_tol*|total_j|, 100*eps*sum|f_j|); the loop ends when
    every integrand has converged, and each step bisects the panel with the
    largest err_ij / target_j over the integrands still open, evaluating
    its two halves with one call of ``f`` on their 30 nodes (each seed
    panel takes a 15-node call of its own).  A ray tail is cut once every
    integrand has dropped below 1e-18 times its own peak.  ``max_panels``
    counts shared panels, not calls.

    Returns ``(value, error_estimate)``: scalars for a 1-D integrand, arrays
    of length n otherwise.  Raises :class:`QuadratureError` (carrying the
    best estimate, in the same shape) if ``max_panels`` is exhausted first,
    and one naming the panel if the integrand is not finite on it.
    """
    controls = controls or DEFAULT_CONTROLS
    segments = [path] if isinstance(path, PathSegment) else list(path)
    if not segments:
        raise DomainError("empty path")

    seeds = [panel for seg in segments
             for panel in _seed_panels(f, seg, arclength)]
    _, (packed, _, single) = seeds[0]
    n = packed.shape[1] // 4
    # table row r is panel r's packed _eval_panel row; acc holds the running
    # sums over the live rows in the same layout: totals, errors, resabs.
    # A bisected panel keeps its row with the errors set to -inf, so ties
    # in the selection go to the oldest panel, and new rows are appended.
    where = [panel for panel, _ in seeds]
    rows = len(where)
    table = np.empty((max(64, 2 * rows), 4 * n))
    table[:rows] = [packed[0] for _, (packed, _, _) in seeds]
    acc = np.add.accumulate(table[:rows])[-1]  # summed in panel order
    total = acc[:2 * n].view(complex)
    err_sum = acc[2 * n:3 * n]
    errs = table[:, 2 * n:3 * n]
    panels = rows

    while True:
        # the roundoff floor 100*eps*sum(|f|) is the best any amount of
        # subdivision can achieve, so treat reaching it as convergence
        sums = acc.tolist()
        targets = [
            max(controls.abs_tol,
                controls.rel_tol * abs(complex(sums[2 * j], sums[2 * j + 1])),
                100.0 * _EPS * sums[3 * n + j])
            for j in range(n)
        ]
        open_ = [j for j in range(n) if not sums[2 * n + j] <= targets[j]]
        if not open_:
            break
        if panels + 1 > controls.max_panels:
            raise QuadratureError(
                "panel budget exhausted before reaching the requested tolerance",
                value=total[0] if single else total.copy(),
                err_estimate=err_sum[0] if single else err_sum.copy(),
            )
        if len(open_) == 1:
            # one open integrand: its target is a common factor
            i = int(errs[:rows, open_[0]].argmax())
        else:
            score = errs[:rows, open_] / np.array([targets[j] for j in open_])
            i = int(score.argmax()) // len(open_)
        seg, a, b = where[i]
        acc -= table[i]
        errs[i] = -math.inf
        if rows + 2 > len(table):
            table = np.concatenate((table, np.empty_like(table)))
            errs = table[:, 2 * n:3 * n]
        mid = 0.5 * (a + b)
        halves = _eval_panel(f, seg, (a, mid, b), arclength)[0]
        for row, (lo, hi) in zip(halves, ((a, mid), (mid, b))):
            table[rows] = row
            acc += row
            where.append((seg, lo, hi))
            rows += 1
        panels += 1
    if single:
        return total[0], err_sum[0]
    return total.copy(), err_sum.copy()
