"""Branch-safe complex primitives and adaptive path quadrature.

This module collects the low-level numerics everything else is built on:

* ``principal_arg`` / ``cpow``   -- principal-branch argument and powers with
  a fixed convention arg(z) in (-pi, pi] (negative reals get +pi).
* ``recip_gamma``                -- 1/Gamma(z) by scipy's ``rgamma``.  The
  reciprocal is the primary form so the poles of Gamma map to exact zeros.
* ``integrate_path``             -- adaptive Gauss-Kronrod (7,15) panels over
  parametrized paths in the complex plane, refined in sweeps after
  MATLAB's ``quadgk`` (Shampine, J. Comput. Appl. Math. 211, 2008): each
  sweep bisects every panel that misses its share of the target and
  evaluates all the halves on a segment in one integrand call, then
  rebuilds the sums from the live panels.  An infinite ray is seeded with
  doubling blocks, six to a call, and cut once the integrand has dropped
  18 orders below its peak.  The integrand may return n rows of values on
  the same nodes; all rows then share one adaptive partition, and each row
  keeps its own error estimate, stopping target and tail threshold.

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
                       panel error is below max(abs_tol, rel_tol*|result|,
                       100*eps*sum|f|), for every integrand row against its
                       own result and |f| sum; the last term is the
                       rounding floor no subdivision gets below.
    max_panels         hard cap on the number of live panels before giving
                       up; panels are shared by all rows.
    Presets: DEFAULT_CONTROLS (evaluation), bounds._CERT_QUAD (certificates,
    path masses) and matrixfn._INTEGRAL_QUAD (integral_check).
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_panels: int = 4096

    def __post_init__(self):
        require_finite("rel_tol", self.rel_tol)
        require_finite("abs_tol", self.abs_tol)
        require_finite("max_panels", self.max_panels)
        if not (self.rel_tol > 0.0 and self.abs_tol >= 0.0):
            raise DomainError("tolerances must be positive")
        if self.max_panels < 2:
            raise DomainError("max_panels must be at least 2")


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


DEFAULT_CONTROLS = QuadratureControls()


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
    require_finite("z0", z0)
    require_finite("z1", z1)
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
    require_finite("radius", radius)
    require_finite("phi0", phi0)
    require_finite("phi1", phi1)
    if radius <= 0.0:
        raise DomainError("arc radius must be positive")
    return PathSegment(
        point=lambda s: radius * np.exp(1j * s),
        velocity=lambda s: 1j * radius * np.exp(1j * s),
        s0=float(phi0),
        s1=float(phi1),
    )


def radial_ray(angle: float, r0: float, r1: float = math.inf) -> PathSegment:
    """Ray (or reversed ray) along direction exp(i*angle), parametrized by
    radius from r0 to r1; r1 = inf is an infinite ray."""
    require_finite("angle", angle)
    require_finite("r0", r0)
    if not r1 > -math.inf:  # NaN or -inf
        raise DomainError(f"argument r1 must be finite or +inf, got {r1!r}")
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


def _eval_panel(f, seg: PathSegment, edges, arclength: bool, cut=None):
    """Apply the (7,15) pair to every integrand on k panels of one segment
    with one call of ``f`` on all their 15k nodes.

    ``edges`` is one run of panel edges (a0, a1, ..., ak), the panels
    [a_i, a_(i+1)], or a 2-D array whose rows are such runs, read row by
    row: (a, b) is one panel, (a, m, b) the two halves of a bisected one,
    rows of (a, m, b) the halves of several, and the doubling blocks of a
    ray one long run.  ``cut``, given for a ray's seed blocks, maps the
    (n, k) peaks of |weighted integrand| on each panel to the number of
    leading panels to keep; the rest are dropped before any check, so a
    value past the cut never raises.  ``f`` runs, and its values are
    weighed, with numpy's floating-point warnings off: a non-finite value
    in a kept panel raises instead.

    ``f`` returns one value per node or an (n, nodes) array, one row per
    integrand.  Returns (rows, (lo, hi), single): row i of ``rows`` packs
    kept panel i's Kronrod values (as interleaved real/imaginary floats),
    error magnitudes and |f| sums (resabs) of all n integrands into one
    float vector of length 4n, [lo_i, hi_i] is that panel, and ``single``
    tells whether ``f`` returned a 1-D array.  Each panel's row is the row
    of a call on that panel alone, bit for bit.
    """
    runs = np.asarray(edges, dtype=float)
    if runs.ndim == 1:
        runs = runs[None, :]
    lo = runs[:, :-1].ravel()
    hi = runs[:, 1:].ravel()
    # each panel's node and scale arithmetic, as a call on it alone does it
    h = 0.5 * (hi - lo)
    s = ((0.5 * (lo + hi))[:, None] + h[:, None] * _NODES).ravel()
    with np.errstate(all="ignore"):
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
        # buf[0] holds the weighted integrand and buf[1] its deviation from
        # the mean of each (integrand, panel) pair, so that one pass takes
        # the |.| sums of both
        n, panels = len(fz), len(lo)
        buf = np.empty((2, n, panels * 15), dtype=complex)
        np.multiply(fz, weight, out=buf[0])
        if cut is not None:
            kept = cut(np.abs(buf[0]).reshape(n, panels, 15).max(axis=2))
            if kept < panels:
                panels = kept
                lo, hi, h = lo[:kept], hi[:kept], h[:kept]
                buf = np.ascontiguousarray(buf[:, :, :15 * kept])
        y = buf.reshape(2, n, panels, 15)
        # Kronrod and embedded Gauss sums in one (2, n, panels) reduction
        kg = h * np.add.reduce(y[0] * _W_KG3, axis=3)
        np.subtract(y[0], kg[0, ..., None] / (hi - lo)[:, None], out=y[1])
        resabs, resasc = np.abs(h) * np.add.reduce(_W_KRONROD * np.abs(y), axis=3)
        # a non-finite value makes its panel's |f| sum non-finite: it
        # poisons every sum it enters, and bisection never removes it
        finite = np.isfinite(resabs).all(axis=0)
        if not finite.all():
            i = int(finite.argmin())  # the first panel that holds one
            za, zb = seg.point(np.array([lo[i], hi[i]])).tolist()
            raise QuadratureError(
                f"integrand is not finite on the path panel from {za:.6g} to {zb:.6g}",
                value=0j, err_estimate=math.inf)
    k_val, g_val = kg.reshape(2, -1).tolist()
    err = [_panel_error(abs(k - g), asc, rab) for k, g, asc, rab
           in zip(k_val, g_val, resasc.ravel().tolist(), resabs.ravel().tolist())]
    # row i takes panel i's share of each quantity, laid out integrand by
    # integrand
    rows = np.concatenate((np.ascontiguousarray(kg[0].T).view(float),
                           np.reshape(err, (n, panels)).T, resabs.T), axis=1)
    return rows, (lo, hi), single


# seed doubling blocks of a ray laid out per integrand call, and the most
# blocks a ray may take
_SEED_BLOCKS = 6
_MAX_TAIL_BLOCKS = 64
# an infinite ray tail is cut once the local integrand magnitude falls below
# this fraction of its peak, for every row against its own peak
_TRUNCATION_DROP = 1e-18


def _seed_panels(f, seg: PathSegment, arclength: bool):
    """Initial evaluated panels of one segment, as ``_eval_panel`` returns
    them; truncates an infinite tail.

    A finite segment is one panel.  A ray is laid out in doubling blocks,
    _SEED_BLOCKS per integrand call, and cut at the first block, second or
    later, where every integrand has dropped below _TRUNCATION_DROP times
    its own peak so far; that block is the last panel kept, and the blocks
    after it in the same call are dropped unused.  The kept blocks are the
    ones a ray evaluated block by block would keep.
    """
    if math.isfinite(seg.s1):
        return _eval_panel(f, seg, (seg.s0, seg.s1), arclength)
    parts = []
    start = seg.s0
    length = max(1.0, abs(seg.s0))
    peak = 0.0
    done = 0
    found = False

    def cut(block_peaks: np.ndarray) -> int:
        nonlocal peak, found
        running = np.maximum(peak, np.maximum.accumulate(block_peaks, axis=1))
        below = np.all(block_peaks <= _TRUNCATION_DROP * running, axis=0)
        if not done:
            below[0] = False  # the first block never ends a ray
        if below.any():
            found = True
            return int(below.argmax()) + 1
        peak = running[:, -1:]
        return len(below)

    while done < _MAX_TAIL_BLOCKS:
        edges = [start]
        for _ in range(min(_SEED_BLOCKS, _MAX_TAIL_BLOCKS - done)):
            start += length
            length *= 2.0
            edges.append(start)
        parts.append(_eval_panel(f, seg, edges, arclength, cut))
        if found:
            rows, spans, single = zip(*parts)
            return (np.concatenate(rows),
                    tuple(np.concatenate(side) for side in zip(*spans)), single[0])
        done += len(edges) - 1
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

    All n integrands share one adaptive partition.  Each segment is seeded
    with one panel, or a ray with its doubling blocks, six to an integrand
    call, up to the block where every integrand has dropped below 1e-18
    times its own peak.  Then each sweep rebuilds every integrand's total,
    Gauss-Kronrod error sum and sum of |f| from the live panels (no running
    sum), and integrand j has converged once its error sum is below
    target_j = max(abs_tol, rel_tol*|total_j|, 100*eps*sum|f_j|).  The loop
    ends when every integrand has converged; otherwise the sweep bisects
    every live panel i whose error misses its share of an open integrand's
    target, err_ij > target_j / (live panels), the rule of MATLAB's
    ``quadgk``, and evaluates all the halves on one segment with one call
    of ``f``.  ``max_panels`` counts live panels: a sweep that would pass
    it bisects only the panels with the largest err_ij / target_j that
    fit.

    Returns ``(value, error_estimate)``: scalars for a 1-D integrand, arrays
    of length n otherwise.  Raises :class:`QuadratureError` (carrying the
    best estimate, in the same shape) if ``max_panels`` is exhausted first,
    and one naming the panel if the integrand is not finite on it.
    """
    controls = controls or DEFAULT_CONTROLS
    segments = [path] if isinstance(path, PathSegment) else list(path)
    if not segments:
        raise DomainError("empty path")

    seeds = [_seed_panels(f, seg, arclength) for seg in segments]
    single = seeds[0][2]
    # the live panels: row i of ``table`` is panel i's packed _eval_panel
    # row, on [lo_i, hi_i] of segment owner_i (all copies, updated in place)
    table = np.concatenate([rows for rows, _, _ in seeds])
    lo = np.concatenate([span[0] for _, span, _ in seeds])
    hi = np.concatenate([span[1] for _, span, _ in seeds])
    owner = np.repeat(np.arange(len(segments)), [len(rows) for rows, _, _ in seeds])
    n = table.shape[1] // 4
    while True:
        sums = table.sum(axis=0)
        total = sums[:2 * n].view(complex)
        err_sum = sums[2 * n:3 * n]
        # the roundoff floor 100*eps*sum(|f|) is the best any amount of
        # subdivision can achieve, so treat reaching it as convergence
        targets = np.maximum(
            np.maximum(controls.abs_tol, controls.rel_tol * np.hypot(total.real, total.imag)),
            100.0 * _EPS * sums[3 * n:])
        converged = err_sum <= targets
        if converged.all():
            break
        live = len(table)
        room = controls.max_panels - live
        if room <= 0:
            raise QuadratureError(
                "panel budget exhausted before reaching the requested tolerance",
                value=total[0] if single else total.copy(),
                err_estimate=err_sum[0] if single else err_sum.copy(),
            )
        # each panel's largest err_ij / target_j over the open rows j
        score = (table[:, 2 * n:3 * n] / np.where(converged, math.inf, targets)).max(axis=1)
        chosen = np.flatnonzero(score * live > 1.0)
        if not chosen.size:  # the shares rounded up past the target
            chosen = score.argmax(keepdims=True)
        elif chosen.size > room:
            chosen = np.argsort(-score, kind="stable")[:room]
        # a bisected panel's row and edges become its left half's, and the
        # right halves are appended
        right = []
        for k, seg in enumerate(segments):
            pick = chosen[owner[chosen] == k] if len(segments) > 1 else chosen
            if pick.size:
                a, b = lo[pick], hi[pick]
                mid = 0.5 * (a + b)
                rows = _eval_panel(f, seg, np.stack((a, mid, b), axis=1), arclength)[0]
                table[pick] = rows[0::2]
                hi[pick] = mid
                right.append((rows[1::2], mid, b, owner[pick]))
        table, lo, hi, owner = (np.concatenate((old, *new)) for old, new
                                in zip((table, lo, hi, owner), zip(*right)))
    if single:
        return total[0], err_sum[0]
    return total.copy(), err_sum.copy()
