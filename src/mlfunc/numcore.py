"""Branch-safe complex primitives and adaptive path quadrature.

This module collects the low-level numerics everything else is built on:

* ``principal_arg`` / ``cpow``   -- principal-branch argument and powers with
  a fixed convention arg(z) in (-pi, pi] (negative reals get +pi).
* ``recip_gamma``                -- 1/Gamma(z) via a Lanczos approximation
  with reflection for Re(z) < 1/2.  The reciprocal is the primary form so
  the poles of Gamma map to exact zeros.
* ``compensated_sum``            -- Neumaier (improved Kahan) summation for
  complex sequences; error behaves as if accumulated in doubled precision.
* ``integrate_path``             -- adaptive Gauss-Kronrod (7,15) panels over
  parametrized paths in the complex plane, with truncation of infinite ray
  tails once the integrand has dropped below a configurable threshold.
  The integrand may return n rows of values on the same nodes; all rows
  then share one adaptive partition, and each row keeps its own error
  estimate, stopping target and tail threshold.

Only double precision is targeted.  Gamma far out on the real axis
(|z| > 170) and arbitrary-precision evaluation are out of scope here.
"""

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, Union

import numpy as np

__all__ = [
    "DomainError",
    "QuadratureError",
    "QuadratureControls",
    "PathSegment",
    "principal_arg",
    "cpow",
    "recip_gamma",
    "compensated_sum",
    "line_segment",
    "circular_arc",
    "radial_ray",
    "integrate_path",
    "require_finite",
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
    """Stopping and truncation parameters for ``integrate_path``.

    rel_tol / abs_tol  combined target: iteration stops once the summed
                       panel error is below max(abs_tol, rel_tol*|result|),
                       for every integrand row against its own result.
    max_panels         hard cap on the number of panels before giving up;
                       panels are shared by all rows.
    truncation_drop    infinite ray tails are cut once the local integrand
                       magnitude falls below truncation_drop * peak, for
                       every row against its own peak.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_panels: int = 4096
    truncation_drop: float = 1e-18

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol >= 0.0):
            raise DomainError("tolerances must be positive")
        if self.max_panels < 2:
            raise DomainError("max_panels must be at least 2")
        if not 0.0 < self.truncation_drop < 1.0:
            raise DomainError("truncation_drop must lie in (0, 1)")


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
#
# Lanczos approximation with g = 607/128 and 15 coefficients (Godfrey's
# tableau); relative accuracy is a few ulp across the strip we care about.
# The reflection formula 1/Gamma(z) = sin(pi z) Gamma(1-z) / pi covers
# Re(z) < 1/2 and produces the correct small values near the poles, while
# exact nonpositive integers short-circuit to exactly zero.

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _lanczos_gamma(z: complex) -> complex:
    # valid for Re(z) >= 0.5
    acc = _LANCZOS_C[0] + 0j
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (z - 1.0 + k)
    t = z + (_LANCZOS_G - 0.5)
    return _SQRT_2PI * cmath.exp((z - 0.5) * cmath.log(t) - t) * acc


def recip_gamma(z: complex) -> complex:
    """1/Gamma(z); exactly 0 at nonpositive integers.

    When Gamma itself overflows the double range the reciprocal underflows
    to 0 (right half-plane); on the reflection side the reciprocal is the
    thing that is huge, so overflow propagates there.
    """
    z = complex(z)
    if z.imag == 0.0:
        zr = z.real
        if zr <= 0.0 and zr == math.floor(zr):
            return 0j
    if z.real < 0.5:
        return cmath.sin(math.pi * z) * _lanczos_gamma(1.0 - z) / math.pi
    try:
        return 1.0 / _lanczos_gamma(z)
    except OverflowError:
        return 0j


# --------------------------------------------------------------------------
# compensated summation

def compensated_sum(terms: Iterable[complex]) -> complex:
    """Neumaier-compensated sum of a complex sequence.

    The rounding error behaves as if the accumulation were carried out in
    (at least) doubled working precision.  An empty sequence sums to 0.
    Overflow propagates as a non-finite result rather than raising.
    """
    s_re = 0.0
    c_re = 0.0
    s_im = 0.0
    c_im = 0.0
    for term in terms:
        t = complex(term)
        x = t.real
        tmp = s_re + x
        if abs(s_re) >= abs(x):
            c_re += (s_re - tmp) + x
        else:
            c_re += (x - tmp) + s_re
        s_re = tmp
        y = t.imag
        tmp = s_im + y
        if abs(s_im) >= abs(y):
            c_im += (s_im - tmp) + y
        else:
            c_im += (y - tmp) + s_im
        s_im = tmp
    return complex(s_re + c_re, s_im + c_im)


# --------------------------------------------------------------------------
# path parametrizations

VectorFun = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PathSegment:
    """One smooth piece of an integration path.

    ``point`` maps parameter values (ndarray) to points in the plane and
    ``velocity`` to d(point)/ds.  ``s0 > s1`` is allowed and integrates the
    piece in reverse.  ``s1 = inf`` marks a ray whose tail is truncated by
    the quadrature engine.
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
        velocity=lambda s: np.full_like(s, d, dtype=complex),
        s0=0.0,
        s1=1.0,
    )


def circular_arc(radius: float, phi0: float, phi1: float, center: complex = 0j) -> PathSegment:
    if radius <= 0.0:
        raise DomainError("arc radius must be positive")
    center = complex(center)
    return PathSegment(
        point=lambda s: center + radius * np.exp(1j * s),
        velocity=lambda s: 1j * radius * np.exp(1j * s),
        s0=float(phi0),
        s1=float(phi1),
    )


def radial_ray(angle: float, r0: float, r1: float = math.inf) -> PathSegment:
    """Ray (or reversed ray) along direction exp(i*angle), parametrized by radius."""
    direction = cmath.exp(1j * angle)
    return PathSegment(
        point=lambda s: s * direction,
        velocity=lambda s: np.full_like(s, direction, dtype=complex),
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
_W_KG = np.stack((_W_KRONROD, _W_GAUSS))


def _panel_error(err: float, resasc: float, resabs: float) -> float:
    """QUADPACK's rescaled error of one panel from |kronrod - gauss|."""
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return max(err, 50.0 * _EPS * resabs)


def _eval_panel(f, seg: PathSegment, a: float, b: float, arclength: bool):
    """Apply the (7,15) pair on [a, b] of one segment to every integrand.

    ``f`` returns one value per node or an (n, 15) array, one row per
    integrand.  Returns (row, peak, single): ``row`` packs the Kronrod
    values (as interleaved real/imaginary floats), the error magnitudes and
    the |f| sums (resabs) of all n integrands into one float vector of
    length 4n, ``peak`` is the largest |weighted integrand| of each, and
    ``single`` tells whether ``f`` returned a 1-D array.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    s = c + h * _NODES
    weight = seg.velocity(s)
    if arclength:
        weight = np.abs(weight)
    y = np.asarray(f(seg.point(s)), dtype=complex) * weight
    single = y.ndim == 1
    if single:
        y = y[None, :]
    elif y.ndim != 2:
        raise DomainError("integrand must return one value per node or an "
                          "(n, nodes) array")
    # Kronrod and embedded Gauss sums in one (2, n) reduction
    kg = h * np.add.reduce(y * _W_KG[:, None, :], axis=2)
    k_val = kg[0]
    ah = abs(h)
    abs_y = np.abs(y)
    resabs = ah * np.add.reduce(_W_KRONROD * abs_y, axis=1)
    mean = k_val / (b - a)
    resasc = ah * np.add.reduce(_W_KRONROD * np.abs(y - mean[:, None]), axis=1)
    err = [_panel_error(abs(k - g), asc, rab) for k, g, asc, rab
           in zip(k_val.tolist(), kg[1].tolist(), resasc.tolist(), resabs.tolist())]
    return np.concatenate((k_val.view(float), err, resabs)), abs_y.max(axis=1), single


_MAX_TAIL_BLOCKS = 64


def _seed_panels(f, seg: PathSegment, controls: QuadratureControls, arclength: bool):
    """Initial evaluated panels of one segment; truncates an infinite tail.

    Returns a list of ((seg, a, b), _eval_panel result).  A ray is laid out
    in doubling blocks until every integrand has dropped below
    truncation_drop times its own peak; each block is evaluated once and
    becomes a panel.
    """
    if math.isfinite(seg.s1):
        return [((seg, seg.s0, seg.s1), _eval_panel(f, seg, seg.s0, seg.s1, arclength))]
    panels = []
    start = seg.s0
    length = max(1.0, abs(seg.s0))
    peak = 0.0
    for _ in range(_MAX_TAIL_BLOCKS):
        end = start + length
        evaluated = _eval_panel(f, seg, start, end, arclength)
        panels.append(((seg, start, end), evaluated))
        block_peak = evaluated[1]
        peak = np.maximum(peak, block_peak)
        if len(panels) >= 2 and np.all(block_peak <= controls.truncation_drop * peak):
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
    largest err_ij / target_j over the integrands still open.  A ray tail
    is cut once every integrand has dropped below ``truncation_drop`` times
    its own peak.  ``max_panels`` counts shared panels.

    Returns ``(value, error_estimate)``: scalars for a 1-D integrand, arrays
    of length n otherwise.  Raises :class:`QuadratureError` (carrying the
    best estimate, in the same shape) if ``max_panels`` is exhausted first.
    """
    controls = controls or DEFAULT_CONTROLS
    segments = [path] if isinstance(path, PathSegment) else list(path)
    if not segments:
        raise DomainError("empty path")

    seeds = [panel for seg in segments
             for panel in _seed_panels(f, seg, controls, arclength)]
    _, (_, peak, single) = seeds[0]
    n = len(peak)
    # table row r is panel r's packed _eval_panel row; acc holds the running
    # sums over the live rows in the same layout: totals, errors, resabs.
    # A bisected panel keeps its row with the errors set to -inf, so ties
    # in the selection go to the oldest panel, and new rows are appended.
    where = [panel for panel, _ in seeds]
    rows = len(where)
    table = np.empty((max(64, 2 * rows), 4 * n))
    table[:rows] = [row for _, (row, _, _) in seeds]
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
        for lo, hi in ((a, mid), (mid, b)):
            row = _eval_panel(f, seg, lo, hi, arclength)[0]
            table[rows] = row
            acc += row
            where.append((seg, lo, hi))
            rows += 1
        panels += 1
    if single:
        return total[0], err_sum[0]
    return total.copy(), err_sum.copy()
