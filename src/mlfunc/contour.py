"""Contour-integral representation of E_{alpha,beta} for 0 < alpha < 1, and
the expansion at infinity it yields for 0 < alpha <= 1.

The integration path gamma(eps, theta) runs in from infinity along
arg zeta = -theta, counterclockwise around the circle |zeta| = eps, and back
out along arg zeta = +theta, with theta restricted to (alpha*pi/2, alpha*pi).
The restriction makes exp(zeta**(1/alpha)) decay along both rays and keeps
the path clear of the negative real axis, so every power of zeta on the path
is the principal branch.

The path splits the plane into

    G+ : |arg z| < theta and |z| > eps   (right of the path)
    G- : everything else                  (left of the path)

and for z off the path

    E_{alpha,beta}(z) = I(z)                          z in G-
    E_{alpha,beta}(z) = I(z)
        + (1/alpha) z**((1-beta)/alpha) exp(z**(1/alpha))   z in G+

with

    I(z) = 1/(2 alpha pi i) *
           integral over gamma of exp(zeta**(1/alpha)) zeta**((1-beta)/alpha)
                                  / (zeta - z) dzeta.

``ml_contour_deriv`` differentiates under the integral sign, which turns
1/(zeta - z) into l! / (zeta - z)**(l+1); the explicit G+ term is
differentiated symbolically.  ``recip_gamma_via_contour`` evaluates the same
path integral without the Cauchy kernel, which collapses to a Hankel loop
and must reproduce 1/Gamma(beta - alpha); it is the built-in self-test that
the path, branch handling and quadrature agree.

Expanding 1/(zeta - z) = -sum_{k<N} zeta^k / z^(k+1) + zeta^N / (z^N (zeta - z))
under the integral gives the expansion at infinity (Podlubny, Thm 1.4)

    E(z) = [explicit G+ term] - sum_{k=1..N} z^(-k) / Gamma(beta - alpha k) + R_N(z),
    |R_N(z)| <= I_N / (2 alpha pi dist(z, gamma) |z|^N),

where I_N is the mass of |kernel(zeta)| |zeta|^N over gamma(1, theta).  With
c = -cos(theta/alpha), s = (1 - Re beta)/alpha + N and A = alpha (s + 1), the
rays extended to [0, inf) and the unit arc give it in closed form,

    I_N <= e^(|Im beta| theta/alpha) (2 alpha c^(-A) Gamma(A) + 2 theta e),

finite for s > -1 (``path_mass_bound``).  R_N(z) = z^(-N) J(z), where J is
the path integral of kernel(zeta) zeta^N / (zeta - z), so
|J^(k)(z)| <= k! I_N / (2 alpha pi dist^(k+1)), and the product rule bounds
the l-th derivative of the remainder by

    I_N / (2 alpha pi) sum_{k<=l} C(l,k) (N)_(l-k) k! |z|^(-(N+l-k)) / dist^(k+1)

((N)_j the rising factorial) at any z off the path, in G+ or G-
(``remainder_bound``; ``matrixfn``'s tail bound and ``bounds``' M_hat_l take
both).  No quadrature enters, and none of this needs alpha < 1: at
alpha = 1 the same paths, with theta in (pi/2, pi), carry the expansion of
E_{1,beta}.  ``_expansion_route`` is ``evaluate``'s route on it.

``ml_contour_deriv`` and ``_expansion_route`` take lambda, t and l as 1-D
arrays, so one call serves every eigenvalue of a matrix argument.
"""

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import binom, gammaln, rgamma

from .numcore import (
    DEFAULT_CONTROLS,
    DomainError,
    PathSegment,
    QuadratureControls,
    circular_arc,
    cpow,
    integrate_path,
    radial_ray,
    require_finite,
    require_grid,
    require_orders,
)
from .series import EvalResult, EvaluationError, MLParams

__all__ = [
    "ContourSpec",
    "RegionClass",
    "admissible_specs",
    "cauchy_integral",
    "classify_region",
    "contour_distance",
    "contour_path",
    "expansion_coefficient",
    "integrate_gamma",
    "ml_contour",
    "ml_contour_deriv",
    "path_mass_bound",
    "recip_gamma_via_contour",
    "remainder_bound",
]

_EPS = math.ulp(1.0)


@dataclass(frozen=True)
class ContourSpec:
    """Path parameters: radius eps and ray angle theta for a given alpha."""

    alpha: float
    theta: float
    eps: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise DomainError("contour representation requires 0 < alpha < 1")
        lo = self.alpha * math.pi / 2.0
        hi = self.alpha * math.pi
        if not (lo < self.theta < hi):
            raise DomainError(
                f"theta must lie strictly inside (alpha*pi/2, alpha*pi) = ({lo}, {hi})"
            )
        if not (self.eps > 0.0 and math.isfinite(self.eps)):
            raise DomainError("eps must be positive and finite")


class RegionClass(enum.Enum):
    G_MINUS = "G-"
    G_PLUS = "G+"
    NEAR_CONTOUR = "near-contour"


def _path_geometry(theta, eps: float, z) -> tuple[np.ndarray, np.ndarray]:
    """Distance from z to the path gamma(eps, theta), and whether z lies in
    its G+ (|z| > eps, |arg z| < theta), elementwise over z and theta
    broadcast together.  Only the angles enter, not alpha, so the same
    geometry serves alpha = 1 with theta in (pi/2, pi)."""
    z = np.asarray(z, dtype=complex)
    mod = np.hypot(z.real, z.imag)  # abs() of a Python complex, to the last bit
    arg = np.abs(np.angle(z))  # the ray on z's side of the axis is the nearer one
    along = mod * np.cos(arg - theta)
    across = mod * np.abs(np.sin(arg - theta))
    dist = np.where(along >= eps, across, np.hypot(along - eps, across))
    dist = np.where(arg <= theta, np.minimum(dist, np.abs(mod - eps)), dist)
    return dist, (mod > eps) & (arg < theta)


# the near-path band, relative to max(1, |z|): closer than this to the path,
# the Gauss-Kronrod estimate of the path integral no longer covers its error
_NEAR_BAND = 3e-3


def _near_path(dist: np.ndarray, z) -> np.ndarray:
    """The one near-path band: closer than _NEAR_BAND * max(1, |z|)."""
    return dist < _NEAR_BAND * np.maximum(1.0, np.hypot(z.real, z.imag))


def contour_distance(spec: ContourSpec, z: complex) -> float:
    """Euclidean distance from z to the path gamma(eps, theta)."""
    return float(_path_geometry(spec.theta, spec.eps, complex(z))[0])


def classify_region(spec: ContourSpec, z) -> RegionClass | tuple[RegionClass, ...]:
    """G+/G- classification with a near-path guard band: anything closer to
    the path than 3e-3 * max(1, |z|) is reported NEAR_CONTOUR instead of
    either region.  It is the band ``admissible_specs`` keeps clear of and
    ``cauchy_integral`` rejects.  A 1-D array of arguments is classified in
    one pass and gives a tuple, one class per entry.
    """
    zs = np.asarray(z, dtype=complex)
    dist, g_plus = _path_geometry(spec.theta, spec.eps, zs)
    classes = np.where(_near_path(dist, zs), RegionClass.NEAR_CONTOUR,
                       np.where(g_plus, RegionClass.G_PLUS, RegionClass.G_MINUS))
    return tuple(classes.tolist()) if zs.ndim else classes[()]


def contour_path(spec: ContourSpec) -> list[PathSegment]:
    """The three pieces of gamma; the inward ray is realized as a reversed
    outward ray, so callers must negate its contribution."""
    down = radial_ray(-spec.theta, spec.eps)   # integrate outward, subtract
    arc = circular_arc(spec.eps, -spec.theta, spec.theta)
    up = radial_ray(spec.theta, spec.eps)
    return [down, arc, up]


def integrate_gamma(spec: ContourSpec, f, controls: QuadratureControls,
                    arclength: bool = False):
    """Integral of f over gamma: (value, err, calls), orientation included,
    where ``calls`` counts the calls of ``f`` (one per seed call of each
    of the three pieces, and one per refinement sweep of each); ``f`` and
    ``arclength`` are as ``integrate_path`` takes them."""
    panels = 0

    def counted(zeta: np.ndarray) -> np.ndarray:
        nonlocal panels
        panels += 1
        return f(zeta)

    down, arc, up = contour_path(spec)
    v_down, e_down = integrate_path(counted, [down], controls, arclength=arclength)
    v_arc, e_arc = integrate_path(counted, [arc], controls, arclength=arclength)
    v_up, e_up = integrate_path(counted, [up], controls, arclength=arclength)
    if arclength:
        value = v_down + v_arc + v_up
    else:
        value = -v_down + v_arc + v_up
    return value, e_down + e_arc + e_up, panels


def _kernel_factory(spec: ContourSpec, beta: complex):
    inv_alpha = 1.0 / spec.alpha
    p = (1.0 - beta) * inv_alpha

    def kernel(zeta: np.ndarray) -> np.ndarray:
        return np.exp(zeta ** inv_alpha) * zeta ** p

    return kernel


def cauchy_integral(spec: ContourSpec, p: MLParams, z,
                    controls: QuadratureControls, order):
    """The path integral I(z), or for order = l its derivative-kernel variant

        1/(2 alpha pi i) * integral over gamma of
            exp(zeta**(1/alpha)) zeta**((1-beta)/alpha) * l! / (zeta - z)**(l+1)

    returned as (value, err_estimate, calls), ``calls`` counting the kernel
    evaluations of ``integrate_gamma``.  ``z`` is one argument or a
    1-D array of them, and ``order`` one order or a 1-D array of them
    matched to ``z`` (a single z is shared by every order).  Each row is
    then one (z, l) pair; all rows share one adaptive partition of the path
    (the kernel is evaluated once per node) and give arrays of values and
    error estimates.  Every argument must be finite and keep out of the
    near-path band of ``classify_region``, 3e-3 * max(1, |z|) from the path,
    where the Gauss-Kronrod estimate no longer covers the error; an argument
    inside it raises DomainError.
    For z in G+ this is the remainder E_{alpha,beta}(z) minus the explicit
    term, which the interior certificates of ``bounds`` measure directly.
    """
    if spec.alpha != p.alpha:
        raise DomainError("contour spec and parameters disagree on alpha")
    order = require_orders("order", order)
    zs = np.asarray(z, dtype=complex)
    require_finite("z", zs)
    if zs.ndim > 1:
        raise DomainError("z must be a number or a 1-D array of numbers")
    if _near_path(_path_geometry(spec.theta, spec.eps, zs)[0], zs).any():
        raise DomainError("argument lies on or near the integration path")
    if isinstance(order, np.ndarray):
        if zs.ndim and zs.shape != order.shape:
            raise DomainError("order must be one integer or an array as long as z")
        zs = np.broadcast_to(zs, order.shape)
        lfac = np.array([math.factorial(k) for k in order.tolist()], dtype=float)[:, None]
        power = order[:, None] + 1
    else:
        lfac = float(math.factorial(order))
        power = order + 1
    # a column of arguments against the row of nodes gives one integrand
    # per row; a single argument at a single order keeps the 1-D integrand
    col = zs[:, None] if zs.ndim else complex(z)
    kernel = _kernel_factory(spec, p.beta)

    def f(zeta: np.ndarray) -> np.ndarray:
        return kernel(zeta) * lfac / (zeta - col) ** power

    value, err, panels = integrate_gamma(spec, f, controls)
    pref = 1.0 / (2.0 * spec.alpha * math.pi)
    # prefactor 1/(2 alpha pi i): dividing by i rotates, magnitude unchanged
    return value * pref / 1j, err * pref, panels


def _explicit_term_powers(alpha: float, beta: complex, order: int):
    """Coefficients for d^l/du^l of (1/alpha) u**((1-beta)/alpha) e**(u**(1/alpha)).

    Returns a list of (c, p) with the derivative equal to
    e**(u**(1/alpha)) * sum c * u**p.
    """
    inv_alpha = 1.0 / alpha
    terms = {(1.0 - beta) * inv_alpha: 1.0 / alpha}
    for _ in range(order):
        nxt: dict[complex, complex] = {}
        for pw, c in terms.items():
            if c == 0:
                continue
            if pw != 0:  # power-rule part
                key = pw - 1.0
                nxt[key] = nxt.get(key, 0.0) + c * pw
            key = pw + inv_alpha - 1.0  # chain-rule part from the exponential
            nxt[key] = nxt.get(key, 0.0) + c * inv_alpha
        terms = nxt
    return [(c, pw) for pw, c in terms.items()]


def _explicit_term(alpha: float, beta: complex, z: complex, order: int = 0) -> complex:
    try:
        ez = cmath.exp(cpow(z, 1.0 / alpha))
        acc = 0j
        for c, pw in _explicit_term_powers(alpha, beta, order):
            acc += c * cpow(z, pw)
        return ez * acc
    except OverflowError as exc:
        raise EvaluationError(
            "explicit exponential term overflows double precision") from exc


def _explicit_part(alpha: float, beta: complex, z: complex,
                   order: int) -> tuple[complex, float]:
    """The explicit G+ term's ``order``-th z-derivative with its rounding
    bar, for both routes that add it."""
    value = _explicit_term(alpha, beta, z, order)
    # exp(w), w = z**(1/alpha), carries the absolute rounding of w: about
    # eps |w| from z itself and eps |w| |Log z| / alpha from the logarithm
    # and the exponent 1/alpha
    w_mod = abs(z) ** (1.0 / alpha)
    log_mod = abs(cmath.log(z))
    return value, 4.0 * _EPS * (1.0 + w_mod * (1.0 + log_mod / alpha)) * abs(value)


_THETA_FRACS = (0.75, 0.625, 0.875, 0.5625, 0.9375)  # of alpha*pi, by preference


def admissible_specs(alpha: float, z):
    """Yield the paths that keep at least 3e-3 * max(1, |z_j|) from every
    entry z_j of ``z`` (one number or a 1-D array), the band
    ``classify_region`` reports NEAR_CONTOUR, in order of preference:
    ray angles 0.75, 0.625, 0.875, 0.5625, 0.9375 of alpha*pi, each with
    radius 1, 1/2 and 2.

    The first spec is the one the path route takes when no spec is given;
    the later ones give other partitions and nodes for a cross-check.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    for frac in _THETA_FRACS:
        theta = frac * alpha * math.pi
        for eps in (1.0, 0.5, 2.0):
            if not _near_path(_path_geometry(theta, eps, zs)[0], zs).any():
                yield ContourSpec(alpha, theta, eps)


def ml_contour(p: MLParams, z: complex,
               spec: ContourSpec | None = None) -> EvalResult:
    """E_{alpha,beta}(z) through the path representation (alpha < 1): the
    l = 0, t = 1 case of ``ml_contour_deriv`` at DEFAULT_CONTROLS.

    With ``spec=None`` the path is the first of ``admissible_specs``, so the
    argument keeps a healthy distance from it.  A caller-provided spec is
    used as-is and rejected if the argument sits too close.
    """
    require_finite("z", z)
    return _path_route(p, complex(z), 1.0, 0, None, spec)


def ml_contour_deriv(p: MLParams, lam: complex | np.ndarray, t: float | np.ndarray,
                     l: int | np.ndarray,
                     controls: QuadratureControls | None = None,
                     spec: ContourSpec | None = None) -> EvalResult:
    """l-th lambda-derivative of E_{alpha,beta}(lambda t**alpha) by the path route.

    Differentiating under the integral sign multiplies the Cauchy kernel up
    to l! / (zeta - z)**(l+1) and scales by t**(alpha*l); the explicit G+
    term is differentiated in closed form.  ``controls`` defaults to
    DEFAULT_CONTROLS; the certificates pass ``bounds._CERT_QUAD``.

    ``lam`` is one value or a 1-D array of them, ``t`` one time or a 1-D
    array of them, and ``l`` one order or a 1-D array of them; the three
    broadcast together, and entry j is the l_j-th derivative at lambda_j,
    t_j.  An array gives an EvalResult whose value and err_estimate are
    arrays, from one batched path integral on one spec (its work count is
    the integrand calls on the shared partition).  The default spec is the
    first one ``admissible_specs`` yields for all the arguments
    lambda t**alpha together; only when no path clears them all are the
    entries grouped by the first path that clears each one, one integral
    per group, and the counts add up.
    """
    l = require_orders("l", l)
    lam = require_grid("lam", lam, complex)
    t = require_grid("t", t)
    if t.min() <= 0.0:
        raise DomainError("the path route needs t > 0")
    if isinstance(l, np.ndarray):
        try:
            t, l = np.broadcast_arrays(t, l)
        except ValueError:
            raise DomainError(f"arguments t and l must broadcast together, got "
                              f"lengths {t.size} and {l.size}") from None
    if lam.ndim:
        try:
            lam, t = np.broadcast_arrays(lam, t)
        except ValueError:
            raise DomainError(f"arguments lam and t must broadcast together, got "
                              f"lengths {lam.size} and {t.size}") from None
        l = np.broadcast_to(l, t.shape)
    return _path_route(p, lam if lam.ndim else complex(lam), t, l, controls, spec)


def _path_route(p: MLParams, lam: complex | np.ndarray, t: float | np.ndarray,
                l: int | np.ndarray, controls: QuadratureControls | None,
                spec: ContourSpec | None) -> EvalResult:
    """The path route of ``ml_contour`` and ``ml_contour_deriv`` on their
    validated arguments (an array ``lam`` or ``l`` has the shape of ``t``):
    one batched integral over every (lambda, t, l) entry, plus the explicit
    term with its error bar at each z in G+ of the path.  A single time
    runs as a length-1 array and its result is unwrapped."""
    t_alpha = np.atleast_1d(t) ** p.alpha
    z = lam * t_alpha
    if spec is None:
        spec = next(admissible_specs(p.alpha, z), None)
        if spec is None:
            return _grouped_path_route(p, lam, np.atleast_1d(t), l, controls, z)
    value, err, panels = cauchy_integral(spec, p, z, controls or DEFAULT_CONTROLS, l)
    scale = t_alpha ** l
    value *= scale
    err *= scale
    orders = np.broadcast_to(l, z.shape)
    for j in np.flatnonzero(_path_geometry(spec.theta, spec.eps, z)[1]).tolist():
        expl, bar = _explicit_part(p.alpha, p.beta, complex(z[j]), int(orders[j]))
        value[j] += expl * scale[j]
        err[j] += bar * scale[j]
    if not np.ndim(t):
        return EvalResult(complex(value[0]), float(err[0]), "contour", panels)
    return EvalResult(value, err, "contour", panels)


def _grouped_path_route(p: MLParams, lam: complex | np.ndarray, t: np.ndarray,
                        l: int | np.ndarray, controls: QuadratureControls | None,
                        z: np.ndarray) -> EvalResult:
    """``_path_route`` when no one path clears every argument in ``z``: the
    entries are grouped by the first path that clears each alone, and each
    group takes one batched integral on its path.  The counts add up."""
    firsts = [next(admissible_specs(p.alpha, zj), None) for zj in z.tolist()]
    if None in firsts:
        raise EvaluationError("no admissible path separates the argument")
    orders = np.broadcast_to(l, t.shape)
    lams = np.broadcast_to(lam, t.shape)
    value = np.empty(t.shape, dtype=complex)
    err = np.empty(t.shape)
    panels = 0
    for spec in dict.fromkeys(firsts):
        rows = [j for j, first in enumerate(firsts) if first == spec]
        part = _path_route(p, lams[rows], t[rows], orders[rows], controls, spec)
        value[rows] = part.value
        err[rows] = part.err_estimate
        panels += part.terms_or_panels
    return EvalResult(value, err, "contour", panels)


# --------------------------------------------------------------------------
# the large-|z| expansion

# theta/alpha on the rays of ``admissible_specs``, and the largest
# c = -cos(theta/alpha), the rate of the decay exp(-c r^(1/alpha)) of the
# kernel along them
_RAY_TURNS = np.array(_THETA_FRACS) * math.pi
_C_MAX = -math.cos(max(_THETA_FRACS) * math.pi)
# the orders stop where alpha N + |beta| nears Gamma's overflow at 171.6,
# and 40/alpha past the first: were the smallest bound further out, the
# bound there would already be below e^-40 times its prefactor
_GAMMA_ARG_MAX = 168.0
_ORDER_SPAN = 40.0


def path_mass_bound(alpha: float, beta: complex, turns, orders) -> np.ndarray:
    """log of a closed-form upper bound on I_N, the mass of
    |exp(zeta^(1/alpha)) zeta^((1-beta)/alpha)| |zeta|^N over the path
    gamma(1, theta), one row per ray angle theta = alpha * turns (``turns``
    a 1-D array, each in (pi/2, pi)) and one column per order N.

    With s = (1 - Re beta)/alpha + N, A = alpha (s + 1) and
    c = -cos(theta/alpha), the rays extended to [0, inf) and the unit arc
    give

        I_N <= e^(|Im beta| theta/alpha) (2 alpha c^(-A) Gamma(A) + 2 theta e),

    finite for s > -1.  At beta = alpha, I_1 bounds the paper's I1
    (``bounds.kappa_integrals``)."""
    turns = np.asarray(turns, dtype=float)[:, None]
    big_a = 1.0 - beta.real + alpha * (np.asarray(orders) + 1.0)
    log_ray = math.log(2.0 * alpha) + gammaln(big_a) - big_a * np.log(-np.cos(turns))
    log_arc = np.log(2.0 * math.e * alpha * turns)
    return np.logaddexp(log_ray, log_arc) + abs(beta.imag) * turns


def remainder_bound(alpha: float, log_mass, z_mod, dist, orders, l):
    """log of the module docstring's bound on |R_N^(l)(z)|, with
    log I_N = ``log_mass``, |z| = ``z_mod``, dist(z, gamma) = ``dist`` and
    N = ``orders``, all broadcast with l.  It is summed as
    l! |z|^(-N) dist^(-(l+1)) sum_{j<=l} C(N+j-1, j) (dist/|z|)^j."""
    log_bound = (-math.log(2.0 * alpha * math.pi) - np.log(dist) + log_mass
                 - orders * np.log(z_mod))
    if not np.any(l):
        return log_bound
    q = dist / z_mod
    term = total = 1.0
    for j in range(1, int(np.max(l)) + 1):
        term = term * q * ((orders + (j - 1.0)) / j)
        total = total + np.where(l >= j, term, 0.0)
    return log_bound + gammaln(l + 1.0) - l * np.log(dist) + np.log(total)


def expansion_coefficient(alpha: float, lam, k, l, beta: complex | None = None):
    """Coefficient of t^(-alpha k) in the order-k term of
    (1/l!) d^l/dlambda^l E_{a,b}(lambda t^a) expanded at infinity:

        -(-1)^l C(k+l-1, l) lambda^(-k-l) / Gamma(b - a k)

    (C(k+l-1, l) = (k)_l / l!), with b = ``beta``, by default a.  At
    b = a it is 0 at k = 1.  ``lam``, ``k`` and ``l`` may be arrays,
    broadcast together; the result is real when lambda and beta are.
    """
    beta = complex(alpha if beta is None else beta)
    lam = np.asarray(lam, dtype=complex)
    k, l = np.asarray(k), np.asarray(l)
    n = k + l
    positive = l % 2 == 1
    if lam.imag.any():
        power = lam ** -n
    else:
        # a real power keeps a real coefficient real; |lambda|^-n with the
        # sign taken apart is also far faster than a negative base's power
        power = np.abs(lam.real) ** -n
        positive = positive ^ ((lam.real < 0.0) & (n % 2 == 1))
    x = beta.real - alpha * k if beta.imag == 0.0 else beta - alpha * k
    coef = np.where(positive, 1.0, -1.0) * binom(n - 1, l) * power * rgamma(x)
    return coef[()]


def _expansion_orders(alpha: float, beta: complex) -> np.ndarray:
    """The orders N the expansion route may sum to: those with s > -1 (a
    finite ray mass), up to the limits above."""
    n_lo = max(1, math.floor((beta.real - 1.0) / alpha - 1.0) + 1)
    n_hi = min(math.floor((_GAMMA_ARG_MAX - abs(beta)) / alpha),
               n_lo + math.floor(_ORDER_SPAN / alpha))
    return np.arange(n_lo, n_hi + 1)


def _expansion_route(p: MLParams, lam: complex | np.ndarray, t: np.ndarray, l: np.ndarray,
                     tol: float) -> list[EvalResult | None]:
    """The l_j-th lambda-derivative of E_{alpha,beta}(lambda_j t_j**alpha)
    for each entry j (``lam`` one value or an array shaped like ``t``) from
    the expansion at infinity, or None for an entry whose error bar misses
    ``tol`` relative to its value.  The explicit G+ term's own rounding is
    left out of that test, since the path route would carry it too; the
    reported bar includes it.  All entries share one vectorized pass.

    It sums the module docstring's expansion at z = lambda t**alpha, with
    the remainder bounded by ``remainder_bound``.  A screen first passes on
    at once every entry that falls e^5 short of tol even on a rough
    estimate (below).  Each other entry takes the ray angle of
    ``admissible_specs`` whose bound is smallest at the order where
    I_N |z|^(-N) is smallest; log I_N is convex in N, so on each path that
    order is where I_(N+1)/I_N first reaches |z|.  On that ray it sums to
    the first order whose bound is below 1/64 ulp of the largest of its
    first four terms, past which the rounding bar dominates, or else to the
    order of the smallest bound.
    The rounding bar charges each term 100 eps, N eps for the sum, the
    rounding of the power z^(-k-l), and the shift eps (alpha k + |x|) of
    x = beta - alpha k through the slope of 1/Gamma.  That slope is
    psi(x)/Gamma(x) with |psi(x)| <= log(2 + |x|) + 3 for Re x > 1/2, and
    reflection bounds it by Gamma(1 - Re x) cosh(pi Im x) (log(2 + |x|) + 4)
    elsewhere, pole or not.
    """
    alpha, beta = p.alpha, p.beta
    results: list[EvalResult | None] = [None] * t.size
    # an overflow, or an inf or NaN, only ever makes an entry's bar miss
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = lam * t ** alpha
        z_mod = np.abs(z)
        # relative to the value the smallest bound is about e^(-c |z|^(1/alpha)),
        # smaller by the explicit term's growth in G+ and, for Re beta > 1, by
        # |z|^(-(Re beta - 1)/alpha)
        arg = np.abs(np.angle(z))
        growth = np.where(arg < alpha * math.pi, np.maximum(np.cos(arg / alpha), 0.0), 0.0)
        reach = (z_mod ** (1.0 / alpha) * (_C_MAX + growth)
                 + max(0.0, (beta.real - 1.0) / alpha) * np.log(np.maximum(z_mod, 1.0)))
        keep = np.flatnonzero(reach >= -math.log(tol) - 5.0)
        if not keep.size:
            return results
        orders = _expansion_orders(alpha, beta)
        if not orders.size:
            return results
        log_i = path_mass_bound(alpha, beta, _RAY_TURNS, orders)
        t, l, z, z_mod = t[keep], l[keep], z[keep], z_mod[keep]
        # each path's bound at its smallest I_N |z|^(-N), then the best path
        dist, g_plus = _path_geometry(_RAY_TURNS * alpha, 1.0, z[:, None])
        usable = (z_mod[:, None] > 1.0) & ~_near_path(dist, z[:, None])
        at = (np.diff(log_i, axis=1) < np.log(z_mod)[:, None, None]).sum(axis=2)
        log_min = np.where(usable, remainder_bound(
            alpha, np.take_along_axis(log_i, at.T, axis=1).T, z_mod[:, None], dist,
            orders[at], l[:, None]), np.inf)
        rows = np.arange(keep.size)
        best = np.argmin(log_min, axis=1)
        log_min, g_plus, dist = log_min[rows, best], g_plus[rows, best], dist[rows, best]
        # an entry's size is the largest of its first four terms; outside
        # G+ an entry whose smallest bound is far above tol times it goes on
        lfac = np.exp(gammaln(l + 1.0))
        lead = lfac * np.abs(expansion_coefficient(
            alpha, z[:, None], np.arange(1, 5), l[:, None], beta)).max(axis=1)
        live = np.flatnonzero(np.isfinite(log_min) & (
            g_plus | (log_min <= np.log(64.0 * tol * lead))))
        if not live.size:
            return results
        keep, t, l, z, z_mod = keep[live], t[live], l[live], z[live], z_mod[live]
        best, g_plus, lfac, lead = best[live], g_plus[live], lfac[live], lead[live]
        log_bounds = remainder_bound(alpha, log_i[best], z_mod[:, None], dist[live, None],
                                     orders, l[:, None])
        below = log_bounds <= np.log(lead * (_EPS / 64.0))[:, None]
        stop = np.where(below.any(axis=1), below.argmax(axis=1), log_bounds.argmin(axis=1))
        remainder = np.exp(log_bounds[np.arange(live.size), stop])
        # the terms and their rounding, one row per entry
        n_terms = orders[stop][:, None]
        k = np.arange(1, n_terms.max() + 1)
        terms = expansion_coefficient(alpha, z[:, None], k, l[:, None], beta) * lfac[:, None]
        inside = k <= n_terms
        sums = np.where(inside, terms, 0.0).sum(axis=1)
        mags = np.abs(terms)
        x = beta.real - alpha * k if beta.imag == 0.0 else beta - alpha * k
        x_mod = np.abs(x)
        log_z = np.log(z_mod)[:, None]
        kl = k + l[:, None]
        envelope = np.where(x.real > 0.5, mags, np.exp(
            gammaln(kl) - gammaln(k) - kl * log_z + math.pi * abs(beta.imag)
            + gammaln(np.maximum(1.0 - x.real, 0.5))))
        per_term = (mags * (100.0 + n_terms + kl * (1.0 + log_z + math.pi))
                    + envelope * (np.log(2.0 + x_mod) + 4.0) * (alpha * k + x_mod))
        bars = remainder + _EPS * np.where(inside, per_term, 0.0).sum(axis=1)
        scales = t ** (alpha * l)
    for j in range(keep.size):
        value = complex(sums[j])
        bar = own = float(bars[j])
        if g_plus[j]:
            expl, expl_bar = _explicit_part(alpha, beta, complex(z[j]), int(l[j]))
            value += expl
            bar += expl_bar
        scale = float(scales[j])
        value *= scale
        bar *= scale
        # the path route would carry the explicit term's rounding too, so
        # only the expansion's own bar is held to tol
        if cmath.isfinite(value) and math.isfinite(bar) and own * scale <= tol * abs(value):
            results[keep[j]] = EvalResult(value, bar, "asymptotic", int(n_terms[j, 0]))
    return results


def recip_gamma_via_contour(alpha: float, b: complex,
                            theta: float | None = None, eps: float = 1.0) -> complex:
    """Path integral of the bare kernel at DEFAULT_CONTROLS; must equal
    1/Gamma(b - alpha).

    Substituting zeta = w**alpha turns the path into a Hankel loop, so the
    value is independent of (theta, eps).  Disagreement with the direct
    reciprocal gamma flags a branch or orientation bug; the self-test
    command is built on this identity.
    """
    if theta is None:
        theta = 0.75 * alpha * math.pi
    spec = ContourSpec(alpha, theta, eps)
    kernel = _kernel_factory(spec, b)
    value, _, _ = integrate_gamma(spec, kernel, DEFAULT_CONTROLS)
    return value / (2.0 * alpha * math.pi * 1j)
