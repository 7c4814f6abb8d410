"""Contour-integral representation of E_{alpha,beta} for 0 < alpha < 1.

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
"""

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .numcore import (
    DEFAULT_CONTROLS,
    DomainError,
    PathSegment,
    QuadratureControls,
    QuadratureError,
    circular_arc,
    cpow,
    integrate_path,
    principal_arg,
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
    "integrate_gamma",
    "ml_contour",
    "ml_contour_deriv",
    "recip_gamma_via_contour",
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


def contour_distance(spec: ContourSpec, z: complex) -> float:
    """Euclidean distance from z to the path gamma(eps, theta)."""
    z = complex(z)
    if z == 0:
        return spec.eps
    dists = []
    for sign in (1.0, -1.0):
        w = z * cmath.exp(-1j * sign * spec.theta)  # ray rotated onto [eps, inf)
        if w.real >= spec.eps:
            dists.append(abs(w.imag))
        else:
            dists.append(abs(w - spec.eps))
    if abs(principal_arg(z)) <= spec.theta:
        dists.append(abs(abs(z) - spec.eps))
    return min(dists)


def classify_region(spec: ContourSpec, z: complex) -> RegionClass:
    """G+/G- classification with a near-path guard band: anything closer to
    the path than 1e-6 * max(1, |z|) is reported NEAR_CONTOUR instead of
    either region.
    """
    z = complex(z)
    if contour_distance(spec, z) < 1e-6 * max(1.0, abs(z)):
        return RegionClass.NEAR_CONTOUR
    if z != 0 and abs(z) > spec.eps and abs(principal_arg(z)) < spec.theta:
        return RegionClass.G_PLUS
    return RegionClass.G_MINUS


def contour_path(spec: ContourSpec) -> list[PathSegment]:
    """The three pieces of gamma; the inward ray is realized as a reversed
    outward ray, so callers must negate its contribution."""
    down = radial_ray(-spec.theta, spec.eps)   # integrate outward, subtract
    arc = circular_arc(spec.eps, -spec.theta, spec.theta)
    up = radial_ray(spec.theta, spec.eps)
    return [down, arc, up]


def integrate_gamma(spec: ContourSpec, f, controls: QuadratureControls,
                    arclength: bool = False):
    """Integral of f over gamma: (value, err, panels), orientation included;
    ``f`` and ``arclength`` are as ``integrate_path`` takes them."""
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

    returned as (value, err_estimate, panels).  ``z`` is one argument or a
    1-D array of them, and ``order`` one order or a 1-D array of them
    matched to ``z`` (a single z is shared by every order).  Each row is
    then one (z, l) pair; all rows share one adaptive partition of the path
    (the kernel is evaluated once per node) and give arrays of values and
    error estimates.  Every argument must be finite and sit off the path.
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
    if any(classify_region(spec, zj) is RegionClass.NEAR_CONTOUR
           for zj in zs.reshape(-1).tolist()):
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


def admissible_specs(alpha: float, z):
    """Yield the paths that keep at least 1e-3 * max(1, |z_j|) from every
    entry z_j of ``z`` (one number or a 1-D array), in order of preference:
    ray angles 0.75, 0.625, 0.875, 0.5625, 0.9375 of alpha*pi, each with
    radius 1, 1/2 and 2.

    The first spec is the one the path route takes when no spec is given;
    the later ones give other partitions and nodes for a cross-check.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=complex)).tolist()
    for frac in (0.75, 0.625, 0.875, 0.5625, 0.9375):
        theta = frac * alpha * math.pi
        for eps in (1.0, 0.5, 2.0):
            spec = ContourSpec(alpha, theta, eps)
            if all(contour_distance(spec, zj) >= 1e-3 * max(1.0, abs(zj))
                   for zj in zs):
                yield spec


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


def ml_contour_deriv(p: MLParams, lam: complex, t: float | np.ndarray,
                     l: int | np.ndarray,
                     controls: QuadratureControls | None = None,
                     spec: ContourSpec | None = None) -> EvalResult:
    """l-th lambda-derivative of E_{alpha,beta}(lambda t**alpha) by the path route.

    Differentiating under the integral sign multiplies the Cauchy kernel up
    to l! / (zeta - z)**(l+1) and scales by t**(alpha*l); the explicit G+
    term is differentiated in closed form.  ``controls`` defaults to
    DEFAULT_CONTROLS; the certificates pass ``bounds._CERT_QUAD``.

    ``t`` is one time or a 1-D array of them, and ``l`` one order or a 1-D
    array of them; the two broadcast together, and entry j is the l_j-th
    derivative at t_j.  An array gives an EvalResult whose value and
    err_estimate are arrays, from one batched path integral on one spec
    (its panels are the shared partition).  The default spec is the first
    one ``admissible_specs`` yields for all the arguments lambda t**alpha
    together; when no path clears them all, the entries are grouped by the
    first path that clears each one, one integral per group, and the
    panels add up.
    """
    l = require_orders("l", l)
    require_finite("lam", lam)
    t = require_grid("t", t)
    if t.min() <= 0.0:
        raise DomainError("the path route needs t > 0")
    if isinstance(l, np.ndarray):
        try:
            t, l = np.broadcast_arrays(t, l)
        except ValueError:
            raise DomainError(f"arguments t and l must broadcast together, got "
                              f"lengths {t.size} and {l.size}") from None
    return _path_route(p, complex(lam), t, l, controls, spec)


def _path_route(p: MLParams, lam: complex, t: float | np.ndarray,
                l: int | np.ndarray, controls: QuadratureControls | None,
                spec: ContourSpec | None) -> EvalResult:
    """The path route of ``ml_contour`` and ``ml_contour_deriv`` on their
    validated arguments (an array ``l`` has the shape of ``t``): one batched
    integral over every (t, l) entry, plus the explicit term with its error
    bar at each z in G+ of the path.  A single time runs as a length-1
    array and its result is unwrapped."""
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
    orders = l.tolist() if isinstance(l, np.ndarray) else [l] * z.size
    for j, (zj, lj) in enumerate(zip(z.tolist(), orders)):
        if classify_region(spec, zj) is RegionClass.G_PLUS:
            expl = _explicit_term(p.alpha, p.beta, zj, order=lj) * scale[j]
            value[j] += expl
            # exp(w), w = z**(1/alpha), carries the absolute rounding of w: about
            # eps |w| from z itself and eps |w| |Log z| / alpha from the
            # logarithm and the exponent 1/alpha
            w_mod = abs(zj) ** (1.0 / p.alpha)
            log_mod = abs(cmath.log(zj))
            err[j] += 4.0 * _EPS * (1.0 + w_mod * (1.0 + log_mod / p.alpha)) * abs(expl)
    if not np.ndim(t):
        value, err = value[0], err[0]
    return EvalResult(value, err, "contour", panels)


def _grouped_path_route(p: MLParams, lam: complex, t: np.ndarray,
                        l: int | np.ndarray, controls: QuadratureControls | None,
                        z: np.ndarray) -> EvalResult:
    """``_path_route`` when no one path clears every argument in ``z``: the
    entries are grouped by the first path that clears each alone, and each
    group takes one batched integral on its path.  The panels add up."""
    firsts = [next(admissible_specs(p.alpha, zj), None) for zj in z.tolist()]
    if None in firsts:
        raise EvaluationError("no admissible path separates the argument")
    orders = np.broadcast_to(l, t.shape)
    value = np.empty(t.shape, dtype=complex)
    err = np.empty(t.shape)
    panels = 0
    for spec in dict.fromkeys(firsts):
        rows = [j for j, first in enumerate(firsts) if first == spec]
        part = _path_route(p, lam, t[rows], orders[rows], controls, spec)
        value[rows] = part.value
        err[rows] = part.err_estimate
        panels += part.terms_or_panels
    return EvalResult(value, err, "contour", panels)


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
