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
)
from .series import EvalResult, EvaluationError, MLParams

__all__ = [
    "ContourSpec",
    "RegionClass",
    "classify_region",
    "contour_distance",
    "contour_path",
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


def classify_region(spec: ContourSpec, z: complex, margin: float | None = None) -> RegionClass:
    """G+/G- classification with a near-path guard band.

    ``margin`` defaults to 1e-6 * max(1, |z|); anything closer to the path
    than that is reported NEAR_CONTOUR instead of either region.
    """
    z = complex(z)
    if margin is None:
        margin = 1e-6 * max(1.0, abs(z))
    if contour_distance(spec, z) < margin:
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


def _integrate_gamma(spec: ContourSpec, f, controls: QuadratureControls,
                     arclength: bool = False):
    """Integral of f over gamma: (value, err, panels), orientation included."""
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


def _cauchy_integral(spec: ContourSpec, p: MLParams, z,
                     controls: QuadratureControls, order: int):
    """The path integral I(z), or for order = l its derivative-kernel variant

        1/(2 alpha pi i) * integral over gamma of
            exp(zeta**(1/alpha)) zeta**((1-beta)/alpha) * l! / (zeta - z)**(l+1)

    returned as (value, err_estimate, panels).  ``z`` is one argument or a
    1-D array of them; an array shares one adaptive partition of the path
    between all its arguments (the kernel is evaluated once per node) and
    gives arrays of values and error estimates.  Every argument must be
    finite and sit off the path.
    """
    if spec.alpha != p.alpha:
        raise DomainError("contour spec and parameters disagree on alpha")
    if order < 0 or order != int(order):
        raise DomainError("order must be a nonnegative integer")
    zs = np.asarray(z, dtype=complex)
    require_finite("z", zs)
    if zs.ndim > 1:
        raise DomainError("z must be a number or a 1-D array of numbers")
    if any(classify_region(spec, zj) is RegionClass.NEAR_CONTOUR
           for zj in zs.reshape(-1).tolist()):
        raise DomainError("argument lies on or near the integration path")
    # a column of arguments against the row of nodes gives one integrand
    # per argument; a single argument keeps the 1-D integrand
    col = zs[:, None] if zs.ndim else complex(z)
    kernel = _kernel_factory(spec, p.beta)
    lfac = float(math.factorial(int(order)))
    power = int(order) + 1

    def f(zeta: np.ndarray) -> np.ndarray:
        return kernel(zeta) * lfac / (zeta - col) ** power

    value, err, panels = _integrate_gamma(spec, f, controls)
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


def _auto_spec(alpha: float, z: complex) -> ContourSpec:
    az = abs(z)
    eps0 = 1.0 if az > 2.0 or az < 1e-12 else az / 2.0
    scale = max(1.0, az)
    for frac in (0.75, 0.625, 0.875, 0.5625, 0.9375):
        theta = frac * alpha * math.pi
        for eps in (eps0, 0.5 * eps0, 2.0 * eps0):
            spec = ContourSpec(alpha, theta, eps)
            if contour_distance(spec, z) >= 1e-3 * scale:
                return spec
    raise EvaluationError("no admissible path separates the argument")


def ml_contour(p: MLParams, z: complex,
               controls: QuadratureControls | None = None,
               spec: ContourSpec | None = None) -> EvalResult:
    """E_{alpha,beta}(z) through the path representation (alpha < 1).

    With ``spec=None`` the angle/radius are chosen automatically so the
    argument keeps a healthy distance from the path.  A caller-provided
    spec is used as-is and rejected if the argument sits too close.
    """
    require_finite("z", z)
    z = complex(z)
    if spec is None:
        spec = _auto_spec(p.alpha, z)
    controls = controls or QuadratureControls()
    value, err, panels = _cauchy_integral(spec, p, z, controls, 0)
    if classify_region(spec, z) is RegionClass.G_PLUS:
        expl = _explicit_term(p.alpha, p.beta, z)
        value += expl
        err += abs(expl) * 4.0 * _EPS
    return EvalResult(value, err, "contour", panels)


def ml_contour_deriv(p: MLParams, lam: complex, t: float, l: int,
                     controls: QuadratureControls | None = None,
                     spec: ContourSpec | None = None) -> EvalResult:
    """l-th lambda-derivative of E_{alpha,beta}(lambda t**alpha) by the path route.

    Differentiating under the integral sign multiplies the Cauchy kernel up
    to l! / (zeta - z)**(l+1) and scales by t**(alpha*l); the explicit G+
    term is differentiated in closed form.
    """
    if l < 0 or l != int(l):
        raise DomainError("derivative order must be a nonnegative integer")
    require_finite("lam", lam)
    require_finite("t", t)
    if t <= 0.0:
        raise DomainError("the path route needs t > 0")
    l = int(l)
    lam = complex(lam)
    t_alpha = t ** p.alpha
    z = lam * t_alpha
    if spec is None:
        spec = _auto_spec(p.alpha, z)
    controls = controls or QuadratureControls()
    value, err, panels = _cauchy_integral(spec, p, z, controls, l)
    scale = t_alpha ** l
    value *= scale
    err *= scale
    if classify_region(spec, z) is RegionClass.G_PLUS:
        expl = _explicit_term(p.alpha, p.beta, z, order=l) * scale
        value += expl
        err += abs(expl) * 4.0 * _EPS
    return EvalResult(value, err, "contour", panels)


def recip_gamma_via_contour(alpha: float, b: complex,
                            theta: float | None = None, eps: float = 1.0,
                            controls: QuadratureControls | None = None) -> complex:
    """Path integral of the bare kernel; must equal 1/Gamma(b - alpha).

    Substituting zeta = w**alpha turns the path into a Hankel loop, so the
    value is independent of (theta, eps).  Disagreement with the direct
    reciprocal gamma flags a branch or orientation bug; the self-test
    command is built on this identity.
    """
    if theta is None:
        theta = 0.75 * alpha * math.pi
    spec = ContourSpec(alpha, theta, eps)
    controls = controls or QuadratureControls()
    kernel = _kernel_factory(spec, b)
    value, _, _ = _integrate_gamma(spec, kernel, controls)
    return value / (2.0 * alpha * math.pi * 1j)
