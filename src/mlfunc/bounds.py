"""Certified decay envelopes for E_alpha(lambda t^alpha) and its relatives.

Everything here revolves around one geometric setup: a path gamma(1, theta)
with theta in (alpha*pi/2, alpha*pi), and an angular safety margin theta0
separating arg(lambda) from the rays arg(zeta) = +-theta.  Under that
separation, |zeta - lambda*t**alpha| >= |lambda|*t**alpha*sin(theta0) on the
rays, and the same lower bound holds on the arc once

    t >= t0 = (|lambda| * (1 - sin(theta0)))**(-1/alpha),

which turns the path representation into fully explicit envelopes:

  (i)   |E_alpha(lambda t^a) - (1/a) exp(lambda^(1/a) t)|          <= m / t^a
  (ii)  |t^(a-1) E_{a,a}(lambda t^a)
              - (1/a) lambda^((1-a)/a) exp(lambda^(1/a) t)|        <= m / t^(a+1)
        for |arg lambda| <= theta - theta0, and
  (iii) |t^(a-1) E_{a,a}(lambda t^a)|                              <= m / t^(a+1)
        for theta + theta0 <= |arg lambda| <= pi,

all for t >= t0, with

    m = max( I0 / (2 a pi |lambda| sin(theta0)),
             I1 / (2 a |lambda|^2 sin(theta0)) )

where I0, I1 are arclength integrals of |exp(zeta**(1/a))| (times |zeta|**(1/a)
for I1) over gamma(1, theta).  The second component is implemented as printed;
a harmonized variant carrying 1/pi in both components is reported alongside,
and since the printed value is the larger of the two it is the safe default.

The l-th lambda-derivatives obey the same pattern with constants

    M_l     = l! I0 / (2 a pi (|lambda| sin(theta0))**(l+1))
    M_hat_l = I1 / (2 a pi |lambda|**(l+2))
              * sum_{k=0..l} C(l,k) (l-k)! k! / sin(theta0)**(k+1)

bounding |d^l/dlambda^l E_alpha(lambda t^a)| <= M_l / t^a and
|d^l/dlambda^l E_{a,a}(lambda t^a)| <= M_hat_l / t^(2a) on the exterior side.

M_hat_l is the first-order case of the asymptotic expansion with an explicit
remainder.  Expanding 1/(zeta - z) to order N on the same path gives, for
exterior lambda and z = lambda t^a with t >= t0,

    E_{a,a}(z) = - sum_{k=2..N} z^(-k) / Gamma(a - a k) + R_N(z)

(the k = 1 term vanishes since 1/Gamma(0) = 0), with

    |d^l/dlambda^l R_N(lambda t^a)|
        <= I_N / (2 a pi) |lambda|^-(N+l+1) t^(-a(N+1))
           * sum_{j=0..l} C(l,j) (N)_j (l-j)! / sin(theta0)^(l-j+1)

where I_N integrates |exp(zeta**(1/a))| |zeta|**(1/a - 1 + N) over the path
and (N)_j is the rising factorial.  I_1 = I1, so N = 1 reproduces M_hat_l;
``expansion_remainder`` is the one implementation of that constant.

``certify_*`` measure the left sides on a geometric t-grid by routes that
never subtract the large exponential (the remainder IS a path integral and
is integrated directly) and compare against the envelopes, producing
PASS / FAIL / INCONCLUSIVE verdicts that account for numerical error.
``lemma3_limit_check`` validates the averaged-kernel limit that motivates
the envelopes.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contour import (
    ContourSpec,
    RegionClass,
    _cauchy_integral,
    _integrate_gamma,
    classify_region,
    ml_contour,
    ml_contour_deriv,
)
from .numcore import (
    DomainError,
    QuadratureControls,
    cpow,
    integrate_path,
    line_segment,
    principal_arg,
    recip_gamma,
)
from .series import EvalControls, EvalResult, MLParams, ml_eval, ml_series_deriv

__all__ = [
    "SectorContextError",
    "SectorContext",
    "sector_context",
    "KappaIntegrals",
    "kappa_integrals",
    "Lemma2Constants",
    "lemma2_constants",
    "Lemma4Constants",
    "lemma4_constants",
    "kappa_moment",
    "expansion_coefficient",
    "expansion_remainder",
    "CertificatePoint",
    "CertificateReport",
    "certify_lemma2_i",
    "certify_lemma2_ii",
    "certify_lemma2_iii",
    "certify_lemma4",
    "LimitPoint",
    "Lemma3Report",
    "lemma3_limit_check",
    "LIMIT_KERNELS",
]

_EPS = math.ulp(1.0)

# quadrature preset for certificate measurements: the integrands shrink like
# 1/t^a along the grid, so convergence must be driven by the relative target
_CERT_QUAD = QuadratureControls(rel_tol=1e-12, abs_tol=1e-290)


class SectorContextError(DomainError):
    """A hypothesis of the angular setup is violated; the message names it."""


@dataclass(frozen=True)
class SectorContext:
    """Validated (alpha, lambda, theta, theta0) tuple.

    ``side`` reports which inequality family the context supports:
    "interior" when |arg lambda| <= theta - theta0 and "exterior" when
    |arg lambda| >= theta + theta0.
    """

    alpha: float
    lam: complex
    theta: float
    theta0: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0) or not math.isfinite(self.alpha):
            raise SectorContextError("hypothesis violated: alpha must lie in (0, 1)")
        lam = complex(self.lam)
        if lam == 0 or not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
            raise SectorContextError(
                "hypothesis violated: lambda must be finite and nonzero")
        object.__setattr__(self, "lam", lam)
        half = self.alpha * math.pi / 2.0
        if not (half < self.theta < 2.0 * half):
            raise SectorContextError(
                "hypothesis violated: theta must lie in (alpha*pi/2, alpha*pi)")
        if not (0.0 < self.theta0 < min(self.theta - half, math.pi / 2.0)):
            raise SectorContextError(
                "hypothesis violated: theta0 must lie in "
                "(0, min(theta - alpha*pi/2, pi/2))")
        if abs(self.theta - abs(principal_arg(lam))) < self.theta0:
            raise SectorContextError(
                "hypothesis violated: arg(lambda) must keep angular distance "
                "theta0 from the rays arg(z) = +-theta")

    @property
    def arg_lam(self) -> float:
        return abs(principal_arg(self.lam))

    @property
    def side(self) -> str:
        return "interior" if self.arg_lam < self.theta else "exterior"

    @property
    def t0(self) -> float:
        return (abs(self.lam) * (1.0 - math.sin(self.theta0))) ** (-1.0 / self.alpha)


def sector_context(alpha: float, lam: complex, theta: float | None = None,
                   theta0: float | None = None, side: str | None = None) -> SectorContext:
    """Build a SectorContext, choosing workable angles when none are given.

    With ``theta``/``theta0`` omitted the angles are placed a fixed fraction
    into whatever angular room arg(lambda) leaves: for the interior side the
    rays go 70% of the way from arg(lambda) out to alpha*pi, for the exterior
    side 60% of the way from alpha*pi/2 toward arg(lambda).  ``side`` forces
    the family; by default |arg lambda| <= alpha*pi/2 selects interior.
    """
    if (theta is None) != (theta0 is None):
        raise SectorContextError("give both theta and theta0 or neither")
    if theta is not None:
        ctx = SectorContext(alpha, lam, theta, theta0)
        if side is not None and ctx.side != side:
            raise SectorContextError(
                f"requested the {side} side but the angles put lambda on the "
                f"{ctx.side} side")
        return ctx
    lam = complex(lam)
    if lam == 0:
        raise SectorContextError("hypothesis violated: lambda must be finite and nonzero")
    phi = abs(principal_arg(lam))
    apimath = alpha * math.pi
    if side is None:
        side = "interior" if phi <= apimath / 2.0 else "exterior"
    if side == "interior":
        room = apimath - phi
        if room <= 0.0:
            raise SectorContextError(
                "hypothesis violated: the interior side needs |arg lambda| < alpha*pi")
        theta = phi + 0.7 * room
        theta0 = min(0.3 * room, 0.9 * (theta - apimath / 2.0), 1.4)
    elif side == "exterior":
        room = min(phi, apimath) - apimath / 2.0
        if room <= 0.0:
            raise SectorContextError(
                "hypothesis violated: the exterior side needs "
                "|arg lambda| > alpha*pi/2")
        theta = apimath / 2.0 + 0.6 * room
        theta0 = min(0.3 * room, 1.4)
    else:
        raise SectorContextError("side must be 'interior' or 'exterior'")
    return SectorContext(alpha, lam, theta, theta0)


# --------------------------------------------------------------------------
# path-mass integrals and envelope constants

@dataclass(frozen=True)
class KappaIntegrals:
    """Arclength mass of the kernel over gamma(eps, theta).

    i0 integrates |exp(zeta**(1/alpha))|, i1 additionally weighs by
    |zeta|**(1/alpha); the *_err fields are quadrature error estimates.
    """

    i0: float
    i1: float
    i0_err: float
    i1_err: float


def _path_mass(alpha: float, theta: float, eps: float, power: float,
               controls: QuadratureControls | None) -> tuple[float, float]:
    """Integral of |exp(zeta**(1/alpha))| |zeta|**power against |d zeta|
    over gamma(eps, theta), with its quadrature error estimate."""
    spec = ContourSpec(alpha, theta, eps)
    inv_alpha = 1.0 / alpha

    def f(zeta: np.ndarray) -> np.ndarray:
        return np.abs(np.exp(zeta ** inv_alpha)) * np.abs(zeta) ** power

    value, err, _ = _integrate_gamma(spec, f, controls or QuadratureControls(),
                                     arclength=True)
    return value.real, err


def kappa_integrals(alpha: float, theta: float, eps: float = 1.0,
                    controls: QuadratureControls | None = None) -> KappaIntegrals:
    v0, e0 = _path_mass(alpha, theta, eps, 0.0, controls)
    v1, e1 = _path_mass(alpha, theta, eps, 1.0 / alpha, controls)
    return KappaIntegrals(v0, v1, e0, e1)


def kappa_moment(alpha: float, theta: float, n: int,
                 controls: QuadratureControls | None = None) -> tuple[float, float]:
    """I_n: the mass of |exp(zeta**(1/a))| |zeta|**(1/a - 1 + n) over
    gamma(1, theta), returned as (value, quadrature error estimate).

    I_1 is ``kappa_integrals(alpha, theta).i1``; I_n carries the order-n
    remainder of the asymptotic expansion.
    """
    if n < 1 or n != int(n):
        raise DomainError("expansion order must be a positive integer")
    return _path_mass(alpha, theta, 1.0, 1.0 / alpha - 1.0 + n, controls)


def expansion_coefficient(alpha: float, lam: complex, k: int, l: int) -> complex:
    """Coefficient of t^(-alpha k) in the order-k term of
    (1/l!) d^l/dlambda^l E_{a,a}(lambda t^a) expanded at infinity:

        -(-1)^l C(k+l-1, l) lambda^(-k-l) / Gamma(a - a k)

    (C(k+l-1, l) = (k)_l / l!).  It is 0 at k = 1.
    """
    sign = -1.0 if l % 2 == 0 else 1.0
    return (sign * math.comb(k + l - 1, l) * complex(lam) ** (-k - l)
            * recip_gamma(alpha - alpha * k))


def expansion_remainder(ctx: SectorContext, n: int, l: int, i_n: float) -> float:
    """Constant C with |d^l/dlambda^l R_n(lambda t^a)| <= C / t^(a(n+1)) for
    t >= t0 on the exterior side, where R_n is the remainder of E_{a,a}
    after the order-n expansion.  ``i_n`` is I_n from ``kappa_moment``;
    pass value + error to keep the bound certified.  At n = 1 with
    i_n = I1 this is Lemma 4's M_hat_l.
    """
    s = math.sin(ctx.theta0)
    # the module docstring's sum over j, indexed by k = l - j
    comb_sum = sum(
        math.comb(l, k) * math.prod(range(n, n + l - k)) * math.factorial(k)
        / s ** (k + 1)
        for k in range(l + 1)
    )
    return i_n / (2.0 * ctx.alpha * math.pi * abs(ctx.lam) ** (n + l + 1)) * comb_sum


@dataclass(frozen=True)
class Lemma2Constants:
    m: float              # max of the two components as printed
    m_harmonized: float   # variant with 1/pi in both components
    m1: float             # I0 / (2 a pi |lam| sin(theta0))
    m2: float             # I1 / (2 a |lam|^2 sin(theta0)), no 1/pi as printed
    m2_harmonized: float
    t0: float
    i0: float
    i1: float
    i0_err: float
    i1_err: float


def lemma2_constants(ctx: SectorContext,
                     controls: QuadratureControls | None = None) -> Lemma2Constants:
    kap = kappa_integrals(ctx.alpha, ctx.theta, 1.0, controls)
    s = math.sin(ctx.theta0)
    mod = abs(ctx.lam)
    m1 = kap.i0 / (2.0 * ctx.alpha * math.pi * mod * s)
    m2 = kap.i1 / (2.0 * ctx.alpha * mod * mod * s)
    m2_h = m2 / math.pi
    return Lemma2Constants(
        m=max(m1, m2),
        m_harmonized=max(m1, m2_h),
        m1=m1,
        m2=m2,
        m2_harmonized=m2_h,
        t0=ctx.t0,
        i0=kap.i0,
        i1=kap.i1,
        i0_err=kap.i0_err,
        i1_err=kap.i1_err,
    )


@dataclass(frozen=True)
class Lemma4Constants:
    m_l: tuple[float, ...]
    m_hat_l: tuple[float, ...]
    t0: float
    i0: float
    i1: float


def lemma4_constants(ctx: SectorContext, l_max: int,
                     controls: QuadratureControls | None = None) -> Lemma4Constants:
    if l_max < 0:
        raise DomainError("l_max must be nonnegative")
    kap = kappa_integrals(ctx.alpha, ctx.theta, 1.0, controls)
    s = math.sin(ctx.theta0)
    mod = abs(ctx.lam)
    two_a_pi = 2.0 * ctx.alpha * math.pi
    m_l = tuple(math.factorial(l) * kap.i0 / (two_a_pi * (mod * s) ** (l + 1))
                for l in range(l_max + 1))
    m_hat_l = tuple(expansion_remainder(ctx, 1, l, kap.i1) for l in range(l_max + 1))
    return Lemma4Constants(m_l, m_hat_l, ctx.t0, kap.i0, kap.i1)


# --------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class CertificatePoint:
    t: float
    measured: float
    allowed: float
    err: float
    label: str = ""


@dataclass(frozen=True)
class CertificateReport:
    name: str
    verdict: str            # "PASS" | "FAIL" | "INCONCLUSIVE"
    worst_ratio: float
    worst_t: float
    points: tuple[CertificatePoint, ...]
    constants: dict
    notes: tuple[str, ...] = ()


def _verdict(points) -> tuple[str, float, float]:
    """FAIL when a measurement exceeds its envelope beyond numerical error;
    INCONCLUSIVE when the error budget is too coarse to certify a pass."""
    worst_ratio = 0.0
    worst_t = math.nan
    failed = False
    murky = False
    for pt in points:
        ratio = pt.measured / pt.allowed if pt.allowed > 0.0 else math.inf
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_t = pt.t
        if pt.measured - pt.err > pt.allowed:
            failed = True
        if pt.err > 0.1 * pt.allowed or ratio > 1.0:
            murky = True
    if failed:
        return "FAIL", worst_ratio, worst_t
    if murky:
        return "INCONCLUSIVE", worst_ratio, worst_t
    return "PASS", worst_ratio, worst_t


def _interior_eval_spec(ctx: SectorContext) -> ContourSpec:
    """Evaluation path that keeps z = lambda t^alpha well inside G+.

    The remainder integral has the same value on every admissible path, so
    the evaluation angle is free; it only needs comfortable distance from
    arg(z) = arg(lambda), which the midpoint toward alpha*pi provides.
    """
    apimath = ctx.alpha * math.pi
    phi = ctx.arg_lam
    theta_eval = max(0.55 * apimath, 0.5 * (phi + apimath))
    return ContourSpec(ctx.alpha, theta_eval, 0.5)


def _require_side(ctx: SectorContext, side: str, name: str):
    if ctx.side != side:
        raise SectorContextError(
            f"hypothesis violated: {name} needs |arg lambda| "
            f"{'<= theta - theta0' if side == 'interior' else '>= theta + theta0'}"
            f" but the context is on the {ctx.side} side")


def _t_grid(t0: float, t_max_factor: float, n_points: int) -> np.ndarray:
    if n_points < 2 or t_max_factor <= 1.0:
        raise DomainError("need n_points >= 2 and t_max_factor > 1")
    return np.geomspace(t0, t_max_factor * t0, n_points)


def _lemma2_envelope(consts: Lemma2Constants, harmonized: bool,
                     constant_scale: float) -> tuple[float, dict]:
    """The constant m a Lemma 2 certificate compares against, and the
    constants its report carries."""
    m = (consts.m_harmonized if harmonized else consts.m) * constant_scale
    constants = {
        "m": m,
        "m_printed": consts.m,
        "m_harmonized": consts.m_harmonized,
        "m1": consts.m1,
        "m2": consts.m2,
        "t0": consts.t0,
        "i0": consts.i0,
        "i1": consts.i1,
        "constant_scale": constant_scale,
    }
    return m, constants


def _certify_remainder(name: str, ctx: SectorContext, beta: complex,
                       t_weight: float, allowed_power: float,
                       n_points: int, t_max_factor: float,
                       controls: QuadratureControls | None,
                       constant_scale: float, err_inflate: float,
                       harmonized: bool) -> CertificateReport:
    """Shared core of certificates (i) and (ii).

    The measured quantity is t**t_weight * |I(z)| with I the path integral
    remainder at z = lambda t^alpha in G+, compared against
    constant_scale * m / t**allowed_power.  The remainders at all grid
    points come from one batched path integral.
    """
    _require_side(ctx, "interior", name)
    controls = controls or _CERT_QUAD
    consts = lemma2_constants(ctx, controls)
    m, constants = _lemma2_envelope(consts, harmonized, constant_scale)
    spec = _interior_eval_spec(ctx)
    p = MLParams(ctx.alpha, beta)
    ts = _t_grid(consts.t0, t_max_factor, n_points)
    zs = [ctx.lam * t ** ctx.alpha for t in ts]
    if any(classify_region(spec, z) is not RegionClass.G_PLUS for z in zs):
        raise SectorContextError(
            "hypothesis violated: lambda t^alpha left G+ of the "
            "evaluation path")
    values, errs, _ = _cauchy_integral(spec, p, np.array(zs), controls, 0)
    points = []
    for t, value, err in zip(ts, values, errs):
        weight = t ** t_weight
        points.append(CertificatePoint(
            t=float(t),
            measured=abs(value) * weight,
            allowed=m / t ** allowed_power,
            err=err * weight * err_inflate,
        ))
    verdict, worst_ratio, worst_t = _verdict(points)
    notes = [f"side={ctx.side}", f"theta={ctx.theta}", f"theta0={ctx.theta0}"]
    if harmonized:
        notes.append("harmonized 1/pi variant of the second m component")
    return CertificateReport(name, verdict, worst_ratio, worst_t,
                             tuple(points), constants, tuple(notes))


def certify_lemma2_i(ctx: SectorContext, n_points: int = 40,
                     t_max_factor: float = 200.0,
                     controls: QuadratureControls | None = None,
                     constant_scale: float = 1.0, err_inflate: float = 1.0,
                     harmonized: bool = False) -> CertificateReport:
    """|E_alpha(lambda t^a) - (1/a) exp(lambda^(1/a) t)| <= m / t^a on t >= t0.

    The left side is measured as the path-integral remainder directly, so no
    large exponentials are ever subtracted.
    """
    return _certify_remainder("lemma2-i", ctx, 1.0, 0.0, ctx.alpha,
                              n_points, t_max_factor, controls,
                              constant_scale, err_inflate, harmonized)


def certify_lemma2_ii(ctx: SectorContext, n_points: int = 40,
                      t_max_factor: float = 200.0,
                      controls: QuadratureControls | None = None,
                      constant_scale: float = 1.0, err_inflate: float = 1.0,
                      harmonized: bool = False) -> CertificateReport:
    """|t^(a-1) E_{a,a}(lambda t^a) - (1/a) lambda^((1-a)/a) e^(lambda^(1/a) t)|
    <= m / t^(a+1) on t >= t0, measured as t^(a-1) times the remainder integral."""
    report = _certify_remainder("lemma2-ii", ctx, complex(ctx.alpha),
                                ctx.alpha - 1.0, ctx.alpha + 1.0,
                                n_points, t_max_factor, controls,
                                constant_scale, err_inflate, harmonized)
    # same inequality in the z variable: |E_{a,a}(z) - explicit| <= C/|z|^2
    # with C = I1/(2 a pi sin(theta0)); identical measurements, rescaled
    c_z = report.constants["i1"] / (
        2.0 * ctx.alpha * math.pi * math.sin(ctx.theta0))
    worst_z = 0.0
    for pt in report.points:
        z_mod = abs(ctx.lam) * pt.t ** ctx.alpha
        measured_z = pt.measured / pt.t ** (ctx.alpha - 1.0)
        worst_z = max(worst_z, measured_z * z_mod ** 2 / c_z)
    constants = dict(report.constants)
    constants["zform_constant"] = c_z
    constants["zform_worst_ratio"] = worst_z
    return CertificateReport(report.name, report.verdict, report.worst_ratio,
                             report.worst_t, report.points, constants,
                             report.notes + ("z-form cross-check attached",))


def _route_cut(alpha: float) -> float:
    """|z| above which the path route takes over from the series routes.

    Capped so the extended-precision series never needs more than ~90
    digits: its largest term is exp(|z|**(1/alpha)), which is what makes a
    small alpha expensive much earlier than a small |z| suggests.
    """
    return min(5.0, 200.0 ** alpha)


def certify_lemma2_iii(ctx: SectorContext, n_points: int = 40,
                       t_max_factor: float = 200.0,
                       controls: QuadratureControls | None = None,
                       constant_scale: float = 1.0, err_inflate: float = 1.0,
                       harmonized: bool = False) -> CertificateReport:
    """|t^(a-1) E_{a,a}(lambda t^a)| <= m / t^(a+1) for exterior lambda, t >= t0.

    Here the function itself is small, so it is evaluated directly (series
    or path route picked automatically) and weighted by t^(a-1).
    """
    _require_side(ctx, "exterior", "lemma2-iii")
    controls = controls or _CERT_QUAD
    consts = lemma2_constants(ctx, controls)
    m, constants = _lemma2_envelope(consts, harmonized, constant_scale)
    p = MLParams(ctx.alpha, complex(ctx.alpha))
    eval_controls = EvalControls(tol=1e-13, quad=controls)
    cut = _route_cut(ctx.alpha)
    points = []
    for t in _t_grid(consts.t0, t_max_factor, n_points):
        z = ctx.lam * t ** ctx.alpha
        if abs(z) <= cut:
            res = ml_eval(p, z, eval_controls)
        else:
            res = ml_contour(p, z, controls)
        weight = t ** (ctx.alpha - 1.0)
        points.append(CertificatePoint(
            t=float(t),
            measured=abs(res.value) * weight,
            allowed=m / t ** (ctx.alpha + 1.0),
            err=res.err_estimate * weight * err_inflate,
        ))
    verdict, worst_ratio, worst_t = _verdict(points)
    notes = (f"side={ctx.side}", f"theta={ctx.theta}", f"theta0={ctx.theta0}")
    return CertificateReport("lemma2-iii", verdict, worst_ratio, worst_t,
                             tuple(points), constants, notes)


def _deriv_value(p: MLParams, lam: complex, t: float, l: int,
                 controls: QuadratureControls) -> tuple[EvalResult, float]:
    """Derivative by the best route; returns (result, route disagreement).

    The series route runs below an alpha-aware cut (its cost is set by
    exp(|z|**(1/alpha))), the path route above 60% of it; on the overlap
    band both run and the disagreement is folded into the error budget.
    """
    z_mod = abs(lam) * t ** p.alpha
    series_cut = min(9.0, 200.0 ** p.alpha)
    contour_cut = 0.6 * series_cut
    res_s = ml_series_deriv(p, lam, t, l) if z_mod <= series_cut else None
    res_c = ml_contour_deriv(p, lam, t, l, controls) if z_mod >= contour_cut else None
    if res_s is not None and res_c is not None:
        gap = abs(res_s.value - res_c.value)
        return res_c, gap
    return (res_c or res_s), 0.0


def certify_lemma4(ctx: SectorContext, l_max: int = 3, n_points: int = 24,
                   t_max_factor: float = 200.0,
                   controls: QuadratureControls | None = None,
                   constant_scale: float = 1.0,
                   err_inflate: float = 1.0) -> CertificateReport:
    """Derivative envelopes |d^l E_alpha| <= M_l/t^a and
    |d^l E_{a,a}| <= M_hat_l/t^(2a) on the exterior side for t >= t0.

    Both routes (derivative series, derivative path kernel) are compared on
    their overlap band and the disagreement enters the error budget.  The
    report constants include fitted log-log tail slopes per family and
    order, which should approach -alpha and -2*alpha.
    """
    _require_side(ctx, "exterior", "lemma4")
    if l_max < 0:
        raise DomainError("l_max must be nonnegative")
    controls = controls or _CERT_QUAD
    consts = lemma4_constants(ctx, l_max, controls)
    p1 = MLParams(ctx.alpha, 1.0)
    paa = MLParams(ctx.alpha, complex(ctx.alpha))
    ts = _t_grid(consts.t0, t_max_factor, n_points)
    points = []
    max_gap = 0.0
    series_by_label: dict[str, list[tuple[float, float]]] = {}
    for l in range(l_max + 1):
        for t in ts:
            for fam, p, const, power in (
                ("E1", p1, consts.m_l[l], ctx.alpha),
                ("EAA", paa, consts.m_hat_l[l], 2.0 * ctx.alpha),
            ):
                res, gap = _deriv_value(p, ctx.lam, float(t), l, controls)
                max_gap = max(max_gap, gap / max(abs(res.value), 1e-300))
                label = f"{fam} l={l}"
                measured = abs(res.value)
                points.append(CertificatePoint(
                    t=float(t),
                    measured=measured,
                    allowed=constant_scale * const / t ** power,
                    err=(res.err_estimate + gap) * err_inflate,
                    label=label,
                ))
                series_by_label.setdefault(label, []).append((float(t), measured))
    verdict, worst_ratio, worst_t = _verdict(points)
    constants = {
        "t0": consts.t0,
        "i0": consts.i0,
        "i1": consts.i1,
        "constant_scale": constant_scale,
        "max_route_gap": max_gap,
    }
    for l in range(l_max + 1):
        constants[f"m_{l}"] = consts.m_l[l]
        constants[f"m_hat_{l}"] = consts.m_hat_l[l]
    # tail slopes from the last decade of the grid
    t_cut = ts[-1] / 10.0
    for label, pairs in series_by_label.items():
        tail = [(t, v) for t, v in pairs if t >= t_cut and v > 0.0]
        if len(tail) >= 3:
            logs = np.log([t for t, _ in tail])
            vals = np.log([v for _, v in tail])
            slope = float(np.polyfit(logs, vals, 1)[0])
            key = "slope_" + label.lower().replace(" ", "_").replace("=", "")
            constants[key] = slope
    notes = (f"side={ctx.side}", f"theta={ctx.theta}", f"theta0={ctx.theta0}",
             f"l_max={l_max}")
    return CertificateReport("lemma4", verdict, worst_ratio, worst_t,
                             tuple(points), constants, notes)


# --------------------------------------------------------------------------
# the averaged-kernel limit

_LN10 = math.log(10.0)


def _term_ratio_plan(alpha: float, beta: complex, z_top: float) -> np.ndarray:
    """Gamma-ratio table for summing the series by term recurrence.

    term_{k+1} = term_k * z * ratios[k] with ratios[k] =
    Gamma(alpha k + beta)/Gamma(alpha(k+1) + beta).  Unlike the raw
    coefficients 1/Gamma(alpha k + beta), which underflow long before the
    terms at |z| = z_top become negligible, every quantity here stays near
    the term scale.  The table length makes the truncated tail at z_top
    sit 24 digits under the largest term.
    """
    from scipy.special import loggamma

    log_zt = math.log(z_top) / _LN10 if z_top > 0.0 else -math.inf
    n = 256
    while True:
        k = np.arange(n, dtype=float)
        prof = k * log_zt - loggamma(alpha * k + beta).real / _LN10
        peak = int(np.argmax(prof))
        past = np.nonzero(prof[peak:] < prof[peak] - 24.0)[0]
        if past.size:
            n_terms = peak + int(past[0]) + 1
            break
        if n >= 1 << 17:
            raise DomainError("series terms refuse to decay; argument too large")
        n *= 2
    x = alpha * np.arange(n_terms, dtype=float) + complex(beta)
    return np.exp(loggamma(x) - loggamma(x + alpha))


def _series_by_ratios(alpha: float, beta: complex, ratios: np.ndarray,
                      z: np.ndarray) -> np.ndarray:
    term = np.full_like(z, complex(recip_gamma(beta)), dtype=complex)
    acc = term.copy()
    for r in ratios:
        term = term * z * r
        acc += term
    return acc


LIMIT_KERNELS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "exp": lambda s: np.exp(-s),
    "const": lambda s: np.ones_like(s),
    "damped-cos": lambda s: np.exp(-0.5 * s) * np.cos(2.0 * s),
    "rational": lambda s: 1.0 / (1.0 + s * s),
}


@dataclass(frozen=True)
class LimitPoint:
    u: float
    lhs: complex
    abs_error: float
    err_estimate: float


@dataclass(frozen=True)
class Lemma3Report:
    rhs: complex
    points: tuple[LimitPoint, ...]
    decreasing_within_noise: bool
    final_error: float


def lemma3_limit_check(alpha: float, lam: complex,
                       g: Callable[[np.ndarray], np.ndarray],
                       u_grid=None,
                       controls: QuadratureControls | None = None) -> Lemma3Report:
    """Convergence of the averaged kernel toward the Laplace transform:

        integral_0^u (u-s)^(a-1) E_{a,a}(lambda (u-s)^a) g(s) ds
            / E_alpha(lambda u^a)
        -> lambda^(1/a - 1) integral_0^inf exp(-lambda^(1/a) s) g(s) ds

    as u -> infinity, for |arg lambda| < alpha*pi/2.  The substitution
    v = (u-s)^a removes the endpoint singularity; g must accept ndarray
    input.  Per-u errors |LHS(u) - RHS| are reported together with a
    noise-aware decreasing flag (quadrature error bars set the slack).
    """
    if not (0.0 < alpha < 1.0):
        raise SectorContextError("hypothesis violated: alpha must lie in (0, 1)")
    lam = complex(lam)
    if lam == 0:
        raise SectorContextError("hypothesis violated: lambda must be nonzero")
    if abs(principal_arg(lam)) >= alpha * math.pi / 2.0:
        raise SectorContextError(
            "hypothesis violated: the limit needs |arg lambda| < alpha*pi/2")
    controls = controls or QuadratureControls()
    if u_grid is None:
        u_grid = np.linspace(2.0, 30.0, 8)
    u_grid = np.asarray(u_grid, dtype=float)
    if u_grid.ndim != 1 or len(u_grid) < 2 or np.any(np.diff(u_grid) <= 0.0):
        raise DomainError("u_grid must be increasing with at least 2 entries")

    c = cpow(lam, 1.0 / alpha)  # Re(c) > 0 inside the sector
    s_max = 46.0 / c.real

    def rhs_f(s: np.ndarray) -> np.ndarray:
        return np.exp(-c * s) * g(np.real(s))

    rhs_int, rhs_err = integrate_path(rhs_f, [line_segment(0.0, s_max)], controls)
    pref = cpow(lam, 1.0 / alpha - 1.0)
    rhs = pref * rhs_int
    rhs_err *= abs(pref)

    inv_alpha = 1.0 / alpha
    phi = abs(principal_arg(lam))
    z_top = abs(lam) * u_grid[-1] ** alpha
    growth_top = z_top ** inv_alpha
    # digits lost to cancellation in a plain sum at the largest argument
    cancel_top = growth_top * (1.0 - math.cos(phi * inv_alpha)) / _LN10
    if growth_top < 600.0 and cancel_top <= 2.5:
        # vectorized term recurrence over precomputed gamma ratios
        raa = _term_ratio_plan(alpha, complex(alpha), z_top)
        r1 = _term_ratio_plan(alpha, 1.0, z_top)

        def eaa_vec(z: np.ndarray) -> np.ndarray:
            return _series_by_ratios(alpha, complex(alpha), raa, z)

        def e1_val(z: complex) -> complex:
            return complex(_series_by_ratios(alpha, 1.0, r1, np.array([z]))[0])

        node_rel = 10.0 ** cancel_top * (100.0 + len(raa)) * _EPS
    else:
        paa = MLParams(alpha, complex(alpha))
        p1 = MLParams(alpha, 1.0)
        ev = EvalControls(tol=1e-12)
        cut = _route_cut(alpha)

        def one(p: MLParams, z: complex) -> complex:
            if abs(z) <= cut:
                return ml_eval(p, z, ev).value
            return ml_contour(p, z, controls).value

        def eaa_vec(z: np.ndarray) -> np.ndarray:
            return np.array([one(paa, complex(zz)) for zz in z])

        def e1_val(z: complex) -> complex:
            return one(p1, z)

        node_rel = 1e-11

    points = []
    for u in u_grid:
        ua = u ** alpha

        def f(v: np.ndarray) -> np.ndarray:
            vr = np.real(v)
            return eaa_vec(lam * v) * g(u - vr ** inv_alpha) / alpha

        num, num_err = integrate_path(f, [line_segment(0.0, ua)], controls)
        den = e1_val(lam * ua)
        lhs = num / den
        err = num_err / abs(den) + 4.0 * node_rel * abs(lhs) + rhs_err
        points.append(LimitPoint(
            u=float(u),
            lhs=lhs,
            abs_error=abs(lhs - rhs),
            err_estimate=err,
        ))
    # overall decrease is attested either outright or, when the tail sits
    # below its own error bar, by having reached the measurement floor
    first, last = points[0], points[-1]
    floor = 3.0 * (first.err_estimate + last.err_estimate)
    decreasing = all(
        b.abs_error <= a.abs_error * 1.05 + 3.0 * (a.err_estimate + b.err_estimate)
        for a, b in zip(points, points[1:])
    ) and bool(last.abs_error < first.abs_error or last.abs_error <= floor)
    return Lemma3Report(rhs, tuple(points), decreasing, points[-1].abs_error)
