"""Path-integral representation: self-test identity, region logic, route agreement."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfunc.bounds import _CERT_QUAD, _interior_eval_spec, certify_lemma2_i, sector_context
from mlfunc.contour import (
    ContourSpec,
    RegionClass,
    _cauchy_integral,
    _explicit_term,
    classify_region,
    contour_distance,
    ml_contour,
    ml_contour_deriv,
    recip_gamma_via_contour,
)
from mlfunc.numcore import DomainError, QuadratureControls, recip_gamma
from mlfunc.series import MLParams, ml_series_deriv


def _spec(alpha, frac=0.75, eps=1.0):
    return ContourSpec(alpha, frac * alpha * math.pi, eps)


# -------------------------------------------------------------------- spec

def test_spec_angle_window_is_strict():
    ContourSpec(0.6, 0.75 * 0.6 * math.pi, 1.0)
    with pytest.raises(DomainError):
        ContourSpec(0.6, 0.6 * math.pi / 2, 1.0)
    with pytest.raises(DomainError):
        ContourSpec(0.6, 0.6 * math.pi, 1.0)
    with pytest.raises(DomainError):
        ContourSpec(1.2, 1.0, 1.0)
    with pytest.raises(DomainError):
        ContourSpec(0.6, 1.2, 0.0)


# ------------------------------------------------------------------ regions

def test_classify_region_sides():
    spec = _spec(0.6)
    assert classify_region(spec, -5.0) is RegionClass.G_MINUS
    assert classify_region(spec, 3.0) is RegionClass.G_PLUS
    # inside the arc radius counts as G-
    assert classify_region(spec, complex(0.2, 0.1)) is RegionClass.G_MINUS


def test_classify_region_near_path():
    spec = _spec(0.6)
    on_ray = 2.0 * cmath.exp(1j * spec.theta)
    assert contour_distance(spec, on_ray) == pytest.approx(0.0, abs=1e-15)
    assert classify_region(spec, on_ray) is RegionClass.NEAR_CONTOUR
    assert classify_region(spec, on_ray * cmath.exp(0.3j)) is not RegionClass.NEAR_CONTOUR


@given(st.floats(min_value=0.35, max_value=0.95),
       st.floats(min_value=0.1, max_value=20.0),
       st.floats(min_value=-math.pi + 1e-3, max_value=math.pi))
@settings(max_examples=60)
def test_contour_distance_nonnegative(alpha, r, phi):
    spec = _spec(alpha)
    z = r * cmath.exp(1j * phi)
    assert contour_distance(spec, z) >= 0.0


# ------------------------------------------------- reciprocal gamma identity

@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("boff", [0.0, 0.7, 1.0])
def test_recip_gamma_identity_grid(alpha, boff):
    # path integral of exp(zeta^(1/a)) zeta^((1-b)/a) equals 1/Gamma(b-a);
    # boff = 0 hits the removable case b = a where Gamma has a pole
    b = alpha + boff
    got = recip_gamma_via_contour(alpha, b)
    want = complex(recip_gamma(complex(b - alpha)))
    assert abs(got - want) <= 1e-9


def test_recip_gamma_identity_negative_argument():
    # b - a < 0 exercises the reflection side of the reference value
    got = recip_gamma_via_contour(0.7, 0.2)
    assert got == pytest.approx(complex(-0.28209479177387814, 0.0), abs=1e-12)


def test_recip_gamma_identity_independent_of_path_shape():
    vals = [
        recip_gamma_via_contour(0.6, 1.0),
        recip_gamma_via_contour(0.6, 1.0, theta=0.55 * 0.6 * math.pi),
        recip_gamma_via_contour(0.6, 1.0, theta=0.9 * 0.6 * math.pi),
        recip_gamma_via_contour(0.6, 1.0, eps=0.3),
        recip_gamma_via_contour(0.6, 1.0, eps=2.5),
    ]
    for v in vals[1:]:
        assert abs(v - vals[0]) <= 1e-12


# ------------------------------------------------------------ representation

@pytest.mark.parametrize("alpha,beta", [(0.5, 1.0), (0.5, 0.5), (0.7, 1.0), (0.7, 0.7)])
def test_contour_matches_series_on_overlap(alpha, beta):
    p = MLParams(alpha, beta)
    for r in (5.0, 8.0):
        for phi in (0.7 * math.pi, math.pi):
            z = r * cmath.exp(1j * phi)
            c = ml_contour(p, z)
            s = ml_series_deriv(p, z, 1.0, 0, extended=True)
            tol = c.err_estimate + s.err_estimate + 1e-12 * abs(s.value)
            assert abs(c.value - s.value) <= max(tol, 1e-13 * abs(s.value))


def test_contour_explicit_term_in_sector():
    # inside G+ the evaluation adds the explicit exponential; compare with
    # the series route, which knows nothing about the region split
    p = MLParams(0.7, 1.0)
    z = 6.0  # positive axis, |z| in the series-capable range
    c = ml_contour(p, z)
    s = ml_series_deriv(p, z, 1.0, 0, extended=True)
    assert abs(c.value - s.value) <= 1e-10 * abs(s.value)


def test_theta_and_eps_independence_of_value():
    p = MLParams(0.6, 1.0)
    z = 8.0 * cmath.exp(0.8j * math.pi)
    base = ml_contour(p, z, spec=_spec(0.6, frac=0.75))
    for frac, eps in ((0.6, 1.0), (0.85, 1.0), (0.75, 0.4), (0.75, 2.0)):
        other = ml_contour(p, z, spec=ContourSpec(0.6, frac * 0.6 * math.pi, eps))
        assert abs(base.value - other.value) <= \
            2.0 * (base.err_estimate + other.err_estimate) + 1e-13 * abs(base.value)


def test_near_path_argument_is_rejected():
    spec = _spec(0.6)
    z = 2.0 * cmath.exp(1j * spec.theta)
    with pytest.raises(DomainError):
        ml_contour(MLParams(0.6, 1.0), z, spec=spec)


def test_spec_alpha_mismatch_is_rejected():
    with pytest.raises(DomainError):
        ml_contour(MLParams(0.5, 1.0), -5.0, spec=_spec(0.6))


def test_auto_spec_avoids_the_argument():
    # auto path placement must work on both sides and keep distance from z
    p = MLParams(0.6, 1.0)
    for z in (-20.0, -0.5, 30.0 * cmath.exp(2.0j), complex(0.0, 9.0)):
        res = ml_contour(p, complex(z))
        assert math.isfinite(abs(res.value))


# -------------------------------------------------------------- derivatives

@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_contour_derivative_matches_series_route(l):
    p = MLParams(0.6, 0.6)
    lam = cmath.exp(0.85j * math.pi)
    t = 6.0  # |z| ~ 2.9: both routes converge comfortably
    c = ml_contour_deriv(p, lam, t, l)
    s = ml_series_deriv(p, lam, t, l)
    tol = c.err_estimate + s.err_estimate + 1e-11 * abs(s.value)
    assert abs(c.value - s.value) <= tol


def test_contour_derivative_requires_positive_t():
    with pytest.raises(DomainError):
        ml_contour_deriv(MLParams(0.6, 1.0), -1.0, 0.0, 1)


def test_contour_derivative_explicit_term_in_sector():
    # interior lambda: the derivative of the explicit exponential dominates
    # at large t; cross-check against the series at a moderate point
    p = MLParams(0.8, 1.0)
    lam = cmath.exp(0.3j)
    t = 2.0
    c = ml_contour_deriv(p, lam, t, 1)
    s = ml_series_deriv(p, lam, t, 1)
    assert abs(c.value - s.value) <= \
        c.err_estimate + s.err_estimate + 1e-11 * abs(s.value)


def test_error_estimates_cover_route_disagreement():
    p = MLParams(0.5, 1.0)
    for z in (-6.0, -10.0, 7.0 * cmath.exp(0.75j * math.pi)):
        c = ml_contour(p, complex(z))
        s = ml_series_deriv(p, complex(z), 1.0, 0, extended=True)
        gap = abs(c.value - s.value)
        assert gap <= 4.0 * (c.err_estimate + s.err_estimate) + 1e-14 * abs(s.value)


# ------------------------------------------------------ batched path integral

_QUAD = QuadratureControls()


@given(st.sampled_from([0.35, 0.5, 0.6, 0.8]),
       st.lists(st.tuples(st.floats(min_value=0.05, max_value=40.0),
                          st.floats(min_value=-math.pi, max_value=math.pi)),
                min_size=1, max_size=40))
@settings(max_examples=12, deadline=None)
def test_batched_cauchy_integral_matches_one_argument_calls(alpha, polar):
    # arguments on both sides of the path; each column of the batched call
    # must agree with the one-argument call within both error estimates
    spec = _spec(alpha)
    p = MLParams(alpha, 1.0)
    zs = [r * cmath.exp(1j * phi) for r, phi in polar]
    zs = [z for z in zs if contour_distance(spec, z) >= 1e-2 * max(1.0, abs(z))]
    if not zs:
        return
    values, errs, _ = _cauchy_integral(spec, p, np.array(zs), _QUAD, 0)
    assert values.shape == errs.shape == (len(zs),)
    for z, value, err in zip(zs, values, errs):
        one, one_err, _ = _cauchy_integral(spec, p, z, _QUAD, 0)
        assert abs(value - one) <= err + one_err


def test_batched_cauchy_integral_near_path_column_keeps_others_accurate():
    # one argument hugs the upper ray, which forces deep refinement there;
    # the other columns must still meet their own accuracy, and so must it
    spec = _spec(0.6)
    p = MLParams(0.6, 1.0)
    ray = cmath.exp(1j * spec.theta)
    near = 3.0 * ray + 1e-3 * 1j * ray
    assert classify_region(spec, near) is not RegionClass.NEAR_CONTOUR
    zs = [near, -5.0, 2.0 + 1.0j, 10.0, 0.3j]
    values, errs, panels = _cauchy_integral(spec, p, np.array(zs), _QUAD, 1)
    single_panels = 0
    for z, value, err in zip(zs, values, errs):
        one, one_err, n = _cauchy_integral(spec, p, z, _QUAD, 1)
        single_panels += n
        assert abs(value - one) <= err + one_err
        assert err <= 1e-11 * abs(one) + 1e-13
    assert panels < single_panels


def test_batched_remainder_plus_explicit_term_matches_series():
    # three lemma2-i grid points: the certificate's batched remainder plus
    # the explicit exponential must reproduce E_alpha from the series oracle
    ctx = sector_context(0.6, 1.0)
    report = certify_lemma2_i(ctx)
    p = MLParams(0.6, 1.0)
    picked = [report.points[k] for k in (0, 5, 10)]
    zs = np.array([ctx.lam * pt.t ** ctx.alpha for pt in picked])
    values, errs, _ = _cauchy_integral(_interior_eval_spec(ctx), p, zs, _CERT_QUAD, 0)
    for pt, z, value, err in zip(picked, zs, values, errs):
        assert abs(value) == pytest.approx(pt.measured, rel=1e-13)
        expl = _explicit_term(0.6, 1.0, complex(z))
        oracle = ml_series_deriv(p, complex(z), 1.0, 0, extended=True)
        # exp(w) carries the rounding of its exponent w = z**(1/alpha)
        expl_err = (4.0 + abs(complex(z) ** (1.0 / 0.6))) * math.ulp(1.0) * abs(expl)
        assert abs(value + expl - oracle.value) <= err + expl_err + oracle.err_estimate


# ----------------------------------------------------------- non-finite input

_NON_FINITE = [math.inf, -math.inf, math.nan, complex(1.0, math.inf),
               complex(math.nan, 0.0), complex(0.0, -math.inf)]


@pytest.mark.parametrize("z", _NON_FINITE)
def test_contour_rejects_non_finite_argument(z):
    with pytest.raises(DomainError, match="argument z must be finite"):
        ml_contour(MLParams(0.6, 1.0), z)


@pytest.mark.parametrize("lam,t", [(math.nan, 2.0), (complex(math.inf, 1.0), 2.0),
                                   (-1.0, math.inf), (-1.0, math.nan)])
def test_contour_derivative_rejects_non_finite_arguments(lam, t):
    name = "t" if math.isfinite(abs(complex(lam))) else "lam"
    with pytest.raises(DomainError, match=f"argument {name} must be finite"):
        ml_contour_deriv(MLParams(0.6, 1.0), lam, t, 1)


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_batched_cauchy_integral_rejects_a_non_finite_column(bad):
    zs = np.array([-5.0, bad, 2.0 + 1.0j])
    with pytest.raises(DomainError, match="argument z must be finite"):
        _cauchy_integral(_spec(0.6), MLParams(0.6, 1.0), zs, _QUAD, 0)
