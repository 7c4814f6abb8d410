"""Path-integral representation: self-test identity, region logic, route agreement."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mlfunc.bounds import _CERT_QUAD, _interior_eval_spec, certify_lemma2_i, sector_context
from mlfunc.contour import (
    ContourSpec,
    RegionClass,
    _explicit_part,
    _explicit_term,
    _path_geometry,
    admissible_specs,
    cauchy_integral,
    classify_region,
    contour_distance,
    expansion_coefficient,
    ml_contour,
    ml_contour_deriv,
    path_mass_bound,
    recip_gamma_via_contour,
    remainder_bound,
)
from mlfunc.numcore import DomainError, QuadratureControls, QuadratureError, recip_gamma
from mlfunc.series import MLParams, evaluate, ml_series_deriv


def _spec(alpha, frac=0.75, eps=1.0):
    return ContourSpec(alpha, frac * alpha * math.pi, eps)


# -------------------------------------------------------------------- spec

def test_spec_angle_window_is_strict():
    ContourSpec(0.6, 0.75 * 0.6 * math.pi, 1.0)
    with pytest.raises(DomainError):
        ContourSpec(0.6, 0.6 * math.pi / 2, 1.0)
    with pytest.raises(DomainError):
        ContourSpec(0.6, 0.6 * math.pi, 1.0)
    # at alpha = 1 the path is Hankel's loop, theta strictly inside (pi/2, pi)
    for frac in (0.5001, 0.75, 0.9999):
        ContourSpec(1.0, frac * math.pi, 1.0)
    with pytest.raises(DomainError):
        ContourSpec(1.0, math.pi / 2, 1.0)
    with pytest.raises(DomainError):
        ContourSpec(1.0, math.pi, 1.0)
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


def test_classify_region_takes_an_array_in_one_call():
    # one class per entry, each the scalar call's
    spec = ContourSpec(0.6, 0.45 * math.pi, 1.0)
    on_ray = 2.0 * cmath.exp(1j * spec.theta)
    zs = np.array([-5.0, 3.0, complex(0.2, 0.1), on_ray, on_ray * cmath.exp(0.3j)])
    classes = classify_region(spec, zs)
    assert classes == tuple(classify_region(spec, z) for z in zs)
    assert classes[:4] == (RegionClass.G_MINUS, RegionClass.G_PLUS, RegionClass.G_MINUS,
                           RegionClass.NEAR_CONTOUR)


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


@given(st.floats(min_value=0.05, max_value=0.999),
       st.sampled_from([0.5, 1.0, 2.0]),
       st.floats(min_value=0.0, max_value=30.0),
       st.floats(min_value=-math.pi, max_value=math.pi))
@settings(max_examples=60)
# a point on the arc whose np.abs is 1.0000000000000002 and abs() is 1.0
@example(frac=0.5, eps=1.0, r=1.0, phi=0.18860910830206512)
def test_path_geometry_matches_a_sampled_path(frac, eps, r, phi):
    # theta = frac * pi covers every alpha < 1 and the alpha = 1 paths;
    # the distance to a finely sampled path bounds it from above
    theta = 0.5 * math.pi + frac * 0.5 * math.pi
    z = r * cmath.exp(1j * phi)
    dist, g_plus = _path_geometry(theta, eps, z)
    s = eps + np.geomspace(1e-9, 1e3, 20001) - 1e-9
    arc = eps * np.exp(1j * np.linspace(-theta, theta, 20001))
    path = np.concatenate((s * cmath.exp(1j * theta), s * cmath.exp(-1j * theta), arc))
    sampled = np.abs(path - z).min()
    assert dist <= sampled + 1e-12 * (1.0 + r)
    assert sampled <= dist + 0.01 * eps + 1e-3 * r
    assert bool(g_plus) == (abs(z) > eps and abs(cmath.phase(z)) < theta)


@given(st.floats(min_value=0.3, max_value=0.95),
       st.sampled_from(["alpha", "1", "1.5", "0.7+0.4i"]),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=6),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=-math.pi, max_value=math.pi))
@settings(max_examples=40, deadline=None)
def test_remainder_bound_covers_the_remainder(alpha, beta_kind, l, n, frac, phi):
    # R_N^(l)(z) = E^(l)(z) - [explicit G+ term]^(l) - l! sum_{k<=N} (coefficient
    # of the order-k term), against the extended series, for z in G+ or G- of
    # a unit-radius admissible path; |z|**(1/alpha) <= 25 keeps the explicit
    # term's cancellation in G+ small
    beta = {"alpha": alpha, "1": 1.0, "1.5": 1.5, "0.7+0.4i": complex(0.7, 0.4)}[beta_kind]
    beta = complex(beta)
    assume(n > (beta.real - 1.0) / alpha - 1.0)  # a finite ray mass
    lo, hi = math.log(1.5), math.log(min(20.0, 25.0 ** alpha))
    z = cmath.rect(math.exp(lo + frac * (hi - lo)), phi)
    spec = next((s for s in admissible_specs(alpha, z) if s.eps == 1.0), None)
    assume(spec is not None)
    dist, g_plus = _path_geometry(spec.theta, 1.0, z)
    p = MLParams(alpha, beta)
    exact = ml_series_deriv(p, z, 1.0, l, extended=True)
    remainder = exact.value - math.factorial(l) * expansion_coefficient(
        alpha, z, np.arange(1, n + 1), l, beta).sum()
    slack = exact.err_estimate
    if g_plus:
        expl, bar = _explicit_part(alpha, beta, z, l)
        remainder -= expl
        slack += bar
    log_mass = path_mass_bound(alpha, beta, [spec.theta / alpha], [n])[0, 0]
    bound = math.exp(remainder_bound(alpha, log_mass, abs(z), float(dist), n, l))
    assert abs(remainder) <= bound + slack


# ------------------------------------------------- reciprocal gamma identity

@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9, 1.0])
@pytest.mark.parametrize("boff", [0.0, 0.5, 0.7, 1.0, 1.7, -1.7, complex(-0.2, 0.6)])
def test_recip_gamma_identity_grid(alpha, boff):
    # path integral of exp(zeta^(1/a)) zeta^((1-b)/a) equals 1/Gamma(b-a),
    # to the last few ulp; boff = 0 hits the removable case b = a where
    # Gamma has a pole.  At alpha = 1 the path is Hankel's loop and the
    # kernel e^zeta zeta^(1-b)
    b = alpha + boff
    got = recip_gamma_via_contour(alpha, b)
    want = complex(recip_gamma(complex(b - alpha)))
    assert abs(got - want) <= 1e-15


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


_BAND = 3e-3  # the near-path band, relative to max(1, |z|)


def _off_ray(alpha, r, offset):
    """r along the ray at 0.75 alpha pi, moved ``offset`` * r across it."""
    ray = cmath.exp(0.75j * alpha * math.pi)
    return r * ray + offset * r * 1j * ray


@pytest.mark.parametrize("alpha", [0.45, 0.6, 0.75, 0.9, 1.0])
def test_arguments_just_outside_the_band_stay_within_their_bars(alpha):
    # 1.05 times the band from the automatic path's ray, on both sides: the
    # path route on that path and the automatic route both lie within
    # their bars of the extended series (an expansion-route value stands in
    # for it where the mpmath sum takes seconds, |z|**(1/alpha) > 300)
    p = MLParams(alpha)
    orders = np.arange(3)
    for r in (1.2, 1.5, 3.0, 8.0, 20.0):
        for side in (1.0, -1.0):
            z = _off_ray(alpha, r, side * 1.05 * _BAND)
            assert next(admissible_specs(alpha, z)) == _spec(alpha)
            path = ml_contour_deriv(p, z, 1.0, orders)
            auto = evaluate(p, z, 1.0, orders)
            for l in orders.tolist():
                if r ** (1.0 / alpha) > 300.0:
                    assert auto.method[l] == "asymptotic"
                    want, want_err = auto.value[l], auto.err_estimate[l]
                else:
                    oracle = ml_series_deriv(p, z, 1.0, l, extended=True)
                    want, want_err = oracle.value, oracle.err_estimate
                    assert abs(auto.value[l] - want) <= auto.err_estimate[l] + want_err
                assert abs(path.value[l] - want) <= path.err_estimate[l] + want_err


def test_argument_between_the_old_bands_is_covered():
    # 1.02e-3 |z| from the ray at 0.75 alpha pi, where the path once went:
    # its Gauss-Kronrod bar missed the extended series by 1.40x
    p = MLParams(0.9)
    z = -1.57010477305077 + 2.5563216474542463j
    res = evaluate(p, z, 1.0, 2)
    oracle = ml_series_deriv(p, z, 1.0, 2, extended=True)
    assert next(admissible_specs(0.9, z)) != _spec(0.9)
    assert abs(res.value - oracle.value) <= res.err_estimate


def test_caller_spec_inside_the_band_is_rejected():
    p = MLParams(0.6)
    spec = _spec(0.6)
    z = _off_ray(0.6, 3.0, 0.95 * _BAND)
    assert classify_region(spec, z) is RegionClass.NEAR_CONTOUR
    assert spec not in admissible_specs(0.6, z)
    with pytest.raises(DomainError):
        ml_contour_deriv(p, z, 1.0, 1, spec=spec)
    with pytest.raises(DomainError):
        cauchy_integral(spec, p, np.array([-5.0, z]), QuadratureControls(), 1)
    # 1e-4 from the upper ray, where the Gauss-Kronrod estimate misses
    # the error by 6.6x once the quadrature converges
    spec = ContourSpec(0.6, 0.45 * math.pi)
    ray = cmath.exp(1j * spec.theta)
    with pytest.raises(DomainError):
        cauchy_integral(spec, p, 3.0 * ray + 1e-4j * ray, QuadratureControls(), 1)


def test_spec_alpha_mismatch_is_rejected():
    with pytest.raises(DomainError):
        ml_contour(MLParams(0.5, 1.0), -5.0, spec=_spec(0.6))


def test_auto_spec_avoids_the_argument():
    # auto path placement must work on both sides and keep distance from z
    p = MLParams(0.6, 1.0)
    for z in (-20.0, -0.5, 30.0 * cmath.exp(2.0j), complex(0.0, 9.0)):
        res = ml_contour(p, complex(z))
        assert math.isfinite(abs(res.value))


@pytest.mark.parametrize("z", [1e-11, 1e-6, 1e-3, 1e-4j])
def test_auto_spec_serves_tiny_arguments(z):
    # below |z| = 1.4e-3 the auto path is the unit-radius one
    p = MLParams(0.6, 1.0)
    c = ml_contour(p, z)
    s = ml_series_deriv(p, z, 1.0, 0, extended=True)
    assert abs(c.value - s.value) <= c.err_estimate + s.err_estimate


@pytest.mark.parametrize("beta,alpha,z", [(2.5, 0.3, 1.5e-3), (3.0, 0.2, 1.5e-3),
                                          (3.0, 0.2, 0.01)])
def test_auto_spec_keeps_the_digits_of_small_arguments(beta, alpha, z):
    # a path of radius |z|/2 passes close to 0, where zeta**((1-beta)/alpha)
    # blows up for beta > 1: it lost every digit here, or found no path
    p = MLParams(alpha, beta)
    c = ml_contour(p, z)
    s = ml_series_deriv(p, z, 1.0, 0, extended=True)
    assert abs(c.value - s.value) <= 1e-12 * abs(s.value)
    assert abs(c.value - s.value) <= c.err_estimate + s.err_estimate


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


@pytest.mark.parametrize("l", [0, 1, 2])
def test_explicit_term_bar_covers_the_rounding_of_its_exponent(l):
    # exp(w), w = z**(1/alpha), carries the rounding of w; a bar of
    # 4 eps |term| fell 1.8-6.7x short of the true error at these G+ points
    cases = [(MLParams(0.6, 1.0), 7.65, 1.0), (MLParams(0.6, 0.6), 2.0, 10.0),
             (MLParams(0.8, 1.5), cmath.exp(0.3j), 25.0),
             (MLParams(0.5, complex(0.7, 0.4)), 7.65, 1.0)]
    for p, lam, t in cases:
        c = ml_contour_deriv(p, lam, t, l)
        s = ml_series_deriv(p, lam, t, l, extended=True)
        assert abs(c.value - s.value) <= c.err_estimate + s.err_estimate
        if l == 0 and t == 1.0:
            assert ml_contour(p, lam) == c


def test_overflowing_path_is_an_evaluation_failure():
    # an arc of radius 2 at alpha = 0.05 meets exp(2**20): the quadrature
    # must fail with its own error, not an OverflowError from inside it
    spec = ContourSpec(0.05, 0.75 * 0.05 * math.pi, 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(QuadratureError, match="not finite on the path panel"):
            ml_contour(MLParams(0.05, 1.0), -5.0, spec=spec)


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
    values, errs, _ = cauchy_integral(spec, p, np.array(zs), _QUAD, 0)
    assert values.shape == errs.shape == (len(zs),)
    for z, value, err in zip(zs, values, errs):
        one, one_err, _ = cauchy_integral(spec, p, z, _QUAD, 0)
        assert abs(value - one) <= err + one_err


@given(st.sampled_from([0.35, 0.5, 0.6, 0.8]),
       st.lists(st.tuples(st.floats(min_value=0.05, max_value=40.0),
                          st.floats(min_value=-math.pi, max_value=math.pi),
                          st.integers(min_value=0, max_value=4)),
                min_size=1, max_size=30))
@settings(max_examples=12, deadline=None)
def test_cauchy_integral_order_per_row_matches_one_row_calls(alpha, rows):
    # each row is a (z, l) pair; every row of the batched call must agree
    # with its own one-argument call within both error estimates
    spec = _spec(alpha)
    p = MLParams(alpha, 1.0)
    rows = [(r * cmath.exp(1j * phi), l) for r, phi, l in rows]
    rows = [(z, l) for z, l in rows if contour_distance(spec, z) >= 1e-2 * max(1.0, abs(z))]
    if not rows:
        return
    zs = np.array([z for z, _ in rows])
    ls = np.array([l for _, l in rows])
    values, errs, _ = cauchy_integral(spec, p, zs, _QUAD, ls)
    assert values.shape == errs.shape == (len(rows),)
    for (z, l), value, err in zip(rows, values, errs):
        one, one_err, _ = cauchy_integral(spec, p, z, _QUAD, l)
        assert abs(value - one) <= err + one_err


def test_cauchy_integral_rejects_bad_orders():
    spec, p = _spec(0.6), MLParams(0.6, 1.0)
    with pytest.raises(DomainError, match="argument order must hold nonnegative"):
        cauchy_integral(spec, p, np.array([-5.0, 2.0j]), _QUAD, [0, -1])
    with pytest.raises(DomainError, match="as long as z"):
        cauchy_integral(spec, p, np.array([-5.0, 2.0j]), _QUAD, [0, 1, 2])


def test_array_l_matches_one_order_calls():
    # one time at several orders and several times at one order each: an
    # entry agrees with its one-order call on the same path within both bars
    p = MLParams(0.6, 1.5)
    lam = 2.0 * cmath.exp(0.4j)
    ts = np.array([0.5, 3.0, 3.0, 12.0])
    ls = np.array([0, 1, 3, 2])
    res = ml_contour_deriv(p, lam, ts, ls)
    spec = next(admissible_specs(0.6, lam * ts ** 0.6))
    for t, l, value, err in zip(ts, ls, res.value, res.err_estimate):
        one = ml_contour_deriv(p, lam, float(t), int(l), spec=spec)
        assert abs(value - one.value) <= err + one.err_estimate
    orders = ml_contour_deriv(p, lam, 3.0, [0, 1, 2])
    assert orders.value.shape == (3,)


def test_batched_cauchy_integral_near_path_column_keeps_others_accurate():
    # one argument hugs the upper ray, which forces deep refinement there;
    # the other columns must still meet their own accuracy, and so must it
    spec = _spec(0.6)
    p = MLParams(0.6, 1.0)
    ray = cmath.exp(1j * spec.theta)
    # 1.05 times the near-path band 3e-3 * |z| out from the ray
    near = 3.0 * ray + 1.05 * 3e-3 * 3.0 * 1j * ray
    assert classify_region(spec, near) is not RegionClass.NEAR_CONTOUR
    zs = [near, -5.0, 2.0 + 1.0j, 10.0, 0.3j]
    values, errs, panels = cauchy_integral(spec, p, np.array(zs), _QUAD, 1)
    single_panels = 0
    for z, value, err in zip(zs, values, errs):
        one, one_err, n = cauchy_integral(spec, p, z, _QUAD, 1)
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
    values, errs, _ = cauchy_integral(_interior_eval_spec(ctx), p, zs, _CERT_QUAD, 0)
    for pt, z, value, err in zip(picked, zs, values, errs):
        assert abs(value) == pytest.approx(pt.measured, rel=1e-13)
        expl = _explicit_term(0.6, 1.0, complex(z))
        oracle = ml_series_deriv(p, complex(z), 1.0, 0, extended=True)
        # exp(w) carries the rounding of its exponent w = z**(1/alpha)
        expl_err = (4.0 + abs(complex(z) ** (1.0 / 0.6))) * math.ulp(1.0) * abs(expl)
        assert abs(value + expl - oracle.value) <= err + expl_err + oracle.err_estimate


@given(st.sampled_from([0.35, 0.5, 0.6, 0.8]),
       st.sampled_from([1.0, 0.6, 1.5]),
       st.floats(min_value=0.05, max_value=8.0),
       st.floats(min_value=-math.pi, max_value=math.pi),
       st.integers(min_value=0, max_value=2),
       st.lists(st.floats(min_value=0.1, max_value=40.0), min_size=1, max_size=12))
@settings(max_examples=12, deadline=None)
def test_array_t_matches_one_time_calls(alpha, beta, r, phi, l, ts):
    # both sides of the path: each entry of the array call must agree with
    # the one-time call on the same path within both error estimates
    lam = r * cmath.exp(1j * phi)
    ts = np.array(ts)
    # keep the explicit G+ term inside the double range
    assume((r * ts.max() ** alpha) ** (1.0 / alpha) < 300.0)
    p = MLParams(alpha, beta)
    res = ml_contour_deriv(p, lam, ts, l)
    assert res.value.shape == res.err_estimate.shape == ts.shape
    spec = next(admissible_specs(alpha, lam * ts ** alpha))
    for t, value, err in zip(ts, res.value, res.err_estimate):
        one = ml_contour_deriv(p, lam, float(t), l, spec=spec)
        assert abs(value - one.value) <= err + one.err_estimate


def test_array_t_path_clears_every_argument():
    # |z| = 1e-4, 0.9999, 3 on one ray: the smallest argument alone admits
    # the unit-radius path, which passes 1e-4 from the middle one
    p = MLParams(0.6, 1.0)
    ts = np.array([1e-4, 0.9999, 3.0]) ** (1.0 / 0.6)
    zs = ts ** 0.6
    for spec in admissible_specs(0.6, zs):
        assert all(contour_distance(spec, z) >= 1e-3 * max(1.0, z) for z in zs)
    res = ml_contour_deriv(p, 1.0, ts, 0)
    for t, value, err in zip(ts, res.value, res.err_estimate):
        oracle = ml_series_deriv(p, 1.0, float(t), 0, extended=True)
        assert abs(value - oracle.value) <= err + oracle.err_estimate
        assert err <= 1e-12 * abs(oracle.value)


@pytest.mark.parametrize("t", [[], [[1.0, 2.0]], [1.0, 0.0, 2.0]])
def test_array_t_rejects_empty_nested_or_nonpositive_times(t):
    with pytest.raises(DomainError):
        ml_contour_deriv(MLParams(0.6, 1.0), -1.0, t, 0)


# ----------------------------------------------------------- non-finite input

_NON_FINITE = [math.inf, -math.inf, math.nan, complex(1.0, math.inf),
               complex(math.nan, 0.0), complex(0.0, -math.inf)]


@pytest.mark.parametrize("z", _NON_FINITE)
def test_contour_rejects_non_finite_argument(z):
    with pytest.raises(DomainError, match="argument z must be finite"):
        ml_contour(MLParams(0.6, 1.0), z)


@pytest.mark.parametrize("lam,t", [(math.nan, 2.0), (complex(math.inf, 1.0), 2.0),
                                   (-1.0, math.inf), (-1.0, math.nan),
                                   (-1.0, [2.0, math.nan])])
def test_contour_derivative_rejects_non_finite_arguments(lam, t):
    name = "t" if math.isfinite(abs(complex(lam))) else "lam"
    with pytest.raises(DomainError, match=f"argument {name} must be finite"):
        ml_contour_deriv(MLParams(0.6, 1.0), lam, t, 1)


@pytest.mark.parametrize("b", [math.nan, complex(1.0, math.inf)])
def test_recip_gamma_via_contour_rejects_non_finite_b(b):
    with pytest.raises(DomainError, match="argument b must be finite"):
        recip_gamma_via_contour(0.5, b)


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_batched_cauchy_integral_rejects_a_non_finite_column(bad):
    zs = np.array([-5.0, bad, 2.0 + 1.0j])
    with pytest.raises(DomainError, match="argument z must be finite"):
        cauchy_integral(_spec(0.6), MLParams(0.6, 1.0), zs, _QUAD, 0)
