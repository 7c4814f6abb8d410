"""Power-series evaluation: identities, oracles, dispatch, honest errors."""

import cmath
import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfunc import series as series_module
from mlfunc.numcore import DomainError, recip_gamma
from mlfunc.series import (
    EvaluationError,
    MLParams,
    SeriesConvergenceError,
    evaluate,
    ml_eval,
    ml_series,
    ml_series_deriv,
)

# values frozen from 120..450-digit arbitrary-precision series sums
_ML_REFERENCE = {
    (0.5, 1.0, complex(-4.0, 0.0)): complex(0.13699945762506138, 0.0),
    (0.5, 0.5, complex(-6.0, 0.0)): complex(0.007530176744526161, 0.0),
    (0.7, 1.0, complex(3.0, 4.0)): complex(-15.766193263396215, -3.8235867000773993),
    (0.35, 0.35, complex(-10.0, 0.0)): complex(0.0022917546383093676, 0.0),
    (0.8, 1.3, complex(-2.0, 5.0)): complex(0.032100025408638815, 0.10135773459607911),
    (0.6, 1.0, complex(8.0, 0.0)): complex(131604933637801.66, 0.0),
    (0.9, 0.9, complex(0.0, -7.0)): complex(-0.23631128692953046, -0.19405974799437323),
    (0.45, 1.0, complex(-9.0, 0.0)): complex(0.06713727427276643, 0.0),
}

_ML_DERIV_REFERENCE = {
    (0.5, 0.5, complex(-1.0, 0.0), 2.0, 1): complex(0.12056296572763969, 0.0),
    (0.5, 0.5, complex(-1.0, 0.0), 2.0, 2): complex(0.22755072560162776, 0.0),
    (0.8, 1.0, complex(-1.0, 1.0), 1.5, 1): complex(0.030814134399672344, 0.2402576060842623),
    (0.8, 1.0, complex(-1.0, 1.0), 1.5, 3): complex(-0.19333006330074723, 0.5980601509034015),
    (0.6, 0.6, complex(1.2, 0.0), 0.7, 2): complex(16.041562400719894, 0.0),
}


# ------------------------------------------------------------------ params

def test_params_validation():
    with pytest.raises(DomainError):
        MLParams(0.0, 1.0)
    with pytest.raises(DomainError):
        MLParams(1.5, 1.0)
    with pytest.raises(DomainError):
        MLParams(-0.3, 1.0)
    with pytest.raises(DomainError):
        MLParams(0.5, complex(math.inf, 0.0))
    assert MLParams(0.5).beta == 1.0 + 0j


# --------------------------------------------------------------- identities

def test_exponential_identity_alpha_one():
    p = MLParams(1.0, 1.0)
    for x in np.linspace(-5.0, 5.0, 41):
        res = ml_eval(p, complex(x))
        want = math.exp(x)
        assert abs(res.value - want) <= 1e-12 * abs(want)


def test_exponential_difference_identity_alpha_one_beta_two():
    p = MLParams(1.0, 2.0)
    for z in (1.0, -1.0, 1j, -1j):
        res = ml_eval(p, complex(z))
        want = (cmath.exp(z) - 1.0) / z
        assert abs(res.value - want) <= 1e-12 * abs(want)


def test_value_at_zero_is_recip_gamma():
    for alpha in (0.3, 0.5, 0.7, 0.9, 1.0):
        for beta in (alpha, 1.0, 2.0):
            res = ml_eval(MLParams(alpha, beta), 0.0)
            assert abs(res.value - 1.0 / math.gamma(beta)) <= 1e-14


def test_erfc_identity_alpha_half():
    # E_{1/2,1}(z) = exp(z^2) erfc(-z) on the real axis
    p = MLParams(0.5, 1.0)
    for x in (-2.0, -1.0, -0.3, 0.4, 1.0, 2.0):
        res = ml_eval(p, complex(x))
        want = math.exp(x * x) * sp.erfc(-x)
        assert abs(res.value - want) <= 1e-11 * abs(want)


def test_erfc_identity_frozen_point():
    # E_{1/2,1}(1) = e * erfc(-1)
    res = ml_eval(MLParams(0.5, 1.0), 1.0)
    assert res.value.real == pytest.approx(5.008980080762283, rel=1e-12)


# ------------------------------------------------------------ reference grid

@pytest.mark.parametrize("key", sorted(_ML_REFERENCE))
def test_reference_values(key):
    alpha, beta, z = key
    want = _ML_REFERENCE[key]
    res = ml_eval(MLParams(alpha, beta), z)
    assert abs(res.value - want) <= 5e-13 * abs(want)
    # the error estimate must cover the actual error
    assert abs(res.value - want) <= res.err_estimate + 1e-15 * abs(want)


def test_cancellation_regression_deep_negative_axis():
    # raw double coefficients underflow near k ~ 340 while the terms are
    # still huge; the extended mode must carry this point
    res = ml_series_deriv(MLParams(0.35, 0.35), -10.0, 1.0, 0)
    assert res.method == "compensated-series"
    assert res.value.real == pytest.approx(0.0022917546383093676, rel=5e-13)


@pytest.mark.parametrize("key", sorted(_ML_DERIV_REFERENCE))
def test_derivative_reference_values(key):
    alpha, beta, lam, t, l = key
    want = _ML_DERIV_REFERENCE[key]
    res = ml_series_deriv(MLParams(alpha, beta), lam, t, l)
    assert abs(res.value - want) <= 1e-12 * abs(want)


# ----------------------------------------------------------------- dispatch

def test_plain_mode_tag_on_benign_input():
    res = ml_eval(MLParams(0.7, 1.0), complex(0.5, 0.5))
    assert res.method == "series"


def test_upgrade_on_cancellation():
    # inside the series band but alternating enough that plain precision
    # fails; below alpha = 1 the contour route takes over
    res = ml_eval(MLParams(0.5, 1.0), -3.5)
    want = math.exp(12.25) * sp.erfc(3.5)
    assert res.method == "contour"
    assert res.value.real == pytest.approx(want, rel=1e-11)
    assert abs(res.value - want) <= res.err_estimate
    # past the band the contour route takes over
    res = ml_eval(MLParams(0.5, 1.0), -8.0)
    want = math.exp(64.0) * sp.erfc(8.0)
    assert res.method == "contour"
    assert res.value.real == pytest.approx(want, rel=1e-11)
    assert abs(res.value - want) <= res.err_estimate


def test_sub_resolution_imaginary_part_keeps_the_series():
    # the contour route forms zeta - z in doubles and would lose an
    # imaginary part of 1e-150; the complex step below needs it
    p = MLParams(0.5, 1.0)
    res = evaluate(p, complex(-2.0, 1e-150), 1.0, 0)
    assert res.method == "compensated-series"
    want = ml_series_deriv(p, -2.0, 1.0, 1).value.real
    assert res.value.imag / 1e-150 == pytest.approx(want, rel=1e-8)
    assert evaluate(p, -2.0, 1.0, 0).method == "contour"


def test_no_extended_series_below_alpha_one_on_the_band(monkeypatch):
    # every plain-series miss below alpha = 1 must go to the contour route
    def refuse(*args):
        raise AssertionError("extended series called")

    monkeypatch.setattr(series_module, "_series_mp", refuse)
    rng = np.random.default_rng(7)
    methods = set()
    for _ in range(200):
        alpha = rng.uniform(0.2, 0.98)
        beta = rng.choice([1.0, alpha, 1.5, complex(0.7, 0.4)])
        r = rng.uniform(0.0, 1.0) * min(4.0, 200.0 ** alpha)
        z = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        if rng.uniform() < 0.5:
            z = complex(r * rng.choice([-1.0, 1.0]))
        t = rng.uniform(0.25, 4.0)
        res = evaluate(MLParams(alpha, beta), z / t ** alpha, t, int(rng.integers(0, 4)))
        assert math.isfinite(abs(res.value))
        methods.add(res.method)
    assert methods == {"series", "contour"}


def test_contour_dispatch_beyond_series_range():
    # E_{1/2,1}(-x) = exp(x^2) erfc(x) = erfcx(x), here far past the series range
    res = ml_eval(MLParams(0.5, 1.0), -30.0)
    assert res.method == "contour"
    assert res.value.real == pytest.approx(sp.erfcx(30.0), rel=1e-9)


def test_alpha_one_series_handles_large_arguments():
    res = ml_eval(MLParams(1.0, 1.0), 20.0)
    assert res.method == "series"
    assert res.value.real == pytest.approx(math.exp(20.0), rel=1e-12)
    res = ml_eval(MLParams(1.0, 1.0), -30.0)
    assert res.value.real == pytest.approx(math.exp(-30.0), rel=1e-11)


def test_alpha_one_overflow_is_loud():
    with pytest.raises(EvaluationError):
        ml_eval(MLParams(1.0, 1.0), 1e9)


def test_alpha_one_beta_one_is_exp_in_closed_form():
    # e**-700 is a double, though |z| = 700 is past the series' range at alpha = 1
    res = ml_eval(MLParams(1.0, 1.0), -700.0)
    assert res.value.real == pytest.approx(math.exp(-700.0), rel=1e-13)
    assert abs(res.value.real - math.exp(-700.0)) <= res.err_estimate
    res = evaluate(MLParams(1.0, 1.0), -3.0, 2.0, 2)
    want = 4.0 * math.exp(-6.0)
    assert res.value.real == pytest.approx(want, rel=1e-14)
    assert abs(res.value.real - want) <= res.err_estimate
    with pytest.raises(EvaluationError):
        ml_eval(MLParams(1.0, 1.0), 1000.0)
    with pytest.raises(DomainError):
        evaluate(MLParams(1.0, 1.0), -3.0, 2.0, -1)


@given(st.floats(min_value=0.3, max_value=1.0),
       st.sampled_from(["1", "alpha", "1.5", "0.7+0.4i"]),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=-math.pi, max_value=math.pi),
       st.floats(min_value=0.25, max_value=4.0),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_router_error_bar_covers_the_oracle(alpha, beta_kind, frac, phi, t, l):
    # |z| <= min(50, 250**alpha) keeps |z|**(1/alpha) <= 250, so every value
    # stays far inside the double range and the oracle's series affordable
    beta = {"1": 1.0, "alpha": alpha, "1.5": 1.5, "0.7+0.4i": complex(0.7, 0.4)}[beta_kind]
    p = MLParams(alpha, beta)
    z = frac * min(50.0, 250.0 ** alpha) * cmath.exp(1j * phi)
    lam = z / t ** alpha
    res = evaluate(p, lam, t, l)
    oracle = ml_series_deriv(p, lam, t, l, extended=True)
    assert abs(res.value - oracle.value) <= res.err_estimate + oracle.err_estimate


def test_forced_plain_mode_reports_honest_error():
    # extended=False must return the plain result as-is, with an error
    # estimate that admits the cancellation instead of hiding it
    res = ml_series_deriv(MLParams(0.5, 1.0), -8.0, 1.0, 0, extended=False)
    true = math.exp(64.0) * sp.erfc(8.0)
    assert abs(res.value.real - true) <= res.err_estimate + 1e-15


def test_tiny_alpha_raises_instead_of_guessing():
    # term peak sits near k ~ 1.9e15; no representable-precision plan exists
    with pytest.raises(SeriesConvergenceError):
        ml_series_deriv(MLParams(0.05, 1.0), -5.0, 1.0, 0)


# ------------------------------------------------------------ special points

def test_t_zero_derivatives():
    p = MLParams(0.6, 0.8)
    res = ml_series_deriv(p, complex(2.0, 1.0), 0.0, 0)
    assert res.value == pytest.approx(complex(recip_gamma(0.8)), rel=1e-14)
    for l in (1, 2, 3):
        res = ml_series_deriv(p, complex(2.0, 1.0), 0.0, l)
        assert res.value == 0.0


def test_lambda_zero_derivative_closed_form():
    # d^l/dlam^l at lam=0 keeps a single series term: l! t^(a l)/Gamma(a l + b)
    p = MLParams(0.6, 0.8)
    t = 1.3
    for l in (0, 1, 2):
        res = ml_series_deriv(p, 0.0, t, l)
        want = math.factorial(l) * t ** (0.6 * l) * complex(recip_gamma(0.6 * l + 0.8))
        assert res.value == pytest.approx(want, rel=1e-13)


def test_argument_validation():
    p = MLParams(0.5, 1.0)
    with pytest.raises(DomainError):
        ml_series_deriv(p, 1.0, -1.0, 0)
    with pytest.raises(DomainError):
        ml_series_deriv(p, 1.0, 1.0, -2)


# ------------------------------------------------------- derivative oracles

def _complex_step(f, x, h=1e-150):
    return f(complex(x, h)).imag / h


@pytest.mark.parametrize("alpha", [0.5, 0.8])
@pytest.mark.parametrize("lam", [-1.5, -0.4, 0.7, 2.0])
def test_first_derivative_matches_complex_step(alpha, lam):
    p = MLParams(alpha, 1.0)
    t = 1.4
    want = _complex_step(lambda z: ml_series_deriv(p, z, t, 0).value, lam)
    got = ml_series_deriv(p, lam, t, 1).value
    assert got.real == pytest.approx(want, rel=1e-10)
    assert got.imag == 0.0


@pytest.mark.parametrize("alpha", [0.5, 0.8])
def test_second_derivative_matches_complex_step_chain(alpha):
    p = MLParams(alpha, alpha)
    t, lam = 0.9, 1.1
    want = _complex_step(lambda z: ml_series_deriv(p, z, t, 1).value, lam)
    got = ml_series_deriv(p, lam, t, 2).value
    assert got.real == pytest.approx(want, rel=1e-9)


# -------------------------------------------------------------- properties

@given(st.floats(min_value=0.3, max_value=1.0),
       st.floats(min_value=0.5, max_value=1.5),
       st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                          allow_infinity=False))
@settings(max_examples=25, deadline=None)
def test_plain_and_extended_agree_within_error(alpha, beta, z):
    p = MLParams(alpha, beta)
    plain = ml_series(p, z, tol=1e-12)
    ext = ml_series_deriv(p, z, 1.0, 0, extended=True)
    gap = abs(plain.value - ext.value)
    assert gap <= plain.err_estimate + ext.err_estimate + 1e-13


@given(st.floats(min_value=0.3, max_value=0.95),
       st.floats(min_value=0.1, max_value=2.5))
@settings(max_examples=25, deadline=None)
def test_positive_axis_values_increase_in_z(alpha, z):
    # all series terms are positive on the positive axis
    p = MLParams(alpha, 1.0)
    a = ml_eval(p, z).value.real
    b = ml_eval(p, z + 0.3).value.real
    assert b > a > 0.0


def test_conjugate_symmetry():
    # real parameters: E(conj z) = conj E(z)
    p = MLParams(0.7, 1.2)
    z = complex(1.3, 2.2)
    a = ml_eval(p, z).value
    b = ml_eval(p, z.conjugate()).value
    assert b == pytest.approx(a.conjugate(), rel=1e-13)


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan, complex(1.0, math.inf),
                               complex(math.nan, 0.0), complex(0.0, -math.inf)])
def test_eval_rejects_non_finite_argument(z):
    # once returned 0 with a zero error (1+inf*j), nan+nanj (inf) or a
    # message about the contour radius (nan)
    with pytest.raises(DomainError, match="argument z must be finite"):
        ml_eval(MLParams(0.6, 1.0), z)


@pytest.mark.parametrize("call, message", [
    (lambda p: ml_series(p, math.nan), "argument z must be finite"),
    (lambda p: ml_series(p, complex(1.0, math.inf)), "argument z must be finite"),
    (lambda p: ml_series(p, 1.0, tol=math.nan), "tol must be positive and finite"),
    (lambda p: ml_series(p, 1.0, tol=0.0), "tol must be positive and finite"),
    (lambda p: ml_series_deriv(p, math.nan, 1.0, 1), "argument lam must be finite"),
    (lambda p: ml_series_deriv(p, -1.0, math.nan, 1), "argument t must be finite"),
    (lambda p: ml_series_deriv(p, -1.0, math.inf, 0), "argument t must be finite"),
    (lambda p: ml_series_deriv(p, -1.0, 1.0, 2, tol=math.inf),
     "tol must be positive and finite"),
], ids=["z-nan", "z-inf-imag", "tol-nan", "tol-zero", "lam-nan", "t-nan", "t-inf",
        "deriv-tol-inf"])
def test_series_rejects_non_finite_input(call, message):
    # once failed as an overflowed term, an undecaying term profile, or
    # after all 10 000 terms of the plain pass (tol = nan)
    with pytest.raises(DomainError, match=message):
        call(MLParams(0.6, 1.0))
