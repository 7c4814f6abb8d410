"""Power-series evaluation: identities, oracles, dispatch, honest errors."""

import cmath
import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfunc.numcore import DomainError, recip_gamma
from mlfunc.series import (
    EvalControls,
    EvaluationError,
    MLParams,
    SeriesConvergenceError,
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
    # |z| below rho_switch but alternating enough that plain precision fails
    res = ml_eval(MLParams(0.5, 1.0), -8.0, EvalControls(rho_switch=10.0))
    assert res.method == "compensated-series"
    assert res.value.real == pytest.approx(
        math.exp(64.0) * sp.erfc(8.0), rel=1e-11)


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
