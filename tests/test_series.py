"""Power-series evaluation: identities, oracles, dispatch, honest errors."""

import cmath
import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mlfunc import series as series_module
from mlfunc.contour import admissible_specs, ml_contour
from mlfunc.numcore import DomainError, recip_gamma
from mlfunc.series import (
    EvalControls,
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
    # past the band the expansion at infinity certifies this argument
    res = ml_eval(MLParams(0.5, 1.0), -8.0)
    want = math.exp(64.0) * sp.erfc(8.0)
    assert res.method == "asymptotic"
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
    # every plain-series miss below alpha = 1 must go to the expansion at
    # infinity or the contour route
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
    assert methods == {"series", "asymptotic", "contour"}


@pytest.mark.parametrize("beta", [1.5, 0.5, -0.7, complex(0.8, 0.6), 0.0, -1.0])
def test_alpha_one_between_series_and_expansion_needs_no_extended_series(
        beta, monkeypatch):
    # on the negative axis at |z| 5-30 and near 15i the plain series cancels
    # and the expansion at infinity is not yet certified; at alpha = 1 these
    # entries take the path, in a scalar call and in an array call, but for
    # beta = 0, -1, where E_{1,1-m}(z) = z**m e^z and every coefficient of
    # the expansion is 0, they take the closed form
    route = "series" if beta in (0.0, -1.0) else "contour"
    p = MLParams(1.0, beta)
    entries = [(z / t, t, l) for z in (-5.0, -12.0, -30.0, 15j, -2.0 + 15j)
               for t in (0.5, 2.0) for l in range(4)]
    oracles = [ml_series_deriv(p, lam, t, l, extended=True) for lam, t, l in entries]

    def refuse(*args):
        raise AssertionError("extended series called")

    monkeypatch.setattr(series_module, "_series_mp", refuse)
    batch = evaluate(p, *(np.array(column) for column in zip(*entries)))
    assert batch.method == (route,) * len(entries)
    for j, ((lam, t, l), oracle) in enumerate(zip(entries, oracles)):
        one = evaluate(p, lam, t, l)
        assert one.method == route
        for value, err in ((one.value, one.err_estimate),
                           (batch.value[j], batch.err_estimate[j])):
            assert abs(value - oracle.value) <= err + oracle.err_estimate


def test_contour_dispatch_beyond_series_range():
    # E_{1/2,1}(-x) = exp(x^2) erfc(x) = erfcx(x), here far past the series
    # range, where the expansion at infinity certifies it
    res = ml_eval(MLParams(0.5, 1.0), -30.0)
    assert res.method == "asymptotic"
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


@pytest.mark.parametrize("m, z", [(1, -30.0), (1, -100.0), (2, -100.0), (3, -12.0 + 5.0j)])
def test_alpha_one_nonpositive_integer_beta_is_closed_form(m, z):
    # E_{1,1-m}(z) = z**m e^z: exponentially small on the negative axis,
    # where the path's absolute floor would swamp it, yet to full accuracy
    p = MLParams(1.0, 1.0 - m)
    want = z ** m * cmath.exp(z)
    for res in (evaluate(p, z, 1.0, 0), evaluate(p, np.array([z, z]), 1.0, 0)):
        assert set(np.atleast_1d(res.method)) == {"series"}
        assert np.all(np.abs(res.value - want) <= 1e-12 * abs(want))
        assert np.all(np.abs(res.value - want) <= res.err_estimate + 4e-16 * abs(want))


def test_alpha_one_closed_form_derivatives_keep_digits_near_a_zero():
    # the l = 3 derivative of z**2 e^z is (z**2 + 6z + 6) e^z, which cancels
    # near z = -3 - sqrt(3); the sum taken exactly still meets tol
    p = MLParams(1.0, -1.0)
    for lam, t in ((-4.73, 1.0), (-9.46, 0.5), (-4.732 + 1e-3j, 1.0)):
        res = evaluate(p, lam, t, 3)
        oracle = ml_series_deriv(p, lam, t, 3, extended=True)
        assert res.method == "series"
        assert abs(res.value - oracle.value) <= 1e-12 * abs(oracle.value)
        assert abs(res.value - oracle.value) <= res.err_estimate + oracle.err_estimate
    # a zero of the sum at a rational z is exact: (1 + z) e^z at z = -1
    res = evaluate(MLParams(1.0, 0.0), -1.0, 1.0, 1)
    assert (res.value, res.method) == (0.0, "series")
    assert res.err_estimate < 1e-300
    with pytest.raises(EvaluationError):
        evaluate(MLParams(1.0, 0.0), 1000.0, 1.0, 0)


@given(st.floats(min_value=0.3, max_value=1.0),
       st.sampled_from(["1", "alpha", "1.5", "0.7+0.4i", "-2alpha", "-3alpha"]),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=-math.pi, max_value=math.pi),
       st.floats(min_value=0.25, max_value=4.0),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_router_error_bar_covers_the_oracle(alpha, beta_kind, frac, phi, t, l):
    # |z| <= min(50, 250**alpha) keeps |z|**(1/alpha) <= 250, so every value
    # stays far inside the double range and the oracle's series affordable
    # beta = -2 alpha, -3 alpha put a pole of Gamma at k = 2, 3
    beta = {"1": 1.0, "alpha": alpha, "1.5": 1.5, "0.7+0.4i": complex(0.7, 0.4),
            "-2alpha": -2.0 * alpha, "-3alpha": -3.0 * alpha}[beta_kind]
    p = MLParams(alpha, beta)
    z = frac * min(50.0, 250.0 ** alpha) * cmath.exp(1j * phi)
    lam = z / t ** alpha
    res = evaluate(p, lam, t, l)
    oracle = ml_series_deriv(p, lam, t, l, extended=True)
    assert abs(res.value - oracle.value) <= res.err_estimate + oracle.err_estimate


@pytest.mark.parametrize("alpha, lam, t", [
    (0.5, 5.4e-323, 2.0), (1.0, 2.47e-322, 1.0),
    (0.8560491883071364, -1.406148714e-314, 3.5581411729241643),
    (0.9803663880112947, 2.651734e-318 - 4.36972e-318j, 3.3769459735749057),
    (0.9940818286483428, 5e-324 + 5e-324j, 3.084488888726503)])
def test_bars_cover_rounding_below_the_normal_range(alpha, lam, t):
    # two draws of the property above: below 2**-1022 a rounding is absolute,
    # up to 2**-1075, and the relative bars underflowed to 0 (the first missed
    # by one grid step); the extended sum's magnitude test took log10 of an
    # mpf that is 0.0 as a double
    p = MLParams(alpha, -2.0 * alpha)
    res = evaluate(p, lam, t, 0)
    oracle = ml_series_deriv(p, lam, t, 0, extended=True)
    assert res.err_estimate > 0.0 and oracle.err_estimate > 0.0
    assert abs(res.value - oracle.value) <= res.err_estimate + oracle.err_estimate
    # at l >= 1 term l + 1 passes the absolute rounding of a subnormal
    # w = lambda t**alpha on times its slope, and at beta = -l alpha, where
    # term l sits on a pole of Gamma, that term is the value: the last three
    # draws missed by up to 28x the bars, in the loop and the array pass alike
    for l in (1, 2, 3):
        for beta in (-2.0 * alpha, -3.0 * alpha):
            p = MLParams(alpha, beta)
            oracle = ml_series_deriv(p, lam, t, l, extended=True)
            for res in (evaluate(p, lam, t, l), evaluate(p, np.array([lam]), t, l)):
                assert abs(res.value - oracle.value) <= res.err_estimate + oracle.err_estimate


@pytest.mark.parametrize("alpha,beta,z", [(1.0, -2.0, 1.0), (0.5, -1.0, 1.0),
                                          (0.87, -1.74, 2.0), (0.1, -0.3, 1.0)])
def test_gamma_pole_terms_do_not_end_the_sum(alpha, beta, z):
    # 1/Gamma(alpha k + beta) is 0 (or, for 0.1*3 - 0.3, a rounding residue)
    # at some k >= 2; that term must not read as convergence in either mode
    p = MLParams(alpha, beta)
    plain = ml_series(p, z)
    oracle = ml_series_deriv(p, z, 1.0, 0, extended=True)
    assert abs(plain.value - oracle.value) <= plain.err_estimate + oracle.err_estimate
    if alpha == 1.0:  # E_{1,-2}(z) = z^3 e^z
        assert oracle.value == pytest.approx(math.e, rel=1e-14)
    # w = 0 still ends the sum at once, on the exact 1/Gamma(beta)
    at_zero = ml_series(p, 0.0)
    assert at_zero.value == recip_gamma(beta) and at_zero.terms_or_panels == 3


def test_pole_term_takes_the_exact_offset_of_its_argument():
    # alpha*3 + beta is 0 in doubles, a pole of Gamma, but 5.6e-17 for the
    # exact inputs: the k = 3 term 3! * 1/Gamma(5.6e-17) = 3.3e-16 is most
    # of the value's error at this small argument unless it is kept
    p = MLParams(0.3, -3.0 * 0.3)
    z = 1e-6 * 250.0 ** 0.3
    plain = ml_series_deriv(p, z, 1.0, 3, extended=False)
    oracle = ml_series_deriv(p, z, 1.0, 3, extended=True)
    assert abs(plain.value - oracle.value) <= plain.err_estimate + oracle.err_estimate
    assert abs(plain.value - oracle.value) <= 1e-12 * abs(oracle.value)
    assert evaluate(p, z, 1.0, 3).method == "series"


def test_near_pole_term_is_priced_from_its_exact_offset():
    # alpha*1 + beta = -7 alpha = -4.0041 lies near the pole at -4, and the
    # double sum alpha + beta rounds it by 3.3e-16; 1/Gamma's slope 4! there
    # turned that into 8e-14 of the leading term, 3.3x the plain series' bar,
    # until the term took 1/Gamma by reflection from the exact offset
    alpha = 0.5720164021705664
    p = MLParams(alpha, -8.0 * alpha)
    res = evaluate(p, 1e-3, 1.0, 1)
    oracle = ml_series_deriv(p, 1e-3, 1.0, 1, extended=True)
    assert res.method == "series"
    assert abs(res.value - oracle.value) <= res.err_estimate + oracle.err_estimate


def test_exact_pole_terms_stay_zero_at_any_order():
    # 0.5 k - 5 and k - 200 are exact poles: their terms are zero, with no
    # error charged, and m! past the double range raises nothing
    res = evaluate(MLParams(0.5, -5.0), 1e-3, 1.0, 0)
    oracle = ml_series_deriv(MLParams(0.5, -5.0), 1e-3, 1.0, 0, extended=True)
    assert res.method == "series"
    assert abs(res.value - oracle.value) <= res.err_estimate + oracle.err_estimate
    # E_{1,-200}(z) = z^201 e^z
    for res in (ml_series(MLParams(1.0, -200.0), 1.0),
                evaluate(MLParams(1.0, -200.0), 1.0, 1.0, 0)):
        assert res.value == pytest.approx(math.e, rel=1e-13)
        assert abs(res.value - math.e) <= res.err_estimate
    res = ml_series(MLParams(0.5, -171.0), 1e-3)
    assert math.isfinite(abs(res.value)) and res.terms_or_panels > 342


def test_plain_series_stops_at_tol_relative_to_its_value():
    # E''(-2 * 0.1**0.7) at alpha = 0.7 is 0.033: a sum stopped at an absolute
    # 1e-12 was 8.4e-13 relative off, which the acceptance rule (tol times
    # |value|) refused, and the entry took a path integral
    p = MLParams(0.7)
    res = evaluate(p, -2.0, 0.1, 2)
    oracle = ml_series_deriv(p, -2.0, 0.1, 2, extended=True)
    assert res.method == "series"
    gap = abs(res.value - oracle.value)
    assert gap <= 1e-12 * abs(res.value)
    assert gap <= res.err_estimate + oracle.err_estimate


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


@pytest.mark.parametrize("call", [evaluate, ml_series_deriv])
def test_scalar_calls_name_a_negative_t(call):
    # as in the array call, the message names the argument and its value
    with pytest.raises(DomainError, match=r"argument t must be nonnegative, got -2\.0"):
        call(MLParams(0.6, 1.0), -1.0, -2.0, 0)


@pytest.mark.parametrize("l", [-1, 1.5, math.nan, math.inf],
                         ids=["negative", "fraction", "nan", "inf"])
@pytest.mark.parametrize("call", [
    lambda l: evaluate(MLParams(0.6, 1.0), 1.0, 1.0, l),
    lambda l: evaluate(MLParams(0.6, 1.0), 50.0, 1.0, l),
    lambda l: ml_series_deriv(MLParams(0.6, 1.0), 1.0, 1.0, l),
    lambda l: evaluate(MLParams(1.0, 1.0), 1.0, 1.0, l),
], ids=["evaluate-band", "evaluate-past-band", "ml_series_deriv", "evaluate-alpha-one"])
def test_scalar_calls_name_a_bad_order(call, l):
    # as in the array call, whatever the route: once a ValueError (nan), an
    # OverflowError (inf), or a message that read differently on the band
    with pytest.raises(DomainError, match="argument l"):
        call(l)


def test_evaluate_series_step_bypasses_the_public_wrappers(monkeypatch):
    # an in-band entry, t = 0, lambda = 0 and a complex step whose plain
    # pass is refused: the series step runs the plain pass itself, and
    # the complex step still reaches the extended series
    p = MLParams(0.5, 1.0)
    entries = [(complex(0.5, 0.3), 1.0, 1), (-1.0, 0.0, 0), (0.0, 2.0, 2),
               (complex(-2.0, 1e-150), 1.0, 0)]
    want = [ml_series_deriv(p, lam, t, l) for lam, t, l in entries]
    routes = ("series", "series", "series", "compensated-series")
    assert tuple(res.method for res in want) == routes

    def refuse(*args, **kwargs):
        raise AssertionError("public series wrapper called")

    mp_calls = []
    mp_sum = series_module._series_mp

    def counted(*args):
        mp_calls.append(args)
        return mp_sum(*args)

    monkeypatch.setattr(series_module, "ml_series_deriv", refuse)
    monkeypatch.setattr(series_module, "ml_series", refuse)
    monkeypatch.setattr(series_module, "_series_mp", counted)
    for (lam, t, l), res in zip(entries, want):
        one = evaluate(p, lam, t, l)
        assert (one.value, one.err_estimate, one.method) == \
            (res.value, res.err_estimate, res.method)
    batch = evaluate(p, *(np.array(column) for column in zip(*entries)))
    assert batch.method == routes
    assert batch.value.tolist() == [res.value for res in want]
    assert len(mp_calls) == 2


# ------------------------------------------------------------ array evaluate

@given(st.sampled_from([0.35, 0.5, 0.6, 0.8]),
       st.sampled_from([1.0, 0.6, 1.5, complex(0.7, 0.4)]),
       st.lists(st.tuples(st.floats(min_value=0.05, max_value=8.0),
                          st.floats(min_value=-math.pi, max_value=math.pi)),
                min_size=1, max_size=3),
       st.lists(st.tuples(st.floats(min_value=0.0, max_value=40.0),
                          st.integers(min_value=0, max_value=3),
                          st.integers(min_value=0, max_value=2)),
                min_size=1, max_size=12))
@settings(max_examples=15, deadline=None)
def test_array_evaluate_matches_scalar_calls(alpha, beta, lams, rows):
    # every (lambda, t, l) row takes its scalar call's route and agrees with
    # that call within both error estimates; a plain-series row at a real
    # beta is the scalar loop's result, bit for bit
    pool = [r * cmath.exp(1j * phi) for r, phi in lams]
    lam = np.array([pool[i % len(pool)] for _, _, i in rows])
    ts = np.array([t for t, _, _ in rows])
    ls = np.array([l for _, l, _ in rows])
    # keep the explicit G+ term inside the double range
    assume(((np.abs(lam) * ts ** alpha).max()) ** (1.0 / alpha) < 300.0)
    p = MLParams(alpha, beta)
    res = evaluate(p, lam, ts, ls)
    assert res.value.shape == res.err_estimate.shape == ts.shape
    assert len(res.method) == len(res.terms_or_panels) == len(ts)
    for lj, t, l, value, err, method, work in zip(lam, ts, ls, res.value, res.err_estimate,
                                                  res.method, res.terms_or_panels):
        one = evaluate(p, complex(lj), float(t), int(l))
        assert method == one.method
        assert abs(value - one.value) <= err + one.err_estimate
        if method == "series" and isinstance(beta, float):
            assert (value, err, work) == (one.value, one.err_estimate, one.terms_or_panels)


@pytest.mark.parametrize("alpha, beta", [(0.7, 1.0), (0.5720164021705664, -8 * 0.5720164021705664),
                                         (0.5, -2.5), (1.0, -3.0), (0.6, complex(0.7, 0.4))])
def test_array_plain_pass_is_the_scalar_loop(alpha, beta):
    # the array pass sums every in-band entry over one coefficient table;
    # at a real beta (negative ones too, with their reflected terms) each
    # entry is the scalar loop's value, bar and term count, bit for bit, and
    # a complex beta agrees within both bars
    p = MLParams(alpha, beta)
    # the last entry's value is below 1, where the sum stops at tol times
    # |value| and so reaches the series' acceptance rule
    lam = np.append(np.repeat([-2.0, 0.5 + 1.5j, 3.0, -0.7j, 1e-3], 3), -0.5)
    ts = np.append(np.repeat([0.3, 1.0, 0.2, 2.0, 1.0], 3), 0.02)
    ls = np.append(np.tile([0, 1, 2], 5), 2)
    res = evaluate(p, lam, ts, ls)
    assert "series" in res.method
    assert res.method[-1] == "series" and abs(res.value[-1]) < 1.0
    for lj, t, l, value, err, method, work in zip(lam, ts, ls, res.value, res.err_estimate,
                                                  res.method, res.terms_or_panels):
        one = evaluate(p, complex(lj), float(t), int(l))
        assert method == one.method
        if method == "series" and isinstance(beta, float):
            assert (value, err, work) == (one.value, one.err_estimate, one.terms_or_panels)
        else:
            assert abs(value - one.value) <= err + one.err_estimate


def test_array_evaluate_broadcasts_one_time_against_orders():
    p = MLParams(0.6, 1.0)
    # |z| = 4.6: past the series band, too close in for the expansion
    res = evaluate(p, -2.0, 4.0, [0, 1, 2])
    assert res.method == ("contour",) * 3
    res = evaluate(p, -0.5, [0.0, 1.0], 1)
    assert res.method == ("series", "series")
    assert res.value[0] == 0.0


def test_array_evaluate_splits_a_batch_no_one_path_clears(monkeypatch):
    # on the positive axis |z| = 0.5, 1 and 2 each block the circle of that
    # radius, so no single path clears the three; with every plain series
    # refused all nine entries go to the path route in one call
    alpha = 0.6
    p = MLParams(alpha, 1.0)
    ts = np.repeat(np.array([0.5, 1.0, 2.0]) ** (1.0 / alpha), 3)
    ls = np.tile([0, 1, 2], 3)
    assert next(admissible_specs(alpha, ts ** alpha), None) is None
    monkeypatch.setattr(series_module, "_kept", lambda plain, tol: None)
    res = evaluate(p, 1.0, ts, ls)
    assert res.method == ("contour",) * len(ts)
    for t, l, value, err in zip(ts, ls, res.value, res.err_estimate):
        one = evaluate(p, 1.0, float(t), int(l))
        assert one.method == "contour"
        assert abs(value - one.value) <= err + one.err_estimate


@pytest.mark.parametrize("t, l, message", [
    ([], 0, "argument t must be a number or a nonempty 1-D array"),
    ([[1.0, 2.0]], 0, "argument t must be a number or a nonempty 1-D array"),
    ([1.0, math.nan], 0, "argument t must be finite"),
    ([1.0, math.inf], 0, "argument t must be finite"),
    ([1.0, -2.0], 0, "argument t must be nonnegative"),
    ([1.0, 2.0], [0, -1], "argument l must hold nonnegative integers"),
    ([1.0, 2.0], [0, 1.5], "argument l must hold nonnegative integers"),
    (1.0, [0, math.nan], "argument l must be finite"),
    (1.0, [], "argument l must be a number or a nonempty 1-D array"),
    (1.0, [[0, 1]], "argument l must be a number or a nonempty 1-D array"),
    ([1.0, 2.0], [0, 1, 2], "arguments t and l must broadcast together"),
], ids=["t-empty", "t-2d", "t-nan", "t-inf", "t-negative", "l-negative",
        "l-fraction", "l-nan", "l-empty", "l-2d", "mismatch"])
def test_array_evaluate_rejects_bad_arguments_by_name(t, l, message):
    with pytest.raises(DomainError, match=message):
        evaluate(MLParams(0.6, 1.0), -1.0, t, l)


# --------------------------------------------------------- expansion route

@given(st.one_of(st.floats(min_value=0.3, max_value=1.0), st.just(1.0)),
       st.sampled_from(["alpha", "1", "1.5", "2.5", "0.7+0.4i"]),
       st.integers(min_value=0, max_value=3),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=-math.pi, max_value=math.pi))
@settings(max_examples=30, deadline=None)
def test_expansion_route_error_bar_covers_the_oracle(alpha, beta_kind, l, frac, phi):
    # |z| log-uniform from the series band's edge to 60, capped where
    # |z|**(1/alpha) = 250 keeps the oracle's series affordable
    beta = {"alpha": alpha, "1": 1.0, "1.5": 1.5, "2.5": 2.5,
            "0.7+0.4i": complex(0.7, 0.4)}[beta_kind]
    assume(not (alpha == 1.0 and beta == 1.0))
    lo, hi = math.log(min(4.0, 200.0 ** alpha)), math.log(min(60.0, 250.0 ** alpha))
    assume(lo < hi)
    z = cmath.rect(math.exp(lo + frac * (hi - lo)), phi)
    p = MLParams(alpha, beta)
    res = evaluate(p, z, 1.0, l)
    if res.method == "asymptotic":
        oracle = ml_series_deriv(p, z, 1.0, l, extended=True)
        assert abs(res.value - oracle.value) <= res.err_estimate + oracle.err_estimate


def test_expansion_route_refuses_a_tolerance_out_of_its_reach():
    # E_{1/2,1}(-30) = erfcx(30): the expansion certifies about 3e-13
    # relative, so a tolerance of 1e-15 sends the argument to the path
    p = MLParams(0.5, 1.0)
    assert ml_eval(p, -30.0).method == "asymptotic"
    res = ml_eval(p, -30.0, EvalControls(tol=1e-15))
    assert res.method == "contour"
    assert res.value.real == pytest.approx(sp.erfcx(30.0), rel=1e-9)


@pytest.mark.parametrize("alpha, beta, lam, t, l", [
    (0.5, 1.0, -2.0, 12.0, 1),
    (0.5, 1.0, -2.0, 12.0, 2),
    (0.5, 0.5, -2.0, 12.0, 2),
    (0.7, 1.0, -1.0, 40.0, 2),
    (0.7, 1.0, cmath.exp(0.8j * math.pi), 40.0, 2),
])
def test_expansion_route_takes_derivatives_its_remainder_bound_certifies(alpha, beta, lam,
                                                                         t, l):
    # derivative entries whose remainder bound meets tol only in the
    # product-rule form, which is tighter than a Cauchy estimate on a disk
    p = MLParams(alpha, beta)
    res = evaluate(p, lam, t, l)
    assert res.method == "asymptotic"
    oracle = ml_series_deriv(p, lam, t, l, extended=True)
    assert abs(res.value - oracle.value) <= res.err_estimate + oracle.err_estimate


def test_expansion_keeps_a_g_plus_entry_whose_explicit_term_sets_the_bar():
    # an eval-mix draw: the explicit G+ term's own rounding bar (about 2.5e-11
    # relative) exceeds tol, and the path route would carry it as well, so
    # only the expansion's own bar is held to tol
    alpha, beta, z = 0.4375, 1.5, complex(26.558530228347394, 20.977759044428975)
    p = MLParams(alpha, beta)
    res = ml_eval(p, z)
    assert res.method == "asymptotic"
    assert res.err_estimate > 1e-12 * abs(res.value)
    second = list(admissible_specs(alpha, z))[1]
    path = ml_contour(p, z, spec=second)
    assert abs(res.value - path.value) <= res.err_estimate + path.err_estimate


def test_array_evaluate_mixes_series_expansion_and_path_entries():
    # |z| = 1.3, 4.6, 15.4 and 31.6: series, path, expansion, expansion
    p = MLParams(0.6, 1.5)
    ts = np.array([0.5, 4.0, 30.0, 100.0, 30.0])
    ls = np.array([0, 1, 0, 2, 3])
    res = evaluate(p, -2.0 + 0.5j, ts, ls)
    assert set(res.method) == {"series", "asymptotic", "contour"}
    for t, l, value, err, method in zip(ts, ls, res.value, res.err_estimate, res.method):
        one = evaluate(p, -2.0 + 0.5j, float(t), int(l))
        assert method == one.method
        assert abs(value - one.value) <= err + one.err_estimate


@pytest.mark.parametrize("beta, z", [(2.7, -300.0), (1.5, complex(-40.0, 10.0)),
                                     (0.5, 30j), (2.0, -50.0)])
def test_alpha_one_expansion_matches_the_extended_series(beta, z):
    # at alpha = 1 the expansion comes before the extended series
    p = MLParams(1.0, beta)
    res = evaluate(p, z, 1.0, 0)
    assert res.method == "asymptotic"
    oracle = ml_series_deriv(p, z, 1.0, 0, extended=True)
    assert abs(res.value - oracle.value) <= res.err_estimate + oracle.err_estimate


def test_alpha_one_past_the_series_range_takes_the_expansion():
    # E_{1,2}(z) = (e^z - 1)/z; past |z| = 600 this once raised
    res = evaluate(MLParams(1.0, 2.0), -700.0, 1.0, 0)
    assert res.method == "asymptotic"
    assert res.value.imag == 0.0  # a real z gives a real value
    assert abs(res.value.real - (1.0 - math.exp(-700.0)) / 700.0) <= res.err_estimate
    # an explicit term e^z past the double range still fails loudly
    with pytest.raises(EvaluationError):
        evaluate(MLParams(1.0, 2.0), 1000.0, 1.0, 0)


def test_eval_result_is_lean():
    res = ml_eval(MLParams(0.6, 1.0), -4.5)
    assert res.method == "contour"
    assert type(res.value) is complex and type(res.err_estimate) is float
    assert not hasattr(res, "__dict__")
