"""Power-series evaluation of the two-parameter function E_{alpha,beta}.

The defining series

    E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha*k + beta)

converges everywhere, but for arguments away from the positive axis the
partial sums cancel violently: the largest term grows like exp(|z|**(1/alpha))
while the value itself may be O(1/|z|).  Two evaluation modes and one
router deal with this:

* plain mode ("series"): double precision with Neumaier-compensated
  accumulation.  The reported error estimate carries the cancellation
  penalty (largest term) * eps, so a caller can see when the mode ran out
  of headroom.  A term whose Gamma argument alpha*k + beta < 1/2 was
  rounded (a real beta < 0) takes 1/Gamma by reflection from the exact
  offset of that argument.  A scalar call sums in a Python loop
  (``_series_float``); an array call sums all its entries in one numpy
  pass over a z-independent table of k!/(k-l)! and 1/Gamma(alpha k + beta)
  (``_plain_many``), with the loop's terms, compensation, stopping rule
  and bar.
* extended mode ("compensated-series"): the same series summed in adaptive
  multi-precision sized from a cheap log-magnitude scan of the terms.  This
  is the oracle-grade mode the tests check the other routes against;
  ``evaluate`` takes it only for a complex-step argument (below).
* ``evaluate`` is the one place that picks the route of a value, and it
  takes one (lambda, t, l) entry or 1-D arrays of them, each entry routed
  as alone.
  With z = lambda t**alpha it sums the series while |z| <= min(4, 200**alpha)
  (|z| <= 600 at alpha = 1) and keeps the plain pass when its error
  estimate meets the tolerance.  An entry the series declines tries the
  expansion at infinity ("asymptotic", in ``contour``), kept when its
  certified remainder and rounding bar meet the tolerance; the entries of
  an array try it in one vectorized pass.  What is left takes the contour
  representation, which never cancels, at every alpha; arguments whose
  imaginary part is below the other routes' resolution keep the extended
  mode on the band.  The series entries of an array share one numpy pass,
  and its path entries one batched path integral.  E_{1,1-m}(z) =
  z**m exp(z), exp itself at m = 0, is taken in closed form.  ``ml_eval``
  is its underived case at t = 1.

``ml_series_deriv`` sums the lambda-derivative series

    d^l/d lambda^l E_{alpha,beta}(lambda t^alpha)
        = sum_{k>=l} k!/(k-l)! lambda^(k-l) t^(alpha k) / Gamma(alpha k + beta)

with the same machinery: ``evaluate`` validates its arguments once and runs
the plain pass (``_plain_pass``) itself, and ``ml_series_deriv`` is a
validated wrapper over that pass and the extended series.
"""

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.special import loggamma, rgamma

from .numcore import (
    DomainError,
    QuadratureControls,
    recip_gamma,
    require_finite,
    require_grid,
    require_orders,
)

__all__ = [
    "MLParams",
    "EvalResult",
    "EvalControls",
    "SeriesConvergenceError",
    "EvaluationError",
    "ml_series",
    "ml_series_deriv",
    "evaluate",
    "ml_eval",
]

_EPS = math.ulp(1.0)
_LN10 = math.log(10.0)
_MAX_TERMS = 10000  # term budget of the plain double-precision pass
# below 2**-1022 doubles lie on a fixed grid of 2**-1074, so a rounding there
# is absolute; the plain pass charges each term 4 grid steps, since its
# relative bar underflows with the terms
_SUBNORMAL_FLOOR = 2.0 ** -1072
_NORMAL_MIN = 2.0 ** -1022
# a subnormal w is off by up to 2**-1075 in each part, |dw| <= 2**-1074.5,
# which term l + 1 passes on times its slope perm_{l+1} t^(alpha l) /
# Gamma(alpha (l + 1) + beta); twice that covers the charge's own rounding
_W_ROUNDING = 2.0 ** -1073


class SeriesConvergenceError(RuntimeError):
    """Series did not converge within the term budget."""

    def __init__(self, message: str, value: complex, err_estimate: float):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


class EvaluationError(RuntimeError):
    """No evaluation route is available for the requested argument."""


@dataclass(frozen=True)
class MLParams:
    """Parameter pair (alpha, beta) with 0 < alpha <= 1."""

    alpha: float
    beta: complex = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0) or not math.isfinite(self.alpha):
            raise DomainError("alpha must lie in (0, 1]")
        b = complex(self.beta)
        if not (math.isfinite(b.real) and math.isfinite(b.imag)):
            raise DomainError("beta must be finite")
        object.__setattr__(self, "beta", b)


@dataclass(frozen=True, slots=True)
class EvalResult:
    """A value with its error bar, the route that produced it and the work
    it took.  An array call of ``evaluate`` gives arrays of values and
    bars, and tuples of routes and work counts, one per entry."""

    value: complex
    err_estimate: float
    # "series" | "asymptotic" (expansion at infinity; counts its terms) |
    # "contour" (counts integrand calls: one per seed call and one per
    # refinement sweep of each path piece) | "compensated-series" (extended
    # mode: only for sub-resolution imaginary parts, or when forced)
    method: str
    terms_or_panels: int


@dataclass(frozen=True)
class EvalControls:
    """Settings for ``evaluate``: the relative accuracy a series result must
    reach, and the quadrature settings of the contour route."""

    tol: float = 1e-12
    quad: QuadratureControls = field(default_factory=QuadratureControls)

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise DomainError("tol must lie in (0, 1)")


_DEFAULT_CONTROLS = EvalControls()


# --------------------------------------------------------------------------
# plain double-precision mode

def _pole_terms(alpha: float, beta: complex, l: int, n: int) -> list[int]:
    """The k in [l, l + n) at which alpha*k + beta is a pole of Gamma, a
    nonpositive integer up to the rounding of alpha*k, where the term is 0
    (``_reflected_term``).  Poles need a real beta."""
    if beta.imag != 0.0:
        return []
    k_end = int(min(l + n, (1.0 - beta.real) / alpha))  # past every pole
    return [k for k in range(l, k_end) if (x := alpha * k + beta.real) < 0.5
            and abs(math.remainder(x, 1.0)) <= 64.0 * _EPS * (1.0 + alpha * k)]


def _reflected_term(coef, alpha: float, beta: float, k: int):
    """coef / Gamma(x) at x = alpha*k + beta below 1/2, for a real negative
    beta.  When the double alpha*k + beta rounds x, 1/Gamma's slope (about
    m! near the pole -m) would amplify that rounding; so x is written
    -m + r with r in [-1/2, 1/2] exact for the double inputs, and

        1/Gamma(x) = (-1)^m sin(pi r) Gamma(1 + m - r) / pi

    gives the value, 0.0 at a pole (r = 0).  Past m = 170, where
    Gamma(1 + m - r) leaves the double range, the product is taken in log
    space, and a term beyond the double range gives inf.  An argument the
    double sum holds exactly keeps scipy's 1/Gamma, as the other terms do."""
    x = Fraction(alpha) * k + Fraction(beta)
    if x == alpha * k + beta:
        return coef * float(rgamma(float(x)))
    m = -round(x)
    r = float(x + m)
    if r == 0.0 or coef == 0:
        return 0.0
    sine = math.sin(math.pi * r) / math.pi * (-1) ** m
    if m < 170:
        return coef * (sine * math.gamma(1.0 + m - r))
    log_mag = math.log(abs(coef)) + math.log(abs(sine)) + math.lgamma(1.0 + m - r)
    mag = math.exp(log_mag) if log_mag < 709.0 else math.inf
    return coef / abs(coef) * math.copysign(mag, sine)


def _reflected_until(alpha: float, beta: complex) -> int:
    """The first k from which alpha*k + beta >= 1/2: the terms before it
    take ``_reflected_term``.  0 unless beta is real and negative."""
    if beta.imag != 0.0 or beta.real >= 0.0:
        return 0
    return math.ceil((0.5 - beta.real) / alpha)


def _series_float(p: MLParams, t_alpha_l: float, w: complex, l: int, tol: float):
    """Sum the (derivative) series in doubles with Neumaier compensation.

    Terms are perm(k) * t^(alpha l) * w^(k-l) * recip_gamma(alpha k + beta)
    with w = lambda * t**alpha; l = 0 reduces to the plain series in w.
    The sum stops once the term and its geometric tail bound both drop
    below max(tol * |partial sum|, 100 eps * sum |term|): the first scale
    is the one ``_kept`` holds the bar to, and the second the
    rounding floor the error estimate already carries, so a cancelling sum
    stops there instead of running into overflow.  The estimate adds
    _SUBNORMAL_FLOOR per term for terms below the normal range, and for a
    subnormal w the rounding of w itself, which term l + 1 passes on.
    A zero term at a pole of Gamma is not convergence: unless w = 0, the
    sum runs at least two terms past the last pole.  For a real negative
    beta every term whose argument alpha*k + beta lies below 1/2 takes
    1/Gamma from the exact offset of that argument (``_reflected_term``),
    which the rounded argument loses near a pole; a beta >= 0 has no such
    term.  ``_plain_many`` is the same pass over many entries at once.
    Returns (value, err_estimate, n_terms) or raises SeriesConvergenceError.
    """
    alpha, beta = p.alpha, p.beta
    poles = _pole_terms(alpha, beta, l, _MAX_TERMS) if w != 0 else []
    first_stop = max(l + 2, poles[-1] + 2) if poles else l + 2
    k_reflect = _reflected_until(alpha, beta) if beta.real < 0.0 else 0
    w_err = 0.0
    if 0.0 < abs(w) < _NORMAL_MIN:
        k = l + 1
        recip = _reflected_term(1.0, alpha, beta.real, k) if k < k_reflect \
            else recip_gamma(alpha * k + beta)
        w_err = abs(math.factorial(k) * t_alpha_l * recip) * _W_ROUNDING
    s_re = c_re = s_im = c_im = 0.0
    perm = float(math.factorial(l))
    pw = complex(t_alpha_l)  # perm * pw accumulates the non-gamma factor
    abs_sum = 0.0
    prev_mag = math.inf
    tail = math.inf
    n = 0
    for k in range(l, l + _MAX_TERMS):
        if k < k_reflect:
            term = _reflected_term(perm * pw, alpha, beta.real, k)
        else:
            term = perm * pw * recip_gamma(alpha * k + beta)
        mag = abs(term)
        if not math.isfinite(mag):
            raise SeriesConvergenceError(
                "series term overflowed double precision",
                value=complex(s_re + c_re, s_im + c_im),
                err_estimate=math.inf,
            )
        abs_sum += mag
        x = term.real
        tmp = s_re + x
        c_re += (s_re - tmp) + x if abs(s_re) >= abs(x) else (x - tmp) + s_re
        s_re = tmp
        y = term.imag
        tmp = s_im + y
        c_im += (s_im - tmp) + y if abs(s_im) >= abs(y) else (y - tmp) + s_im
        s_im = tmp
        n += 1
        ratio = mag / prev_mag if prev_mag > 0.0 else 0.0
        prev_mag = mag if mag > 0.0 else prev_mag
        value = complex(s_re + c_re, s_im + c_im)
        target = max(tol * abs(value), 100.0 * _EPS * abs_sum)
        if ratio < 1.0:
            tail = mag * ratio / (1.0 - ratio) if ratio > 0.0 else 0.0
            if mag <= target and tail <= target and k >= first_stop:
                # per-term gamma rounding accumulates over the whole sum of
                # magnitudes; this also covers the cancellation penalty
                err = abs_sum * 100.0 * _EPS + tail + n * _SUBNORMAL_FLOOR + w_err
                return value, err, n
        perm *= (k + 1.0) / (k + 1.0 - l)
        pw *= w
    raise SeriesConvergenceError(
        f"series did not converge within {_MAX_TERMS} terms",
        value=complex(s_re + c_re, s_im + c_im),
        err_estimate=abs_sum * 100.0 * _EPS + (tail if math.isfinite(tail) else abs_sum),
    )


# the coefficient table of ``_plain_many`` runs until the terms at the
# largest |w| of the call fall e^-40 below their peak, past the rounding
# floor 100 eps (about e^-31.4) of the stopping rule
_TABLE_DROP = 40.0
# one pass of ``_plain_many`` takes its entries in chunks of at most this
# many table cells, which bounds its memory at a few MB
_PASS_CELLS = 1 << 16


def _table_size(alpha: float, beta: complex, l: int, w_max: float) -> int:
    """An index i past the peak of the order-l terms
    |k!/(k-l)! w^i / Gamma(alpha k + beta)|, k = l + i, at |w| = w_max at
    which they have fallen e^-40 below it (at most _MAX_TERMS).

    The terms peak where alpha k + beta is about |w|^(1/alpha); the
    log-terms are concave in i from alpha k + beta >= 1/2 on, with a
    curvature of about alpha/k at the peak, so the fall first takes
    sqrt(80 k/alpha) terms, lengthened by half until it holds.  Terms before
    the concave part count toward the peak."""
    log_w = math.log(w_max)

    def log_term(i: int) -> float:
        x = alpha * (l + i) + beta
        try:
            log_gamma = math.lgamma(x.real) if beta.imag == 0.0 else float(loggamma(x).real)
        except ValueError:  # a pole of Gamma: the term is 0
            return -math.inf
        return math.lgamma(l + i + 1.0) - math.lgamma(i + 1.0) + i * log_w - log_gamma

    start = max(0, _reflected_until(alpha, beta) - l)
    peak = max(start, round(min((w_max ** (1.0 / alpha) - beta.real) / alpha, _MAX_TERMS)) - l)
    top = max(log_term(i) for i in [*range(start), peak, peak + 1, max(start, peak - 1)])
    step = math.ceil(math.sqrt(80.0 * (peak + l + 1.0) / alpha))
    while peak + step < _MAX_TERMS and log_term(peak + step) >= top - _TABLE_DROP:
        step = math.ceil(1.5 * step)
    return min(peak + step, _MAX_TERMS)


def _series_table(alpha: float, beta: complex, l_max: int, w_max: float):
    """The z-independent factors of the plain pass for the orders
    l = 0..l_max: perm_k = k!/(k-l)!, with the rounding of
    ``_series_float``'s recurrence, and 1/Gamma(alpha k + beta), both at
    k = l + i, one row per order; and where each order may stop (from two
    past its last pole).

    The length is ``_table_size`` at the highest order, whose terms fall
    slowest.  A term of an entry with a smaller |w| is smaller relative to
    its own peak, so every entry's sum stops within the table unless tol
    is out of its reach."""
    k_reflect = _reflected_until(alpha, beta)
    first_stop = [max(2, poles[-1] + 2 - l) if (poles := _pole_terms(
        alpha, beta, l, _MAX_TERMS)) else 2 for l in range(l_max + 1)]
    size = min(max(_table_size(alpha, beta, l_max, w_max), *first_stop) + 1, _MAX_TERMS)
    orders = np.arange(l_max + 1)[:, None]
    k = orders + np.arange(size)
    ratios = np.empty(k.shape)
    ratios[:, 0] = [math.factorial(l) for l in range(l_max + 1)]
    ratios[:, 1:] = (k[:, :-1] + 1.0) / (k[:, 1:] - orders)
    recip = rgamma(alpha * k + (beta.real if beta.imag == 0.0 else beta))
    for l, i in zip(*np.nonzero(k < k_reflect)):
        recip[l, i] = _reflected_term(1.0, alpha, beta.real, int(k[l, i]))
    may_stop = np.arange(size) >= np.array(first_stop)[:, None]
    return np.cumprod(ratios, axis=1), recip, may_stop


def _plain_many(p: MLParams, w: np.ndarray, t_alpha_l: np.ndarray, l: np.ndarray,
                tol: float):
    """``_series_float`` on every entry j (w_j != 0) at once, from one
    ``_series_table`` sized from the largest |w_j|: the same terms, each
    entry's running sum compensated exactly as the loop compensates it (the
    rounding error of every step of a cumulative sum, recovered by
    TwoSum), the same stopping rule and the same bar.  For a real beta the
    results are the loop's, bit for bit.

    Returns (value, err, n_terms, undecided).  ``err`` is not finite for
    an entry whose pass raises in the loop (a term beyond the double range
    before the sum stops); ``undecided`` marks the entries whose sum does
    not stop within the table, which the caller hands to the loop."""
    with np.errstate(all="ignore"):
        table = _series_table(p.alpha, p.beta, int(l.max()), float(np.abs(w).max()))
        step = _PASS_CELLS // table[0].shape[1] + 1
        if step >= w.size:
            return _plain_sums(table, w, t_alpha_l, l, tol)
        parts = [_plain_sums(table, w[j:j + step], t_alpha_l[j:j + step], l[j:j + step], tol)
                 for j in range(0, w.size, step)]
    return tuple(np.concatenate(part) for part in zip(*parts))


def _plain_sums(table, w: np.ndarray, t_alpha_l: np.ndarray, l: np.ndarray, tol: float):
    """One chunk of ``_plain_many``."""
    perm, recip, may_stop = table
    size = perm.shape[1]
    rows = np.arange(w.size)
    pw = np.empty((w.size, size), dtype=complex)
    pw[:, 0] = t_alpha_l
    pw[:, 1:] = w[:, None]
    np.cumprod(pw, axis=1, out=pw)
    terms = perm[l] * pw * recip[l]
    mags = np.hypot(terms.real, terms.imag)  # as abs() of a Python complex
    partial = np.cumsum(terms, axis=1)
    before = np.zeros_like(partial)
    before[:, 1:] = partial[:, :-1]
    # TwoSum: the exact rounding error of each step of the cumulative sum
    added = partial - before
    value = partial + np.cumsum((before - (partial - added)) + (terms - added), axis=1)
    abs_sum = np.cumsum(mags, axis=1)
    # each term against the one before; the loop takes the last nonzero one,
    # which differs only right after a zero term, where it stopped already
    # or may not stop yet (a pole)
    ratio = np.zeros_like(mags)
    np.divide(mags[:, 1:], mags[:, :-1], out=ratio[:, 1:])
    tail = mags * ratio / (1.0 - ratio)
    target = np.maximum(tol * np.hypot(value.real, value.imag), 100.0 * _EPS * abs_sum)
    stop = (ratio < 1.0) & (mags <= target) & (tail <= target) & may_stop[l]
    at = stop.argmax(axis=1)
    stops = stop[rows, at]
    at[~stops] = size - 1
    # a term beyond the double range makes every later abs_sum inf or NaN
    total = abs_sum[rows, at]
    err = total * 100.0 * _EPS + tail[rows, at] + (at + 1) * _SUBNORMAL_FLOOR
    sub = np.nonzero(np.hypot(w.real, w.imag) < _NORMAL_MIN)[0]  # w != 0 here
    err[sub] += np.abs(perm[l[sub], 1] * t_alpha_l[sub] * recip[l[sub], 1]) * _W_ROUNDING
    return value[rows, at], err, at + 1, ~stops & np.isfinite(total)


# --------------------------------------------------------------------------
# extended-precision mode

def _term_log10_profile(p: MLParams, lam: complex, t: float, l: int):
    """log10 |term_k| scanned in floats, -inf at a pole of Gamma; returns
    (k values, profile array, pole mask)."""
    alpha, beta = p.alpha, p.beta
    log_lam = math.log(abs(lam)) if lam != 0 else -math.inf
    log_t = math.log(t) if t > 0.0 else -math.inf
    n = 256
    while True:
        k = np.arange(l, l + n, dtype=float)
        pole = np.isin(k, _pole_terms(alpha, beta, l, n))
        prof = (  # loggamma is NaN at a pole: take it at 1 there
            loggamma(k + 1.0).real
            - loggamma(k - l + 1.0).real
            + (k - l) * log_lam
            + alpha * k * log_t
            - loggamma(np.where(pole, 1.0, alpha * k + beta)).real
        ) / _LN10
        prof[pole] = -math.inf
        # extend until the tail drops below every summation cutoff the
        # retry loop may use (cutoff >= max_log10 - dps - 10 >= -130)
        if prof[-1] < -130.0 and not pole[-1]:
            return k, prof, pole
        if n >= 1 << 18:
            raise SeriesConvergenceError(
                "term profile does not decay within the scan budget", 0j, math.inf)
        n *= 2


def _series_mp(p: MLParams, lam: complex, t: float, l: int):
    """Extended-precision sum of the (derivative) series.

    Working precision is sized from the scanned term profile so that the
    largest term carries ~25 guard digits past the final rounding; one
    retry widens the precision if the result turns out far smaller than
    the a-priori floor assumed.  Needs lam != 0 and t > 0; its callers
    leave those entries to ``_plain_pass``'s closed forms.
    """
    alpha, beta = p.alpha, p.beta
    k_grid, prof, pole = _term_log10_profile(p, lam, t, l)
    max_log10 = float(prof.max())
    peak_at = int(np.argmax(prof))

    extra = 30
    for _ in range(3):
        dps = max(30, int(math.ceil(max(0.0, max_log10))) + extra)
        cutoff = max_log10 - dps - 10
        # a pole term is zero but does not end the sum
        past_peak = np.nonzero((prof[peak_at:] < cutoff) & ~pole[peak_at:])[0]
        if not past_peak.size:
            raise SeriesConvergenceError(
                "term profile does not decay within the scan budget", 0j, math.inf)
        k_end = int(k_grid[peak_at + past_peak[0]])
        with mp.workdps(dps):
            a_mp = mp.mpf(alpha)
            b_mp = mp.mpc(beta)
            w = mp.mpc(lam) * mp.power(mp.mpf(t), a_mp)
            perm = mp.mpf(math.factorial(l))
            pw = mp.power(mp.mpf(t), a_mp * l)
            acc = mp.mpc(0)
            n = 0
            for k in range(l, k_end + 1):
                acc += perm * pw * mp.rgamma(a_mp * k + b_mp)
                perm *= mp.mpf(k + 1) / (k + 1 - l)
                pw *= w
                n += 1
            value = complex(acc)
            acc_mag = abs(acc)
        # the sum should clear the rounding floor of the largest term by a
        # wide margin; if not, the cancellation was deeper than assumed
        # (mp.log10: a sum below the double range is no zero)
        if acc_mag == 0.0 or mp.log10(acc_mag) > max_log10 - dps + 20:
            break
        extra += 40
    # the rounding to a double is absolute, up to 2**-1075, below its normal range
    return value, abs(value) * 4.0 * _EPS + 10.0 ** (max_log10 - dps) + 2.0 ** -1074, n


# --------------------------------------------------------------------------
# public evaluators

def _require_tol(tol: float) -> None:
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")


def ml_series(p: MLParams, z: complex, tol: float = 1e-12) -> EvalResult:
    """Plain-mode series value of E_{alpha,beta}(z).

    The stopping rule requires both the current term and a geometric tail
    bound to drop below tol relative to |partial sum|, or below the rounding
    floor 100 eps * sum |term|.  The error estimate includes the
    cancellation penalty (largest term) * eps.
    """
    require_finite("z", z)
    _require_tol(tol)
    value, err, n = _series_float(p, 1.0, complex(z), 0, tol)
    return EvalResult(value, err, "series", n)


def _series_extended(p: MLParams, lam: complex, t: float, l: int) -> EvalResult:
    value, err, n = _series_mp(p, lam, t, l)
    return EvalResult(value, err, "compensated-series", n)


def _plain_pass(p: MLParams, lam: complex, t: float, l: int, tol: float) -> EvalResult:
    """The plain pass on validated arguments: the one term left at t = 0 or
    lambda = 0 in closed form, else ``_series_float`` (which may raise)."""
    if t == 0.0:
        # E(lambda * 0) is constant in lambda
        value = complex(recip_gamma(p.beta)) if l == 0 else 0j
        return EvalResult(value, abs(value) * _EPS, "series", 1)
    if lam == 0:
        # only the k = l series term survives at lambda = 0
        value = (math.factorial(l) * t ** (p.alpha * l)
                 * complex(recip_gamma(p.alpha * l + p.beta)))
        return EvalResult(value, abs(value) * 4.0 * _EPS, "series", 1)
    value, err, n = _series_float(p, t ** (p.alpha * l), lam * t ** p.alpha, l, tol)
    return EvalResult(value, err, "series", n)


def _kept(plain: EvalResult, tol: float) -> EvalResult | None:
    """``plain`` if its own error estimate meets tol relative to its value,
    else None.  Cancellation leaves a near-zero value with an
    absolute-scale error, which this rule refuses."""
    if math.isfinite(plain.err_estimate) and \
            plain.err_estimate <= tol * max(abs(plain.value), 1e-290):
        return plain
    return None


def _accepted_plain(p: MLParams, lam: complex, t: float, l: int,
                    tol: float) -> EvalResult | None:
    """``_plain_pass`` if it converges and ``_kept`` keeps it, else None."""
    try:
        return _kept(_plain_pass(p, lam, t, l, tol), tol)
    except SeriesConvergenceError:
        return None


def ml_series_deriv(p: MLParams, lam: complex, t: float, l: int,
                    tol: float = 1e-12, extended: bool | None = None) -> EvalResult:
    """l-th lambda-derivative of E_{alpha,beta}(lambda * t**alpha).

    ``extended=None`` keeps the plain pass only if its error estimate meets
    tol relative to the value, and else sums in extended precision;
    True/False force the mode; at t = 0 or lambda = 0 every mode gives the
    one term left in closed form.
    """
    l = require_orders("l", l)
    require_finite("lam", lam)
    require_finite("t", t)
    if t < 0.0:
        raise DomainError(f"argument t must be nonnegative, got {t!r}")
    _require_tol(tol)
    lam = complex(lam)
    if extended is False or t == 0.0 or lam == 0:
        return _plain_pass(p, lam, t, l, tol)
    plain = None if extended else _accepted_plain(p, lam, t, l, tol)
    return plain if plain is not None else _series_extended(p, lam, t, l)


def evaluate(p: MLParams, lam: complex | np.ndarray, t: float | np.ndarray,
             l: int | np.ndarray, controls: EvalControls | None = None) -> EvalResult:
    """l-th lambda-derivative of E_{alpha,beta}(lambda * t**alpha), by the
    route this package picks for every value.

    With z = lambda * t**alpha the routes are tried in this order:

    1. At alpha = 1 and beta = 1 - m, m = 0, 1, ..., 100, the closed form
       E_{1,1-m}(z) = z**m exp(z) (``_exp_closed_form``), which raises
       EvaluationError only where it overflows.  At m > 0 an exp(z) below
       the normal range passes the entry on.
    2. The plain series pass on the series band, |z| <= min(4, 200**alpha)
       at alpha < 1 and |z| <= 600 at alpha = 1, kept when its error
       estimate meets ``controls.tol`` relative to the value (the closed
       forms at t = 0 and lambda = 0 always do).  A z whose nonzero
       imaginary part is at most ``controls.quad.rel_tol * |z|`` takes the
       extended series on the band when the plain pass is refused: the
       other routes lose such an imaginary part, which a complex-step
       derivative needs.
    3. The expansion at infinity ("asymptotic"), kept when its error bar
       without the explicit G+ term's rounding, the certified remainder
       included, meets ``controls.tol`` relative to the value (the path
       route would carry that rounding too).
    4. The contour representation (``ml_contour_deriv``), which never
       cancels; at alpha = 1 its path is Hankel's loop.  Its explicit G+
       term raises EvaluationError where it leaves the double range.

    ``lam``, ``t`` and ``l`` may also be 1-D arrays, broadcast together.
    Each entry then takes the route its scalar call takes, and each route
    makes one pass for all its entries: the plain series of every in-band
    entry is summed in one numpy pass over a z-independent coefficient
    table (``_plain_many``, the loop's terms, bar and acceptance rule), the
    entries that reach step 3 share one vectorized pass, and every entry
    bound for the path route goes into one ``ml_contour_deriv`` call.  The
    result holds arrays of values and error estimates and tuples of
    per-entry routes and work counts (a path entry counts the integrand
    calls of the batch).
    """
    controls = controls or _DEFAULT_CONTROLS
    if _is_array(t) or _is_array(l) or _is_array(lam):
        return _evaluate_many(p, lam, t, l, controls)
    require_finite("lam", lam)
    require_finite("t", t)
    if t < 0.0:
        raise DomainError(f"argument t must be nonnegative, got {t!r}")
    l = require_orders("l", l)
    lam = complex(lam)
    res = _series_route(p, lam, t, l, controls)
    if res is not None:
        return res
    # deferred: contour builds on this module
    from .contour import _expansion_route, ml_contour_deriv

    res = _expansion_route(p, lam, np.array([float(t)]), np.array([l]), controls.tol)[0]
    return res if res is not None else ml_contour_deriv(p, lam, t, l, controls.quad)


def _is_array(x) -> bool:
    # a plain number skips np.ndim, which costs a few percent of a
    # plain-series call
    return not isinstance(x, (int, float, complex)) and np.ndim(x) > 0


def _series_band(alpha: float) -> float:
    """The largest |z| the series route takes at ``alpha``.  An entry past
    it, or declined on it, goes on to the expansion and the path, so the
    edge is a cost choice; at alpha = 1 the plain pass's terms, which peak
    near e**|z|, stay inside the double range up to |z| = 600."""
    return 600.0 if alpha == 1.0 else min(4.0, 200.0 ** alpha)


def _exp_power(p: MLParams) -> int | None:
    """The m with E_{alpha,beta}(z) = z**m exp(z): at alpha = 1 and
    beta = 1 - m for an integer m >= 0 the terms at the poles of Gamma
    vanish and the series is z**m times that of exp.  None otherwise, and
    past m = 100, which bounds the cost of ``_leibniz_sum``."""
    if p.alpha == 1.0 and p.beta.imag == 0.0 and -99.0 <= p.beta.real <= 1.0 \
            and p.beta.real == math.floor(p.beta.real):
        return int(1.0 - p.beta.real)
    return None


def _leibniz_sum(m: int, l: int, lam: complex, t: float) -> complex:
    """sum_{j <= min(l, m)} C(l, j) m!/(m - j)! z**(m - j) at z = lambda t,
    in exact rational arithmetic from lambda and t and rounded once, so its
    cancellation near a zero costs no digits."""
    zr, zi = Fraction(lam.real) * Fraction(t), Fraction(lam.imag) * Fraction(t)
    top = min(l, m)
    sr, si = Fraction(0), Fraction(0)
    for j in range(top + 1):  # Horner from the power z**top down
        sr, si = sr * zr - si * zi + math.comb(l, j) * math.perm(m, j), sr * zi + si * zr
    for _ in range(m - top):
        sr, si = sr * zr - si * zi, sr * zi + si * zr
    return complex(float(sr), float(si))


def _exp_closed_form(m: int, lam: complex, t: float, l: int) -> EvalResult | None:
    """Step 1 of ``evaluate``: the l-th lambda-derivative of
    E_{1,1-m}(lambda t) = (lambda t)**m exp(lambda t), by Leibniz's rule

        t**l exp(z) sum_{j <= min(l, m)} C(l, j) m!/(m - j)! z**(m - j),

    z = lambda t, the sum from ``_leibniz_sum``.  The bar covers the
    rounding of the exponent and of the products, on the fixed grid below
    the normal range too.  None where exp(z) or t**l exp(z) falls below
    the normal range at m > 0, which loses their digits (at m = 0 the
    value is exp itself, to its last bit)."""
    try:
        e = cmath.exp(lam * t)
        value = t ** l * e
    except OverflowError:
        value = math.inf
    if not cmath.isfinite(value):
        raise EvaluationError("exp(lambda t) exceeds the double-precision range")
    if m == 0:
        return EvalResult(value, 4.0 * _EPS * (1.0 + abs(lam * t)) * abs(value), "series", 1)
    if abs(e) < _NORMAL_MIN or 0.0 < abs(value) < _NORMAL_MIN:
        return None
    scale = abs(value)
    try:
        value *= _leibniz_sum(m, l, lam, t)
    except OverflowError:
        value = math.inf
    if not cmath.isfinite(value):
        raise EvaluationError("(lambda t)**m exp(lambda t) exceeds the double-precision range")
    err = 4.0 * _EPS * (2.0 + abs(lam * t)) * abs(value) + _SUBNORMAL_FLOOR * (1.0 + scale)
    return EvalResult(value, err, "series", min(l, m) + 1)


def _series_route(p: MLParams, lam: complex, t: float, l: int,
                  controls: EvalControls) -> EvalResult | None:
    """Steps 1 and 2 of ``evaluate``'s route order for one validated entry:
    the result of the closed form or the series when either takes the
    entry, else None."""
    m = _exp_power(p)
    if m is not None:
        res = _exp_closed_form(m, lam, t, l)
        if res is not None:
            return res
    t_alpha = t ** p.alpha
    z_mod = abs(lam) * t_alpha
    if z_mod > _series_band(p.alpha):
        return None
    plain = _accepted_plain(p, lam, t, l, controls.tol)
    if plain is None and 0.0 < abs(lam.imag) * t_alpha <= controls.quad.rel_tol * z_mod:
        return _series_extended(p, lam, t, l)
    return plain


def _series_many(p: MLParams, lam: np.ndarray, t: np.ndarray, l: np.ndarray,
                 controls: EvalControls) -> list[EvalResult | None]:
    """``_series_route`` on every entry of an array call.  The in-band
    entries that the plain pass alone decides (lambda t**alpha != 0, and no
    complex-step imaginary part) are summed by one ``_plain_many`` pass,
    from the w and t**(alpha l) the scalar call takes, and kept by
    ``_kept``'s rule; every other in-band entry, and any the
    table is too short for, takes ``_series_route`` itself."""
    results: list[EvalResult | None] = [None] * t.size
    alpha, band, rel_tol = p.alpha, _series_band(p.alpha), controls.quad.rel_tol
    closed_form = _exp_power(p) is not None
    plain, w, t_alpha_l, scalar = [], [], [], []
    for j, (lj, tj, kj) in enumerate(zip(lam.tolist(), t.tolist(), l.tolist())):
        t_alpha = tj ** alpha
        z_mod = abs(lj) * t_alpha
        if closed_form or 0.0 == z_mod <= band or 0.0 < abs(lj.imag) * t_alpha <= rel_tol * z_mod:
            scalar.append(j)
        elif z_mod <= band:
            plain.append(j)
            w.append(lj * t_alpha)
            t_alpha_l.append(tj ** (alpha * kj))
    if plain:
        value, err, n_terms, undecided = _plain_many(
            p, np.array(w), np.array(t_alpha_l), l[plain], controls.tol)
        for j, v, e, n, later in zip(plain, value.tolist(), err.tolist(),
                                     n_terms.tolist(), undecided.tolist()):
            if later:
                scalar.append(j)
            else:  # a bar that is not finite, where the loop raises, is refused too
                results[j] = _kept(EvalResult(v, e, "series", n), controls.tol)
    for j in scalar:
        results[j] = _series_route(p, complex(lam[j]), float(t[j]), int(l[j]), controls)
    return results


def _evaluate_many(p: MLParams, lam, t, l, controls: EvalControls) -> EvalResult:
    """``evaluate`` over the entries of ``lam``, ``t`` and ``l`` broadcast
    together."""
    lams = require_grid("lam", lam, complex)
    ts = require_grid("t", t)
    if (ts < 0.0).any():
        raise DomainError(f"argument t must be nonnegative, got {ts.min()!r}")
    ls = require_orders("l", l)
    try:
        ts, ls = np.broadcast_arrays(ts, ls)
    except ValueError:
        raise DomainError(f"arguments t and l must broadcast together, got "
                          f"lengths {ts.size} and {np.size(ls)}") from None
    try:
        lams, ts, ls = np.broadcast_arrays(lams, ts, ls)
    except ValueError:
        raise DomainError(f"arguments lam and t must broadcast together, got "
                          f"lengths {lams.size} and {ts.size}") from None
    results = _series_many(p, lams, ts, ls, controls)
    rest = [j for j, res in enumerate(results) if res is None]
    if rest:
        from .contour import _expansion_route, ml_contour_deriv

        expanded = _expansion_route(p, lams[rest], ts[rest], ls[rest], controls.tol)
        path = []
        for j, res in zip(rest, expanded):
            if res is None:
                path.append(j)
            else:
                results[j] = res
        if path:
            batch = ml_contour_deriv(p, lams[path], ts[path], ls[path], controls.quad)
            for j, value, err in zip(path, batch.value.tolist(),
                                     batch.err_estimate.tolist()):
                results[j] = EvalResult(value, err, "contour", batch.terms_or_panels)
    return EvalResult(np.array([res.value for res in results], dtype=complex),
                      np.array([res.err_estimate for res in results], dtype=float),
                      tuple(res.method for res in results),
                      tuple(res.terms_or_panels for res in results))


def ml_eval(p: MLParams, z: complex, controls: EvalControls | None = None) -> EvalResult:
    """E_{alpha,beta}(z): ``evaluate`` at lambda = z, t = 1, l = 0."""
    require_finite("z", z)
    return evaluate(p, z, 1.0, 0, controls)
