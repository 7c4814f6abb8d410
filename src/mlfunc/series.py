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
  of headroom.
* extended mode ("compensated-series"): the same series summed in adaptive
  multi-precision sized from a cheap log-magnitude scan of the terms.  This
  is the oracle-grade mode the contour representation is checked against.
* ``evaluate`` is the one place that picks the route of a scalar value.
  With z = lambda t**alpha it sums the series while |z| <= min(4, 200**alpha)
  and for every z at alpha = 1 (plain first, extended when the plain pass
  misses the tolerance); beyond that it takes the contour representation.
  ``ml_eval`` is its underived case at t = 1.

``ml_series_deriv`` sums the lambda-derivative series

    d^l/d lambda^l E_{alpha,beta}(lambda t^alpha)
        = sum_{k>=l} k!/(k-l)! lambda^(k-l) t^(alpha k) / Gamma(alpha k + beta)

with the same machinery; l = 0 delegates to ``ml_series`` so both entry
points share one code path for the underived case.
"""

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
from scipy.special import loggamma

from .numcore import DomainError, QuadratureControls, recip_gamma, require_finite

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


@dataclass(frozen=True)
class EvalResult:
    value: complex
    err_estimate: float
    method: str  # "series" | "compensated-series" | "contour"
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


# --------------------------------------------------------------------------
# plain double-precision mode

def _series_float(p: MLParams, lam: complex, t_alpha_l: float, w: complex,
                  l: int, tol: float, max_terms: int):
    """Sum the (derivative) series in doubles with Neumaier compensation.

    Terms are perm(k) * t^(alpha l) * w^(k-l) * recip_gamma(alpha k + beta)
    with w = lambda * t**alpha; l = 0 reduces to the plain series in w.
    Returns (value, err_estimate, n_terms) or raises SeriesConvergenceError.
    """
    alpha, beta = p.alpha, p.beta
    s_re = c_re = s_im = c_im = 0.0
    perm = float(math.factorial(l))
    pw = complex(t_alpha_l)  # perm * pw accumulates the non-gamma factor
    abs_sum = 0.0
    prev_mag = math.inf
    tail = math.inf
    n = 0
    for k in range(l, l + max_terms):
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
        scale = max(1.0, abs(value))
        if ratio < 1.0:
            tail = mag * ratio / (1.0 - ratio) if ratio > 0.0 else 0.0
            if mag <= tol * scale and tail <= tol * scale and k >= l + 2:
                # per-term gamma rounding accumulates over the whole sum of
                # magnitudes; this also covers the cancellation penalty
                err = abs_sum * 100.0 * _EPS + tail
                return value, err, n
        perm *= (k + 1.0) / (k + 1.0 - l)
        pw *= w
    raise SeriesConvergenceError(
        f"series did not converge within {max_terms} terms",
        value=complex(s_re + c_re, s_im + c_im),
        err_estimate=abs_sum * 100.0 * _EPS + (tail if math.isfinite(tail) else abs_sum),
    )


# --------------------------------------------------------------------------
# extended-precision mode

def _term_log10_profile(p: MLParams, lam: complex, t: float, l: int):
    """log10 |term_k| scanned in floats; returns (k values, profile array)."""
    alpha, beta = p.alpha, p.beta
    log_lam = math.log(abs(lam)) if lam != 0 else -math.inf
    log_t = math.log(t) if t > 0.0 else -math.inf
    n = 256
    while True:
        k = np.arange(l, l + n, dtype=float)
        prof = (
            loggamma(k + 1.0).real
            - loggamma(k - l + 1.0).real
            + (k - l) * log_lam
            + alpha * k * log_t
            - loggamma(alpha * k + beta).real
        ) / _LN10
        # extend until the tail drops below every summation cutoff the
        # retry loop may use (cutoff >= max_log10 - dps - 10 >= -130)
        if prof[-1] < -130.0:
            return k, prof
        if n >= 1 << 18:
            raise SeriesConvergenceError(
                "term profile does not decay within the scan budget", 0j, math.inf)
        n *= 2


def _series_mp(p: MLParams, lam: complex, t: float, l: int):
    """Extended-precision sum of the (derivative) series.

    Working precision is sized from the scanned term profile so that the
    largest term carries ~25 guard digits past the final rounding; one
    retry widens the precision if the result turns out far smaller than
    the a-priori floor assumed.
    """
    alpha, beta = p.alpha, p.beta
    if lam == 0 or t == 0.0:
        value = complex(recip_gamma(beta)) if l == 0 else 0j
        return value, abs(value) * _EPS, 1
    k_grid, prof = _term_log10_profile(p, lam, t, l)
    max_log10 = float(prof.max())
    peak_at = int(np.argmax(prof))

    extra = 30
    for _ in range(3):
        dps = max(30, int(math.ceil(max(0.0, max_log10))) + extra)
        cutoff = max_log10 - dps - 10
        past_peak = np.nonzero(prof[peak_at:] < cutoff)[0]
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
        if acc_mag == 0.0 or math.log10(acc_mag) > max_log10 - dps + 20:
            err = abs(value) * 4.0 * _EPS + 10.0 ** (max_log10 - dps)
            return value, err, n
        extra += 40
    err = abs(value) * 4.0 * _EPS + 10.0 ** (max_log10 - dps)
    return value, err, n


# --------------------------------------------------------------------------
# public evaluators

def ml_series(p: MLParams, z: complex, tol: float = 1e-12,
              max_terms: int = 10000) -> EvalResult:
    """Plain-mode series value of E_{alpha,beta}(z).

    The stopping rule requires both the current term and a geometric tail
    bound to drop below tol (relative to max(1, |partial sum|)).  The error
    estimate includes the cancellation penalty (largest term) * eps.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    z = complex(z)
    value, err, n = _series_float(p, z, 1.0, z, 0, tol, max_terms)
    return EvalResult(value, err, "series", n)


def _series_extended(p: MLParams, lam: complex, t: float, l: int) -> EvalResult:
    value, err, n = _series_mp(p, lam, t, l)
    return EvalResult(value, err, "compensated-series", n)


def ml_series_deriv(p: MLParams, lam: complex, t: float, l: int,
                    tol: float = 1e-12, max_terms: int = 10000,
                    extended: bool | None = None) -> EvalResult:
    """l-th lambda-derivative of E_{alpha,beta}(lambda * t**alpha).

    ``extended=None`` keeps the plain pass only if its error estimate meets
    tol relative to the value, and else sums in extended precision;
    True/False force the mode.  l = 0 delegates to
    ``ml_series`` at z = lambda * t**alpha (identical code path).
    """
    if l < 0 or l != int(l):
        raise DomainError("derivative order must be a nonnegative integer")
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    l = int(l)
    lam = complex(lam)
    if t == 0.0:
        # E(lambda * 0) is constant in lambda
        value = complex(recip_gamma(p.beta)) if l == 0 else 0j
        return EvalResult(value, abs(value) * _EPS, "series", 1)
    if lam == 0:
        # only the k = l series term survives at lambda = 0
        value = (math.factorial(l) * t ** (p.alpha * l)
                 * complex(recip_gamma(p.alpha * l + p.beta)))
        return EvalResult(value, abs(value) * 4.0 * _EPS, "series", 1)
    if extended is True:
        return _series_extended(p, lam, t, l)
    w = lam * t ** p.alpha

    def plain_pass() -> EvalResult:
        if l == 0:
            return ml_series(p, w, tol, max_terms)
        value, err, n = _series_float(
            p, lam, t ** (p.alpha * l), w, l, tol, max_terms)
        return EvalResult(value, err, "series", n)

    if extended is False:
        return plain_pass()
    try:
        plain = plain_pass()
    except SeriesConvergenceError:
        plain = None
    # auto mode: accept the plain pass only if its own error estimate
    # clears the tolerance relative to the value (cancellation leaves a
    # near-zero value with an absolute-scale error), else redo extended
    if plain is not None and math.isfinite(plain.err_estimate) and \
            plain.err_estimate <= tol * max(abs(plain.value), 1e-290):
        return plain
    return _series_extended(p, lam, t, l)


def evaluate(p: MLParams, lam: complex, t: float, l: int,
             controls: EvalControls | None = None) -> EvalResult:
    """l-th lambda-derivative of E_{alpha,beta}(lambda * t**alpha), by the
    route this package picks for every scalar value.

    With z = lambda * t**alpha: the series (``ml_series_deriv`` auto mode,
    which also holds the closed forms at t = 0 and lambda = 0) for
    |z| <= min(4, 200**alpha) and for every z at alpha = 1, the contour
    representation (``ml_contour_deriv``) beyond.  The series' largest term
    is about exp(|z|**(1/alpha)); the 200**alpha cap keeps the extended mode
    under about 90 digits.
    """
    require_finite("lam", lam)
    require_finite("t", t)
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    controls = controls or EvalControls()
    z_mod = abs(lam) * t ** p.alpha
    if p.alpha == 1.0:
        # the terms are exponential-type and the series converges for every
        # z, but past |z| = 600 its largest term, about e**|z|, nears the
        # edge of the double range
        if z_mod > 600.0:
            raise EvaluationError(
                "value exceeds the double-precision range for alpha >= 1")
    elif z_mod > min(4.0, 200.0 ** p.alpha):
        from .contour import ml_contour_deriv  # deferred: contour builds on this module

        return ml_contour_deriv(p, lam, t, l, controls.quad)
    return ml_series_deriv(p, lam, t, l, controls.tol)


def ml_eval(p: MLParams, z: complex, controls: EvalControls | None = None) -> EvalResult:
    """E_{alpha,beta}(z): ``evaluate`` at lambda = z, t = 1, l = 0."""
    require_finite("z", z)
    return evaluate(p, z, 1.0, 0, controls)
