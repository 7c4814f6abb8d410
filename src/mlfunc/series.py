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
  is the oracle-grade mode the tests check the other routes against.
* ``evaluate`` is the one place that picks the route of a value, and it
  takes one (t, l) entry or 1-D arrays of them, each entry routed as alone.
  With z = lambda t**alpha it sums the series while |z| <= min(4, 200**alpha)
  (|z| <= 600 at alpha = 1) and keeps the plain pass when its error
  estimate meets the tolerance.  An entry the series declines tries the
  expansion at infinity ("asymptotic", in ``contour``), kept when its
  certified remainder and rounding bar meet the tolerance; the entries of
  an array try it in one vectorized pass.  What is left takes the contour
  representation, which never cancels, at alpha < 1, and the extended mode
  at alpha = 1; arguments whose imaginary part is below the other routes'
  resolution keep the extended mode on the band.  The path entries of an
  array share one batched path integral.  E_{1,1} = exp is taken in
  closed form.  ``ml_eval`` is its underived case at t = 1.

``ml_series_deriv`` sums the lambda-derivative series

    d^l/d lambda^l E_{alpha,beta}(lambda t^alpha)
        = sum_{k>=l} k!/(k-l)! lambda^(k-l) t^(alpha k) / Gamma(alpha k + beta)

with the same machinery; l = 0 delegates to ``ml_series`` so both entry
points share one code path for the underived case.
"""

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import mpmath as mp
import numpy as np
from scipy.special import digamma, loggamma

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
    # "contour" (counts panels) | "compensated-series" (extended mode: only
    # at alpha = 1, for sub-resolution imaginary parts, or when forced)
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


# --------------------------------------------------------------------------
# plain double-precision mode

def _pole_terms(alpha: float, beta: complex, l: int, n: int) -> list[int]:
    """The k in [l, l + n) at which alpha*k + beta is a pole of Gamma, a
    nonpositive integer up to the rounding of alpha*k, where the term is
    taken by ``_pole_term``.  Poles need a real beta."""
    if beta.imag != 0.0:
        return []
    k_end = int(min(l + n, (1.0 - beta.real) / alpha))  # past every pole
    return [k for k in range(l, k_end) if (x := alpha * k + beta.real) < 0.5
            and abs(math.remainder(x, 1.0)) <= 64.0 * _EPS * (1.0 + alpha * k)]


def _pole_term(coef: complex, alpha: float, beta: float, k: int) -> complex:
    """coef / Gamma(alpha*k + beta) at a pole term k.  The argument is -m + r
    with r exact for the double inputs (0 at an exact pole), and
    1/Gamma(-m + r) = (-1)^m m! r (1 - r psi(m + 1)) up to O(r^2); m! is
    taken in log space, so a large m gives inf, which the caller reports
    as overflow."""
    x = Fraction(alpha) * k + Fraction(beta)
    m, r = -round(x), float(x - round(x))
    if r == 0.0 or coef == 0:
        return 0j
    log_mag = (math.log(abs(coef)) + math.log(abs(r)) + math.lgamma(m + 1)
               - r * float(digamma(m + 1)))
    mag = math.exp(log_mag) if log_mag < 709.0 else math.inf
    return coef / abs(coef) * math.copysign(mag, r) * (-1) ** m


def _series_float(p: MLParams, t_alpha_l: float, w: complex, l: int, tol: float):
    """Sum the (derivative) series in doubles with Neumaier compensation.

    Terms are perm(k) * t^(alpha l) * w^(k-l) * recip_gamma(alpha k + beta)
    with w = lambda * t**alpha; l = 0 reduces to the plain series in w.
    The sum stops once the term and its geometric tail bound both drop
    below max(tol * max(1, |partial sum|), 100 eps * sum |term|): the
    second scale is the rounding floor the error estimate already carries,
    so a cancelling sum stops there instead of running into overflow.
    A zero term at a pole of Gamma is not convergence: unless w = 0, the
    sum runs at least two terms past the last pole, and the pole term is
    taken from the exact offset of alpha*k + beta (``_pole_term``), which
    the rounded argument loses.
    Returns (value, err_estimate, n_terms) or raises SeriesConvergenceError.
    """
    alpha, beta = p.alpha, p.beta
    poles = _pole_terms(alpha, beta, l, _MAX_TERMS) if w != 0 else []
    first_stop = max(l + 2, poles[-1] + 2) if poles else l + 2
    s_re = c_re = s_im = c_im = 0.0
    perm = float(math.factorial(l))
    pw = complex(t_alpha_l)  # perm * pw accumulates the non-gamma factor
    abs_sum = 0.0
    prev_mag = math.inf
    tail = math.inf
    n = 0
    for k in range(l, l + _MAX_TERMS):
        if k in poles:
            term = _pole_term(perm * pw, alpha, beta.real, k)
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
        target = max(tol * max(1.0, abs(value)), 100.0 * _EPS * abs_sum)
        if ratio < 1.0:
            tail = mag * ratio / (1.0 - ratio) if ratio > 0.0 else 0.0
            if mag <= target and tail <= target and k >= first_stop:
                # per-term gamma rounding accumulates over the whole sum of
                # magnitudes; this also covers the cancellation penalty
                err = abs_sum * 100.0 * _EPS + tail
                return value, err, n
        perm *= (k + 1.0) / (k + 1.0 - l)
        pw *= w
    raise SeriesConvergenceError(
        f"series did not converge within {_MAX_TERMS} terms",
        value=complex(s_re + c_re, s_im + c_im),
        err_estimate=abs_sum * 100.0 * _EPS + (tail if math.isfinite(tail) else abs_sum),
    )


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
    the a-priori floor assumed.  Needs lam != 0 and t > 0, which
    ``ml_series_deriv`` answers in closed form before it gets here.
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
        if acc_mag == 0.0 or math.log10(acc_mag) > max_log10 - dps + 20:
            break
        extra += 40
    return value, abs(value) * 4.0 * _EPS + 10.0 ** (max_log10 - dps), n


# --------------------------------------------------------------------------
# public evaluators

def _require_tol(tol: float) -> None:
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")


def ml_series(p: MLParams, z: complex, tol: float = 1e-12) -> EvalResult:
    """Plain-mode series value of E_{alpha,beta}(z).

    The stopping rule requires both the current term and a geometric tail
    bound to drop below tol (relative to max(1, |partial sum|)) or below the
    rounding floor 100 eps * sum |term|.  The error estimate includes the
    cancellation penalty (largest term) * eps.
    """
    require_finite("z", z)
    _require_tol(tol)
    value, err, n = _series_float(p, 1.0, complex(z), 0, tol)
    return EvalResult(value, err, "series", n)


def _series_extended(p: MLParams, lam: complex, t: float, l: int) -> EvalResult:
    value, err, n = _series_mp(p, lam, t, l)
    return EvalResult(value, err, "compensated-series", n)


def _accepted_plain(plain_pass: Callable[[], EvalResult],
                    tol: float) -> EvalResult | None:
    """Run a plain series pass and keep it only if it converges and its own
    error estimate meets tol relative to the value, else None.
    Cancellation leaves a near-zero value with an absolute-scale error,
    which this rule refuses."""
    try:
        plain = plain_pass()
    except SeriesConvergenceError:
        return None
    if math.isfinite(plain.err_estimate) and \
            plain.err_estimate <= tol * max(abs(plain.value), 1e-290):
        return plain
    return None


def ml_series_deriv(p: MLParams, lam: complex, t: float, l: int,
                    tol: float = 1e-12, extended: bool | None = None) -> EvalResult:
    """l-th lambda-derivative of E_{alpha,beta}(lambda * t**alpha).

    ``extended=None`` keeps the plain pass only if its error estimate meets
    tol relative to the value, and else sums in extended precision;
    True/False force the mode.  l = 0 delegates to
    ``ml_series`` at z = lambda * t**alpha (identical code path).
    """
    if l < 0 or l != int(l):
        raise DomainError("derivative order must be a nonnegative integer")
    require_finite("lam", lam)
    require_finite("t", t)
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    _require_tol(tol)
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
            return ml_series(p, w, tol)
        value, err, n = _series_float(p, t ** (p.alpha * l), w, l, tol)
        return EvalResult(value, err, "series", n)

    if extended is False:
        return plain_pass()
    plain = _accepted_plain(plain_pass, tol)
    return plain if plain is not None else _series_extended(p, lam, t, l)


def evaluate(p: MLParams, lam: complex, t: float | np.ndarray, l: int | np.ndarray,
             controls: EvalControls | None = None) -> EvalResult:
    """l-th lambda-derivative of E_{alpha,beta}(lambda * t**alpha), by the
    route this package picks for every value.

    With z = lambda * t**alpha the routes are tried in this order:

    1. At alpha = beta = 1 the closed form t**l exp(lambda t), which raises
       EvaluationError only where it overflows.
    2. The plain series pass on the series band, |z| <= min(4, 200**alpha)
       at alpha < 1 and |z| <= 600 at alpha = 1, kept when its error
       estimate meets ``controls.tol`` relative to the value (the closed
       forms at t = 0 and lambda = 0 always do).  A z whose nonzero
       imaginary part is at most ``controls.quad.rel_tol * |z|`` keeps
       ``ml_series_deriv``'s auto mode on the band, plain then extended:
       the other routes lose such an imaginary part, which a complex-step
       derivative needs.
    3. The expansion at infinity ("asymptotic"), kept when its whole error
       bar, the certified remainder included, meets ``controls.tol``
       relative to the value.
    4. At alpha = 1 the extended series, up to |z| = 600 (its largest term,
       about e**|z|, nears the edge of the double range there; beyond, the
       call raises EvaluationError).  At alpha < 1 the contour
       representation (``ml_contour_deriv``), which never cancels.

    ``t`` and ``l`` may also be 1-D arrays, broadcast together.  Each entry
    then takes the route its scalar call takes, the entries that reach step
    3 share one vectorized pass, every entry bound for the path route goes
    into one ``ml_contour_deriv`` call, and the result holds arrays of
    values and error estimates and tuples of per-entry routes and work
    counts (a path entry counts the panels of the batch).
    """
    if _is_array(t) or _is_array(l):
        return _evaluate_many(p, lam, t, l, controls or EvalControls())
    require_finite("lam", lam)
    require_finite("t", t)
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    controls = controls or EvalControls()
    res = _series_route(p, lam, t, l, controls)
    if res is not None:
        return res
    # deferred: contour builds on this module
    from .contour import _expansion_route, ml_contour_deriv

    l = require_orders("l", l)
    res = _expansion_route(p, complex(lam), np.array([float(t)]), np.array([l]),
                           controls.tol)[0]
    if res is None:
        res = _after_expansion(p, lam, t, l)
    return res if res is not None else ml_contour_deriv(p, lam, t, l, controls.quad)


def _is_array(x) -> bool:
    # a plain number skips np.ndim, which costs a few percent of a
    # plain-series call
    return not isinstance(x, (int, float)) and np.ndim(x) > 0


def _series_route(p: MLParams, lam: complex, t: float, l: int,
                  controls: EvalControls) -> EvalResult | None:
    """Steps 1 and 2 of ``evaluate``'s route order for one validated entry:
    the result of the closed form or the series when either takes the
    entry, else None."""
    if p.alpha == 1.0 and p.beta == 1.0:
        if l < 0 or l != int(l):
            raise DomainError("derivative order must be a nonnegative integer")
        # E_{1,1}(lambda t) = exp(lambda t); its l-th lambda-derivative is
        # t**l exp(lambda t).  The bar covers the rounding of the exponent.
        try:
            value = t ** l * cmath.exp(lam * t)
        except OverflowError:
            value = math.inf
        if not cmath.isfinite(value):
            raise EvaluationError("exp(lambda t) exceeds the double-precision range")
        return EvalResult(value, 4.0 * _EPS * (1.0 + abs(lam * t)) * abs(value), "series", 1)
    t_alpha = t ** p.alpha
    z_mod = abs(lam) * t_alpha
    if z_mod > (600.0 if p.alpha == 1.0 else min(4.0, 200.0 ** p.alpha)):
        return None
    if 0.0 < abs(complex(lam).imag) * t_alpha <= controls.quad.rel_tol * z_mod:
        return ml_series_deriv(p, lam, t, l, controls.tol)
    return _accepted_plain(
        lambda: ml_series_deriv(p, lam, t, l, controls.tol, extended=False),
        controls.tol)


def _after_expansion(p: MLParams, lam: complex, t: float, l: int) -> EvalResult | None:
    """Step 4 of ``evaluate`` at alpha = 1, for an entry the expansion
    declined; None at alpha < 1, where the entry takes the path route."""
    if p.alpha < 1.0:
        return None
    if abs(lam) * t > 600.0:
        raise EvaluationError("value exceeds the double-precision range for alpha >= 1")
    return _series_extended(p, complex(lam), t, l)


def _evaluate_many(p: MLParams, lam: complex, t: float | np.ndarray,
                   l: int | np.ndarray, controls: EvalControls) -> EvalResult:
    """``evaluate`` over the entries of ``t`` and ``l`` broadcast together."""
    require_finite("lam", lam)
    ts = require_grid("t", t)
    if (ts < 0.0).any():
        raise DomainError(f"argument t must be nonnegative, got {ts.min()!r}")
    ls = require_orders("l", l)
    try:
        ts, ls = np.broadcast_arrays(ts, ls)
    except ValueError:
        raise DomainError(f"arguments t and l must broadcast together, got "
                          f"lengths {ts.size} and {np.size(ls)}") from None
    results = [_series_route(p, lam, tj, lj, controls)
               for tj, lj in zip(ts.tolist(), ls.tolist())]
    rest = [j for j, res in enumerate(results) if res is None]
    if rest:
        from .contour import _expansion_route, ml_contour_deriv

        expanded = _expansion_route(p, complex(lam), ts[rest], ls[rest], controls.tol)
        for j, res in zip(rest, expanded):
            results[j] = res if res is not None else \
                _after_expansion(p, lam, float(ts[j]), int(ls[j]))
        path = [j for j in rest if results[j] is None]
        if path:
            batch = ml_contour_deriv(p, lam, ts[path], ls[path], controls.quad)
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
