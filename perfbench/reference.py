"""Extended-precision references that share no code with mlfunc.

Every reference is a plain mpmath sum of the defining series

    S_j(lam, t) = sum_{k>=j} C(k, j) lam^(k-j) t^(alpha k) / Gamma(alpha k + beta)
                = (1/j!) d^j/dlam^j E_{alpha,beta}(lam t^alpha),

which is E_{alpha,beta}(z) itself for j = 0, t = 1, lam = z, and the
(r, r+j) entry of a Jordan block of E_{alpha,beta}(t^alpha J) otherwise.

The working precision is the number of decimal digits of the largest term
plus ``GUARD_DIGITS``, so the cancellation between terms leaves at least that
many correct digits below the peak term.  A sum that would need more than
``MAX_DIGITS`` digits is out of reach and returns None: the caller counts
that output as unchecked.

When alpha, as the exact rational p/q that its double is, has
q <= ``MAX_RECUR_DENOMINATOR``, 1/Gamma is carried from term k-q to term k by
the integer step Gamma(x + p) = Gamma(x) * prod_{i<p} (x + i); otherwise
every term calls mpmath's rgamma.  The step is there for speed only: the 400
eval-mix references of seed 1 take 10 s with it and 50 s with rgamma on
every term (Intel Xeon at 2.1 GHz, mpmath on its pure-python backend), and
they are computed inside the run's time limit.
"""

import math
from fractions import Fraction

import mpmath as mp

GUARD_DIGITS = 40
MAX_DIGITS = 640
MAX_RECUR_DENOMINATOR = 64

_LN10 = math.log(10.0)


def _log10_term(alpha, beta, log10_lam, log10_t, j, k):
    """log10 |k-th term of S_j|; -inf for k < j."""
    if k < j:
        return -math.inf
    log10_binom = (math.lgamma(k + 1) - math.lgamma(j + 1)
                   - math.lgamma(k - j + 1)) / _LN10
    return (log10_binom + (k - j) * log10_lam + alpha * k * log10_t
            - math.lgamma(alpha * k + beta) / _LN10)


def _plan(alpha, beta, lam, t, orders):
    """(digits, last k) for summing S_0..S_orders, or None if out of reach."""
    log10_lam = math.log10(abs(lam))
    log10_t = math.log10(t)
    peak, k_peak, k = -math.inf, 0, 0
    while True:
        v = max(_log10_term(alpha, beta, log10_lam, log10_t, j, k)
                for j in range(orders + 1))
        if v > peak:
            peak, k_peak = v, k
            if math.ceil(peak) + GUARD_DIGITS > MAX_DIGITS:
                return None
        # past the peak the terms decay faster than geometrically, so the
        # first term GUARD_DIGITS + 5 below both the peak and 1 ends the sum
        if k > k_peak + orders + 2 and v < min(peak, 0.0) - GUARD_DIGITS - 5:
            return int(math.ceil(max(peak, 0.0))) + GUARD_DIGITS, k
        k += 1


def series_sums(alpha: float, beta: float, lam: complex, t: float, orders: int):
    """[S_0, ..., S_orders] as complex numbers, or None when out of reach."""
    if lam == 0 or t == 0.0:
        raise ValueError("the reference expects lam != 0 and t > 0")
    plan = _plan(alpha, beta, lam, t, orders)
    if plan is None:
        return None
    digits, k_last = plan
    frac = Fraction(alpha)
    p, q = frac.numerator, frac.denominator
    recur = q <= MAX_RECUR_DENOMINATOR
    with mp.workdps(digits + 10):
        a = mp.mpf(alpha)
        b = mp.mpf(beta)
        lam_mp = mp.mpc(lam)
        t_alpha = mp.power(mp.mpf(t), a)
        rg = []                       # 1/Gamma(a k + b) for the last q terms
        acc = [mp.mpc(0)] * (orders + 1)
        lam_pow = [mp.mpc(1)] * (orders + 1)  # lam^(k - j)
        t_pow = mp.mpf(1)                      # t^(a k)
        for k in range(k_last + 1):
            if not recur:
                g = mp.rgamma(a * k + b)
            elif k < q:
                g = mp.rgamma(a * k + b)
                rg.append(g)
            else:
                x = a * (k - q) + b
                step = mp.mpf(1)
                for i in range(p):
                    step *= x + i
                g = rg[k % q] / step
                rg[k % q] = g
            base = t_pow * g
            for j in range(min(k, orders) + 1):
                acc[j] += math.comb(k, j) * lam_pow[j] * base
                lam_pow[j] *= lam_mp
            t_pow *= t_alpha
        return [complex(v) for v in acc]


def ml_value(alpha: float, beta: float, z: complex):
    """E_{alpha,beta}(z), or None when out of reach."""
    if z == 0:
        return complex(mp.rgamma(beta))
    sums = series_sums(alpha, beta, z, 1.0, 0)
    return None if sums is None else sums[0]
