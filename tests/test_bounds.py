"""Envelope constants and certificates, plus the averaged-kernel limit check."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfunc.bounds import (
    LIMIT_KERNELS,
    SectorContext,
    SectorContextError,
    certify_lemma2_i,
    certify_lemma2_ii,
    certify_lemma2_iii,
    certify_lemma4,
    kappa_integrals,
    lemma2_constants,
    lemma3_limit_check,
    lemma4_constants,
    sector_context,
)
import mlfunc.bounds as bounds
import mlfunc.contour as contour
from mlfunc.contour import expansion_coefficient
from mlfunc.numcore import DomainError, recip_gamma
from mlfunc.series import MLParams, evaluate, ml_series_deriv


# ------------------------------------------------------------------ context

def test_sector_context_validates_hypotheses():
    with pytest.raises(SectorContextError, match="hypothesis violated"):
        SectorContext(0.5, 0.0, 1.2, 0.2)          # lambda = 0
    with pytest.raises(SectorContextError, match="hypothesis violated"):
        SectorContext(0.5, 1.0, 0.5, 0.2)          # theta below alpha*pi/2
    with pytest.raises(SectorContextError, match="hypothesis violated"):
        SectorContext(0.5, 1.0, 1.2, 0.5)          # theta0 >= theta - alpha*pi/2
    with pytest.raises(SectorContextError, match="hypothesis violated"):
        # arg(lambda) inside the theta0 collar around the path angle
        SectorContext(0.5, cmath.exp(1.2j), 1.2, 0.3)
    with pytest.raises(SectorContextError, match="hypothesis violated"):
        SectorContext(1.0, -1.0, 1.2, 0.2)         # alpha at the boundary


def test_sector_context_auto_sides():
    interior = sector_context(0.6, 1.0)
    assert interior.side == "interior"
    exterior = sector_context(0.6, -1.0)
    assert exterior.side == "exterior"
    # an interior lambda cannot produce an exterior context
    with pytest.raises(SectorContextError):
        sector_context(0.6, 1.0, side="exterior")


def test_sector_context_onset_time():
    ctx = sector_context(0.5, -4.0)
    assert ctx.t0 == pytest.approx(
        (4.0 * (1.0 - math.sin(ctx.theta0))) ** (-1.0 / 0.5))


@given(st.floats(min_value=0.35, max_value=0.9),
       st.floats(min_value=0.2, max_value=8.0),
       st.floats(min_value=-math.pi + 1e-3, max_value=math.pi))
@settings(max_examples=60)
def test_sector_context_auto_always_admissible(alpha, r, phi):
    lam = r * cmath.exp(1j * phi)
    try:
        ctx = sector_context(alpha, lam)
    except SectorContextError:
        # an argument too close to every admissible path angle is allowed to fail
        return
    half = alpha * math.pi / 2.0
    assert half < ctx.theta < alpha * math.pi
    assert 0.0 < ctx.theta0 < ctx.theta - half
    assert abs(ctx.theta - abs(ctx.arg_lam)) >= ctx.theta0 * (1.0 - 1e-12)
    assert ctx.t0 > 0.0


# ---------------------------------------------------------------- constants

def test_kappa_integrals_ordering():
    # with eps = 1 every path point has |zeta| >= 1, so I1 >= I0 > 0
    for alpha in (0.4, 0.6, 0.8):
        ctx = sector_context(alpha, -1.0)
        kap = kappa_integrals(alpha, ctx.theta)
        assert 0.0 < kap.i0 <= kap.i1
        assert kap.i0_err < 1e-9 * kap.i0
        assert kap.i1_err < 1e-9 * kap.i1


def test_lemma2_constants_structure():
    ctx = sector_context(0.6, 1.0)
    c = lemma2_constants(ctx)
    assert c.m == max(c.m1, c.m2)
    # the harmonized variant divides the second component by pi
    assert c.m2_harmonized == pytest.approx(c.m2 / math.pi)
    assert c.m_harmonized <= c.m
    assert c.t0 == ctx.t0


def test_lemma4_constants_growth_in_order():
    ctx = sector_context(0.8, cmath.exp(0.75j * math.pi))
    c = lemma4_constants(ctx, 3)
    assert len(c.m_l) == 4 and len(c.m_hat_l) == 4
    # factorial growth makes the constants strictly increasing here
    assert all(b > a for a, b in zip(c.m_l, c.m_l[1:]))
    assert all(b > a for a, b in zip(c.m_hat_l, c.m_hat_l[1:]))


def _remainder_constant(ctx, n, l, log_mass):
    # contour.remainder_bound at |z| = |lambda|, dist = |lambda| sin(theta0):
    # the constant C of |d^l R_n(lambda t^a)| <= C / t^(a(n+1)) for t >= t0
    mod = abs(ctx.lam)
    return math.exp(contour.remainder_bound(ctx.alpha, log_mass, mod,
                                            mod * math.sin(ctx.theta0), n, l))


@pytest.mark.parametrize("alpha, lam, l_max", [
    (0.5, -1.0, 2),
    (0.7, cmath.exp(0.8j * math.pi), 2),
    (0.3, -2.0, 1),
])
def test_expansion_remainder_bounds_the_true_remainder(alpha, lam, l_max):
    # (1/l!) d^l E_{a,a}(lam t^a) minus the explicit terms of order <= n must
    # stay within (1/l!) remainder_bound / t^(a(n+1)) for every t >= t0
    ctx = sector_context(alpha, lam)
    log_masses = contour.path_mass_bound(alpha, complex(alpha), [ctx.theta / alpha],
                                         np.arange(1, 5))[0]
    p = MLParams(alpha, complex(alpha))
    for t in np.geomspace(ctx.t0, 50.0 * ctx.t0, 5):
        for l in range(l_max + 1):
            exact = ml_series_deriv(p, lam, float(t), l, extended=True)
            lfac = math.factorial(l)
            explicit = 0j
            for n in range(1, 5):
                if n >= 2:
                    explicit += expansion_coefficient(alpha, lam, n, l) * t ** (-alpha * n)
                bound = (_remainder_constant(ctx, n, l, log_masses[n - 1]) / lfac
                         * t ** (-alpha * (n + 1)))
                gap = abs(exact.value / lfac - explicit)
                assert gap <= bound + exact.err_estimate / lfac, (t, l, n)


def test_expansion_first_order_is_lemma4_m_hat():
    for alpha, lam in ((0.5, -1.0), (0.8, cmath.exp(0.75j * math.pi))):
        ctx = sector_context(alpha, lam)
        i1 = kappa_integrals(alpha, ctx.theta).i1
        m_hat = lemma4_constants(ctx, 3).m_hat_l
        for l in range(4):
            assert _remainder_constant(ctx, 1, l, math.log(i1)) == m_hat[l]
        # the order-1 term vanishes because 1/Gamma(0) = 0
        assert expansion_coefficient(alpha, lam, 1, 0) == 0


@pytest.mark.parametrize("alpha, lam", [
    (0.5, -1.0),                          # criteria 6 and 7
    (0.6, -1.0),                          # lemma2-iii
    (0.4, cmath.exp(0.9j * math.pi)),     # lemma2-iii
])
def test_closed_form_path_mass_bounds_the_quadrature_mass(alpha, lam):
    # the closed-form I_1 (rays extended to [0, inf) plus the unit arc) is an
    # upper bound on the paper's I1, which kappa_integrals integrates
    ctx = sector_context(alpha, lam)
    kap = kappa_integrals(alpha, ctx.theta)
    closed = math.exp(contour.path_mass_bound(
        alpha, complex(alpha), [ctx.theta / alpha], [1])[0, 0])
    assert closed >= kap.i1 + kap.i1_err


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.5, complex(0.7, 0.4)])
@pytest.mark.parametrize("lam", [-1.5, 2.0, complex(-1.0, 2.0)])
def test_expansion_coefficient_for_any_beta(beta, lam):
    # -(-1)^l C(k+l-1, l) lam^(-k-l) / Gamma(beta - alpha k), one entry or
    # an array of them; real for a real lambda and beta
    alpha = 0.6
    k = np.arange(1, 7)[None, :]
    l = np.arange(4)[:, None]
    coef = expansion_coefficient(alpha, lam, k, l, beta)
    assert coef.shape == (4, 6)
    for (li, ki), c in np.ndenumerate(coef):
        kk, ll = ki + 1, li
        want = (-(-1) ** ll * math.comb(kk + ll - 1, ll) * complex(lam) ** (-kk - ll)
                * complex(mp.rgamma(complex(beta) - alpha * kk)))
        assert c == pytest.approx(want, rel=1e-13)
        one = expansion_coefficient(alpha, lam, kk, ll, beta)
        assert one == pytest.approx(c, rel=1e-15)
    assert np.isrealobj(coef) == (complex(lam).imag == 0.0 and complex(beta).imag == 0.0)
    # beta defaults to alpha
    assert expansion_coefficient(alpha, lam, 2, 1) == \
        expansion_coefficient(alpha, lam, 2, 1, alpha)


# -------------------------------------------------------------- certificates

def test_lemma2_i_passes_interior():
    ctx = sector_context(0.6, 1.0)
    rep = certify_lemma2_i(ctx, n_points=12, t_max_factor=50.0)
    assert rep.verdict == "PASS"
    assert 0.0 < rep.worst_ratio <= 1.0
    assert rep.constants["m"] >= rep.constants["m1"]


def test_lemma2_i_rejects_exterior_context():
    ctx = sector_context(0.6, -1.0)
    with pytest.raises(SectorContextError):
        certify_lemma2_i(ctx)


def test_lemma2_ii_passes_and_carries_zform():
    ctx = sector_context(0.5, 2.0)
    rep = certify_lemma2_ii(ctx, n_points=12, t_max_factor=50.0)
    assert rep.verdict == "PASS"
    assert rep.constants["zform_worst_ratio"] <= 1.0
    assert any("z-form" in note for note in rep.notes)


def test_lemma2_iii_passes_exterior():
    ctx = sector_context(0.6, -1.0)
    rep = certify_lemma2_iii(ctx, n_points=12, t_max_factor=50.0)
    assert rep.verdict == "PASS"


def test_shrunk_constant_fails():
    # deep shrink: the measured values must overshoot the allowed envelope
    ctx = sector_context(0.6, 1.0)
    rep = certify_lemma2_i(ctx, n_points=8, t_max_factor=20.0,
                           constant_scale=1e-3)
    assert rep.verdict == "FAIL"
    assert rep.worst_ratio > 1.0


def test_inflated_error_goes_inconclusive():
    ctx = sector_context(0.6, 1.0)
    rep = certify_lemma2_i(ctx, n_points=8, t_max_factor=20.0,
                           err_inflate=1e14)
    assert rep.verdict == "INCONCLUSIVE"


def test_harmonized_constant_still_passes():
    ctx = sector_context(0.6, 1.0)
    rep = certify_lemma2_i(ctx, n_points=8, t_max_factor=20.0, harmonized=True)
    assert rep.verdict == "PASS"
    assert rep.constants["m"] <= rep.constants["m_printed"]


def test_lemma4_certificate_and_slopes():
    ctx = sector_context(0.8, cmath.exp(0.75j * math.pi))
    rep = certify_lemma4(ctx, l_max=1, n_points=10, t_max_factor=100.0)
    assert rep.verdict == "PASS"
    assert rep.constants["max_route_gap"] <= 1e-9
    # fitted tail exponents approach -alpha and -2*alpha
    assert rep.constants["slope_e1_l0"] <= -0.8 + 0.1
    assert rep.constants["slope_eaa_l0"] <= -1.6 + 0.1


def test_lemma4_rejects_interior_context():
    ctx = sector_context(0.8, 1.0)
    with pytest.raises(SectorContextError):
        certify_lemma4(ctx)


# the gate's exterior contexts (criteria 4 and 5) and one where the
# measuring path puts the grid in G+, so the explicit term enters
_EXTERIOR = [
    sector_context(0.6, -1.0),
    sector_context(0.4, cmath.exp(0.9j * math.pi)),
    sector_context(0.8, cmath.exp(0.75j * math.pi)),
    sector_context(0.5, cmath.exp(0.26j * math.pi)),
]


@pytest.mark.parametrize("ctx", _EXTERIOR)
def test_exterior_certificates_agree_with_scalar_evaluate(ctx):
    paa = MLParams(ctx.alpha, complex(ctx.alpha))
    p1 = MLParams(ctx.alpha, 1.0)
    iii = certify_lemma2_iii(ctx, n_points=12, t_max_factor=100.0)
    for pt in iii.points:
        weight = pt.t ** (ctx.alpha - 1.0)
        ref = evaluate(paa, ctx.lam, pt.t, 0)
        assert abs(pt.measured - abs(ref.value) * weight) <= \
            pt.err + ref.err_estimate * weight, pt.t
    rep = certify_lemma4(ctx, l_max=2, n_points=8, t_max_factor=100.0)
    fams = {"E1": p1, "EAA": paa}
    for pt in rep.points:
        fam, l = pt.label.split(" l=")
        ref = evaluate(fams[fam], ctx.lam, pt.t, int(l))
        assert abs(pt.measured - abs(ref.value)) <= pt.err + ref.err_estimate, \
            (pt.t, pt.label)


def test_g_plus_exterior_context_measures_through_the_explicit_term():
    # at arg lambda = 0.26 pi, alpha = 0.5 the first admissible path has
    # rays at 0.375 pi, so the whole grid lies in G+ of it
    ctx = _EXTERIOR[-1]
    z0 = ctx.lam * ctx.t0 ** ctx.alpha
    spec = next(contour.admissible_specs(ctx.alpha, z0))
    assert contour.classify_region(spec, z0) is contour.RegionClass.G_PLUS
    rep = certify_lemma4(ctx, l_max=1, n_points=8, t_max_factor=100.0)
    assert rep.verdict == "PASS"


def test_exterior_certificates_make_one_batched_integral_per_family_order_path(
        monkeypatch):
    # criterion 5's input: no scalar route, one array integral per
    # (family, order, path) for lemma4 and one for lemma2-iii
    calls = []
    batched = contour.cauchy_integral

    def counted(spec, p, z, controls, order):
        calls.append(np.shape(z))
        return batched(spec, p, z, controls, order)

    def refused(*args, **kwargs):
        raise AssertionError("scalar evaluation in an exterior certificate")

    monkeypatch.setattr(contour, "cauchy_integral", counted)
    monkeypatch.setattr("mlfunc.series.evaluate", refused)
    monkeypatch.setattr(bounds, "ml_eval", refused)
    ctx = sector_context(0.8, cmath.exp(0.75j * math.pi))
    rep = certify_lemma4(ctx, l_max=2, n_points=24, t_max_factor=100.0)
    assert rep.verdict == "PASS"
    assert calls == [(24,)] * 12
    calls.clear()
    rep = certify_lemma2_iii(ctx, n_points=40, t_max_factor=200.0)
    assert rep.verdict == "PASS"
    assert calls == [(40,)]
    assert not hasattr(bounds, "_route_gap")


def test_certificate_grid_is_recorded():
    ctx = sector_context(0.6, -1.0)
    rep = certify_lemma2_iii(ctx, n_points=9, t_max_factor=30.0)
    ts = [pt.t for pt in rep.points]
    assert len(ts) == 9
    assert ts[0] == pytest.approx(ctx.t0)
    assert ts[-1] == pytest.approx(30.0 * ctx.t0)
    assert all(b > a for a, b in zip(ts, ts[1:]))


# -------------------------------------------------------------- limit check

def test_limit_check_exponential_kernel_exact_value():
    # g = exp(-s), lambda = 2, alpha = 1/2: Laplace value is 2/(1+4) * 1 = 2/5
    rep = lemma3_limit_check(0.5, 2.0, LIMIT_KERNELS["exp"],
                             u_grid=(4.0, 8.0, 16.0))
    assert rep.rhs == pytest.approx(0.4, rel=1e-10)
    assert rep.points[-1].abs_error <= 1e-9
    assert rep.decreasing_within_noise


def test_limit_check_constant_kernel_is_reciprocal_lambda():
    rep = lemma3_limit_check(0.5, 1.5, LIMIT_KERNELS["const"],
                             u_grid=(4.0, 8.0, 16.0))
    assert rep.rhs == pytest.approx(2.0 / 3.0, rel=1e-10)
    assert rep.points[-1].abs_error <= 1e-9


def test_limit_check_complex_lambda_inside_sector():
    lam = 1.2 * cmath.exp(0.2j)  # |arg| = 0.2 < 0.25*pi
    rep = lemma3_limit_check(0.5, lam, LIMIT_KERNELS["damped-cos"],
                             u_grid=(4.0, 8.0, 16.0))
    assert rep.points[-1].abs_error <= max(1e-8, 10 * rep.points[-1].err_estimate)


def test_limit_check_validates_sector():
    with pytest.raises(SectorContextError, match="hypothesis violated"):
        lemma3_limit_check(0.5, -1.0, LIMIT_KERNELS["exp"])
    with pytest.raises(SectorContextError, match="hypothesis violated"):
        lemma3_limit_check(0.5, 1.2 * cmath.exp(0.9j), LIMIT_KERNELS["exp"])


@pytest.mark.parametrize("lam", [math.nan, complex(math.nan, 0.0), complex(1.0, math.inf)])
def test_limit_check_rejects_non_finite_lambda(lam):
    # a NaN lambda once slipped past the sector tests into the quadrature
    with pytest.raises(DomainError, match="argument lam must be finite"):
        lemma3_limit_check(0.5, lam, LIMIT_KERNELS["exp"])


def test_limit_check_evaluator_branch(monkeypatch):
    # |lambda u^a|**(1/a) cancels about 3.1 digits in a plain sum at u = 6,
    # past the 2.5 the ratio series takes, so E comes from ml_eval
    def refused(*args):
        raise AssertionError("the ratio series ran")

    monkeypatch.setattr(bounds, "_series_by_ratios", refused)
    lam = 1.2 * cmath.exp(0.7j)
    rep = lemma3_limit_check(0.5, lam, LIMIT_KERNELS["exp"], u_grid=(2.0, 4.0, 6.0))
    assert abs(rep.rhs - lam / (lam * lam + 1.0)) <= 1e-12
    assert rep.decreasing_within_noise


@pytest.mark.parametrize("u_grid", [(2.0, math.nan, 6.0), (2.0, 4.0, math.inf)])
def test_limit_check_rejects_non_finite_grid(u_grid):
    # a NaN entry once passed the increasing-grid check and was blamed on z
    with pytest.raises(DomainError, match="argument u_grid must be finite"):
        lemma3_limit_check(0.5, 2.0, LIMIT_KERNELS["exp"], u_grid=u_grid)


def test_limit_check_errors_shrink_with_u():
    rep = lemma3_limit_check(0.5, 2.0, LIMIT_KERNELS["exp"],
                             u_grid=(2.0, 4.0, 6.0))
    errs = [pt.abs_error for pt in rep.points]
    assert errs[-1] < errs[0]


def test_ratio_series_cut_at_the_call_keeps_every_digit():
    # the plan is sized at z_top = 2 * 50**0.5; a call at smaller |z| cuts
    # the table at its own largest |z|, 24 digits under that peak, and
    # sums what the whole table sums, to rounding
    plan = bounds._term_ratio_plan(0.5, complex(0.5), 2.0 * 50.0 ** 0.5)
    for z_max in (0.3, 2.0, 6.0, 14.0):
        z = z_max * np.exp(1j * np.linspace(-0.6, 0.6, 7)) * np.linspace(0.2, 1.0, 7)
        got = bounds._series_by_ratios(0.5, complex(0.5), plan, z)
        terms = np.cumprod(z[:, None] * plan[0], axis=1)
        whole = complex(recip_gamma(0.5)) * (1.0 + terms.sum(axis=1))
        assert np.all(np.abs(got - whole) <= 1e-15 * np.abs(terms).sum(axis=1))
