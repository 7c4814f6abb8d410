"""Shared numeric kernel: arg/power conventions, quadrature, 1/Gamma."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfunc.numcore import (
    _NODES,
    DomainError,
    QuadratureControls,
    QuadratureError,
    circular_arc,
    cpow,
    integrate_path,
    _eval_panel,
    line_segment,
    principal_arg,
    radial_ray,
    recip_gamma,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------- principal_arg

def test_principal_arg_branch_cut_maps_to_plus_pi():
    assert principal_arg(complex(-1.0, 0.0)) == math.pi
    # the signed-zero lower edge must land on +pi as well
    assert principal_arg(complex(-1.0, -0.0)) == math.pi


def test_principal_arg_axes():
    assert principal_arg(2.0) == 0.0
    assert principal_arg(1j) == pytest.approx(math.pi / 2)
    assert principal_arg(-3j) == pytest.approx(-math.pi / 2)


@given(finite_floats, finite_floats)
def test_principal_arg_range(x, y):
    z = complex(x, y)
    if z == 0:
        return
    a = principal_arg(z)
    assert -math.pi < a <= math.pi


@given(finite_floats, st.floats(min_value=1e-6, max_value=1e6))
def test_principal_arg_conjugation(x, y):
    # off the real axis, arg(conj z) = -arg(z)
    z = complex(x, y)
    assert principal_arg(z.conjugate()) == pytest.approx(-principal_arg(z))


# ------------------------------------------------------------------------ cpow

def test_cpow_principal_branch():
    v = cpow(complex(-1.0, 0.0), 0.5)
    assert v == pytest.approx(1j)
    v = cpow(complex(-4.0, 0.0), 0.5)
    assert v == pytest.approx(2j)


@given(st.floats(min_value=0.05, max_value=50.0),
       st.floats(min_value=-math.pi + 1e-6, max_value=math.pi),
       st.floats(min_value=-3.0, max_value=3.0))
def test_cpow_modulus_and_argument(r, phi, a):
    z = r * cmath.exp(1j * phi)
    w = cpow(z, a)
    assert abs(w) == pytest.approx(r ** a, rel=1e-12)
    # principal branch: arg(z^a) = a * arg(z) up to wrap; no wrap for |a*phi| < pi
    if abs(a * principal_arg(z)) < math.pi - 1e-6:
        assert principal_arg(w) == pytest.approx(a * principal_arg(z), abs=1e-12)


def test_cpow_integer_exponents_match_builtin():
    z = complex(1.3, -0.8)
    assert cpow(z, 2.0) == pytest.approx(z * z, rel=1e-14)
    assert cpow(z, 0.0) == 1.0


# -------------------------------------------------------------- path segments

def test_line_segment_endpoints_and_velocity():
    seg = line_segment(complex(1, 1), complex(3, -2))
    s = np.array([0.0, 0.5, 1.0])
    pts = seg.point(s)
    assert pts[0] == pytest.approx(1 + 1j)
    assert pts[-1] == pytest.approx(3 - 2j)
    vel = seg.velocity(s)
    assert np.allclose(vel, (3 - 2j) - (1 + 1j))


def test_circular_arc_parametrized_by_angle():
    arc = circular_arc(1.0, -math.pi / 2, math.pi / 2)
    assert (arc.s0, arc.s1) == (-math.pi / 2, math.pi / 2)
    pts = arc.point(np.array([arc.s0, 0.0, arc.s1]))
    assert pts[0] == pytest.approx(-1j)
    assert pts[1] == pytest.approx(1.0)
    assert pts[2] == pytest.approx(1j)


def test_radial_ray_parametrized_by_radius():
    ray = radial_ray(math.pi / 4, 1.0, 5.0)
    pts = ray.point(np.array([1.0, 5.0]))
    assert abs(pts[0]) == pytest.approx(1.0)
    assert abs(pts[1]) == pytest.approx(5.0)
    assert principal_arg(pts[0]) == pytest.approx(math.pi / 4)


# ----------------------------------------------------------------- quadrature

def test_integrate_polynomial_on_segment():
    # integral of z^2 over [0, 1+i] is (1+i)^3 / 3
    path = [line_segment(0.0, complex(1, 1))]
    val, err = integrate_path(lambda z: z ** 2, path)
    want = (1 + 1j) ** 3 / 3
    assert val == pytest.approx(want, rel=1e-13)
    assert abs(val - want) <= 10 * max(err, 1e-16)


def test_integrate_residue_on_closed_circle():
    # two half arcs close the unit circle; integral of 1/z is 2*pi*i
    path = [circular_arc(1.0, 0.0, math.pi), circular_arc(1.0, math.pi, 2 * math.pi)]
    val, _ = integrate_path(lambda z: 1.0 / z, path)
    assert val == pytest.approx(2j * math.pi, rel=1e-12)


def test_integrate_exponential_decay_on_ray():
    # integral over the ray arg = 0 from 1 to 40 of exp(-z) dz = e^-1 - e^-40
    path = [radial_ray(0.0, 1.0, 40.0)]
    val, _ = integrate_path(lambda z: np.exp(-z), path)
    assert val == pytest.approx(math.exp(-1) - math.exp(-40), rel=1e-12)


@given(st.floats(min_value=0.1, max_value=0.9))
@settings(max_examples=20, deadline=None)
def test_integrate_path_split_additivity(frac):
    a, b = complex(0, 0), complex(2, 1)
    mid = a + frac * (b - a)
    f = lambda z: np.exp(z) * z
    whole, _ = integrate_path(f, [line_segment(a, b)])
    parts, _ = integrate_path(f, [line_segment(a, mid), line_segment(mid, b)])
    assert whole == pytest.approx(parts, rel=1e-11)


def test_integrate_arclength_mode():
    val, _ = integrate_path(lambda z: np.ones_like(z),
                            [line_segment(0.0, complex(3, 4))], arclength=True)
    assert val == pytest.approx(5.0, rel=1e-13)
    val, _ = integrate_path(lambda z: np.ones_like(z),
                            [circular_arc(2.0, 0.0, math.pi)], arclength=True)
    assert val == pytest.approx(2 * math.pi, rel=1e-12)


def test_integrate_zero_function_converges():
    val, err = integrate_path(lambda z: np.zeros_like(z),
                              [line_segment(0.0, 1.0)])
    assert val == 0.0
    assert err == pytest.approx(0.0, abs=1e-15)


def test_quadrature_error_on_divergent_integrand():
    with pytest.raises(QuadratureError):
        integrate_path(lambda z: 1.0 / z, [line_segment(0.0, 1.0)],
                       QuadratureControls(max_panels=64))


def test_quadrature_error_on_non_finite_integrand():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(QuadratureError, match="not finite on the path panel"):
            integrate_path(lambda z: np.exp(1e3 * z), [line_segment(0.0, 1.0)])


def test_ray_evaluates_each_panel_once():
    # the doubling blocks that locate the tail cut are reused as panels, so
    # the integrand is never called twice on the same nodes
    calls = []

    def f(z):
        calls.append(tuple(z.tolist()))
        return np.exp(-z) * z

    val, _ = integrate_path(f, [radial_ray(0.0, 1.0)])
    assert val == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
    assert len(calls) > 2
    assert len(calls) == len(set(calls))


def _decay_rows(z, rates):
    return np.exp(-np.outer(rates, z))


@pytest.mark.parametrize("arclength", [False, True])
@pytest.mark.parametrize("rates", [[1.0], [0.5, 1.0, 3.0]], ids=["1-row", "3-row"])
@pytest.mark.parametrize("seg, a, b", [(radial_ray(0.4, 1.0), 1.0, 3.0),
                                       (circular_arc(2.0, -2.0, 2.0), -1.5, 0.7)],
                         ids=["ray", "arc"])
def test_two_panel_call_gives_the_rows_of_two_one_panel_calls(seg, a, b, rates, arclength):
    # a bisection evaluates both halves with one integrand call on their 30
    # nodes; each half's row is the one-panel call's, bit for bit
    calls = []

    def f(z):
        calls.append(z.size)
        rows = _decay_rows(z, np.array(rates))
        return rows[0] if len(rates) == 1 else rows

    mid = 0.5 * (a + b)
    both, _, single = _eval_panel(f, seg, (a, mid, b), arclength)
    low = _eval_panel(f, seg, (a, mid), arclength)[0]
    high = _eval_panel(f, seg, (mid, b), arclength)[0]
    assert calls == [30, 15, 15]
    assert single == (len(rates) == 1)
    assert both.shape == (2, 4 * len(rates))
    assert both.tobytes() == np.concatenate((low, high)).tobytes()


def test_bisections_evaluate_both_halves_in_one_call():
    # the seed panel is one 15-node call; every later call carries the 30
    # nodes of a bisected panel's two halves
    calls = []

    def f(z):
        calls.append(z.size)
        return np.stack((np.exp(3.0 * z), 1.0 / (z + 0.05)))

    val, _ = integrate_path(f, [line_segment(0.0, 1.0)])
    assert val[1] == pytest.approx(math.log(21.0), rel=1e-12)
    assert calls[0] == 15 and len(calls) > 3
    assert set(calls[1:]) == {30}


@pytest.mark.parametrize("arclength", [False, True])
@pytest.mark.parametrize("rates", [[1.0], [0.5, 1.0, 3.0]], ids=["1-row", "3-row"])
@pytest.mark.parametrize("seg, edges", [
    (radial_ray(0.4, 1.0), [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
    (circular_arc(2.0, -2.0, 2.0), [[-2.0, -1.75, -1.5], [-0.3, 0.1, 0.5], [1.2, 1.6, 2.0]]),
], ids=["6-seed-blocks", "3-bisections"])
def test_k_panel_call_gives_each_panel_the_row_of_a_one_panel_call(seg, edges, rates, arclength):
    # one integrand call on all the panels' nodes; each panel's row is the
    # one-panel call's, bit for bit, and its edges are reported with it
    calls = []

    def f(z):
        calls.append(z.size)
        rows = _decay_rows(z, np.array(rates))
        return rows[0] if len(rates) == 1 else rows

    rows, (lo, hi), single = _eval_panel(f, seg, edges, arclength)
    runs = np.atleast_2d(edges)
    want_lo, want_hi = runs[:, :-1].ravel(), runs[:, 1:].ravel()
    assert calls == [90]
    assert single == (len(rates) == 1)
    assert rows.shape == (6, 4 * len(rates))
    assert lo.tolist() == want_lo.tolist() and hi.tolist() == want_hi.tolist()
    for row, a, b in zip(rows, want_lo, want_hi):
        one = _eval_panel(f, seg, (a, b), arclength)[0]
        assert row.tobytes() == one[0].tobytes()


def test_sweeps_bisect_many_panels_in_one_call_per_segment():
    # an oscillating integrand is refined everywhere: each sweep bisects
    # every panel of a segment with one call on all their halves, so there
    # are far fewer calls than bisections, and no node set repeats
    pieces = [line_segment(0.0, 1.0), line_segment(1.0, 2.0)]
    calls = []

    def f(z):
        calls.append(tuple(z.tolist()))
        return np.exp(40j * z)

    val, _ = integrate_path(f, pieces)
    assert val == pytest.approx((cmath.exp(80j) - 1.0) / 40j, rel=1e-12)
    seeds, sweeps = calls[:2], calls[2:]
    bisections = sum(len(nodes) for nodes in sweeps) // 30
    assert [len(nodes) for nodes in seeds] == [15, 15]
    assert all(len(nodes) % 30 == 0 for nodes in sweeps)
    # each call holds the nodes of one segment only
    assert all(max(x.real for x in nodes) <= 1.0 or min(x.real for x in nodes) >= 1.0
               for nodes in sweeps)
    assert bisections >= 6
    assert len(sweeps) <= bisections // 2
    assert len(calls) == len(set(calls))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_seed_blocks_past_the_cut_never_raise_or_warn():
    # exp(z - 700) overflows on the doubling blocks past 1024, which the
    # second seed call lays out after the cut block [64, 128]; they are
    # dropped before any check
    calls = []

    def f(z):
        calls.append(z.size)
        return np.exp(-z) + np.exp(z - 700.0)

    with np.errstate(all="warn"):
        val, _ = integrate_path(f, [radial_ray(0.0, 1.0)])
    assert val == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert calls[:2] == [90, 90]  # six blocks to a seed call


def test_non_finite_value_in_a_kept_seed_block_names_that_block():
    # the pole sits on a node of the fourth doubling block [4, 8]
    pole = 6.0 + 2.0 * _NODES[3]
    with pytest.raises(QuadratureError, match=r"panel from 4\+0j to 8\+0j"):
        integrate_path(lambda z: np.exp(-z) + 1.0 / (z - pole), [radial_ray(0.0, 1.0)])


def test_near_path_integrand_converges_without_a_running_sum():
    # the Cauchy kernel of order 1 at 1e-4 from the upper ray of
    # ContourSpec(0.6, 0.45 pi): a running error sum kept the residue of
    # its large early panel errors and exhausted 4096 panels; sums rebuilt
    # from the live panels converge
    theta, inv_alpha = 0.45 * math.pi, 1.0 / 0.6
    ray = cmath.exp(1j * theta)
    z = 3.0 * ray + 1e-4j * ray
    calls = []

    def f(zeta):
        calls.append(zeta.size)
        return np.exp(zeta ** inv_alpha) / (zeta - z) ** 2

    val, err = integrate_path(f, [radial_ray(theta, 1.0)])
    assert cmath.isfinite(val) and err < 1e-10
    assert sum(calls) // 15 < 4096 and len(calls) < 100


def test_budget_exhausted_mid_sweep_carries_every_row():
    # the sweep after 8 panels would bisect all of them; only the two with
    # the largest share of the target fit under max_panels = 10, and the
    # error carries the estimate of both rows on those 10 live panels
    nodes = []

    def f(z):
        nodes.append(z.size)
        return np.stack((np.exp(z), np.exp(60j * z)))

    with pytest.raises(QuadratureError) as info:
        integrate_path(f, [line_segment(0.0, 1.0)], QuadratureControls(max_panels=10))
    exact = np.array([math.e - 1.0, (cmath.exp(60j) - 1.0) / 60j])
    value, err = info.value.value, info.value.err_estimate
    assert np.shape(value) == np.shape(err) == (2,)
    assert np.all(np.abs(value - exact) <= err)
    assert abs(value[0] - exact[0]) <= 1e-13
    assert 1 + (sum(nodes) - 15) // 30 == 10  # live panels at the raise


def test_non_finite_value_in_the_second_half_names_that_panel():
    # the pole sits on a node of the half [0.5, 1], none of the seed's
    pole = 0.75 + 0.25 * _NODES[3]
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(QuadratureError, match=r"panel from 0\.5\+0j to 1\+0j"):
            integrate_path(lambda z: 1.0 / (z - pole), [line_segment(0.0, 1.0)])


def test_vector_integrand_matches_scalar_calls():
    # n integrands on one partition: each row agrees with its own scalar
    # integral, and the result has one value and one error per row
    rates = np.array([0.5, 1.0, 3.0])
    path = [radial_ray(0.4, 1.0)]
    vals, errs = integrate_path(lambda z: _decay_rows(z, rates), path)
    assert vals.shape == errs.shape == (3,)
    for j, rate in enumerate(rates):
        one, one_err = integrate_path(lambda z: np.exp(-rate * z), path)
        assert abs(vals[j] - one) <= errs[j] + one_err
        want = cmath.exp(-rate * cmath.exp(0.4j)) / rate
        assert vals[j] == pytest.approx(want, rel=1e-12)


def test_vector_integrand_single_row_keeps_array_shape():
    vals, errs = integrate_path(lambda z: z[None, :] ** 2,
                                [line_segment(0.0, complex(1, 1))])
    assert vals.shape == errs.shape == (1,)
    assert vals[0] == pytest.approx((1 + 1j) ** 3 / 3, rel=1e-13)


def test_vector_integrand_rows_stop_on_their_own_targets():
    # a smooth row next to an oscillating one 200 orders of magnitude
    # smaller: with a negligible abs_tol the small row must still reach
    # rel_tol against its own total, not stop on the large row's target
    controls = QuadratureControls(rel_tol=1e-12, abs_tol=1e-300)

    def f(z):
        return np.stack((np.exp(-z), 1e-200 * np.exp(-z) * np.cos(10.0 * z)))

    vals, errs = integrate_path(f, [radial_ray(0.0, 1.0)], controls)
    want = np.array([math.exp(-1.0),
                     1e-200 * (cmath.exp(complex(-1.0, 10.0)) / complex(1.0, -10.0)).real])
    assert np.all(np.abs(vals - want) <= 1e-12 * np.abs(want))
    assert np.all(errs <= 1e-12 * np.abs(want))


def test_vector_ray_tail_waits_for_the_slowest_row():
    # the fast row drops below the truncation threshold long before the slow
    # one; cutting on the fast row alone would lose most of the slow integral
    rates = np.array([5.0, 0.02])
    vals, _ = integrate_path(lambda z: _decay_rows(z, rates), [radial_ray(0.0, 1.0)])
    want = np.exp(-rates) / rates
    assert vals == pytest.approx(want, rel=1e-12)


def test_vector_integrand_budget_error_carries_every_row():
    with pytest.raises(QuadratureError) as info:
        integrate_path(lambda z: np.stack((np.ones_like(z), 1.0 / z)),
                       [line_segment(0.0, 1.0)], QuadratureControls(max_panels=64))
    assert np.shape(info.value.value) == np.shape(info.value.err_estimate) == (2,)


def test_integrand_of_wrong_shape_is_rejected():
    with pytest.raises(DomainError):
        integrate_path(lambda z: np.ones((2, 2, z.size)), [line_segment(0.0, 1.0)])


def test_quadrature_controls_validation():
    with pytest.raises(DomainError):
        QuadratureControls(rel_tol=-1.0)
    with pytest.raises(DomainError):
        QuadratureControls(max_panels=0)


@pytest.mark.parametrize("kwargs, name", [
    ({"rel_tol": math.inf}, "rel_tol"),
    ({"rel_tol": math.nan}, "rel_tol"),
    ({"abs_tol": math.inf}, "abs_tol"),
    ({"abs_tol": math.nan}, "abs_tol"),
    ({"max_panels": math.nan}, "max_panels"),
], ids=["rel_tol-inf", "rel_tol-nan", "abs_tol-inf", "abs_tol-nan", "max_panels-nan"])
def test_quadrature_controls_reject_non_finite_settings(kwargs, name):
    # an infinite tolerance would stop integrate_path on its seeds, and a
    # NaN budget is not < 2 and would never run out
    with pytest.raises(DomainError, match=f"argument {name} must be finite"):
        QuadratureControls(**kwargs)


@pytest.mark.parametrize("call, name", [
    (lambda: line_segment(math.nan, 1.0), "z0"),
    (lambda: line_segment(0.0, complex(1.0, math.inf)), "z1"),
    (lambda: circular_arc(math.nan, 0.0, 1.0), "radius"),
    (lambda: circular_arc(1.0, math.nan, 1.0), "phi0"),
    (lambda: circular_arc(1.0, 0.0, math.inf), "phi1"),
    (lambda: radial_ray(math.nan, 1.0), "angle"),
    (lambda: radial_ray(0.5, math.inf), "r0"),
    (lambda: radial_ray(0.5, 1.0, math.nan), "r1"),
], ids=["line-z0", "line-z1", "arc-radius", "arc-phi0", "arc-phi1", "ray-angle",
        "ray-r0", "ray-r1"])
def test_path_segments_reject_non_finite_arguments(call, name):
    # the error names the argument, before any quadrature runs
    with pytest.raises(DomainError, match=f"argument {name} must be finite"):
        call()


# ---------------------------------------------------------------- recip_gamma

_RECIP_GAMMA_REFERENCE = {
    complex(0.5, 0.0): complex(0.5641895835477563, 0.0),
    complex(1.0, 0.0): complex(1.0, 0.0),
    complex(4.7, 0.0): complex(0.0648028855634261, 0.0),
    complex(-0.5, 0.0): complex(-0.28209479177387814, 0.0),
    complex(-3.2, 0.0): complex(1.4512599876819996, 0.0),
    complex(0.35, 0.0): complex(0.3927503042636111, 0.0),
    complex(2.5, -3.0): complex(-4.133789722360595, 1.3652025000361294),
    complex(-1.5, 2.5): complex(-89.94513949667953, -120.66973101214583),
    complex(0.0, 1.0): complex(-0.5696076410366818, 1.8307443965905248),
    complex(12.3, 4.5): complex(5.959482900624081e-09, 2.7073429752109166e-08),
    complex(-6.7, -0.3): complex(-1182.0906764323418, -120.15731672841181),
    complex(171.0, 0.0): complex(1.3779009677917706e-307, 0.0),
}


@pytest.mark.parametrize("z,want", sorted(_RECIP_GAMMA_REFERENCE.items(),
                                          key=lambda kv: (kv[0].real, kv[0].imag)))
def test_recip_gamma_reference_grid(z, want):
    got = recip_gamma(z)
    assert got == pytest.approx(want, rel=2e-13, abs=1e-320)


def test_recip_gamma_pole_zeros():
    # 1/Gamma vanishes at the poles of Gamma
    for n in range(0, 6):
        assert recip_gamma(complex(-n, 0.0)) == 0.0


def test_recip_gamma_positive_integers():
    for n in range(1, 10):
        assert recip_gamma(float(n)) == pytest.approx(1.0 / math.factorial(n - 1),
                                                      rel=1e-13)


def test_recip_gamma_underflow_returns_zero():
    # Gamma overflows near 171.6 on the positive axis; 1/Gamma just underflows
    assert recip_gamma(200.0) == 0.0
    assert recip_gamma(complex(500.0, 3.0)) == 0.0


def test_recip_gamma_reflection_overflow_is_loud():
    # on the far negative axis 1/Gamma genuinely overflows; silent garbage
    # would poison series coefficients, so the overflow must propagate
    with pytest.raises(OverflowError):
        recip_gamma(-200.5)


def _recip_gamma_grid_points():
    # real grid points at least 1e-6 from the poles of Gamma
    right = np.linspace(0.3, 170.0, 400)
    left = [x for x in np.linspace(-30.0, 0.3, 400) if abs(x - round(x)) >= 1e-6]
    return [float(x) for x in np.concatenate([right, left])]


def test_recip_gamma_matches_mpmath_on_the_real_axis():
    with mpmath.workdps(40):
        for x in _recip_gamma_grid_points():
            want = mpmath.rgamma(mpmath.mpf(x))
            got = recip_gamma(x)
            assert got.imag == 0.0
            assert abs(got.real - want) <= 8 * np.finfo(float).eps * abs(want), x


@pytest.mark.parametrize("x", [171.64, 171.7, 171.81])
def test_recip_gamma_finite_where_gamma_just_overflows(x):
    got = recip_gamma(x)
    assert cmath.isfinite(got)
    assert got.real >= 0.0 and got.imag == 0.0


@given(st.floats(min_value=0.2, max_value=30.0))
def test_recip_gamma_recurrence(x):
    # 1/Gamma(x+1) = (1/Gamma(x)) / x
    lhs = recip_gamma(x + 1.0)
    rhs = recip_gamma(x) / x
    assert lhs == pytest.approx(rhs, rel=5e-13)
