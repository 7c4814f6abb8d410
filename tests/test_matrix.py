"""Jordan-structured matrix evaluation, spectral gating, decay and integral checks."""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mlfunc import contour as contour_module
from mlfunc import matrixfn as matrixfn_module
from mlfunc.matrixfn import (
    JordanSpec,
    decay_check,
    integral_check,
    ml_jordan_block,
    ml_matrix,
    spectral_condition,
)
from mlfunc.bounds import SectorContextError, lemma4_constants, sector_context
from mlfunc.numcore import DomainError, recip_gamma
from mlfunc.series import MLParams, evaluate, ml_series_deriv


# --------------------------------------------------------------- JordanSpec

def test_jordan_spec_validation():
    with pytest.raises(DomainError):
        JordanSpec(blocks=())
    with pytest.raises(DomainError):
        JordanSpec(blocks=((-1.0, 0),))
    t = np.eye(2)
    with pytest.raises(DomainError):
        JordanSpec(blocks=((-1.0, 2),), transform=t)   # inverse missing
    with pytest.raises(DomainError):
        # claimed inverse does not invert the transform
        JordanSpec(blocks=((-1.0, 2),), transform=t, transform_inv=2 * t)


def test_jordan_spec_dimension():
    spec = JordanSpec(blocks=((-1.0, 2), (0.5j, 3)))
    assert spec.dimension == 5


def test_from_matrix_diagonalizable():
    a = np.array([[0.0, 1.0], [-2.0, -3.0]])
    spec = JordanSpec.from_matrix(a)
    assert sorted(b[1] for b in spec.blocks) == [1, 1]
    eigs = sorted(b[0].real for b in spec.blocks)
    assert eigs == pytest.approx([-2.0, -1.0])
    # the factorization reproduces the matrix
    j = np.diag([b[0] for b in spec.blocks])
    back = spec.transform @ j @ spec.transform_inv
    assert np.allclose(back, a, atol=1e-12)


def test_from_matrix_rejects_defective():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(DomainError, match="ill-conditioned"):
        JordanSpec.from_matrix(a)


# ------------------------------------------------------------- block values

def test_block_is_upper_toeplitz_of_derivatives():
    p = MLParams(0.7, 1.0)
    lam, t, size = -0.8, 0.9, 4
    block = ml_jordan_block(p, lam, size, t)
    for j in range(size):
        want = ml_series_deriv(p, lam, t, j).value / math.factorial(j)
        assert block[0, j] == want
        for r in range(1, size - j):
            assert block[r, r + j] == block[0, j]
    assert np.all(np.tril(block, -1) == 0)


def test_block_alpha_one_is_matrix_exponential():
    p = MLParams(1.0, 1.0)
    lam = -0.3
    block = ml_jordan_block(p, lam, 2, 1.0)
    e = math.exp(lam)
    assert block[0, 0] == pytest.approx(e, rel=1e-14)
    assert block[0, 1] == pytest.approx(e, rel=1e-14)
    assert block[1, 1] == pytest.approx(e, rel=1e-14)
    assert block[1, 0] == 0


def test_block_at_time_zero():
    p = MLParams(0.6, 1.4)
    block = ml_jordan_block(p, 2.0 + 1.0j, 3, 0.0)
    assert np.allclose(block, recip_gamma(1.4) * np.eye(3))


def test_block_contour_region_matches_derivative_route():
    # |lambda| t^alpha large enough that the contour route is exercised
    p = MLParams(0.5, 0.5)
    lam = cmath.exp(0.9j * math.pi)
    block = ml_jordan_block(p, lam, 2, 400.0)
    d1 = ml_series_deriv  # series route is not used here; compare magnitudes only
    assert abs(block[0, 0]) < 1.0
    assert np.isfinite(block).all()


@given(st.sampled_from([0.4, 0.5, 0.7, 0.9]),
       st.sampled_from([1.0, 0.5, 1.5]),
       st.floats(min_value=0.1, max_value=4.0),
       st.floats(min_value=-math.pi, max_value=math.pi),
       st.integers(min_value=1, max_value=4),
       st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=6))
@settings(max_examples=15, deadline=None)
def test_array_jordan_block_matches_scalar_calls(alpha, beta, r, phi, size, ts):
    # entry (i, r, r + j) of the stack is the j-th derivative at t_i over
    # j!, within both bars of the scalar call; the batch's bars are those of
    # the one array call the block makes
    lam = r * cmath.exp(1j * phi)
    ts = np.array(ts)
    # keep the explicit G+ term inside the double range
    assume((r * ts.max() ** alpha) ** (1.0 / alpha) < 300.0)
    p = MLParams(alpha, beta)
    stack = ml_jordan_block(p, lam, size, ts)
    assert stack.shape == (len(ts), size, size)
    batch = evaluate(p, lam, np.repeat(ts, size), np.tile(np.arange(size), len(ts)))
    errs = batch.err_estimate.reshape(len(ts), size)
    for block, t, row_errs in zip(stack, ts, errs):
        assert np.all(np.tril(block, -1) == 0)
        for j in range(size):
            one = evaluate(p, lam, float(t), j)
            bar = (row_errs[j] + one.err_estimate) / math.factorial(j)
            assert abs(block[0, j] - one.value / math.factorial(j)) <= bar
            assert np.all(np.diagonal(block, j) == block[0, j])


# ---------------------------------------------------------------- ml_matrix

def test_ml_matrix_alpha_one_matches_expm():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4))
    a = a - 3.0 * np.eye(4)          # push the spectrum left
    spec = JordanSpec.from_matrix(a)
    p = MLParams(1.0, 1.0)
    for t in (0.5, 1.0, 2.0):
        got = ml_matrix(p, spec, t)
        want = scipy.linalg.expm(t * a)
        assert np.linalg.norm(got - want, 2) <= 1e-9 * np.linalg.norm(want, 2)


def test_ml_matrix_block_diagonal_without_transform():
    p = MLParams(0.6, 1.0)
    spec = JordanSpec(blocks=((-1.0, 2), (-2.0, 1)))
    m = ml_matrix(p, spec, 3.0)
    assert m.shape == (3, 3)
    assert np.all(m[2, :2] == 0) and np.all(m[:2, 2][0:1] == 0)
    top = ml_jordan_block(p, -1.0, 2, 3.0)
    assert np.array_equal(m[:2, :2], top)


def test_ml_matrix_warns_on_ill_conditioned_transform():
    eps = 1e-14
    t = np.array([[1.0, 1.0], [1.0, 1.0 + eps]])
    spec = JordanSpec(blocks=((-1.0, 1), (-2.0, 1)),
                      transform=t, transform_inv=np.linalg.inv(t))
    with pytest.warns(UserWarning, match="condition number"):
        ml_matrix(MLParams(0.5, 1.0), spec, 1.0)


def test_array_ml_matrix_stacks_the_transformed_blocks():
    p = MLParams(0.7, 1.0)
    v = np.array([[1.0, 0.9, 0.0], [0.0, 0.5, 0.2], [0.3, 0.0, 1.0]])
    spec = JordanSpec(blocks=((-2.0, 2), (cmath.exp(0.8j * math.pi), 1)),
                      transform=v, transform_inv=np.linalg.inv(v))
    ts = np.geomspace(0.1, 100.0, 5)
    stack = ml_matrix(p, spec, ts)
    assert stack.shape == (5, 3, 3)
    blocks = [ml_jordan_block(p, lam, size, ts) for lam, size in spec.blocks]
    for i, m in enumerate(stack):
        want = v @ scipy.linalg.block_diag(*(b[i] for b in blocks)) @ np.linalg.inv(v)
        assert np.allclose(m, want, rtol=1e-14, atol=1e-15)
    assert ml_matrix(p, spec, 2.0).shape == (3, 3)


def test_ml_matrix_makes_one_path_integral_for_every_block(monkeypatch):
    # the two blocks' path entries share one cauchy_integral call per time,
    # and every entry lies within both bars of the per-block call
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return cauchy_integral(*args, **kwargs)

    cauchy_integral = contour_module.cauchy_integral
    monkeypatch.setattr(contour_module, "cauchy_integral", counted)
    p = MLParams(0.7, 1.0)
    blocks = ((-2.0, 3), (cmath.exp(0.8j * math.pi), 2))
    spec = JordanSpec(blocks=blocks)
    lams = np.array([lam for lam, size in blocks for _ in range(size)])
    orders = np.array([j for _, size in blocks for j in range(size)])
    for t in (2.31, 8.11):
        calls.clear()
        m = ml_matrix(p, spec, t)
        assert len(calls) == 1 and len(calls[0]) == 5   # all five entries on the path
        whole = evaluate(p, lams, t, orders)
        at = 0
        for lam, size in blocks:
            block = ml_jordan_block(p, lam, size, t)
            alone = evaluate(p, lam, t, np.arange(size))
            for j in range(size):
                bar = (whole.err_estimate[at + j] + alone.err_estimate[j]) / math.factorial(j)
                assert np.all(np.abs(np.diagonal(m[at:at + size, at:at + size], j)
                                     - block[0, j]) <= bar)
            at += size


@pytest.mark.parametrize("t, message", [
    ([], "argument t must be a number or a nonempty 1-D array"),
    ([[1.0, 2.0]], "argument t must be a number or a nonempty 1-D array"),
    ([1.0, math.nan], "argument t must be finite"),
    ([1.0, -1.0], "argument t must be nonnegative"),
], ids=["empty", "2d", "nan", "negative"])
def test_ml_matrix_rejects_bad_times_by_name(t, message):
    with pytest.raises(DomainError, match=message):
        ml_matrix(MLParams(0.6, 1.0), JordanSpec(blocks=((-1.0, 2),)), t)


def test_matrix_checks_make_one_path_integral_per_grid_or_panel(monkeypatch):
    # decay_check measures its whole grid with one batched path integral,
    # and integral_check makes at most one per quadrature panel
    counts = {"cauchy": 0, "ml_matrix": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(contour_module, "cauchy_integral",
                        counted("cauchy", contour_module.cauchy_integral))
    monkeypatch.setattr(matrixfn_module, "ml_matrix",
                        counted("ml_matrix", matrixfn_module.ml_matrix))
    spec = JordanSpec(blocks=((-1.0, 2),))
    decay_check(0.5, spec, t_grid=np.geomspace(5.0, 2e4, 24))
    assert counts == {"cauchy": 1, "ml_matrix": 1}
    counts.update(cauchy=0, ml_matrix=0)
    integral_check(0.5, spec, t_max=200.0)
    assert 0 < counts["cauchy"] <= counts["ml_matrix"] < 20


def test_matrix_reports_hold_python_floats():
    spec = JordanSpec(blocks=((-1.0, 2),))
    decay = decay_check(0.5, spec, t_grid=np.geomspace(5.0, 500.0, 6))
    integ = integral_check(0.5, spec, t_max=20.0)
    values = (decay.t_grid + decay.norm2 + decay.norm_inf
              + (decay.tail_slope, decay.final_norm2)
              + (integ.t_max, integ.numeric, integ.numeric_err, integ.tail_bound,
                 integ.total, integ.tail_fraction))
    assert {type(x) for x in values} == {float}


# ------------------------------------------------------- spectral condition

def test_spectral_condition_examples():
    rep = spectral_condition(np.array([[-1.0]]), 0.5)
    assert rep.satisfied
    assert rep.sector_margin == pytest.approx(math.pi - 0.25 * math.pi)

    rep = spectral_condition(np.array([[1.0]]), 0.5)
    assert not rep.satisfied

    rep = spectral_condition(np.array([[cmath.exp(0.3j * math.pi)]]), 0.5)
    assert rep.satisfied
    assert rep.sector_margin == pytest.approx(0.05 * math.pi)


def test_spectral_condition_zero_eigenvalue():
    rep = spectral_condition(np.diag([0.0, -1.0]), 0.5)
    assert not rep.satisfied
    assert any("zero" in note for note in rep.notes)


def test_spectral_condition_similarity_invariant():
    rng = np.random.default_rng(3)
    a = np.diag([-1.0, -2.0, -3.0])
    v = rng.normal(size=(3, 3)) + np.eye(3) * 2
    b = v @ a @ np.linalg.inv(v)
    ra = spectral_condition(a, 0.7)
    rb = spectral_condition(b, 0.7)
    assert ra.satisfied == rb.satisfied
    assert ra.sector_margin == pytest.approx(rb.sector_margin, rel=1e-8)


def test_spectral_condition_accepts_jordan_spec():
    spec = JordanSpec(blocks=((-1.0, 2),))
    rep = spectral_condition(spec, 0.5)
    assert rep.satisfied


# ------------------------------------------------------------- decay_check

def test_decay_check_scalar():
    spec = JordanSpec(blocks=((-1.0, 1),))
    grid = np.geomspace(5.0, 500.0, 12)
    rep = decay_check(0.5, spec, t_grid=grid)
    assert rep.strictly_decreasing
    assert rep.tail_slope == pytest.approx(-0.5, abs=0.05)
    assert rep.norm2[-1] < rep.norm2[0]
    assert len(rep.norm_inf) == len(grid)


def test_decay_check_jordan_block():
    spec = JordanSpec(blocks=((-1.0, 2),))
    grid = np.geomspace(10.0, 3e4, 14)
    rep = decay_check(0.5, spec, t_grid=grid)
    assert rep.strictly_decreasing
    assert rep.tail_slope <= -0.4
    assert rep.final_norm2 < 1e-2


def test_decay_check_mixed_spectrum():
    spec = JordanSpec(blocks=((-1.0, 1), (cmath.exp(0.9j * math.pi), 1)))
    grid = np.geomspace(5.0, 200.0, 10)
    rep = decay_check(0.4, spec, t_grid=grid)
    assert rep.strictly_decreasing


def test_decay_check_rejects_bad_sector():
    spec = JordanSpec(blocks=((1.0, 1),))     # positive eigenvalue
    with pytest.raises(SectorContextError, match="hypothesis violated"):
        decay_check(0.5, spec)


# ---------------------------------------------------------- integral_check

def test_integral_check_finite_and_tail_shrinks():
    spec = JordanSpec(blocks=((-1.0, 2),))
    r100 = integral_check(0.5, spec, t_max=100.0)
    r200 = integral_check(0.5, spec, t_max=200.0)
    assert np.isfinite(r100.numeric) and r100.numeric > 0
    assert r200.tail_bound < r100.tail_bound
    assert r200.numeric > r100.numeric
    assert r200.total == pytest.approx(r200.numeric + r200.tail_bound)
    assert r200.tail_fraction == pytest.approx(r200.tail_bound / r200.total)


def test_integral_check_requires_horizon_past_onset():
    spec = JordanSpec(blocks=((-1e-6, 1),))   # tiny eigenvalue, huge t0
    with pytest.raises(DomainError, match="t_max"):
        integral_check(0.5, spec, t_max=10.0)


def test_integral_check_rejects_bad_sector():
    spec = JordanSpec(blocks=((0.0, 1),))
    with pytest.raises(SectorContextError):
        integral_check(0.5, spec, t_max=50.0)


@pytest.mark.parametrize("call, name", [
    (lambda spec: integral_check(0.5, spec, t_max=math.inf), "t_max"),
    (lambda spec: integral_check(0.5, spec, t_max=math.nan), "t_max"),
    (lambda spec: decay_check(0.5, spec, t_grid=[5.0, math.nan, 50.0, 500.0]), "t_grid"),
    (lambda spec: decay_check(0.5, spec, t_grid=[5.0, 50.0, math.inf]), "t_grid"),
], ids=["t_max-inf", "t_max-nan", "t_grid-nan", "t_grid-inf"])
def test_matrix_checks_reject_non_finite_horizons(call, name):
    # a NaN grid entry once passed the increasing-grid check, and an
    # infinite t_max failed only inside the quadrature, as "argument t"
    with pytest.raises(DomainError, match=f"argument {name} must be finite"):
        call(JordanSpec(blocks=((-1.0, 1),)))


@pytest.mark.parametrize("alpha, blocks, t_cut, t_far", [
    (0.5, ((-1.0, 2),), 50.0, 800.0),
    (0.7, ((-2.0, 3), (cmath.exp(0.8j * math.pi), 2)), 10.0, 200.0),
    # a similarity transform scales the tail by cond(T) = 3.86
    pytest.param(0.5, JordanSpec(blocks=((-1.0, 1), (-2.0, 1)),
                                 transform=np.array([[1.0, 0.9], [0.0, 0.5]]),
                                 transform_inv=np.array([[1.0, -1.8], [0.0, 2.0]])),
                 50.0, 800.0, id="transformed"),
])
def test_integral_check_tail_covers_a_longer_horizon(alpha, blocks, t_cut, t_far):
    spec = blocks if isinstance(blocks, JordanSpec) else JordanSpec(blocks=blocks)
    near = integral_check(alpha, spec, t_max=t_cut)
    far = integral_check(alpha, spec, t_max=t_far)
    # the tail past t_cut must cover what the quadrature finds on [t_cut, t_far]
    assert far.numeric <= (near.numeric + near.tail_bound
                           + near.numeric_err + far.numeric_err)
    # and it is never larger than the first-order (Lemma 4) tail
    first_order = max(
        sum(m / math.factorial(l)
            for l, m in enumerate(lemma4_constants(
                sector_context(alpha, lam, side="exterior"), size - 1).m_hat_l))
        for lam, size in spec.blocks
    ) / (alpha * t_cut ** alpha)
    assert near.tail_bound <= first_order
