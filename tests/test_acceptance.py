"""Acceptance gate: one test per shipped guarantee, one printed verdict line each.

Every test prints exactly one line of the form

    ACCEPTANCE <n> (<name>): PASS|FAIL

and then asserts the same condition, so the verdict survives both in the
captured output and in the pytest summary.  Tolerances and grids are pinned;
they are contracts, not knobs.
"""

import cmath
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import scipy.linalg

from mlfunc.bounds import (
    LIMIT_KERNELS,
    certify_lemma2_i,
    certify_lemma2_ii,
    certify_lemma2_iii,
    certify_lemma4,
    lemma3_limit_check,
    sector_context,
)
from mlfunc.cli import main as cli_main
from mlfunc.contour import ContourSpec, ml_contour, recip_gamma_via_contour
from mlfunc.matrixfn import JordanSpec, decay_check, integral_check, ml_matrix
from mlfunc.numcore import recip_gamma
from mlfunc.series import MLParams, ml_eval, ml_series_deriv


def _verdict(n, name, ok, detail=""):
    line = f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return line


# ---------------------------------------------------------------------------

def test_acceptance_1_identities():
    ok = True
    notes = []

    for x in np.linspace(-5.0, 5.0, 41):
        got = ml_eval(MLParams(1.0, 1.0), complex(x)).value
        if abs(got - cmath.exp(x)) > 1e-12 * abs(cmath.exp(x)):
            ok, _ = False, notes.append(f"exp at {x}")

    for alpha in (0.3, 0.5, 0.7, 0.9):
        for beta in (alpha, 1.0, 2.0):
            got = ml_eval(MLParams(alpha, beta), 0j).value
            if abs(got - recip_gamma(beta)) > 1e-13:
                ok, _ = False, notes.append(f"origin at {alpha},{beta}")

    for z in (1 + 0j, -1 + 0j, 1j, -1j):
        want = (cmath.exp(z) - 1.0) / z
        got = ml_eval(MLParams(1.0, 2.0), z).value
        if abs(got - want) > 1e-12 * abs(want):
            ok, _ = False, notes.append(f"(e^z-1)/z at {z}")

    line = _verdict(1, "identity suite", ok, "; ".join(notes))
    assert ok, line


def test_acceptance_2_quadrature_selftest():
    ok = True
    worst = 0.0
    for alpha in (0.3, 0.5, 0.7, 0.9):
        for beta in (alpha, 1.0, 1.5):
            want = 0.0 if beta == alpha else recip_gamma(beta - alpha)
            got = recip_gamma_via_contour(alpha, beta)
            err = abs(got - want)
            worst = max(worst, err)
            ok = ok and err <= 1e-9
    line = _verdict(2, "quadrature self-test", ok, f"worst abs err {worst:.2e}")
    assert ok, line


def test_acceptance_3_representation_consistency():
    ok = True
    worst = 0.0
    for alpha in (0.5, 0.7):
        for beta in (alpha, 1.0):
            p = MLParams(alpha, beta)
            for r in (5.0, 8.0, 12.0):
                for phi in (0.6 * math.pi, 0.8 * math.pi, math.pi):
                    z = r * cmath.exp(1j * phi)
                    a = ml_series_deriv(p, z, 1.0, 0, extended=True)
                    b = ml_contour(p, z)
                    rel = abs(a.value - b.value) / max(abs(a.value), abs(b.value))
                    worst = max(worst, rel)
                    ok = ok and rel <= 1e-8

    # route values must not depend on the admissible path shape
    p = MLParams(0.6, 1.0)
    z = 7.0 * cmath.exp(0.85j * math.pi)
    base = ml_contour(p, z)
    for theta_frac, eps in ((0.55, 0.5), (0.75, 1.0), (0.9, 2.0)):
        shape = ContourSpec(0.6, theta_frac * 0.6 * math.pi, eps)
        alt = ml_contour(p, z, spec=shape)
        gap = abs(alt.value - base.value)
        allowed = 2.0 * (alt.err_estimate + base.err_estimate) + 1e-13
        ok = ok and gap <= allowed

    line = _verdict(3, "representation consistency", ok, f"worst rel {worst:.2e}")
    assert ok, line


def test_acceptance_4_lemma2_certificates():
    contexts_i = [sector_context(0.6, 1.0)]
    contexts_ii = [sector_context(a, lam)
                   for a in (0.5, 0.6) for lam in (1.0, 2.0)]
    contexts_iii = [sector_context(0.6, -1.0),
                    sector_context(0.4, cmath.exp(0.9j * math.pi))]

    reports = []
    for ctx in contexts_i:
        reports.append(certify_lemma2_i(ctx, n_points=40, t_max_factor=200.0))
    for ctx in contexts_ii:
        reports.append(certify_lemma2_ii(ctx, n_points=40, t_max_factor=200.0))
    for ctx in contexts_iii:
        reports.append(certify_lemma2_iii(ctx, n_points=40, t_max_factor=200.0))

    all_pass = all(r.verdict == "PASS" and r.worst_ratio <= 1.0 for r in reports)

    # mutation check: an envelope at half the measured supremum is too small,
    # and every mutated certificate must catch it.  The paper's constant
    # sits far above the supremum, so the mutation is scaled from each
    # unmutated report's own worst ratio rather than from the constant.
    mutants = [
        (certify_lemma2_i, contexts_i[0], reports[0]),
        (certify_lemma2_iii, contexts_iii[0], reports[5]),
        (certify_lemma2_iii, contexts_iii[1], reports[6]),
    ]
    mutated = [
        certify(ctx, n_points=40, t_max_factor=200.0,
                constant_scale=0.5 * base.worst_ratio)
        for certify, ctx, base in mutants
    ]
    mutation_detected = all(r.verdict == "FAIL" for r in mutated)

    ok = all_pass and mutation_detected
    ratios = ", ".join(f"{base.worst_ratio:.3f}" for _, _, base in mutants)
    detail = (f"certificates {'PASS' if all_pass else 'FAIL'}; "
              f"envelope at half the supremum (worst ratios {ratios}): "
              + ", ".join(r.verdict for r in mutated))
    line = _verdict(4, "asymptotic envelope certificates", ok, detail)
    assert ok, line


def test_acceptance_5_lemma4_certificates():
    ctx = sector_context(0.8, cmath.exp(0.75j * math.pi))
    rep = certify_lemma4(ctx, l_max=2, n_points=24, t_max_factor=100.0)
    ok = rep.verdict == "PASS"
    details = [f"verdict {rep.verdict}"]
    for l in (0, 1, 2):
        s1 = rep.constants[f"slope_e1_l{l}"]
        s2 = rep.constants[f"slope_eaa_l{l}"]
        ok = ok and s1 <= -0.8 + 0.1 and s2 <= -1.6 + 0.1
        details.append(f"l={l}: {s1:.2f}/{s2:.2f}")
    line = _verdict(5, "derivative envelope certificates", ok, "; ".join(details))
    assert ok, line


def test_acceptance_6_averaged_limit():
    rep = lemma3_limit_check(0.5, 2.0, LIMIT_KERNELS["exp"],
                             u_grid=(10.0, 20.0, 30.0, 40.0, 50.0))
    final = rep.points[-1].abs_error
    ok = (abs(rep.rhs - 0.4) < 1e-12
          and final <= 1e-3
          and rep.decreasing_within_noise)
    line = _verdict(6, "averaged kernel limit", ok,
                    f"|LHS(50) - 2/5| = {final:.2e}, decreasing within noise: "
                    f"{rep.decreasing_within_noise}")
    assert ok, line


def test_acceptance_7_matrix_decay_and_integral():
    spec = JordanSpec(blocks=((-1.0, 2),))
    ctx = sector_context(0.5, -1.0)
    grid = np.geomspace(10.0 * ctx.t0, 2e4, 24)
    decay = decay_check(0.5, spec, t_grid=grid)
    decay_ok = decay.strictly_decreasing and decay.final_norm2 < 1e-2

    integ = integral_check(0.5, spec, t_max=200.0)
    tail_vs_numeric = integ.tail_bound / integ.numeric
    integral_ok = math.isfinite(integ.total) and tail_vs_numeric < 0.10

    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4)) - 3.0 * np.eye(4)
    js = JordanSpec.from_matrix(a)
    p1 = MLParams(1.0, 1.0)
    expm_ok = all(
        np.linalg.norm(ml_matrix(p1, js, t) - scipy.linalg.expm(t * a), 2)
        <= 1e-9 * np.linalg.norm(scipy.linalg.expm(t * a), 2)
        for t in (0.5, 1.0, 2.0))

    ok = decay_ok and integral_ok and expm_ok
    detail = (f"decay final {decay.final_norm2:.2e} "
              f"({'ok' if decay_ok else 'bad'}); "
              f"tail/numeric {tail_vs_numeric:.3f} at T=200 "
              f"(numeric {integ.numeric:.4g}, tail_bound {integ.tail_bound:.4g}; "
              f"{'ok' if integral_ok else 'exceeds 0.10'}); "
              f"expm oracle {'ok' if expm_ok else 'bad'}")
    line = _verdict(7, "matrix decay and integral bounds", ok, detail)
    assert ok, line


def test_acceptance_8_derivative_oracle():
    h = 1e-150
    ok = True
    worst = 0.0
    for alpha in (0.5, 0.8):
        p = MLParams(alpha, 1.0)
        for lam in (-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0):
            for t in (0.5, 1.25, 2.0):
                d1 = ml_series_deriv(p, lam, t, 1).value
                cs1 = ml_eval(p, complex(lam, h) * t ** alpha).value.imag / h
                rel1 = abs(d1 - cs1) / abs(d1)

                d2 = ml_series_deriv(p, lam, t, 2).value
                cs2 = ml_series_deriv(p, complex(lam, h), t, 1).value.imag / h
                rel2 = abs(d2 - cs2) / abs(d2)

                worst = max(worst, rel1, rel2)
                ok = ok and rel1 <= 1e-8 and rel2 <= 1e-8
    line = _verdict(8, "derivative oracle", ok, f"worst rel {worst:.2e}")
    assert ok, line


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli_main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_acceptance_9_cli_golden_and_exit_codes(tmp_path):
    ok = True
    notes = []

    commands = {
        "eval": ["eval", "--alpha", "0.7", "--beta", "1",
                 "--z", "2", "--z=-6", "--z", "1+1i"],
        "certify": ["certify", "lemma2-iii", "--alpha", "0.6", "--lambda=-1"],
        "selftest": ["selftest"],
    }
    for name, argv in commands.items():
        a = tmp_path / f"{name}-a.json"
        b = tmp_path / f"{name}-b.json"
        rc1, _, _ = _cli(argv + ["--output", str(a)])
        rc2, _, _ = _cli(argv + ["--output", str(b)])
        if rc1 != 0 or rc2 != 0:
            ok, _ = False, notes.append(f"{name} rc {rc1}/{rc2}")
        elif a.read_bytes() != b.read_bytes():
            ok, _ = False, notes.append(f"{name} not byte-identical")
        else:
            json.loads(a.read_text())          # well-formed JSON

    induced = [
        (["eval", "--alpha", "oops", "--beta", "1", "--z", "1"], 1),
        (["certify", "lemma2-i", "--alpha", "0.6", "--lambda=-1"], 1),
        (["eval", "--alpha", "1", "--beta", "1", "--z", "1000"], 2),
        (["certify", "lemma2-i", "--alpha", "0.6", "--lambda", "1",
          "--t-points", "5", "--t-max-factor", "10",
          "--constant-scale", "1e-3"], 3),
        (["selftest", "--flip-orientation"], 3),
        (["certify", "lemma2-i", "--alpha", "0.6", "--lambda", "1",
          "--t-points", "5", "--t-max-factor", "10",
          "--err-inflate", "1e14"], 4),
    ]
    for argv, want in induced:
        rc, _, _ = _cli(argv)
        if rc != want:
            ok, _ = False, notes.append(f"{' '.join(argv)} -> {rc}, want {want}")

    line = _verdict(9, "CLI golden files and exit codes", ok, "; ".join(notes))
    assert ok, line
