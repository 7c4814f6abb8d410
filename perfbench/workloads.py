"""The three benchmark workloads: inputs, operations and output checks.

A workload is a fixed list of operations (each one top-level mlfunc call)
and a check that turns one pass's outputs into one ``Check`` per operation.
Only ``eval-mix`` draws its inputs from the seed; ``certify`` and ``matrix``
run the acceptance gate's pinned inputs so their outputs can be checked
against the gate's pins.  README.md records why each workload exists.

Library functions are looked up on the ``mlfunc`` package at call time, so a
tracer that patches the package namespace sees the top-level calls.
"""

import cmath
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import scipy.linalg

import mlfunc
import mlfunc.cli  # noqa: F401  (binds mlfunc.cli for the selftest op)
import reference

WORKLOADS = ("eval-mix", "certify", "matrix")

# eval-mix grid: alpha on the grid j/64, j = 26..64 covering [0.4, 1], so the
# reference can carry 1/Gamma in integer steps (five times faster than rgamma)
ALPHA_GRID = tuple(j / 64 for j in range(26, 65))
Z_MOD_RANGE = (0.05, 40.0)
CELLS = 20                  # 20 alpha cells x 20 log|z| cells = 400 calls
# keep |E(z)| inside the double range: log|E| ~ Re z^(1/a) + log|z^((1-b)/a)/a|
MAX_LOG_VALUE = 700.0


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], Any]


@dataclass(frozen=True)
class Check:
    """Verdict on one operation's output.

    ``ok`` is None when the output could not be checked; False counts toward
    wrong_frac.  A wrong output with ``within_tol`` still meets the accuracy
    the call asked for (only its error bar is too narrow), so it does not
    clear the benchmark's ``correct`` flag.
    """

    ok: bool | None
    within_tol: bool = False
    detail: str = ""


@dataclass
class Workload:
    ops: list[Op]
    check: Callable[[list], list[Check]]   # outputs of one pass -> checks
    info: Callable[[list], dict]           # values reported, never judged


def build(name: str, seed: int) -> Workload:
    if name == "eval-mix":
        return _eval_mix(seed)
    if name == "certify":
        return _certify()
    if name == "matrix":
        return _matrix()
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


# --------------------------------------------------------------------------
# eval-mix

def _log_value_bound(alpha: float, beta: float, z: complex) -> float:
    """Rough log|E_{alpha,beta}(z)| from the exponential term in G+."""
    w = cmath.log(z) / alpha
    return (cmath.exp(w).real + ((1.0 - beta) * w).real - math.log(alpha))


def eval_mix_inputs(seed: int) -> list[tuple[float, float, complex]]:
    """(alpha, beta, z) triples: one per cell of a 20 x 20 grid over alpha
    in [0.4, 1] and log|z| on [log 0.05, log 40], at the cell centre.

    The seed draws arg z uniform on (-pi, pi], beta from (1, alpha, 1.5)
    and the call order.  alpha and |z| set the cost of a call, and with
    them drawn at random a few calls in the small-alpha corner swing the
    pass time by a third from seed to seed; on the grid that swing is gone.
    A draw whose value would leave the double range gets a fresh arg z.
    """
    rng = random.Random(seed)
    lo, hi = (math.log(r) for r in Z_MOD_RANGE)
    out = []
    for i in range(CELLS):
        alpha = ALPHA_GRID[int((i + 0.5) / CELLS * len(ALPHA_GRID))]
        for j in range(CELLS):
            r = math.exp(lo + (hi - lo) * (j + 0.5) / CELLS)
            beta = rng.choice((1.0, alpha, 1.5))
            while True:
                z = cmath.rect(r, math.pi - 2.0 * math.pi * rng.random())
                if _log_value_bound(alpha, beta, z) <= MAX_LOG_VALUE:
                    break
            out.append((alpha, beta, z))
    rng.shuffle(out)
    return out


def _eval_mix(seed: int) -> Workload:
    draws = eval_mix_inputs(seed)
    ops = []
    for alpha, beta, z in draws:
        p = mlfunc.MLParams(alpha, beta)
        ops.append(Op(f"ml_eval a={alpha} b={beta} z={z}",
                      lambda p=p, z=z: mlfunc.ml_eval(p, z)))
    tol = mlfunc.EvalControls().tol
    refs = None

    def check(outputs):
        nonlocal refs
        if refs is None:
            refs = [reference.ml_value(a, b, z) for a, b, z in draws]
        return [_check_value(res, ref, tol) for res, ref in zip(outputs, refs)]

    def info(outputs):
        routes = {}
        for res in outputs:
            key = res.method if res is not None else "raised"
            routes[key] = routes.get(key, 0) + 1
        return {"routes": routes}

    return Workload(ops, check, info)


def _check_value(res, ref, tol) -> Check:
    """Covered when |value - ref| <= err_estimate; within tolerance when
    the miss is at most tol * |ref|, the accuracy ml_eval is asked for."""
    if res is None:
        return Check(None, detail="raised")
    if ref is None:
        return Check(None, detail="reference out of reach")
    miss = abs(res.value - ref)
    return Check(bool(miss <= res.err_estimate), bool(miss <= tol * abs(ref)),
                 f"{res.method} miss {miss:.3e} claimed {res.err_estimate:.3e}")


# --------------------------------------------------------------------------
# certify: the certificates pinned by acceptance criteria 4 and 5, plus the
# quadrature self-test through the command line

def _certify() -> Workload:
    ops = []
    pins = []
    lemma2 = ([("certify_lemma2_i", 0.6, 1.0)]
              + [("certify_lemma2_ii", a, lam) for a in (0.5, 0.6) for lam in (1.0, 2.0)]
              + [("certify_lemma2_iii", 0.6, -1.0),
                 ("certify_lemma2_iii", 0.4, cmath.exp(0.9j * math.pi))])
    for fn, alpha, lam in lemma2:
        ctx = mlfunc.sector_context(alpha, lam)
        ops.append(Op(f"{fn} a={alpha} lam={lam:.4g}",
                      lambda fn=fn, ctx=ctx: getattr(mlfunc, fn)(
                          ctx, n_points=40, t_max_factor=200.0)))
        pins.append(_lemma2_pin)
    ctx4 = mlfunc.sector_context(0.8, cmath.exp(0.75j * math.pi))
    ops.append(Op("certify_lemma4 a=0.8 l_max=2",
                  lambda: mlfunc.certify_lemma4(ctx4, l_max=2, n_points=24,
                                                t_max_factor=100.0)))
    pins.append(_lemma4_pin)
    ops.append(Op("mlfunc selftest", _selftest))
    pins.append(_selftest_pin)

    def info(outputs):
        return {"worst_ratio": {op.label: out.worst_ratio
                                for op, out in zip(ops, outputs)
                                if out is not None and hasattr(out, "worst_ratio")}}

    return _pinned(ops, pins, info)


def _pinned(ops, pins, info) -> Workload:
    """A workload whose i-th output is judged by the i-th pin."""
    def check(outputs):
        return [Check(None, detail="raised") if out is None else pin(out)
                for pin, out in zip(pins, outputs)]

    return Workload(ops, check, info)


def _selftest():
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = mlfunc.cli.main(["selftest"])
    return rc, out.getvalue()


def _lemma2_pin(rep) -> Check:
    ok = bool(rep.verdict == "PASS" and rep.worst_ratio <= 1.0)
    return Check(ok, detail=f"{rep.name} {rep.verdict} worst ratio {rep.worst_ratio:.3g}")


def _lemma4_pin(rep) -> Check:
    ok = rep.verdict == "PASS" and all(
        rep.constants[f"slope_e1_l{l}"] <= -0.8 + 0.1
        and rep.constants[f"slope_eaa_l{l}"] <= -1.6 + 0.1 for l in (0, 1, 2))
    return Check(ok, detail=f"lemma4 {rep.verdict}")


def _selftest_pin(out) -> Check:
    rc, text = out
    ok = rc == 0 and json.loads(text)["report"]["ok"] is True
    return Check(ok, detail=f"selftest exit {rc}")


# --------------------------------------------------------------------------
# matrix: the inputs of acceptance criteria 6 and 7, plus Jordan blocks at
# alpha = 0.7 checked against the reference derivative series

MATRIX_ALPHA = 0.7
MATRIX_BLOCKS = ((-2.0, 3), (cmath.exp(0.8j * math.pi), 2))
MATRIX_T = tuple(float(t) for t in np.geomspace(0.1, 100.0, 12))
EXPM_T = (0.5, 1.0, 2.0)
MATRIX_REL_TOL = 1e-9       # the gate's tolerance for the expm oracle


def _matrix() -> Workload:
    ops, pins = [], []
    spec = mlfunc.JordanSpec(blocks=((-1.0, 2),))
    grid = np.geomspace(10.0 * mlfunc.sector_context(0.5, -1.0).t0, 2e4, 24)
    ops.append(Op("decay_check a=0.5 -1:2",
                  lambda: mlfunc.decay_check(0.5, spec, t_grid=grid)))
    pins.append(lambda r: Check(
        bool(r.strictly_decreasing and r.final_norm2 < 1e-2),
        detail=f"final norm {r.final_norm2:.3e}"))
    ops.append(Op("integral_check a=0.5 -1:2 T=200",
                  lambda: mlfunc.integral_check(0.5, spec, t_max=200.0)))
    # criterion 7's tail < 10% clause fails by design; tail_fraction is
    # reported as a value, only finiteness is checked
    pins.append(lambda r: Check(bool(math.isfinite(r.total)), detail=f"total {r.total:.6g}"))
    ops.append(Op("lemma3_limit_check a=0.5 lam=2 exp",
                  lambda: mlfunc.lemma3_limit_check(
                      0.5, 2.0, mlfunc.LIMIT_KERNELS["exp"],
                      u_grid=(10.0, 20.0, 30.0, 40.0, 50.0))))
    pins.append(lambda r: Check(
        bool(abs(r.rhs - 0.4) < 1e-12 and r.points[-1].abs_error <= 1e-3
             and r.decreasing_within_noise),
        detail=f"final error {r.points[-1].abs_error:.3e}"))

    a = np.random.default_rng(11).normal(size=(4, 4)) - 3.0 * np.eye(4)
    js = mlfunc.JordanSpec.from_matrix(a)
    p1 = mlfunc.MLParams(1.0, 1.0)
    for t in EXPM_T:
        want = scipy.linalg.expm(t * a)
        ops.append(Op(f"ml_matrix a=1 expm t={t}",
                      lambda t=t: mlfunc.ml_matrix(p1, js, t)))
        pins.append(lambda m, want=want: _close(m, want))

    jordan = mlfunc.JordanSpec(blocks=MATRIX_BLOCKS)
    p07 = mlfunc.MLParams(MATRIX_ALPHA, 1.0)
    refs = {}
    for t in MATRIX_T:
        ops.append(Op(f"ml_matrix a=0.7 t={t:.4g}",
                      lambda t=t: mlfunc.ml_matrix(p07, jordan, t)))
        pins.append(lambda m, t=t: _close(m, _jordan_reference(refs, t)))

    def info(outputs):
        integ = outputs[1]      # the integral_check op
        return {"integral_tail_fraction":
                None if integ is None else integ.tail_fraction}

    return _pinned(ops, pins, info)


def _jordan_reference(cache: dict, t: float):
    """Block-diagonal E_{0.7,1}(t^0.7 J) from the reference sums; None if
    any entry is out of reach.  Computed once per t and reused."""
    if t not in cache:
        blocks = []
        for lam, size in MATRIX_BLOCKS:
            sums = reference.series_sums(MATRIX_ALPHA, 1.0, lam, t, size - 1)
            if sums is None:
                cache[t] = None
                return None
            block = np.zeros((size, size), dtype=complex)
            for j, s in enumerate(sums):
                block += s * np.eye(size, k=j)
            blocks.append(block)
        cache[t] = scipy.linalg.block_diag(*blocks)
    return cache[t]


def _close(got, want) -> Check:
    if want is None:
        return Check(None, detail="reference out of reach")
    gap = float(np.linalg.norm(got - want, 2))
    scale = float(np.linalg.norm(want, 2))
    return Check(bool(gap <= MATRIX_REL_TOL * scale), detail=f"rel gap {gap / scale:.3e}")
