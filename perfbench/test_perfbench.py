"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mlfunc  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Check, Op  # noqa: E402


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(x) for x in range(400)]
    value, pct, beyond = worker.tail_latency(reversed(samples))
    assert (value, pct, beyond) == (389.0, 97.5, 10)
    assert sum(s > value for s in samples) == 10


def test_tail_at_twenty_samples_is_the_median_rank():
    value, pct, beyond = worker.tail_latency(range(20))
    assert (value, pct, beyond) == (9, 50.0, 10)


def test_tail_with_too_few_samples_is_the_maximum():
    assert worker.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_raised_error_and_wrong_value_are_counted():
    def boom():
        raise RuntimeError("injected")

    ops = [Op("right", lambda: 1.0), Op("wrong", lambda: 2.0), Op("raises", boom)]
    log = worker.run_passes(ops, seconds=0.0)
    assert log.attempted == 3
    assert [e[1] for e in log.errors] == ["raises"]
    assert log.outputs[0] == [1.0, 2.0, None]

    def check(outputs):
        return [Check(None) if out is None else Check(out == 1.0) for out in outputs]

    counts = worker.score(check(out) for out in log.outputs)
    assert counts == {"checked": 2, "wrong": 1, "unchecked": 1, "out_of_tol": 1,
                      "wrong_frac": 0.5}


def test_injected_eval_value_is_wrong_and_out_of_tolerance():
    ref = 0.5 + 0.25j
    good = mlfunc.EvalResult(ref + 1e-16, 1e-15, "series", 10)
    narrow_bar = mlfunc.EvalResult(ref + 1e-14, 1e-15, "contour", 10)
    far_off = mlfunc.EvalResult(ref + 1e-6, 1e-15, "contour", 10)
    checks = [workloads._check_value(r, ref, 1e-12) for r in (good, narrow_bar, far_off)]
    assert [(c.ok, c.within_tol) for c in checks] == [(True, True), (False, True),
                                                     (False, False)]
    counts = worker.score([checks])
    assert counts["wrong"] == 2 and counts["out_of_tol"] == 1
    assert math.isclose(counts["wrong_frac"], 2 / 3)
    unreachable = workloads._check_value(good, None, 1e-12)
    assert unreachable.ok is None


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 10.0])
    fake = types.ModuleType("fake")
    fake.inner = inner = lambda: 1
    fake.outer = outer = lambda: fake.inner() + fake.inner()
    tracer = tracing.Tracer(types.ModuleType("pkg"), {"fake": fake},
                            targets=(("fake", "outer"), ("fake", "inner")),
                            clock=lambda: next(ticks))
    with tracer:
        assert fake.outer is not outer
        assert fake.outer() == 2
    assert fake.outer is outer and fake.inner is inner
    totals = tracer.totals()
    assert totals["fake.outer.s"] == 10.0
    assert totals["fake.outer.self_s"] == 10.0 - 3.0 - 1.0
    assert totals["fake.inner.calls"] == 2 and totals["fake.inner.self_s"] == 4.0
    assert totals["trace.root_span_s"] == 10.0
    assert list(tracer.parent) == [-1, 0, 0]


def test_namespace_patch_reaches_contour_integrate_path():
    originals = {name: getattr(mlfunc.numcore, name)
                 for name in ("integrate_path", "recip_gamma")}
    with tracing.mlfunc_tracer() as tracer:
        assert mlfunc.contour.integrate_path is not originals["integrate_path"]
        assert mlfunc.bounds.integrate_path is not originals["integrate_path"]
        res = mlfunc.ml_contour(mlfunc.MLParams(0.6, 1.0), -5.0)
    assert mlfunc.contour.integrate_path is originals["integrate_path"]
    assert mlfunc.numcore.recip_gamma is originals["recip_gamma"]
    totals = tracer.totals()
    assert totals["contour.ml_contour.calls"] == 1
    assert totals["numcore.integrate_path.calls"] == 3      # down ray, arc, up ray
    assert totals["numcore.integrate_path.work"] == res.terms_or_panels
    assert totals["contour.ml_contour.contour.work"] == res.terms_or_panels
    root = tracer.names.index("contour.ml_contour")
    paths = [i for i in range(len(tracer)) if tracer.names[tracer.name[i]]
             == "numcore.integrate_path"]
    assert all(tracer.name[tracer.parent[i]] == root for i in paths)


def test_eval_mix_inputs_follow_the_seed():
    a, b = workloads.eval_mix_inputs(1), workloads.eval_mix_inputs(2)
    assert a == workloads.eval_mix_inputs(1) and a != b
    assert len(a) == workloads.CELLS ** 2
    assert all(0.4 <= alpha <= 1.0 and 0.05 <= abs(z) <= 40.0 for alpha, _, z in a)
    assert all(workloads._log_value_bound(*d) <= workloads.MAX_LOG_VALUE for d in a)


def test_reference_matches_closed_forms():
    import cmath

    for z in (-5 + 2j, 3.0, 0.5j):
        assert abs(workloads.reference.ml_value(1.0, 1.0, z) - cmath.exp(z)) \
            <= 1e-15 * abs(cmath.exp(z))
    # E_{1/2,1}(-x) = exp(x^2) erfc(x), summed through the dyadic recurrence
    x = 3.0
    want = math.exp(x * x) * math.erfc(x)
    assert math.isclose(workloads.reference.ml_value(0.5, 1.0, -x).real, want,
                        rel_tol=1e-13)
    assert workloads.reference.ml_value(26 / 64, 1.0, 40.0) is None   # out of reach


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
