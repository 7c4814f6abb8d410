"""Batch command-line front end.

Subcommands:

    eval      evaluate E_{alpha,beta} at points z, or lambda-derivatives
              on a t list
    certify   run one of the envelope certificates
              (lemma2-i, lemma2-ii, lemma2-iii, lemma4)
    matrix    matrix arguments from Jordan blocks; value tables or the
              decay / integral stability checks
    limit     averaged-kernel limit check against the Laplace transform
    selftest  quadrature identity grid plus series vs path-integral overlap

Output is a single deterministic JSON document (sorted keys, complex
numbers as {"re":..., "im":...}, no timestamps) or CSV with a header row;
diagnostics go to stderr only.  A JSON config file can supply any flag
value, keyed by the flag's name without its dashes (command line wins over
config, config wins over defaults).

Exit codes: 0 success / PASS, 1 malformed input or violated hypothesis,
2 evaluation failure, 3 FAIL or self-test mismatch, 4 INCONCLUSIVE.
"""

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, is_dataclass

import numpy as np

from .bounds import (
    LIMIT_KERNELS,
    SectorContextError,
    certify_lemma2_i,
    certify_lemma2_ii,
    certify_lemma2_iii,
    certify_lemma4,
    lemma3_limit_check,
    sector_context,
)
from .contour import ml_contour, recip_gamma_via_contour
from .matrixfn import JordanSpec, decay_check, integral_check, ml_matrix
from .numcore import DomainError, QuadratureError, recip_gamma
from .series import (
    EvalControls,
    EvaluationError,
    MLParams,
    SeriesConvergenceError,
    evaluate,
    ml_eval,
    ml_series_deriv,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EVAL = 2
EXIT_FAIL = 3
EXIT_INCONCLUSIVE = 4

_VERDICT_EXIT = {"PASS": EXIT_OK, "FAIL": EXIT_FAIL, "INCONCLUSIVE": EXIT_INCONCLUSIVE}


class UsageError(Exception):
    """Malformed command line or config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_complex(text) -> complex:
    """Complex literal: '2', '-1.5', '1+2j', '1+2i' are all accepted."""
    if isinstance(text, (int, float, complex)):
        return complex(text)
    s = str(text).strip().replace(" ", "").replace("i", "j")
    try:
        v = complex(s)
    except ValueError:
        raise UsageError(f"not a complex number: {text!r}")
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise UsageError(f"complex value must be finite: {text!r}")
    return v


def parse_angle(text) -> float:
    """Angle in radians; a 'pi' suffix scales, so '0.75pi' = 3pi/4."""
    if isinstance(text, (int, float)):
        return float(text)
    s = str(text).strip().replace(" ", "")
    factor = 1.0
    if s.endswith("pi"):
        factor = math.pi
        s = s[:-2]
        if s in ("", "+"):
            s = "1"
        elif s == "-":
            s = "-1"
    try:
        return float(s) * factor
    except ValueError:
        raise UsageError(f"not an angle: {text!r}")


def _parse_block(text) -> tuple[complex, int]:
    s = str(text).strip()
    if ":" not in s:
        raise UsageError(f"block must look like 'lambda:size', got {text!r}")
    lam_s, _, size_s = s.rpartition(":")
    try:
        size = int(size_s)
    except ValueError:
        raise UsageError(f"block size must be an integer, got {size_s!r}")
    if size < 1:
        raise UsageError(f"block size must be positive, got {size}")
    return parse_complex(lam_s), size


def _parse_float_list(value) -> list[float]:
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    return [float(tok) for tok in str(value).split(",") if tok.strip()]


def _parse_geom_grid(value) -> np.ndarray:
    parts = _parse_float_list(value)
    if len(parts) != 3 or parts[0] <= 0.0 or parts[1] <= parts[0]:
        raise UsageError("grid must be 'start,stop,count' with 0 < start < stop")
    n = int(parts[2])
    if n < 2:
        raise UsageError("grid needs at least 2 points")
    return np.geomspace(parts[0], parts[1], n)


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and its subcommand parsers by name."""
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=["json", "csv"], default=None)
    common.add_argument("--output", default=None, metavar="PATH")
    common.add_argument("--config", default=None, metavar="PATH",
                        help="JSON file supplying flag values")

    top = _Parser(prog="mlfunc", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate E_{alpha,beta}(z) or lambda-derivatives")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=parse_complex, default=None)
    p.add_argument("--z", action="append", type=parse_complex, default=None)
    p.add_argument("--lambda", "--lam", dest="lam", type=parse_complex, default=None)
    p.add_argument("--t", action="append", type=float, default=None)
    p.add_argument("--l", type=int, default=None, help="derivative order")
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("certify", parents=[common],
                       help="run an envelope certificate")
    p.add_argument("which", choices=["lemma2-i", "lemma2-ii", "lemma2-iii", "lemma4"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--lambda", "--lam", dest="lam", type=parse_complex, default=None)
    p.add_argument("--lambda-mod", type=float, default=None)
    p.add_argument("--lambda-arg", type=parse_angle, default=None)
    p.add_argument("--theta", type=parse_angle, default=None)
    p.add_argument("--theta0", type=parse_angle, default=None)
    p.add_argument("--t-points", type=int, default=None)
    p.add_argument("--t-max-factor", type=float, default=None)
    p.add_argument("--l", type=int, default=None, help="max derivative order (lemma4)")
    p.add_argument("--harmonized", action="store_true", default=None,
                   help="use the pi-harmonized second constant (lemma2)")
    p.add_argument("--constant-scale", type=float, default=None,
                   help="debug: scale the certified constant")
    p.add_argument("--err-inflate", type=float, default=None,
                   help="debug: inflate evaluator error bars")

    p = sub.add_parser("matrix", parents=[common],
                       help="Jordan-block matrix values and stability checks")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=parse_complex, default=None)
    p.add_argument("--block", action="append", type=_parse_block, default=None,
                   metavar="LAMBDA:SIZE")
    p.add_argument("--t", dest="t_single", type=float, default=None)
    p.add_argument("--t-grid", type=_parse_geom_grid, default=None,
                   metavar="START,STOP,COUNT")
    p.add_argument("--check", choices=["value", "decay", "integral"], default=None)
    p.add_argument("--t-max", type=float, default=None,
                   help="integral check cutoff")

    p = sub.add_parser("limit", parents=[common],
                       help="averaged-kernel limit vs Laplace transform")
    p.add_argument("--alpha", type=float)
    p.add_argument("--lambda", "--lam", dest="lam", type=parse_complex, default=None)
    p.add_argument("--kernel", choices=sorted(LIMIT_KERNELS), default=None)
    p.add_argument("--u-grid", type=_parse_float_list, default=None,
                   metavar="U1,U2,...")

    p = sub.add_parser("selftest", parents=[common],
                       help="quadrature identity grid and route overlap")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--flip-orientation", action="store_true", default=None,
                   help="debug: negate the path orientation")

    return top, sub.choices


def _load_config(path, parser: argparse.ArgumentParser) -> dict:
    """Flag values from a JSON config, keyed by the subcommand's flag names
    without the leading dashes ('-' and '_' interchangeable).  Each value
    goes through the flag's own action: its type, its choices, a list for
    a repeatable flag, true or false for a switch."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    config = argparse.Namespace()
    for key, value in raw.items():
        action = parser._option_string_actions.get("--" + key.replace("_", "-"))
        if action is None or action.dest in ("config", "help"):
            raise UsageError(f"unknown config key: {key}")
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise UsageError(f"config key {key} must be true or false")
            if value:
                action(parser, config, None)
            continue
        repeated = isinstance(action, argparse._AppendAction) and isinstance(value, list)
        for item in value if repeated else [value]:
            action(parser, config, _config_value(action, key, item))
    return vars(config)


def _config_value(action: argparse.Action, key: str, value):
    """One config value converted and checked as the command line would;
    a JSON number, boolean or null goes through the flag's type as text."""
    if not isinstance(value, (str, list)):
        value = json.dumps(value)
    try:
        value = (action.type or str)(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config key {key}: {exc}")
    if action.choices is not None and value not in action.choices:
        raise UsageError(f"config key {key}: invalid choice {value!r}")
    return value


class _Options:
    """Merged view: command line beats config beats defaults."""

    def __init__(self, args, config):
        self._args = args
        self._config = config

    def get(self, key, default=None):
        v = getattr(self._args, key, None)
        if v is not None:
            return v
        if key in self._config:
            return self._config[key]
        return default

    def require(self, key, flag):
        v = self.get(key)
        if v is None:
            raise UsageError(f"{flag} is required")
        return v


def _resolve_lambda(opt: _Options) -> complex:
    lam = opt.get("lam")
    mod = opt.get("lambda_mod")
    arg = opt.get("lambda_arg")
    if lam is not None:
        if mod is not None or arg is not None:
            raise UsageError("give either --lambda or --lambda-mod/--lambda-arg")
        return lam
    if arg is None and mod is None:
        raise UsageError("--lambda (or --lambda-mod/--lambda-arg) is required")
    if mod is None:
        mod = 1.0
    if mod <= 0.0:
        raise UsageError("--lambda-mod must be positive")
    return mod * complex(math.cos(arg or 0.0), math.sin(arg or 0.0))


# --------------------------------------------------------------------------
# serialization

def _jsonable(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.complexfloating):
        return _jsonable(complex(obj))
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(opt: _Options, meta: dict, body_key: str, body,
          rows: list[dict] | None, fieldnames: list[str] | None) -> None:
    fmt = opt.get("format", "json")
    if fmt == "csv":
        if rows is None:
            raise UsageError("csv output is not available for this command")
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        doc = {"schema": "mlfunc/1", "meta": _jsonable(meta),
               body_key: _jsonable(body)}
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    path = opt.get("output")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _num(x) -> str:
    return repr(float(x))


def _csv_complex(v: complex, prefix: str) -> dict:
    v = complex(v)
    return {f"{prefix}_re": _num(v.real), f"{prefix}_im": _num(v.imag)}


# --------------------------------------------------------------------------
# commands

def _cmd_eval(opt: _Options) -> int:
    alpha = opt.require("alpha", "--alpha")
    beta = opt.get("beta", 1.0)
    try:
        p = MLParams(alpha, complex(beta))
    except DomainError as exc:
        raise UsageError(str(exc))
    zs = opt.get("z")
    lam = opt.get("lam")
    ts = opt.get("t")
    order = opt.get("l", 0)
    tol = opt.get("tol", 1e-12)
    if zs is not None and (lam is not None or ts is not None):
        raise UsageError("give --z values or --lambda with --t, not both")
    if zs is None and (lam is None or ts is None):
        raise UsageError("need --z values, or --lambda together with --t")
    if zs is not None and len(zs) == 0:
        raise UsageError("empty evaluation list")
    if order < 0:
        raise UsageError("--l must be nonnegative")

    controls = EvalControls(tol=tol)
    records = []
    if zs is not None:
        for z in zs:
            res = ml_eval(p, z, controls)
            records.append({"input": {"z": z}, "value": res.value,
                            "err_estimate": res.err_estimate,
                            "method": res.method,
                            "terms_or_panels": res.terms_or_panels})
    else:
        for t in ts:
            if t < 0.0:
                raise UsageError("--t values must be nonnegative")
            res = evaluate(p, lam, t, order, controls)
            records.append({"input": {"lam": lam, "t": t, "l": order},
                            "value": res.value, "err_estimate": res.err_estimate,
                            "method": res.method,
                            "terms_or_panels": res.terms_or_panels})

    meta = {"command": "eval", "alpha": alpha, "beta": complex(beta), "tol": tol}
    rows = []
    for i, rec in enumerate(records):
        row = {"index": i, **_csv_complex(rec["value"], "value"),
               "err_estimate": _num(rec["err_estimate"]),
               "method": rec["method"],
               "terms_or_panels": rec["terms_or_panels"]}
        rows.append(row)
    fields = ["index", "value_re", "value_im", "err_estimate", "method",
              "terms_or_panels"]
    _emit(opt, meta, "records", records, rows, fields)
    return EXIT_OK


_CERTIFIERS = {
    "lemma2-i": certify_lemma2_i,
    "lemma2-ii": certify_lemma2_ii,
    "lemma2-iii": certify_lemma2_iii,
    "lemma4": certify_lemma4,
}


def _cmd_certify(opt: _Options, which: str) -> int:
    alpha = opt.require("alpha", "--alpha")
    lam = _resolve_lambda(opt)
    try:
        ctx = sector_context(alpha, lam, theta=opt.get("theta"),
                             theta0=opt.get("theta0"))
    except DomainError as exc:
        raise UsageError(str(exc))

    kwargs = {}
    if opt.get("t_points") is not None:
        kwargs["n_points"] = opt.get("t_points")
    if opt.get("t_max_factor") is not None:
        kwargs["t_max_factor"] = opt.get("t_max_factor")
    if opt.get("constant_scale") is not None:
        kwargs["constant_scale"] = opt.get("constant_scale")
    if opt.get("err_inflate") is not None:
        kwargs["err_inflate"] = opt.get("err_inflate")
    if which == "lemma4":
        if opt.get("l") is not None:
            kwargs["l_max"] = opt.get("l")
    elif opt.get("harmonized"):
        kwargs["harmonized"] = True

    report = _CERTIFIERS[which](ctx, **kwargs)

    meta = {"command": "certify", "which": which, "alpha": alpha, "lambda": lam}
    rows = [{"t": _num(pt.t), "measured": _num(pt.measured),
             "allowed": _num(pt.allowed), "err": _num(pt.err),
             "label": pt.label} for pt in report.points]
    _emit(opt, meta, "report", report, rows,
          ["t", "measured", "allowed", "err", "label"])
    return _VERDICT_EXIT[report.verdict]


def _cmd_matrix(opt: _Options) -> int:
    alpha = opt.require("alpha", "--alpha")
    beta = opt.get("beta", 1.0)
    blocks = opt.get("block")
    if not blocks:
        raise UsageError("at least one --block LAMBDA:SIZE is required")
    try:
        spec = JordanSpec(blocks=tuple(blocks))
        p = MLParams(alpha, complex(beta))
    except DomainError as exc:
        raise UsageError(str(exc))
    check = opt.get("check", "value")

    if check == "decay":
        report = decay_check(alpha, spec, t_grid=opt.get("t_grid"))
        meta = {"command": "matrix", "check": "decay", "alpha": alpha}
        rows = [{"t": _num(t), "norm2": _num(n2), "norm_inf": _num(ni)}
                for t, n2, ni in zip(report.t_grid, report.norm2, report.norm_inf)]
        _emit(opt, meta, "report", report, rows, ["t", "norm2", "norm_inf"])
        return EXIT_OK

    if check == "integral":
        report = integral_check(alpha, spec, t_max=opt.get("t_max", 200.0))
        meta = {"command": "matrix", "check": "integral", "alpha": alpha}
        rows = [{"t_max": _num(report.t_max), "numeric": _num(report.numeric),
                 "numeric_err": _num(report.numeric_err),
                 "tail_bound": _num(report.tail_bound),
                 "total": _num(report.total),
                 "tail_fraction": _num(report.tail_fraction)}]
        _emit(opt, meta, "report", report, rows, list(rows[0]))
        return EXIT_OK

    if opt.get("t_single") is not None:
        t_values = [opt.get("t_single")]
    elif opt.get("t_grid") is not None:
        t_values = [float(t) for t in opt.get("t_grid")]
    else:
        raise UsageError("give --t or --t-grid for matrix values")
    if min(t_values) < 0.0:
        raise UsageError("--t values must be nonnegative")
    records = []
    rows = []
    # one array call for the whole grid
    for t, m in zip(t_values, ml_matrix(p, spec, np.array(t_values))):
        records.append({"t": t, "matrix": m,
                        "norm2": float(np.linalg.norm(m, 2))})
        for r in range(m.shape[0]):
            for c in range(m.shape[1]):
                rows.append({"t": _num(t), "row": r, "col": c,
                             **_csv_complex(m[r, c], "value")})
    meta = {"command": "matrix", "check": "value", "alpha": alpha,
            "beta": complex(beta)}
    _emit(opt, meta, "records", records, rows,
          ["t", "row", "col", "value_re", "value_im"])
    return EXIT_OK


def _cmd_limit(opt: _Options) -> int:
    alpha = opt.require("alpha", "--alpha")
    lam = _resolve_lambda(opt)
    kernel = opt.get("kernel", "exp")
    if kernel not in LIMIT_KERNELS:
        raise UsageError(f"unknown kernel: {kernel}")
    u_grid = opt.get("u_grid")
    report = lemma3_limit_check(alpha, lam, LIMIT_KERNELS[kernel],
                                u_grid=u_grid)
    meta = {"command": "limit", "alpha": alpha, "lambda": lam, "kernel": kernel}
    rows = [{"u": _num(pt.u), **_csv_complex(pt.lhs, "lhs"),
             "abs_error": _num(pt.abs_error),
             "err_estimate": _num(pt.err_estimate)} for pt in report.points]
    _emit(opt, meta, "report", report, rows,
          ["u", "lhs_re", "lhs_im", "abs_error", "err_estimate"])
    return EXIT_OK


def _cmd_selftest(opt: _Options) -> int:
    tol_rg = opt.get("tol", 1e-9)
    tol_overlap = opt.get("tol", 1e-8)
    flip = -1.0 if opt.get("flip_orientation") else 1.0
    checks = []

    for alpha in (0.3, 0.5, 0.7, 0.9):
        for beta in (alpha, 1.0, 1.5):
            got = flip * recip_gamma_via_contour(alpha, beta)
            want = recip_gamma(complex(beta - alpha))
            err = abs(got - want)
            checks.append({"check": "recip-gamma", "alpha": alpha,
                           "beta": beta, "abs_error": err,
                           "tol": tol_rg, "ok": bool(err <= tol_rg)})

    for alpha in (0.5, 0.7):
        for beta in (alpha, 1.0):
            p = MLParams(alpha, beta)
            for z in (6.0 * np.exp(0.8j * math.pi), 9.0 * np.exp(1j * math.pi)):
                z = complex(z)
                s = ml_series_deriv(p, z, 1.0, 0, extended=True)
                c = ml_contour(p, z)
                rel = abs(s.value - c.value) / max(abs(s.value), 1e-300)
                checks.append({"check": "series-vs-contour", "alpha": alpha,
                               "beta": beta, "z": z, "rel_error": rel,
                               "tol": tol_overlap,
                               "ok": bool(rel <= tol_overlap)})

    bad = [c for c in checks if not c["ok"]]
    worst = None
    if bad:
        worst = max(bad, key=lambda c: c.get("abs_error", c.get("rel_error", 0.0)))
    body = {"checks": checks, "failures": len(bad), "worst": worst,
            "ok": not bad}
    meta = {"command": "selftest"}
    rows = [{"check": c["check"], "alpha": _num(c["alpha"]),
             "beta": _num(c["beta"]),
             "error": _num(c.get("abs_error", c.get("rel_error"))),
             "tol": _num(c["tol"]), "ok": c["ok"]} for c in checks]
    _emit(opt, meta, "report", body, rows,
          ["check", "alpha", "beta", "error", "tol", "ok"])
    print(f"selftest: {len(bad)} of {len(checks)} checks failed",
          file=sys.stderr)
    return EXIT_FAIL if bad else EXIT_OK


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (see --help)")
        config = _load_config(args.config, commands[args.command]) if args.config else {}
        opt = _Options(args, config)
        if args.command == "eval":
            return _cmd_eval(opt)
        if args.command == "certify":
            return _cmd_certify(opt, args.which)
        if args.command == "matrix":
            return _cmd_matrix(opt)
        if args.command == "limit":
            return _cmd_limit(opt)
        return _cmd_selftest(opt)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SectorContextError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EvaluationError, SeriesConvergenceError, QuadratureError) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
