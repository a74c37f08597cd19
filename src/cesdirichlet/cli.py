"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 domain/input error or a
numerical method that did not converge, 3 verification-suite failure or
a failed self-check of the enclosure arithmetic.  Only the randomized
verbs (dual-norm, monomial-check, verify) take --seed (default 42);
identical argv and seed produce byte-identical reports (timings go to
stderr, never into report output).

Coefficient files use the sparse JSON shape
``{"coeffs": [{"n": 2, "re": 1.0, "im": 0.0}, ...]}`` --
order-insensitive on input, canonical ascending on output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys


from .dual import delta_norm_bounds, delta_norm_exact_p2, dual_norm_oracle, jagers_dual_norm
from .errors import (ArgminTieError, ConvergenceError, DomainError, InputError,
                     ResourceLimitError, SelfCheckError)
from .kernels import sieve_primes
from .multipliers import (monomial_multiplier_check, multiplier_lower_estimate, schur_finite,
                          schur_log_power, schur_power)
from .reports import emit_report, parse_json
from .sequences import CoeffSeq, Exponent, ar_norm, ces_norm, dq_norm, lp_norm
from .series import DirichletPoly, EvalPoint, convolve, evaluate, qr_project
from .verification import ALL_SUITES, run_suites

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent and no named floats:
        # "--t -2e1" or "--t -inf" would read the value as an option
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf|infinity|nan))$")

    def error(self, message):
        raise _UsageError(message)


@contextlib.contextmanager
def _opened(path: str, mode: str):
    """``open(path, mode)`` for every file the CLI reads or writes: a failure
    to open, read, decode or write it raises InputError (exit 2)."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as ex:
        raise InputError(f"{path}: {ex}") from ex


def load_coeffs(path: str) -> CoeffSeq:
    """Read and validate a sparse coefficient file."""
    try:
        with _opened(path, "r") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as ex:
        raise InputError(f"{path}: malformed JSON at line {ex.lineno}, column {ex.colno}") from ex
    except RecursionError as ex:
        raise InputError(f"{path}: JSON nested too deeply to parse") from ex
    if not isinstance(payload, dict) or "coeffs" not in payload:
        raise InputError(f"{path}: expected an object with a 'coeffs' array")
    rows = payload["coeffs"]
    if not isinstance(rows, list):
        raise InputError(f"{path}: 'coeffs' must be an array")
    idx, val = [], []
    seen = set()
    for pos, row in enumerate(rows):
        if not isinstance(row, dict) or "n" not in row:
            raise InputError(f"{path}: coeffs[{pos}] must be an object with field 'n'")
        n = row["n"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InputError(f"{path}: coeffs[{pos}].n = {n!r} is not a positive integer")
        if n in seen:
            raise InputError(f"{path}: duplicate index n = {n} at coeffs[{pos}]")
        seen.add(n)
        try:
            re_part = float(row.get("re", 0.0))
            im_part = float(row.get("im", 0.0))
        except (TypeError, ValueError) as ex:
            raise InputError(f"{path}: coeffs[{pos}] has a non-numeric value") from ex
        idx.append(n)
        val.append(complex(re_part, im_part))
    return CoeffSeq(idx, val)


def dump_coeffs(seq: CoeffSeq) -> dict:
    return {
        "coeffs": [
            {"n": int(n), "re": float(v.real), "im": float(v.imag)}
            for n, v in seq.entries()
        ]
    }


# ---------------------------------------------------------------------------
# verb handlers: each takes the parsed arguments and returns the text it
# prints (verify: the text and its exit code); parse_and_dispatch writes it
# ---------------------------------------------------------------------------

def _cmd_norm(args):
    if args.r is not None and args.space != "ar":
        raise _UsageError("--r applies to --space ar only")
    if args.p is not None and args.space == "ar":
        raise _UsageError("--p does not apply to --space ar")
    seq = load_coeffs(args.input)
    rec = {"space": args.space, "input": args.input}
    if args.space == "ar":
        if args.r is None:
            raise _UsageError("--space ar requires --r")
        rec["r"] = args.r
        rec["value"] = ar_norm(seq, args.r)
    else:
        p = rec["p"] = 2.0 if args.p is None else args.p
        if args.space == "lp":
            rec["value"] = lp_norm(seq, p)
        elif args.space == "ces":
            rec["value"] = ces_norm(seq, Exponent.from_p(p))
        else:  # dq
            e = Exponent.from_p(p)
            rec["q"] = e.q
            rec["value"] = dq_norm(seq, e)
    return emit_report([rec], args.format, kind="norm")


def _cmd_dual_norm(args):
    if not args.oracle and (args.restarts is not None or args.seed is not None):
        raise _UsageError("--restarts and --seed apply to --oracle only")
    seq = load_coeffs(args.input)
    e = Exponent.from_p(args.p)
    trace = jagers_dual_norm(seq, e)
    rec = {
        "input": args.input,
        "p": args.p,
        "norm": trace.norm,
        "chain": ["inf" if math.isinf(c) else int(c) for c in trace.m_chain],
        "d_set_size": len(trace.d_set),
    }
    if args.oracle:
        restarts = 6 if args.restarts is None else args.restarts
        seed = 42 if args.seed is None else args.seed
        rec["oracle"] = dual_norm_oracle(seq, e, restarts=restarts, seed=seed)
    return emit_report([rec], args.format)


def _cmd_delta_norm(args):
    e = Exponent.from_p(args.p)
    rec = {"p": args.p, "sigma": args.sigma}
    if args.exact:
        if args.p != 2.0:
            raise DomainError("--exact is available for p = 2 only")
        rec["norm"] = delta_norm_exact_p2(args.sigma)
    else:
        rec["norm"] = delta_norm_bounds(args.sigma, e)
    return emit_report([rec], args.format)


def _cmd_eval(args):
    seq = load_coeffs(args.input)
    value = evaluate(DirichletPoly(seq), EvalPoint(sigma=args.sigma, t=args.t))
    rec = {"input": args.input, "sigma": args.sigma, "t": args.t, "value": value}
    return emit_report([rec], args.format)


def _cmd_convolve(args):
    f = DirichletPoly(load_coeffs(args.input))
    g = DirichletPoly(load_coeffs(args.with_input))
    h = convolve(f, g, args.limit)
    text = json.dumps(dump_coeffs(h.coeffs), indent=2, sort_keys=True) + "\n"
    if not args.output:
        return text
    with _opened(args.output, "w") as fh:
        fh.write(text)
    return ""


def _cmd_project(args):
    h = qr_project(DirichletPoly(load_coeffs(args.input)), args.r)
    return json.dumps(dump_coeffs(h.coeffs), indent=2, sort_keys=True) + "\n"


def _cmd_multiplier_estimate(args):
    f = DirichletPoly(load_coeffs(args.input))
    e = Exponent.from_p(args.p)
    table = sieve_primes(args.prime_limit)
    est = multiplier_lower_estimate(f, args.m, args.alpha, e, table, r_m=args.r_m)
    return emit_report([est.as_record()], args.format, kind="multiplier-estimate")


def _cmd_monomial_check(args):
    e = Exponent.from_p(args.p)
    ok, lower = monomial_multiplier_check(
        args.m, e, samples=args.samples, j_probe=args.j_probe, seed=args.seed
    )
    rec = {
        "m": args.m,
        "p": args.p,
        "samples": args.samples,
        "j_probe": args.j_probe,
        "upper_ok": ok,
        "lower_est": lower,
        "bound": float(args.m) ** (-1.0 / e.q),
    }
    return emit_report([rec], args.format)


def _cmd_schur_test(args):
    for flag, kind in (("input", "finite"), ("alpha", "log-power"), ("beta", "power")):
        if getattr(args, flag) is not None and args.kind != kind:
            raise _UsageError(f"--{flag} applies to --kind {kind} only")
    e = Exponent.from_p(args.p)
    if args.kind == "finite":
        if not args.input:
            raise _UsageError("--kind finite requires --input")
        verdict, enc = schur_finite(load_coeffs(args.input), e)
    elif args.kind == "log-power":
        if args.alpha is None:
            raise _UsageError("--kind log-power requires --alpha")
        verdict, enc = schur_log_power(args.alpha, e, args.horizon)
    else:
        if args.beta is None:
            raise _UsageError("--kind power requires --beta")
        verdict, enc = schur_power(args.beta, e, args.horizon)
    rec = {"kind": args.kind, "p": args.p, "horizon": args.horizon,
           "verdict": verdict, "value": enc}
    return emit_report([rec], args.format)


def _cmd_verify(args):
    # stdout stays byte-deterministic for fixed argv + seed: timings and
    # budget warnings go to stderr, pass/fail reflects the math only
    names = list(ALL_SUITES) if args.suite == "all" else [args.suite]
    if args.report:
        # fail before the suites run, without creating or truncating the file
        folder = os.path.dirname(os.path.abspath(args.report))
        if os.path.isdir(args.report) or not (os.path.isdir(folder)
                                              and os.access(folder, os.W_OK | os.X_OK)):
            raise InputError(f"{args.report}: not a writable file path")
    results = run_suites(names, args.seed)
    text = ""
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        text += f"{status}  {res.name}  {res.as_record()['detail']}\n"
        note = f"# {res.name}: {res.duration:.2f}s (budget {res.budget:.0f}s)"
        if res.duration > res.budget:
            note += "  ** over budget **"
        sys.stderr.write(note + "\n")
    if args.report:
        try:
            with _opened(args.report, "w") as fh:
                fh.write(emit_report([r.as_record() for r in results], args.format, kind="verify"))
        except InputError as ex:  # the suites ran: their lines are printed all the same
            sys.stderr.write(f"error: {ex}\n")
            return text, EXIT_DOMAIN
    return text, EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def _cmd_report(args):
    with _opened(args.input, "r") as fh:
        text = fh.read()
    try:
        records = parse_json(text)
    except ValueError as ex:  # malformed JSON, or not a list of records
        raise InputError(f"{args.input}: not a valid report file ({ex})") from ex
    return emit_report(records, args.format, kind=args.kind)


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="cesdir", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("norm", help="sequence-space norm of a coefficient file")
    p.add_argument("--space", choices=("ces", "lp", "dq", "ar"), required=True)
    p.add_argument("--p", type=float, default=None, help="exponent for ces, lp and dq (default 2)")
    p.add_argument("--r", type=float, default=None, help="weight exponent for --space ar")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("dual-norm", help="exact dual norm with greedy trace")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--oracle", action="store_true", help="also run the ascent oracle")
    p.add_argument("--restarts", type=int, default=None, help="oracle restarts (default 6)")
    p.add_argument("--seed", type=int, default=None, help="oracle seed (default 42)")
    p.set_defaults(func=_cmd_dual_norm)

    p = sub.add_parser("delta-norm", help="point-evaluation norm bounds")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--terms", type=int, default=None,
                   help="ignored: accepted for old command lines; --exact sums in O(1)")
    p.add_argument("--exact", action="store_true", help="exact p=2 series enclosure")
    p.set_defaults(func=_cmd_delta_norm)

    p = sub.add_parser("eval", help="evaluate a Dirichlet polynomial at a point")
    p.add_argument("--input", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("convolve", help="divisor-convolution product of two polynomials")
    p.add_argument("--input", required=True)
    p.add_argument("--with", dest="with_input", required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_convolve)

    p = sub.add_parser("project", help="keep coefficients with p_1..p_r-smooth index")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("multiplier-estimate", help="certified multiplier-norm lower estimate")
    p.add_argument("--input", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--prime-limit", type=int, default=10 ** 7)
    p.add_argument("--r-m", type=int, default=None,
                   help="window anchor override (flagged heuristic when unverified)")
    p.set_defaults(func=_cmd_multiplier_estimate)

    p = sub.add_parser("monomial-check", help="two-sided monomial multiplier probe")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--j-probe", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_monomial_check)

    p = sub.add_parser("schur-test", help="coefficientwise-multiplier summability test")
    p.add_argument("--kind", choices=("finite", "log-power", "power"), required=True)
    p.add_argument("--input", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--horizon", type=int, default=10 ** 5,
                   help="log-power and power only, O(1) at any horizon below 2**53")
    p.set_defaults(func=_cmd_schur_test)

    p = sub.add_parser("verify", help="run the acceptance suites")
    p.add_argument("--suite", default="all", choices=["all", *ALL_SUITES])
    p.add_argument("--report", default=None, help="write suite records to this file")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="re-emit a JSON report, e.g. as CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", default=None, help="column registry to use for CSV")
    p.set_defaults(func=_cmd_report)

    for name, p in sub.choices.items():
        if name not in ("convolve", "project"):  # these two print coefficient files
            p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def parse_and_dispatch(argv: list[str]) -> int:
    """Run one request and return its exit code: the one place that writes
    a verb's report to stdout and that maps the errors a verb raises to exit
    codes.  ``verify`` maps a failed report write itself, so that the lines
    of the suites that ran still print."""
    try:
        args = build_parser().parse_args(argv)
        out = args.func(args)
    except _UsageError as ex:
        sys.stderr.write(f"usage error: {ex}\n")
        return EXIT_USAGE
    except (DomainError, InputError, ResourceLimitError, ArgminTieError, ConvergenceError) as ex:
        sys.stderr.write(f"error: {ex}\n")
        return EXIT_DOMAIN
    except SelfCheckError as ex:
        sys.stderr.write(f"self-check failed: {ex}\n")
        return EXIT_VERIFY
    text, code = out if isinstance(out, tuple) else (out, EXIT_OK)
    sys.stdout.write(text)
    return code


def main():
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
