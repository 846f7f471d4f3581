"""Command-line interface: index, commutator, tame, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error, a
value above a documented limit, or output that cannot be written (a closed
pipe or a full disk: one ``error:`` line on stderr, no traceback),
3 insufficient series precision.  JSON output is canonical (sorted keys,
fixed separators), so identical invocations are byte-identical.  Exact
answers print in full, past Python's int-to-str digit limit too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .detline import closed_commutator_formula, commutator, tame_symbol
from .errors import InsufficientPrecision, TateKitError
from .fields import GF, QQ, FieldCtx
from .index_map import _canonical_index, index0
from .lattice import MAX_WINDOW_DIM, TateSpace
from .laurent import DEFAULT_PRECISION, Automorphism, parse_laurent, parse_laurent_matrix
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _text(value) -> str:
    """``str(value)`` in full.  Python's int-to-str digit limit (4300 digits
    by default on 3.11+ and 3.10.7+; older builds have none) is lifted for
    this one conversion only, so parsing input stays under it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _parse_field(text: str) -> FieldCtx:
    if text == "Q":
        return QQ
    if text.startswith("Fp:"):
        return GF(int(text.split(":", 1)[1]))
    if text.startswith("F") and text[1:].isdigit():
        return GF(int(text[1:]))
    raise ValueError("field must be Q, Fp:<p>, or F<p>; got %r" % text)


def _automorphism(ctx: FieldCtx, args) -> Automorphism:
    if getattr(args, "matrix", None):
        return Automorphism.gl(parse_laurent_matrix(ctx, args.matrix))
    if args.f is None:
        raise ValueError("need --f or --matrix")
    return Automorphism.mult_by(parse_laurent(ctx, args.f))


def cmd_index(args) -> int:
    ctx = _parse_field(args.field)
    g = _automorphism(ctx, args)
    space = TateSpace(ctx, g.rank)
    if args.json:
        value, L, gL, N = _canonical_index(g, space)
        print(
            _dumps(
                {
                    "index": value,
                    "L": L.to_json_dict(),
                    "gL": gL.to_json_dict(),
                    "N": N.to_json_dict(),
                }
            )
        )
    else:
        print(index0(g, space))
    return EXIT_OK


def cmd_commutator(args) -> int:
    ctx = _parse_field(args.field)
    f = parse_laurent(ctx, args.f)
    g = parse_laurent(ctx, args.g)
    fa, ga = Automorphism.mult_by(f), Automorphism.mult_by(g)
    # The formula first: its size limit refuses an input before any work.
    formula = (
        tame_symbol(f, g) if args.mode == "graded" else closed_commutator_formula(f, g)
    )
    value = commutator(fa, ga, args.mode, precision=args.precision)
    if args.json:
        print(
            _dumps(
                {
                    "commutator": {"value": _text(value), "mode": args.mode},
                    "formula": _text(formula),
                    "match": value == formula,
                }
            )
        )
    else:
        print(_text(value))
    return EXIT_OK


def cmd_tame(args) -> int:
    ctx = _parse_field(args.field)
    value = tame_symbol(parse_laurent(ctx, args.f), parse_laurent(ctx, args.g))
    if args.json:
        print(_dumps({"tame_symbol": _text(value)}))
    else:
        print(_text(value))
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_suites(args.suite, cases=args.cases, seed=args.seed)
    if args.json:
        print(_dumps(report))
    else:
        by_check = {}
        for c in report["checks"]:
            key = (c["suite"], c["check"])
            ok, total = by_check.get(key, (0, 0))
            by_check[key] = (ok + (c["status"] == "pass"), total + 1)
        for (suite, check), (ok, total) in sorted(by_check.items()):
            print("%-12s %-32s %d/%d" % (suite, check, ok, total))
        print(
            "%s: %d checks, %d failed"
            % ("PASS" if report["passed"] else "FAIL", len(report["checks"]), report["summary"]["fail"])
        )
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAIL


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help output lets a write error through to
    ``main``: argparse's own writer swallows it, so unbuffered help into a
    full disk would exit 0 with nothing printed.  Subparsers share the class."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tatekit",
        description="Exact lattice calculus on k((t))^n: indices, determinant lines, tame symbols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def positive(cap=None):
        """An argparse type for ints from 1 up to ``cap``; argparse names a
        type by its __name__ in errors, so the inner function keeps this one."""

        def positive(text):
            value = int(text)
            if value < 1:
                raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
            if cap is not None and value > cap:
                # The need Automorphism.image checks is at most a window dimension.
                raise argparse.ArgumentTypeError("must be <= MAX_WINDOW_DIM=%d, got %d" % (cap, value))
            return value

        return positive

    def common(p):
        p.add_argument("--field", default="Q", help="Q or Fp:<p> (default Q)")
        p.add_argument("--json", action="store_true", help="canonical JSON output")

    p_index = sub.add_parser("index", help="index of an automorphism at K_0")
    common(p_index)
    g_index = p_index.add_mutually_exclusive_group()
    g_index.add_argument("--f", help="unit of k((t)), e.g. '1*t^1' or '1-t'")
    g_index.add_argument("--matrix", help="rows ';'-separated, entries ','-separated, e.g. 't,0;0,t^2'")
    p_index.set_defaults(func=cmd_index)

    p_comm = sub.add_parser("commutator", help="determinant-line commutator of two units")
    common(p_comm)
    p_comm.add_argument("--f", required=True)
    p_comm.add_argument("--g", required=True)
    p_comm.add_argument("--mode", choices=["graded", "ungraded"], default="ungraded")
    p_comm.add_argument(
        "--precision",
        type=positive(MAX_WINDOW_DIM),
        default=DEFAULT_PRECISION,
        help="series precision (default %(default)s)",
    )
    p_comm.set_defaults(func=cmd_commutator)

    p_tame = sub.add_parser("tame", help="tame symbol (closed formula)")
    common(p_tame)
    p_tame.add_argument("--f", required=True)
    p_tame.add_argument("--g", required=True)
    p_tame.set_defaults(func=cmd_tame)

    p_verify = sub.add_parser("verify", help="run randomized verification suites")
    p_verify.add_argument("--suite", default="all", help="one of %s" % ((*SUITES, "all"),))
    p_verify.add_argument("--cases", type=positive(), default=None, help="cases per suite")
    p_verify.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:  # after --help, or a usage error on stderr
            sys.stdout.flush()
            raise
        code = args.func(args)
        sys.stdout.flush()
        return code
    except InsufficientPrecision as exc:
        print("error: %s (rerun with --precision >= %d)" % (exc, exc.required), file=sys.stderr)
        return EXIT_PRECISION
    except (ValueError, TateKitError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # stdout is closed or full.  Point it at devnull so that the flush at
        # interpreter exit finds nowhere to fail (the recipe of the signal
        # module's docs for SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: cannot write output: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
