"""Command-line front end.

Subcommands: ``eval`` for single values, ``table`` for value grids in text,
CSV or JSON, ``verify`` for the law sweep, and ``steinhaus`` for triangle
inspection and balanced-progression search.

Exit codes: 0 on success, 1 on domain errors (non-coprime arguments, even
modulus for the search, a triangle or search modulus too large to keep one
count per residue in memory, a search whose row-class tables would not fit
or whose candidates would add too many table entries, law violations) and
arithmetic failures (a modulus Hart's one-line factoring, Pollard rho and
ECM cannot split within their budget, a factor that passed the primality
test but is composite), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from ordlift.laws import verify_claims
from ordlift.lifting import alpha_fast, beta_fast, order_fast, proj_order_fast
from ordlift.steinhaus import ZnSequence, search_balanced_ap, triangle

__all__ = ["main"]


class _UsageError(Exception):
    pass


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _residue_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


# argparse takes any argument that starts with "-" for an option unless it
# is a single negative number, so a list such as -1,-2,-3 needs a "--" first.
# Any argument that starts like such a list gets it, well-formed or not, so
# that _residue_list reports a malformed one.
_NEGATIVE_LIST = re.compile(r"-\d+\s*,")


def _separate_negative_list(argv: list[str]) -> list[str]:
    """argv with "--" put before an argument that starts with a negative
    number and a comma, unless a "--" comes earlier."""
    for i, arg in enumerate(argv):
        if arg == "--":
            break
        if _NEGATIVE_LIST.match(arg):
            return argv[:i] + ["--"] + argv[i:]
    return argv


_FUNCTIONS = {
    "alpha": alpha_fast,
    "beta": beta_fast,
    "order": order_fast,
    "proj-order": proj_order_fast,
}


def _cell_value(function: str, a: int, n: int) -> int:
    """Grid cell for (a, n): 0 where gcd(a, n) != 1, as alpha and beta give."""
    return _FUNCTIONS[function](a, n) if math.gcd(a, n) == 1 else 0


def _cmd_eval(args) -> int:
    print(_FUNCTIONS[args.function](args.a, args.n))
    return 0


def _cmd_table(args) -> int:
    if args.n_min > args.n_max:
        raise _UsageError(f"empty n range: {args.n_min}..{args.n_max}")
    if args.a_min > args.a_max:
        raise _UsageError(f"empty a range: {args.a_min}..{args.a_max}")
    n_range = range(args.n_min, args.n_max + 1)
    a_range = range(args.a_min, args.a_max + 1)
    rows = [[_cell_value(args.function, a, n) for a in a_range] for n in n_range]

    if args.format == "json":
        import json  # imported here: no other command needs it

        print(
            json.dumps(
                {
                    "function": args.function,
                    "n_range": [args.n_min, args.n_max],
                    "a_range": [args.a_min, args.a_max],
                    "rows": rows,
                }
            )
        )
    elif args.format == "csv":
        print("n\\a," + ",".join(str(a) for a in a_range))
        for n, row in zip(n_range, rows):
            print(f"{n}," + ",".join(str(v) for v in row))
    else:
        header = ["n\\a"] + [str(a) for a in a_range]
        body = [[str(n)] + [str(v) for v in row] for n, row in zip(n_range, rows)]
        widths = [
            max(len(line[i]) for line in [header] + body)
            for i in range(len(header))
        ]
        for line in [header] + body:
            print("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    return 0


def _cmd_verify(args) -> int:
    report = verify_claims(args.n_max, args.a_max, workers=args.workers)
    for law in report.laws:
        if law.ok:
            print(f"PASS {law.law} ({law.checked} checks)")
        else:
            print(f"FAIL {law.law} ({law.failed} of {law.checked} checks failed)")
            print(f"  first counterexample: {law.first_counterexample}")
    verdict = "PASS" if report.ok else "FAIL"
    print(
        f"{verdict}: {len(report.laws)} laws, {report.total_checked} checks, "
        f"{report.total_failed} failures"
    )
    return 0 if report.ok else 1


def _cmd_steinhaus(args) -> int:
    if args.subcommand == "triangle":
        seq = ZnSequence.from_integers(args.modulus, args.sequence)
        summary = triangle(seq)
        counts = " ".join(f"{r}:{c}" for r, c in enumerate(summary.counts))
        verdict = "true" if summary.balanced else "false"
        print(f"balanced: {verdict}; counts: {counts}")
    else:
        hit = search_balanced_ap(args.modulus, args.length)
        print("none" if hit is None else f"({hit[0]},{hit[1]})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordlift",
        description="Multiplicative/projective orders mod n, the alpha and "
        "beta functions of a**n, square-free order lifting, and Steinhaus "
        "triangle tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="print a single value")
    p_eval.add_argument("function", choices=_FUNCTIONS)
    p_eval.add_argument("a", type=int, help="base (any integer)")
    p_eval.add_argument("n", type=_positive_int, help="modulus (>= 1)")
    p_eval.set_defaults(handler=_cmd_eval)

    p_table = sub.add_parser("table", help="print a value grid")
    p_table.add_argument("--function", choices=_FUNCTIONS, default="alpha")
    p_table.add_argument("--n-min", type=_positive_int, default=1)
    p_table.add_argument("--n-max", type=_positive_int, default=20)
    p_table.add_argument("--a-min", type=int, default=1)
    p_table.add_argument("--a-max", type=int, default=20)
    p_table.add_argument(
        "--format", choices=["text", "csv", "json"], default="text"
    )
    p_table.set_defaults(handler=_cmd_table)

    p_verify = sub.add_parser("verify", help="sweep all laws and report")
    p_verify.add_argument("n_max", type=_positive_int)
    p_verify.add_argument("a_max", type=_positive_int)
    p_verify.add_argument("--workers", type=_positive_int, default=1)
    p_verify.set_defaults(handler=_cmd_verify)

    p_st = sub.add_parser("steinhaus", help="triangle tools")
    st_sub = p_st.add_subparsers(dest="subcommand", required=True)
    st_tri = st_sub.add_parser("triangle", help="counts and balance verdict")
    st_tri.add_argument("modulus", type=_positive_int)
    st_tri.add_argument("sequence", type=_residue_list, help="e.g. 2,2,3,3")
    st_tri.set_defaults(handler=_cmd_steinhaus)
    st_search = st_sub.add_parser(
        "search", help="first balanced arithmetic progression"
    )
    st_search.add_argument("modulus", type=_positive_int)
    st_search.add_argument("length", type=_positive_int)
    st_search.set_defaults(handler=_cmd_steinhaus)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_separate_negative_list(argv))
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
