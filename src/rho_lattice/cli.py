"""Command-line interface.

Subcommands expose every computation plus the one-shot verification
harness:

    ring          evaluate a ring expression in x over a chosen quotient
    special       the named elements f, f_k, f'_k, g for (N, k)
    structure-set free rank + torsion of the structure-set model
    kernel        kernel of the coordinate-class map, with its members
    suspend       suspension of an element (with candidate sets)
    torsion-basis the inductive torsion basis with its choice log
    invariants    expansion of a torsion element over the basis
    transfer      restriction of an element to a subgroup
    verify        re-derive every statement over a sweep (JSONL report)

Each subcommand imports only the layers it uses, so a ``ring`` query
loads neither ``surgery``, ``suspension`` nor ``verify``, and a cold
``special --N 1024`` answers in about 65 ms with cached bytecode (median
of 7 processes on a 2-core Intel Xeon VM under CPython 3.11, where a bare
``python -c pass`` takes about 35 ms).  The value classes are
slotted classes on :class:`rho_lattice.frozen.Frozen`, not dataclass
decorations, so no query loads ``inspect``, ``ast``, ``dis`` or
``tokenize``.

JSON outputs carry a top-level "schema": "rho-lattice/1".  ``verify``
prints one line per check, in canonical order, as each check finishes,
then a summary line.  ``verify --timings PATH`` also writes each check's
wall seconds to PATH, one JSON line per check in report order, and names
the 10 statements with the largest total time on stderr; stdout is the
same with or without it.

Exit codes:

    0  success (for ``verify``: every check passed)
    1  ``verify`` ran and at least one check failed
    2  bad input (parse error, invalid parameters, input nested too deeply,
       unreadable JSON, an --element-json whose N, d, k differ from the
       command line or that fails ``element_validate``, a ``verify``
       selection that matches no check, a RHO_LATTICE_CAP that is not a
       positive integer)
    3  not invertible
    4  work cap exceeded (WorkCapExceeded): a kernel with more members to
       list than the cap, or a power whose coefficients would pass it in
       bits; or out of memory (MemoryError)
    5  internal verification failure (VerificationFailure), including a
       closed-form inverse that fails its check and a ``verify`` worker
       pool that failed; rerun with ``--workers 1``
  141  stdout was closed early (``verify | head -1``); nothing more is
       printed, as a shell reports a process ended by SIGPIPE

Codes 4 and 5 print ``error: <TypeName>: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from . import SCHEMA, SUITES, ring
from .exceptions import NotInvertible, VerificationFailure, WorkCapExceeded, work_cap


# ---------------------------------------------------------------------------
# expression parser:  +, -, *, /, ^, parentheses, x, and named constants


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    """Recursive-descent parser over a fixed (N, k) ring context."""

    def __init__(self, text: str, modulus: ring.Modulus):
        self.text = text
        self.pos = 0
        self.m = modulus

    # -- lexing helpers

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _take(self, ch: str) -> bool:
        if self._peek() == ch:
            self.pos += 1
            return True
        return False

    def _expect(self, ch: str) -> None:
        if not self._take(ch):
            raise ParseError(f"expected {ch!r}", self.pos)

    def _integer(self) -> int:
        self._skip_ws()
        start = self.pos
        if self._peek() == "-":
            self.pos += 1
        # ASCII only: str.isdigit also takes '²' and other scripts' digits
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])

    def _ident(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start:self.pos]

    # -- grammar

    def parse(self) -> ring.Element:
        value = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError("trailing input", self.pos)
        return value

    def _expr(self) -> ring.Element:
        value = self._term()
        while True:
            if self._take("+"):
                value = value + self._term()
            elif self._take("-"):
                value = value - self._term()
            else:
                return value

    def _term(self) -> ring.Element:
        value = self._unary()
        while True:
            if self._take("*"):
                value = value * self._unary()
            elif self._take("/"):
                value = value * ring.inverse(self._unary())
            else:
                return value

    def _unary(self) -> ring.Element:
        if self._take("-"):
            return -self._unary()
        return self._power()

    def _power(self) -> ring.Element:
        base = self._atom()
        if self._take("^"):
            if self._take("("):
                n = self._integer()
                self._expect(")")
            else:
                n = self._integer()
            return base**n
        return base

    def _atom(self) -> ring.Element:
        ch = self._peek()
        if ch == "(":
            self._take("(")
            value = self._expr()
            self._expect(")")
            return value
        if "0" <= ch <= "9":
            return ring.const(self.m, self._integer())
        start = self.pos
        name = self._ident()
        if not name:
            raise ParseError("expected a value", self.pos)
        if name in ("x", "chi"):
            return ring.x_power(self.m, 1)
        if name not in ("f", "g", "f_k", "fk", "fp_k", "f_prime_k", "fpk"):
            raise ParseError(f"unknown name {name!r}", start)
        if self.m.kind != ring.TRUNCATED:
            raise ParseError(
                f"{name!r} exists only in the truncated ring, not under the "
                f"{self.m.kind} ideal",
                start,
            )
        from .elements import Catalog, f_element, g_element

        N = self.m.N
        if name == "f":
            return f_element(N)
        if name == "g":
            return g_element(N)
        self._expect("(")
        kk = self._integer()
        self._expect(")")
        cat = Catalog.get(N, kk)
        return cat.f_k if name in ("f_k", "fk") else cat.f_prime_k


def parse_expression(text: str, modulus: ring.Modulus) -> ring.Element:
    parser = _Parser(text, modulus)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.pos) from None


# ---------------------------------------------------------------------------
# output helpers


def _emit(obj: dict, fmt: str) -> None:
    obj = {"schema": SCHEMA, **obj}
    if fmt == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for key, value in obj.items():
            print(f"{key}\t{json.dumps(value, sort_keys=True)}")


ELEMENTS = ("zero", "sigma", "omega", "tau", "mu", "nu")


def _element_arg(args, params):
    """Build the input element from --element or --element-json; a JSON
    element must carry the --N, --d and --k given and pass element_validate."""
    from .surgery import element_from_json, element_validate, zero_element
    from .suspension import elem_mu4m2, elem_nu, elem_omega, elem_sigma, elem_tau

    if args.element_json:
        try:
            if args.element_json == "-":
                data = json.load(sys.stdin)
            else:
                with open(args.element_json) as fh:
                    data = json.load(fh)
        except RecursionError:
            raise ValueError("--element-json is nested too deeply") from None
        x = element_from_json(data)
        if x.params != params:
            raise ValueError(
                f"--element-json has parameters {x.params.to_json()}, "
                f"but the command line gives {params.to_json()}"
            )
        if not element_validate(x):
            raise ValueError("--element-json is inconsistent: rho is not its coordinates' class")
        return x
    named = {
        "zero": zero_element,
        "sigma": elem_sigma,
        "omega": elem_omega,
        "tau": elem_tau,
        "mu": elem_mu4m2,
        "nu": elem_nu,
    }
    return named[args.element](params)


# ---------------------------------------------------------------------------
# subcommands


def cmd_ring(args) -> int:
    kind = ring.truncated(args.N) if args.ideal == "truncated" else ring.group_ring(args.N)
    try:
        value = parse_expression(args.expr, kind)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    if args.format == "tsv":
        for e, c in enumerate(value.coeffs):
            print(f"x^{e}\t{c.numerator}/{c.denominator}")
        return 0
    _emit({"element": value.to_json()}, "json")
    return 0


def cmd_special(args) -> int:
    from .elements import Catalog

    _emit(Catalog.get(args.N, args.k).to_json(), args.format)
    return 0


def cmd_structure_set(args) -> int:
    from .surgery import LensParams, structure_set

    params = LensParams(args.N, args.d, args.k)
    desc = structure_set(params)
    _emit(desc.to_json(include_members=args.members), args.format)
    return 0


def cmd_kernel(args) -> int:
    from .surgery import LensParams, kernel_rho_bar

    params = LensParams(args.N, args.d, args.k)
    kr = kernel_rho_bar(params)
    _emit(
        {
            "params": params.to_json(),
            "torsion": kr.torsion.to_json(),
            "members": [list(mm) for mm in kr.members],
        },
        args.format,
    )
    return 0


def cmd_suspend(args) -> int:
    from .surgery import LensParams
    from .suspension import suspend

    params = LensParams(args.N, args.d, args.k)
    x = _element_arg(args, params)
    result = suspend(x)
    _emit(result.to_json(), args.format)
    return 0


def cmd_torsion_basis(args) -> int:
    from .surgery import LensParams
    from .suspension import torsion_basis

    params = LensParams(args.N, args.d, args.k)
    basis = torsion_basis(params)
    _emit(basis.to_json(), args.format)
    return 0


def cmd_invariants(args) -> int:
    from .surgery import LensParams
    from .suspension import torsion_basis, torsion_coordinates

    params = LensParams(args.N, args.d, args.k)
    x = _element_arg(args, params)
    basis = torsion_basis(params)
    coeffs = torsion_coordinates(x, basis)
    _emit(
        {
            "params": params.to_json(),
            "orders": list(basis.orders) + [2] * params.c,
            "coordinates": list(coeffs),
        },
        args.format,
    )
    return 0


def cmd_transfer(args) -> int:
    from .surgery import LensParams, transfer

    params = LensParams(args.N, args.d, args.k)
    x = _element_arg(args, params)
    _emit({"element": transfer(x, args.to_n).to_json()}, args.format)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suites

    suites = SUITES if args.suite == "all" else (args.suite,)
    started = time.perf_counter()
    failed = 0
    by_statement: dict[str, int] = {}
    # with --timings, each check's wall seconds go to that file, one JSON
    # line per check in report order; stdout is the same either way
    seconds: dict[str, float] = {}
    timed = args.timings is not None
    with open(args.timings, "w") if timed else contextlib.nullcontext() as timings:
        for check, wall in run_suites(suites, args.max_n, args.max_d, args.seed, args.workers):
            if timed:
                seconds[check["statement"]] = seconds.get(check["statement"], 0.0) + wall
                record = dict(statement=check["statement"], params=check["params"], seconds=wall)
                timings.write(json.dumps(record, sort_keys=True) + "\n")
            failed += check["status"] == "fail"
            by_statement[check["statement"]] = by_statement.get(check["statement"], 0) + 1
            if args.format == "tsv":
                params = json.dumps(check["params"], sort_keys=True)
                line = f"{check['statement']}\t{params}\t{check['status']}"
            else:
                line = json.dumps({"schema": SCHEMA, **check}, sort_keys=True)
            print(line, flush=True)
    total = sum(by_statement.values())
    summary = {
        "total": total,
        "passed": total - failed,
        "failed": failed,
        "by_statement": by_statement,
    }
    if args.format == "tsv":
        print(f"summary\t{json.dumps(summary, sort_keys=True)}")
    else:
        line = {"schema": SCHEMA, "summary": summary, "seed": args.seed}
        print(json.dumps(line, sort_keys=True))
    elapsed = time.perf_counter() - started
    print(f"{total - failed}/{total} checks passed in {elapsed:.1f}s", file=sys.stderr)
    if timed:
        print("slowest statements (total wall seconds):", file=sys.stderr)
        for name in sorted(seconds, key=seconds.get, reverse=True)[:10]:
            line = f"  {seconds[name]:8.3f}s  {name} ({by_statement[name]} checks)"
            print(line, file=sys.stderr)
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rho-lattice",
        description="Exact structure-set computations for fake lens spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, d_required=True):
        p.add_argument("--N", type=int, required=True, help="order of the cyclic group")
        if d_required:
            p.add_argument("--d", type=int, required=True, help="dimension index (L^(2d-1))")
        p.add_argument("--k", type=int, default=1, help="action twist, coprime to N")
        p.add_argument("--format", choices=("json", "tsv"), default="json")

    p = sub.add_parser("ring", help="evaluate an expression in the quotient ring")
    p.add_argument("expr", help="expression in x (and f, g, f_k(k), fp_k(k))")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--ideal", choices=("truncated", "group"), default="truncated")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("special", help="the named elements for (N, k)")
    common(p, d_required=False)
    p.set_defaults(func=cmd_special)

    p = sub.add_parser("structure-set", help="free rank and torsion presentation")
    common(p)
    p.add_argument("--members", action="store_true", help="include kernel members")
    p.set_defaults(func=cmd_structure_set)

    p = sub.add_parser("kernel", help="kernel of the class map with its members")
    common(p)
    p.set_defaults(func=cmd_kernel)

    for name, fn, extra in (
        ("suspend", cmd_suspend, None),
        ("invariants", cmd_invariants, None),
        ("transfer", cmd_transfer, "to_n"),
    ):
        p = sub.add_parser(name)
        common(p)
        p.add_argument(
            "--element",
            choices=ELEMENTS,
            default="zero",
            help="named element",
        )
        p.add_argument(
            "--element-json",
            default=None,
            help="path to an element JSON ('-' for stdin) over the same N, d and k; "
            "overrides --element",
        )
        if extra == "to_n":
            p.add_argument("--to-n", type=int, required=True, dest="to_n")
        p.set_defaults(func=fn)

    p = sub.add_parser("torsion-basis", help="inductive torsion basis with choice log")
    common(p)
    p.set_defaults(func=cmd_torsion_basis)

    p = sub.add_parser("verify", help="re-derive every statement over a sweep")
    p.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p.add_argument("--max-N", type=int, default=None, dest="max_n")
    p.add_argument("--max-d", type=int, default=None, dest="max_d")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers",
        type=_at_least_one,
        default=None,
        help="worker processes, at least 1 (default: all cores)",
    )
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument(
        "--timings",
        metavar="PATH",
        default=None,
        help="write each check's wall seconds to PATH (JSONL, report order) and "
        "name the 10 slowest statements on stderr",
    )
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    # exact answers can be longer than the 4,300 digits Python converts by
    # default (3.10.7 onward)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    if getattr(args, "workers", 1) is None:
        args.workers = os.cpu_count() or 1
    try:
        work_cap()  # a malformed cap is refused before any work, not mid-run
        return args.func(args)
    except NotInvertible as exc:
        print(f"not invertible: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout: say nothing more, and let the flush at
        # exit write to devnull; 141 is what a shell reports for SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (WorkCapExceeded, MemoryError, VerificationFailure) as exc:
        print(f"error: {type(exc).__name__}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 5 if isinstance(exc, VerificationFailure) else 4
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
