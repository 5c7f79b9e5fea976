"""The three workloads, each a closed loop with one client.

A workload's ``setup`` imports what it needs, generates its inputs from the
seed and warms what a user's process would have warm; ``ops`` yields the
operations in a fixed order, each a timed call into the package plus an
independent check of its outcome (see ``reference.py``).  The seed picks
operands and parameters, never the mix: which kind of operation sits in
which slot is fixed, so runs with different seeds measure the same work.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable, Iterator

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
QUERY_TIMEOUT_S = 150


@dataclass
class Op:
    kind: str  # the operation, CLI command or verify statement
    call: Callable[[], object]
    check: Callable[[object, BaseException | None], bool]
    suite: str = ""


def _import_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _coeffs(obj) -> list[Fraction]:
    """Coefficients of an element as the CLI prints it."""
    return [Fraction(int(n), int(d)) for n, d in obj["coeffs"]]


# ---------------------------------------------------------------------------
# verify-sweep


RECORDED_REPORT = HERE / "verify_seed0.jsonl"
# sha256 of `rho-lattice verify --suite all --seed 0` stdout at the commit
# that introduced this benchmark; RECORDED_REPORT holds that stdout.
RECORDED_DIGEST = "1b11b1ca90763a78d7546a1b013cb032caa3210cad26d843b1b90b5c52932e71"


def _vdc(i: int) -> float:
    """Bit-reversed fraction of i: 0, 1/2, 1/4, 3/4, 1/8, ..."""
    x, scale = 0.0, 0.5
    while i:
        if i & 1:
            x += scale
        i >>= 1
        scale /= 2
    return x


def _check_id(statement: str, params: dict) -> tuple[str, str]:
    return statement, json.dumps(params, sort_keys=True)


class VerifySweep:
    """The full ``verify`` harness: all suites, default sweep, one process.

    The sweep is run once, in a stratified order: within each statement the
    checks are ranked by parameters and interleaved by bit-reversed rank, so
    any prefix samples every statement across its whole parameter range.  A
    run that ends before the sweep does has measured a representative share.

    Check costs spread over five decades, and single checks take up to a
    fifth of the window, so a rate or percentile over whatever fits in the
    window would jump with every check gained or lost.  The metrics come
    from the first ``sample_ops`` checks of the order instead, the same
    checks in every run; the rest of the window is still run and checked.
    """

    name = "verify-sweep"
    sample_ops = 300

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        _import_package()
        from rho_lattice import verify

        lines = RECORDED_REPORT.read_text().splitlines()
        self.recorded_digest = hashlib.sha256(
            "".join(line + "\n" for line in lines).encode()
        ).hexdigest()
        self.summary_line = lines[-1]
        self.expected = {}
        for line in lines[:-1]:
            obj = json.loads(line)
            self.expected[_check_id(obj["statement"], obj["params"])] = line
        checks = verify.build_checks(verify.SUITES, seed=self.seed)
        by_statement: dict[str, list] = {}
        for c in checks:
            by_statement.setdefault(c.statement, []).append(c)
        keyed = []
        for statement, group in by_statement.items():
            group.sort(key=lambda c: json.dumps(c.params, sort_keys=True))
            keyed.extend((_vdc(i), statement, i, c) for i, c in enumerate(group))
        keyed.sort(key=lambda t: t[:3])
        self.checks = [t[3] for t in keyed]
        self.produced: dict[tuple, str] = {}

    def _op(self, c) -> Op:
        cid = _check_id(c.statement, c.params)

        def check(witness, error) -> bool:
            status = "pass" if error is None and witness is None else "fail"
            line = json.dumps(
                {"params": c.params, "schema": "rho-lattice/1", "statement": c.statement,
                 "status": status},
                sort_keys=True,
            )
            self.produced[cid] = line
            return line == self.expected.get(cid)

        return Op(c.statement, c.run, check, c.suite)

    def ops(self, tracer=None) -> Iterator[Op]:
        return (self._op(c) for c in self.checks)

    def finish(self) -> list[str]:
        """Problems beyond single checks: the check list and the seed-0 report.

        The report is rebuilt from the lines this run produced and, for
        checks outside the run's window, the recorded lines; for seed 0 its
        digest must equal the recorded one.
        """
        problems = []
        built = {_check_id(c.statement, c.params) for c in self.checks}
        if built != set(self.expected):
            problems.append(
                f"check list differs from the recorded report: "
                f"{len(built - set(self.expected))} new, {len(set(self.expected) - built)} gone"
            )
        if self.recorded_digest != RECORDED_DIGEST:
            problems.append("recorded report does not match its digest")
        if self.seed == 0:
            body = [self.produced.get(cid, line) for cid, line in self.expected.items()]
            all_pass = all(line.endswith('"status": "pass"}') for line in body)
            text = "".join(line + "\n" for line in body + [self.summary_line if all_pass else ""])
            if hashlib.sha256(text.encode()).hexdigest() != RECORDED_DIGEST:
                problems.append("seed-0 report digest differs from the recorded one")
        return problems


# ---------------------------------------------------------------------------
# ring-ops


def _random_coeffs(rng: random.Random, dim: int, rational: bool) -> list[Fraction]:
    if rational:
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(dim)]
    return [Fraction(rng.randint(-9, 9)) for _ in range(dim)]


def _unit_coeffs(rng: random.Random, N: int, rational: bool) -> list[Fraction]:
    """A unit by construction: |constant| exceeds the sum of the other |coeffs|
    (all at most 9), so no root of unity is a root."""
    coeffs = _random_coeffs(rng, N - 1, rational)
    coeffs[0] = Fraction(10 * N) + coeffs[0]
    return coeffs


ZERO_DIVISOR_FACTORS = {2: {0: 1, 1: 1}, 3: {0: 1, 1: 1, 2: 1}, 4: {0: 1, 2: 1}}


class RingOps:
    """Warm arithmetic in the truncated ring at N in {8, 24, 48}.

    Each deck interleaves one 18-slot block per N.  Cheap operations (mul,
    pow, eigen_project, restrict, crt_split, divide_by_f, closed-form
    inverses) fill 14 slots and set p50; generic inverses, a zero-divisor
    refusal and crt_combine fill 4 (22%) and set p90.
    """

    name = "ring-ops"
    sample_ops = None  # every operation in the window
    SIZES = (8, 24, 48)
    BLOCK = (
        "mul", "mul", "inverse", "eigen_project", "restrict", "crt_split", "crt_combine",
        "mul", "pow", "inverse_zero_divisor", "mul", "eigen_project", "restrict",
        "inverse_closed_form", "mul", "divide_by_f", "inverse", "mul",
    )

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        _import_package()
        from rho_lattice import elements, ring

        self.ring, self.elements = ring, elements
        for N in self.SIZES:
            elements.Catalog.get(N, 1)
            ring.crt_combine(ring.crt_split(ring.one(ring.truncated(N))), N)

    @staticmethod
    def _ks(N: int) -> list[int]:
        return [k for k in range(1, N) if gcd(k, N) == 1]

    def finish(self) -> list[str]:
        return []

    def ops(self, tracer=None) -> Iterator[Op]:
        deck = 0
        while True:
            rng = random.Random(f"ring-ops:{self.seed}:{deck}")
            blocks = {N: iter(self._block(rng, N, deck)) for N in self.SIZES}
            for _ in self.BLOCK:
                for N in self.SIZES:
                    yield next(blocks[N])
            deck += 1

    def _block(self, rng: random.Random, N: int, deck: int) -> Iterator[Op]:
        ring = self.ring
        m = ring.truncated(N)
        gen = ref.generator("truncated", N)

        def element(coeffs):
            return ring.from_coeffs(m, coeffs)

        def same(value, coeffs) -> bool:
            return list(value.coeffs) == list(coeffs)

        split_state = {}
        for i, slot in enumerate(self.BLOCK):
            rational = (i + deck) % 2 == 0  # fixed, not seeded: it changes the cost
            if slot == "mul":
                a = _random_coeffs(rng, N - 1, rational)
                b = _random_coeffs(rng, N - 1, not rational)
                x, y = element(a), element(b)
                yield Op(f"mul@{N}", lambda x=x, y=y: x * y,
                         lambda v, e, a=a, b=b: e is None and same(v, ref.mul(a, b, gen)))
            elif slot == "pow":
                a, n = _random_coeffs(rng, N - 1, rational), 2 + deck % 3
                want = a
                for _ in range(n - 1):
                    want = ref.mul(want, a, gen)
                x = element(a)
                yield Op(f"pow@{N}", lambda x=x, n=n: x**n,
                         lambda v, e, w=want: e is None and same(v, w))
            elif slot == "eigen_project":
                a, sign = _random_coeffs(rng, N - 1, rational), rng.choice((1, -1))
                conj = ref.involution(a, N)
                want = [(p + sign * q) / 2 for p, q in zip(a, conj)]
                x = element(a)
                yield Op(f"eigen_project@{N}", lambda x=x, s=sign: ring.eigen_project(x, s),
                         lambda v, e, w=want: e is None and same(v, w))
            elif slot == "restrict":
                a = _random_coeffs(rng, N - 1, rational)
                n_prime = rng.choice([d for d in range(2, N) if N % d == 0])
                x = element(a)
                yield Op(f"restrict@{N}", lambda x=x, n=n_prime: ring.restrict(x, n),
                         lambda v, e, w=ref.restrict(a, n_prime): e is None and same(v, w))
            elif slot == "crt_split":
                a = _random_coeffs(rng, N - 1, rational)
                split_state["a"] = a
                x = element(a)

                def check_split(parts, e, a=a):
                    if e is not None:
                        return False
                    split_state["parts"] = parts
                    kinds = ref.crt_factor_kinds(N)
                    return len(parts) == len(kinds) and all(
                        p.modulus.kind == kind
                        and (kind != "binomial_plus" or p.modulus.param == l)
                        and same(p, ref.reduce(a, ref.generator(kind, N, l)))
                        for p, (kind, l) in zip(parts, kinds)
                    )

                yield Op(f"crt_split@{N}", lambda x=x: ring.crt_split(x), check_split)
            elif slot == "crt_combine":
                yield Op(
                    f"crt_combine@{N}",
                    lambda: ring.crt_combine(split_state["parts"], N),
                    lambda v, e: e is None and same(v, split_state["a"]),
                )
            elif slot == "inverse":
                a = _unit_coeffs(rng, N, rational)
                x = element(a)
                yield Op(f"inverse@{N}", lambda x=x: ring.inverse(x),
                         lambda v, e, a=a: e is None and ref.mul(a, list(v.coeffs), gen)
                         == ref.one(N))
            elif slot == "inverse_closed_form":
                k = rng.choice(self._ks(N))
                if rng.random() < 0.5:
                    terms = {0: 1, k: -1}
                else:
                    terms = {j: 1 for j in range(k)}
                a = ref.truncated(terms, N)
                x = element(a)
                yield Op(f"inverse_closed_form@{N}", lambda x=x: ring.inverse(x),
                         lambda v, e, a=a: e is None and ref.mul(a, list(v.coeffs), gen)
                         == ref.one(N))
            elif slot == "inverse_zero_divisor":
                d = [d for d in (2, 3, 4) if N % d == 0][deck % (3 if N % 3 == 0 else 2)]
                factor = ref.truncated(ZERO_DIVISOR_FACTORS[d], N)
                a = ref.mul(factor, _random_coeffs(rng, N - 1, rational), gen)
                x = element(a)

                def check_refusal(v, e, a=a):
                    if type(e).__name__ != "NotInvertible":
                        return False
                    w = getattr(e, "witness", None)
                    return w is None or (
                        not ref.is_zero(w.coeffs) and ref.is_zero(ref.mul(a, list(w.coeffs), gen))
                    )

                yield Op(f"inverse_zero_divisor@{N}", lambda x=x: ring.inverse(x), check_refusal)
            elif slot == "divide_by_f":
                terms: dict[int, int] = {}
                for k in range(1, N // 2 + 1):
                    c = rng.randint(-3, 3)
                    for e, v in ((k, 4 * c), (N - k, 4 * c), (0, 8 * c * (-1) ** (k + 1))):
                        terms[e % N] = terms.get(e % N, 0) + v
                u = ref.truncated(terms, N)
                x = element(u)
                lhs_factor = ref.truncated({0: 1, 1: 1}, N)
                rhs = ref.mul(ref.truncated({0: 1, 1: -1}, N), u, gen)

                def check_quotient(v, e, rhs=rhs):
                    if e is not None:
                        return False
                    q = list(v.coeffs)
                    return (
                        ref.mul(lhs_factor, q, gen) == rhs
                        and all((c / 4).denominator == 1 for c in q)
                        and ref.involution(q, N) == [-c for c in q]
                    )

                yield Op(f"divide_by_f@{N}",
                         lambda x=x: self.elements.divide_by_f(x), check_quotient)


# ---------------------------------------------------------------------------
# cli-queries


def _named_rho(name: str, N: int, e: int) -> list[Fraction]:
    """rho of the named structure-set elements at d = 2e or 2e+1, from their
    defining formulas."""
    K = ref.split_two_power(N)[0]
    evens = ref.truncated({2 * j: 1 for j in range(N // 2)}, N)
    scale = {
        "zero": 0, "mu": 0, "sigma": None, "omega": 16,
        "tau": 2 ** max(4 - K, 2), "nu": Fraction(2) ** (4 - min(K, 2 * e)),
    }[name]
    if scale is None:
        return ref.truncated({0: 8}, N)
    return [c * scale for c in evens]


def _refused(proc, pattern: str) -> bool:
    return proc.returncode != 0 and re.search(pattern, proc.stderr, re.IGNORECASE) is not None


class CliQueries:
    """A stream of ``rho-lattice`` CLI queries, each in a fresh process.

    Each 20-query deck holds 14 light queries (about import time), 2
    refusals and 3 medium queries (about twice import time).  Its last slot
    is heavy on every fourth deck, rotating through torsion-basis (8,7),
    invariants (8,7), structure-set (16,8) and special --N 48, and light
    otherwise.  With that mix p50 falls among the light queries and p90
    among the medium ones, and a run holds over 100 queries.
    """

    name = "cli-queries"
    sample_ops = None  # every query in the window

    def __init__(self, seed: int):
        self.seed = seed

    def env(self) -> dict:
        path = os.environ.get("PYTHONPATH")
        return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def setup(self) -> None:
        self._env = self.env()
        warm = self._run(["ring", "1+x", "--N", "4"], tracer=None)
        if warm.returncode != 0:
            raise RuntimeError(f"rho-lattice CLI does not start: {warm.stderr.strip()[-300:]}")

    def _run(self, argv, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "rho_lattice.cli", *argv]
            return subprocess.run(cmd, capture_output=True, text=True, env=self._env,
                                  timeout=QUERY_TIMEOUT_S)
        RESULTS.mkdir(exist_ok=True)
        fd, spans_path = tempfile.mkstemp(prefix="cli-spans-", suffix=".json", dir=RESULTS)
        os.close(fd)
        try:
            cmd = [sys.executable, str(HERE / "run.py"), "--role", "cli-child",
                   "--out", spans_path, "--", *argv]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self._env,
                                  timeout=QUERY_TIMEOUT_S)
            with open(spans_path) as fh:
                data = json.load(fh)
            tracer.absorb(data["spans"], data["counters"], parent=tracer.current())
            return proc
        finally:
            os.unlink(spans_path)

    def finish(self) -> list[str]:
        return []

    def ops(self, tracer=None) -> Iterator[Op]:
        deck = 0
        while True:
            rng = random.Random(f"cli-queries:{self.seed}:{deck}")
            for command, argv, check in self._deck(rng, deck):
                yield Op(command, lambda a=argv: self._run(a, tracer),
                         lambda p, e, c=check: e is None and _json_check(p, c))
            deck += 1

    def _deck(self, rng: random.Random, deck: int) -> list:
        def ks(N, limit=3):
            return [k for k in range(1, N) if gcd(k, N) == 1][:limit]

        def poly_text(N, terms=3):
            chosen = {rng.randrange(N - 1): rng.choice([-7, -3, -2, -1, 1, 2, 3, 5])
                      for _ in range(terms)}
            text = " + ".join(f"{c}*x^{e}" for e, c in sorted(chosen.items()))
            return text, ref.truncated(chosen, N)

        def ring_product(N):
            (p, pr), (q, qr) = poly_text(N), poly_text(N)
            want = ref.mul(pr, qr, ref.generator("truncated", N))
            return ("ring", ["ring", f"({p})*({q})", "--N", str(N)],
                    lambda o: _coeffs(o["element"]) == want)

        def ring_quotient(N):
            p, pr = poly_text(N)
            k = rng.choice(ks(N, 5))
            unit = ref.truncated({0: 1, k: -1}, N)
            gen = ref.generator("truncated", N)
            return ("ring", ["ring", f"({p})/(1-x^{k})", "--N", str(N)],
                    lambda o: ref.mul(_coeffs(o["element"]), unit, gen) == pr)

        def ring_closed_inverse(N):
            k = rng.choice(ks(N, 8))
            unit = ref.truncated({0: 1, k: -1}, N)
            gen = ref.generator("truncated", N)
            return ("ring", ["ring", f"(1-x^{k})^(-1)", "--N", str(N)],
                    lambda o: ref.mul(_coeffs(o["element"]), unit, gen) == ref.one(N))

        def ring_zero_divisor(N):
            (p, _), (q, _) = poly_text(N), poly_text(N)
            return ("ring", ["ring", f"({p})/((1+x)*({q}))", "--N", str(N)],
                    REFUSAL_NOT_INVERTIBLE)

        def special(N):
            k = rng.choice(ks(N))
            return ("special", ["special", "--N", str(N), "--k", str(k)],
                    lambda o: _special_ok(o, N, k))

        def structure_set(N, d):
            k = rng.choice(ks(N))
            return ("structure-set", ["structure-set", "--N", str(N), "--d", str(d), "--k", str(k)],
                    lambda o: _structure_ok(o, N, d))

        def kernel(N, d):
            k = rng.choice(ks(N))
            return ("kernel", ["kernel", "--N", str(N), "--d", str(d), "--k", str(k)],
                    lambda o: _kernel_ok(o, N, d))

        def kernel_over_cap():
            N, d = 1024, 8
            return ("kernel", ["kernel", "--N", str(N), "--d", str(d)],
                    Refusal(r"WorkCapExceeded|work cap", lambda o: _kernel_ok(o, N, d)))

        def torsion_basis(N, d):
            k = rng.choice(ks(N))
            return ("torsion-basis", ["torsion-basis", "--N", str(N), "--d", str(d), "--k", str(k)],
                    lambda o: _torsion_basis_ok(o, N, d))

        def invariants(N, d, name):
            k = rng.choice(ks(N))
            c = (d - 1) // 2
            want = [0] * (2 * c - 1) + [1 if name == "mu" else 0]
            return ("invariants",
                    ["invariants", "--N", str(N), "--d", str(d), "--k", str(k), "--element", name],
                    lambda o: o["orders"] == ref.block_orders(N, d) + [2] * c
                    and o["coordinates"] == want)

        def suspend(N, d, name):
            k = rng.choice(ks(N))
            return ("suspend",
                    ["suspend", "--N", str(N), "--d", str(d), "--k", str(k), "--element", name],
                    lambda o: _suspend_ok(o, N, d, name))

        def transfer(N, d, name):
            k = rng.choice(ks(N))
            to_n = rng.choice([n for n in range(2, N) if N % n == 0])
            want = ref.restrict(_named_rho(name, N, d // 2), to_n)
            return ("transfer",
                    ["transfer", "--N", str(N), "--d", str(d), "--k", str(k), "--element", name,
                     "--to-n", str(to_n)],
                    lambda o: o["element"]["params"]["N"] == to_n
                    and _coeffs(o["element"]["rho"]) == want
                    and not any(o["element"]["coords"]["t4"] + o["element"]["coords"]["t4m2"]))

        def turn(*choices):
            """The deck's choice among parameter sets of unequal cost."""
            return choices[deck % len(choices)]

        light = (lambda: ring_quotient(48),) * 3
        heavy = turn(
            lambda: torsion_basis(8, 7), *light,
            lambda: invariants(8, 7, "mu"), *light,
            lambda: structure_set(16, 8), *light,
            lambda: special(48), *light,
        )
        return [
            ring_product(8),
            special(turn(8, 12, 16)),
            suspend(turn(8, 16), 5, turn("mu", "zero", "zero", "mu")),
            ring_quotient(24),
            transfer(*turn((16, 6, "sigma"), (24, 8, "omega"), (16, 8, "tau"))),
            kernel(8, 8),  # medium
            structure_set(*turn((8, 5), (12, 6), (24, 5), (8, 6))),
            ring_zero_divisor(24),  # refusal
            torsion_basis(8, turn(5, 6)),
            heavy(),
            suspend(*turn((8, 4, "nu"), (16, 6, "omega"), (8, 6, "sigma"), (16, 4, "tau"))),
            ring_product(48),
            structure_set(8, 8),  # medium
            invariants(16, 5, turn("mu", "zero")),
            special(24),
            kernel_over_cap(),  # refusal
            transfer(*turn((24, 6, "sigma"), (16, 8, "omega"), (24, 8, "tau"))),
            special(32),  # medium
            ring_closed_inverse(48),
            structure_set(16, 6),
        ]


class Refusal:
    """A query that must fail with the typed error named on stderr, or, once
    the package can answer it, answer correctly."""

    def __init__(self, pattern: str, answer_ok=None):
        self.pattern, self.answer_ok = pattern, answer_ok


REFUSAL_NOT_INVERTIBLE = Refusal(r"NotInvertible|not invertible")


def _json_check(proc, check) -> bool:
    if isinstance(check, Refusal):
        if _refused(proc, check.pattern):
            return True
        if proc.returncode != 0 or check.answer_ok is None:
            return False
        check = check.answer_ok
    if proc.returncode != 0:
        return False
    return bool(check(json.loads(proc.stdout)))


def _special_ok(o, N: int, k: int) -> bool:
    gen = ref.generator("truncated", N)

    def t(terms):
        return ref.truncated(terms, N)

    f, f_k, fp_k, g = (_coeffs(o[key]) for key in ("f", "f_k", "f_prime_k", "g"))
    v = t({1: 1, N - 1: -1})  # x - x^(-1), in the (-1)-eigenspace
    return (
        ref.mul(f, t({0: 1, 1: -1}), gen) == t({0: 1, 1: 1})
        and ref.mul(f_k, t({0: 1, k: -1}), gen) == t({0: 1, k: 1})
        and ref.mul(f, fp_k, gen) == f_k
        and all(c.denominator == 1 for c in fp_k)
        and ref.mul(ref.mul(g, f, gen), v, gen) == v
    )


def _structure_ok(o, N: int, d: int) -> bool:
    return o["free_rank"] == ref.rank_clause(N, d) and ref.primary_parts(
        o["torsion"]["factors"]
    ) == ref.primary_parts(ref.kernel_orders(N, d))


def _kernel_ok(o, N: int, d: int) -> bool:
    K, c = ref.split_two_power(N)[0], (d - 1) // 2
    members = {tuple(m) for m in o["members"]}
    return (
        ref.primary_parts(o["torsion"]["factors"]) == ref.primary_parts(ref.kernel_orders(N, d))
        and len(members) == len(o["members"]) == ref.kernel_member_count(N, d)
        and all(len(m) == c and all(0 <= t < 2**K for t in m) for m in members)
    )


def _torsion_basis_ok(o, N: int, d: int) -> bool:
    c = (d - 1) // 2
    units = [[1 if j == i else 0 for j in range(c)] for i in range(c)]
    return (
        o["orders"] == ref.block_orders(N, d)
        and len(o["mu4"]) == c
        and all(ref.is_zero(_coeffs(m["rho"])) for m in o["mu4"])
        and [m["coords"]["t4m2"] for m in o["mu4m2"]] == units
    )


def _suspend_ok(o, N: int, d: int, name: str) -> bool:
    gen = ref.generator("truncated", N)
    rho = _named_rho(name, N, d // 2)
    # rho' = f * rho, i.e. (1 - x) * rho' = (1 + x) * rho
    want = ref.mul(ref.truncated({0: 1, 1: 1}, N), rho, gen)
    cands = o["candidates"]
    return (
        len(cands) >= 1
        and (o["determined"] is not None) == (len(cands) == 1)
        and all(
            cand["params"]["d"] == d + 1
            and ref.mul(ref.truncated({0: 1, 1: -1}, N), _coeffs(cand["rho"]), gen) == want
            for cand in cands
        )
    )


WORKLOADS = {w.name: w for w in (VerifySweep, CliQueries, RingOps)}
