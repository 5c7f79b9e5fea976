"""The verify harness: its statement registry, its filter and its worker pool."""

import concurrent.futures
import json
import pickle
import random
from math import lcm

import pytest

from rho_lattice import ring, verify
from rho_lattice.cli import build_parser, main


def _fails():
    return "forced failure"


def _check_id(check):
    return check.statement, json.dumps(check.params, sort_keys=True)


def test_reproduce_command_rebuilds_its_check():
    rebuilt = {}
    for check in verify.build_checks(verify.SUITES):
        failing = verify.Check(
            check.statement, check.params, _fails, (), check.suite, check.seed, False
        )
        entry = verify._run_one(failing)
        command = entry["reproduce"]
        if command not in rebuilt:
            args = build_parser().parse_args(command.split()[1:])
            rebuilt[command] = {
                _check_id(c)
                for c in verify.build_checks((args.suite,), args.max_n, args.max_d, args.seed)
            }
        assert _check_id(check) in rebuilt[command], command


def test_max_bounds_apply_to_every_suite():
    checks = verify.build_checks(verify.SUITES, max_n=4, max_d=4)
    assert {c.suite for c in checks} == set(verify.SUITES)
    assert all(c.params.get("N", 0) <= 4 and c.params.get("d", 0) <= 4 for c in checks)


def test_each_statement_has_one_registry_entry():
    names = [s.name for s in verify._registry()]
    assert len(names) == len(set(names))


def test_seeded_checks_draw_from_their_statement_id(monkeypatch):
    # the module docstring promises randomness keyed by the statement id,
    # which is the registry name that reports and reproduce commands carry;
    # Check.run is the one place that builds the stream
    keys = []
    real = verify._rng

    def spy(seed, statement, params):
        keys.append((seed, statement, params))
        return real(seed, statement, params)

    monkeypatch.setattr(verify, "_rng", spy)
    first = {}
    for c in verify.build_checks(verify.SUITES, seed=3):
        if c.seeded:
            first.setdefault(c.statement, c)
    assert len(first) == 13
    assert {s.name for s in verify._registry() if s.seeded} == set(first)
    for c in first.values():
        keys.clear()
        assert c.run() is None
        assert keys == [(3, c.statement, c.params)], c.statement


def test_checks_survive_pickling():
    checks = verify.build_checks(verify.SUITES, seed=3)
    copies = pickle.loads(pickle.dumps(checks))
    assert copies == checks
    cheap = [c for c in checks if c.params.get("N", 0) <= 3 and c.params.get("d", 3) <= 3]
    assert {c.suite for c in cheap} == set(verify.SUITES)
    for c in cheap:
        assert pickle.loads(pickle.dumps(c)).run() == c.run()


class _BrokenPool:
    delivered = 0  # results handed out before the worker dies

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, **kwargs):
        yield from map(fn, items[: self.delivered])
        raise concurrent.futures.process.BrokenProcessPool("a worker died")


class _BrokenMidRun(_BrokenPool):
    delivered = 2


def _no_pool(*args, **kwargs):
    raise OSError("no processes left")


@pytest.mark.parametrize(
    "executor", [_no_pool, _BrokenPool, _BrokenMidRun], ids=["OSError", "broken", "mid-run"]
)
def test_pool_failure_exits_5_without_serial_fallback(monkeypatch, capsys, executor):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", executor)
    rc = main(["verify", "--suite", "torsion", "--max-N", "4", "--workers", "2"])
    assert rc == 5
    captured = capsys.readouterr()
    # the lines of the checks that finished stay printed; no summary follows
    lines = [json.loads(line) for line in captured.out.splitlines()]
    assert [line["status"] for line in lines] == ["pass"] * getattr(executor, "delivered", 0)
    assert captured.err.startswith("error: VerificationFailure: worker pool failed (")
    assert captured.err.endswith("); rerun with --workers 1\n")


def test_each_line_is_written_before_the_next_check_starts(monkeypatch, capsys):
    out = []
    lines_at_start = []
    run = verify.Check.run

    def spy(check):
        out.append(capsys.readouterr().out)
        lines_at_start.append("".join(out).count("\n"))
        return run(check)

    monkeypatch.setattr(verify.Check, "run", spy)
    rc = main(["verify", "--suite", "torsion", "--max-N", "4", "--workers", "1"])
    out.append(capsys.readouterr().out)
    assert rc == 0
    assert lines_at_start == list(range(len(lines_at_start)))
    assert "".join(out).count("\n") == len(lines_at_start) + 1  # and the summary


@pytest.mark.parametrize("N", [64, 96, 256])
def test_g_quasi_inverse_beyond_the_sweep(N):
    assert verify._check_g_quasi_inverse(N) is None


def _randint_element(rng, m, integral):
    """The element the harness drew with two ``randint`` calls per coefficient."""
    if integral:
        return ring.from_numerators(m, [rng.randint(-9, 9) for _ in range(m.dim)])
    pairs = [(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(m.dim)]
    den = lcm(*(q for _, q in pairs))
    return ring.from_numerators(m, [p * (den // q) for p, q in pairs], den)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(
    "modulus",
    [ring.group_ring(12), ring.truncated(12), ring.binomial_plus(12, 1), ring.odd_truncated(12)],
    ids=lambda m: m.kind,
)
@pytest.mark.parametrize("integral", [False, True])
def test_random_element_draws_the_randint_stream(seed, modulus, integral):
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert verify._random_element(ours, modulus, integral) == _randint_element(
            theirs, modulus, integral
        )
    assert ours.getstate() == theirs.getstate()


def test_inverse_roundtrip_compares_each_witness_with_the_null_vector(monkeypatch):
    # every draw made a zero divisor: (1 + x) divides it at even N
    m = ring.truncated(8)
    draw = verify._random_element
    one_plus_x = ring.reduce_poly({0: 1, 1: 1}, m)
    monkeypatch.setattr(verify, "_random_element", lambda rng, m: draw(rng, m) * one_plus_x)

    def check():
        rng = verify._rng(0, "inverse-roundtrip", {"N": 8, "kind": "truncated"})
        return verify._check_inverse_roundtrip(m, rng)

    assert check() is None
    # twice the witness still annihilates, but it is not the null vector
    witness = ring._zero_divisor_witness
    monkeypatch.setattr(ring, "_zero_divisor_witness", lambda a: witness(a) * 2)
    assert "is not the null vector at trial 0" in check()

    def no_witness(a):
        raise ring.NotInvertible("not invertible")

    monkeypatch.setattr(ring, "inverse", no_witness)
    assert "is not the null vector at trial 0" in check()


def test_inverse_roundtrip_meets_real_zero_divisors(monkeypatch):
    # one draw in four is a * Phi_d, d cycling over the factors of P: every
    # row with a composite N refuses nonzero zero divisors, whose witnesses
    # the check compares with the dense solve's null vector
    refused = {}
    witness = ring._zero_divisor_witness

    def counted(a):
        w = witness(a)
        if w is not None:
            refused[a.modulus.N] = refused.get(a.modulus.N, 0) + 1
        return w

    monkeypatch.setattr(ring, "_zero_divisor_witness", counted)
    rows = [c for c in verify.build_checks(("ring",), seed=0) if c.statement == "inverse-roundtrip"]
    for check in rows:
        assert check.run() is None, check.params
    composite = [N for N in (c.params["N"] for c in rows) if any(N % p == 0 for p in range(2, N))]
    assert len(composite) >= 5 and all(refused.get(N, 0) >= 2 for N in composite), refused
