"""The verify harness: its statement registry, its filter and its worker pool."""

import concurrent.futures
import json
import pickle

import pytest

from rho_lattice import verify
from rho_lattice.cli import build_parser, main


def _fails():
    return "forced failure"


def _check_id(check):
    return check.statement, json.dumps(check.params, sort_keys=True)


def test_reproduce_command_rebuilds_its_check():
    rebuilt = {}
    for check in verify.build_checks(verify.SUITES):
        failing = verify.Check(check.statement, check.params, _fails, (), check.suite, check.seed)
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


def test_checks_survive_pickling():
    checks = verify.build_checks(verify.SUITES, seed=3)
    copies = pickle.loads(pickle.dumps(checks))
    assert copies == checks
    cheap = [c for c in checks if c.params.get("N", 0) <= 3 and c.params.get("d", 3) <= 3]
    assert {c.suite for c in cheap} == set(verify.SUITES)
    for c in cheap:
        assert pickle.loads(pickle.dumps(c)).run() == c.run()


class _BrokenPool:
    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, *args, **kwargs):
        raise concurrent.futures.process.BrokenProcessPool("a worker died")


def _no_pool(*args, **kwargs):
    raise OSError("no processes left")


@pytest.mark.parametrize("executor", [_no_pool, _BrokenPool], ids=["OSError", "broken"])
def test_pool_failure_exits_5_without_serial_fallback(monkeypatch, capsys, executor):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", executor)
    rc = main(["verify", "--suite", "torsion", "--max-N", "4", "--workers", "2"])
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: VerificationFailure: worker pool failed (")
    assert captured.err.endswith("); rerun with --workers 1\n")


@pytest.mark.parametrize("N", [64, 96, 256])
def test_g_quasi_inverse_beyond_the_sweep(N):
    assert verify._check_g_quasi_inverse(N) is None
