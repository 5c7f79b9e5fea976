"""Pinned answers: CLI outputs byte for byte against recorded files.

The files under ``tests/data/`` were recorded from the command lines below;
``perfbench/verify_seed0.jsonl`` is the recorded report of the full seed-0
``verify`` sweep.  A change that alters any of them changes an answer.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
VERIFY_SEED0 = ROOT / "perfbench" / "verify_seed0.jsonl"
VERIFY_SEED0_SHA256 = "1b11b1ca90763a78d7546a1b013cb032caa3210cad26d843b1b90b5c52932e71"

# (recorded file, stream, exit code, command line)
GOLDEN = [
    ("special_N24_k5.stdout", "stdout", 0, ["special", "--N", "24", "--k", "5"]),
    ("special_N9_k2.stdout", "stdout", 0, ["special", "--N", "9", "--k", "2"]),
    ("kernel_N16_d8.stdout", "stdout", 0, ["kernel", "--N", "16", "--d", "8"]),
    (
        "structure_set_N16_d8_members.stdout",
        "stdout",
        0,
        ["structure-set", "--N", "16", "--d", "8", "--members"],
    ),
    (
        "torsion_basis_N8_d7_k3.stdout",
        "stdout",
        0,
        ["torsion-basis", "--N", "8", "--d", "7", "--k", "3"],
    ),
    ("ring_inv_1mx5_N24.stdout", "stdout", 0, ["ring", "(1-x^5)^(-1)", "--N", "24"]),
    (
        "ring_group_N6_product.stdout",
        "stdout",
        0,
        ["ring", "(2-x)^3*(1+x^2)", "--N", "6", "--ideal", "group"],
    ),
    (
        "suspend_N16_d4_tau.stdout",
        "stdout",
        0,
        ["suspend", "--N", "16", "--d", "4", "--element", "tau"],
    ),
    (
        "invariants_N8_d7_k3.stdout",
        "stdout",
        0,
        [
            "invariants", "--N", "8", "--d", "7", "--k", "3",
            "--element-json", str(DATA / "torsion_element_N8_d7_k3.json"),
        ],
    ),
    (
        "invariants_N16_d7.stdout",
        "stdout",
        0,
        [
            "invariants", "--N", "16", "--d", "7",
            "--element-json", str(DATA / "torsion_element_N16_d7.json"),
        ],
    ),
    (
        "ring_zero_divisor_N24.stderr",
        "stderr",
        3,
        ["ring", "(1+x^2)/((1+x)*(2+x))", "--N", "24"],
    ),
]


def run_cli(*argv, flags=()):
    return subprocess.run(
        [sys.executable, *flags, "-m", "rho_lattice.cli", *argv], capture_output=True
    )


# Every recording must also hold under -O, which strips asserts.
@pytest.mark.parametrize(
    "name, stream, code, argv, flags",
    [
        pytest.param(*g, flags, id=g[0] + "".join(flags))
        for flags in ([], ["-O"])
        for g in GOLDEN
    ],
)
def test_cli_output_matches_recording(name, stream, code, argv, flags):
    out = run_cli(*argv, flags=flags)
    assert out.returncode == code
    assert getattr(out, stream) == (DATA / name).read_bytes()


# The pool streams its results through the executor's ordered map; the
# report must not depend on it.
@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_seed0_report_matches_recording(workers):
    recorded = VERIFY_SEED0.read_bytes()
    assert hashlib.sha256(recorded).hexdigest() == VERIFY_SEED0_SHA256
    out = run_cli("verify", "--suite", "all", "--seed", "0", "--workers", workers)
    assert out.returncode == 0
    assert out.stdout == recorded
