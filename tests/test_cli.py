"""Command-line surface: parser, subcommands, schemas, determinism."""

import contextlib
import io
import json
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rho_lattice import cli, ring, suspension, verify
from rho_lattice.cli import ParseError, main, parse_expression
from rho_lattice.elements import f_element, g_element
from rho_lattice.exceptions import VerificationFailure
from rho_lattice.ring import element_from_json, one, reduce_poly, truncated
from rho_lattice.surgery import LensParams, zero_element


# the zero element at N = 8, d = 5 as --element-json reads it
ZERO_N8_D5 = {
    "params": {"N": 8, "d": 5, "k": 1},
    "rho": ring.zero(truncated(8)).to_json(),
    "coords": {"t4": [0, 0], "t4m2": [0, 0]},
}


def _with(field, **changes):
    """ZERO_N8_D5 with some entries of one field replaced."""
    return {**ZERO_N8_D5, field: {**ZERO_N8_D5[field], **changes}}


def run_cli(*argv, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "rho_lattice.cli", *argv],
        capture_output=True,
        text=True,
        input=stdin,
    )
    return proc


class TestParser:
    def test_named_constants(self):
        m = truncated(4)
        assert parse_expression("f", m) == f_element(4)
        assert parse_expression("g", m) == g_element(4)
        assert parse_expression("f_k(3)", m) == -f_element(4)
        assert parse_expression("x^4", m) == one(m)

    def test_arithmetic(self):
        m = truncated(4)
        assert parse_expression("(1-x)^-1", m).coeffs == reduce_poly(
            {0: 1, 1: -1}, m
        ).__pow__(-1).coeffs
        assert parse_expression("1+x+x^2+x^3", m).is_zero()
        assert parse_expression("2*f - f - f", m).is_zero()
        assert parse_expression("(1+x)/(1-x)", m) == f_element(4)
        assert parse_expression("-x^2", m) == reduce_poly({2: -1}, m)

    def test_error_position(self):
        # only ASCII digits are numerals; str.isdigit also takes '²' and
        # other scripts' digits, such as Arabic-Indic '12'
        for text in ("1 + ?", "²", "x^²", "١٢"):
            with pytest.raises(ParseError) as err:
                parse_expression(text, truncated(8))
            assert "position" in str(err.value), text

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_expression("frob", truncated(4))

    def test_negative_k_reads_its_residue(self):
        m = truncated(8)
        assert parse_expression("f_k(-1)", m) == parse_expression("f_k(7)", m)
        assert parse_expression("fp_k(-1)", m) == parse_expression("fp_k(7)", m)

    @pytest.mark.parametrize("text", ("f", "g", "x + f", "f_k(3)", "fp_k(3)"))
    def test_named_constants_need_the_truncated_ring(self, text):
        with pytest.raises(ParseError, match="not under the group ideal"):
            parse_expression(text, ring.group_ring(4))


class TestSubcommands:
    def test_ring_examples(self):
        out = run_cli("ring", "f", "--N", "4", "--format", "tsv")
        assert out.returncode == 0
        assert out.stdout.splitlines() == ["x^0\t1/2", "x^1\t1/1", "x^2\t1/2"]
        out = run_cli("ring", "(1-x)^-1", "--N", "4", "--format", "tsv")
        assert out.stdout.splitlines() == ["x^0\t3/4", "x^1\t1/2", "x^2\t1/4"]
        out = run_cli("ring", "1+x+x^2+x^3", "--N", "4", "--format", "tsv")
        assert all(line.endswith("0/1") for line in out.stdout.splitlines())

    def test_ring_prints_answers_past_the_default_digit_limit(self):
        out = run_cli("ring", "2^20000", "--N", "4")
        assert out.returncode == 0 and out.stderr == ""
        num, den = json.loads(out.stdout)["element"]["coeffs"][0]
        assert len(num) == 6021 and num.isdigit() and den == "1"

    def test_ring_not_invertible_surfaced(self):
        out = run_cli("ring", "(1+x)^-1", "--N", "4")
        assert out.returncode == 3
        assert "not invertible" in out.stderr

    def test_ring_zero_divisor_refused_at_large_N(self):
        # Phi_4 = 1 + x^2 divides the ideal generator at N = 128
        out = run_cli("ring", "(1+x^2)^(-1)", "--N", "128")
        assert out.returncode == 3
        assert "is a zero divisor: witness" in out.stderr

    def test_ring_parse_error_position(self):
        out = run_cli("ring", "1 + ?", "--N", "4")
        assert out.returncode == 2
        assert "position" in out.stderr

    def test_non_ascii_digit_is_a_parse_error(self):
        out = run_cli("ring", "x^²", "--N", "8")
        assert out.returncode == 2
        assert out.stderr.startswith("parse error: expected an integer (at position 2)")

    def test_invalid_input_fails_cleanly(self):
        out = run_cli("ring", "f_k(3)", "--N", "12")
        assert out.returncode == 2
        assert "coprime" in out.stderr and "Traceback" not in out.stderr
        out = run_cli("structure-set", "--N", "4", "--d", "2")
        assert out.returncode == 2 and "Traceback" not in out.stderr

    def test_named_constant_under_group_ideal_is_a_parse_error(self):
        out = run_cli("ring", "x + f", "--N", "4", "--ideal", "group")
        assert out.returncode == 2
        assert out.stderr.startswith(
            "parse error: 'f' exists only in the truncated ring, not under the group ideal"
        )

    def test_special_prints_the_least_positive_k(self, capsys):
        printed = []
        for k in ("-1", "7", "9", "1"):
            assert main(["special", "--N", "8", "--k", k]) == 0
            printed.append(json.loads(capsys.readouterr().out))
        assert printed[0] == printed[1] and printed[1]["k"] == 7
        assert printed[2] == printed[3] and printed[2]["k"] == 1

    def test_structure_set(self):
        out = run_cli("structure-set", "--N", "3", "--d", "3")
        obj = json.loads(out.stdout)
        assert obj["schema"] == "rho-lattice/1"
        assert obj["free_rank"] == 1 and obj["torsion"]["factors"] == []
        out = run_cli("structure-set", "--N", "4", "--d", "5")
        obj = json.loads(out.stdout)
        assert obj["free_rank"] == 1
        assert obj["torsion"]["factors"] == [2, 2, 4, 4]
        out = run_cli("structure-set", "--N", "2", "--d", "3")
        obj = json.loads(out.stdout)
        assert obj["free_rank"] == 0 and obj["torsion"]["factors"] == [2, 2]

    def test_kernel_members(self):
        out = run_cli("kernel", "--N", "8", "--d", "4")
        obj = json.loads(out.stdout)
        assert obj["members"] == [[0], [2], [4], [6]]
        assert "method" not in obj

    def test_suspend_tau(self):
        out = run_cli("suspend", "--N", "8", "--d", "4", "--element", "tau")
        obj = json.loads(out.stdout)
        tops = [c["coords"]["t4"][-1] for c in obj["candidates"]]
        assert tops == [2, 6]
        assert obj["determined"] is None

    def test_suspend_zero(self):
        out = run_cli("suspend", "--N", "8", "--d", "5", "--element", "zero")
        obj = json.loads(out.stdout)
        det = obj["determined"]
        assert det is not None
        assert all(v == 0 for v in det["coords"]["t4"] + det["coords"]["t4m2"])

    def test_element_json_stdin(self):
        zero_obj = {
            "params": {"N": 8, "d": 5, "k": 1},
            "rho": ring.zero(truncated(8)).to_json(),
            "coords": {"t4": [0, 0], "t4m2": [0, 0]},
        }
        out = run_cli(
            "suspend",
            "--N",
            "8",
            "--d",
            "5",
            "--element-json",
            "-",
            stdin=json.dumps(zero_obj),
        )
        assert out.returncode == 0

    @pytest.mark.parametrize(
        "payload, field",
        (
            ({}, "'params'"),
            ([], "list"),
            ({"params": {"N": 8, "d": 5, "k": 1, "bogus": 1}}, "'params'"),
            (
                {
                    "params": {"N": 8, "d": 5, "k": 1},
                    "rho": {**ring.zero(truncated(8)).to_json(), "l": 3},
                    "coords": {"t4": [0, 0], "t4m2": [0, 0]},
                },
                "truncated takes no parameter l, got 3",
            ),
            # once read through int(): 8.9 as 8 (exit 0), True as 1; the
            # rest raised outside the parser (a traceback, exit 1)
            (
                _with("rho", coeffs=[[8.9, 1]] + ZERO_N8_D5["rho"]["coeffs"][1:]),
                "a coefficient must be an integer, got 8.9",
            ),
            (_with("rho", N=True), "N must be an integer, got True"),
            (_with("coords", t4=[1.5, 0]), "t4 must be an integer, got 1.5"),
            (_with("coords", t4=["1", 0]), "t4 must be an integer, got '1'"),
            (_with("params", d=7.0), "d must be an integer, got 7.0"),
            (_with("params", k=True), "k must be an integer, got True"),
        ),
        ids=(
            "empty-object", "list", "unknown-param", "l-on-truncated", "float-coefficient",
            "bool-N", "float-t4", "string-t4", "float-d", "bool-k",
        ),
    )
    def test_malformed_element_json_is_bad_input(self, payload, field):
        out = run_cli(
            "suspend", "--N", "8", "--d", "5", "--element-json", "-",
            stdin=json.dumps(payload),
        )
        assert out.returncode == 2
        assert out.stderr.startswith("error: ") and field in out.stderr
        assert "Traceback" not in out.stderr

    def test_deeply_nested_expression_is_a_parse_error(self):
        out = run_cli("ring", "(" * 1000 + "x" + ")" * 1000, "--N", "8")
        assert out.returncode == 2
        assert out.stderr.startswith("parse error: expression nested too deeply")
        assert "Traceback" not in out.stderr and out.stdout == ""

    def test_deeply_nested_element_json_is_bad_input(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        out = run_cli("suspend", "--N", "8", "--d", "4", "--element-json", str(path))
        assert out.returncode == 2
        assert out.stderr.startswith("error: --element-json is nested too deeply")
        assert "Traceback" not in out.stderr and out.stdout == ""

    @pytest.mark.parametrize("command", ("suspend", "transfer"))
    def test_element_json_must_match_command_line(self, command):
        extra = ["--to-n", "2"] if command == "transfer" else []
        element = zero_element(LensParams(8, 4)).to_json()
        out = run_cli(
            command, "--N", "16", "--d", "9", "--element-json", "-", *extra,
            stdin=json.dumps(element),
        )
        assert out.returncode == 2
        assert out.stderr.startswith("error: --element-json has parameters")
        assert "Traceback" not in out.stderr and out.stdout == ""

    @pytest.mark.parametrize("d", (4, 5))
    @pytest.mark.parametrize("command", ("suspend", "invariants", "transfer"))
    def test_inconsistent_element_json_is_bad_input(self, command, d):
        # rho = 1 is no coordinates' class: suspend once exited 5 at d = 5
        # and 0 with no candidates at d = 4, and transfer exited 0
        extra = ["--to-n", "2"] if command == "transfer" else []
        c = (d - 1) // 2
        element = {
            "params": {"N": 8, "d": d, "k": 1},
            "rho": one(truncated(8)).to_json(),
            "coords": {"t4": [0] * c, "t4m2": [0] * c},
        }
        out = run_cli(
            command, "--N", "8", "--d", str(d), "--element-json", "-", *extra,
            stdin=json.dumps(element),
        )
        assert out.returncode == 2
        assert out.stderr.startswith("error: --element-json is inconsistent")
        assert "Traceback" not in out.stderr and out.stdout == ""

    def test_invariants_unit_vector(self):
        out = run_cli("invariants", "--N", "8", "--d", "5", "--element", "mu")
        obj = json.loads(out.stdout)
        assert obj["coordinates"] == [0, 0, 0, 1]

    @pytest.mark.parametrize("command", ("suspend", "invariants", "transfer"))
    def test_unknown_element_name_is_bad_input(self, command):
        extra = ["--to-n", "2"] if command == "transfer" else []
        out = run_cli(command, "--N", "8", "--d", "5", "--element", "bogus", *extra)
        assert out.returncode == 2
        assert out.stderr.startswith("usage: ")
        assert "invalid choice: 'bogus'" in out.stderr
        assert "Traceback" not in out.stderr
        assert out.stdout == ""

    def test_transfer(self):
        out = run_cli("transfer", "--N", "8", "--d", "4", "--element", "tau", "--to-n", "2")
        obj = json.loads(out.stdout)
        el = element_from_json(obj["element"]["rho"])
        assert el.modulus.N == 2

    def test_work_cap_exit_code(self):
        # 2^30 members to list
        out = run_cli("kernel", "--N", "1024", "--d", "12")
        assert out.returncode == 4
        assert out.stderr.startswith("error: WorkCapExceeded: ")
        assert "Traceback" not in out.stderr

    def test_power_past_the_cap_exit_code(self, monkeypatch, capsys):
        monkeypatch.setenv("RHO_LATTICE_CAP", "100000")
        assert main(["ring", "2^1000000000000", "--N", "4"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: WorkCapExceeded: ") and "RHO_LATTICE_CAP" in err
        assert main(["ring", "x^1000000000000", "--N", "4", "--format", "tsv"]) == 0
        assert capsys.readouterr().out.startswith("x^0\t1/1\n")

    @pytest.mark.parametrize("value", ["abc", "-5", "0"])
    def test_invalid_work_cap_exit_code(self, monkeypatch, capsys, value):
        # once refused every query ("exceed the cap -5") or leaked int()'s message
        monkeypatch.setenv("RHO_LATTICE_CAP", value)
        assert main(["kernel", "--N", "8", "--d", "5"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: RHO_LATTICE_CAP must be a positive integer, got {value!r}\n"
        # refused before any work, also where no cap would be consulted
        for argv in (["ring", "x+1", "--N", "4"], ["verify", "--suite", "kernel", "--max-N", "4"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert "RHO_LATTICE_CAP must be a positive integer" in captured.err
            assert captured.out == ""

    def test_verification_failure_exit_code(self, monkeypatch, capsys):
        def broken(params):
            raise VerificationFailure("basis spans 3 of 4 torsion elements")

        monkeypatch.setattr(suspension, "torsion_basis", broken)
        rc = main(["torsion-basis", "--N", "4", "--d", "5"])
        assert rc == 5
        err = capsys.readouterr().err
        assert err == "error: VerificationFailure: basis spans 3 of 4 torsion elements\n"

    def test_out_of_memory_exit_code(self):
        # 10^11 coefficients: the allocation fails at once, using no memory
        out = run_cli("ring", "x", "--N", "100000000000")
        assert out.returncode == 4
        assert out.stderr == "error: MemoryError: out of memory\n"
        assert out.stdout == ""

    @pytest.mark.parametrize("workers", ("1", "2"))
    def test_closed_stdout_exits_as_sigpipe(self, workers):
        # ``verify | head -1``: the report (about 80 KB) overfills the pipe,
        # so the write after the reader leaves always fails
        proc = subprocess.Popen(
            [sys.executable, "-m", "rho_lattice.cli", "verify", "--workers", workers],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert json.loads(proc.stdout.readline())["status"] == "pass"
        proc.stdout.close()
        try:
            code = proc.wait(timeout=30)
        finally:
            proc.kill()
        assert code == 141
        assert proc.stderr.read() == ""
        proc.stderr.close()

    def test_torsion_basis_schema(self):
        out = run_cli("torsion-basis", "--N", "4", "--d", "5")
        obj = json.loads(out.stdout)
        assert obj["orders"] == [4, 4]
        assert "choice_log" in obj


def _modules_loaded_by(*argv):
    """The modules a fresh process holds after running one query."""
    code = (
        "import sys\n"
        "from rho_lattice import cli\n"
        f"rc = cli.main({list(argv)!r})\n"
        "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def _layers_loaded_by(*argv):
    """The rho_lattice modules a fresh process holds after running one query."""
    loaded = _modules_loaded_by(*argv)
    return {name.split(".")[1] for name in loaded if name.startswith("rho_lattice.")}


class TestLazyImports:
    def test_ring_query_loads_no_other_layer(self):
        loaded = _layers_loaded_by("ring", "1+x", "--N", "4")
        assert not loaded & {"elements", "surgery", "suspension", "verify"}

    def test_special_loads_elements_only(self):
        loaded = _layers_loaded_by("special", "--N", "8")
        assert "elements" in loaded
        assert not loaded & {"surgery", "suspension", "verify"}

    @pytest.mark.parametrize(
        "argv",
        (
            ("ring", "1+x", "--N", "4"),
            ("special", "--N", "8"),
            ("structure-set", "--N", "8", "--d", "4"),
            ("suspend", "--N", "8", "--d", "4"),
        ),
        ids=lambda argv: argv[0],
    )
    def test_cold_query_skips_dataclasses_and_inspect(self, argv):
        assert not _modules_loaded_by(*argv) & {"dataclasses", "inspect"}

    def test_suite_choices_follow_verify(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
        assert tuple(suite.choices) == ("all",) + verify.SUITES


class TestVerify:
    def test_kernel_suite_small(self):
        out = run_cli("verify", "--suite", "kernel", "--max-N", "8")
        assert out.returncode == 0
        lines = [json.loads(l) for l in out.stdout.splitlines()]
        checks = [l for l in lines if "statement" in l]
        assert len(checks) >= 20
        assert all(c["status"] == "pass" for c in checks)
        summary = lines[-1]["summary"]
        assert summary["failed"] == 0

    def test_deterministic_output(self):
        a = run_cli("verify", "--suite", "torsion", "--seed", "7", "--max-N", "4")
        b = run_cli("verify", "--suite", "torsion", "--seed", "7", "--max-N", "4")
        assert a.stdout == b.stdout

    def test_tsv_format(self):
        out = run_cli(
            "verify", "--suite", "kernel", "--max-N", "4", "--max-d", "4",
            "--format", "tsv",
        )
        assert out.returncode == 0
        assert all("\t" in line for line in out.stdout.splitlines())

    @pytest.mark.parametrize("workers", ("0", "-2"))
    def test_workers_below_one_rejected(self, workers, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("verify ran")

        monkeypatch.setattr(verify, "run_suites", no_run)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "torsion", "--max-N", "4", "--workers", workers])
        assert exc.value.code == 2
        assert "--workers: must be at least 1" in capsys.readouterr().err

    def test_empty_selection_is_bad_input(self, capsys):
        rc = main(["verify", "--suite", "ring", "--max-N", "1", "--workers", "1"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == "error: no check matches --suite ring --max-N 1\n"

    def test_main_entrypoint_inprocess(self, capsys):
        rc = main(["verify", "--suite", "torsion", "--max-N", "4", "--workers", "1"])
        assert rc == 0
        captured = capsys.readouterr()
        lines = [json.loads(l) for l in captured.out.splitlines()]
        assert lines[-1]["summary"]["failed"] == 0


# ---------------------------------------------------------------------------
# the exit-code contract, over random argument vectors


README_EXIT_CODES = {0, 1, 2, 3, 4, 5, 141}

# valid values three times as often as edge ones
N_TEXT = st.sampled_from(["2", "3", "4", "6", "8", "16"] * 3 + ["-1", "0", "1", "two"])
D_TEXT = st.sampled_from(["3", "4", "5", "6", "7"] * 3 + ["-1", "0", "1", "2", "1.5"])
K_TEXT = st.sampled_from(["1", "3", "5", "7"] * 3 + ["-3", "0", "2"])

# atoms include zero-divisor quotients (exit 3), closed-form quotients,
# constants that exist only in the truncated ring, and a power past the cap
ATOMS = st.sampled_from(
    [
        "x", "chi", "0", "1", "2", "f", "g", "f_k(3)", "fp_k(1)", "fk(-1)",
        "1/(1+x)", "1/(1+x^2)", "(x+2)/(1+x+x^2)", "1/(1-x)", "1/(1-x^5)",
        "1/(1+x+x^2+x^3+x^4)", "1/0", "x/(x-x)", "1/(3+x)", "2^1000000000000",
        "x^1000000000000",
    ]
)


def _compound(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(" ".join),
        children.map(lambda e: f"({e})"),
        children.map(lambda e: f"-{e}"),
        st.tuples(children, st.sampled_from(["2", "3", "0", "-1", "(-2)"])).map(
            lambda t: f"({t[0]})^{t[1]}"
        ),
    )


WELL_FORMED = st.recursive(ATOMS, _compound, max_leaves=6)
EXPRESSIONS = st.one_of(
    WELL_FORMED,
    WELL_FORMED,
    st.text(alphabet="x()+-*/^0123456789fgk_, \u00b2", max_size=12),  # mostly malformed
    st.sampled_from([3, 300, 3000]).map(lambda n: "(" * n + "x" + ")" * n),
)

ELEMENT_JSON = st.sampled_from(
    [
        "", "[", "null", "1", "[]", "{}", "[" * 100_000,
        json.dumps(ZERO_N8_D5),
        json.dumps(_with("params", d=7.0)),
        json.dumps(_with("params", N=16)),
        json.dumps(_with("rho", N=True)),
        json.dumps(_with("rho", coeffs=[["1", "0"]] * 7)),
        json.dumps(_with("rho", coeffs=[["x", "1"]] * 7)),
        json.dumps(_with("rho", **one(truncated(8)).to_json())),
        json.dumps(_with("coords", t4=["1", 0])),
        json.dumps(_with("coords", t4=[0])),
        json.dumps({"params": {"N": 8, "d": 5, "k": 1}}),
    ]
)


@st.composite
def argvs(draw):
    """(argv, stdin text) for one random subcommand."""
    command = draw(
        st.sampled_from(
            ["ring"] * 8
            + ["special", "structure-set", "kernel", "suspend", "torsion-basis"]
            + ["invariants", "transfer", "verify", "bogus"]
        )
    )
    if command == "ring":
        N = draw(st.sampled_from(["2", "4", "5", "6", "8", "12", "24", "48"] * 2 + ["1", "0", "x"]))
        ideal = draw(st.sampled_from(["truncated", "truncated", "group"]))
        return ["ring", draw(EXPRESSIONS), "--N", N, "--ideal", ideal], ""
    if command == "special":
        return ["special", "--N", draw(N_TEXT), "--k", draw(K_TEXT)], ""
    if command == "verify":
        suite = draw(st.sampled_from(["ring", "lemmas", "kernel", "suspension", "torsion"]))
        bounds = ["--max-N", draw(st.sampled_from(["1", "2", "3"]))]
        bounds += draw(st.sampled_from([[], ["--max-d", "3"], ["--max-d", "0"]]))
        workers = draw(st.sampled_from(["1", "1", "0", "-2"]))
        return ["verify", "--suite", suite, *bounds, "--workers", workers], ""
    if command == "bogus":
        return [command, "--N", "4"], ""
    argv = [command, "--N", draw(N_TEXT), "--d", draw(D_TEXT), "--k", draw(K_TEXT)]
    if command == "structure-set" and draw(st.booleans()):
        argv.append("--members")
    stdin = ""
    if command in ("suspend", "invariants", "transfer"):
        if draw(st.booleans()):
            argv = [command, "--N", "8", "--d", "5", "--element-json", "-"]
            stdin = draw(ELEMENT_JSON)
        else:
            argv += ["--element", draw(st.sampled_from(cli.ELEMENTS + ("bogus",)))]
        if command == "transfer":
            argv += ["--to-n", draw(st.sampled_from(["1", "2", "3", "4"]))]
    return argv, stdin


def _run_inprocess(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(argvs())
def test_every_exit_is_a_documented_code(case):
    # the README's exit-code table is the whole contract: no traceback,
    # parseable JSON on success, and a refused inverse names its witness
    argv, stdin = case
    code, out, err = _run_inprocess(argv, stdin)
    assert code in README_EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, argv
    if code == 0:
        lines = out.splitlines() if argv[0] == "verify" else [out]
        assert all(isinstance(json.loads(line), dict) for line in lines), argv
    elif argv[0] != "verify":
        assert out == "", argv
    if code == 3:
        # every refusal, zero's included, prints its witness P / gcd(a, P)
        assert err.startswith("not invertible: <") and " is a zero divisor: witness <" in err, (
            argv,
            err,
        )
