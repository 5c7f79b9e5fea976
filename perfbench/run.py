#!/usr/bin/env python3
"""Benchmark of rho-lattice: time to a verdict, end to end and per layer.

    python3 perfbench/run.py --workload verify-sweep --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and README.md): ``verify-sweep``,
``cli-queries`` and ``ring-ops``.  Each run measures one workload for
``--seconds`` of time spent in the package, checks every answer against an
independent reference, and prints as its last stdout line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Times are
reported at a reference machine speed; see ``CALIBRATION_SHARE``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: it runs the workload untraced for half the time,
then runs the same operations again in a fresh process with every listed
package function wrapped in spans, and writes the spans to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve()
sys.path.insert(0, str(HERE.parent))

import tracing  # noqa: E402
from workloads import RESULTS, ROOT, SRC, WORKLOADS  # noqa: E402

VERIFY_STATEMENTS = (
    "thm-main-kernel",
    "crt-roundtrip",
    "ring-axioms",
    "lemma-f_k",
    "divide-by-f",
    "lemma-f-inverse",
    "cor-basis-roundtrip",
    "inverse-roundtrip",
    "rank-lattice-clause",
)
VERIFY_SUITES = ("ring", "lemmas", "kernel", "suspension", "torsion")
CLI_COMMANDS = (
    "ring", "special", "structure-set", "kernel", "suspend", "torsion-basis", "invariants",
    "transfer",
)
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups, one in-process
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 170
# The machine is shared; its speed drifts by tens of percent over seconds to
# minutes.  After each operation the run spends CALIBRATION_SHARE of that
# operation's time in a fixed probe loop, so the probes sample the machine's
# speed over the same stretches of time as the work.  Times are reported at
# the reference speed, at which one probe takes PROBE_REF_S.
CALIBRATION_SHARE = 0.25
PROBE_REF_S = 0.0014


def probe() -> float:
    """Time of one fixed pure-Python loop that never touches the package."""
    start, total = time.perf_counter(), Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    return time.perf_counter() - start


def calibrate(seconds: float) -> tuple[float, int]:
    """Run probes for at least ``seconds``; return their total time and count."""
    spent, count = probe(), 1
    while spent < seconds:
        spent, count = spent + probe(), count + 1
    return spent, count


def probe_ms() -> float:
    spent, count = calibrate(0.05)
    return spent / count * 1000


def slowness(records) -> float:
    """Mean probe time over the reference: above 1 when the machine ran slow."""
    spent = sum(r["probe_s"] for r in records)
    return spent / (PROBE_REF_S * sum(r["probes"] for r in records))


def at_reference(record) -> float:
    """An operation's latency scaled by the probes run right after it."""
    return record["latency"] / slowness([record])


def machine_facts() -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "rho_lattice").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "load1_start": os.getloadavg()[0],
        "probe_ms_start": probe_ms(),
    }


def measure(ops, seconds: float | None, limit: int | None = None, tracer=None) -> list[dict]:
    """Run ops one after another (a closed loop with one client).

    Stops once ``seconds`` of operation time have passed, or after ``limit``
    operations.  An operation counts toward throughput and latency only when
    it ended inside the window; every operation's answer is checked.
    """
    records: list[dict] = []
    busy = 0.0
    for op in ops:
        if limit is not None and len(records) >= limit:
            break
        with tracer.span(f"op.{op.kind}") if tracer else nullcontext():
            start = time.perf_counter()
            try:
                value, error = op.call(), None
            except Exception as exc:  # a raised error is an outcome to check
                value, error = None, exc
            latency = time.perf_counter() - start
        try:
            ok = bool(op.check(value, error))
        except Exception as exc:  # a malformed answer fails its check
            ok, error = False, exc
        if not ok:
            reason = repr(error) if error is not None else "wrong answer"
            print(f"# FAILED {op.kind}: {reason}"[:400], file=sys.stderr)
        in_window = seconds is None or busy + latency <= seconds
        busy += latency
        probe_s, probes = calibrate(CALIBRATION_SHARE * latency)
        records.append({"kind": op.kind, "suite": op.suite, "latency": latency, "ok": ok,
                        "in_window": in_window, "probe_s": probe_s, "probes": probes})
        if seconds is not None and busy >= seconds:
            break
    return records


def timed_setup(workload) -> float:
    """Set-up time at the reference speed."""
    start = time.perf_counter()
    workload.setup()
    raw = time.perf_counter() - start
    probe_s, probes = calibrate(CALIBRATION_SHARE * raw)
    return at_reference({"latency": raw, "probe_s": probe_s, "probes": probes})


def child(args: list[str], timeout: float = CHILD_TIMEOUT_S, env=None) -> str:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:3]} failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout


def setup_child(name: str, seed: int) -> float:
    out = child([str(HERE), "--role", "setup", "--workload", name, "--seed", str(seed)])
    return json.loads(out.splitlines()[-1])["setup_s"]


def import_ms() -> float:
    """Median time to import the CLI module in a fresh process."""
    code = ("import time; t = time.perf_counter(); import rho_lattice.cli; "
            "print((time.perf_counter() - t) * 1000)")
    env = WORKLOADS["cli-queries"](0).env()
    return statistics.median(
        float(child(["-c", code], env=env)) for _ in range(IMPORT_REPEATS)
    )


def percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups = [setup_child(name, seed) for _ in range(SETUP_REPEATS - 1)]
    workload = WORKLOADS[name](seed)
    setups.append(timed_setup(workload))
    records = measure(workload.ops(), seconds)
    problems = workload.finish()
    window = [r for r in records if r["in_window"]]
    sample = window[: workload.sample_ops]
    ranked = [at_reference(r) for r in sample]
    raw = [r["latency"] for r in sample]
    busy = sum(r["latency"] for r in records)
    slow = slowness(records)
    if workload.sample_ops:  # a fixed set of operations: the rate over exactly those
        raw_rate, rate = len(raw) / sum(raw), len(ranked) / sum(ranked)
    else:
        raw_rate = len(window) / min(seconds, busy)
        rate = raw_rate * slow
    p90 = percentile_90(ranked)
    who = resource.RUSAGE_CHILDREN if name == "cli-queries" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (rate, "1/s"),
        "latency_p50_ms": (statistics.median(ranked) * 1000, "ms"),
        "latency_p90_ms": (p90 * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    details = {
        "slowness": slow,
        "raw": {
            "ops_per_s": raw_rate,
            "latency_p50_ms": statistics.median(raw) * 1000,
            "latency_p90_ms": percentile_90(raw) * 1000,
        },
        "setup_samples_s": setups,
        "latency_samples": len(ranked),
        "samples_above_p90": sum(1 for v in ranked if v > p90),
        "busy_s": busy,
        "problems": problems,
        "by_kind": _by_kind(records),
    }
    return _result(records, problems, metrics), details


def _by_kind(records: list[dict]) -> dict:
    out: dict[str, list] = {}
    for r in records:
        out.setdefault(r["kind"], []).append(r["latency"])
    return {k: {"count": len(v), "median_ms": statistics.median(v) * 1000}
            for k, v in sorted(out.items())}


def _result(records, problems, metrics) -> dict:
    attempted = len(records) + len(problems)
    failed = sum(1 for r in records if not r["ok"]) + len(problems)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_pass(name: str, seed: int, limit: int, out: Path, spans: Path) -> None:
    """Child role: set up, wrap the package, run the first ``limit`` ops."""
    workload = WORKLOADS[name](seed)
    workload.setup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records = measure(workload.ops(tracer), None, limit=limit, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.dump(spans)
    out.write_text(json.dumps({
        "records": records,
        "problems": workload.finish(),
        "self_times": tracer.self_times(),
        "counters": dict(tracer.counters),
    }))


def per_layer(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    workload = WORKLOADS[name](seed)
    workload.setup()
    untraced = measure(workload.ops(), seconds / 2)
    problems = workload.finish()
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}"
    out, spans = stem.with_suffix(".traced.json"), stem.with_suffix(".spans.json.gz")
    child([str(HERE), "--role", "traced", "--workload", name, "--seed", str(seed),
           "--ops", str(len(untraced)), "--out", str(out), "--spans", str(spans)])
    traced = json.loads(out.read_text())
    out.unlink()
    problems += traced["problems"]

    metrics: dict[str, tuple] = {}
    for span in tracing.SPAN_NAMES:
        calls, self_s = traced["self_times"].get(span, (0, 0.0))
        metrics[f"{span}.calls"] = (calls, "count")
        metrics[f"{span}.self_s"] = (self_s, "s")
    counters = traced["counters"]
    candidates = counters.get("surgery.kernel_rho_bar.candidates", 0)
    returns = counters.get("suspension.resolve.returns", 0)
    metrics["ring.inverse.refused"] = (counters.get("ring.inverse.refused", 0), "count")
    metrics["surgery.kernel_rho_bar.candidates"] = (candidates, "count")
    metrics["surgery.kernel_rho_bar.member_ratio"] = (
        counters.get("surgery.kernel_rho_bar.members", 0) / candidates if candidates else 0.0,
        "ratio",
    )
    metrics["suspension.resolve.ambiguous_ratio"] = (
        counters.get("suspension.resolve.ambiguous", 0) / returns if returns else 0.0, "ratio"
    )
    metrics["suspension.torsion_basis.table_entries"] = (
        counters.get("suspension.torsion_basis.table_entries", 0), "count"
    )
    for statement in VERIFY_STATEMENTS:
        metrics[f"verify.{statement}.wall_s"] = (
            sum(r["latency"] for r in untraced if r["kind"] == statement), "s"
        )
    for suite in VERIFY_SUITES:
        metrics[f"verify.suite.{suite}.wall_s"] = (
            sum(r["latency"] for r in untraced if r["suite"] == suite), "s"
        )
    metrics["cli.import_ms"] = (import_ms(), "ms")
    for command in CLI_COMMANDS:
        walls = [r["latency"] for r in untraced if name == "cli-queries" and r["kind"] == command]
        metrics[f"cli.{command}.wall_ms"] = (statistics.median(walls) * 1000 if walls else 0.0,
                                             "ms")
    untraced_s = sum(r["latency"] for r in untraced) / slowness(untraced)
    traced_s = sum(r["latency"] for r in traced["records"]) / slowness(traced["records"])
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")

    details = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "operations": len(untraced),
        "spans_file": str(spans.relative_to(ROOT)),
        "self_time_s": {k: v[1] for k, v in sorted(traced["self_times"].items())},
        "problems": problems,
    }
    return _result(untraced + traced["records"], problems, metrics), details


def cli_child(out: str, argv: list[str]) -> None:
    """Child role: run one CLI query with the package wrapped in spans."""
    sys.path.insert(0, str(SRC))
    import rho_lattice.cli as cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    finally:
        with open(out, "w") as fh:
            json.dump({"spans": tracer.spans, "counters": dict(tracer.counters)}, fh)
    sys.exit(rc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # roles of the benchmark's own child processes
    parser.add_argument("--role", default="main", choices=("main", "setup", "traced", "cli-child"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--ops", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    parser.add_argument("argv", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "rho_lattice" / "__init__.py").is_file():
        print(f"error: no rho_lattice package under {SRC}", file=sys.stderr)
        return 2
    if args.role == "cli-child":
        cli_child(args.out, args.argv)
    if args.workload is None:
        parser.error("--workload is required")
    if args.role == "setup":
        print(json.dumps({"setup_s": timed_setup(WORKLOADS[args.workload](args.seed))}))
        return 0
    if args.role == "traced":
        traced_pass(args.workload, args.seed, args.ops, Path(args.out), Path(args.spans))
        return 0

    facts = machine_facts()
    run = per_layer if args.trace else end_to_end
    result, details = run(args.workload, args.seed, args.seconds)
    facts["load1_end"] = os.getloadavg()[0]
    facts["probe_ms_end"] = probe_ms()
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "details": details, **result}
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    fail_ratio = result["failed"] / result["attempted"]
    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    summary = {k: v for k, v in details.items() if k not in ("by_kind", "self_time_s")}
    print(f"# {args.workload} seed={args.seed} fail_ratio={fail_ratio:.4g} "
          f"{json.dumps(summary, sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
