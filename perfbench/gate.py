"""Run one op in a fresh process, classify its outcome and check its report.

Failure classes (each failed sample gets exactly one):

    timeout       killed at the per-op time limit
    exit_code     exit code outside {0, 1, 2}
    traceback     no JSON report on stdout (an uncaught exception)
    wrong_answer  a JSON report that fails the op's gate

The gate compares the report with the benchmark's own numbers from
groups.py: the group order and element set, the golden (mu3, mu4), the
spectral classes; plus the program's own consistency flags (mismatches,
failures, tolerances).
"""

import hashlib
import json
import os
import subprocess
import threading
import time
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class Outcome:
    returncode: int
    seconds: float
    stdout: str
    stderr: str
    maxrss_kb: int
    timed_out: bool


def run_child(argv, env, limit_s, scratch):
    """Spawn argv, time it from spawn to exit, and reap it with its rusage.

    Output goes to files in `scratch` (no pipe to drain); a timer kills the
    child at `limit_s`.  The child is always waited for.
    """
    out_path = os.path.join(scratch, "child.out")
    err_path = os.path.join(scratch, "child.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        killer = threading.Timer(max(limit_s, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    timed_out = proc.returncode < 0 and seconds >= limit_s
    return Outcome(proc.returncode, seconds, stdout, stderr, usage.ru_maxrss, timed_out)


def parse_report(stdout):
    """The JSON report on the last stdout line, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return report if isinstance(report, dict) else None


def report_hash(report):
    """sha256 of the report without its timing field (the determinism contract)."""
    body = {k: v for k, v in report.items() if k != "wall_time_s"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def classify(outcome, report, problems):
    """The failure class of one sample, or None if it passed."""
    if outcome.timed_out:
        return "timeout"
    if outcome.returncode not in (0, 1, 2):
        return "exit_code"
    if report is None:
        return "traceback"
    if problems:
        return "wrong_answer"
    return None


def _mu_problems(got_mu3, got_mu4, op):
    want = op.mu
    got = (Fraction(got_mu3), Fraction(got_mu4))
    return [] if got == want else [f"(mu3, mu4) = {got}, expected {want}"]


def _element_key(e):
    rows = tuple(tuple(e["matrix"][i * 7:(i + 1) * 7]) for i in range(7))
    return rows, tuple(Fraction(x) for x in e["translation"])


def check_report(op, returncode, report):
    """Problems with a parsed report; an empty list means the op passed."""
    if returncode != 0:
        problems = [f"exit code {returncode}"]
    else:
        problems = []
    results = report.get("results")
    if not isinstance(results, dict):
        return problems + [f"no results: {report.get('error')}"]
    cmd = op.spec.command
    try:
        if cmd == "check":
            if results.get("valid") is not True:
                problems.append("group reported invalid")
            if results.get("order") != len(op.elements):
                problems.append(f"order {results.get('order')}, expected {len(op.elements)}")
            got = {_element_key(e) for e in results.get("elements", [])}
            if got != set(op.elements):
                problems.append("element set differs from the benchmark's closure")
        elif cmd == "invariants":
            problems += _mu_problems(results["mu3"], results["mu4"], op)
            if not results["zeta_crosscheck"]["within_tolerance"]:
                problems.append("zeta crosscheck outside tolerance")
        elif cmd == "zeta":
            exact = results["exact_mu"]
            problems += _mu_problems(exact["mu3"], exact["mu4"], op)
            if len(results["elements"]) != len(op.elements):
                problems.append("one zeta row per element expected")
            if results["max_deviation"] > results["tolerance"] \
                    or results["closed_form_deviation"] > results["tolerance"]:
                problems.append("zeta value at 0 outside tolerance")
        elif cmd == "spectrum":
            if results["mismatches"] != 0:
                problems.append(f"{results['mismatches']} brute-force/formula mismatches")
            reports = results["reports"]
            got = [(Fraction(r["norm_sq"]), r["kind"]) for r in reports]
            want = [(n, k) for n in op.norms for k in ("H", "Hprime")]
            if got != want:
                problems.append(f"classes {sorted(set(n for n, _ in got))}, "
                                f"expected {list(op.norms)} with two reports each")
            if any(r["dim_bruteforce"] != r["dim_formula"] for r in reports):
                problems.append("a class has dim_bruteforce != dim_formula")
        elif cmd == "identities":
            if results["failures"] != []:
                problems.append(f"identity failures: {results['failures']}")
        else:
            problems.append(f"unknown command {cmd}")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed results: {type(exc).__name__}: {exc}")
    return problems


@dataclass
class Sample:
    seconds: float
    maxrss_kb: int
    failure: str          # None when the sample passed
    detail: str
    digest: str           # report hash, None without a report


def evaluate(op, outcome):
    """Turn one child outcome into a gated Sample."""
    report = parse_report(outcome.stdout) if not outcome.timed_out else None
    problems = check_report(op, outcome.returncode, report) if report is not None else []
    failure = classify(outcome, report, problems)
    if failure == "traceback":
        tail = outcome.stderr.strip().splitlines()
        detail = tail[-1] if tail else f"exit {outcome.returncode}, no output"
    elif failure is not None:
        detail = "; ".join(problems) or f"exit {outcome.returncode}"
    else:
        detail = ""
    digest = report_hash(report) if report is not None else None
    return Sample(outcome.seconds, outcome.maxrss_kb, failure, detail, digest)
