"""Self-tests of the benchmark harness (not of g2mu).

    python3 -m pytest perfbench/test_perfbench.py -q

Only test_probe_runs_as_a_traceback starts a g2mu process; the rest check
the harness's own arithmetic, input generator, gate and failure classes.
"""

import json
import os
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import groups  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import GOLDEN, TEMPLATES, WORKLOADS, build_ops  # noqa: E402


@pytest.fixture(scope="module")
def stabiliser():
    return groups.phi0_stabiliser()


def _build(workload, seed, tmp_path, stabiliser):
    outdir = tmp_path / f"{workload}-{seed}"
    outdir.mkdir(parents=True)
    ops = build_ops(workload, seed, run.ROOT, str(outdir), stabiliser)
    configs = {op.spec.name: open(op.config_path).read() for op in ops}
    return ops, configs


def test_stabiliser_is_g2_signed_permutations(stabiliser):
    # 2^3 sign changes times the 168 automorphisms of the Fano plane
    assert len(stabiliser) == 1344
    assert groups.IDENTITY in stabiliser


def test_template_orders_and_shipped_golden_pairs(stabiliser, tmp_path):
    for name, (gens, order) in TEMPLATES.items():
        assert len(groups.closure(gens)) == order, name
    ops, _ = _build("closed_form", 0, tmp_path, stabiliser)
    for op in ops:
        if op.spec.group in GOLDEN and op.spec.frame == "identity":
            assert op.mu == tuple(Fraction(x) for x in GOLDEN[op.spec.group])


def test_generator_is_deterministic_for_a_seed(stabiliser, tmp_path):
    for workload in WORKLOADS:
        ops_a, cfg_a = _build(workload, 7, tmp_path / "a", stabiliser)
        ops_b, cfg_b = _build(workload, 7, tmp_path / "b", stabiliser)
        assert cfg_a == cfg_b
        assert [a.record for a in ops_a] == [b.record for b in ops_b]
        assert [a.elements for a in ops_a] == [b.elements for b in ops_b]
        ops_c, cfg_c = _build(workload, 8, tmp_path / "c", stabiliser)
        # another seed moves the generated inputs but keeps what the cost depends on
        generated = [n for n, o in zip(cfg_a, ops_a) if o.config_path.startswith(str(tmp_path))]
        assert any(cfg_a[n] != cfg_c[n] for n in generated)
        assert [a.record for a in ops_a] == [c.record for c in ops_c]


def _invariants_report(mu3, mu4):
    return {"command": "invariants", "results": {
        "mu3": mu3, "mu4": mu4,
        "zeta_crosscheck": {"within_tolerance": True}}, "wall_time_s": 0.1}


def test_gate_rejects_a_tampered_golden_pair(stabiliser, tmp_path):
    ops, _ = _build("closed_form", 0, tmp_path, stabiliser)
    op = next(o for o in ops if o.spec.name == "invariants-m3")
    assert gate.check_report(op, 0, _invariants_report("-1", "-5")) == []
    assert gate.check_report(op, 0, _invariants_report("-2", "-5")) != []
    assert gate.check_report(op, 0, _invariants_report("-1", "-6")) != []
    assert gate.check_report(op, 1, _invariants_report("-1", "-5")) != []


def _outcome(rc, stdout="", stderr="", timed_out=False):
    return gate.Outcome(rc, 1.0, stdout, stderr, 1000, timed_out)


def test_failure_classes(stabiliser, tmp_path):
    ops, _ = _build("oracle_framed", 0, tmp_path, stabiliser)
    probe = next(o for o in ops if o.spec.probe)
    traceback = ("Traceback (most recent call last):\n  ...\n"
                 "TypeError: argument should be a string or a Rational instance\n")
    # today's probes: exit 1 like a real mismatch, but no JSON report
    assert gate.evaluate(probe, _outcome(1, stderr=traceback)).failure == "traceback"
    assert gate.evaluate(probe, _outcome(-9, timed_out=True)).failure == "timeout"
    assert gate.evaluate(probe, _outcome(139)).failure == "exit_code"
    mismatch = json.dumps({"results": {"mismatches": 1, "reports": []}})
    assert gate.evaluate(probe, _outcome(1, stdout=mismatch)).failure == "wrong_answer"


def test_probe_runs_as_a_traceback(stabiliser, tmp_path):
    """The order-5 phase probe dies in oracle._cos_2pi at this version.

    When the defect is fixed this sample passes its gate instead; the probe
    then counts toward ok_ratio, and this test is updated with the fix.
    """
    ops, _ = _build("oracle_framed", 0, tmp_path, stabiliser)
    probe = next(o for o in ops if o.spec.name == "probe-spectrum-z15-r1")
    env = dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src"))
    runner = run.Runner(env, str(tmp_path), time.perf_counter() + 60)
    sample = runner.run_op(probe)
    assert sample.failure == "traceback", sample.detail
    assert "TypeError" in sample.detail


def test_report_hash_ignores_only_wall_time():
    a = {"results": {"x": 1}, "wall_time_s": 0.5}
    assert gate.report_hash(a) == gate.report_hash(dict(a, wall_time_s=9.0))
    assert gate.report_hash(a) != gate.report_hash(dict(a, results={"x": 2}))


def test_span_self_time_excludes_children():
    t = tracer.Tracer()
    inner = t.wrap("m.inner", lambda: time.sleep(0.05))

    def body():
        time.sleep(0.01)
        inner()
    outer = t.wrap("m.outer", body)
    outer()
    assert t.calls == {"m.inner": 1, "m.outer": 1}
    assert t.self_s["m.inner"] >= 0.05
    assert 0.01 <= t.self_s["m.outer"] < 0.05
    assert t.top_s >= t.self_s["m.inner"] + t.self_s["m.outer"] - 1e-9


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_no_source_exits_nonzero_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "closed_form", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
