"""g2mu benchmark: fresh-process CLI wall time per workload, traced self time per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a g2mu checkout; the program is imported from its
`src/`.  One client, closed loop: each op is one `python -m g2mu.cli ...`
child, timed from spawn to exit and gated (gate.py) before the next starts.
Probe ops (known-defect inputs) run once, before the timed window, and
count only toward ok_ratio.  A pass runs every timed op once; passes repeat
until the next one would overrun --seconds (at least one pass).  Children
run single-threaded with a fixed hash seed (CHILD_ENV).

--trace 0 prints the end-to-end metrics:
    wall_ref     one pass over the timed ops in units of the reference: per
                 op, the mean over its samples of sample time divided by the
                 median of the reference burst right after it (reference_s,
                 fixed Fraction arithmetic that never touches g2mu); summed
                 over ops, so the host's speed drift cancels
    setup_s      median time of a fresh interpreter running `import g2mu.cli`
    ok_ratio     ops that passed their gate over ops run, probes included
                 (1 - fail_ratio; reported this way so that it is never 0)
    peak_rss_mb  largest peak RSS of any op process
A set-up sample is taken before each pass and after the last.  wall_s (sum
of per-op mean times), ref_s (median reference time) and the per-command
sums check_s ... identities_s are printed as comment lines.  Those sums are
per-layer metrics rather than end-to-end ones because most workloads run one
command only, and an end-to-end metric must be nonzero on every workload.
The benchmark and its children are pinned to the lowest CPU they may use.

--trace 1 runs one untraced pass, then traced passes in which every op runs
through tracer.py (fresh process, span wrappers on each layer), and prints
the per-layer metrics of PER_LAYER.  The last stdout line is always the JSON
result; the full per-op record goes to .perfbench_out/.  The exit code is 0
when every timed op passed its gate, 1 when one failed, 2 when the checkout
has no g2mu source.
"""

import argparse
import gc
import importlib.metadata
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import gate
import groups
from workloads import WORKLOADS, build_ops

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")

SETUP_ARGV = [sys.executable, "-c", "import g2mu.cli"]
# Every child runs single-threaded with a fixed hash seed: on a 2-vCPU host an
# idle BLAS thread pool or a per-process hash seed only adds noise.
CHILD_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
# The reference: a short fixed piece of exact Fraction arithmetic (what
# g2mu's hot paths do) that never touches g2mu, timed in this process in a
# burst right after every op: at least REF_MIN times and for at least
# REF_SHARE of that op's time.  On a shared 2-vCPU VM (Intel Xeon) the speed
# of a vCPU drifts by 30 % and more within seconds to minutes, with what its
# neighbours run.  With the benchmark and its children pinned to one CPU, an
# op and the burst after it see the same neighbours (in a 10-sample test their
# times correlated 0.7-0.8, against 0.15 unpinned), so each op sample is
# divided by its burst's median.  A run holds 3-5 samples per op; on that VM
# their mean was steadier from run to run than their median.
REF_TERMS = 3000
REF_MIN = 5
REF_SHARE = 0.15
OP_LIMIT_S = 60.0          # per-op time limit (failure class "timeout")
HARD_LIMIT_S = 150.0       # the whole run ends well inside 180 s

COMMANDS = ("check", "invariants", "zeta", "spectrum", "identities")

END_TO_END = [("wall_ref", "ref"), ("setup_s", "s"), ("ok_ratio", "ratio"),
              ("peak_rss_mb", "MB")]

# span names of methods, for the per-layer names that drop the class
ALIASES = {
    "g2.structure_build": "g2.G2Structure.__init__",
    "g2.projector": "g2.G2Structure.projector",
    "g2.type_space_basis": "g2.G2Structure.type_space_basis",
    "g2.is_g2_element": "g2.G2Structure.is_g2_element",
    "exterior.lambda_gram": "exterior.Metric7.lambda_gram",
    "oracle.restricted_trace": "oracle._restricted_trace",
}

PER_LAYER = [
    ("orbifold.generate.self_s", "s"), ("orbifold.compose.calls", "count"),
    ("orbifold.generate.useful_ratio", "ratio"), ("orbifold.group_order", "count"),
    ("orbifold.validate_joyce.self_s", "s"),
    ("g2.is_g2_element.self_s", "s"), ("g2.is_g2_element.calls", "count"),
    ("exterior.pullback_matrix.self_s", "s"), ("exterior.pullback_matrix.calls", "count"),
    ("linalg.det.self_s", "s"), ("linalg.det.calls", "count"),
    ("g2.structure_build.self_s", "s"),
    ("g2.projector.self_s", "s"), ("g2.projector.calls", "count"),
    ("g2.type_space_basis.self_s", "s"),
    ("invariants.mu_invariants.self_s", "s"),
    ("epstein.fixed_lattice.self_s", "s"),
    ("epstein.value_at_zero.self_s", "s"), ("epstein.value_at_zero.calls", "count"),
    ("epstein.epstein_value.self_s", "s"),
    ("epstein.closed_form_mu.self_s", "s"), ("linalg.integer_kernel.self_s", "s"),
    ("oracle.enumerate_classes.self_s", "s"), ("linalg.enumerate_ellipsoid.self_s", "s"),
    ("oracle.classes", "count"), ("oracle.lattice_vectors", "count"),
    ("fourier.typed_contraction_kernel.self_s", "s"),
    ("fourier.typed_contraction_kernel.calls", "count"),
    ("fourier.typed_contraction_kernel.miss_ratio", "ratio"),
    ("fourier.typed_contraction_kernel_dim.self_s", "s"),
    ("linalg.rref.self_s", "s"), ("linalg.rref.calls", "count"),
    ("linalg.nullspace.self_s", "s"), ("linalg.int_rank.self_s", "s"),
    ("oracle.invariant_dimension_bruteforce.self_s", "s"),
    ("oracle.invariant_dimension_bruteforce.calls", "count"),
    ("oracle.restricted_traces", "count"), ("oracle.restricted_trace.self_s", "s"),
    ("linalg.inverse.self_s", "s"),
    ("oracle.invariant_dimension_formula.self_s", "s"),
    ("oracle.fixed_pairs", "count"), ("oracle.fixed_pair_ratio", "ratio"),
    ("fourier.verify_appendix.self_s", "s"),
    ("fourier.refined.self_s", "s"), ("fourier.refined.calls", "count"),
    ("fourier.project_type.self_s", "s"), ("fourier.random_fourier.self_s", "s"),
    ("fourier.hessian_blocks.self_s", "s"), ("fourier.split_S4.self_s", "s"),
    ("exterior.hodge_star.self_s", "s"), ("exterior.hodge_star.calls", "count"),
    ("exterior.lambda_gram.self_s", "s"), ("exterior.pullback.self_s", "s"),
    ("exterior.wedge.self_s", "s"), ("linalg.frac.calls", "count"),
    ("linalg.to_float.self_s", "s"), ("linalg.to_float.calls", "count"),
    ("cli.parse_config.self_s", "s"), ("cli.run.self_s", "s"),
    ("wall_s", "s"), ("check_s", "s"), ("invariants_s", "s"), ("zeta_s", "s"),
    ("spectrum_s", "s"), ("identities_s", "s"),
    ("trace.overhead_s", "s"), ("trace.coverage", "ratio"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_value(name, agg):
    """One per-layer metric from a traced pass's aggregate."""
    counters = agg["counters"]
    special = {
        "orbifold.generate.useful_ratio": lambda: _ratio(
            counters.get("orbifold.generate.new_elements", 0),
            counters.get("orbifold.generate.compositions", 0)),
        "fourier.typed_contraction_kernel.miss_ratio": lambda: _ratio(
            counters.get("fourier.typed_contraction_kernel.distinct", 0),
            agg["calls"].get("fourier.typed_contraction_kernel", 0)),
        "oracle.fixed_pair_ratio": lambda: _ratio(
            counters.get("oracle.fixed_pairs", 0), counters.get("oracle.scanned_pairs", 0)),
        "trace.coverage": lambda: _ratio(agg["top_s"], agg["wall_s"]),
    }
    if name in special:
        return special[name]()
    if name in agg["extra"]:
        return agg["extra"][name]
    base, _, field = name.rpartition(".")
    if field == "self_s":
        return agg["self_s"].get(ALIASES.get(base, base), 0.0)
    if field == "calls":
        return agg["calls"].get(ALIASES.get(base, base), 0)
    return counters.get(name, 0)


# -- running ops ----------------------------------------------------------------------


class Runner:
    def __init__(self, env, scratch, deadline):
        self.env = env
        self.scratch = scratch
        self.deadline = deadline

    def limit(self):
        return min(OP_LIMIT_S, self.deadline - time.perf_counter())

    def run_op(self, op, trace_path=None):
        if trace_path is None:
            argv = [sys.executable, "-m", "g2mu.cli"] + op.argv
        else:
            argv = [sys.executable, TRACER, trace_path] + op.argv
        limit = self.limit()
        if limit <= 0:
            return gate.Sample(0.0, 0, "timeout", "run deadline reached before start", None)
        return gate.evaluate(op, gate.run_child(argv, self.env, limit, self.scratch))


def reference_s():
    """Seconds of one run of the fixed reference arithmetic (GC off)."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, REF_TERMS):
            acc += Fraction(i, i + 7) * Fraction(2 * i + 1, 3 * i + 2)
        return time.perf_counter() - start
    finally:
        gc.enable()


def setup_sample(runner):
    """Seconds of one fresh interpreter running `import g2mu.cli`."""
    outcome = gate.run_child(SETUP_ARGV, runner.env, runner.limit(), runner.scratch)
    if outcome.returncode != 0:
        raise SystemExit(f"set-up failed: {outcome.stderr.strip()[-500:]}")
    return outcome.seconds


@dataclass
class Baselines:
    setup: list = field(default_factory=list)   # `import g2mu.cli` seconds
    ref: list = field(default_factory=list)     # every reference sample
    local: dict = field(default_factory=dict)   # op -> burst median per op sample


def run_passes(runner, ops, seconds, samples, baselines=None):
    """Probes once, then untraced passes until the next would overrun `seconds`.

    The probes (known-defect inputs) run first, outside the timed window: they
    start the interpreter and import everything, so the first pass is not a
    cold one.  Passes repeat until the next would overrun `seconds` (at least
    one).  With `baselines` (a Baselines), a warm-up set-up sample is taken
    and dropped, each pass starts with a set-up sample, one more follows the
    last pass, and every op sample is followed by a reference burst.
    """
    for op in ops:
        if op.spec.probe:
            samples[op.spec.name].append(runner.run_op(op))
    timed = [op for op in ops if not op.spec.probe]
    if baselines is not None:
        setup_sample(runner)
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        if baselines is not None:
            baselines.setup.append(setup_sample(runner))
        for op in timed:
            sample = runner.run_op(op)
            samples[op.spec.name].append(sample)
            if baselines is not None:
                burst = []
                while len(burst) < REF_MIN or sum(burst) < REF_SHARE * sample.seconds:
                    burst.append(reference_s())
                baselines.ref += burst
                baselines.local.setdefault(op.spec.name, []).append(statistics.median(burst))
        now = time.perf_counter()
        took = now - pass_start
        if now - start + took > seconds or now + took > runner.deadline:
            if baselines is not None and runner.limit() > 0:
                baselines.setup.append(setup_sample(runner))
            return


def traced_passes(runner, ops, seconds, start, trace_dir):
    """Traced passes over `ops`; returns one aggregate per pass and the samples."""
    aggs, samples = [], {op.spec.name: [] for op in ops}
    while True:
        agg = {"self_s": {}, "calls": {}, "counters": {}, "top_s": 0.0, "wall_s": 0.0,
               "extra": {}}
        t0 = time.perf_counter()
        for op in ops:
            path = os.path.join(trace_dir, f"{op.spec.name}.trace.json")
            if os.path.exists(path):
                os.remove(path)
            sample = runner.run_op(op, trace_path=path)
            samples[op.spec.name].append(sample)
            agg["wall_s"] += sample.seconds
            if os.path.exists(path):
                with open(path) as fh:
                    summary = json.load(fh)
                for key in ("self_s", "calls", "counters"):
                    for name, v in summary[key].items():
                        agg[key][name] = agg[key].get(name, 0) + v
                agg["top_s"] += summary["top_s"]
        aggs.append(agg)
        took = time.perf_counter() - t0
        now = time.perf_counter()
        if now - start + took > seconds or now + took > runner.deadline:
            return aggs, samples


# -- bookkeeping ------------------------------------------------------------------------


def settle(ops, samples):
    """Per-op summary; marks samples whose report hash differs between passes."""
    rows = []
    for op in ops:
        got = samples[op.spec.name]
        digests = {s.digest for s in got if s.digest is not None}
        if len(digests) > 1:
            for s in got:
                if s.failure is None:
                    s.failure, s.detail = "wrong_answer", "report differs between passes"
        failures = [s for s in got if s.failure is not None]
        rows.append(dict(op.record, op=op.spec.name,
                         samples=[round(s.seconds, 6) for s in got],
                         mean_s=statistics.fmean(s.seconds for s in got) if got else None,
                         peak_rss_kb=max((s.maxrss_kb for s in got), default=0),
                         status="ok" if got and not failures else
                         (failures[0].failure if failures else "not_run"),
                         detail=failures[0].detail if failures else "",
                         report_sha256=sorted(digests)[0] if len(digests) == 1 else None))
    return rows


def command_sums(rows):
    sums = {f"{c}_s": 0.0 for c in COMMANDS}
    for r in rows:
        if not r["probe"] and r["mean_s"] is not None:
            sums[f"{r['command']}_s"] += r["mean_s"]
    return sums


def env_stamp():
    return {
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def print_table(rows):
    cols = ("op", "command", "group_order", "phase_denominator", "frame", "gram",
            "radius_sq", "lattice_vectors", "fixed_pairs", "mean_s", "status")
    print("# " + " ".join(cols))
    for r in rows:
        mean = f"{r['mean_s']:.4f}" if r["mean_s"] is not None else "-"
        vals = [str(r[c]) if c != "mean_s" else mean for c in cols]
        print("# " + " ".join(vals) + (f"  ({r['detail']})" if r["detail"] else ""))


def run_workload(workload, seed, seconds, trace, env, deadline, stabiliser):
    outdir = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}")
    os.makedirs(outdir, exist_ok=True)
    ops = build_ops(workload, seed, ROOT, outdir, stabiliser)
    runner = Runner(env, outdir, deadline)
    stamp = env_stamp()
    print(f"# workload={workload} seed={seed} seconds={seconds} trace={trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in stamp.items()))

    samples = {op.spec.name: [] for op in ops}
    start = time.perf_counter()
    metrics = {}
    if trace:
        run_passes(runner, ops, 0, samples)
    else:
        base = Baselines()
        run_passes(runner, ops, seconds, samples, base)
        metrics["setup_s"] = statistics.median(base.setup)
        metrics["ref_s"] = statistics.median(base.ref)
        metrics["wall_ref"] = sum(
            statistics.fmean(s.seconds / r for s, r in zip(samples[name], refs))
            for name, refs in base.local.items())
        metrics["ref_burst_medians"] = {name: [round(r, 6) for r in refs]
                                        for name, refs in base.local.items()}
    rows = settle(ops, samples)
    timed = [r for r in rows if not r["probe"]]
    wall = sum(r["mean_s"] for r in timed if r["mean_s"] is not None)
    metrics.update(wall_s=wall, ok_ratio=sum(r["status"] == "ok" for r in rows) / len(rows),
                   peak_rss_mb=max(r["peak_rss_kb"] for r in rows) / 1024)
    cmd_sums = command_sums(rows)
    timed_samples = [s for op in ops if not op.spec.probe for s in samples[op.spec.name]]

    traced_rows = None
    if trace:
        timed_ops = [op for op in ops if not op.spec.probe]
        aggs, tsamples = traced_passes(runner, timed_ops, seconds, start, outdir)
        for op, r in zip(timed_ops, timed):
            for s in tsamples[op.spec.name]:
                if s.failure is None and s.digest != r["report_sha256"]:
                    s.failure, s.detail = "wrong_answer", "traced report differs"
        traced_rows = settle(timed_ops, tsamples)
        timed_samples += [s for v in tsamples.values() for s in v]
        for agg in aggs:
            agg["extra"].update(cmd_sums, wall_s=wall)
            agg["extra"]["trace.overhead_s"] = agg["wall_s"] - wall
        out_metrics = {name: {"value": statistics.median(layer_value(name, a) for a in aggs),
                              "unit": unit} for name, unit in PER_LAYER}
    else:
        out_metrics = {name: {"value": metrics[name], "unit": unit}
                       for name, unit in END_TO_END}
    attempted = len(timed_samples)
    failed = sum(s.failure is not None for s in timed_samples)

    print_table(rows)
    if traced_rows:
        print("# traced:")
        print_table(traced_rows)
    if not trace:
        for name, value in dict(cmd_sums, wall_s=wall, ref_s=metrics["ref_s"]).items():
            print(f"# {name} = {value:.4f} s")
    for name, m in out_metrics.items():
        print(f"# metric {name} = {m['value']:.6g} {m['unit']}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": out_metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": stamp, "ops": rows, "traced_ops": traced_rows,
              "command_s": cmd_sums, "wall_s": wall, "ref_s": metrics.get("ref_s"),
              "ref_burst_medians": metrics.get("ref_burst_medians"),
              "fail_ratio": 1 - metrics["ok_ratio"], "result": result}
    with open(os.path.join(outdir, "results.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + HARD_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "g2mu", "cli.py")):
        print(f"error: no g2mu source under {ROOT}/src", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **CHILD_ENV)
    # one CPU for this process and, by inheritance, every child (see reference_s)
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except OSError as exc:
            print(f"# not pinned to one CPU: {exc}")
    stabiliser = groups.phi0_stabiliser()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        # `all` is for people: each workload gets the full hard limit
        if len(names) > 1:
            deadline = time.perf_counter() + HARD_LIMIT_S
        results[name] = run_workload(name, args.seed, args.seconds, args.trace, env,
                                     deadline, stabiliser)
    ok = all(r["correct"] for r in results.values())
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
