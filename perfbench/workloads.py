"""Workload definitions: which CLI ops each workload runs, on which inputs.

An op is one `g2mu <command> --config <file> ...` process.  Shipped configs
(`configs/t7.json` ... `configs/m3.json`) are used verbatim.  Every other
input is built here from the seed: a template group (signed permutations
preserving phi0, translations with denominators in {1, 2, 3, 4, 6}), and
possibly a diagonal frame, conjugated by a stabiliser element chosen by the
seed.  Conjugation keeps the group order, the invariants and the shape of
the lattice computations, so every seed costs about the same while the
program sees different matrices.

Each op carries the benchmark's own expectations (group order, golden
(mu3, mu4), spectral classes) and the input properties a performance claim
can quote: group order, largest phase denominator, frame and Gram kind,
radius_sq, lattice vectors and fixed (element, vector) pairs.
"""

import json
import os
from dataclasses import dataclass
from fractions import Fraction

import groups

GOLDEN = {"t7": (-8, -12), "m1": (-4, -8), "m2": (-2, -6), "m3": (-1, -5)}


def _diag(*entries):
    return [[entries[i] if i == j else 0 for j in range(groups.DIM)]
            for i in range(groups.DIM)]


_H = Fraction(1, 2)
_T = Fraction(1, 3)
_ALPHA = _diag(1, 1, 1, -1, -1, -1, -1)
# (2 4 6)(3 5 7) in 1-based axes: the order-3 permutation of test_integration
_CYCLE = groups.signed_perm_matrix((0, 3, 4, 5, 6, 1, 2), (1,) * groups.DIM)

TEMPLATES = {
    # order 24, translations 1/2 and 1/3: phases of order 6
    "g24": ([(_ALPHA, (_H, 0, 0, 0, 0, 0, 0)), (_CYCLE, (_T, 0, 0, 0, 0, 0, 0))], 24),
    # order 12, translation 1/3 on the cycle's fixed axis: phases of order 3
    "g12": ([(_ALPHA, (0,) * 7), (_CYCLE, (_T, 0, 0, 0, 0, 0, 0))], 12),
    # order 3, phases of order 3
    "z3": ([(_CYCLE, (_T, 0, 0, 0, 0, 0, 0))], 3),
    # order 15 with phases of order 5 (known defect: oracle._cos_2pi)
    "z15": ([(_CYCLE, (Fraction(1, 5), 0, 0, 0, 0, 0, 0))], 15),
}

FRAMES = {
    "identity": None,
    "f23": _diag(2, 1, 1, 1, 1, 3, 1),                  # integer Gram, non-Euclidean Lambda
    "f246": _diag(1, 2, 1, 2, 1, 2, 1),                 # integer Gram, commutes with the cycle
    "fh": _diag(1, 1, 1, 1, 1, 1, Fraction(1, 2)),      # non-integer Gram
}
FRAMES_IDENTITY = _diag(1, 1, 1, 1, 1, 1, 1)


@dataclass(frozen=True)
class OpSpec:
    name: str
    command: str
    group: str            # a shipped config name or a TEMPLATES key
    frame: str = "identity"
    radius_sq: str = None
    trials: int = None
    probe: bool = False


# Passes are kept short (5-10 s) so that a run holds several of them: on a
# shared 2-vCPU host the speed drifts in bursts of about 10 s, and a per-op
# median over many passes rejects a burst where a median over two cannot.
WORKLOADS = {
    # closed form and zeta bridge; the oracle and Fourier layers stay idle
    "closed_form": [
        OpSpec("check-g24", "check", "g24"),
        OpSpec("invariants-m3", "invariants", "m3"),
        OpSpec("invariants-m3-f23", "invariants", "m3", frame="f23"),
        OpSpec("zeta-m1-fh", "zeta", "m1", frame="fh"),
        OpSpec("zeta-g12", "zeta", "g12"),
    ],
    # identity frame, integer Gram: the int64 oracle paths
    "oracle_lattice": [
        OpSpec("spectrum-m1-r2", "spectrum", "m1", radius_sq="2"),
        OpSpec("spectrum-g24-r1", "spectrum", "g24", radius_sq="1"),
    ],
    # rational frames: Fraction restricted traces and Fraction enumeration
    "oracle_framed": [
        OpSpec("spectrum-m1-fh-r1", "spectrum", "m1", frame="fh", radius_sq="1"),
        OpSpec("spectrum-z3-f246-r2", "spectrum", "z3", frame="f246", radius_sq="2"),
        OpSpec("probe-spectrum-m3-fh-r1", "spectrum", "m3", frame="fh", radius_sq="1",
               probe=True),
        OpSpec("probe-spectrum-z15-r1", "spectrum", "z15", radius_sq="1", probe=True),
    ],
    # float Fourier calculus: refined-operator identity suite.  One framed op
    # only: with the flat torus as well a pass took 8 s, too few per run.
    "identities": [
        OpSpec("identities-m3-f23", "identities", "m3", frame="f23", trials=2),
    ],
}


@dataclass
class Op:
    spec: OpSpec
    config_path: str
    argv: list
    elements: frozenset        # the benchmark's own closure
    mu: tuple                  # expected (mu3, mu4) as Fractions
    norms: tuple               # expected spectral classes (exact squared norms)
    record: dict               # input properties, written to the results


def _config_generators(path):
    with open(path) as fh:
        raw = json.load(fh)
    return [([raw_g["matrix"][i * 7:(i + 1) * 7] for i in range(7)],
             [Fraction(x) for x in raw_g.get("translation", ["0"] * 7)])
            for raw_g in raw.get("generators", [])]


def _dump_config(name, gens, frame):
    cfg = {"name": name, "generators": [
        {"matrix": [int(x) for row in a for x in row],
         "translation": [str(Fraction(x)) for x in t]} for a, t in gens]}
    if frame is not None:
        cfg["frame"] = [[str(Fraction(x)) for x in row] for row in frame]
    return cfg


def build_ops(workload, seed, root, outdir, stabiliser):
    """Materialise a workload's ops for `seed`: write configs, compute expectations."""
    ops = []
    for spec in WORKLOADS[workload]:
        shipped = spec.group in GOLDEN
        shipped_path = os.path.join(root, "configs", f"{spec.group}.json")
        if shipped:
            gens = _config_generators(shipped_path)
        else:
            gens, expected_order = TEMPLATES[spec.group]
        frame = FRAMES[spec.frame]
        if shipped and frame is None:
            config_path = shipped_path
        else:
            # seeded conjugate: group and frame move together, so F A F^-1 stays in G2
            g = groups.seeded_conjugator(stabiliser, seed, spec.name)
            gens = [groups.conjugate((tuple(map(tuple, a)), groups.reduce_t(t)), g)
                    for a, t in gens]
            if frame is not None:
                frame = groups.conjugate_frame(frame, g)
            config_path = os.path.join(outdir, f"{spec.name}.json")
            with open(config_path, "w") as fh:
                json.dump(_dump_config(f"{spec.name}-seed{seed}", gens, frame), fh)
        elements = frozenset(groups.closure(gens))
        if not shipped and len(elements) != expected_order:
            raise RuntimeError(f"{spec.name}: closure has order {len(elements)}, "
                               f"template says {expected_order}")
        mu = groups.mu_pair(elements)
        if shipped and mu != tuple(Fraction(x) for x in GOLDEN[spec.group]):
            raise RuntimeError(f"{spec.name}: own mu {mu} differs from golden pair")
        lattice_frame = frame or FRAMES_IDENTITY
        argv = [spec.command, "--config", config_path]
        if spec.command == "invariants":
            argv.append("--crosscheck")
        record = {
            "command": spec.command,
            "probe": spec.probe,
            "group_order": len(elements),
            "phase_denominator": groups.translation_denominator(elements),
            "frame": spec.frame,
            "gram": "integer" if groups.scaled_gram(lattice_frame)[1] == 1 else "non-integer",
            "radius_sq": spec.radius_sq,
            "lattice_vectors": None,
            "fixed_pairs": None,
        }
        norms = ()
        if spec.radius_sq is not None:
            argv += ["--radius-sq", spec.radius_sq]
            vecs = groups.lattice_vectors(lattice_frame, Fraction(spec.radius_sq))
            record["lattice_vectors"] = len(vecs)
            record["fixed_pairs"] = groups.fixed_pairs(elements, vecs)
            record["phase_denominator"] = groups.phase_denominator(elements, lattice_frame, vecs)
            norms = groups.lattice_norms(lattice_frame, vecs)
        if spec.trials is not None:
            argv += ["--trials", str(spec.trials), "--seed", str(seed)]
            record["trials"] = spec.trials
        ops.append(Op(spec, config_path, argv, elements, mu, norms, record))
    return ops

