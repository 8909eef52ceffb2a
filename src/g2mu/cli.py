"""Command-line front end: batch validation, invariants, oracles, reports.

Subcommands (all take --config pointing at a JSON orbifold description):

    check       group order and per-element G2 compatibility
    invariants  exact mu_3 / mu_4 (optionally cross-checked via zeta values)
    spectrum    brute-force vs formula eigenspace dimensions per class
    identities  refined-derivative identity suite + Hessian block checks
    zeta        value at 0 of each element's twisted zeta + closed-form mu

Exit codes: 0 success, 1 mathematical mismatch or validation failure,
2 malformed input, which includes a spectrum radius too large to enumerate.
Reports are JSON (or CSV) on stdout and deterministic for a fixed config
and seed up to the wall_time_s field.

`run` returns the exit code and never ends the process (argparse's
SystemExit on a usage error aside), so tests and the benchmark's tracer
call it in process; `main` flushes stdout and stderr after it and ends the
process with os._exit, skipping the interpreter's teardown.

Every command runs on the standard library alone, with neither numpy nor
mpmath: check, invariants, zeta and spectrum on the exact core, and
`identities` on the Fourier layer, whose floats are Python complex numbers.
"""

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import linalg
from .orbifold import (AffineElement, NonFinite, NonUnimodular, NotG2Compatible,
                       generate, validate_joyce)

TOOL_VERSION = "0.1.0"

_CONFIG_FIELDS = {"name", "generators", "frame", "oracle_radius_sq", "trials", "seed"}
_GENERATOR_FIELDS = {"matrix", "translation"}

# `spectrum` holds every lattice vector of its radius in memory: it refuses a
# radius whose ball, (16 pi^3 / 105) radius_sq^(7/2) / vol, holds more
MAX_LATTICE_VECTORS = 10 ** 6


class ConfigError(ValueError):
    pass


def _rational(value, name):
    """The rational that a config entry or flag spells, as str(value) reads:
    '3/4', '-2', '1.5e-3'.  Raises ConfigError naming `name` if it is
    malformed, or if its numerator or denominator has more digits than
    Python prints (sys.get_int_max_str_digits()).  An exponent past that
    bound is refused before Fraction builds its power of ten, which for
    '1e-999999999' would not finish."""
    text = str(value)
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    mantissa, _, exponent = text.lower().partition("e")
    try:
        # the mantissa's digits bound what cancels against 10^|exponent|
        huge = bool(exponent) and abs(int(exponent)) > limit + len(mantissa)
        q = None if huge else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad {name}") from None
    # below 8^limit an integer has at most `limit` digits
    if q is None or any(n.bit_length() > 3 * limit and n >= 10 ** limit
                        for n in (abs(q.numerator), q.denominator)):
        raise ConfigError(f"{name} has more than {limit} digits")
    return q


# one validator per field, for the config key and the flag that overrides it;
# `name` is the key or the flag, as the message gives it
def _radius_sq(value, name):
    radius = _rational(value, name)
    if radius < 0:
        raise ConfigError(f"{name} must be nonnegative")
    return radius


def _log(q):
    """log of a positive rational; math.log takes ints of any size, not only floats."""
    return math.log(q.numerator) - math.log(q.denominator)


def _check_lattice_count(frame, radius_sq):
    """Raise ConfigError if |l|^2_g <= radius_sq holds more than about
    MAX_LATTICE_VECTORS vectors l of Z^7, estimated by the ellipsoid's volume
    in logarithms, so that neither a huge radius nor a huge frame overflows."""
    vol = linalg.det(frame) if frame is not None else 1
    if vol <= 0 or radius_sq == 0:
        return  # building the structure rejects the frame; a zero radius holds one vector
    log_estimate = math.log(16 * math.pi ** 3 / 105) + 3.5 * _log(radius_sq) - _log(vol)
    if log_estimate > math.log(MAX_LATTICE_VECTORS):
        try:
            estimate = math.exp(log_estimate)
        except OverflowError:
            estimate = math.inf
        raise ConfigError(f"radius_sq {radius_sq} holds about {estimate:.3g} lattice vectors, "
                          f"more than spectrum enumerates ({MAX_LATTICE_VECTORS})")


def _integer(value, name, low):
    # type(), not isinstance(): JSON true and false are bools, a subclass of int
    if type(value) is not int or value < low:
        raise ConfigError(f"{name} must be a {'positive' if low else 'nonnegative'} integer")
    return value


def parse_config(raw):
    """Validate and normalise a config dict; unknown fields are rejected."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if "name" not in raw or not isinstance(raw["name"], str):
        raise ConfigError("config needs a string 'name'")
    gens_raw = raw.get("generators", [])
    if not isinstance(gens_raw, list):
        raise ConfigError("'generators' must be a list")
    generators = []
    for k, g in enumerate(gens_raw):
        if not isinstance(g, dict) or set(g) - _GENERATOR_FIELDS:
            raise ConfigError(f"generator {k}: expected keys {sorted(_GENERATOR_FIELDS)}")
        mat = g.get("matrix")
        # type(), not isinstance(): JSON true and false are bools, a subclass of int
        if not isinstance(mat, list) or len(mat) != 49 or any(type(x) is not int for x in mat):
            raise ConfigError(f"generator {k}: 'matrix' must be 49 row-major integers")
        rows = [mat[i * 7:(i + 1) * 7] for i in range(7)]
        trans_raw = g.get("translation", ["0"] * 7)
        if not isinstance(trans_raw, list) or len(trans_raw) != 7:
            raise ConfigError(f"generator {k}: 'translation' must have 7 entries")
        generators.append((rows, [_rational(x, f"generator {k} translation") for x in trans_raw]))
    frame = raw.get("frame")
    if frame is not None:
        if not isinstance(frame, list) or len(frame) != 7 \
                or any(not isinstance(r, list) or len(r) != 7 for r in frame):
            raise ConfigError("'frame' must be a 7x7 matrix (list of 7 rows)")
        frame = linalg.clear_denominators([[_rational(x, "frame entry") for x in row]
                                           for row in frame])
    return {
        "name": raw["name"],
        "generators": generators,
        "frame": frame,
        "oracle_radius_sq": _radius_sq(raw.get("oracle_radius_sq", 9), "oracle_radius_sq"),
        "trials": _integer(raw.get("trials", 100), "trials", 1),
        "seed": _integer(raw.get("seed", 0), "seed", 0),
    }


def build_orbifold(config):
    gens = [AffineElement(rows, trans) for rows, trans in config["generators"]]
    group = generate(gens)
    return validate_joyce(group, config["frame"])


def _generator_dict(matrix, translation):
    """A generator or group element as in a config: row-major matrix, string translation."""
    return {
        "matrix": [x for row in matrix for x in row],
        "translation": [str(t) for t in translation],
    }


def _echo_config(config):
    out = {
        "name": config["name"],
        "generators": [_generator_dict(rows, trans) for rows, trans in config["generators"]],
        "oracle_radius_sq": str(config["oracle_radius_sq"]),
        "trials": config["trials"],
        "seed": config["seed"],
    }
    if config["frame"] is not None:
        N, d = config["frame"]
        out["frame"] = [[str(Fraction(x, d)) for x in row] for row in N]
    return out


# -- commands -----------------------------------------------------------------


def cmd_check(config, args):
    try:
        orbifold = build_orbifold(config)
    except NotG2Compatible as exc:
        return 1, {
            "valid": False,
            "error": {"type": "NotG2Compatible",
                      "element": _generator_dict(exc.element.matrix, exc.element.translation)},
        }
    elements = [dict(_generator_dict(e.matrix, e.translation), g2_compatible=True)
                for e in orbifold.group]
    return 0, {"valid": True, "order": len(orbifold.group), "elements": elements}


def _mu_bridge(orbifold, pair):
    """(bridge, deviation): the closed-form mu of the zeta values at 0, and the
    larger of its distances from the exact pair's mu3 and mu4."""
    from .epstein import closed_form_mu
    bridge = closed_form_mu(orbifold)
    return bridge, max(abs(bridge.mu3 - float(pair.mu3)), abs(bridge.mu4 - float(pair.mu4)))


def cmd_invariants(config, args):
    from .invariants import mu_invariants
    orbifold = build_orbifold(config)
    pair = mu_invariants(orbifold)
    results = {
        "mu3": str(pair.mu3), "mu3_decimal": float(pair.mu3),
        "mu4": str(pair.mu4), "mu4_decimal": float(pair.mu4),
    }
    code = 0
    if args.crosscheck:
        tol = args.tolerance if args.tolerance is not None else 1e-6
        bridge, deviation = _mu_bridge(orbifold, pair)
        within = deviation <= tol
        results["zeta_crosscheck"] = {
            "mu3": bridge.mu3, "mu4": bridge.mu4,
            "tolerance": tol, "within_tolerance": within,
        }
        if not within:
            code = 1
    return code, results


def _spectrum_radius(config, args):
    return args.radius_sq if args.radius_sq is not None else config["oracle_radius_sq"]


def cmd_spectrum(config, args):
    from .oracle import spectral_reports
    orbifold = build_orbifold(config)
    radius = _spectrum_radius(config, args)
    reports = spectral_reports(orbifold, radius)
    rows = [r.to_json_dict() for r in reports]
    mismatches = sum(1 for r in reports if not r.match)
    return (1 if mismatches else 0), {
        "radius_sq": str(radius),
        "reports": rows,
        "mismatches": mismatches,
    }


def cmd_identities(config, args):
    from .fourier import verify_appendix, verify_hessian
    structure = build_orbifold(config).structure
    trials = args.trials if args.trials is not None else config["trials"]
    seed = args.seed if args.seed is not None else config["seed"]
    tol = args.tolerance if args.tolerance is not None else 1e-9
    identities = verify_appendix(structure, trials=trials, seed=seed)["identities"]
    hessian = verify_hessian(structure, trials=trials, seed=seed)
    failures = sorted(
        [name for name, v in identities.items() if v > tol]
        + [f"split:{k}" for k, v in hessian["split_checks"].items() if v > tol]
        + [f"hessian:{k}" for k, v in hessian["hessian_checks"].items() if v > tol])
    return (1 if failures else 0), {
        "seed": seed,
        "trials": trials,
        "tolerance": tol,
        "identities": identities,
        **hessian,
        "failures": failures,
    }


def cmd_zeta(config, args):
    from .epstein import fixed_lattice, value_at_zero
    from .invariants import mu_invariants
    orbifold = build_orbifold(config)
    tol = args.tolerance if args.tolerance is not None else 1e-6
    rows = []
    worst = 0.0
    for e in orbifold.group:
        lat = fixed_lattice(e, orbifold.structure.metric)
        v0 = value_at_zero(lat)
        deviation = abs(v0 + 1.0)
        worst = max(worst, deviation)
        rows.append({
            "element": _generator_dict(e.matrix, e.translation),
            "rank": lat.rank,
            "twist": [str(t) for t in lat.twist],
            "value_at_zero": v0,
            "deviation_from_minus_1": deviation,
        })
    pair = mu_invariants(orbifold)
    bridge, bridge_dev = _mu_bridge(orbifold, pair)
    code = 1 if (worst > tol or bridge_dev > tol) else 0
    return code, {
        "tolerance": tol,
        "elements": rows,
        "max_deviation": worst,
        "closed_form_mu": {"mu3": bridge.mu3, "mu4": bridge.mu4},
        "exact_mu": {"mu3": str(pair.mu3), "mu4": str(pair.mu4)},
        "closed_form_deviation": bridge_dev,
    }


COMMANDS = {
    "check": cmd_check,
    "invariants": cmd_invariants,
    "spectrum": cmd_spectrum,
    "identities": cmd_identities,
    "zeta": cmd_zeta,
}


# -- output -------------------------------------------------------------------


def _csv_rows(command, results):
    import csv
    import io
    if command == "check":
        header = ["matrix", "translation", "g2_compatible"]
        # a failing check's one row is the element that is not in G2
        elements = results["elements"] if results["valid"] else [results["error"]["element"]]
        rows = [[" ".join(map(str, e["matrix"])), " ".join(e["translation"]),
                 e.get("g2_compatible", False)] for e in elements]
    elif command == "invariants":
        header = ["invariant", "exact", "decimal"]
        rows = [["mu3", results["mu3"], results["mu3_decimal"]],
                ["mu4", results["mu4"], results["mu4_decimal"]]]
    elif command == "spectrum":
        header = ["norm_sq", "kind", "dim_bruteforce", "dim_formula", "match"]
        rows = [[r["norm_sq"], r["kind"], r["dim_bruteforce"], r["dim_formula"],
                 r["match"]] for r in results["reports"]]
    elif command == "identities":
        header = ["identity", "max_residual"]
        rows = sorted(results["identities"].items())
        rows += sorted((f"split:{k}", v) for k, v in results["split_checks"].items())
        rows += sorted((f"hessian:{k}", v) for k, v in results["hessian_checks"].items())
    elif command == "zeta":
        header = ["rank", "twist", "value_at_zero", "deviation"]
        rows = [[r["rank"], " ".join(r["twist"]), r["value_at_zero"],
                 r["deviation_from_minus_1"]] for r in results["elements"]]
    else:
        raise ValueError(command)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def run(argv=None):
    parser = argparse.ArgumentParser(
        prog="g2mu",
        description="mu-invariants and spectral verification for flat G2 orbifolds")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON orbifold config")
    parser.add_argument("--radius-sq", dest="radius_sq", default=None,
                        help="squared-norm cutoff for the spectrum oracle (rational)")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tolerance", type=float, default=None)
    parser.add_argument("--output", choices=["json", "csv"], default="json")
    parser.add_argument("--crosscheck", action="store_true",
                        help="invariants: also run the zeta-function consistency bridge")
    args = parser.parse_args(argv)

    try:
        if args.radius_sq is not None:
            args.radius_sq = _radius_sq(args.radius_sq, "--radius-sq")
        if args.trials is not None:
            _integer(args.trials, "--trials", 1)
        if args.seed is not None:
            _integer(args.seed, "--seed", 0)
        if args.tolerance is not None and not 0 <= args.tolerance < math.inf:
            raise ConfigError("--tolerance must be a finite nonnegative number")
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        config = parse_config(raw)
        if args.command == "spectrum":
            _check_lattice_count(config["frame"], _spectrum_radius(config, args))
    # ValueError: bad JSON, UTF-8 or config; RecursionError: JSON nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "detail": str(exc)}}),
              file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    report = {"tool_version": TOOL_VERSION, "command": args.command,
              "config": _echo_config(config)}
    try:
        code, report["results"] = COMMANDS[args.command](config, args)
    except (NonUnimodular, NonFinite, NotG2Compatible, ValueError, ArithmeticError) as exc:
        code, report["error"] = 1, {"type": type(exc).__name__, "detail": str(exc)}
    report["wall_time_s"] = round(time.perf_counter() - t0, 6)
    if args.output == "csv" and "results" in report:
        sys.stdout.write(_csv_rows(args.command, report["results"]))
    else:
        print(json.dumps(report, sort_keys=True))
    return code


def main():
    """The `g2mu` console script and `python -m g2mu.cli`.  An exception
    that escapes run, such as argparse's SystemExit, takes the normal exit
    path; a reader that has closed stdout ends the process with exit 1 and
    no traceback."""
    try:
        code = run()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 1
    os._exit(code)


if __name__ == "__main__":
    main()
