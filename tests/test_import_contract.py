"""Every command runs on the standard library alone, and starts cold.

No command imports numpy or mpmath: each gives the same report in a
process where neither can be imported as in one that has both.  mpmath is
still reached, lazily, by an Epstein value away from s = 0.  No command
imports `dataclasses` or `inspect` either, whose import chain costs every
process more than most commands' own math.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath

from g2mu import cli

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
DATA_DIR = ROOT / "tests" / "data"
COMMANDS = (["check"], ["invariants", "--crosscheck"], ["zeta"])

# numpy, mpmath, dataclasses and inspect made unimportable: `import numpy`
# raises ImportError
BLOCKED_RUNS = """
import contextlib, io, json, sys
for name in ("numpy", "mpmath", "dataclasses", "inspect"):
    sys.modules[name] = None
from g2mu import cli
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    out.append([code, buf.getvalue()])
print(json.dumps(out))
"""


def _python(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _masked(stdout):
    report = json.loads(stdout)
    report.pop("wall_time_s")
    return report


def _assert_import_loads_none_of(module, names):
    _python(f"import {module}, sys; loaded = [n for n in {names!r} if n in sys.modules]; "
            "assert not loaded, loaded")


def test_import_of_the_cli_loads_neither_numpy_nor_mpmath():
    _assert_import_loads_none_of("g2mu.cli", ("numpy", "mpmath", "dataclasses", "inspect"))


def test_import_of_the_cli_leaves_the_command_modules_unloaded():
    # `check` runs neither; `invariants` and `zeta` import them when they run
    _assert_import_loads_none_of("g2mu.cli", ("g2mu.epstein", "g2mu.invariants"))


def test_import_of_the_oracle_loads_neither_numpy_nor_mpmath():
    _assert_import_loads_none_of("g2mu.oracle", ("numpy", "mpmath", "dataclasses", "inspect"))


def test_import_of_fourier_loads_no_dataclasses():
    _assert_import_loads_none_of("g2mu.fourier", ("numpy", "dataclasses", "inspect"))


def _configs():
    """The four shipped configs and the two framed ones in tests/data: m1 under
    diag(1, ..., 1, 1/2), whose Gram is not integral, and t7 under I + E_11 + (1/3) E_12."""
    return [str(CONFIG_DIR / f"{stem}.json") for stem in ("t7", "m1", "m2", "m3")] + \
        sorted(str(path) for path in DATA_DIR.glob("*.json"))


def _assert_blocked_runs_match(runs, capsys):
    """Each run exits 0 with numpy, mpmath, dataclasses and inspect blocked,
    and its report equals the same run's in this process, wall_time_s masked."""
    blocked = json.loads(_python(BLOCKED_RUNS, json.dumps(runs)))
    assert len(blocked) == len(runs)
    for argv, (code, stdout) in zip(runs, blocked):
        assert code == 0, argv
        assert cli.run(argv) == 0
        assert _masked(stdout) == _masked(capsys.readouterr().out), argv


def test_closed_form_commands_run_without_numpy_and_mpmath(capsys):
    _assert_blocked_runs_match([cmd + ["--config", path] for path in _configs()
                                for cmd in COMMANDS], capsys)


def test_spectrum_runs_without_numpy_and_mpmath(capsys):
    _assert_blocked_runs_match([["spectrum", "--config", path, "--radius-sq", "2"]
                                for path in _configs()], capsys)


def test_identities_runs_without_numpy(capsys):
    _assert_blocked_runs_match([["identities", "--config", str(CONFIG_DIR / "m3.json"),
                                 "--trials", "1"]], capsys)


def test_epstein_value_off_zero_imports_mpmath_lazily():
    value = _python("""
import sys
from fractions import Fraction
from g2mu import epstein
lat = epstein.TwistedLattice(1, ((1, 0, 0, 0, 0, 0, 0),), (((1,),), 1), (Fraction(0),))
assert epstein.epstein_value(lat, 0) == -1 and 'mpmath' not in sys.modules
value = epstein.epstein_value(lat, 1.5)
assert 'mpmath' in sys.modules
print(repr(value))
""")
    # the rank-1 cubic lattice: Z(s) = 2 zeta(2s)
    assert abs(complex(value) - complex(2 * mpmath.zeta(3))) < 1e-12
