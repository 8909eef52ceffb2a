import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from g2mu import cli, linalg

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def identity_generator(translation=None):
    eye = [1 if i == j else 0 for i in range(7) for j in range(7)]
    return {"matrix": eye, "translation": translation or ["0"] * 7}


def test_check_golden_group(capsys):
    code, out, _ = run_cli(capsys, "check", "--config", str(CONFIG_DIR / "m3.json"))
    assert code == 0
    report = json.loads(out)
    assert report["results"]["order"] == 8
    assert report["results"]["valid"] is True
    assert all(e["g2_compatible"] for e in report["results"]["elements"])
    assert report["command"] == "check"


def test_check_empty_generators(capsys, tmp_path):
    cfg = write_config(tmp_path, {"name": "trivial", "generators": []})
    code, out, _ = run_cli(capsys, "check", "--config", cfg)
    assert code == 0
    assert json.loads(out)["results"]["order"] == 1


@pytest.mark.parametrize("stem,mu3,mu4", [
    ("t7", "-8", "-12"), ("m1", "-4", "-8"), ("m2", "-2", "-6"), ("m3", "-1", "-5"),
])
def test_invariants_golden(capsys, stem, mu3, mu4):
    code, out, _ = run_cli(capsys, "invariants", "--config", str(CONFIG_DIR / f"{stem}.json"))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["mu3"] == mu3 and results["mu4"] == mu4


def test_invariants_crosscheck(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--config", str(CONFIG_DIR / "m2.json"),
                           "--crosscheck")
    assert code == 0
    cc = json.loads(out)["results"]["zeta_crosscheck"]
    assert cc["within_tolerance"] is True


def test_spectrum_small_radius(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(CONFIG_DIR / "t7.json"),
                           "--radius-sq", "1")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["mismatches"] == 0
    dims = {(r["norm_sq"], r["kind"]): r["dim_bruteforce"] for r in results["reports"]}
    assert dims[("1", "H")] == 112 and dims[("1", "Hprime")] == 168


def test_spectrum_zero_radius(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(CONFIG_DIR / "m1.json"),
                           "--radius-sq", "0")
    assert code == 0
    assert json.loads(out)["results"]["reports"] == []


@pytest.mark.parametrize("stem", ["t7", "m3"])
def test_identities_reproducible(capsys, stem):
    args = ("identities", "--config", str(CONFIG_DIR / f"{stem}.json"),
            "--trials", "2", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_time_s"), r2.pop("wall_time_s")
    assert r1 == r2
    assert r1["results"]["failures"] == []


def test_identities_fails_on_a_wrong_S4_split(capsys, monkeypatch):
    """Splitting by type alone, (pi_1 f, pi_27 f) without the Green-operator
    correction, leaves pi_7 d omega_minus far from 0: identities exits 1."""
    from g2mu import fourier
    monkeypatch.setattr(fourier, "split_S4", lambda f: (fourier.project_type(f, 3, 1),
                                                        fourier.project_type(f, 3, 27)))
    code, out, _ = run_cli(capsys, "identities", "--config", str(CONFIG_DIR / "t7.json"),
                           "--trials", "2")
    results = json.loads(out)["results"]
    assert code == 1 and "split:pi7_d_minus" in results["failures"]
    assert results["split_checks"]["pi7_d_minus"] > 1.0


def test_strict_types_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["identities", "--config", str(CONFIG_DIR / "t7.json"), "--strict-types"])
    assert exc.value.code == 2


def test_zeta_command(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--config", str(CONFIG_DIR / "m1.json"))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["max_deviation"] <= 1e-6
    assert {r["rank"] for r in results["elements"]} == {7, 3}
    assert results["closed_form_deviation"] <= 1e-6


def test_csv_output(capsys):
    """Every command's CSV has its header and one row per reported item."""
    for stem, argv, header, n_rows in [
        ("m3", ["invariants"], "invariant,exact,decimal", 2),
        ("m1", ["check"], "matrix,translation,g2_compatible", 2),
        ("m1", ["spectrum", "--radius-sq", "1"],
         "norm_sq,kind,dim_bruteforce,dim_formula,match", 2),
        ("m1", ["identities", "--trials", "1"], "identity,max_residual", 39),
        ("m1", ["zeta"], "rank,twist,value_at_zero,deviation", 2),
    ]:
        code, out, _ = run_cli(capsys, *argv, "--config", str(CONFIG_DIR / f"{stem}.json"),
                               "--output", "csv")
        assert code == 0, argv
        lines = out.strip().splitlines()
        assert lines[0] == header and len(lines) == 1 + n_rows, argv
        if argv == ["invariants"]:
            assert lines[1].startswith("mu3,-1")


def test_nonunimodular_generator_fails_with_code_1(capsys, tmp_path):
    bad = [1 if i == j else 0 for i in range(7) for j in range(7)]
    bad[0] = -1  # det = -1
    cfg = write_config(tmp_path, {"name": "bad", "generators": [
        {"matrix": bad, "translation": ["0"] * 7}]})
    code, out, err = run_cli(capsys, "check", "--config", cfg)
    assert code == 1
    assert "NonUnimodular" in out


def test_non_g2_generator_reports_element(capsys, tmp_path):
    mat = [1 if i == j else 0 for i in range(7) for j in range(7)]
    mat[0] = -1
    mat[8] = -1  # diag(-1,-1,1,...,1): unimodular but not G2
    cfg = write_config(tmp_path, {"name": "notg2", "generators": [
        {"matrix": mat, "translation": ["0"] * 7}]})
    code, out, _ = run_cli(capsys, "check", "--config", cfg)
    assert code == 1
    report = json.loads(out)
    assert report["results"]["error"]["type"] == "NotG2Compatible"


# e1 <-> e2 with e3 negated: unimodular and of order 2, but not in G2
SWAP_NEGATE = [0, 1, 0, 0, 0, 0, 0,
               1, 0, 0, 0, 0, 0, 0,
               0, 0, -1, 0, 0, 0, 0,
               0, 0, 0, 1, 0, 0, 0,
               0, 0, 0, 0, 1, 0, 0,
               0, 0, 0, 0, 0, 1, 0,
               0, 0, 0, 0, 0, 0, 1]


def _is_not_g2_error_report(out):
    report = json.loads(out)
    return report["error"]["type"] == "NotG2Compatible" and "results" not in report


def _is_header_and_failing_row(out):
    return out.splitlines() == ["matrix,translation,g2_compatible",
                                " ".join(map(str, SWAP_NEGATE)) + ",0 0 0 0 0 0 0,False"]


def _is_within_zero_tolerance(out):
    crosscheck = json.loads(out)["results"]["zeta_crosscheck"]
    return crosscheck["tolerance"] == 0 and crosscheck["within_tolerance"] is True


@pytest.mark.parametrize("argv, expected_code, expected", [
    (["spectrum", "--output", "csv"], 1, _is_not_g2_error_report),
    (["check", "--output", "csv"], 1, _is_header_and_failing_row),
    (["invariants", "--crosscheck", "--tolerance", "0"], 0, _is_within_zero_tolerance),
], ids=["spectrum-csv-error", "check-csv-failing-element", "crosscheck-zero-tolerance"])
def test_report_edges(capsys, tmp_path, argv, expected_code, expected):
    """A command that raises prints the JSON error report even under --output
    csv; a failing check's CSV names the element that is not in G2, as its
    JSON report does; and a zero tolerance holds when the bridge is exact
    (m3's closed form gives mu3 = -1.0 and mu4 = -5.0)."""
    if argv[0] == "invariants":
        config = str(CONFIG_DIR / "m3.json")
    else:
        config = write_config(tmp_path, {"name": "swap-negate", "generators": [
            {"matrix": SWAP_NEGATE, "translation": ["0"] * 7}]})
    code, out, _ = run_cli(capsys, *argv, "--config", config)
    assert code == expected_code
    assert expected(out), out


def test_infinite_order_generator_fails_with_code_1(capsys, tmp_path):
    shear = [1 if i == j else 0 for i in range(7) for j in range(7)]
    shear[1] = 1
    cfg = write_config(tmp_path, {"name": "shear", "generators": [
        {"matrix": shear, "translation": ["0"] * 7}]})
    code, out, _ = run_cli(capsys, "check", "--config", cfg)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "NonFinite" and "infinite order" in error["detail"]


def test_unknown_field_rejected(capsys, tmp_path):
    cfg = write_config(tmp_path, {"name": "x", "generators": [], "radius": 4})
    code, out, err = run_cli(capsys, "check", "--config", cfg)
    assert code == 2
    assert "unknown config fields" in err


def test_bad_rational_rejected(capsys, tmp_path):
    cfg = write_config(tmp_path, {"name": "x", "generators": [
        dict(identity_generator(), translation=["1/0"] + ["0"] * 6)]})
    code, out, err = run_cli(capsys, "check", "--config", cfg)
    assert code == 2


def test_malformed_json_rejected(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, out, err = run_cli(capsys, "check", "--config", str(p))
    assert code == 2


@pytest.mark.parametrize("content,error", [
    (b"\xff\xfe{}", "UnicodeDecodeError"),
    (b"[" * 100000, "RecursionError"),
], ids=["not-utf8", "nested-too-deep"])
def test_undecodable_config_rejected_as_malformed_input(capsys, tmp_path, content, error):
    p = tmp_path / "bad.json"
    p.write_bytes(content)
    code, out, err = run_cli(capsys, "check", "--config", str(p))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == error


def test_missing_file_rejected(capsys, tmp_path):
    code, out, err = run_cli(capsys, "check", "--config", str(tmp_path / "nope.json"))
    assert code == 2


def test_frame_field_accepted(capsys, tmp_path):
    frame = [[("2" if i == j else "0") for j in range(7)] for i in range(7)]
    cfg = write_config(tmp_path, {"name": "framed", "generators": [],
                                  "frame": frame})
    code, out, _ = run_cli(capsys, "invariants", "--config", cfg)
    assert code == 0
    assert json.loads(out)["results"]["mu3"] == "-8"


def test_reports_deterministic(capsys):
    args = ("spectrum", "--config", str(CONFIG_DIR / "m1.json"), "--radius-sq", "2")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_time_s"), r2.pop("wall_time_s")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


@pytest.mark.parametrize("flag,value,detail", [
    ("--radius-sq", "-1", "--radius-sq must be nonnegative"),
    ("--radius-sq", "1/0", "bad --radius-sq"),
    ("--trials", "0", "--trials must be a positive integer"),
    ("--trials", "-3", "--trials must be a positive integer"),
    ("--seed", "-1", "--seed must be a nonnegative integer"),
    ("--tolerance", "nan", "--tolerance must be a finite nonnegative number"),
    ("--tolerance", "inf", "--tolerance must be a finite nonnegative number"),
    ("--tolerance", "-1", "--tolerance must be a finite nonnegative number"),
])
def test_bad_flag_values_rejected_as_malformed_input(capsys, flag, value, detail):
    command = "spectrum" if flag == "--radius-sq" else "identities"
    code, out, err = run_cli(capsys, command, "--config", str(CONFIG_DIR / "t7.json"),
                             f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": {"type": "ConfigError", "detail": detail}}


@pytest.mark.parametrize("where,radius_sq,frame_entry,estimate", [
    ("flag", "1000000", None, "4.72e+21"),
    ("flag", "1e400", None, "inf"),
    ("config", "1000000", None, "4.72e+21"),
    ("flag", "1", "1e-400", "inf"),
], ids=["radius-1e6", "radius-1e400", "config-radius", "tiny-volume"])
def test_spectrum_refuses_radii_with_too_many_lattice_vectors(capsys, tmp_path, where,
                                                              radius_sq, frame_entry, estimate):
    """A radius whose ball holds more than cli.MAX_LATTICE_VECTORS lattice vectors
    (by its volume) is malformed input: exit 2 at once, the estimate quoted."""
    payload = json.loads((CONFIG_DIR / "t7.json").read_text())
    if where == "config":
        payload["oracle_radius_sq"] = radius_sq
    if frame_entry is not None:
        payload["frame"] = [[frame_entry if i == j == 0 else str(int(i == j)) for j in range(7)]
                            for i in range(7)]
    argv = ["spectrum", "--config", write_config(tmp_path, payload)]
    if where == "flag":
        argv += ["--radius-sq", radius_sq]
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError" and f"about {estimate} lattice vectors" in error["detail"]


def test_spectrum_accepts_a_huge_frame(capsys, tmp_path):
    """Under 10^200 I (det 10^1400, past float range) the unit ball holds
    only the zero vector: the estimate is about 0, not an overflow."""
    payload = json.loads((CONFIG_DIR / "t7.json").read_text())
    payload["frame"] = [["1" + "0" * 200 if i == j else "0" for j in range(7)]
                        for i in range(7)]
    code, out, _ = run_cli(capsys, "spectrum", "--config", write_config(tmp_path, payload),
                           "--radius-sq", "1")
    assert code == 0 and json.loads(out)["results"]["reports"] == []


def test_spectrum_allows_m3_at_radius_16():
    # about 77k lattice vectors, the oracle's largest planned radius
    cli._check_lattice_count(None, Fraction(16))
    with pytest.raises(cli.ConfigError):
        cli._check_lattice_count(None, Fraction(34))


# a rational whose denominator is 10^999999999: Fraction would build it digit by digit
HUGE_EXPONENT = "1e-999999999"


@pytest.mark.parametrize("field, name", [
    ("translation", "generator 0 translation"),
    ("frame", "frame entry"),
    ("oracle_radius_sq", "oracle_radius_sq"),
    ("--radius-sq", "--radius-sq"),
])
@pytest.mark.parametrize("value", [HUGE_EXPONENT, "1e-5000"])
def test_rationals_past_the_digit_limit_are_malformed_input(capsys, tmp_path, field, name, value):
    """Each field that reads a rational refuses one whose numerator or
    denominator has more digits than Python prints, at once: exit 2 and a
    JSON error naming the field, before anything is built."""
    payload = json.loads((CONFIG_DIR / "m1.json").read_text())
    argv = []
    if field == "translation":
        payload["generators"][0]["translation"][6] = value
    elif field == "frame":
        payload["frame"] = [[value if i == j == 6 else str(int(i == j)) for j in range(7)]
                            for i in range(7)]
    elif field == "oracle_radius_sq":
        payload[field] = value
    else:
        argv = [field, value]
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "spectrum", "--config", write_config(tmp_path, payload),
                             *argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert json.loads(err) == {"error": {"type": "ConfigError",
                                         "detail": f"{name} has more than {limit} digits"}}


def test_rationals_are_refused_exactly_at_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert cli._rational(f"1e-{limit - 1}", "x") == Fraction(1, 10 ** (limit - 1))
    assert cli._rational(f"-3e{limit - 1}", "x") == -3 * 10 ** (limit - 1)
    assert cli._rational("1" * limit + "/7", "x").denominator == 7
    for value in (f"1e-{limit}", f"1e{limit}", f"0.1e-{limit - 1}"):
        with pytest.raises(cli.ConfigError, match=f"x has more than {limit} digits"):
            cli._rational(value, "x")
    # int() itself refuses a longer digit string
    for value in ("1/0", "1" * (limit + 1)):
        with pytest.raises(cli.ConfigError, match="bad x"):
            cli._rational(value, "x")


def test_bad_config_values_rejected_as_malformed_input(capsys, tmp_path):
    for field, value in [("oracle_radius_sq", "-1"), ("trials", 0), ("trials", -3),
                         ("seed", -3)]:
        cfg = write_config(tmp_path, {"name": "x", "generators": [], field: value})
        code, out, err = run_cli(capsys, "check", "--config", cfg)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ConfigError"


def test_json_booleans_rejected_where_integers_are_required(capsys, tmp_path):
    bool_eye = {"matrix": [i == j for i in range(7) for j in range(7)]}
    for payload in [{"generators": [bool_eye]}, {"trials": True}, {"seed": False}]:
        cfg = write_config(tmp_path, dict({"name": "x"}, **payload))
        code, out, err = run_cli(capsys, "check", "--config", cfg)
        assert code == 2, payload
        assert json.loads(err)["error"]["type"] == "ConfigError"


def test_zeta_builds_each_fixed_lattice_once(capsys, tmp_path):
    """zeta and its mu bridge (`epstein.closed_form_mu`) each read the fixed
    lattice of every element; its basis and Gram are built once per matrix
    part and metric (`epstein._fixed_sublattice`), the bridge's reads hit
    that cache, and only the twist is the element's own."""
    from g2mu import epstein
    # a frame no other test uses, so that the process-wide cache has none of
    # its lattices yet
    frame = [[5 if i == j == 6 else int(i == j) for j in range(7)] for i in range(7)]
    payload = json.loads((CONFIG_DIR / "m3.json").read_text())
    before = epstein._fixed_sublattice.cache_info()
    code, out, _ = run_cli(capsys, "zeta", "--config",
                           write_config(tmp_path, dict(payload, frame=frame)))
    after = epstein._fixed_sublattice.cache_info()
    assert code == 0 and len(json.loads(out)["results"]["elements"]) == 8
    assert (after.misses - before.misses, after.hits - before.hits) == (8, 8)


def framed_config(tmp_path, stem, diagonal):
    """A shipped config under the diagonal frame diag(diagonal), written to tmp_path."""
    payload = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
    payload["frame"] = [[diagonal[i] if i == j else "0" for j in range(7)] for i in range(7)]
    return write_config(tmp_path, payload, f"{stem}-framed.json")


HALF_FRAME = ("1", "1", "1", "1", "1", "1", "1/2")
F23_FRAME = ("2", "1", "1", "1", "1", "3", "1")


def spectrum_calls(capsys, monkeypatch, config, radius_sq):
    """Calls of clear_denominators, type_space_basis and 7x7 eliminations made by
    `spectrum` on a fresh structure, with the standard bases already built."""
    from g2mu import g2
    g2._standard_bases()  # built once per process, by whichever caller comes first
    calls = {"clear_denominators": 0, "type_space_basis": 0, "7x7 determinants": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    echelon = linalg._echelon

    def eliminate(rows, reduced=False):
        if len(rows) == 7 and len(rows[0]) == 7:
            calls["7x7 determinants"] += 1
        return echelon(rows, reduced)

    monkeypatch.setattr(linalg, "clear_denominators",
                        counting("clear_denominators", linalg.clear_denominators))
    monkeypatch.setattr(g2.G2Structure, "type_space_basis",
                        counting("type_space_basis", g2.G2Structure.type_space_basis))
    monkeypatch.setattr(linalg, "_echelon", eliminate)
    code, _, _ = run_cli(capsys, "spectrum", "--config", config, "--radius-sq", radius_sq)
    assert code == 0
    return calls


def test_spectrum_call_counts(capsys, monkeypatch):
    """spectrum on m3 at radius 4 clears denominators only of forms and twist
    vectors (every matrix is an integer pair from the start), asks for a
    type-space basis twice per fibre kernel, built once per kind at the keys
    of the 7 symmetry orbits (104 kernels when each fixed pair took its
    trace at its own mode), and takes a 7x7 determinant only for elements built from outside."""
    calls = spectrum_calls(capsys, monkeypatch, str(CONFIG_DIR / "m3.json"), "4")
    # 3 of the 7x7 determinants check det = 1 for the 3 generators (the
    # closure takes no inverses); the other 3 are the metric's one elimination
    # (positive definiteness and det G) and the identity element's shell
    # enumeration
    assert calls == {"clear_denominators": 20, "type_space_basis": 30,
                     "7x7 determinants": 6}


def test_spectrum_call_counts_framed(capsys, monkeypatch, tmp_path):
    """The same counts for m3 under diag(2, 1, 1, 1, 1, 3, 1) at radius 2: the
    frame is cleared once, by the config parser, and enters through its
    determinant and pullback matrices only.  Its determinant is taken twice:
    once for the lattice-count estimate before anything is built, once for
    the metric's volume.  Only the three sign changes stay integral symmetries
    under this frame, and all three are matrix parts of m3, so each symmetry
    orbit is a group orbit and its negative and every fixed key is already
    the key of its orbit: moving traces to the orbit keys saves no kernel."""
    config = framed_config(tmp_path, "m3", F23_FRAME)
    assert spectrum_calls(capsys, monkeypatch, config, "2") == {
        "clear_denominators": 21, "type_space_basis": 62, "7x7 determinants": 7}


# sha256 of each report (json.dumps(sort_keys=True), without wall_time_s)
PINNED_REPORTS = {
    "t7": {
        "check": "8024f3d0a4eb77663c20665bc30feb6899ab4de54de211d4f818523ed7fccbe1",
        "invariants --crosscheck":
            "952bad91cf9173ad97b585f199c33c3118e302c9353fb5664f0b964ec76b36ed",
        "zeta": "7bef48c8ede1493b5eb53a7f4eb47749b789efbabdad4dcf6f1a7d989505443e",
        "spectrum --radius-sq 2":
            "59ad9cc3f07df42fd556ca02c67f42270c45fd177c88a20c5df1658ed2d68cd2",
    },
    "m1": {
        "check": "16413554af09c672f883d805197631689109071e20fb0c5ab0a1ed8fd3927b5b",
        "invariants --crosscheck":
            "22fa6e2f0f2f367795c234b4b3e2b4a42ac5ef22e1e09834633017ea81343fd3",
        "zeta": "f41d39d1af7ebdb352b8a84e7492176d748c066ecba3fbb688b8af44bc865ebd",
        "spectrum --radius-sq 2":
            "44601417209c760008e127ec6d6fea97ee1737a7f19b8a65437c5c983c3f656e",
    },
    "m2": {
        "check": "529186f15b29a64a5de0ffcca468f2bc7c1dadff3c2c83071dc17d7430e65aec",
        "invariants --crosscheck":
            "6b8bce02a8d17dd768578931820cb55209fced773b54903f06a7ffb469c66332",
        "zeta": "66b3c76eb5d8f73b816b8aa92a3ca78ea7d21a2993e7e2e2dc6c09a61c8ec63f",
        "spectrum --radius-sq 2":
            "69ca2f55f957058180d6959054508a2b3dcbb1b63a26ad5f5dc502621e2adc04",
    },
    "m3": {
        "check": "a82375023c697b25fa3fd79751912deb0cd26535f55a66fef11fe13ee400ab4a",
        "invariants --crosscheck":
            "30ba9cae2d8809d3cd85d29985ab09f3334c1994fcc207634344f6d16eee86a1",
        "zeta": "53a8ceba97724f1b541c4615dc3ad4e0bb6b34fef897d35e00f33eeef09f7339",
        "spectrum --radius-sq 2":
            "5b072d32bc6fd5b2c709d296b6db191437ce21c0ad21f09420088a8438fefc2a",
        # 12,434 modes in 9 classes, 24 orbits of the signed permutations fixing phi0
        "spectrum --radius-sq 9":
            "1dbf5dd712e822f5efdc035d7d073134bcefd42383350e8d801ab436eb2ac1f8",
        # 88,272 modes in 16 classes, the oracle's largest planned radius
        "spectrum --radius-sq 16":
            "6a87ce8fdd67cca53863df04cc52d06538ea67de604b3002eb66637a2fda3ecd",
        # float residuals in the interpreter's own arithmetic, with no BLAS: the
        # same bytes on every machine, for one Python version (CI's 3.11; the
        # compensated float sum() of 3.12 changes last digits); hessian_checks
        # holds the F blocks' three checks and the E block's one
        "identities --trials 2 --seed 0":
            "64b9965454ef51d96624d9990abb65aa430afa8f3a670fd6eeb8ce965981788e",
    },
}


# the same digests for spectrum under rational frames, per --radius-sq: those
# at 2 computed before the exterior kernels and the metric's matrices moved
# to integer pairs, m3's at 4 (its integer Gram diag(4, 1, 1, 1, 1, 9, 1)
# and four classes) before the oracle read every fixed pair under every Gram
PINNED_FRAMED_REPORTS = {
    ("m1", HALF_FRAME): {
        "2": "434eda39837fa9f7f6d6894ae5c073877b64ea3515e1ca79415eeac3987e2b49",
    },
    ("m3", F23_FRAME): {
        "2": "cf0e53dc6969d8f813c4d407a665cd885e5b2bad9f684bf110c4c4ddfc485597",
        "4": "3df993a3fd9b1487599c9ccec8b587ed5f19f4997fc7fe5057e26c0585319416",
    },
}


def report_digest(out):
    report = json.loads(out)
    report.pop("wall_time_s")
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("stem, frame", sorted(PINNED_FRAMED_REPORTS))
def test_framed_spectrum_reports_are_pinned(capsys, tmp_path, stem, frame):
    config = framed_config(tmp_path, stem, frame)
    for radius_sq, expected in PINNED_FRAMED_REPORTS[stem, frame].items():
        code, out, _ = run_cli(capsys, "spectrum", "--config", config, "--radius-sq", radius_sq)
        assert (code, report_digest(out)) == (0, expected), radius_sq


# m1's generator conjugated by U = I + E_14, under the frame U: its matrix
# part and four of the five symmetry generators are not signed permutations,
# so the oracle moves modes, conjugates and pulls back by the general kernels
SHEARED_PARTS_DIGEST = "1239da7c4019f49cdecaafb2e9024f62cf29ae4287b61c8b8ac9fbcc42efe61a"


def test_sheared_parts_spectrum_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--config",
                           str(CONFIG_DIR.parent / "tests" / "data" / "m1-sheared-parts.json"),
                           "--radius-sq", "4")
    assert (code, report_digest(out)) == (0, SHEARED_PARTS_DIGEST)
    assert json.loads(out)["results"]["mismatches"] == 0


@pytest.mark.parametrize("stem", sorted(PINNED_REPORTS))
def test_exact_reports_are_pinned(capsys, stem):
    """Every field but wall_time_s of the commands' reports, pinned by digest."""
    for command, expected in PINNED_REPORTS[stem].items():
        name, *flags = command.split()
        code, out, _ = run_cli(capsys, name, "--config", str(CONFIG_DIR / f"{stem}.json"),
                               *flags)
        assert (code, report_digest(out)) == (0, expected), command


# -- the command-line process ---------------------------------------------------

SRC_DIR = CONFIG_DIR.parent / "src"


def _src_env():
    """The environment with src/ first on PYTHONPATH, for a child interpreter."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def run_process(argv, stdout=subprocess.PIPE, unbuffered=False):
    """`python -m g2mu.cli argv` in a child process.  Unless `unbuffered`,
    PYTHONUNBUFFERED is taken out of the child's environment, so that its
    stdout is block-buffered, as in any pipe or file, and a report that the
    process did not flush before it ended would be lost."""
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "g2mu.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, text=True, timeout=300)


def _without_wall_time(out):
    """A JSON report without wall_time_s; CSV or empty output as it is."""
    if not out.startswith("{"):
        return out
    report = json.loads(out)
    report.pop("wall_time_s")
    return report


@pytest.mark.parametrize("argv, expected_code", [
    (["check", "--config", "m3"], 0),
    (["check", "--config", "not-g2"], 1),
    (["check", "--config", "missing"], 2),
    (["check", "--config", "m3", "--output", "csv"], 0),
], ids=["exit-0", "exit-1", "exit-2", "csv"])
def test_a_cli_process_prints_what_run_prints(capsys, tmp_path, argv, expected_code):
    """The process ends by os._exit, which flushes nothing: its stdout, stderr
    and exit code are still run's, for each exit code and for a CSV report."""
    not_g2 = [1 if i == j else 0 for i in range(7) for j in range(7)]
    not_g2[0] = not_g2[8] = -1  # diag(-1, -1, 1, 1, 1, 1, 1)
    configs = {
        "m3": str(CONFIG_DIR / "m3.json"),
        "not-g2": write_config(tmp_path, {"name": "notg2", "generators": [
            {"matrix": not_g2, "translation": ["0"] * 7}]}),
        "missing": str(tmp_path / "missing.json"),
    }
    argv = [configs.get(arg, arg) for arg in argv]
    done = run_process(argv)
    code, out, err = run_cli(capsys, *argv)
    assert done.returncode == code == expected_code
    assert (_without_wall_time(done.stdout), done.stderr) == (_without_wall_time(out), err)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_ends_the_process_with_exit_1_and_no_traceback(unbuffered):
    """Its reader gone, writing the report raises BrokenPipeError: in main's
    flush when stdout is buffered, in run's print when it is not."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_process(["check", "--config", str(CONFIG_DIR / "m3.json")],
                           stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


# run(argv) in a fresh interpreter, with every full compound that
# linalg.int_compound builds recorded as [matrix rows, p]; prints
# {"code": run's exit code, "calls": [...]} in place of the report
_COMPOUND_CALLS = """
import contextlib, io, json, sys
from g2mu import cli, linalg
compound, calls = linalg.int_compound, []
def counted(b, p, rows=None):
    if rows is None:
        calls.append([[list(row) for row in b], p])
    return compound(b, p, rows)
linalg.int_compound = counted
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(json.dumps({"code": code, "calls": calls}))
"""


@pytest.mark.parametrize("argv", [["spectrum", "--radius-sq", "2"],
                                  ["identities", "--trials", "2"]],
                         ids=["spectrum", "identities"])
def test_the_frames_grade_3_compound_is_built_once(argv):
    """Under a non-identity frame, pulling phi0 back and transporting the type
    bases read one grade-3 pullback matrix of the frame, cached in `exterior`:
    a fresh process builds the frame's grade-3 compound once per command."""
    config = CONFIG_DIR.parent / "tests" / "data" / "m1-framed.json"
    frame, _ = linalg.clear_denominators(json.loads(config.read_text())["frame"])
    done = subprocess.run([sys.executable, "-c", _COMPOUND_CALLS, *argv, "--config", str(config)],
                          env=_src_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["code"] == 0
    assert report["calls"].count([[list(row) for row in frame], 3]) == 1
