import json
from pathlib import Path

import pytest

from g2mu import cli

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


def test_identities_reproducible(capsys):
    args = ("identities", "--config", str(CONFIG_DIR / "t7.json"),
            "--trials", "2", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_time_s"), r2.pop("wall_time_s")
    assert r1 == r2
    assert r1["results"]["failures"] == []


def test_zeta_command(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--config", str(CONFIG_DIR / "m1.json"))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["max_deviation"] <= 1e-6
    assert {r["rank"] for r in results["elements"]} == {7, 3}
    assert results["closed_form_deviation"] <= 1e-6


def test_csv_output(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--config", str(CONFIG_DIR / "m3.json"),
                           "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "invariant,exact,decimal"
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
])
def test_bad_flag_values_rejected_as_malformed_input(capsys, flag, value, detail):
    command = "spectrum" if flag == "--radius-sq" else "identities"
    code, out, err = run_cli(capsys, command, "--config", str(CONFIG_DIR / "t7.json"),
                             f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": {"type": "ConfigError", "detail": detail}}


def test_bad_config_values_rejected_as_malformed_input(capsys, tmp_path):
    for field, value in [("oracle_radius_sq", "-1"), ("trials", 0), ("trials", -3)]:
        cfg = write_config(tmp_path, {"name": "x", "generators": [], field: value})
        code, out, err = run_cli(capsys, "check", "--config", cfg)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ConfigError"
