import csv
import io
import json
import math
import subprocess
import sys

import jsonschema
import pytest

from ifmsim import parse_layout, run_shots
from ifmsim.cli import run_cli
from ifmsim.data import read_text
from ifmsim.softphotons import E_SQUARED_HEAVISIDE_LORENTZ


def invoke(capsys, *argv):
    """Run the CLI in process and capture (exit_code, stdout, stderr)."""
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def schema(name):
    return json.loads(read_text(name))


def test_simulate_bundled_bomb(capsys):
    code, out, err = invoke(capsys, "simulate", "mzi_bomb.ifm")
    assert code == 0 and err == ""
    payload = json.loads(out)
    jsonschema.validate(payload, schema("report.schema.json"))
    assert payload["p_d1"] == pytest.approx(0.25, abs=1e-12)
    assert payload["p_d2"] == pytest.approx(0.25, abs=1e-12)
    assert payload["p_absorbed"] == pytest.approx(0.5, abs=1e-12)
    assert payload["amplitude_d1_re"] == pytest.approx(-0.5, abs=1e-12)
    assert payload["amplitude_d1_im"] == pytest.approx(0.0, abs=1e-12)


def test_simulate_bundled_empty(capsys):
    code, out, _ = invoke(capsys, "simulate", "mzi.ifm")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_d1"] == pytest.approx(1.0, abs=1e-12)
    assert payload["p_d2"] == pytest.approx(0.0, abs=1e-12)
    assert payload["momentum_d1"] == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
    assert payload["momentum_d2"] == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)


def test_simulate_from_file_path(tmp_path, capsys):
    target = tmp_path / "copy.ifm"
    target.write_text(read_text("mzi_bomb.ifm"), encoding="utf-8")
    code, out, _ = invoke(capsys, "simulate", str(target))
    assert code == 0
    assert json.loads(out)["p_absorbed"] == pytest.approx(0.5, abs=1e-12)


def test_simulate_missing_file(capsys):
    code, out, err = invoke(capsys, "simulate", "no_such_layout.ifm")
    assert code == 1 and out == ""
    assert "no such layout file" in err


def test_simulate_output_flag_matches_stdout(tmp_path, capsys):
    code, out, _ = invoke(capsys, "simulate", "mzi.ifm")
    assert code == 0
    target = tmp_path / "report.json"
    code, silent, _ = invoke(capsys, "simulate", "mzi.ifm", "--output", str(target))
    assert code == 0 and silent == ""
    assert target.read_text(encoding="utf-8") == out


def test_simulate_parse_failure_has_positioned_diagnostic(tmp_path, capsys):
    bad = read_text("mzi.ifm").replace(
        "mirror L12 normal 0.70710678118654746 -0.70710678118654746 0",
        "mirror L12 normal 0 0 0")
    target = tmp_path / "bad.ifm"
    target.write_text(bad, encoding="utf-8")
    code, out, err = invoke(capsys, "simulate", str(target))
    assert code == 1 and out == ""
    assert f"{target}:6:19: error: degenerate normal" in err


def test_simulate_mis_steering_has_positioned_diagnostic(tmp_path, capsys):
    bad = read_text("mzi.ifm").replace(
        "mirror L12 normal 0.70710678118654746 -0.70710678118654746 0",
        "mirror L12 normal 1 0 0")
    target = tmp_path / "bad.ifm"
    target.write_text(bad, encoding="utf-8")
    code, out, err = invoke(capsys, "simulate", str(target))
    assert code == 1 and out == ""
    assert f"{target}:6:19: error: mirror at L12 does not steer its branch" in err


def test_simulate_stdout_byte_stable(capsys):
    _, first, _ = invoke(capsys, "simulate", "mzi_bomb.ifm")
    _, second, _ = invoke(capsys, "simulate", "mzi_bomb.ifm")
    assert first == second


def test_shots_payload_and_schema(capsys):
    code, out, _ = invoke(capsys, "shots", "mzi.ifm", "--n", "1000", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("counts.schema.json"))
    # the empty square sends every photon to the bright port
    assert payload == {"n_shots": 1000, "seed": 7,
                       "counts": {"d1": 1000, "d2": 0, "absorbed": 0}}


def test_shots_seed_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("IFM_SEED", "42")
    code, out, _ = invoke(capsys, "shots", "mzi_bomb.ifm", "--n", "500")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 42

    # an explicit flag supersedes the environment
    monkeypatch.setenv("IFM_SEED", "42")
    code, out, _ = invoke(capsys, "shots", "mzi_bomb.ifm", "--n", "500",
                          "--seed", "9")
    assert json.loads(out)["seed"] == 9

    monkeypatch.delenv("IFM_SEED")
    code, out, _ = invoke(capsys, "shots", "mzi_bomb.ifm", "--n", "500")
    assert json.loads(out)["seed"] == 0


def test_shots_rejects_malformed_environment_seed(monkeypatch, capsys):
    monkeypatch.setenv("IFM_SEED", "not-a-number")
    code, out, err = invoke(capsys, "shots", "mzi_bomb.ifm", "--n", "10")
    assert code == 1 and out == ""
    assert "IFM_SEED must be an integer" in err


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_shots_rejects_seed_outside_64_bits(capsys, seed):
    code, out, err = invoke(capsys, "shots", "mzi_bomb.ifm", "--n", "10",
                            "--seed", str(seed))
    assert code == 1 and out == ""
    assert "[0, 2**64)" in err


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_shots_accepts_seed_range_ends(capsys, seed):
    code, out, _ = invoke(capsys, "shots", "mzi_bomb.ifm", "--n", "10",
                          "--seed", str(seed))
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("counts.schema.json"))
    assert payload["seed"] == seed


def test_shots_batch_csv_merges_to_totals(tmp_path, capsys):
    target = tmp_path / "batches.csv"
    code, out, _ = invoke(capsys, "shots", "mzi_bomb.ifm", "--n", "10000",
                          "--seed", "3", "--batch-size", "1024",
                          "--batch-csv", str(target))
    assert code == 0
    payload = json.loads(out)
    rows = list(csv.reader(io.StringIO(target.read_text(encoding="utf-8"))))
    assert rows[0] == ["start", "shots", "d1", "d2", "absorbed"]
    body = [[int(cell) for cell in row] for row in rows[1:]]
    assert [row[0] for row in body] == list(range(0, 10000, 1024))
    assert sum(row[1] for row in body) == 10000
    assert sum(row[2] for row in body) == payload["counts"]["d1"]
    assert sum(row[3] for row in body) == payload["counts"]["d2"]
    assert sum(row[4] for row in body) == payload["counts"]["absorbed"]


def test_shots_batch_csv_prints_the_run_shots_payload(tmp_path, capsys):
    # with --batch-csv the totals are summed from the batches, not sampled again
    argv = ("shots", "mzi_bomb.ifm", "--n", "10000", "--seed", "3")
    code, plain, _ = invoke(capsys, *argv)
    assert code == 0
    code, with_csv, _ = invoke(capsys, *argv, "--batch-size", "1024",
                               "--batch-csv", str(tmp_path / "batches.csv"))
    assert code == 0 and with_csv == plain
    counts = run_shots(parse_layout(read_text("mzi_bomb.ifm")).layout, 10000, 3)
    assert json.loads(plain)["counts"] == {"d1": counts.d1, "d2": counts.d2,
                                           "absorbed": counts.absorbed}


def test_shots_validation_errors(capsys):
    code, _, err = invoke(capsys, "shots", "mzi.ifm", "--n", "0")
    assert code == 1 and "error:" in err
    code, _, _ = invoke(capsys, "shots", "mzi.ifm")
    assert code == 1  # --n is required


def test_soft_single_charge_report(capsys):
    code, out, _ = invoke(capsys, "soft", "--beta", "0.5",
                          "--e-minus", "0.001", "--e-plus", "1.0",
                          "--solid-angle", "1.0")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("soft.schema.json"))
    assert payload["weinberg_a_e2"] == pytest.approx(0.0049958, abs=1e-7)
    assert payload["mu_e2"] == pytest.approx(
        payload["weinberg_a_e2"] * math.log(1000.0), rel=1e-12)
    assert payload["e_squared"] == E_SQUARED_HEAVISIDE_LORENTZ
    assert payload["mu"] == pytest.approx(
        payload["mu_e2"] * E_SQUARED_HEAVISIDE_LORENTZ, rel=1e-15)
    assert payload["pollution"] == pytest.approx(
        -math.expm1(-payload["mu"]), rel=1e-12)
    assert payload["baseline"]["p_d1"] == pytest.approx(0.25, abs=1e-12)
    assert payload["baseline"]["p_d2"] == pytest.approx(0.25, abs=1e-12)
    assert payload["baseline"]["p_absorbed"] == pytest.approx(0.5, abs=1e-12)
    corrected = payload["corrected"]
    total = (corrected["p_d1"] + corrected["p_d2"] + corrected["p_absorbed"]
             - corrected["p_joint"])
    assert total == pytest.approx(1.0, abs=1e-12)
    reference = payload["high_velocity_reference"]
    assert reference["beta"] == 0.9999
    assert reference["factor_e2"] == pytest.approx(0.2002, abs=5e-4)
    assert reference["factor_e2_without_angular_denominator"] == pytest.approx(
        reference["factor_e2"] * (2.0 * math.pi) ** 2, rel=1e-15)
    assert reference["factor_e2_without_angular_denominator"] == pytest.approx(
        7.904, abs=5e-3)


def test_soft_e_squared_flag(capsys):
    code, out, _ = invoke(capsys, "soft", "--beta", "0.5",
                          "--e-minus", "0.001", "--e-plus", "1.0",
                          "--solid-angle", "1.0", "--e-squared", "1.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["e_squared"] == 1.0
    assert payload["mu"] == payload["mu_e2"]


def test_soft_legs_file_matches_beta_route(tmp_path, capsys):
    legs = {
        "legs": [
            {"charge": 1.0, "eta": -1, "velocity": 0.0},
            {"charge": 1.0, "eta": 1, "velocity": 0.5},
        ],
        "pairwise_beta": [[0.0, 0.5], [0.5, 0.0]],
    }
    target = tmp_path / "legs.json"
    target.write_text(json.dumps(legs), encoding="utf-8")
    common = ["--e-minus", "0.001", "--e-plus", "1.0", "--solid-angle", "1.0"]
    code, by_legs, _ = invoke(capsys, "soft", "--legs", str(target), *common)
    assert code == 0
    code, by_beta, _ = invoke(capsys, "soft", "--beta", "0.5", *common)
    assert code == 0
    a_legs = json.loads(by_legs)["weinberg_a_e2"]
    a_beta = json.loads(by_beta)["weinberg_a_e2"]
    assert a_legs == pytest.approx(a_beta, rel=1e-12, abs=0)


def test_soft_legs_file_shape_checked(tmp_path, capsys):
    target = tmp_path / "legs.json"
    target.write_text(json.dumps({"legs": []}), encoding="utf-8")
    code, _, err = invoke(capsys, "soft", "--legs", str(target),
                          "--e-minus", "0.001", "--e-plus", "1.0",
                          "--solid-angle", "1.0")
    assert code == 1
    assert "pairwise_beta" in err


_PAIRWISE = [[0.0, 0.5], [0.5, 0.0]]


@pytest.mark.parametrize("payload, message", [
    ({"legs": {"a": 1}, "pairwise_beta": [[0]]}, "'legs' must be a list of objects"),
    ({"legs": [1, 2], "pairwise_beta": _PAIRWISE}, "leg 0 must be an object"),
    ({"legs": [{"charge": 1.0, "eta": -1, "velocity": 0.0}, {"charge": 1.0, "eta": 1}],
      "pairwise_beta": _PAIRWISE}, "leg 1 has no 'velocity'"),
    ({"legs": [{"eta": -1, "velocity": 0.0}], "pairwise_beta": [[0.0]]}, "leg 0 has no 'charge'"),
    (7, "must hold keys 'legs' and 'pairwise_beta'"),
], ids=["legs-not-a-list", "leg-not-an-object", "leg-without-velocity",
        "leg-without-charge", "payload-not-an-object"])
def test_soft_malformed_legs_file_refused_at_the_boundary(tmp_path, capsys, payload, message):
    target = tmp_path / "legs.json"
    target.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = invoke(capsys, "soft", "--legs", str(target), "--e-minus", "0.001",
                            "--e-plus", "1.0", "--solid-angle", "1.0")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


def test_soft_divergent_inputs_fail(capsys):
    base = ["--e-minus", "0.001", "--e-plus", "1.0", "--solid-angle", "1.0"]
    code, _, err = invoke(capsys, "soft", "--beta", "1.0", *base)
    assert code == 1 and "error:" in err
    code, _, err = invoke(capsys, "soft", "--beta", "0.5", "--e-minus", "0",
                          "--e-plus", "1.0", "--solid-angle", "1.0")
    assert code == 1 and "error:" in err
    code, _, err = invoke(capsys, "soft", "--beta", "0.5", "--e-minus", "0.001",
                          "--e-plus", "1.0", "--solid-angle", "0")
    assert code == 1 and "error:" in err


def test_soft_non_finite_inputs_blame_their_parameter(tmp_path, capsys):
    base = ["--e-minus", "0.001", "--e-plus", "1.0", "--solid-angle", "1.0"]
    code, _, err = invoke(capsys, "soft", "--beta", "nan", *base)
    assert code == 1 and "error: beta must be nonnegative, got nan" in err
    target = tmp_path / "legs.json"
    target.write_text('{"legs": [{"charge": NaN, "eta": -1, "velocity": 0.0}, '
                      '{"charge": NaN, "eta": 1, "velocity": 0.5}], '
                      '"pairwise_beta": [[0.0, 0.5], [0.5, 0.0]]}', encoding="utf-8")
    code, _, err = invoke(capsys, "soft", "--legs", str(target), *base)
    assert code == 1 and "error: leg charge must be finite, got nan" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_soft_e_squared_checked_at_the_boundary(capsys, value):
    code, out, err = invoke(capsys, "soft", "--beta", "0.5", "--e-minus", "0.001",
                            "--e-plus", "1.0", "--solid-angle", "1.0", "--e-squared", value)
    assert code == 1 and out == ""
    assert err.startswith("error: --e-squared must be finite and nonnegative, got ")


def test_soft_process_group_is_exclusive_and_required(tmp_path, capsys):
    base = ["--e-minus", "0.001", "--e-plus", "1.0", "--solid-angle", "1.0"]
    code, _, _ = invoke(capsys, "soft", *base)
    assert code == 1
    target = tmp_path / "legs.json"
    target.write_text("{}", encoding="utf-8")
    code, _, _ = invoke(capsys, "soft", "--beta", "0.5", "--legs", str(target),
                        *base)
    assert code == 1


def test_fringe_csv(capsys):
    code, out, _ = invoke(capsys, "fringe", "mzi.ifm", "--min", "0",
                          "--max", "6.283185307179586", "--steps", "5")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["delta_l", "p_d1", "p_d2"]
    assert len(rows) == 6
    for row in rows[1:]:
        delta_l, p_d1, p_d2 = map(float, row)
        assert p_d1 == pytest.approx(math.cos(delta_l / 2.0) ** 2, abs=1e-12)
        assert p_d1 + p_d2 == pytest.approx(1.0, abs=1e-12)
    # repeated runs emit identical bytes
    _, again, _ = invoke(capsys, "fringe", "mzi.ifm", "--min", "0",
                         "--max", "6.283185307179586", "--steps", "5")
    assert again == out


def test_fringe_rejects_obstructed_layout(capsys):
    code, _, err = invoke(capsys, "fringe", "mzi_bomb.ifm", "--min", "0",
                          "--max", "1", "--steps", "3")
    assert code == 1 and "error:" in err


def test_verify_passes(capsys):
    code, out, _ = invoke(capsys, "verify")
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    assert "checks passed" in out


def test_verify_reports_hong_ou_mandel(capsys):
    code, out, _ = invoke(capsys, "verify")
    assert code == 0
    assert "[PASS] Hong-Ou-Mandel coincidence (balanced splitter): residual" in out


def test_verify_exit_two_on_tolerance_failure(monkeypatch, capsys):
    import ifmsim.cli as cli_module
    monkeypatch.setattr(cli_module, "run_verification", lambda stream: False)
    code, _, _ = invoke(capsys, "verify")
    assert code == 2


def test_verify_json_lines(monkeypatch, capsys):
    code, text, _ = invoke(capsys, "verify")
    assert code == 0
    code, out, _ = invoke(capsys, "verify", "--json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    # one line per check of the text report, in its order
    assert [row["name"] for row in rows] == [
        line[len("[PASS] "):].split(": residual ")[0] for line in text.splitlines()[:-1]]
    for row in rows:
        assert list(row) == ["name", "residual", "tolerance", "margin", "passed"]
        assert row["passed"] is True
        assert row["margin"] == row["tolerance"] - row["residual"]
    import ifmsim.cli as cli_module
    from ifmsim.verify import CheckResult
    monkeypatch.setattr(cli_module, "run_checks", lambda: [CheckResult("broken", 2e-9, 1e-9)])
    code, out, _ = invoke(capsys, "verify", "--json")
    assert code == 2
    assert json.loads(out) == {"name": "broken", "residual": 2e-9, "tolerance": 1e-9,
                               "margin": 1e-9 - 2e-9, "passed": False}


def test_help_exits_zero(capsys):
    assert invoke(capsys, "--help")[0] == 0
    assert invoke(capsys, "simulate", "--help")[0] == 0
    assert invoke(capsys, "soft", "--help")[0] == 0


def test_bad_arguments_exit_one(capsys):
    assert invoke(capsys, "no_such_command")[0] == 1
    assert invoke(capsys)[0] == 1
    assert invoke(capsys, "fringe", "mzi.ifm", "--min", "0", "--max", "1",
                  "--steps", "1")[0] == 1


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "ifmsim.cli", "simulate", "mzi_bomb.ifm"],
        capture_output=True, text=True, encoding="utf-8")
    assert result.returncode == 0
    assert json.loads(result.stdout)["p_absorbed"] == pytest.approx(0.5, abs=1e-12)


def test_module_entry_point_error_path():
    result = subprocess.run(
        [sys.executable, "-m", "ifmsim.cli", "shots", "mzi.ifm", "--n", "-5"],
        capture_output=True, text=True, encoding="utf-8")
    assert result.returncode == 1
    assert "error:" in result.stderr


def test_import_does_not_load_scipy():
    # the package depends on numpy alone; a stray scipy import would make
    # every CLI start pay for it again
    result = subprocess.run(
        [sys.executable, "-c",
         "import ifmsim, ifmsim.cli, sys; assert 'scipy' not in sys.modules"],
        capture_output=True, text=True, encoding="utf-8")
    assert result.returncode == 0, result.stderr
