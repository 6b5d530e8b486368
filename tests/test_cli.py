import json
import math

import numpy as np
import pytest

from snspd_stats.cli import main

FAST = ["--gauss-order", "8", "--qmc-samples", "1024", "--rel-tol", "1e-4",
        "--abs-tol", "1e-7"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_dist_ideal_is_poisson(capsys, tmp_path):
    code, out = run(capsys, ["dist", "--state", "coherent:2", "--profile", "ideal"])
    assert code == 0
    payload = json.loads(out)
    probs = [float(x) for x in payload["result"]["probs"]]
    for m, p in enumerate(probs):
        assert p == pytest.approx(math.exp(-4) * 4.0**m / math.factorial(m), abs=1e-12)
    assert payload["result"]["digest"]


def test_dist_csv_format(capsys):
    code, out = run(capsys, ["dist", "--state", "fock:1", "--profile", "ideal",
                             "--format", "csv"])
    assert code == 0
    assert out.startswith("# scenario=")
    assert "n,prob" in out


def test_dist_coherent_past_the_photon_cap(capsys):
    # coherent(6) keeps a tail of 8.8e-6 at 64 photons; its rows reach the click cap
    code, out = run(capsys, ["dist", "--state", "coherent:6", "--profile", "exp"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["meta"]["route"] == "coherent"
    assert sum(float(x) for x in result["probs"]) == pytest.approx(1.0, abs=1e-8)


def test_matrix_closed_form(capsys):
    code, out = run(capsys, ["matrix", "--profile", "deadtime", "--tau-d", "0.05",
                             "--m-max", "2", "--closed-form", "--format", "csv"])
    assert code == 0
    row1 = [line for line in out.splitlines() if line.startswith("1,")][0]
    assert float(row1.split(",")[3]) == pytest.approx(0.0975)


def test_matrix_quadrature(capsys):
    code, out = run(capsys, ["matrix", "--profile", "exp", "--m-max", "2",
                             *FAST])
    assert code == 0
    entries = json.loads(out)["result"]["entries"]
    assert float(entries[1][1]) == pytest.approx(1.0, abs=1e-9)


def test_cw_command(capsys):
    code, out = run(capsys, ["cw", "--state", "coherent:1", "--profile", "exp",
                             "--delta", "0.3", "--windows", "3", *FAST])
    assert code == 0
    payload = json.loads(out)
    total = sum(float(x) for x in payload["result"]["probs"])
    assert total == pytest.approx(1.0, abs=1e-3)
    assert 0.0 <= payload["result"]["meta"]["q"] <= 1.0


def test_simulate_deterministic_and_gaps(tmp_path, capsys):
    gaps_file = str(tmp_path / "gaps.f64")
    argv = ["simulate", "--state", "coherent:2", "--profile", "exp",
            "--trials", "5000", "--seed", "3", "--gaps-out", gaps_file]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv[:-2])  # without the gaps file
    assert code1 == code2 == 0
    assert json.loads(out1)["result"]["probs"] == json.loads(out2)["result"]["probs"]
    gaps = np.fromfile(gaps_file, dtype="<f8")
    assert len(gaps) > 0 and np.all(gaps > 0)


@pytest.mark.parametrize("unit, scale", [("taum", 2.0), ("seconds", 1.0)])
def test_simulate_fixed_carry(capsys, unit, scale):
    # in units of tau_m the carry is scaled like the recovery times; in seconds neither is
    from snspd_stats import (DetectorConfig, EfficiencyProfile, SimSpec, StateSpec,
                             empirical_distribution)
    code, out = run(capsys, ["simulate", "--state", "coherent:2", "--profile", "exp",
                             "--tau-m", "2", "--time-unit", unit, "--carry", "fixed:0.1",
                             "--trials", "20000", "--seed", "5"])
    assert code == 0
    config = DetectorConfig(tau_m=2.0, efficiency=EfficiencyProfile.exponential(
        0.05 * scale, 0.2 * scale))
    res = empirical_distribution(StateSpec.coherent(2.0), config, SimSpec(
        trials=20000, seed=5, carry_in="fixed_tau", fixed_tau=0.1 * scale))
    result = json.loads(out)["result"]
    assert result["scenario"] == "montecarlo:fixed_tau"
    assert result["config"] == json.loads(json.dumps(config.to_json_dict()))
    assert [float(p) for p in result["probs"]] == res.probs.tolist()


def test_reconstruct_from_file(tmp_path, capsys):
    from snspd_stats import DetectorConfig, EfficiencyProfile, simulate_interpulse_gaps
    cfg = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.1))
    path = tmp_path / "gaps.f64"
    simulate_interpulse_gaps(cfg, 0.3, 200_000, seed=4).astype("<f8").tofile(path)
    code, out = run(capsys, ["reconstruct", "--gaps", str(path),
                             "--bin-width", "0.02", "--t-max", "1.0"])
    assert code == 0
    assert out.splitlines()[0].startswith("# lambda_hat=")
    rows = [line for line in out.splitlines() if "," in line and not line.startswith(("#", "t,"))]
    first = rows[0].split(",")
    assert float(first[1]) == 0.0  # inside the dead time


def test_figure_three_structure(tmp_path, capsys):
    gp = str(tmp_path / "fig3.gp")
    code, out = run(capsys, ["figure", "3", *FAST, "--gnuplot", gp])
    assert code == 0
    payload = json.loads(out)["result"]
    models = payload["datasets"]["coherent_alpha0=2"]["models"]
    assert set(models) == {"pnr", "shifted_deadtime", "relaxation", "continuous_wave"}
    pnr = np.array([float(x) for x in models["pnr"]])
    assert pnr.sum() == pytest.approx(1.0, abs=1e-7)
    cwp = np.array([float(x) for x in models["continuous_wave"]])
    assert cwp.sum() == pytest.approx(1.0, abs=2e-3)
    assert open(gp).read().startswith("set style data histograms")


def test_figure_three_csv(capsys):
    code, out = run(capsys, ["figure", "3", *FAST, "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "figure,dataset,model,n,prob"
    rows = [line.split(",") for line in lines[1:]]
    assert {row[0] for row in rows} == {"3"}
    assert {row[2] for row in rows} == {"pnr", "shifted_deadtime", "relaxation",
                                        "continuous_wave"}
    pnr = [row for row in rows if row[1] == "coherent_alpha0=2" and row[2] == "pnr"]
    assert [int(row[3]) for row in pnr] == list(range(len(pnr)))
    assert sum(float(row[4]) for row in pnr) == pytest.approx(1.0, abs=1e-7)


def test_figure_rejects_unknown_number(capsys):
    code, _ = run(capsys, ["figure", "7"])
    assert code == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"state": "fock:1", "profile": "ideal", "eta": 0.5}))
    code, out = run(capsys, ["dist", "--config", str(cfg), "--eta", "1.0"])
    assert code == 0
    probs = [float(x) for x in json.loads(out)["result"]["probs"]]
    assert probs[1] == pytest.approx(1.0)  # flag eta overrides the file


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"stat": "fock:1"}))
    code, _ = run(capsys, ["dist", "--config", str(cfg)])
    assert code == 2


@pytest.mark.parametrize("key, value", [("time_unit", "hours"), ("format", "xml"),
                                        ("method", "trapezoid"), ("tail_correction", "some")])
def test_config_value_outside_the_flag_choices_is_usage_error(tmp_path, capsys, key, value):
    # a time unit other than "taum" was read as seconds, a format other than csv as json
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value, "state": "fock:1"}))
    assert main(["dist", "--config", str(cfg)]) == 2
    assert f"config key {key!r} needs one of" in capsys.readouterr().err


def test_usage_errors(tmp_path):
    assert main(["frobnicate"]) == 2
    assert main(["dist", "--state", "thermal:2"]) == 2
    assert main(["dist", "--profile", "exp", "--state", "squeezed:nan"]) == 2
    # closed form demands a zero relaxation time
    assert main(["matrix", "--profile", "exp", "--m-max", "2", "--closed-form"]) == 2
    assert main(["cw", "--profile", "exp", "--state", "fock:1", "--delta", "nan"]) == 2
    # negative sizes, and more click rows than photons, on both matrix routes
    assert main(["matrix", "--profile", "exp", "--m-max", "-1"]) == 2
    assert main(["matrix", "--profile", "deadtime", "--m-max", "-1", "--closed-form"]) == 2
    assert main(["matrix", "--profile", "deadtime", "--n-max", "7", "--m-max", "4",
                 "--closed-form"]) == 2
    # values from a JSON config are type-checked like flags
    for text in ('{"qmc_samples": NaN, "method": "qmc_sobol"}', '{"qmc_samples": 1e999}',
                 '{"gauss_order": 2.5, "method": "nested_gauss"}', '{"tau_m": "1"}',
                 '{"rel_tol": "1e-6"}'):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert main(["matrix", "--profile", "exp", "--config", str(cfg)]) == 2
    gaps = tmp_path / "gaps.f64"
    np.array([0.1, 0.2, 0.35]).astype("<f8").tofile(gaps)
    for flags in (["--bin-width", "nan"], ["--t-max", "inf"], ["--rate-hint", "nan"],
                  ["--min-preceding-gap", "nan"]):
        assert main(["reconstruct", "--gaps", str(gaps), *flags]) == 2
    # malformed numbers inside a flag's text
    assert main(["simulate", "--carry", "fixed:abc", "--trials", "10"]) == 2
    for state in ("coherent:abc", "coherent:", "fock:abc", "fock:2.5", "squeezed:400"):
        assert main(["dist", "--state", state]) == 2
    # a cutoff that cannot hold the state's mass is refused, not printed as NaN
    assert main(["dist", "--state", "squeezed:300", "--profile", "deadtime"]) == 2
    # malformed and missing files
    for text in ("{bad", '["tau_m"]'):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert main(["dist", "--config", str(cfg)]) == 2
    missing = str(tmp_path / "missing")
    assert main(["dist", "--config", missing + ".json"]) == 2
    assert main(["dist", "--profile", f"tabulated:{missing}.csv"]) == 2
    assert main(["reconstruct", "--gaps", missing + ".f64"]) == 2
    assert main(["dist", "--state", "fock:1", "--out", str(tmp_path / "no-dir" / "x.json")]) == 2


def test_numerical_failure_exits_1(monkeypatch, capsys):
    from snspd_stats import cli
    from snspd_stats.errors import IntegrationError

    def fail(args):
        raise IntegrationError("no trustworthy value")

    monkeypatch.setattr(cli, "_cmd_dist", fail)
    assert main(["dist"]) == 1
    assert "numerical failure: no trustworthy value" in capsys.readouterr().err


def test_time_units(capsys):
    code1, out1 = run(capsys, ["dist", "--state", "coherent:1", "--profile",
                               "deadtime", "--tau-d", "0.05", *FAST])
    code2, out2 = run(capsys, ["dist", "--state", "coherent:1", "--profile",
                               "deadtime", "--tau-d", "0.05", "--time-unit",
                               "seconds", *FAST])
    assert code1 == code2 == 0
    # with tau_m = 1 the two unit conventions coincide
    assert json.loads(out1)["result"]["probs"] == json.loads(out2)["result"]["probs"]


def test_validate_quick(tmp_path):
    out = str(tmp_path / "report.txt")
    code = main(["validate", "--suite", "quick", "--seed", "5", "--out", out])
    text = open(out).read()
    assert code == 0
    assert "RESULT: PASS" in text


def test_reconstructed_profile_feeds_back(tmp_path, capsys):
    # the reconstruct output must load as a tabulated profile unchanged
    from snspd_stats import DetectorConfig, EfficiencyProfile, simulate_interpulse_gaps
    cfg = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.1))
    gaps_path = tmp_path / "gaps.f64"
    simulate_interpulse_gaps(cfg, 0.3, 100_000, seed=6).astype("<f8").tofile(gaps_path)
    xi_path = str(tmp_path / "xi.csv")
    code, _ = run(capsys, ["reconstruct", "--gaps", str(gaps_path),
                           "--bin-width", "0.02", "--t-max", "1.0",
                           "--out", xi_path])
    assert code == 0
    code, out = run(capsys, ["dist", "--state", "fock:1", "--profile",
                             f"tabulated:{xi_path}", *FAST])
    assert code == 0
    payload = json.loads(out)["result"]
    probs = [float(x) for x in payload["probs"]]
    assert probs[1] == pytest.approx(1.0, abs=1e-9)
    # the loaded curve is echoed back into the config dump
    assert payload["config"]["efficiency"]["kind"] == "tabulated"
    assert len(payload["config"]["efficiency"]["table"]) >= 10


def test_cw_geometric_limit_depth(capsys):
    code, out = run(capsys, ["cw", "--state", "fock:2", "--profile", "exp",
                             "--delta", "0.3", "--windows", "50",
                             "--memory-depth", "geometric_limit", *FAST])
    assert code == 0
    payload = json.loads(out)["result"]
    assert payload["meta"]["memory_depth"] == "geometric_limit"
    assert main(["cw", "--state", "fock:2", "--profile", "exp",
                 "--memory-depth", "several"]) == 2


@pytest.mark.parametrize("command, state, hint", [
    ("cw", "squeezed:1.5", "increase m_max to 256"),
    ("dist", "squeezed:1.5", "increase m_max to 256"),
    ("dist", "squeezed:300", "no m_max up to 1024 brings it within the bound")])
def test_tail_refusal_names_a_cutoff(capsys, command, state, hint):
    assert main([command, "--state", state, "--profile", "exp", "--eta", "0.8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: state tail mass") and err.rstrip().endswith(hint)


def test_rate_hint_is_read_per_window(tmp_path, capsys):
    # gaps at 0.125 per second with tau_m = 2: a hint of 0.25 per window
    from snspd_stats import DetectorConfig, EfficiencyProfile, simulate_interpulse_gaps
    cfg = DetectorConfig(tau_m=2.0, efficiency=EfficiencyProfile.exponential(0.1, 0.2))
    gaps_path = tmp_path / "gaps.f64"
    simulate_interpulse_gaps(cfg, 0.125, 200_000, seed=4).astype("<f8").tofile(gaps_path)
    argv = ["reconstruct", "--gaps", str(gaps_path), "--tau-m", "2", "--bin-width", "0.02",
            "--t-max", "1.6"]
    curves = []
    for hint in ([], ["--rate-hint", "0.25"], ["--rate-hint", "0.125", "--time-unit", "seconds",
                                               "--bin-width", "0.04", "--t-max", "3.2"]):
        code, out = run(capsys, argv + hint)
        assert code == 0
        lines = out.splitlines()
        curves.append((lines[0], np.array([float(line.split(",")[1]) for line in lines[2:]])))
    (_, auto), (hint_head, hinted), (seconds_head, seconds) = curves
    assert hint_head == seconds_head == "# lambda_hat=0.125 n_samples=200000"
    assert np.array_equal(hinted, seconds)
    assert np.abs(hinted - auto).max() < 0.05
