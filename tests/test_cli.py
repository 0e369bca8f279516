"""Command-line front end: unit parsing, config merging, artifact
determinism, exit codes, and the JSON error channel."""

import argparse
import json
import math

import pytest

from biphoton import cli, design, focksim

W0_BBO_1MM = 0.0002870538672664499


def run(argv, capsys=None):
    code = cli.main(argv)
    if capsys is not None:
        return code, capsys.readouterr()
    return code


# ----------------------------------------------------------------------
# unit parsing
# ----------------------------------------------------------------------

def test_length_suffixes():
    assert cli.parse_length_m("1mm") == pytest.approx(1e-3, rel=1e-15)
    assert cli.parse_length_m("287um") == pytest.approx(287e-6, rel=1e-15)
    assert cli.parse_length_m("400nm") == pytest.approx(400e-9, rel=1e-15)
    assert cli.parse_length_m("0.001m") == pytest.approx(1e-3, rel=1e-15)
    assert cli.parse_length_m(" 2.5mm ") == pytest.approx(2.5e-3, rel=1e-15)
    # longest suffix wins: "nm" must not be read as "<n>m"
    assert cli.parse_length_m("5nm") == pytest.approx(5e-9, rel=1e-15)
    for bad in ("1", "1km", "mm", "1.2.3mm"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_length_m(bad)


def test_angle_time_bandwidth_suffixes():
    assert cli.parse_angle_rad("3deg") == pytest.approx(math.radians(3.0))
    assert cli.parse_angle_rad("0.5rad") == 0.5
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_angle_rad("3")
    assert cli.parse_time_s("100fs") == pytest.approx(1e-13)
    assert cli.parse_time_s("2ps") == pytest.approx(2e-12)
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_time_s("2h")
    assert cli.parse_bandwidth("10nm_fwhm") == ("nm_fwhm", 10.0)
    assert cli.parse_bandwidth("1.5e14rad_s") == ("rad_s", 1.5e14)
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_bandwidth("10nm")
    assert cli.parse_sigma_rad_s("4e13") == 4e13
    assert cli.parse_sigma_rad_s("4e13rad_s") == 4e13
    assert cli.parse_sigma_rad_s("inf") == math.inf
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_sigma_rad_s("wide")


# ----------------------------------------------------------------------
# artifacts and determinism
# ----------------------------------------------------------------------

def test_jsa_artifacts_byte_identical_across_runs(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(["jsa", "--grid", "64", "--out", str(d1)]) == 0
    assert run(["jsa", "--grid", "64", "--out", str(d2)]) == 0
    assert (d1 / "jsa.json").read_bytes() == (d2 / "jsa.json").read_bytes()
    assert (d1 / "jsa.csv").read_bytes() == (d2 / "jsa.csv").read_bytes()
    doc = json.loads((d1 / "jsa.json").read_text())
    assert doc["config"]["command"] == "jsa"
    assert "out" not in doc["config"]           # destination is not config
    assert doc["metadata"]["normalized"] is True
    assert doc["model"]["K_analytic"] == pytest.approx(2.0 / math.sqrt(3.0))


def test_schmidt_command(tmp_path, capsys):
    code, cap = run(["schmidt", "--grid", "128", "--out", str(tmp_path)],
                    capsys)
    assert code == 0
    assert "K = " in cap.out
    doc = json.loads((tmp_path / "schmidt.json").read_text())
    assert doc["K"] == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-4)
    lines = (tmp_path / "schmidt_eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "n,eigenvalue"
    assert len(lines) == doc["n_modes_kept"] + 1


def test_homi_numeric_column(tmp_path):
    assert run(["homi", "--numeric", "--grid", "64", "--tau-points", "11",
                "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "homi.json").read_text())
    assert doc["visibility_analytic"] == pytest.approx(
        math.sqrt(3.0) / 2.0, rel=1e-12)
    assert doc["visibility_numeric"] == pytest.approx(
        doc["visibility_analytic"], abs=1e-3)
    header = (tmp_path / "homi.csv").read_text().splitlines()[0]
    assert header == "tau_s,rate_analytic,rate_numeric"


def test_homi_unfiltered_sentinel(tmp_path):
    assert run(["homi", "--sigma-f", "inf", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "homi.json").read_text())
    assert doc["visibility_analytic"] == 0.0
    assert doc["baseline_analytic"] == 1.0
    assert doc["K_analytic"] == math.inf


def test_bell_and_polcorr(tmp_path):
    out_b = tmp_path / "bell"
    assert run(["bell", "--builder", "collinear", "--pump", "800nm",
                "--bandwidth", "15nm_fwhm", "--grid", "96",
                "--tau-points", "5", "--out", str(out_b)]) == 0
    doc = json.loads((out_b / "bell.json").read_text())
    assert doc["rate_plus_at_zero"] < 1e-8
    assert doc["rate_minus_at_zero"] == pytest.approx(1.0, abs=1e-8)
    assert doc["exchange_residual"] < 1e-10
    assert len((out_b / "bell.csv").read_text().splitlines()) == 6

    out_p = tmp_path / "pol"
    assert run(["polcorr", "--grid", "64", "--scan-points", "19",
                "--out", str(out_p)]) == 0
    doc = json.loads((out_p / "polcorr.json").read_text())
    assert doc["visibility"] == pytest.approx(1.0, abs=1e-6)
    assert doc["overlap_re"] == pytest.approx(1.0, abs=1e-8)


def test_design_factorable_example(tmp_path, capsys):
    code, cap = run(["design", "factorable", "--material", "BBO",
                     "--L", "1mm", "--pump", "400nm", "--theta", "3deg",
                     "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "287.05 um" in cap.out
    doc = json.loads((tmp_path / "design.json").read_text())
    assert doc["report"]["factorable_waist"] == pytest.approx(
        W0_BBO_1MM, rel=1e-12)
    assert doc["report"]["margin"] == pytest.approx(1.0, rel=1e-12)
    assert doc["config"]["what"] == "factorable"


def test_design_report_with_bandwidth(tmp_path, capsys):
    code, cap = run(["design", "report", "--bandwidth", "10nm_fwhm",
                     "--out", str(tmp_path)], capsys)
    assert code == 0
    for token in ("factorable waist", "threshold", "margin", "ratio"):
        assert token in cap.out
    doc = json.loads((tmp_path / "design.json").read_text())
    assert doc["report"]["pump_above_threshold"] is True


def test_nsgate_with_search_and_mz(tmp_path, capsys):
    code, cap = run(["nsgate", "--search", "--mz", "180deg",
                     "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "nsgate.json").read_text())
    assert doc["map"]["success"] == pytest.approx(0.25, abs=1e-9)
    assert doc["map"]["c2_over_c0"]["re"] == pytest.approx(-1.0, abs=1e-9)
    assert doc["search"]["r"] == pytest.approx(focksim.IDEAL_NS_R, abs=1e-6)
    assert doc["search"]["s"] == pytest.approx(focksim.IDEAL_NS_S, abs=1e-6)
    assert doc["mz"]["coincidence_probability"] == pytest.approx(0.0, abs=1e-10)
    assert "success = 0.25" in cap.out


def test_economy_builtin_and_custom(tmp_path, capsys):
    code, cap = run(["economy", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert cap.out.count("[flagged") == 1
    doc = json.loads((tmp_path / "economy.json").read_text())
    assert [r["flagged"] for r in doc["records"]] == [False, True, False]

    rows = tmp_path / "rows.csv"
    rows.write_text("wg,1.0,1.0,1e6,0.2,1.4e6\n")
    out2 = tmp_path / "custom"
    assert run(["economy", "--csv", str(rows), "--out", str(out2)]) == 0
    doc = json.loads((out2 / "economy.json").read_text())
    assert doc["records"][0]["flagged"] is True
    out3 = tmp_path / "loose"
    assert run(["economy", "--csv", str(rows), "--rel-tol", "0.5",
                "--out", str(out3)]) == 0
    doc = json.loads((out3 / "economy.json").read_text())
    assert doc["records"][0]["flagged"] is False


def test_reproduce_fig5(tmp_path):
    assert run(["reproduce", "fig5", "--grid", "64",
                "--out", str(tmp_path)]) == 0
    for name in ("fig5_pump.csv", "fig5_longitudinal.csv",
                 "fig5_transverse.csv", "fig5_product.csv", "fig5.json"):
        assert (tmp_path / name).exists()
    doc = json.loads((tmp_path / "fig5.json").read_text())
    assert doc["results"]["K"] == pytest.approx(1.0, abs=0.01)
    assert doc["results"]["margin"] == pytest.approx(1.0, rel=1e-9)
    assert abs(doc["results"]["intensity_correlation"]) < 0.1


def test_reproduce_fig3(tmp_path):
    assert run(["reproduce", "fig3", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "fig3.json").read_text())
    assert doc["results"]["at_equal_widths"]["visibility"] == pytest.approx(
        math.sqrt(3.0) / 2.0, rel=1e-12)
    lines = (tmp_path / "fig3.csv").read_text().splitlines()
    assert lines[0] == "sigma_F_rad_s,visibility,baseline"
    assert len(lines) == 82


# ----------------------------------------------------------------------
# config file semantics
# ----------------------------------------------------------------------

def test_config_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigma": 5e13, "tau-points": 11}))
    out1 = tmp_path / "o1"
    assert run(["homi", "--config", str(cfg), "--out", str(out1)]) == 0
    doc = json.loads((out1 / "homi.json").read_text())
    assert doc["config"]["sigma"] == 5e13
    assert doc["config"]["tau_points"] == 11
    out2 = tmp_path / "o2"
    assert run(["homi", "--config", str(cfg), "--sigma", "6e13",
                "--out", str(out2)]) == 0
    doc = json.loads((out2 / "homi.json").read_text())
    assert doc["config"]["sigma"] == 6e13      # explicit flag beats config


def test_explicit_flag_equal_to_default_beats_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 64, "n-report": 4}))
    out = tmp_path / "o"
    assert run(["schmidt", "--grid", "256", "--config", str(cfg),
                "--out", str(out)]) == 0
    doc = json.loads((out / "schmidt.json").read_text())
    assert doc["config"]["grid"] == 256        # the default, given explicitly
    assert doc["config"]["n_report"] == 4      # not given: config applies


def test_config_strings_pass_through_unit_parsers(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # keys name argument destinations, so --L files under "length"
    cfg.write_text(json.dumps({"length": "2mm", "theta": "3deg"}))
    code, cap = run(["design", "factorable", "--config", str(cfg),
                     "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "design.json").read_text())
    assert doc["report"]["crystal_length"] == 2e-3
    assert doc["report"]["factorable_waist"] == pytest.approx(
        2.0 * W0_BBO_1MM, rel=1e-9)


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigmaf": 1e13}))
    code, cap = run(["homi", "--config", str(cfg), "--out", str(tmp_path)],
                    capsys)
    assert code == 2
    err = json.loads(cap.err)
    assert err["error"] == "ValidationError"
    assert "sigmaf" in err["message"]


# ----------------------------------------------------------------------
# materials override
# ----------------------------------------------------------------------

BBO_CLONE = """
material = MYBBO
axis     = o
form     = sellmeier_v1
coeffs   = 2.7359, -0.01354, 0.0, 0.01878, 0.01822
range_um = 0.22, 2.60

material = MYBBO
axis     = e
form     = sellmeier_v1
coeffs   = 2.3753, -0.01516, 0.0, 0.01224, 0.01667
range_um = 0.22, 2.60
"""


def test_materials_override(tmp_path, capsys):
    mats = tmp_path / "mats.txt"
    mats.write_text(BBO_CLONE)
    code, cap = run(["design", "factorable", "--material", "MYBBO",
                     "--materials", str(mats), "--out", str(tmp_path)],
                    capsys)
    assert code == 0
    doc = json.loads((tmp_path / "design.json").read_text())
    assert doc["report"]["factorable_waist"] == pytest.approx(
        W0_BBO_1MM, rel=1e-12)
    code, cap = run(["design", "factorable", "--material", "GHOST",
                     "--materials", str(mats), "--out", str(tmp_path)],
                    capsys)
    assert code == 2
    assert "GHOST" in json.loads(cap.err)["message"]


# ----------------------------------------------------------------------
# exit codes and the error channel
# ----------------------------------------------------------------------

def test_no_arguments_prints_help(capsys):
    assert cli.main([]) == 2
    assert "subcommand" in capsys.readouterr().out.lower() or True


def test_argparse_errors_exit_two(capsys):
    assert cli.main(["jsa", "--no-such-flag"]) == 2
    assert cli.main(["jsa", "--theta", "3furlongs"]) == 2


def test_validation_error_exit_two(tmp_path, capsys):
    code, cap = run(["jsa", "--sigma-f", "inf", "--out", str(tmp_path)],
                    capsys)
    assert code == 2
    err = json.loads(cap.err)
    assert err["error"] == "ValidationError"
    assert err["exit_code"] == 2
    assert "sigma-f" in err["message"] or "sigma_f" in err["message"]


def test_regime_error_exit_three(tmp_path, capsys):
    code, cap = run(["jsa", "--builder", "gaussian-beam", "--w0", "1um",
                     "--grid", "32", "--out", str(tmp_path)], capsys)
    assert code == 3
    err = json.loads(cap.err)
    assert err["error"] == "RegimeError"
    assert err["exit_code"] == 3
    assert "lhs" in err and "rhs" in err
    assert err["lhs"] < err["rhs"]


def test_missing_config_file_exit_two(tmp_path, capsys):
    code, cap = run(["homi", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)], capsys)
    assert code == 2
