"""Command-line front end: unit parsing, config merging, artifact
determinism, exit codes, and the JSON error channel."""

import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import biphoton
from biphoton import cli, design, dispersion, focksim, interference, spectra
from tests import oracles

W0_BBO_1MM = 0.0002870538672664499


def run(argv, capsys=None):
    code = cli.main(argv)
    if capsys is not None:
        return code, capsys.readouterr()
    return code


def record_calls(monkeypatch, module, name):
    """Wrap module.name so that each call appends its positional arguments
    to the returned list; the wrapped function still runs."""
    calls = []
    real = getattr(module, name)

    def recorded(*a, **kw):
        calls.append(a)
        return real(*a, **kw)

    monkeypatch.setattr(module, name, recorded)
    return calls


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


def test_angle_error_names_both_suffixes():
    with pytest.raises(argparse.ArgumentTypeError, match=r"\(deg\|rad\)"):
        cli.parse_angle_rad("3")


def _decimal(k):
    """repr(x) times 10**k, exactly, then correctly rounded to a float."""
    return lambda x: float(Fraction(repr(x)) * Fraction(10) ** k)


# unit parser -> (suffix, expected value of repr(x) + suffix) cases
UNIT_CASES = {
    "length": (cli.parse_length_m,
               [(suf, _decimal(k)) for suf, k in cli._LENGTH_SUFFIXES]),
    "time": (cli.parse_time_s,
             [(suf, _decimal(k)) for suf, k in cli._TIME_SUFFIXES]),
    "angle": (cli.parse_angle_rad,
              [("deg", math.radians), ("rad", lambda x: x)]),
    "bandwidth": (cli.parse_bandwidth,
                  [("nm_fwhm", lambda x: ("nm_fwhm", x)),
                   ("rad_s", lambda x: ("rad_s", x))]),
}
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# a bandwidth must also be positive (test_bandwidth_must_be_finite_and_positive)
NUMBERS = {kind: FINITE for kind in UNIT_CASES}
NUMBERS["bandwidth"] = st.floats(min_value=0.0, exclude_min=True,
                                 allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(UNIT_CASES)), data=st.data())
def test_unit_parsers_read_repr_with_every_suffix(kind, data):
    x = data.draw(NUMBERS[kind])
    parse, cases = UNIT_CASES[kind]
    suffix, expected = data.draw(st.sampled_from(cases))
    assert parse(repr(x) + suffix) == expected(x)


# (subcommand argv, option, config key) for one option of each unit kind
UNIT_OPTIONS = {
    "length": (["design", "report"], "--L", "length"),
    "time": (["bell"], "--tau-max", "tau-max"),
    "angle": (["design", "report"], "--theta", "theta"),
    "bandwidth": (["design", "report"], "--bandwidth", "bandwidth"),
}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(UNIT_OPTIONS)), data=st.data())
def test_config_string_resolves_like_the_flag(tmp_path, kind, data):
    x = data.draw(NUMBERS[kind])
    cmd, flag, key = UNIT_OPTIONS[kind]
    text = repr(x) + data.draw(st.sampled_from(UNIT_CASES[kind][1]))[0]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: text}))
    resolved = []
    for argv in (cmd + [f"{flag}={text}"], cmd + [flag, text],
                 cmd + ["--config", str(cfg)]):
        parser, registries = cli.build_parser()
        args = parser.parse_args(argv)
        cli._merge_config(args, registries[args.command])
        resolved.append(cli._resolved_config(args, registries[args.command]))
    assert resolved[0] == resolved[1]


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


@pytest.mark.parametrize("argv", [
    ["schmidt", "--grid", "32"],
    ["bell", "--builder", "collinear", "--grid", "32", "--tau-points", "5"],
    ["polcorr", "--builder", "noncollinear-sinc", "--grid", "32"],
    ["homi", "--numeric", "--grid", "32"],
    ["design", "report"],
    ["economy"],
    ["nsgate", "--mz", "180deg"],
    ["reproduce", "fig1", "--grid", "32"],
    ["reproduce", "fig3"],
    ["reproduce", "fig5", "--grid", "32"],
    ["reproduce", "fig7", "--grid", "32"],
    ["reproduce", "fig9"],
], ids=lambda argv: "-".join(a for a in argv[:2] if not a.startswith("-")))
def test_artifacts_byte_identical_across_runs(tmp_path, argv):
    # the determinism contract: a rerun into another directory writes the
    # same files, byte for byte
    d1, d2 = tmp_path / "a", tmp_path / "b" / "c"
    assert run(argv + ["--out", str(d1)]) == 0
    assert run(argv + ["--out", str(d2)]) == 0
    names = sorted(p.name for p in d1.iterdir())
    assert names and names == sorted(p.name for p in d2.iterdir())
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


# the cli_session benchmark's job kinds at --grid 32, plus one design query
# and the other two figures, each with the summary lines it prints after
# its JSON
SUMMARY_KINDS = {
    "design-report": (["design", "report"],
                      ["factorable waist w0 = ", "pump bandwidth threshold = ",
                       "margin = ", "waist-regime ratio = "]),
    "design-factorable": (["design", "factorable"],
                          ["factorable waist w0 = "]),
    "jsa-model": (["jsa", "--builder", "model", "--grid", "32"], []),
    "jsa-collinear": (["jsa", "--builder", "collinear", "--grid", "32"], []),
    "jsa-noncollinear-sinc": (["jsa", "--builder", "noncollinear-sinc",
                               "--grid", "32"], []),
    "jsa-gaussian-beam": (["jsa", "--builder", "gaussian-beam",
                           "--grid", "32"], []),
    "schmidt": (["schmidt", "--builder", "collinear", "--grid", "32"],
                ["K = "]),
    "bell": (["bell", "--builder", "collinear", "--grid", "32"],
             ["Rc+(0) = "]),
    "polcorr": (["polcorr", "--builder", "collinear", "--pairing",
                 "transpose", "--grid", "32"], ["fringe visibility = "]),
    "homi-numeric": (["homi", "--numeric", "--grid", "32"], ["V = "]),
    "nsgate": (["nsgate", "--search", "--mz", "180deg"], ["(c0, c1, c2) = "]),
    "economy": (["economy"], [f"{r.label}: R = "
                              for r in design.builtin_economy_records()]),
    "fig1": (["reproduce", "fig1", "--grid", "32"], []),
    "fig3": (["reproduce", "fig3", "--grid", "32"], []),
    "fig5": (["reproduce", "fig5", "--grid", "32"], []),
    "fig7": (["reproduce", "fig7", "--grid", "32"], []),
    "fig9": (["reproduce", "fig9", "--grid", "32"], []),
    "config": (["schmidt", "--config", "config.json"], ["K = "]),
}


def _summary_argv(kind, tmp_path):
    """SUMMARY_KINDS[kind]'s command with its config file written into
    tmp_path and --out tmp_path / "out"."""
    argv = SUMMARY_KINDS[kind][0]
    if kind == "config":
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"builder": "gaussian-beam", "grid": 32,
                                   "theta": "2.5deg", "length": "1.5mm"}))
        argv = argv[:-1] + [str(cfg)]
    return argv + ["--out", str(tmp_path / "out")]


@pytest.mark.parametrize("kind", sorted(SUMMARY_KINDS))
def test_summary_json_written_last_then_lines(tmp_path, capsys, kind):
    expected = SUMMARY_KINDS[kind][1]
    out = tmp_path / "out"
    argv = _summary_argv(kind, tmp_path)
    code, cap = run(argv, capsys)
    assert code == 0
    lines = cap.out.splitlines()
    wrote = [i for i, line in enumerate(lines) if line.startswith("wrote ")]
    name = argv[1] if argv[0] == "reproduce" else argv[0]
    assert lines[wrote[-1]] == f"wrote {out / name}.json"
    summary = lines[wrote[-1] + 1:]
    assert len(summary) == len(expected)
    for line, start in zip(summary, expected):
        assert line.startswith(start)
    parser, registries = cli.build_parser()
    args = parser.parse_args(argv)
    cli._merge_config(args, registries[args.command])
    doc = json.loads((out / f"{name}.json").read_text())
    assert doc["config"] == cli._resolved_config(args,
                                                 registries[args.command])


@pytest.mark.parametrize("kind", sorted(SUMMARY_KINDS))
def test_wrote_lines_name_every_file_once(tmp_path, capsys, kind):
    # reproduce fig1 wrote its two JSA CSVs without a line
    code, cap = run(_summary_argv(kind, tmp_path), capsys)
    assert code == 0
    wrote = [line[len("wrote "):] for line in cap.out.splitlines()
             if line.startswith("wrote ")]
    files = [str(p) for p in (tmp_path / "out").rglob("*") if p.is_file()]
    assert sorted(wrote) == sorted(files)


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


@pytest.mark.parametrize("argv", [
    ["homi", "--tau-points", "0"],
    ["bell", "--grid", "16", "--tau-points", "0"],
    ["polcorr", "--grid", "16", "--scan-points", "0"],
], ids=lambda argv: argv[0])
def test_zero_point_count_exit_two(tmp_path, capsys, argv):
    # each wrote a CSV holding only its header and exited 0, from the flag
    # or from the config file alike
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({argv[-2][2:]: 0}))
    out = tmp_path / "out"
    for given in (argv, argv[:-2] + ["--config", str(cfg)]):
        code, cap = run(given + ["--out", str(out)], capsys)
        assert code == 2
        err = json.loads(cap.err)
        assert err["error"] == "ValidationError"
        assert argv[-2] in err["message"]
        assert not out.exists()


@pytest.mark.parametrize("builder", ["collinear", "noncollinear-sinc"])
@pytest.mark.parametrize("length", ["-1mm", "0mm"])
def test_sellmeier_sinc_length_must_be_positive(tmp_path, capsys, builder,
                                                length):
    # sinc is even: -1mm wrote the +1mm JSA and exited 0
    out = tmp_path / "out"
    code, cap = run(["jsa", "--builder", builder, "--grid", "16",
                     f"--length={length}", "--out", str(out)], capsys)
    assert code == 2
    err = json.loads(cap.err)
    assert err["error"] == "ValidationError"
    assert "crystal length" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("span", ["0", "-2", "nan", "inf"])
def test_homi_tau_span_must_be_finite_and_positive(tmp_path, capsys, span):
    # 0 wrote 81 rows at tau = 0, -2 a reversed grid, nan and inf nan rows
    out = tmp_path / "out"
    code, cap = run(["homi", "--tau-span", span, "--out", str(out)], capsys)
    assert code == 2
    err = json.loads(cap.err)
    assert err["error"] == "ValidationError"
    assert "delay span" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("given", [
    ["--tau-max", "0ps"], ["--tau-max=-1ps"], ["--tau-max", "nanps"],
    ["--tau-max", "infps"], {"tau_max": "0ps"}, {"tau-max": "-1ps"},
    {"tau_max": -1e-12}, {"tau_max": math.nan}, {"tau_max": math.inf},
], ids=["flag-0", "flag-neg", "flag-nan", "flag-inf", "config-0",
        "config-neg", "config-bare-neg", "config-nan", "config-inf"])
def test_bell_tau_max_must_be_finite_and_positive(tmp_path, capsys, given):
    # 0 wrote 81 rows at tau = 0, -1ps and -1e-12 a reversed grid, nan and
    # inf nan rows
    if isinstance(given, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(given))
        given = ["--config", str(cfg)]
    out = tmp_path / "out"
    code, cap = run(["bell", "--grid", "16"] + given + ["--out", str(out)],
                    capsys)
    assert code == 2
    err = json.loads(cap.err)
    assert err["error"] == "ValidationError"
    assert "tau" in err["message"]
    assert not out.exists()


def test_schmidt_negative_n_report_exit_two(tmp_path, capsys):
    out = tmp_path / "out"
    code, cap = run(["schmidt", "--grid", "32", "--n-report", "-3",
                     "--out", str(out)], capsys)
    assert code == 2
    assert "n-report" in json.loads(cap.err)["message"]
    assert not out.exists()


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


def test_homi_numeric_needs_finite_filter(tmp_path, capsys):
    # the grid amplitude goes through the model builder's finite check
    out = tmp_path / "out"
    code, cap = run(["homi", "--numeric", "--sigma-f", "inf", "--grid", "32",
                     "--out", str(out)], capsys)
    assert code == 2
    err = json.loads(cap.err)
    assert err["error"] == "ValidationError"
    assert "sigma-f" in err["message"]
    assert not out.exists()


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


@pytest.mark.parametrize("pairing", ["transpose", "same"])
def test_bell_csv_matches_per_delay_oracle(tmp_path, pairing):
    opts = ["--builder", "collinear", "--pump", "800nm", "--bandwidth",
            "15nm_fwhm", "--grid", "48"]
    assert run(["jsa", *opts, "--out", str(tmp_path / "jsa")]) == 0
    assert run(["bell", *opts, "--pairing", pairing, "--tau-points", "9",
                "--tau-max", "300fs", "--out", str(tmp_path / "bell")]) == 0
    jsa = spectra.read_jsa_csv(str(tmp_path / "jsa" / "jsa.csv"))
    pair = interference.PolarizedPairState(
        f=jsa, g=jsa.transposed() if pairing == "transpose" else jsa)
    rows = (tmp_path / "bell" / "bell.csv").read_text().splitlines()[1:]
    assert len(rows) == 9
    for row in rows:
        tau, r_plus, r_minus = map(float, row.split(","))
        want = oracles.bell_analyzer_rates(pair, tau)
        assert abs(r_plus - want[0]) < 1e-14
        assert abs(r_minus - want[1]) < 1e-14
    doc = json.loads((tmp_path / "bell" / "bell.json").read_text())
    assert [doc["rate_plus_at_zero"], doc["rate_minus_at_zero"]] == \
        list(interference.bell_analyzer_rates(pair, 0.0))


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


def test_economy_rel_tol_reaches_every_row(tmp_path):
    # the built-in waveguide row is 0.83 % off its quoted figure
    assert run(["economy", "--rel-tol", "0.001", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "economy.json").read_text())
    assert [r["flagged"] for r in doc["records"]] == [False, True, True]
    # the documented 2 % default flags a 3 % mismatch in a CSV row
    rows = tmp_path / "rows.csv"
    rows.write_text("wg,1.0,1.0,1e6,0.2,1.03e6\n")
    out2 = tmp_path / "custom"
    assert run(["economy", "--csv", str(rows), "--out", str(out2)]) == 0
    doc = json.loads((out2 / "economy.json").read_text())
    assert doc["records"][0]["flagged"] is True


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


@pytest.mark.parametrize("figure", ["fig5", "fig7"])
def test_beam_figure_evaluates_factors_once(tmp_path, monkeypatch, figure):
    # the product surface written to CSV is the amplitude the figure
    # decomposes; the factors are not evaluated a second time for it
    calls = record_calls(monkeypatch, spectra,
                         "noncollinear_gaussian_beam_factors")
    assert run(["reproduce", figure, "--grid", "32",
                "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("figure", ["fig5", "fig7"])
def test_beam_figure_solves_the_cut_twice(tmp_path, monkeypatch, figure):
    # once for the factorable waist (which also gives the margin), once
    # inside the beam factors
    calls = record_calls(monkeypatch, dispersion, "noncollinear_cut_angle")
    assert run(["reproduce", figure, "--grid", "64",
                "--out", str(tmp_path)]) == 0
    assert len(calls) == 2


def test_design_report_solves_the_cut_once(tmp_path, monkeypatch):
    # theta_pm and both group slopes come from one cut-angle solve
    calls = record_calls(monkeypatch, dispersion, "noncollinear_cut_angle")
    assert run(["design", "report", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


# the solves that take the pump wavelength, and how to read it from a
# call's positional arguments (the type-II cut takes the degenerate one)
PUMP_UM_OF = {
    (dispersion, "noncollinear_cut_angle"): lambda a: a[1],
    (dispersion, "cut_group_slopes"): lambda a: a[1],
    (dispersion, "typeII_cut_angle"): lambda a: a[1] / 2.0,
    (design, "factorable_waist"): lambda a: a[1],
}


@pytest.mark.parametrize("argv", [
    ["jsa", "--builder", builder, "--grid", "32", "--bandwidth", bandwidth]
    for builder in ("collinear", "noncollinear-sinc", "gaussian-beam")
    for bandwidth in ("10nm_fwhm", "1e14rad_s")
] + [
    ["jsa", "--builder", "collinear", "--pdc-type", "I_eoo", "--grid", "32"],
    ["design", "report"],
    ["design", "report", "--bandwidth", "10nm_fwhm", "--pump", "405nm"],
    ["reproduce", "fig1", "--grid", "32"],
    ["reproduce", "fig5", "--grid", "32"],
    ["reproduce", "fig7", "--grid", "32"],
], ids=lambda argv: "-".join(a for a in argv
                            if not a.startswith("-") and a != "32"))
def test_one_pump_wavelength_per_run(tmp_path, monkeypatch, argv):
    # the cut angles, the group slopes and the matched waist of one run are
    # all solved at the same bits of the pump wavelength
    calls = {key: record_calls(monkeypatch, *key) for key in PUMP_UM_OF}
    assert run(argv + ["--out", str(tmp_path)]) == 0
    pump_ums = {PUMP_UM_OF[key](a) for key, got in calls.items() for a in got}
    assert len(pump_ums) == 1, pump_ums


@pytest.mark.parametrize("builder", ["collinear", "noncollinear-sinc",
                                     "gaussian-beam"])
def test_bandwidth_forms_and_design_share_one_pump(tmp_path, builder):
    # design reports the sigma_p that jsa builds with, and that sigma_p given
    # in rad/s builds the same JSA on the same grid as the nm FWHM it came from
    assert run(["design", "report", "--bandwidth", "10nm_fwhm",
                "--out", str(tmp_path / "design")]) == 0
    sigma_p = json.loads((tmp_path / "design" / "design.json").read_text())[
        "report"]["sigma_p"]
    docs = []
    for tag, bandwidth in (("nm", "10nm_fwhm"), ("rad", f"{sigma_p!r}rad_s")):
        assert run(["jsa", "--builder", builder, "--grid", "32", "--bandwidth",
                    bandwidth, "--out", str(tmp_path / tag)]) == 0
        doc = json.loads((tmp_path / tag / "jsa.json").read_text())
        docs.append({k: v for k, v in doc.items() if k != "config"})
    assert docs[0] == docs[1]
    assert (tmp_path / "nm" / "jsa.csv").read_bytes() == \
        (tmp_path / "rad" / "jsa.csv").read_bytes()


def test_documented_defaults_spelled_out_write_the_same_bytes(tmp_path):
    # 400nm reads as the default 400e-9, not as 400 * 1e-9 one ulp above it
    argv = ["jsa", "--builder", "gaussian-beam", "--grid", "64"]
    given = ["--pump", "400nm", "--bandwidth", "10nm_fwhm", "--length", "1mm",
             "--theta", "3deg"]
    assert run(argv + ["--out", str(tmp_path / "bare")]) == 0
    assert run(argv + given + ["--out", str(tmp_path / "given")]) == 0
    names = sorted(p.name for p in (tmp_path / "bare").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "given").iterdir())
    for name in names:
        assert (tmp_path / "bare" / name).read_bytes() == \
            (tmp_path / "given" / name).read_bytes(), name


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


@pytest.mark.parametrize("cmd, doc", [
    (["jsa"], {"builder": "bogus", "grid": 32}),     # not one of the choices
    (["jsa"], {"grid": 32.5}),                       # integer option
    (["jsa"], {"grid": "32.5"}),
    (["jsa"], {"grid": True}),
    (["polcorr"], {"sign": "*", "grid": 32}),
    (["homi"], {"numeric": "yes"}),                  # flags take true/false
    (["homi"], {"numeric": 1}),
    (["jsa"], {"length": [1]}),                      # a list is no value
    (["jsa"], {"pump": [400]}),
    (["jsa"], {"span_factor": [1]}),
    (["jsa"], {"bandwidth": ["nm_fwhm", "inf"]}),
    (["jsa", "--builder", "noncollinear-sinc"], {"theta": None}),
    (["bell"], {"tau_max": [1]}),
    (["jsa", "--builder", "collinear"], {"sigma": [1]}),
    (["design", "report"], {"length": math.inf}),    # no unit suffix
    (["design", "report"], {"w0": math.nan}),
    (["design", "report"], {"length": 1e-3}),
    (["jsa"], {"builder": 1, "grid": 32}),          # names take strings
    (["jsa"], {"material": True, "grid": 32}),
], ids=["choice", "float-int", "string-int", "bool-int", "sign", "flag-string",
        "flag-int", "length-list", "pump-list", "span-list", "bandwidth-list",
        "theta-null", "tau-max-list", "sigma-list", "length-inf", "w0-nan",
        "length-bare", "builder-int", "material-bool"])
def test_config_value_checked_like_its_flag(tmp_path, capsys, cmd, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, cap = run(cmd + ["--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    err = json.loads(cap.err)
    assert err["error"] == "ValidationError"
    assert err["exit_code"] == 2
    assert repr(next(iter(doc))) in err["message"]
    assert not out.exists()


def test_config_values_of_every_kind_apply(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"numeric": True, "grid": 32, "tau-points": 5,
                               "sigma-f": "8e13rad_s"}))
    assert run(["homi", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "homi.json").read_text())
    assert doc["config"]["numeric"] is True
    assert doc["config"]["grid"] == 32
    assert doc["config"]["sigma_f"] == 8e13
    assert "visibility_numeric" in doc
    cfg.write_text(json.dumps({"builder": "collinear", "grid": 32}))
    assert run(["jsa", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "jsa.json").read_text())
    assert doc["config"]["builder"] == "collinear"
    assert "model" not in doc


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
    message = json.loads(cap.err)["message"]
    assert "GHOST" in message and "MYBBO" in message   # lists what exists


@pytest.mark.parametrize("figure", ["fig1", "fig5", "fig7"])
def test_reproduce_looks_up_bbo_in_materials_file(tmp_path, capsys, figure):
    mats = tmp_path / "mats.txt"
    mats.write_text(BBO_CLONE.replace("MYBBO", "FOO"))
    out = tmp_path / "out"
    code, cap = run(["reproduce", figure, "--grid", "32",
                     "--materials", str(mats), "--out", str(out)], capsys)
    assert code == 2
    assert "unknown material 'BBO'" in json.loads(cap.err)["message"]
    assert not any(out.glob("*.json"))


@pytest.mark.parametrize("figure", ["fig1", "fig5", "fig7"])
def test_reproduce_builds_before_creating_out(tmp_path, capsys, figure):
    out = tmp_path / "out"
    code, cap = run(["reproduce", figure, "--grid", "32", "--materials",
                     str(tmp_path / "missing.txt"), "--out", str(out)], capsys)
    assert code == 2
    assert json.loads(cap.err)["error"] == "FileNotFoundError"
    assert not out.exists()


# ----------------------------------------------------------------------
# exit codes and the error channel
# ----------------------------------------------------------------------

def test_no_arguments_prints_help(capsys):
    assert cli.main([]) == 2
    out = capsys.readouterr().out
    assert "usage: biphoton" in out
    for cmd in cli.build_parser()[1]:
        assert cmd in out


def test_argparse_errors_exit_two(tmp_path, capsys):
    # usage errors leave through the JSON error channel like any other
    for argv in (["jsa", "--no-such-flag"],
                 ["jsa", "--theta", "3furlongs"],
                 ["jsa", "--grid", "32.5"],
                 ["jsa", "--builder", "bogus"],
                 ["frobnicate"],
                 ["design"]):
        out = tmp_path / "out"
        code, cap = run(argv + ["--out", str(out)], capsys)
        assert code == 2, argv
        err = json.loads(cap.err)
        assert err["error"] == "ValidationError"
        assert err["exit_code"] == 2
        assert cap.out == ""
        assert not out.exists()
    assert cli.main(["jsa", "--help"]) == 0
    assert "usage: biphoton jsa" in capsys.readouterr().out


@pytest.mark.parametrize("builder", ["model", "collinear"])
@pytest.mark.parametrize("span", ["0", "inf"])
def test_span_factor_taken_as_given(tmp_path, capsys, builder, span):
    # 0 is not swapped for the default span, and neither 0 nor inf makes
    # a grid
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, cap = run(["jsa", "--builder", builder, "--grid", "32",
                         "--span-factor", span, "--out", str(out)], capsys)
    assert code == 2
    err = json.loads(cap.err)
    assert err["error"] == "ValidationError"
    assert "half_span" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
@pytest.mark.parametrize("argv, suffix", [
    (["nsgate", "--mz"], "deg"),
    (["bell", "--grid", "16", "--tau-max"], "ps"),
    (["jsa", "--grid", "16", "--length"], "mm"),
    (["jsa", "--grid", "16", "--theta"], "rad"),
])
def test_suffixed_number_must_be_finite(tmp_path, capsys, argv, suffix,
                                        value):
    # nan and inf (1e400 overflows to it) ran on, writing NaN into the
    # artifacts or warning from numpy; now the parser refuses them
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, cap = run(argv + [value + suffix, "--out", str(out)], capsys)
    assert code == 2
    err = json.loads(cap.err)
    assert err["error"] == "ValidationError"
    assert "must be finite" in err["message"]
    assert cap.out == ""
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan", "0"])
@pytest.mark.parametrize("suffix", ["rad_s", "nm_fwhm"])
def test_bandwidth_must_be_finite_and_positive(tmp_path, capsys, value,
                                               suffix):
    # all three exited 0: inf and nan ran on, 0 wrote sigma_p 0.0
    out = tmp_path / "out"
    code, cap = run(["design", "report", "--bandwidth", value + suffix,
                     "--out", str(out)], capsys)
    assert code == 2
    err = json.loads(cap.err)
    assert err["error"] == "ValidationError"
    assert "bandwidth must be finite and positive" in err["message"]
    assert cap.out == ""
    assert not out.exists()


@pytest.mark.parametrize("pump", ["0nm", "-400nm"])
def test_pump_must_be_positive(tmp_path, capsys, pump):
    # 0nm with a rad/s bandwidth left through a ZeroDivisionError traceback
    out = tmp_path / "out"
    code, cap = run(["jsa", "--builder", "collinear", "--pump", pump,
                     "--bandwidth", "1e13rad_s", "--out", str(out)], capsys)
    assert code == 2
    err = json.loads(cap.err)
    assert err["error"] == "ValidationError"
    assert "pump_um" in err["message"]
    assert not out.exists()


def test_negative_value_may_follow_its_flag(capsys):
    # -<digit> and -.<digit> are values, as in the flag=value form; -x is
    # still an option
    for argv in (["polcorr", "--theta-b", "-45deg"],
                 ["bell", "--tau-max", "-1ps"],
                 ["design", "report", "--theta", "-.5rad"]):
        parser, _ = cli.build_parser()
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        assert vars(parser.parse_args(argv)) == vars(parser.parse_args(joined))
    code, cap = run(["jsa", "--out", "-x"], capsys)
    assert code == 2
    assert "expected one argument" in json.loads(cap.err)["message"]


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_economy_rel_tol_must_be_non_negative(tmp_path, capsys, tol):
    code, cap = run(["economy", "--rel-tol", tol, "--out", str(tmp_path)],
                    capsys)
    assert code == 2
    err = json.loads(cap.err)
    assert err["error"] == "ValidationError"
    assert "rel_tol" in err["message"]
    assert not (tmp_path / "economy.json").exists()


def test_validation_error_exit_two(tmp_path, capsys):
    code, cap = run(["jsa", "--sigma-f", "inf", "--out", str(tmp_path)],
                    capsys)
    assert code == 2
    err = json.loads(cap.err)
    assert err["error"] == "ValidationError"
    assert err["exit_code"] == 2
    assert "sigma-f" in err["message"] or "sigma_f" in err["message"]


@pytest.mark.parametrize("argv", [
    ["jsa", "--builder", "model"], ["jsa", "--builder", "collinear"],
    ["jsa", "--builder", "noncollinear-sinc"],
    ["jsa", "--builder", "gaussian-beam"], ["schmidt"], ["homi", "--numeric"],
    ["reproduce", "fig1"], ["reproduce", "fig5"]])
def test_oversized_grid_exit_two_before_allocating(tmp_path, capsys, argv):
    # a 10^6 x 10^6 complex grid is 16 TB; the guard must refuse it before
    # any N x N (or even length-N) array exists
    tracemalloc.start()
    try:
        code, cap = run(argv + ["--grid", "1000000", "--out", str(tmp_path)],
                        capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = json.loads(cap.err)
    assert err["error"] == "ValidationError"
    assert "physical memory" in err["message"]
    assert peak < 4 * 2**20
    assert list(tmp_path.iterdir()) == []


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


# ----------------------------------------------------------------------
# start-up path
# ----------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["design", "report"],
    ["jsa", "--builder", "collinear", "--grid", "32"],
    ["nsgate", "--search", "--mz", "180deg"],
    ["reproduce", "fig9"],
])
def test_command_runs_without_loading_scipy(argv, tmp_path):
    # scipy.optimize is most of the import floor and no command needs it,
    # so a fresh interpreter must not see scipy
    script = ("import sys\n"
              "import biphoton.cli as cli\n"
              f"code = cli.main({argv + ['--out', str(tmp_path)]!r})\n"
              "print(code, sorted(m for m in sys.modules\n"
              "                   if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(biphoton.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
