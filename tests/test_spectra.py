"""Joint-spectral-amplitude construction: the two-width Gaussian model,
sinc phase matching, the gaussian-beam factorized builder, filters, and
the CSV dump format."""

import json
import math
import os

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from biphoton import cli, design, dispersion, schmidt, spectra
from biphoton.errors import RegimeError, ValidationError
from tests import oracles
from tests.conftest import chirped_jsa

SIGMA_P_400_10NM = 99989146266381.52    # rad/s, 10 nm FWHM at 400 nm
GAMMA = 0.19292144696099914


# ----------------------------------------------------------------------
# scalar building blocks
# ----------------------------------------------------------------------

def test_pump_envelope_peak_and_efold():
    pump = spectra.PumpEnvelope(omega0=1e15, sigma_p=3e13)
    assert spectra.pump_envelope_value(pump, 0.0) == 1.0
    assert spectra.pump_envelope_value(pump, pump.sigma_p) == pytest.approx(
        math.exp(-1.0), rel=1e-14)


def test_pump_envelope_even():
    pump = spectra.PumpEnvelope(omega0=1e15, sigma_p=3e13)
    xs = np.random.default_rng(3).uniform(-1e14, 1e14, size=100)
    for x in xs:
        assert spectra.pump_envelope_value(pump, x) == pytest.approx(
            spectra.pump_envelope_value(pump, -x), rel=1e-14)


def test_sinc_phasematch_points():
    L = 1e-3
    assert spectra.sinc_phasematch(0.0, L) == 1.0
    assert spectra.sinc_phasematch(2.0 * math.pi / L, L) == pytest.approx(
        0.0, abs=1e-12)
    assert spectra.sinc_phasematch(math.pi / L, L) == pytest.approx(
        2.0 / math.pi, rel=1e-14)


def test_gamma_value_and_definition():
    g = spectra.gaussian_sinc_gamma()
    assert g == pytest.approx(0.193, abs=1e-3)
    assert g == pytest.approx(GAMMA, rel=1e-15)
    xh = spectra._SINC_HALF
    assert math.exp(-g * xh**2) == pytest.approx(0.5, abs=1e-12)


def test_half_point_against_bisection():
    lo, hi = 1e-9, math.pi - 1e-9
    f = lambda x: math.sin(x) / x - 0.5
    assert f(lo) > 0 and f(hi) < 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert spectra._SINC_HALF == pytest.approx(
        0.5 * (lo + hi), abs=1e-10)


def test_half_point_matches_brentq():
    assert spectra._SINC_HALF == pytest.approx(
        oracles.sinc_half_point(), abs=2e-15)


def test_sigma_p_from_fwhm_pinned():
    got = spectra.sigma_p_from_fwhm(10e-9, 400e-9)
    assert got == pytest.approx(SIGMA_P_400_10NM, rel=1e-12)
    # linear in the FWHM
    assert spectra.sigma_p_from_fwhm(20e-9, 400e-9) == pytest.approx(
        2.0 * got, rel=1e-12)


# ----------------------------------------------------------------------
# Gaussian model source
# ----------------------------------------------------------------------

def test_model_jsa_normalization(jsa_equal):
    assert jsa_equal.norm() == pytest.approx(1.0, abs=1e-10)
    again = jsa_equal.normalized()
    assert np.max(np.abs(again.values - jsa_equal.values)) < 1e-12 * np.max(
        np.abs(jsa_equal.values))


def test_model_no_filter_sentinel():
    sigma = 4e13
    model = spectra.GaussianSourceModel(sigma=sigma, sigma_F=math.inf)
    grid = spectra.FrequencyGrid(omega0=0.0, half_span=8e13, n_points=64)
    j = spectra.gaussian_model_jsa(model, grid)
    ns = grid.detunings[:, None]
    ni = grid.detunings[None, :]
    expect = np.exp(-2.0 * (ns + ni) ** 2 / sigma**2)
    expect = expect / np.sqrt(np.sum(expect**2) * j.measure)
    assert np.max(np.abs(j.values - expect)) < 1e-12 * np.max(expect)


def test_model_strong_filter_limit():
    sigma = 4e13
    model = spectra.GaussianSourceModel(sigma=sigma, sigma_F=sigma / 100.0)
    # grid matched to the filtered state (the filter sets the support)
    grid = spectra.FrequencyGrid(omega0=0.0, half_span=3.0 * model.sigma_F,
                                 n_points=64)
    j = spectra.gaussian_model_jsa(model, grid)
    ns = grid.detunings[:, None]
    ni = grid.detunings[None, :]
    ref = np.exp(-2.0 * (ns**2 + ni**2) / model.sigma_F**2)
    got = np.abs(j.values) / np.max(np.abs(j.values))
    assert np.max(np.abs(got - ref / ref.max())) < 0.01


def test_model_grid_span_precondition():
    model = spectra.GaussianSourceModel(sigma=4e13, sigma_F=4e13)
    grid = spectra.FrequencyGrid(omega0=0.0, half_span=4e13, n_points=16)
    with pytest.raises(ValidationError):
        spectra.gaussian_model_jsa(model, grid)


def test_boundary_warning_on_cramped_grid():
    # weak filter: the anti-diagonal ridge runs out to ~sigma_F, so a grid
    # sized to the narrow sum-frequency width truncates visible amplitude
    model = spectra.GaussianSourceModel(sigma=4e13, sigma_F=4e14)
    tight = spectra.FrequencyGrid(omega0=0.0, half_span=6.1e13, n_points=64)
    wide = spectra.default_model_grid(model, n_points=64)
    assert spectra.gaussian_model_jsa(model, tight).boundary_warning
    assert not spectra.gaussian_model_jsa(model, wide).boundary_warning


def test_model_invalid_widths():
    with pytest.raises(ValidationError):
        spectra.GaussianSourceModel(sigma=-1.0, sigma_F=1.0)
    with pytest.raises(ValidationError):
        spectra.GaussianSourceModel(sigma=1.0, sigma_F=0.0)


# ----------------------------------------------------------------------
# dispersion-fed builders
# ----------------------------------------------------------------------

def test_cw_pump_limit_antidiagonal(bbo):
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.8, 0.05)
    grid = spectra.default_pump_grid(pump, n_points=128, span_factor=10.0)
    j = spectra.build_jsa_collinear(bbo, "II_eoe", 1e-3, pump, grid)
    assert spectra.intensity_correlation(j) < -0.99


def test_typeI_collinear_exchange_symmetric(bbo):
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.8, 15.0)
    grid = spectra.default_pump_grid(pump, n_points=96, span_factor=3.0)
    j = spectra.build_jsa_collinear(bbo, "I_eoo", 1e-3, pump, grid)
    assert np.max(np.abs(j.values - j.values.T)) < 1e-12 * np.max(
        np.abs(j.values))
    assert np.array_equal(j.values, spectra.build_jsa_noncollinear_sinc(
        bbo, 1e-3, pump, 0.0, grid).values)


@pytest.mark.parametrize("name", ["BBO", "KDP"])
@pytest.mark.parametrize("theta_deg", [0.0, 3.0, 5.0])
def test_noncollinear_sinc_matches_oracle(name, theta_deg):
    # the shared sinc body rounds in another order than the oracle's
    # (k + k) cos(theta) and omega_p - 2 omega0; that moves last digits only
    mat = dispersion.get_material(name)
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.4, 10.0)
    grid = spectra.default_pump_grid(pump, n_points=64, span_factor=3.0)
    theta = math.radians(theta_deg)
    j = spectra.build_jsa_noncollinear_sinc(mat, 1e-3, pump, theta, grid)
    ref = oracles.noncollinear_sinc_values(mat, 1e-3, pump, theta, grid)
    assert np.max(np.abs(j.values - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_collinear_grid_refinement(bbo):
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.8, 15.0)
    ks = []
    for n in (256, 512):
        grid = spectra.default_pump_grid(pump, n_points=n, span_factor=3.0)
        j = spectra.build_jsa_collinear(bbo, "II_eoe", 1e-3, pump, grid)
        ks.append(schmidt.schmidt_svd(j).K)
    assert abs(ks[1] - ks[0]) / ks[1] < 0.005


def test_noncollinear_cut_angle_consistency(bbo):
    theta = math.radians(3.0)
    cut = dispersion.noncollinear_cut_angle(bbo, 0.4, theta)
    n_p = dispersion.refractive_index(bbo, 0.4, ("e", cut))
    n_d = dispersion.refractive_index(bbo, 0.8, "o")
    assert n_p == pytest.approx(n_d * math.cos(theta), rel=1e-12)
    # and the angle solver inverts the same cut back to the emission angle
    back = dispersion.degenerate_noncollinear_angle(bbo, 0.4, cut)
    assert back == pytest.approx(theta, abs=1e-9)


@pytest.mark.parametrize("build", [
    spectra.build_jsa_noncollinear_gaussian_beam,
    spectra.noncollinear_gaussian_beam_factors], ids=["builder", "factors"])
def test_beam_builder_regime_error(bbo, build):
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.4, 10.0)
    beam = spectra.BeamGeometry(w0=1e-6, theta=math.radians(3.0), L=1e-3)
    grid = spectra.default_pump_grid(pump, n_points=32, span_factor=3.0)
    with pytest.raises(RegimeError) as exc:
        build(bbo, pump, beam, grid)
    assert exc.value.lhs < exc.value.rhs


def test_beam_builder_contour_slopes(bbo, jsa_factorable):
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.4, 10.0)
    beam = spectra.BeamGeometry(
        w0=design.factorable_waist(bbo, 0.4, 1e-3, math.radians(3.0)),
        theta=math.radians(3.0), L=1e-3)
    grid = jsa_factorable.grid_s
    pump_f, long_f, trans_f = spectra.noncollinear_gaussian_beam_factors(
        bbo, pump, beam, grid)
    prod = pump_f * long_f * trans_f
    built = np.abs(jsa_factorable.values)
    assert np.max(np.abs(prod / prod.max() - built / built.max())) < 1e-10

    # A function of nu_s + nu_i is exactly constant along index antidiagonals
    # of a shared square grid (shift +1 in s, +1 in i leaves nu_s - nu_i
    # unchanged; +1 in s vs +1 in i leaves nu_s + nu_i unchanged).  This is
    # an exact discrete statement, unlike finite-difference flatness, which
    # fails on surfaces this steep relative to the grid step.
    assert np.max(np.abs(long_f[1:, :-1] - long_f[:-1, 1:])) < 1e-9
    assert np.max(np.abs(trans_f[1:, 1:] - trans_f[:-1, :-1])) < 1e-9
    # ... and genuinely varies across those lines (the claim is directional)
    assert np.max(np.abs(long_f[1:, 1:] - long_f[:-1, :-1])) > 0.1
    assert np.max(np.abs(trans_f[1:, :-1] - trans_f[:-1, 1:])) > 0.1


def test_factorable_design_kills_cross_term(bbo, jsa_factorable):
    # The matched waist cancels the cross term of the phase-matching product
    # (longitudinal x transverse), so that product is rank one: the outer
    # product of its central row and column.  The pump envelope always
    # contributes its own -2/sigma_p^2 cross term on top, so test the PM
    # product alone, and check that a 0.1 % waist error breaks the property.
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.4, 10.0)
    w0 = design.factorable_waist(bbo, 0.4, 1e-3, math.radians(3.0))
    grid = jsa_factorable.grid_s
    c = grid.n_points // 2
    for scale, rank_one in ((1.0, True), (1.001, False)):
        beam = spectra.BeamGeometry(w0=scale * w0, theta=math.radians(3.0),
                                    L=1e-3)
        _, long_f, trans_f = spectra.noncollinear_gaussian_beam_factors(
            bbo, pump, beam, grid)
        pm = long_f * trans_f
        outer = np.outer(pm[:, c], pm[c, :]) / pm[c, c]
        assert (np.max(np.abs(pm - outer)) < 1e-9 * pm.max()) == rank_one


def test_matched_waist_margin_one_uncorrelated(jsa_factorable):
    assert abs(spectra.intensity_correlation(jsa_factorable)) < 0.1


# ----------------------------------------------------------------------
# filtering
# ----------------------------------------------------------------------

def test_filter_infinite_identity(jsa_equal):
    out, frac = spectra.apply_gaussian_filter(jsa_equal, math.inf)
    assert frac == 1.0
    assert np.array_equal(out.values, jsa_equal.values)


def test_filter_composes_widths():
    sigma = 4e13
    f1, f2 = 5e13, 7e13
    combo = 1.0 / math.sqrt(1.0 / f1**2 + 1.0 / f2**2)
    base = spectra.GaussianSourceModel(sigma=sigma, sigma_F=f1)
    target = spectra.GaussianSourceModel(sigma=sigma, sigma_F=combo)
    grid = spectra.default_model_grid(target, n_points=64)
    filtered, _ = spectra.apply_gaussian_filter(
        spectra.gaussian_model_jsa(base, grid), f2)
    direct = spectra.gaussian_model_jsa(target, grid)
    assert np.max(np.abs(filtered.values - direct.values)) < 1e-12 * np.max(
        np.abs(direct.values))


def test_filter_fraction_is_norm_ratio(jsa_equal):
    sig_f = 3e13
    filtered, frac = spectra.apply_gaussian_filter(jsa_equal, sig_f)
    ts = np.exp(-2.0 * jsa_equal.grid_s.detunings**2 / sig_f**2)
    ti = np.exp(-2.0 * jsa_equal.grid_i.detunings**2 / sig_f**2)
    raw = jsa_equal.values * ts[:, None] * ti[None, :]
    expect = np.sum(np.abs(raw) ** 2) / np.sum(np.abs(jsa_equal.values) ** 2)
    assert frac == pytest.approx(expect, rel=1e-12)
    assert 0.0 < frac < 1.0
    assert filtered.norm() == pytest.approx(1.0, abs=1e-10)


def test_filter_rejects_bad_width(jsa_equal):
    with pytest.raises(ValidationError):
        spectra.apply_gaussian_filter(jsa_equal, 0.0)


# ----------------------------------------------------------------------
# grids, dump format, metadata
# ----------------------------------------------------------------------

def test_grid_omegas_and_spacing():
    g = spectra.FrequencyGrid(omega0=5e14, half_span=1e13, n_points=11)
    assert g.spacing == pytest.approx(2e12, rel=1e-14)
    assert np.allclose(g.omegas, g.omega0 + g.detunings)
    assert g.detunings[0] == -g.half_span and g.detunings[-1] == g.half_span


def test_default_pump_grid_centered():
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.8, 15.0)
    g = spectra.default_pump_grid(pump, n_points=32, span_factor=3.0)
    assert g.omega0 == pump.omega0
    assert g.half_span == pytest.approx(3.0 * pump.sigma_p, rel=1e-14)


def test_csv_roundtrip_preserves_cooperativity(tmp_path, jsa_typeII):
    path = tmp_path / "dump.csv"
    spectra.write_jsa_csv(jsa_typeII, path)
    head = path.read_text().splitlines()[0]
    assert head.startswith("# omega0_rad_s=")
    back = spectra.read_jsa_csv(path)
    assert back.grid_s.n_points == jsa_typeII.grid_s.n_points
    k0 = schmidt.schmidt_svd(jsa_typeII).K
    k1 = schmidt.schmidt_svd(back).K
    assert abs(k1 - k0) < 1e-9 * k0


def _csv_cases(jsa_typeII):
    rect = chirped_jsa(12, 7, omega0_offset=3e13)
    raw = spectra.JointSpectralAmplitude(rect.grid_s, rect.grid_i,
                                         3.7 * rect.values)   # not normalized
    return [jsa_typeII, rect, raw]


def _same_jsa(a, b):
    return (a.grid_s == b.grid_s and a.grid_i == b.grid_i
            and a.norm_flag == b.norm_flag
            and a.values.tobytes() == b.values.tobytes())


def test_csv_writer_and_reader_match_per_cell_oracles(tmp_path, jsa_typeII):
    for k, jsa in enumerate(_csv_cases(jsa_typeII)):
        fast, slow = tmp_path / f"fast{k}.csv", tmp_path / f"slow{k}.csv"
        spectra.write_jsa_csv(jsa, fast)
        oracles.write_jsa_csv(jsa, slow)
        assert fast.read_bytes() == slow.read_bytes()
        back = spectra.read_jsa_csv(fast)
        assert _same_jsa(back, oracles.read_jsa_csv(fast))
        assert _same_jsa(back, jsa)


def test_surface_csv_matches_per_cell_oracle(tmp_path, capsys):
    jsa = chirped_jsa(9, 5, omega0_offset=-2e13)
    path = tmp_path / "surface.csv"
    for surf in (np.abs(jsa.values), jsa.values.real):
        cli._write_surface_csv(str(path), jsa.grid_s, jsa.grid_i, surf)
        assert capsys.readouterr().out == f"wrote {path}\n"
        assert path.read_bytes().decode() == \
            oracles.surface_csv(jsa.grid_s, jsa.grid_i, surf)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_s=st.integers(2, 9), n_i=st.integers(2, 9),
       omega0=st.tuples(_finite, _finite),
       half_span=st.tuples(*[st.floats(1e-300, 1e300)] * 2),
       normalized=st.booleans(), data=st.data())
def test_csv_roundtrip_bit_exact_property(tmp_path, n_s, n_i, omega0,
                                          half_span, normalized, data):
    vals = data.draw(st.lists(_finite, min_size=2 * n_s * n_i,
                              max_size=2 * n_s * n_i))
    jsa = spectra.JointSpectralAmplitude(
        spectra.FrequencyGrid(omega0[0], half_span[0], n_s),
        spectra.FrequencyGrid(omega0[1], half_span[1], n_i),
        np.array(vals).view(complex).reshape(n_s, n_i), norm_flag=normalized)
    path = tmp_path / "prop.csv"
    spectra.write_jsa_csv(jsa, path)
    assert _same_jsa(spectra.read_jsa_csv(path), jsa)


def _corrupt(lines, kind, row=4):
    """Damage the data rows (which start at line 6) of a written JSA."""
    body = lines[6:]
    if kind == "three_fields":
        body[row] = body[row].rsplit(",", 1)[0]
    elif kind == "five_fields":
        body[row] += ",0"
    elif kind == "missing_row":
        body.pop()
    elif kind == "no_rows":
        body = []
    elif kind == "extra_row":
        body.append(body[-1])
    else:   # shift one detuning column by 1e-6 of its half span
        col = 0 if kind == "nu_s_off" else 1
        fields = body[row].split(",")
        fields[col] = "%.17g" % (float(fields[col]) + 1.5e8)
        body[row] = ",".join(fields)
    return "\n".join(lines[:6] + body) + "\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["three_fields", "five_fields",
                                  "missing_row", "no_rows", "extra_row",
                                  "nu_s_off", "nu_i_off"])
def test_read_jsa_csv_rejects_corrupt_files(tmp_path, capsys, monkeypatch,
                                            kind):
    jsa = chirped_jsa(4, 3)
    good = tmp_path / "good.csv"
    spectra.write_jsa_csv(jsa, good)
    bad = tmp_path / "bad.csv"
    bad.write_text(_corrupt(good.read_text().splitlines(), kind))
    with pytest.raises(ValidationError):
        spectra.read_jsa_csv(bad)
    # a CLI command that loads such a file ends with exit 2 and a JSON error
    monkeypatch.setattr(cli, "_build_jsa",
                        lambda args: (spectra.read_jsa_csv(bad), {}))
    assert cli.main(["jsa", "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and err["exit_code"] == 2


@pytest.mark.parametrize("field", ["omega0_i_rad_s", "normalized"])
def test_read_jsa_csv_requires_every_header_field(tmp_path, field):
    path = tmp_path / "j.csv"
    spectra.write_jsa_csv(chirped_jsa(4, 3), path)
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith(f"# {field}=")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="missing JSA header field"):
        spectra.read_jsa_csv(path)


def test_read_jsa_csv_tolerates_rounding_in_detuning_columns(tmp_path):
    jsa = chirped_jsa(4, 3)
    path = tmp_path / "j.csv"
    spectra.write_jsa_csv(jsa, path)
    lines = path.read_text().splitlines()
    fields = lines[10].split(",")
    fields[0] = "%.12g" % float(fields[0])   # rounding well inside 1e-9
    lines[10] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert _same_jsa(spectra.read_jsa_csv(path), jsa)


# ----------------------------------------------------------------------
# the CSV round trip in row blocks: one per CPU, forced here to 1, 2 or 3
# ----------------------------------------------------------------------

_CORRUPT = ["three_fields", "five_fields", "missing_row", "no_rows",
            "extra_row", "nu_s_off", "nu_i_off"]


def _moved(lines, col, rel):
    """Move the nu_s (col 0) or nu_i (col 1) entry of grid cell (5, 3) by
    rel of its grid's half span (1.5e14 and 1.2e14 in chirped_jsa)."""
    body = lines[6:]
    row = 5 * 5 + 3
    fields = body[row].split(",")
    fields[col] = "%.17g" % (float(fields[col]) + rel * (1.5e14, 1.2e14)[col])
    body[row] = ",".join(fields)
    return "\n".join(lines[:6] + body) + "\n"


def _variant(lines, case):
    """(text, accepted) of one reader case built from a written 7 x 5 JSA."""
    head, body = lines[:6], lines[6:]
    join = lambda rows: "\n".join(head + rows) + "\n"
    if case == "plain":
        return join(body), True
    if case == "crlf":
        return "\r\n".join(head + body) + "\r\n", True
    if case == "trailing_blank_lines":
        return join(body) + "\n\n\n", True
    if case in ("blank_lines_inside", "comment_lines_inside"):
        extra = "" if case == "blank_lines_inside" else "# a comment, 1,2"
        for at in (31, 17, 9, 2):   # in every block at every count
            body.insert(at, extra)
        return join(body), True
    if case == "inline_comment":
        body[20] += " # x"
        return join(body), True
    if case == "comma_space_separators":
        return join([ln.replace(",", ", ") for ln in body]), True
    if case.startswith("moved_"):
        col, rel = case[len("moved_"):].rsplit("_", 1)
        return _moved(lines, ("nu_s", "nu_i").index(col), float(rel)), \
            rel == "1e-12"
    kind, _, where = case.rpartition("@")
    return _corrupt(lines, kind, row=int(where)), False


_READER_CASES = (
    ["plain", "crlf", "trailing_blank_lines", "blank_lines_inside",
     "comment_lines_inside", "inline_comment", "comma_space_separators"]
    + [f"{k}@{row}" for k in _CORRUPT for row in (4, 30)]
    + [f"moved_{col}_{rel}" for col in ("nu_s", "nu_i")
       for rel in ("1e-12", "1e-6")])


def _read_or_none(read, path):
    try:
        return read(path)
    except ValidationError:
        return None


@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("case", _READER_CASES)
def test_read_jsa_csv_matches_loadtxt_oracle(tmp_path, monkeypatch, case,
                                             blocks):
    # 7 rows of 5 cells: no block count here divides the row count
    monkeypatch.setattr(spectra, "_cpu_count", lambda: blocks)
    jsa = chirped_jsa(7, 5)
    path = tmp_path / "j.csv"
    spectra.write_jsa_csv(jsa, path)
    text, accepted = _variant(path.read_text().splitlines(), case)
    path.write_bytes(text.encode())
    want = _read_or_none(oracles.read_jsa_csv_loadtxt, path)
    got = _read_or_none(spectra.read_jsa_csv, path)
    assert (want is not None) == accepted
    assert (got is not None) == accepted
    if accepted:
        assert _same_jsa(got, want)
        assert _same_jsa(got, jsa)


@pytest.mark.parametrize("blocks", [2, 3])
@pytest.mark.parametrize("kind, message", [
    ("three_fields", "bad JSA data row"),
    ("nu_i_off", "nu_s/nu_i columns disagree"),
    ("missing_row", "expected 35 data rows of 4 fields, got 34 of 4"),
    ("extra_row", "expected 35 data rows of 4 fields, got 36 of 4")])
def test_read_jsa_csv_error_from_a_worker_block(tmp_path, monkeypatch,
                                                blocks, kind, message):
    # the damage sits in the last rows, which a forked worker reads
    monkeypatch.setattr(spectra, "_cpu_count", lambda: blocks)
    path = tmp_path / "j.csv"
    spectra.write_jsa_csv(chirped_jsa(7, 5), path)
    path.write_text(_corrupt(path.read_text().splitlines(), kind, row=-2))
    with pytest.raises(ValidationError, match=message):
        spectra.read_jsa_csv(path)


def test_read_jsa_csv_worker_that_dies_is_an_error(tmp_path, monkeypatch):
    monkeypatch.setattr(spectra, "_cpu_count", lambda: 2)
    parse = spectra._piece_values

    def dying(path, piece, first, grids, texts):
        if first > 0:   # only the worker reads past row 0
            os._exit(3)
        return parse(path, piece, first, grids, texts)

    path = tmp_path / "j.csv"
    spectra.write_jsa_csv(chirped_jsa(7, 5), path)
    monkeypatch.setattr(spectra, "_piece_values", dying)
    with pytest.raises(ValidationError, match="worker ended before finishing"):
        spectra.read_jsa_csv(path)


def test_read_jsa_csv_rejects_nan_detunings(tmp_path):
    # the loadtxt reader let nan through: max(nan, x) > 1e-9 is False
    path = tmp_path / "j.csv"
    spectra.write_jsa_csv(chirped_jsa(4, 3), path)
    lines = path.read_text().splitlines()
    fields = lines[10].split(",")
    fields[0] = "nan"
    lines[10] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="disagree with the header grid"):
        spectra.read_jsa_csv(path)


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_csv_writers_match_oracles_in_blocks(tmp_path, monkeypatch, capsys,
                                             blocks):
    monkeypatch.setattr(spectra, "_cpu_count", lambda: blocks)
    for n_s in (5, 7):
        jsa = chirped_jsa(n_s, 4, omega0_offset=1e13)
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        spectra.write_jsa_csv(jsa, fast)
        oracles.write_jsa_csv(jsa, slow)
        assert fast.read_bytes() == slow.read_bytes()
        assert fast.read_text().count("# omega0_rad_s=") == 1
        assert fast.read_text().count("nu_s,nu_i,re,im") == 1
        surface = tmp_path / "surface.csv"
        cli._write_surface_csv(str(surface), jsa.grid_s, jsa.grid_i,
                               np.abs(jsa.values))
        assert capsys.readouterr().out == f"wrote {surface}\n"
        assert surface.read_bytes().decode() == oracles.surface_csv(
            jsa.grid_s, jsa.grid_i, np.abs(jsa.values))


@pytest.mark.parametrize("in_worker", [True, False])
def test_write_grid_rows_formatter_error_reaches_the_caller(
        tmp_path, monkeypatch, in_worker):
    monkeypatch.setattr(spectra, "_cpu_count", lambda: 2)
    fmt = spectra._format_rows

    def failing(template, nu_s, values, lo, hi):
        if (lo > 0) == in_worker:
            raise RuntimeError("formatter broke")
        return fmt(template, nu_s, values, lo, hi)

    monkeypatch.setattr(spectra, "_format_rows", failing)
    raised = ValidationError if in_worker else RuntimeError
    with pytest.raises(raised, match="formatter broke"):
        spectra.write_jsa_csv(chirped_jsa(5, 3), tmp_path / "j.csv")


def test_csv_blocks_never_outnumber_rows(tmp_path, monkeypatch):
    forks = []
    fork = spectra._fork
    monkeypatch.setattr(spectra, "_cpu_count", lambda: 3)
    monkeypatch.setattr(spectra, "_fork", lambda: forks.append(1) or fork())
    jsa = chirped_jsa(2, 9)
    spectra.write_jsa_csv(jsa, tmp_path / "j.csv")
    assert len(forks) == 1
    assert _same_jsa(spectra.read_jsa_csv(tmp_path / "j.csv"), jsa)
    assert len(forks) == 2


def test_csv_without_fork_runs_one_block(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert spectra._cpu_count() == 1
    monkeypatch.setattr(spectra, "_fork", None)   # never called
    jsa = chirped_jsa(5, 4)
    spectra.write_jsa_csv(jsa, tmp_path / "j.csv")
    assert _same_jsa(spectra.read_jsa_csv(tmp_path / "j.csv"), jsa)


def test_metadata_fields(jsa_typeII):
    meta = spectra.jsa_metadata(jsa_typeII)
    assert meta["normalized"] is True
    assert meta["grid_s"]["n_points"] == 128
    assert meta["grid_i"]["n_points"] == 128
    assert meta["grid_s"]["omega0_rad_s"] == jsa_typeII.grid_s.omega0
    assert meta["boundary_warning"] in (False, True)
    assert meta["l2_norm"] == pytest.approx(1.0, abs=1e-10)


def test_transpose_helper_preserves_norm(jsa_typeII):
    t = jsa_typeII.transposed()
    assert t.norm() == pytest.approx(1.0, abs=1e-10)
    assert t.values[3, 5] == jsa_typeII.values[5, 3]
