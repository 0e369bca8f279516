"""Joint-spectral-amplitude construction: the two-width Gaussian model,
sinc phase matching, the gaussian-beam factorized builder, filters, and
the CSV dump format."""

import json
import math

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
    xh = spectra.sinc_half_point()
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
    assert spectra.sinc_half_point() == pytest.approx(
        0.5 * (lo + hi), abs=1e-10)


def test_half_point_matches_brentq():
    assert spectra.sinc_half_point() == pytest.approx(
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


def test_beam_builder_regime_error(bbo):
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.4, 10.0)
    beam = spectra.BeamGeometry(w0=1e-6, theta=math.radians(3.0), L=1e-3)
    grid = spectra.default_pump_grid(pump, n_points=32, span_factor=3.0)
    with pytest.raises(RegimeError) as exc:
        spectra.build_jsa_noncollinear_gaussian_beam(bbo, pump, beam, grid)
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


def test_surface_csv_matches_per_cell_oracle():
    jsa = chirped_jsa(9, 5, omega0_offset=-2e13)
    for surf in (np.abs(jsa.values), jsa.values.real):
        assert cli._surface_csv(jsa.grid_s, jsa.grid_i, surf) == \
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


def _corrupt(lines, kind):
    """Damage the data rows (which start at line 6) of a written JSA."""
    body = lines[6:]
    if kind == "three_fields":
        body[4] = body[4].rsplit(",", 1)[0]
    elif kind == "five_fields":
        body[4] += ",0"
    elif kind == "missing_row":
        body.pop()
    elif kind == "no_rows":
        body = []
    elif kind == "extra_row":
        body.append(body[-1])
    else:   # shift one detuning column by 1e-6 of its half span
        col = 0 if kind == "nu_s_off" else 1
        fields = body[4].split(",")
        fields[col] = "%.17g" % (float(fields[col]) + 1.5e8)
        body[4] = ",".join(fields)
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
