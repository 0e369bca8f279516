"""Multimode Fock simulation: permanents, detection probabilities (checked
against dense matrix mechanics in the full N-photon sector), the NS gate,
and the six-fold coincidence rate vs spectral multimodedness."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, logm

from biphoton import focksim, interference, schmidt, spectra
from biphoton.errors import ValidationError
from tests.conftest import random_unitary

MU_EQUAL = 2.0 - math.sqrt(3.0)


# ----------------------------------------------------------------------
# elements
# ----------------------------------------------------------------------

def test_beamsplitter_limits():
    assert np.array_equal(focksim.beamsplitter(1.0), [[1.0, 0.0], [0.0, -1.0]])
    assert np.array_equal(focksim.beamsplitter(0.0), [[0.0, 1.0], [1.0, 0.0]])
    b = focksim.beamsplitter(0.5)
    assert np.allclose(b, np.array([[1, 1], [1, -1]]) / math.sqrt(2.0))
    f = focksim.beamsplitter(0.5, convention="flip")
    assert np.allclose(f, np.array([[-1, 1], [1, 1]]) / math.sqrt(2.0))


def test_beamsplitter_validation():
    with pytest.raises(ValidationError):
        focksim.beamsplitter(1.2)
    with pytest.raises(ValidationError):
        focksim.beamsplitter(0.5, convention="weird")


def test_network_building_and_replay():
    net = focksim.LinearNetwork.identity(3).bs(0, 1, 0.3).phase(2, 0.7) \
        .bs(1, 2, 0.5, convention="flip")
    assert net.unitarity_error() < 1e-12
    assert len(net.elements) == 3
    replayed = focksim.LinearNetwork.from_elements(net.n_channels,
                                                   net.elements)
    assert np.max(np.abs(replayed.unitary - net.unitary)) < 1e-12
    with pytest.raises(ValidationError):
        focksim.LinearNetwork.from_elements(
            net.n_channels, net.elements + ({"type": "tractor_beam"},))


def test_network_validation():
    with pytest.raises(ValidationError):
        focksim.LinearNetwork(2, np.array([[1.0, 0.0], [1.0, 1.0]]))
    net = focksim.LinearNetwork.identity(2)
    with pytest.raises(ValidationError):
        net.bs(0, 2, 0.5)
    with pytest.raises(ValidationError):
        net.bs(1, 1, 0.5)
    with pytest.raises(ValidationError):
        focksim.LinearNetwork.identity(0)


def test_network_json_round_trip(tmp_path):
    net = focksim.LinearNetwork.identity(3).bs(0, 2, 0.25).phase(1, -1.1)
    p = tmp_path / "net.json"
    p.write_text(focksim.network_json_text(net))
    back = focksim.load_network_json(p)
    assert np.max(np.abs(back.unitary - net.unitary)) < 1e-12
    assert back.elements == net.elements
    p.write_text('{"n_channels": 2, "elements": [{"type": "tractor_beam"}]}')
    with pytest.raises(ValidationError):
        focksim.load_network_json(p)


# ----------------------------------------------------------------------
# permanent
# ----------------------------------------------------------------------

def test_permanent_known_values():
    assert focksim.permanent(np.eye(5)) == pytest.approx(1.0, abs=1e-12)
    assert focksim.permanent(np.ones((3, 3))) == pytest.approx(6.0, abs=1e-12)
    assert focksim.permanent(np.zeros((0, 0))) == 1.0


def test_permanent_against_permutation_sum():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    brute = sum(
        np.prod([a[i, p[i]] for i in range(4)])
        for p in itertools.permutations(range(4)))
    assert focksim.permanent(a) == pytest.approx(brute, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_permanent_equals_permutation_sum_property(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    brute = sum(np.prod(a[np.arange(n), p])
                for p in itertools.permutations(range(n)))
    assert abs(focksim.permanent(a) - brute) <= 1e-12 * max(1.0, abs(brute))


def test_permanent_validation():
    with pytest.raises(ValidationError):
        focksim.permanent(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        focksim.permanent(np.eye(focksim.MAX_PERMANENT + 1))


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def test_superposition_merges_identical_terms():
    inp = focksim.SpectralPhotonInput.superposition(
        [(0.5, [(0, 0), (1, 0)]), (0.5, [(1, 0), (0, 0)])])
    assert len(inp.terms) == 1
    assert inp.terms[0][0] == pytest.approx(1.0)
    assert inp.photon_number == 2


def test_input_validation():
    with pytest.raises(ValidationError):
        focksim.SpectralPhotonInput.superposition(
            [(1.0, [(0, 0)]), (1.0, [(0, 0), (1, 0)])])
    with pytest.raises(ValidationError):
        focksim.SpectralPhotonInput.superposition([(1.0, [(0, 0)]),
                                                   (-1.0, [(0, 0)])])
    with pytest.raises(ValidationError):
        focksim.DetectionPattern((1, -1))
    with pytest.raises(ValidationError):
        focksim.SpectralPhotonInput.from_pair_sources(
            ((0, 1), (1, 2)), [[1.0]])          # channel 1 reused
    with pytest.raises(ValidationError):
        focksim.SpectralPhotonInput.from_pair_sources(
            ((0, 1),), [[1.0], [1.0]])
    with pytest.raises(ValidationError):
        focksim.SpectralPhotonInput.from_pair_sources(((0, 1),), [[1.0, 0.5]])


def test_pair_source_truncation_mass():
    mu = 0.5
    n = np.arange(4)
    w = np.sqrt((1.0 - mu**2) * mu ** (2 * n))
    inp = focksim.SpectralPhotonInput.from_pair_sources(
        ((0, 1), (2, 3)), [w])
    kept = float(np.sum(w**2)) ** 2
    assert inp.truncation_mass == pytest.approx(1.0 - kept, abs=1e-12)
    assert inp.photon_number == 4
    assert len(inp.terms) == 16


def test_shared_basis_error_for_identical_models(jsa_equal):
    # same model built through two code paths: the mode bases must agree.
    # keep_tol bounds the comparison to modes whose functions the SVD can
    # actually pin down (near-zero eigenvalues come with arbitrary signs).
    dec_a = schmidt.schmidt_svd(jsa_equal, keep_tol=1e-6)
    base = spectra.GaussianSourceModel(sigma=4e13, sigma_F=8e13)
    raw = spectra.gaussian_model_jsa(base, jsa_equal.grid_s)
    filt = 1.0 / math.sqrt(1.0 / 4e13**2 - 1.0 / 8e13**2)
    other, _ = spectra.apply_gaussian_filter(raw, filt)
    dec_b = schmidt.schmidt_svd(other, keep_tol=1e-6)
    # max-abs deviation from identity of the signal-mode overlap Gram matrix
    n = min(dec_a.n_modes, dec_b.n_modes)
    gram = (dec_a.signal_modes[:n].conj() @ dec_b.signal_modes[:n].T) \
        * dec_a.grid_s.spacing
    assert np.max(np.abs(gram - np.eye(n))) < 1e-6


# ----------------------------------------------------------------------
# detection probabilities
# ----------------------------------------------------------------------

def test_single_photon_routing():
    u = random_unitary(3, np.random.default_rng(2))
    net = focksim.LinearNetwork(3, u)
    for src in range(3):
        inp = focksim.SpectralPhotonInput.photons([(src, 0)])
        for det in range(3):
            counts = tuple(1 if d == det else 0 for d in range(3))
            p = focksim.pattern_probability(
                net, inp, focksim.DetectionPattern(counts))
            assert p == pytest.approx(abs(u[det, src]) ** 2, abs=1e-12)


def test_hom_null_and_distinguishable_half():
    net = focksim.LinearNetwork.identity(2).bs(0, 1, 0.5)
    pat = focksim.DetectionPattern((1, 1))
    same = focksim.SpectralPhotonInput.photons([(0, 0), (1, 0)])
    assert focksim.pattern_probability(net, same, pat) < 1e-12
    other = focksim.SpectralPhotonInput.photons([(0, 0), (1, 1)])
    assert focksim.pattern_probability(net, other, pat) == pytest.approx(
        0.5, abs=1e-12)


def test_pattern_probability_validation():
    net = focksim.LinearNetwork.identity(2).bs(0, 1, 0.5)
    inp = focksim.SpectralPhotonInput.photons([(0, 0), (1, 0)])
    with pytest.raises(ValidationError):
        focksim.pattern_probability(net, inp, focksim.DetectionPattern((1, 1, 0)))
    with pytest.raises(ValidationError):
        focksim.pattern_probability(net, inp, focksim.DetectionPattern((1, 0)))
    crowd = focksim.SpectralPhotonInput.photons(
        [(0, 0)] * (focksim.MAX_PERMANENT + 1))
    with pytest.raises(ValidationError):
        focksim.pattern_probability(
            net, crowd, focksim.DetectionPattern(
                (focksim.MAX_PERMANENT + 1, 0)))


def test_against_dense_fock_matrix_mechanics():
    # independent oracle: exponentiate the second-quantized generator in the
    # full 3-photon sector of 4 channels and read the amplitudes off directly
    u = random_unitary(4, np.random.default_rng(7))
    n_ph = 3
    basis = [t for t in itertools.product(range(n_ph + 1), repeat=4)
             if sum(t) == n_ph]
    index = {b: i for i, b in enumerate(basis)}
    xi = logm(u)
    gen = np.zeros((len(basis), len(basis)), dtype=complex)
    for b in basis:
        for j in range(4):
            if b[j] == 0:
                continue
            for i in range(4):
                t = list(b)
                t[j] -= 1
                t[i] += 1
                amp = math.sqrt(b[j]) * math.sqrt(b[i] + 1 - (i == j))
                gen[index[tuple(t)], index[b]] += xi[i, j] * amp
    u_fock = expm(gen)

    net = focksim.LinearNetwork(4, u)
    inp = focksim.SpectralPhotonInput.photons([(0, 0), (0, 0), (2, 0)])
    src = index[(2, 0, 1, 0)]
    for pat in basis:
        want = abs(u_fock[index[pat], src]) ** 2
        got = focksim.pattern_probability(
            net, inp, focksim.DetectionPattern(pat))
        assert got == pytest.approx(want, abs=1e-10)


def test_total_probability_two_photons():
    net = focksim.LinearNetwork.identity(2).bs(0, 1, 0.3)
    inp = focksim.SpectralPhotonInput.photons([(0, 0), (1, 0)])
    assert focksim.total_probability_check(net, inp) == pytest.approx(
        1.0, abs=1e-12)


def test_four_photon_dip_visibility_matches_spectral_purity(
        model_equal, jsa_equal):
    # cross-module: two pair sources, signals interfering on a splitter.
    # 1 - P/P_distinguishable must equal the Schmidt purity that the
    # continuous-frequency dip calculation reports as visibility.
    mu = MU_EQUAL
    n_modes = 24
    n = np.arange(n_modes)
    w = np.sqrt((1.0 - mu**2) * mu ** (2 * n))
    net = focksim.LinearNetwork.identity(4).bs(1, 2, 0.5)
    pat = focksim.DetectionPattern((1, 1, 1, 1))
    inp = focksim.SpectralPhotonInput.from_pair_sources(((1, 0), (2, 3)), [w])
    p = focksim.pattern_probability(net, inp, pat)
    # distinguishable reference: disjoint spectral labels for the 2nd source
    raw = [(w[a] * w[b], [(1, a), (0, a), (2, b + n_modes), (3, b + n_modes)])
           for a in range(n_modes) for b in range(n_modes)]
    inp_d = focksim.SpectralPhotonInput.superposition(raw)
    p_d = focksim.pattern_probability(net, inp_d, pat)
    v = 1.0 - p / p_d

    lam = (1.0 - mu**2) * mu ** (2 * n)
    v_ladder = float(np.sum(lam**2)) / float(np.sum(lam)) ** 2
    assert v == pytest.approx(v_ladder, abs=1e-9)
    v_grid = interference.two_crystal_homi_numeric(jsa_equal, [0.0]).visibility
    assert v == pytest.approx(v_grid, abs=1e-6)


# ----------------------------------------------------------------------
# pair sources with untouched idlers: cycle-trace formula vs enumerator
# ----------------------------------------------------------------------

def _random_ladder(rng, length):
    w = rng.normal(size=length) + 1j * rng.normal(size=length)
    return w * (rng.uniform(0.3, 1.0) / np.linalg.norm(w))


@settings(max_examples=40, deadline=None)
@given(n_src=st.integers(2, 3), n_extra=st.integers(0, 1),
       seed=st.integers(0, 2**32 - 1))
def test_pair_source_probability_matches_enumerator(n_src, n_extra, seed):
    # idlers on untouched channels, a random unitary on the signal side,
    # complex ladders of unequal length; every signal-side pattern
    rng = np.random.default_rng(seed)
    n_ch = 2 * n_src + n_extra
    layout = rng.permutation(n_ch)
    signals, idlers = layout[:n_src], layout[n_src:2 * n_src]
    side = np.sort(np.concatenate([signals, layout[2 * n_src:]]))
    u = np.eye(n_ch, dtype=complex)
    u[np.ix_(side, side)] = random_unitary(len(side), rng)
    net = focksim.LinearNetwork(n_ch, u)
    pairs = list(zip(signals.tolist(), idlers.tolist()))
    weights = [_random_ladder(rng, int(rng.integers(1, 4)))
               for _ in range(n_src)]
    inp = focksim.SpectralPhotonInput.from_pair_sources(pairs, weights)
    for sig in focksim._compositions(n_src, len(side)):
        counts = np.zeros(n_ch, dtype=int)
        counts[idlers] = 1
        counts[side] = sig
        pat = focksim.DetectionPattern(tuple(counts))
        want = focksim.pattern_probability(net, inp, pat)
        got = focksim.pair_source_probability(net, pairs, weights, pat)
        assert abs(got - want) <= 1e-14


def test_pair_source_probability_broadcasts_one_ladder():
    net = focksim.sixfold_network()
    w = [0.8, -0.4j, 0.2]
    inp = focksim.SpectralPhotonInput.from_pair_sources(
        focksim.SIXFOLD_PAIRS, [w])
    got = focksim.pair_source_probability(
        net, focksim.SIXFOLD_PAIRS, [w], focksim.SIXFOLD_PATTERN)
    want = focksim.pattern_probability(net, inp, focksim.SIXFOLD_PATTERN)
    assert got == pytest.approx(want, rel=1e-12)


def test_pair_source_dark_pattern_stays_dark():
    # single-mode sources: the NS-in-MZ circuit forbids the six-fold
    # pattern, and the enumerator's |perm M|^2 is roundoff of order 1e-32
    want = focksim.pattern_probability(
        focksim.sixfold_network(), focksim.sixfold_input(0.0, 1),
        focksim.SIXFOLD_PATTERN)
    got = focksim.ns_sixfold_rate(mu=0.0, n_modes=1).rate
    assert want < 1e-30
    assert 0.0 <= got < 1e-30


@pytest.mark.parametrize("mu, n_modes", [(0.5, 8), (0.7, 6), (0.3, 3)])
def test_sixfold_rate_matches_enumerator(mu, n_modes):
    want = focksim.pattern_probability(
        focksim.sixfold_network(), focksim.sixfold_input(mu, n_modes),
        focksim.SIXFOLD_PATTERN)
    got = focksim.ns_sixfold_rate(mu=mu, n_modes=n_modes)
    assert got.rate == pytest.approx(want, rel=1e-12)
    assert got.truncation_mass == \
        focksim.sixfold_input(mu, n_modes).truncation_mass


def test_pair_source_probability_preconditions():
    net = focksim.sixfold_network()
    pairs, pat = focksim.SIXFOLD_PAIRS, focksim.SIXFOLD_PATTERN
    w = [[0.9, 0.3]]
    # a network that touches an idler channel
    with pytest.raises(ValidationError, match="idler"):
        focksim.pair_source_probability(net.bs(0, 6, 0.5), pairs, w, pat)
    # an idler counted zero or two times
    for counts in ((0, 1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1, 0, 0)):
        with pytest.raises(ValidationError, match="idler"):
            focksim.pair_source_probability(
                net, pairs, w, focksim.DetectionPattern(counts))
    # too many photons: seven pair sources need a 14-photon permanent
    big = focksim.LinearNetwork.identity(14)
    many = [(j, j + 7) for j in range(7)]
    with pytest.raises(ValidationError, match="capped"):
        focksim.pair_source_probability(
            big, many, [[1.0]], focksim.DetectionPattern((1,) * 14))
    # photon counts that do not match, shared channels, excess mass
    with pytest.raises(ValidationError, match="photons"):
        focksim.pair_source_probability(
            net, pairs, w, focksim.DetectionPattern((1, 1, 1, 1, 1, 0, 0)))
    with pytest.raises(ValidationError, match="distinct"):
        focksim.pair_source_probability(
            net, ((3, 0), (4, 0), (5, 2)), w, pat)
    with pytest.raises(ValidationError, match="range"):
        focksim.pair_source_probability(
            net, ((3, 0), (4, 1), (5, 9)), w, pat)
    with pytest.raises(ValidationError, match="unit mass"):
        focksim.pair_source_probability(net, pairs, [[1.0, 0.5]], pat)


# ----------------------------------------------------------------------
# NS gate
# ----------------------------------------------------------------------

def test_ns_map_at_ideal_point():
    m = focksim.ns_conditional_map(focksim.NSGateConfig())
    assert m.c0 == pytest.approx(0.5, abs=1e-6)
    assert m.c1 / m.c0 == pytest.approx(1.0, abs=1e-6)
    assert m.c2 / m.c0 == pytest.approx(-1.0, abs=1e-6)
    assert m.success == pytest.approx(0.25, abs=1e-6)


def _flipped_ns_network(cfg, base, channels=(0, 1, 2)):
    """The NS sandwich with its sign flip in a flipped central element
    instead of explicit pi phases."""
    a, b, c = channels
    return base.bs(b, c, cfg.r).bs(a, b, cfg.s, convention="flip") \
        .bs(b, c, cfg.r)


def test_ns_conventions_agree():
    cfg = focksim.NSGateConfig()
    a = focksim.ns_network(cfg)
    b = _flipped_ns_network(cfg, focksim.LinearNetwork.identity(3))
    assert np.max(np.abs(a.unitary - b.unitary)) < 1e-12
    assert focksim.NS_CONVENTION == "explicit_phases"
    assert [e["type"] for e in a.elements] == ["bs", "phase", "bs", "phase",
                                               "bs"]


def test_ns_decoupled_limit_has_no_sign_flip():
    m = focksim.ns_conditional_map(focksim.NSGateConfig(s=1.0 - 1e-10))
    assert m.c2 / m.c0 == pytest.approx(1.0, abs=1e-4)
    assert m.c1 / m.c0 == pytest.approx(-1.0, abs=1e-4)


def test_ns_config_validation():
    with pytest.raises(ValidationError):
        focksim.NSGateConfig(r=0.0)
    with pytest.raises(ValidationError):
        focksim.NSGateConfig(s=1.0)


def test_ns_search_recovers_ideal_point():
    res = focksim.ns_search()
    assert res.r == pytest.approx(focksim.IDEAL_NS_R, abs=1e-6)
    assert res.s == pytest.approx(focksim.IDEAL_NS_S, abs=1e-6)
    assert res.map.success == pytest.approx(0.25, abs=1e-6)
    assert res.objective < 1e-10


def test_ns_map_via_pattern_probability():
    # the closed-form conditional amplitudes against the generic machinery:
    # herald (0, 1, 0) on signal |n> with the right normalization
    cfg = focksim.NSGateConfig()
    net = focksim.ns_network(cfg)
    m = focksim.ns_conditional_map(cfg)
    for n_sig, cn in ((0, m.c0), (1, m.c1), (2, m.c2)):
        photons = [(0, 0)] * n_sig + [(1, 0)]
        inp = focksim.SpectralPhotonInput.photons(photons)
        pat = focksim.DetectionPattern((n_sig, 1, 0))
        p = focksim.pattern_probability(net, inp, pat)
        assert p == pytest.approx(abs(cn) ** 2, abs=1e-10)


# ----------------------------------------------------------------------
# Mach-Zehnder stage
# ----------------------------------------------------------------------

def test_mz_endpoints_and_law():
    assert focksim.homi_mz_stage_states(0.0).coincidence_probability == \
        pytest.approx(1.0, abs=1e-10)
    assert focksim.homi_mz_stage_states(math.pi).coincidence_probability == \
        pytest.approx(0.0, abs=1e-10)
    for phi in np.linspace(0.0, 2.0 * math.pi, 7):
        got = focksim.homi_mz_stage_states(phi).coincidence_probability
        assert got == pytest.approx(math.cos(phi / 2.0) ** 2, abs=1e-10)


def test_mz_stage_states_bunch():
    rep = focksim.homi_mz_stage_states(math.pi)
    s1 = rep.after_input_splitter
    assert set(s1) == {(2, 0), (0, 2)}
    assert s1[(2, 0)] == pytest.approx(+1.0 / math.sqrt(2.0), abs=1e-12)
    assert s1[(0, 2)] == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-12)
    # at phase pi the bunched superposition flips sign on one branch and
    # exits the output splitter bunched: no coincidences
    out = rep.output_state
    assert abs(out.get((1, 1), 0.0)) < 1e-12
    assert abs(out[(2, 0)]) ** 2 + abs(out[(0, 2)]) ** 2 == pytest.approx(
        1.0, abs=1e-10)


# ----------------------------------------------------------------------
# six-fold coincidence rate
# ----------------------------------------------------------------------

def test_sixfold_single_mode_is_dark():
    res = focksim.ns_sixfold_rate(mu=0.0, n_modes=1)
    assert res.rate < 1e-12
    assert res.cooperativity == 1.0
    assert res.truncation_mass == 0.0


def test_sixfold_rate_grows_with_multimodedness():
    rates = [focksim.ns_sixfold_rate(mu=m, n_modes=6).rate
             for m in np.linspace(0.0, 0.7, 8)]
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert rates[-1] > 1e-3


def test_sixfold_mode_count_converged():
    r6 = focksim.ns_sixfold_rate(mu=0.5, n_modes=6).rate
    r8 = focksim.ns_sixfold_rate(mu=0.5, n_modes=8).rate
    assert abs(r8 - r6) / r8 < 0.01


def test_sixfold_truncation_guard():
    with pytest.raises(ValidationError):
        focksim.ns_sixfold_rate(mu=0.7, n_modes=2)
    with pytest.raises(ValidationError):
        focksim.ns_sixfold_rate()              # needs a model or a mu
    with pytest.raises(ValidationError):
        focksim.ns_sixfold_rate(
            spectra.GaussianSourceModel(sigma=1.0, sigma_F=1.0), mu=0.2)


def test_sixfold_rate_from_model(model_equal):
    by_model = focksim.ns_sixfold_rate(model_equal, n_modes=6)
    by_mu = focksim.ns_sixfold_rate(mu=MU_EQUAL, n_modes=6)
    assert by_model.rate == pytest.approx(by_mu.rate, rel=1e-12)
    assert by_model.cooperativity == pytest.approx(
        schmidt.analytic_K(MU_EQUAL), rel=1e-12)


def test_sixfold_sign_and_phase_invariance():
    # amplitude-sign convention of the source ladder and any global channel
    # phases must leave detection probabilities alone
    mu, n_modes = 0.4, 4
    flipped = _flipped_ns_network(
        focksim.NSGateConfig(),
        focksim.LinearNetwork.identity(7).bs(3, 4, 0.5),
        channels=(4, 5, 6)).bs(3, 4, 0.5)
    ladder = math.sqrt(1.0 - mu * mu) * (-mu) ** np.arange(n_modes)
    flip = focksim.pair_source_probability(
        flipped, focksim.SIXFOLD_PAIRS, [ladder], focksim.SIXFOLD_PATTERN)
    std = focksim.ns_sixfold_rate(mu=mu, n_modes=n_modes).rate
    assert flip == pytest.approx(std, rel=1e-10)

    net = focksim.sixfold_network().phase(0, 0.7).phase(4, -1.3)
    inp = focksim.sixfold_input(mu, n_modes)
    shifted = focksim.pattern_probability(net, inp, focksim.SIXFOLD_PATTERN)
    assert shifted == pytest.approx(std, rel=1e-10)


def test_sixfold_total_probability():
    net = focksim.sixfold_network()
    assert focksim.total_probability_check(
        net, focksim.sixfold_input(0.0, 1)) == pytest.approx(1.0, abs=1e-8)
    inp = focksim.sixfold_input(0.3, 3)
    total = focksim.total_probability_check(net, inp)
    assert total == pytest.approx(1.0 - inp.truncation_mass, abs=1e-8)


def test_sixfold_curve_rows():
    rows = [focksim.ns_sixfold_rate(mu=mu, n_modes=4) for mu in (0.0, 0.3)]
    assert rows[1].cooperativity == pytest.approx(schmidt.analytic_K(0.3),
                                                  rel=1e-12)
    assert rows[1].rate > rows[0].rate
    assert 0.0 <= rows[1].truncation_mass < focksim.SIXFOLD_TRUNC_TOL
