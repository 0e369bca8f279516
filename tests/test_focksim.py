"""Multimode Fock simulation: the Ryser permanent oracle, detection
probabilities (checked against dense matrix mechanics in the full N-photon
sector), the NS gate, and the six-fold coincidence rate vs spectral
multimodedness."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, logm

from biphoton import focksim, interference, schmidt, spectra
from biphoton.errors import ValidationError
from tests import oracles
from tests.conftest import random_unitary

MU_EQUAL = 2.0 - math.sqrt(3.0)


# ----------------------------------------------------------------------
# elements
# ----------------------------------------------------------------------

def _flipped_beamsplitter(r):
    """The splitter with its pi phase on the other reflection:
    diag(1, -1) . B . diag(-1, 1)."""
    return np.diag([1.0, -1.0]) @ focksim.beamsplitter(r) @ np.diag([-1.0, 1.0])


def test_beamsplitter_limits():
    assert np.array_equal(focksim.beamsplitter(1.0), [[1.0, 0.0], [0.0, -1.0]])
    assert np.array_equal(focksim.beamsplitter(0.0), [[0.0, 1.0], [1.0, 0.0]])
    b = focksim.beamsplitter(0.5)
    assert np.allclose(b, np.array([[1, 1], [1, -1]]) / math.sqrt(2.0))
    f = _flipped_beamsplitter(0.5)
    assert np.allclose(f, np.array([[-1, 1], [1, 1]]) / math.sqrt(2.0))


def test_beamsplitter_validation():
    with pytest.raises(ValidationError):
        focksim.beamsplitter(1.2)


def test_network_building():
    net = focksim.LinearNetwork.identity(3).bs(0, 1, 0.3).phase(2, 0.7) \
        .bs(1, 2, 0.5)
    assert net.unitarity_error() < 1e-12
    # each element acts after the ones before it
    e1, e3 = np.eye(3, dtype=complex), np.eye(3, dtype=complex)
    e1[:2, :2] = focksim.beamsplitter(0.3)
    e2 = np.diag([1.0, 1.0, np.exp(0.7j)])
    e3[1:, 1:] = focksim.beamsplitter(0.5)
    assert np.allclose(net.unitary, e3 @ (e2 @ e1), rtol=0.0, atol=1e-15)


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


# ----------------------------------------------------------------------
# permanent (the Ryser oracle behind the enumerator oracle)
# ----------------------------------------------------------------------

def test_permanent_known_values():
    assert oracles.permanent(np.eye(5)) == pytest.approx(1.0, abs=1e-12)
    assert oracles.permanent(np.ones((3, 3))) == pytest.approx(6.0, abs=1e-12)
    assert oracles.permanent(np.zeros((0, 0))) == 1.0


def test_permanent_against_permutation_sum():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    brute = sum(
        np.prod([a[i, p[i]] for i in range(4)])
        for p in itertools.permutations(range(4)))
    assert oracles.permanent(a) == pytest.approx(brute, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_permanent_equals_permutation_sum_property(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    brute = sum(np.prod(a[np.arange(n), p])
                for p in itertools.permutations(range(n)))
    assert abs(oracles.permanent(a) - brute) <= 1e-12 * max(1.0, abs(brute))


def test_permanent_validation():
    with pytest.raises(ValidationError):
        oracles.permanent(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        oracles.permanent(np.eye(focksim.MAX_PERMANENT + 1))


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


def test_pair_weights_checks_a_shared_ladder_once():
    # one ladder serves every source; the kept mass stays the left-to-right
    # product of the per-source masses, bit for bit
    def left_to_right(ladders):
        kept = 1.0
        for x in ladders:
            kept *= float(np.sum(np.abs(x) ** 2))
        return kept.hex()

    rng = np.random.default_rng(7)
    for n_src in (1, 2, 3):
        pairs = [(j, j + n_src) for j in range(n_src)]
        w = rng.normal(size=6) + 1j * rng.normal(size=6)
        w *= rng.uniform(0.5, 1.0) / np.linalg.norm(w)
        weights, kept = focksim._pair_weights(pairs, [w])
        assert len(weights) == n_src
        assert all(np.array_equal(x, w) for x in weights)
        assert kept.hex() == left_to_right([w] * n_src)
        ladders = [w * rng.uniform(0.5, 1.0) for _ in pairs]
        assert focksim._pair_weights(pairs, ladders)[1].hex() == \
            left_to_right(ladders)
    with pytest.raises(ValidationError, match="unit mass"):
        focksim._pair_weights(((0, 1), (2, 3)), [[0.6, 0.9]])


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


def test_pattern_probability_rejects_out_of_range_channels():
    net = focksim.LinearNetwork.identity(2).bs(0, 1, 0.5)
    pat = focksim.DetectionPattern((1, 0))
    for channel in (-1, 5):
        inp = focksim.SpectralPhotonInput.photons([(channel, 0)])
        with pytest.raises(ValidationError):
            focksim.pattern_probability(net, inp, pat)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_pattern_probability_matches_permanent_oracle(data, seed):
    # random unitaries on 2-4 channels, 1-4 photons (bunched ones included)
    # over mode labels 0-2, superpositions of 1-3 terms, every pattern
    n_ch = data.draw(st.integers(2, 4), label="n_ch")
    n_ph = data.draw(st.integers(1, 4), label="n_ph")
    photon = st.tuples(st.integers(0, n_ch - 1), st.integers(0, 2))
    raw = data.draw(st.lists(st.lists(photon, min_size=n_ph, max_size=n_ph),
                             min_size=1, max_size=3), label="terms")
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=len(raw)) + 1j * rng.normal(size=len(raw))
    inp = focksim.SpectralPhotonInput.superposition(zip(amps, raw))
    norm = math.sqrt(sum(abs(a) ** 2 for a, _ in inp.terms))
    inp = focksim.SpectralPhotonInput.superposition(
        (a / norm, photons) for a, photons in inp.terms)
    net = focksim.LinearNetwork(n_ch, random_unitary(n_ch, rng))
    total = 0.0
    for counts in focksim._compositions(n_ph, n_ch):
        pat = focksim.DetectionPattern(counts)
        got = focksim.pattern_probability(net, inp, pat)
        assert abs(got - oracles.pattern_probability(net, inp, pat)) <= 1e-13
        total += got
    assert total == pytest.approx(1.0, abs=1e-12)


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
# pair sources with untouched idlers: the cycle-trace oracle vs the
# enumerator, and the six-fold rate's moment form vs both
# ----------------------------------------------------------------------

def _random_ladder(rng, length):
    w = rng.normal(size=length) + 1j * rng.normal(size=length)
    return w * (rng.uniform(0.3, 1.0) / np.linalg.norm(w))


def _random_pair_case(n_src, n_extra, seed):
    """Idlers on untouched channels, a random unitary on the signal side,
    complex ladders of unequal length, and every signal-side pattern:
    (network, pairs, weights, patterns)."""
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
    patterns = []
    for sig in focksim._compositions(n_src, len(side)):
        counts = np.zeros(n_ch, dtype=int)
        counts[idlers] = 1
        counts[side] = sig
        patterns.append(focksim.DetectionPattern(tuple(counts)))
    return net, pairs, weights, patterns


@settings(max_examples=40, deadline=None)
@given(n_src=st.integers(2, 3), n_extra=st.integers(0, 1),
       seed=st.integers(0, 2**32 - 1))
def test_pair_source_probability_matches_enumerator(n_src, n_extra, seed):
    net, pairs, weights, patterns = _random_pair_case(n_src, n_extra, seed)
    inp = focksim.SpectralPhotonInput.from_pair_sources(pairs, weights)
    for pat in patterns:
        want = focksim.pattern_probability(net, inp, pat)
        got = oracles.pair_source_probability(net, pairs, weights, pat)
        assert abs(got - want) <= 1e-14


def _close_to(got, want):
    """The moment form's bar against a reference rate: it rounds in its own
    order, so the last bits differ."""
    return abs(got - want) <= 1e-15 + 1e-12 * abs(want)


@pytest.mark.parametrize("n_modes", [6, 8])
def test_sixfold_rate_equals_per_call_oracle(n_modes):
    # the fig9 mu set and the sixfold_sweep benchmark's
    mus = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
           0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65)
    for mu in mus:
        want = oracles.pair_source_probability(
            focksim.sixfold_network(), focksim.SIXFOLD_PAIRS,
            [focksim._sixfold_amplitudes(mu, n_modes)],
            focksim.SIXFOLD_PATTERN)
        assert _close_to(focksim.ns_sixfold_rate(mu=mu, n_modes=n_modes).rate,
                         want)


@pytest.mark.parametrize("n", range(5))
def test_perm_pairs_tables(n):
    perms, partners, cycle_lists = oracles.perm_pairs(n)
    assert perms == list(itertools.permutations(range(n)))
    for pi, row, cs in zip(perms, partners, cycle_lists):
        for sigma, partner in zip(perms, row):
            assert perms[partner] == tuple(np.array(pi)[list(sigma)].tolist())
        # the cycles partition range(n), each from its smallest element on
        assert sorted(j for c in cs for j in c) == list(range(n))
        for c in cs:
            assert c[0] == min(c)
            assert [pi[j] for j in c] == c[1:] + c[:1]


def test_sixfold_constants_group_gram_terms_by_cycle_type():
    # I, T and C are the oracle's Gram terms summed over the identity, the
    # transpositions and the 3-cycles of S_3
    terms, amp_sq = oracles.pair_gram_terms(
        focksim.sixfold_network(), focksim.SIXFOLD_PAIRS,
        focksim.SIXFOLD_PATTERN)
    by_type = {}
    for cs, gram in terms:
        key = max(len(c) for c in cs)
        by_type[key] = by_type.get(key, 0.0) + gram
    ident, det_sq, perm_sq = focksim._sixfold_constants()
    want = {1: ident, 2: (perm_sq - det_sq) / 2,
            3: (perm_sq + det_sq) / 2 - ident}
    for key, gram in by_type.items():
        assert abs(gram - want[key]) <= 1e-15
    assert abs(perm_sq - amp_sq) <= 1e-15
    assert ident == pytest.approx(0.21078643762690513, rel=1e-14)
    assert det_sq == pytest.approx(0.8357864376269055, rel=1e-14)
    assert 0.0 <= perm_sq < 1e-30
    assert all(type(c) is float for c in (ident, det_sq, perm_sq))


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(0.0, 0.75, exclude_max=True), n_modes=st.integers(1, 12))
def test_sixfold_rate_equals_per_call_oracle_property(mu, n_modes):
    amps = focksim._sixfold_amplitudes(mu, n_modes)
    assume(1.0 - float(np.sum(np.abs(amps) ** 2)) ** 3
           <= focksim.SIXFOLD_TRUNC_TOL - 1e-12)
    want = oracles.pair_source_probability(
        focksim.sixfold_network(), focksim.SIXFOLD_PAIRS, [amps],
        focksim.SIXFOLD_PATTERN)
    got = focksim.ns_sixfold_rate(mu=mu, n_modes=n_modes).rate
    assert _close_to(got, want)


@settings(max_examples=20, deadline=None)
@given(mu=st.floats(0.0, 0.75, exclude_max=True), n_modes=st.integers(1, 12))
def test_sixfold_rate_matches_enumerator_property(mu, n_modes):
    inp = focksim.sixfold_input(mu, n_modes)
    assume(inp.truncation_mass <= focksim.SIXFOLD_TRUNC_TOL - 1e-12)
    want = focksim.pattern_probability(
        focksim.sixfold_network(), inp, focksim.SIXFOLD_PATTERN)
    got = focksim.ns_sixfold_rate(mu=mu, n_modes=n_modes).rate
    assert _close_to(got, want)


def _refuses(monkeypatch, match, **layout):
    """ns_sixfold_rate refuses with match once the six-fold layout's
    module attributes are replaced by layout, and the constants rebuilt."""
    for name, value in layout.items():
        monkeypatch.setattr(focksim, name, value)
    focksim._sixfold_constants.cache_clear()
    try:
        with pytest.raises(ValidationError, match=match):
            focksim.ns_sixfold_rate(mu=0.5)
    finally:
        monkeypatch.undo()
        focksim._sixfold_constants.cache_clear()


def test_sixfold_layout_checks_the_shared_network(monkeypatch):
    # the cached constants run the idler check on the network they are
    # built from
    mixing = focksim.sixfold_network().bs(0, 3, 0.5)
    _refuses(monkeypatch, "network mixes idler channel",
             sixfold_network=lambda: mixing)


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(0.0, 0.75, exclude_max=True), n_modes=st.integers(1, 12))
def test_sixfold_traces_by_length_equal_ladder_traces(mu, n_modes):
    # the closed-form moments are the one shared ladder's trace per cycle
    # length, and the kept mass is _pair_weights' product of per-source
    # masses; p1 <= 1, so no unit-mass check is needed
    weights, kept = focksim._pair_weights(
        focksim.SIXFOLD_PAIRS, [focksim._sixfold_amplitudes(mu, n_modes)])
    lam = np.abs(weights[0]) ** 2
    moments = focksim._sixfold_moments(mu, n_modes)
    for k, p in enumerate(moments, start=1):
        assert p == pytest.approx(float(np.sum(lam ** k)), rel=1e-14, abs=0.0)
    assert moments[0] <= 1.0
    assume(abs(1.0 - kept - focksim.SIXFOLD_TRUNC_TOL) > 1e-12)
    if 1.0 - kept > focksim.SIXFOLD_TRUNC_TOL:
        with pytest.raises(ValidationError, match="raise n_modes"):
            focksim.ns_sixfold_rate(mu=mu, n_modes=n_modes)
        return
    got = focksim.ns_sixfold_rate(mu=mu, n_modes=n_modes)
    assert abs(got.truncation_mass - (1.0 - kept)) <= 1e-13


def test_sixfold_layout_checks_distinct_channels(monkeypatch):
    _refuses(monkeypatch, "source channels must be distinct",
             SIXFOLD_PAIRS=((3, 0), (4, 0), (5, 2)))


@pytest.mark.parametrize("n_modes", [10 ** 15,
                                     focksim.MAX_SIXFOLD_MODES + 1])
def test_sixfold_n_modes_capped_before_allocation(n_modes):
    tracemalloc.start()
    try:
        for call in (focksim.ns_sixfold_rate, focksim.sixfold_input):
            with pytest.raises(ValidationError, match="at most 65536"):
                call(0.5, n_modes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_sixfold_rate_ignores_mutated_network():
    want = focksim.ns_sixfold_rate(mu=0.5).rate
    for net in (focksim.sixfold_network(), focksim.sixfold_network()):
        net.unitary[3:5, 3:5] = np.eye(2)
        assert focksim.ns_sixfold_rate(mu=0.5).rate == want


def test_pair_source_probability_broadcasts_one_ladder():
    net = focksim.sixfold_network()
    w = [0.8, -0.4j, 0.2]
    inp = focksim.SpectralPhotonInput.from_pair_sources(
        focksim.SIXFOLD_PAIRS, [w])
    got = oracles.pair_source_probability(
        net, focksim.SIXFOLD_PAIRS, [w], focksim.SIXFOLD_PATTERN)
    want = focksim.pattern_probability(net, inp, focksim.SIXFOLD_PATTERN)
    assert got == pytest.approx(want, rel=1e-12)


def test_pair_source_dark_pattern_stays_dark():
    # single-mode sources: the NS-in-MZ circuit forbids the six-fold
    # pattern, and the enumerator's |perm M|^2 is roundoff of order 1e-32.
    # One rung (any mu) or mu = 0 (any ladder) gives p1^3 == p1 p2 == p3
    # exactly, so only the |perm M|^2 term is left.
    want = focksim.pattern_probability(
        focksim.sixfold_network(), focksim.sixfold_input(0.0, 1),
        focksim.SIXFOLD_PATTERN)
    assert want < 1e-30
    for mu in np.linspace(0.0, 1.0, 201, endpoint=False).tolist():
        moments = focksim._sixfold_moments(mu, 1)
        assert 0.0 <= focksim._sixfold_rate_from_moments(*moments) <= 1e-30
        if 1.0 - moments[0] ** 3 <= focksim.SIXFOLD_TRUNC_TOL:
            assert 0.0 <= focksim.ns_sixfold_rate(mu, 1).rate <= 1e-30
    for n_modes in (*range(1, 13), 40, 300, focksim.MAX_SIXFOLD_MODES):
        assert 0.0 <= focksim.ns_sixfold_rate(0.0, n_modes).rate <= 1e-30


@pytest.mark.parametrize("mu, n_modes", [(0.5, 8), (0.7, 6), (0.3, 3)])
def test_sixfold_rate_matches_enumerator(mu, n_modes):
    want = focksim.pattern_probability(
        focksim.sixfold_network(), focksim.sixfold_input(mu, n_modes),
        focksim.SIXFOLD_PATTERN)
    got = focksim.ns_sixfold_rate(mu=mu, n_modes=n_modes)
    assert got.rate == pytest.approx(want, rel=1e-12)
    assert got.truncation_mass == pytest.approx(
        focksim.sixfold_input(mu, n_modes).truncation_mass, rel=0.0, abs=1e-13)


def test_sixfold_constants_preconditions(monkeypatch):
    # the checks the closed form needs, run once on the six-fold layout:
    # a network that touches an idler channel
    net = focksim.sixfold_network()
    _refuses(monkeypatch, "idler", sixfold_network=lambda: net.bs(0, 6, 0.5))
    # an idler counted zero or two times
    for counts in ((0, 1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1, 0, 0)):
        _refuses(monkeypatch, "idler",
                 SIXFOLD_PATTERN=focksim.DetectionPattern(counts))
    # too many photons: seven pair sources need a 14-photon permanent
    _refuses(monkeypatch, "capped",
             sixfold_network=lambda: focksim.LinearNetwork.identity(14),
             SIXFOLD_PAIRS=tuple((j, j + 7) for j in range(7)),
             SIXFOLD_PATTERN=focksim.DetectionPattern((1,) * 14))
    # photon counts that do not match, shared channels, channels off the
    # network
    _refuses(monkeypatch, "photons",
             SIXFOLD_PATTERN=focksim.DetectionPattern((1, 1, 1, 1, 1, 0, 0)))
    _refuses(monkeypatch, "distinct", SIXFOLD_PAIRS=((3, 0), (4, 0), (5, 2)))
    _refuses(monkeypatch, "range", SIXFOLD_PAIRS=((3, 0), (4, 1), (5, 9)))


def test_sixfold_rate_from_schmidt_spectrum():
    # Schmidt <-> Fock: the model builder's SVD spectrum at mu = 0.5 gives
    # the closed-form rate of the geometric ladder
    model = spectra.GaussianSourceModel(sigma=2e13, sigma_F=4e13)
    assert schmidt.analytic_mu(model) == 0.5
    jsa = spectra.gaussian_model_jsa(
        model, spectra.default_model_grid(model, n_points=256))
    lam = schmidt.schmidt_svd(jsa).eigenvalues
    got = focksim._sixfold_rate_from_moments(
        *(float(np.sum(lam ** k)) for k in (1, 2, 3)))
    want = focksim.ns_sixfold_rate(0.5, n_modes=40).rate
    assert got == pytest.approx(want, rel=1e-8)


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
    net = base.bs(b, c, cfg.r)
    central = np.eye(net.n_channels, dtype=complex)
    central[np.ix_([a, b], [a, b])] = _flipped_beamsplitter(cfg.s)
    return focksim.LinearNetwork(net.n_channels, central @ net.unitary) \
        .bs(b, c, cfg.r)


def test_ns_conventions_agree():
    cfg = focksim.NSGateConfig()
    a = focksim.ns_network(cfg)
    b = _flipped_ns_network(cfg, focksim.LinearNetwork.identity(3))
    assert np.max(np.abs(a.unitary - b.unitary)) < 1e-12
    assert focksim.NS_CONVENTION == "explicit_phases"
    explicit = focksim.LinearNetwork.identity(3).bs(1, 2, cfg.r) \
        .phase(0, math.pi).bs(0, 1, cfg.s).phase(1, math.pi).bs(1, 2, cfg.r)
    assert np.array_equal(a.unitary, explicit.unitary)


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


def test_ns_search_matches_grid_simplex_oracle():
    res = focksim.ns_search()
    ref = oracles.ns_search_grid_simplex()
    assert res.r == pytest.approx(ref.r, abs=1e-9)
    assert res.s == pytest.approx(ref.s, abs=1e-9)
    assert res.map.success >= ref.map.success - 1e-12


def test_ns_search_lands_on_ideal_point_to_rounding():
    res = focksim.ns_search()
    assert abs(res.r - focksim.IDEAL_NS_R) <= 1e-12
    assert abs(res.s - focksim.IDEAL_NS_S) <= 1e-12
    assert abs(res.map.success - 0.25) <= 1e-12
    assert res.objective < 1e-10


@pytest.mark.parametrize("r1, r2, s", [(0.1, 0.9, 0.3),
                                       (0.25, 0.75, focksim.IDEAL_NS_S),
                                       (0.5, 0.05, 0.8)])
def test_ns_signal_amplitude_depends_on_s_alone(r1, r2, s):
    # the premise of the reduction in ns_search: U_AA is a function of s
    def u_aa(r):
        return focksim.ns_network(focksim.NSGateConfig(r=r, s=s)).unitary[0, 0]
    assert abs(u_aa(r1) - u_aa(r2)) <= 1e-15


def test_ns_search_without_bright_root_raises(monkeypatch):
    monkeypatch.setattr(focksim, "_NS_DARK", 1.0)   # every root counts dark
    with pytest.raises(ValidationError):
        focksim.ns_search()


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


@pytest.mark.parametrize("phase", [0.0, 0.3, math.pi / 2, math.pi])
def test_mz_stage_states_match_two_mode_oracle(phase):
    b = focksim.beamsplitter(0.5).astype(complex)
    s1 = oracles.apply_two_mode({(1, 1): 1.0 + 0.0j}, b)
    s2 = {k: v * np.exp(1j * (phase / 2.0) * k[0]) for k, v in s1.items()}
    rep = focksim.homi_mz_stage_states(phase)
    assert rep.after_input_splitter == s1
    assert rep.output_state == oracles.apply_two_mode(s2, b)


# ----------------------------------------------------------------------
# six-fold coincidence rate
# ----------------------------------------------------------------------

def test_sixfold_single_mode_is_dark():
    res = focksim.ns_sixfold_rate(mu=0.0, n_modes=1)
    assert res.rate < 1e-12
    assert res.cooperativity == 1.0
    assert res.truncation_mass == 0.0


def test_sixfold_single_mode_at_any_mode_count():
    # at mu = 0 every ladder rung past the first is zero
    want = focksim.ns_sixfold_rate(mu=0.0, n_modes=1)
    for n_modes in range(2, 9):
        got = focksim.ns_sixfold_rate(mu=0.0, n_modes=n_modes)
        assert got.rate == want.rate
        assert got.truncation_mass == 0.0
        assert got.cooperativity == 1.0


def test_sixfold_rate_grows_with_multimodedness():
    rates = [focksim.ns_sixfold_rate(mu=m, n_modes=6).rate
             for m in np.linspace(0.0, 0.7, 8)]
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert rates[-1] > 1e-3


def test_sixfold_mode_count_converged():
    r6 = focksim.ns_sixfold_rate(mu=0.5, n_modes=6).rate
    r8 = focksim.ns_sixfold_rate(mu=0.5, n_modes=8).rate
    assert abs(r8 - r6) / r8 < 0.01


@pytest.mark.parametrize("n_modes", [2.5, 8.0, True, "8", None])
def test_sixfold_rate_rejects_non_integer_mode_count(n_modes):
    with pytest.raises(ValidationError, match="integer"):
        focksim.ns_sixfold_rate(mu=0.5, n_modes=n_modes)


def test_sixfold_rate_accepts_numpy_integer_mode_count():
    res = focksim.ns_sixfold_rate(mu=0.5, n_modes=np.int64(6))
    assert res == focksim.ns_sixfold_rate(mu=0.5, n_modes=6)
    assert type(res.n_modes) is int


def test_sixfold_truncation_guard():
    with pytest.raises(ValidationError):
        focksim.ns_sixfold_rate(mu=0.7, n_modes=2)


def test_sixfold_rate_from_model(model_equal):
    by_model = focksim.ns_sixfold_rate(schmidt.analytic_mu(model_equal), 6)
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
    flip = oracles.pair_source_probability(
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
