"""Multimode linear-optics Fock simulation over channel x spectral-mode space.

Photons are labeled by a *channel* (spatial rail, mixed by the network
unitary) and a *spectral mode* index (orthonormal Schmidt basis, untouched
by the network).  Detectors are broadband and time-integrating: they count
photons per channel but do not resolve the spectral label, so distinct
output spectral contents add incoherently while amplitudes landing in the
same (channel, mode) occupation add coherently.  Amplitudes come from one
engine, `_evolve`, which maps every input creation operator through the
network, a+_(c,m) -> sum_d U[d,c] a+_(d,m), and merges equal output
occupations as it goes: the permanent formula's amplitudes (Scheel, "Permanents
in linear optical networks", 2004) without enumerating spectral-label
splits.  `pattern_probability` (the general path) and the Mach-Zehnder
stage test run on it.

Pair sources whose idlers go to their own trigger channels, untouched by
the network and each counted once, have a closed form instead: tracing
the spectrally blind idlers out leaves each signal in a diagonal state,
and the probability is a sum over permutation pairs of the signal
submatrix weighted by cycle traces of the Schmidt ladders (Tichy, PRA 91,
022316 (2015); Shchesnovich, PRA 91, 013844 (2015)).  `ns_sixfold_rate`'s
three sources share one ladder, so the sum falls into three classes by
cycle type: two network constants, checked and computed once per process,
and three moments sum_n lambda_n^k of the ladder.

All sources in one simulation must share a single orthonormal spectral
basis; for identical Gaussian-model sources the Schmidt bases coincide
exactly (scaled Hermite functions).

The nonlinear-sign (NS) gate lives on three channels (signal A, ancilla B
containing one photon, empty C) as a beamsplitter sandwich: an outer
splitter on (B, C) with reflectivity r, a central splitter on (A, B) with
reflectivity s whose sign flip is written as explicit pi phases on A
before and B after it, and the (B, C) splitter again.  Heralding on
one photon in B and none in C applies the conditional amplitudes

    c_n = U_AA^n U_BB + n U_AA^(n-1) U_AB U_BA

to the signal Fock component |n>.  At r = 1/(4 - 2 sqrt(2)),
s = (sqrt(2) - 1)^2 the map is (1/2)(1, 1, -1): the sign flip on |2> that
makes the conditional-phase construction work, succeeding 25% of the time.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .dispersion import bisect_root
from .errors import ValidationError
from .schmidt import analytic_K

MAX_PERMANENT = 12


# ----------------------------------------------------------------------
# Elements and networks
# ----------------------------------------------------------------------

def beamsplitter(r: float) -> np.ndarray:
    """2x2 real orthogonal beamsplitter with intensity reflectivity r and
    the pi phase on one reflection: [[sr, st], [st, -sr]]."""
    if not 0.0 <= r <= 1.0:
        raise ValidationError("reflectivity must lie in [0, 1]")
    sr, st = math.sqrt(r), math.sqrt(1.0 - r)
    return np.array([[sr, st], [st, -sr]])


@dataclass(frozen=True, eq=False)
class LinearNetwork:
    """Channel unitary built as an ordered product of beamsplitter and
    phase elements.  Instances are immutable; bs()/phase() return a new
    network with the element appended (applied after the existing ones)."""

    n_channels: int
    unitary: np.ndarray

    def __post_init__(self):
        err = self.unitarity_error()
        if err > 1e-10:
            raise ValidationError(f"network unitary violates U+U=I by {err:g}")

    @classmethod
    def identity(cls, n_channels: int) -> "LinearNetwork":
        if n_channels < 1:
            raise ValidationError("need at least one channel")
        return cls(n_channels, np.eye(n_channels, dtype=complex))

    def unitarity_error(self) -> float:
        g = self.unitary.conj().T @ self.unitary
        return float(np.max(np.abs(g - np.eye(self.n_channels))))

    def _check_channel(self, i: int):
        if not 0 <= i < self.n_channels:
            raise ValidationError(f"channel {i} out of range")

    def bs(self, i: int, j: int, r: float) -> "LinearNetwork":
        self._check_channel(i)
        self._check_channel(j)
        if i == j:
            raise ValidationError("beamsplitter needs two distinct channels")
        b = beamsplitter(r)
        e = np.eye(self.n_channels, dtype=complex)
        e[np.ix_([i, j], [i, j])] = b
        return LinearNetwork(self.n_channels, e @ self.unitary)

    def phase(self, i: int, phi: float) -> "LinearNetwork":
        self._check_channel(i)
        e = np.eye(self.n_channels, dtype=complex)
        e[i, i] = np.exp(1j * phi)
        return LinearNetwork(self.n_channels, e @ self.unitary)


# ----------------------------------------------------------------------
# Inputs and detection
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DetectionPattern:
    """Photon counts per output channel; detectors are photon-number
    resolving in channel space but blind to the spectral label."""

    counts: Tuple[int, ...]

    def __post_init__(self):
        if any(int(c) != c or c < 0 for c in self.counts):
            raise ValidationError("counts must be nonnegative integers")
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))


@dataclass(frozen=True)
class SpectralPhotonInput:
    """Superposition of product Fock terms.  Each term is (amplitude,
    photons) with photons a sorted tuple of (channel, spectral-mode) pairs;
    terms with identical photon content are merged at construction."""

    terms: Tuple[Tuple[complex, Tuple[Tuple[int, int], ...]], ...]
    photon_number: int
    truncation_mass: float = 0.0

    @classmethod
    def photons(cls, channel_mode_pairs) -> "SpectralPhotonInput":
        """Single product term with unit amplitude."""
        return cls.superposition([(1.0 + 0.0j, channel_mode_pairs)])

    @classmethod
    def superposition(cls, raw_terms,
                      truncation_mass: float = 0.0) -> "SpectralPhotonInput":
        merged = {}
        n_photons = None
        for amp, photons in raw_terms:
            key = tuple(sorted((int(c), int(m)) for c, m in photons))
            if n_photons is None:
                n_photons = len(key)
            elif len(key) != n_photons:
                raise ValidationError("all terms must carry the same photon number")
            merged[key] = merged.get(key, 0.0 + 0.0j) + complex(amp)
        terms = tuple((a, k) for k, a in sorted(merged.items(), key=lambda kv: kv[0])
                      if a != 0.0)
        if not terms:
            raise ValidationError("input state is empty")
        return cls(terms=terms, photon_number=n_photons,
                   truncation_mass=truncation_mass)

    @classmethod
    def from_pair_sources(cls, pairs, weights) -> "SpectralPhotonInput":
        """Product of two-photon sources.  pairs[j] = (signal_channel,
        idler_channel); weights[j] = kept Schmidt amplitudes of source j
        (signal and idler of one source share its mode index; all sources
        share the basis; a single list serves every source).  Zero weights
        are dropped.  The truncation mass 1 - prod_j sum_n |w_jn|^2 is
        recorded."""
        pairs = list(pairs)
        weights, kept = _pair_weights(pairs, weights)
        per_source = []
        for (ch_s, ch_i), w in zip(pairs, weights):
            per_source.append([(w[n], ch_s, ch_i, n)
                               for n in range(len(w)) if w[n] != 0.0])
        raw = []
        for combo in itertools.product(*per_source):
            amp = 1.0 + 0.0j
            photons = []
            for w, ch_s, ch_i, n in combo:
                amp *= w
                photons.append((ch_s, n))
                photons.append((ch_i, n))
            raw.append((amp, photons))
        return cls.superposition(raw, truncation_mass=1.0 - kept)


def _pair_weights(pairs, weights):
    """(per-source complex weight arrays, kept mass prod_j sum_n |w_jn|^2)
    for pair sources on distinct channels; a single weight list is shared
    by every source."""
    weights = [np.asarray(w, dtype=complex) for w in weights]
    masses = [float(np.sum(np.abs(w) ** 2)) for w in weights]
    if len(weights) == 1 and len(pairs) > 1:
        weights, masses = weights * len(pairs), masses * len(pairs)
    if len(weights) != len(pairs):
        raise ValidationError("need one weight list per source")
    chans = [c for p in pairs for c in p]
    if len(set(chans)) != len(chans):
        raise ValidationError("source channels must be distinct")
    if any(mass > 1.0 + 1e-9 for mass in masses):
        raise ValidationError("source weights exceed unit mass")
    return weights, math.prod(masses)


# ----------------------------------------------------------------------
# Detection probabilities
# ----------------------------------------------------------------------

def _evolve(u, terms, caps=None) -> dict:
    """{output photons: amplitude} of input terms (amplitude, sorted
    (channel, mode) photons) under the channel unitary u: each a+_(c,m) maps
    to sum_d u[d, c] a+_(d,m), and equal photon tuples add coherently.  With
    caps, channel d takes at most caps[d] photons, so only outputs inside
    that pattern are built."""
    n = u.shape[0]
    out = {}
    for amp, photons in terms:
        poly = {(): amp / math.sqrt(_occupation_factorials(photons))}
        for c, m in photons:
            nxt = {}
            for key, val in poly.items():
                occ = Counter(d for d, _ in key)
                for d in range(n):
                    if caps is not None and occ[d] >= caps[d]:
                        continue
                    add = val * u[d, c]
                    if add != 0.0:
                        k = tuple(sorted(key + ((d, m),)))
                        nxt[k] = nxt.get(k, 0.0 + 0.0j) + add
            poly = nxt
        for key, val in poly.items():
            a = val * math.sqrt(_occupation_factorials(key))
            if a != 0.0:
                out[key] = out.get(key, 0.0 + 0.0j) + a
    return {k: v for k, v in out.items() if v != 0.0}


def _occupation_factorials(photons) -> int:
    """prod_k k! over the occupation numbers k of a photon tuple."""
    return math.prod(math.factorial(k) for k in Counter(photons).values())


def pattern_probability(network: LinearNetwork, inp: SpectralPhotonInput,
                        pattern: DetectionPattern) -> float:
    """Probability of the detection pattern: the sum of |amplitude|^2 over
    every output (channel, mode) occupation with the pattern's channel
    counts.  The network never changes a photon's mode label, so outputs
    whose spectral content differs are distinct occupations and add
    incoherently, while input terms reaching the same one interfere."""
    _check_pattern(network.n_channels, pattern.counts, inp.photon_number,
                   (c for _, photons in inp.terms for c, _ in photons))
    out = _evolve(network.unitary, inp.terms, caps=pattern.counts)
    return sum(abs(a) ** 2 for a in out.values())


def _check_pattern(n_ch: int, counts, n_photons: int, channels):
    """Counts for n_ch channels that carry all n_photons <= MAX_PERMANENT
    input photons, which enter on the given channels."""
    if len(counts) != n_ch:
        raise ValidationError("pattern length must match channel count")
    if sum(counts) != n_photons:
        raise ValidationError(
            f"pattern counts {sum(counts)} photons, input carries {n_photons}")
    if n_photons > MAX_PERMANENT:
        raise ValidationError(f"photon number capped at {MAX_PERMANENT}")
    if any(not 0 <= c < n_ch for c in channels):
        raise ValidationError("input channel out of range")


def _compositions(n: int, k: int):
    """Weak compositions of n into k parts."""
    for cuts in itertools.combinations(range(n + k - 1), k - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(n + k - 2 - prev)
        yield tuple(parts)


def total_probability_check(network: LinearNetwork,
                            inp: SpectralPhotonInput) -> float:
    """Sum of pattern_probability over every detection pattern; equals the
    input's kept mass (1 - truncation_mass) by unitarity.  Exhaustive, so
    keep photon numbers / mode counts small."""
    return sum(
        pattern_probability(network, inp, DetectionPattern(c))
        for c in _compositions(inp.photon_number, network.n_channels))


# ----------------------------------------------------------------------
# NS gate
# ----------------------------------------------------------------------

# Reflectivities solving c0 = c1 = -c2 with the largest heralding
# probability (|c0|^2 = 1/4 exactly) in the sandwich topology below;
# `ns_search` recovers them from the network by reduction, and the
# grid + Nelder-Mead search in the tests independently.
IDEAL_NS_R = 1.0 / (4.0 - 2.0 * math.sqrt(2.0))
IDEAL_NS_S = (math.sqrt(2.0) - 1.0) ** 2

NS_TOPOLOGY = "ancilla_sandwich"          # outer (B,C;r), central (A,B;s), outer (B,C;r)
NS_CONVENTION = "explicit_phases"         # how the central sign flip is built


@dataclass(frozen=True)
class NSGateConfig:
    r: float = IDEAL_NS_R
    s: float = IDEAL_NS_S

    def __post_init__(self):
        if not (0.0 < self.r < 1.0 and 0.0 < self.s < 1.0):
            raise ValidationError("reflectivities must lie strictly in (0, 1)")


def ns_network(cfg: NSGateConfig, base: Optional[LinearNetwork] = None,
               channels=(0, 1, 2)) -> LinearNetwork:
    """Append the three-channel NS sandwich to `base` (default: fresh
    3-channel identity).  channels = (signal A, ancilla B, empty C).
    The central (A, B) splitter carries the sign flip as explicit pi phases
    on A before and on B after a standard splitter, which equals a splitter
    with the pi phase on the other reflection."""
    a, b, c = channels
    net = base if base is not None else LinearNetwork.identity(3)
    net = net.bs(b, c, cfg.r)
    net = net.phase(a, math.pi).bs(a, b, cfg.s).phase(b, math.pi)
    return net.bs(b, c, cfg.r)


@dataclass(frozen=True)
class NSConditionalMap:
    c0: complex
    c1: complex
    c2: complex
    success: float               # |c0|^2: heralding probability on |0>


def ns_conditional_map(cfg: NSGateConfig) -> NSConditionalMap:
    """Conditional amplitudes on the signal Fock components |0>, |1>, |2>
    after heralding one photon in B and none in C (ancilla starts |1>_B):

        c_n = U_AA^n U_BB + n U_AA^(n-1) U_AB U_BA.
    """
    u = ns_network(cfg).unitary
    uaa, uab, uba, ubb = u[0, 0], u[0, 1], u[1, 0], u[1, 1]
    c0 = ubb
    c1 = uaa * ubb + uab * uba
    c2 = uaa**2 * ubb + 2.0 * uaa * uab * uba
    return NSConditionalMap(complex(c0), complex(c1), complex(c2),
                            float(abs(c0) ** 2))


@dataclass(frozen=True)
class NSSearchResult:
    r: float
    s: float
    objective: float
    map: NSConditionalMap


_NS_SCAN = np.linspace(0.0, 1.0, 66)[1:-1].tolist()   # 64 points inside (0, 1)
_NS_DARK = 1e-12        # a root whose success |c0|^2 is this small is dark


def ns_search() -> NSSearchResult:
    """Recover the ideal reflectivities from the network, by reduction.

    A meets only its pi phase and the central splitter, so U_AA depends on
    s alone.  Dividing by U_BB, c1 = c0 gives U_AB U_BA = U_BB (1 - U_AA),
    and c2 = -c0 then leaves U_AA^2 - 2 U_AA - 1 = 0: U_AA = 1 - sqrt(2).
    So s is bisected on Re U_AA(s) = 1 - sqrt(2), r is scanned for sign
    changes of Re(c1 - c0) at that s, and each change is bisected to full
    precision.  Dark roots (|c0| ~ 0) and roots whose residual
    |c1 - c0|^2 + |c2 + c0|^2 exceeds 1e-10 are dropped; the root with the
    highest success probability |c0|^2 wins.
    """
    u_aa = 1.0 - math.sqrt(2.0)     # U_AA does not depend on r: take 1/2
    s = bisect_root(
        lambda s: ns_network(NSGateConfig(0.5, s)).unitary[0, 0].real - u_aa,
        _NS_SCAN[0], _NS_SCAN[-1], 0.0)

    def gap(r):
        m = ns_conditional_map(NSGateConfig(r=r, s=s))
        return (m.c1 - m.c0).real

    scan = [(r, gap(r)) for r in _NS_SCAN]
    best = None
    for (lo, f_lo), (hi, f_hi) in zip(scan, scan[1:]):
        if (f_lo > 0) == (f_hi > 0):
            continue
        r = bisect_root(gap, lo, hi, 0.0)
        m = ns_conditional_map(NSGateConfig(r=r, s=s))
        objective = abs(m.c1 - m.c0) ** 2 + abs(m.c2 + m.c0) ** 2
        if m.success <= _NS_DARK or objective > 1e-10:
            continue
        if best is None or m.success > best.map.success:
            best = NSSearchResult(r, s, objective, m)
    if best is None:
        raise ValidationError("no (r, s) satisfied the map proportionality")
    return best


# ----------------------------------------------------------------------
# Two-mode Mach-Zehnder stage test
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MZStageReport:
    phase: float
    after_input_splitter: dict
    output_state: dict
    coincidence_probability: float


def homi_mz_stage_states(phase: float) -> MZStageReport:
    """|1,1> through a balanced Mach-Zehnder whose upper arm adds a
    relative *two-photon* phase `phase` (each photon picks up phase/2; an
    NS-style conditional sign on |2> is phase = pi).  After the input
    splitter the pair bunches into (|2,0> - |0,2>)/sqrt(2); the output
    coincidence probability across the two ports is cos^2(phase/2):
    1 at phase 0, 0 at phase pi, where the bunched state rides through
    the output splitter unchanged."""
    b = beamsplitter(0.5).astype(complex)

    def through_splitter(state):
        """{(n0, n1): amp} through b, as {(n0, n1): amp}."""
        terms = [(amp, ((0, 0),) * n0 + ((1, 0),) * n1)
                 for (n0, n1), amp in state.items()]
        return {(k.count((0, 0)), k.count((1, 0))): a
                for k, a in _evolve(b, terms).items()}

    s1 = through_splitter({(1, 1): 1.0 + 0.0j})
    s2 = {k: v * np.exp(1j * (phase / 2.0) * k[0]) for k, v in s1.items()}
    s3 = through_splitter(s2)
    pc = abs(s3.get((1, 1), 0.0)) ** 2
    return MZStageReport(phase=float(phase), after_input_splitter=s1,
                         output_state=s3,
                         coincidence_probability=float(pc))


# ----------------------------------------------------------------------
# Six-fold coincidence vs cooperativity
# ----------------------------------------------------------------------

# Channel layout of the three-source network:
#   0, 1, 2 : trigger detectors T1, T2, T3 (idlers, no optics)
#   3       : upper MZ arm  -> detector D1
#   4       : lower MZ arm through the NS signal port -> detector D2
#   5       : NS ancilla in/out -> detector C1 (herald, one photon)
#   6       : NS empty port -> C2 (herald, zero photons)
SIXFOLD_PAIRS = ((3, 0), (4, 1), (5, 2))   # (signal, idler) per source
SIXFOLD_PATTERN = DetectionPattern((1, 1, 1, 1, 1, 1, 0))
SIXFOLD_TRUNC_TOL = 0.05                   # largest truncated Schmidt mass
MAX_SIXFOLD_MODES = 2 ** 16                # longest ladder, checked before use

def sixfold_network() -> LinearNetwork:
    """Two balanced splitters on (3, 4) bracketing an ideal NS gate on
    (4, 5, 6): the Mach-Zehnder-with-NS circuit fed by three pair sources."""
    net = LinearNetwork.identity(7).bs(3, 4, 0.5)
    net = ns_network(NSGateConfig(), base=net, channels=(4, 5, 6))
    return net.bs(3, 4, 0.5)


@functools.cache
def _sixfold_constants() -> Tuple[float, float, float]:
    """(I, |det M|^2, |perm M|^2) / prod_d m_d! for sixfold_network(),
    SIXFOLD_PAIRS and SIXFOLD_PATTERN, checked and computed once per
    process.  M is the unitary's rows for the pattern's non-idler counts
    (channel d repeated m_d times) and columns for the signal inputs, and
    I = sum_sigma |a_sigma|^2 over a_sigma = prod_k M[k, sigma k].  Raises
    ValidationError unless the channels are distinct, the pattern carries
    every input photon (at most MAX_PERMANENT) with one on each idler
    channel, and each idler's row and column of the unitary are zero off
    the diagonal."""
    pairs, counts = SIXFOLD_PAIRS, SIXFOLD_PATTERN.counts
    channels = [c for p in pairs for c in p]
    if len(set(channels)) != len(channels):
        raise ValidationError("source channels must be distinct")
    u = sixfold_network().unitary
    _check_pattern(u.shape[0], counts, len(channels), channels)
    idlers = [i for _, i in pairs]
    for i in idlers:
        if counts[i] != 1:
            raise ValidationError(
                f"pattern must count one photon on idler channel {i}")
        if np.any(np.delete(u[i], i)) or np.any(np.delete(u[:, i], i)):
            raise ValidationError(f"network mixes idler channel {i}")
    rows = [d for d, c in enumerate(counts) if d not in idlers
            for _ in range(c)]
    sub = u[np.ix_(rows, [s for s, _ in pairs])]
    perms = list(itertools.permutations(range(len(pairs))))
    amps = [complex(math.prod(sub[k, s] for k, s in enumerate(sigma)))
            for sigma in perms]
    signs = [(-1) ** sum(a > b for a, b in itertools.combinations(sigma, 2))
             for sigma in perms]
    norm = math.prod(math.factorial(c) for c in counts)
    return (sum(abs(a) ** 2 for a in amps) / norm,
            abs(sum(sg * a for sg, a in zip(signs, amps))) ** 2 / norm,
            abs(sum(amps)) ** 2 / norm)


def _sixfold_rate_from_moments(p1: float, p2: float, p3: float) -> float:
    """Six-fold rate of three identical sources whose ladder has the
    moments p_k = sum_n lambda_n^k:

        R = I (p1^3 - p3) + |det M|^2 (p3 - p1 p2) / 2
            + |perm M|^2 (p1 p2 + p3) / 2

    with _sixfold_constants.  Tracing out the spectrally blind idlers
    leaves a sum over permutation pairs (sigma, tau) of a_sigma conj(a_tau)
    weighted by the cycle traces of tau sigma^-1 (Tichy, PRA 91, 022316;
    Shchesnovich, PRA 91, 013844): p1^3 for the identity, p1 p2 for a
    transposition, p3 for a 3-cycle.  The sign character of S_3 separates
    the Gram sums of the last two classes, T = (|perm|^2 - |det|^2) / 2 and
    C = (|perm|^2 + |det|^2) / 2 - I."""
    ident, det_sq, perm_sq = _sixfold_constants()
    p12 = p1 * p2
    return (ident * (p1 * p1 * p1 - p3) + 0.5 * det_sq * (p3 - p12)
            + 0.5 * perm_sq * (p12 + p3))


def _sixfold_moments(mu: float, n_modes: int) -> list:
    """p_k = sum_{n < n_modes} lambda_n^k, k = 1, 2, 3, of the truncated
    ladder lambda_n = (1 - mu^2) mu^(2n), in closed form on Python floats:
    lambda_0^k (1 - x^n_modes) / (1 - x) with x = mu^(2k).  lambda_0^k is a
    repeated product and the geometric factor is exactly 1.0 at n_modes = 1
    or mu = 0, so there p1^3 == p1 p2 == p3 and the pattern stays dark."""
    lam, x = 1.0 - mu * mu, mu * mu
    lam_k, x_k, moments = 1.0, 1.0, []
    for _ in range(3):
        lam_k *= lam
        x_k *= x
        moments.append(lam_k * ((1.0 - x_k ** n_modes) / (1.0 - x_k)))
    return moments


def _check_sixfold_args(mu: float, n_modes: int) -> None:
    """Refuse a Schmidt ratio outside [0, 1) and a mode count that is not
    an integer from 1 to MAX_SIXFOLD_MODES, before anything is allocated."""
    if not 0.0 <= mu < 1.0:
        raise ValidationError("mu must lie in [0, 1)")
    if not isinstance(n_modes, (int, np.integer)) \
            or isinstance(n_modes, bool) or n_modes < 1:
        raise ValidationError("n_modes must be an integer of at least 1")
    if n_modes > MAX_SIXFOLD_MODES:
        raise ValidationError(f"n_modes must be at most {MAX_SIXFOLD_MODES}")


def _sixfold_amplitudes(mu: float, n_modes: int) -> np.ndarray:
    """Schmidt amplitudes sqrt(1 - mu^2) (-mu)^n, n < n_modes, of one
    sixfold source."""
    _check_sixfold_args(mu, n_modes)
    return math.sqrt(1.0 - mu * mu) * (-mu) ** np.arange(n_modes)


def sixfold_input(mu: float, n_modes: int) -> SpectralPhotonInput:
    """Three identical two-photon sources with Schmidt amplitudes
    sqrt(1 - mu^2) (-mu)^n (anticorrelated-model signs; detection
    probabilities are sign-independent, which the tests verify)."""
    return SpectralPhotonInput.from_pair_sources(
        SIXFOLD_PAIRS, [_sixfold_amplitudes(mu, n_modes)])


@dataclass(frozen=True)
class SixfoldRate:
    rate: float
    mu: float
    cooperativity: float
    n_modes: int
    truncation_mass: float


def ns_sixfold_rate(mu: float, n_modes: int = 8) -> SixfoldRate:
    """Probability of the six-fold pattern (all three triggers, both MZ
    outputs, the NS herald, nothing in the empty port) for three identical
    Gaussian-model sources at zero relative delay through sixfold_network.

    For single-mode sources (K = 1) the NS-in-MZ circuit forbids the D1/D2
    coincidence exactly; spectral multimodedness (K > 1) leaks rate back
    in, growing with mu, the sources' Schmidt ratio (schmidt.analytic_mu of
    a Gaussian model).  The rate is a function of the ladder's moments
    p_k = sum_n lambda_n^k (_sixfold_rate_from_moments).  With
    |perm M|^2 = 5.9e-33 it reads as distinguishing information:

        R = R_d (p1^3 - p3) - D (p1 p2 - p3),

    R_d = I = 0.2108 the fully distinguishable rate (p2 = p3 = 0) and
    D = |det M|^2 / 2 = 0.4179.  At full mass (p1 = 1), p2 = 1/K is the
    sources' purity, and identical single-mode photons (p2 = p3 = 1) are
    dark.

    The Schmidt ladder is truncated at n_modes per source; the neglected
    mass 1 - (sum_n lambda_n)^3 must stay below SIXFOLD_TRUNC_TOL or the
    call refuses (raise n_modes; the bar tolerates the slow mu = 0.7 tail
    at n_modes >= 6)."""
    _check_sixfold_args(mu, n_modes)
    p1, p2, p3 = _sixfold_moments(float(mu), int(n_modes))
    truncation_mass = 1.0 - p1 * p1 * p1
    if truncation_mass > SIXFOLD_TRUNC_TOL:
        raise ValidationError(
            f"truncated Schmidt mass {truncation_mass:.3g} exceeds "
            f"{SIXFOLD_TRUNC_TOL:g}; raise n_modes")
    return SixfoldRate(rate=_sixfold_rate_from_moments(p1, p2, p3),
                       mu=float(mu),
                       cooperativity=analytic_K(mu),
                       n_modes=int(n_modes),
                       truncation_mass=truncation_mass)
