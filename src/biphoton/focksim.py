"""Multimode linear-optics Fock simulation over channel x spectral-mode space.

Photons are labeled by a *channel* (spatial rail, mixed by the network
unitary) and a *spectral mode* index (orthonormal Schmidt basis, untouched
by the network).  Detectors are broadband and time-integrating: they count
photons per channel but do not resolve the spectral label, so distinct
output spectral contents add incoherently while amplitudes landing in the
same (channel, mode) occupation add coherently.  Probabilities come from
permanents of the relevant channel submatrices, one spectral-label
assignment at a time (`pattern_probability`, the general path).

Pair sources whose idlers go to their own trigger channels, untouched by
the network and each counted once, have a closed form instead:
`pair_source_probability` traces the spectrally blind idlers out, leaving
each signal in a diagonal state, and sums over permutation pairs of the
signal submatrix weighted by cycle traces of the Schmidt ladders (Tichy,
PRA 91, 022316 (2015); Shchesnovich, PRA 91, 013844 (2015)).  It refuses
any input that breaks those preconditions; `ns_sixfold_rate` runs on it.

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

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ValidationError
from .schmidt import analytic_K, analytic_mu
from .serialize import to_json_text
from .spectra import GaussianSourceModel

MAX_PERMANENT = 12


# ----------------------------------------------------------------------
# Elements and networks
# ----------------------------------------------------------------------

def beamsplitter(r: float, convention: str = "std") -> np.ndarray:
    """2x2 beamsplitter with intensity reflectivity r.

    "std" puts the pi phase on one reflection:  [[sr, st], [st, -sr]];
    "flip" moves it to the other side:          [[-sr, st], [st, sr]].
    Both are real orthogonal; they differ by local pi phases only.
    """
    if not 0.0 <= r <= 1.0:
        raise ValidationError("reflectivity must lie in [0, 1]")
    sr, st = math.sqrt(r), math.sqrt(1.0 - r)
    if convention == "std":
        return np.array([[sr, st], [st, -sr]])
    if convention == "flip":
        return np.array([[-sr, st], [st, sr]])
    raise ValidationError(f"unknown beamsplitter convention {convention!r}")


@dataclass(frozen=True, eq=False)
class LinearNetwork:
    """Channel unitary built as an ordered product of beamsplitter and
    phase elements.  Instances are immutable; bs()/phase() return a new
    network with the element appended (applied after the existing ones).
    The element log is kept so a network can be rebuilt (from_elements)
    or serialized."""

    n_channels: int
    unitary: np.ndarray
    elements: Tuple[dict, ...] = ()

    def __post_init__(self):
        err = self.unitarity_error()
        if err > 1e-10:
            raise ValidationError(f"network unitary violates U+U=I by {err:g}")

    @classmethod
    def identity(cls, n_channels: int) -> "LinearNetwork":
        if n_channels < 1:
            raise ValidationError("need at least one channel")
        return cls(n_channels, np.eye(n_channels, dtype=complex), ())

    def unitarity_error(self) -> float:
        g = self.unitary.conj().T @ self.unitary
        return float(np.max(np.abs(g - np.eye(self.n_channels))))

    def _check_channel(self, i: int):
        if not 0 <= i < self.n_channels:
            raise ValidationError(f"channel {i} out of range")

    def bs(self, i: int, j: int, r: float,
           convention: str = "std") -> "LinearNetwork":
        self._check_channel(i)
        self._check_channel(j)
        if i == j:
            raise ValidationError("beamsplitter needs two distinct channels")
        b = beamsplitter(r, convention)
        e = np.eye(self.n_channels, dtype=complex)
        e[np.ix_([i, j], [i, j])] = b
        log = self.elements + ({"type": "bs", "channels": [i, j], "r": r,
                                "convention": convention},)
        return LinearNetwork(self.n_channels, e @ self.unitary, log)

    def phase(self, i: int, phi: float) -> "LinearNetwork":
        self._check_channel(i)
        e = np.eye(self.n_channels, dtype=complex)
        e[i, i] = np.exp(1j * phi)
        log = self.elements + ({"type": "phase", "channel": i, "phi": phi},)
        return LinearNetwork(self.n_channels, e @ self.unitary, log)

    @classmethod
    def from_elements(cls, n_channels: int, elements) -> "LinearNetwork":
        """Apply an element log to the identity: {type: "bs", channels:
        [i, j], r, convention?} or {type: "phase", channel: i, phi}."""
        net = cls.identity(int(n_channels))
        for e in elements:
            if e["type"] == "bs":
                net = net.bs(int(e["channels"][0]), int(e["channels"][1]),
                             float(e["r"]), e.get("convention", "std"))
            elif e["type"] == "phase":
                net = net.phase(int(e["channel"]), float(e["phi"]))
            else:
                raise ValidationError(f"unknown element type {e['type']!r}")
        return net


def network_json_text(net: LinearNetwork) -> str:
    return to_json_text({"n_channels": net.n_channels,
                         "elements": list(net.elements)})


def load_network_json(path) -> LinearNetwork:
    """Read a network written by network_json_text:
    {"n_channels": n, "elements": [...]} (see LinearNetwork.from_elements)."""
    with open(path, "r") as fh:
        doc = json.load(fh)
    return LinearNetwork.from_elements(doc["n_channels"], doc["elements"])


# ----------------------------------------------------------------------
# Permanent
# ----------------------------------------------------------------------

def permanent(matrix) -> complex:
    """Permanent by Ryser's inclusion-exclusion with Gray-code updates,
    O(2^n n); capped at n = 12 (this is a desk-scale tool, and 2^12 row-sum
    updates per call is where patience runs out)."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("permanent needs a square matrix")
    n = a.shape[0]
    if n > MAX_PERMANENT:
        raise ValidationError(f"permanent capped at {MAX_PERMANENT}x{MAX_PERMANENT}")
    if n == 0:
        return 1.0 + 0.0j
    sums = np.zeros(n, dtype=complex)
    total = 0.0 + 0.0j
    prev = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        bit = gray ^ prev
        j = bit.bit_length() - 1
        if gray & bit:
            sums += a[:, j]
        else:
            sums -= a[:, j]
        prev = gray
        if bin(gray).count("1") & 1:
            total -= np.prod(sums)
        else:
            total += np.prod(sums)
    if n & 1:
        total = -total
    return complex(total)


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

    @property
    def total(self) -> int:
        return sum(self.counts)


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
    if len(weights) == 1 and len(pairs) > 1:
        weights = weights * len(pairs)
    if len(weights) != len(pairs):
        raise ValidationError("need one weight list per source")
    chans = [c for p in pairs for c in p]
    if len(set(chans)) != len(chans):
        raise ValidationError("source channels must be distinct")
    kept = 1.0
    for w in weights:
        mass = float(np.sum(np.abs(w) ** 2))
        if mass > 1.0 + 1e-9:
            raise ValidationError("source weights exceed unit mass")
        kept *= mass
    return weights, kept


# ----------------------------------------------------------------------
# Detection probabilities
# ----------------------------------------------------------------------

def _iter_mode_configs(mode_counts, capacities):
    """All ways to split each spectral mode's multiplicity over channels so
    channel totals match capacities; yields tuples of (channel, mode, k)."""
    modes = sorted(mode_counts)
    nch = len(capacities)

    def over_modes(mi, caps, acc):
        if mi == len(modes):
            yield tuple(acc)
            return
        m = modes[mi]

        def over_channels(ch, left, caps, acc2):
            if ch == nch:
                if left == 0:
                    yield from over_modes(mi + 1, caps, acc + acc2)
                return
            top = min(left, caps[ch])
            for k in range(top, -1, -1):
                if k:
                    nxt = list(caps)
                    nxt[ch] -= k
                    yield from over_channels(ch + 1, left - k, nxt,
                                             acc2 + [(ch, m, k)])
                else:
                    yield from over_channels(ch + 1, left, caps, acc2)

        yield from over_channels(0, mode_counts[m], list(caps), [])

    yield from over_modes(0, list(capacities), [])


def _config_amplitude(u, nz, photons, config) -> Optional[complex]:
    """<config | U | photons> for one spectral-label assignment, or None
    when a zero row/column forces a vanishing permanent."""
    slots = []
    out_norm = 1.0
    for d, m, k in config:
        out_norm *= math.factorial(k)
        slots.extend([(d, m)] * k)
    for d, ms in slots:
        if not any(mm == ms and nz[d, cc] for cc, mm in photons):
            return None
    for cc, mm in photons:
        if not any(ms == mm and nz[d, cc] for d, ms in slots):
            return None
    n = len(photons)
    mat = np.zeros((n, n), dtype=complex)
    for i, (d, ms) in enumerate(slots):
        for j, (cc, mm) in enumerate(photons):
            if mm == ms:
                mat[i, j] = u[d, cc]
    in_norm = 1.0
    for cnt in Counter(photons).values():
        in_norm *= math.factorial(cnt)
    return permanent(mat) / math.sqrt(in_norm * out_norm)


def pattern_probability(network: LinearNetwork, inp: SpectralPhotonInput,
                        pattern: DetectionPattern) -> float:
    """Probability of the detection pattern.  Terms whose total spectral
    content differs cannot interfere (the network never changes a photon's
    mode label), so they are grouped by mode multiset; within a group every
    distinct output (channel, mode) occupation is an orthogonal outcome
    whose amplitude is a coherent sum over the group's terms."""
    if len(pattern.counts) != network.n_channels:
        raise ValidationError("pattern length must match channel count")
    if pattern.total != inp.photon_number:
        raise ValidationError(
            f"pattern counts {pattern.total} photons, input carries "
            f"{inp.photon_number}")
    if inp.photon_number > MAX_PERMANENT:
        raise ValidationError(f"photon number capped at {MAX_PERMANENT}")
    u = network.unitary
    nz = np.abs(u) > 0.0
    groups = {}
    for amp, photons in inp.terms:
        key = tuple(sorted(m for _, m in photons))
        groups.setdefault(key, []).append((amp, photons))
    total = 0.0
    for key, terms in groups.items():
        mode_counts = Counter(key)
        for config in _iter_mode_configs(mode_counts, pattern.counts):
            out_amp = 0.0 + 0.0j
            for amp, photons in terms:
                a = _config_amplitude(u, nz, photons, config)
                if a is not None:
                    out_amp += amp * a
            if out_amp != 0.0:
                total += abs(out_amp) ** 2
    return total


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


def pair_source_probability(network: LinearNetwork, pairs, weights,
                            pattern: DetectionPattern) -> float:
    """pattern_probability of from_pair_sources(pairs, weights) when every
    idler sits on a channel the network leaves alone and is counted there.

    Tracing out the spectrally blind idler detectors leaves signal j in the
    diagonal state rho_j = sum_n lambda_jn |n><n|, lambda_jn = |w_jn|^2, so

        P = (1 / prod_d m_d!) sum_{sigma, tau in S_n}
            prod_k M[k, sigma k] conj(M[k, tau k])
            prod_{cycles C of tau sigma^-1} sum_n prod_{j in C} lambda_jn

    with M the unitary's rows for the pattern's non-idler counts (channel d
    repeated m_d times) and columns for the signal inputs; the cycles act on
    source labels (Tichy, PRA 91, 022316; Shchesnovich, PRA 91, 013844).
    Ladders of unequal length are zero-padded.  Raises ValidationError
    unless each idler's row and column of the unitary are zero off the
    diagonal, the pattern counts exactly one photon on each idler channel,
    the channels are distinct, each source's mass is at most 1, and the
    pattern carries all 2n photons with 2n <= MAX_PERMANENT."""
    pairs = [(int(s), int(i)) for s, i in pairs]
    weights, _ = _pair_weights(pairs, weights)
    n = len(pairs)
    if len(pattern.counts) != network.n_channels:
        raise ValidationError("pattern length must match channel count")
    if pattern.total != 2 * n:
        raise ValidationError(
            f"pattern counts {pattern.total} photons, sources carry {2 * n}")
    if 2 * n > MAX_PERMANENT:
        raise ValidationError(f"photon number capped at {MAX_PERMANENT}")
    if any(not 0 <= c < network.n_channels for p in pairs for c in p):
        raise ValidationError("source channel out of range")
    u = network.unitary
    idlers = [i for _, i in pairs]
    for i in idlers:
        if pattern.counts[i] != 1:
            raise ValidationError(
                f"pattern must count one photon on idler channel {i}")
        if np.any(np.delete(u[i], i)) or np.any(np.delete(u[:, i], i)):
            raise ValidationError(f"network mixes idler channel {i}")
    lam = np.zeros((n, max(len(w) for w in weights)))
    for j, w in enumerate(weights):
        lam[j, :len(w)] = np.abs(w) ** 2
    rows = [d for d, c in enumerate(pattern.counts) if d not in idlers
            for _ in range(c)]
    sub = u[np.ix_(rows, [s for s, _ in pairs])]
    perms = list(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    amps = np.array([np.prod(sub[range(n), p]) for p in perms])
    traces = [math.prod(float(np.sum(np.prod(lam[c], axis=0)))
                        for c in _cycles(pi)) for pi in perms]
    # The pi-sums of sum_sigma a_sigma conj(a_{pi sigma}) add up to
    # |perm M|^2: splitting off the smallest cycle trace that way keeps a
    # pattern that indistinguishable photons cannot reach dark to roundoff.
    floor = min(traces)
    total = floor * abs(np.sum(amps)) ** 2
    for pi, trace in zip(perms, traces):
        # tau = pi o sigma, so tau sigma^-1 = pi
        partner = [index[tuple(pi[k] for k in sigma)] for sigma in perms]
        total += (trace - floor) * np.vdot(amps[partner], amps)
    norm = math.prod(math.factorial(c) for c in pattern.counts)
    return float(np.real(total)) / norm


def _cycles(perm):
    """Cycles of a permutation given as a tuple of images."""
    seen, out = set(), []
    for start in range(len(perm)):
        cycle, j = [], start
        while j not in seen:
            seen.add(j)
            cycle.append(j)
            j = perm[j]
        if cycle:
            out.append(cycle)
    return out


# ----------------------------------------------------------------------
# NS gate
# ----------------------------------------------------------------------

# Reflectivities solving c0 = c1 = -c2 with the largest heralding
# probability (|c0|^2 = 1/4 exactly) in the sandwich topology below; the
# grid+simplex search in the tests recovers them independently.
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
    on A before and on B after a standard splitter; the flipped element
    bs(a, b, s, convention="flip") gives the same unitary."""
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


def _ns_map_residual(x) -> float:
    """Distance from the target map shape (c0, c1, c2) proportional to
    (1, 1, -1); zero exactly on the sign-flipping solution set."""
    r, s = x
    if not (1e-6 < r < 1.0 - 1e-6 and 1e-6 < s < 1.0 - 1e-6):
        return 10.0
    m = ns_conditional_map(NSGateConfig(r=float(r), s=float(s)))
    return abs(m.c1 - m.c0) ** 2 + abs(m.c2 + m.c0) ** 2


@dataclass(frozen=True)
class NSSearchResult:
    r: float
    s: float
    objective: float
    map: NSConditionalMap


def ns_search() -> NSSearchResult:
    """Recover the ideal reflectivities numerically.

    Two stages: every strict local minimum of the map residual on a 41 x 41
    (r, s) grid over [0.02, 0.98] is polished with Nelder-Mead; among the
    polished points that satisfy the (1, 1, -1) proportionality to 1e-10,
    the one with the highest success probability |c0|^2 wins.  (The
    residual alone has more than one zero; the success probability breaks
    the tie.)
    """
    from scipy.optimize import minimize  # only this search needs scipy

    rs = np.linspace(0.02, 0.98, 41)
    vals = np.array([[_ns_map_residual((r, s)) for s in rs] for r in rs])
    starts = []
    for i in range(len(rs)):
        for j in range(len(rs)):
            patch = vals[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2]
            if vals[i, j] <= patch.min():
                starts.append((float(rs[i]), float(rs[j])))
    best = None
    for x0 in starts:
        res = minimize(_ns_map_residual, x0, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-24,
                                "maxiter": 4000})
        if res.fun > 1e-10:
            continue
        r, s = float(res.x[0]), float(res.x[1])
        cand = NSSearchResult(r, s, float(res.fun),
                              ns_conditional_map(NSGateConfig(r=r, s=s)))
        if best is None or cand.map.success > best.map.success:
            best = cand
    if best is None:
        raise ValidationError("no (r, s) satisfied the map proportionality")
    return best


# ----------------------------------------------------------------------
# Two-mode Mach-Zehnder stage test
# ----------------------------------------------------------------------

def _apply_two_mode(state: dict, b: np.ndarray) -> dict:
    """Evolve {(n0, n1): amp} under a 2x2 channel unitary b
    (a_c+ -> sum_d b[d, c] a_d+)."""
    out = {}
    for (n0, n1), amp in state.items():
        poly = {(0, 0): amp / math.sqrt(math.factorial(n0)
                                        * math.factorial(n1))}
        for col, reps in ((0, n0), (1, n1)):
            for _ in range(reps):
                nxt = {}
                for (k0, k1), cval in poly.items():
                    for d, key in ((0, (k0 + 1, k1)), (1, (k0, k1 + 1))):
                        add = cval * b[d, col]
                        if add != 0.0:
                            nxt[key] = nxt.get(key, 0.0 + 0.0j) + add
                poly = nxt
        for (k0, k1), cval in poly.items():
            amp_out = cval * math.sqrt(math.factorial(k0)
                                       * math.factorial(k1))
            if amp_out != 0.0:
                out[(k0, k1)] = out.get((k0, k1), 0.0 + 0.0j) + amp_out
    return {k: v for k, v in out.items() if v != 0.0}


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
    s1 = _apply_two_mode({(1, 1): 1.0 + 0.0j}, b)
    s2 = {k: v * np.exp(1j * (phase / 2.0) * k[0]) for k, v in s1.items()}
    s3 = _apply_two_mode(s2, b)
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

def sixfold_network() -> LinearNetwork:
    """Two balanced splitters on (3, 4) bracketing an ideal NS gate on
    (4, 5, 6): the Mach-Zehnder-with-NS circuit fed by three pair sources."""
    net = LinearNetwork.identity(7).bs(3, 4, 0.5)
    net = ns_network(NSGateConfig(), base=net, channels=(4, 5, 6))
    return net.bs(3, 4, 0.5)


def _sixfold_amplitudes(mu: float, n_modes: int) -> np.ndarray:
    """Schmidt amplitudes sqrt(1 - mu^2) (-mu)^n, n < n_modes, of one
    sixfold source (a single mode at mu = 0)."""
    if not 0.0 <= mu < 1.0:
        raise ValidationError("mu must lie in [0, 1)")
    if n_modes < 1:
        raise ValidationError("need at least one spectral mode")
    n = np.arange(n_modes)
    return math.sqrt(1.0 - mu * mu) * (-mu) ** n if mu > 0.0 \
        else np.array([1.0])


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


def ns_sixfold_rate(model: Optional[GaussianSourceModel] = None, *,
                    mu: Optional[float] = None,
                    n_modes: int = 8) -> SixfoldRate:
    """Probability of the six-fold pattern (all three triggers, both MZ
    outputs, the NS herald, nothing in the empty port) for three identical
    Gaussian-model sources at zero relative delay through sixfold_network.

    For single-mode sources (K = 1) the NS-in-MZ circuit forbids the D1/D2
    coincidence exactly; spectral multimodedness (K > 1) leaks rate back
    in, growing with mu.  Give either a model or mu directly.

    The Schmidt ladder is truncated at n_modes per source; the neglected
    mass 1 - (sum_n lambda_n)^3 must stay below SIXFOLD_TRUNC_TOL or the
    call refuses (raise n_modes; the bar tolerates the slow mu = 0.7 tail
    at n_modes >= 6)."""
    if (model is None) == (mu is None):
        raise ValidationError("give exactly one of model or mu")
    if mu is None:
        mu = analytic_mu(model)
    weights, kept = _pair_weights(SIXFOLD_PAIRS,
                                  [_sixfold_amplitudes(mu, n_modes)])
    truncation_mass = 1.0 - kept
    if truncation_mass > SIXFOLD_TRUNC_TOL:
        raise ValidationError(
            f"truncated Schmidt mass {truncation_mass:.3g} exceeds "
            f"{SIXFOLD_TRUNC_TOL:g}; raise n_modes")
    rate = pair_source_probability(sixfold_network(), SIXFOLD_PAIRS,
                                   weights, SIXFOLD_PATTERN)
    return SixfoldRate(rate=rate, mu=float(mu),
                       cooperativity=analytic_K(mu) if mu > 0 else 1.0,
                       n_modes=n_modes,
                       truncation_mass=truncation_mass)

