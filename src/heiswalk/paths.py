"""Oriented paths on the Heisenberg Cayley graph as 0/1 words, and the
difference-walk Monte Carlo engine shared with the Z^d controls.

A word alpha_0 .. alpha_{k-1} encodes a directed path from the identity:
bit 0 takes the A-edge, bit 1 the B-edge.  After t steps the position is

    x = #zeros, y = #ones, z = -sum over zero bits j < t of (#ones before j)

and two paths occupy the same vertex at time t exactly when their prefix
bit counts and prefix weighted sums sum_{j<t} j*alpha_j both agree.

Two walks meet exactly when their difference walk is at its origin.  The
engine packs its position into exact int64 keys in mixed radix 2h+1 for
horizon h: on G_H step j adds (u_j - v_j)(1 + (2h+1) j), which fits one
word up to HEISENBERG_HORIZON_CAP = 2^21 steps (CapExceededError, exit 3,
beyond); on Z^d each letter count gets its own digit (lattice_pair_keys).
A chunk holds at most PAIR_CHUNK_CELLS_CAP pair-steps (exit 3 beyond) and
draws its letters from stream(seed, chunk index), takes running
sums of the per-step keys and reads coincidences off `key == 0`;
map_chunks merges chunks in order, so no result depends on the thread
count.  The tails count shared directed edges of path pairs (coinciding
positions at t and equal letters at t), vertex coincidences, and fresh
re-meets after separation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError
from .fitting import LineFit, fit_exponential
from .heisenberg import GroupElement
from .rng import stream

__all__ = [
    "sample_word",
    "position",
    "weighted_sum",
    "coincides",
    "vertex_coincidences",
    "shared_edges",
    "TailEstimate",
    "tail_estimate",
    "endpoint_collision_frequency",
    "continuation_ratios",
    "DEFAULT_MIN_FIT_COUNT",
    "HEISENBERG_HORIZON_CAP",
    "PAIR_CHUNK_CELLS_CAP",
    # the difference-walk engine, shared with reference
    "map_chunks", "lattice_pair_keys", "lattice_steps", "heisenberg_steps",
    "at_origin", "pair_histograms", "pair_tail",
]

DEFAULT_MIN_FIT_COUNT = 50


def sample_word(k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform 0/1 word of length k as a uint8 array."""
    return rng.integers(0, 2, size=k, dtype=np.uint8)


def _as_bits(word) -> np.ndarray:
    bits = np.asarray(word, dtype=np.uint8)
    if bits.ndim != 1 or np.any(bits > 1):
        raise ValueError("a word is a one-dimensional array of 0/1 bits")
    return bits


def position(word, t: int | None = None) -> GroupElement:
    """Vertex reached after the first t steps of the word."""
    bits = _as_bits(word)
    t = bits.size if t is None else int(t)
    if not 0 <= t <= bits.size:
        raise ValueError(f"time {t} outside 0..{bits.size}")
    prefix = bits[:t].astype(np.int64)
    y = int(prefix.sum())
    ones_before = np.cumsum(prefix) - prefix
    z = -int(ones_before[prefix == 0].sum())
    return GroupElement(t - y, y, z)


def weighted_sum(word, t: int | None = None) -> int:
    """sum_{j < t} j * alpha_j for the first t bits."""
    bits = _as_bits(word)
    t = bits.size if t is None else int(t)
    if not 0 <= t <= bits.size:
        raise ValueError(f"time {t} outside 0..{bits.size}")
    return int(np.dot(np.arange(t, dtype=np.int64), bits[:t].astype(np.int64)))


def coincides(u, v, t: int) -> bool:
    """True when the two paths occupy the same vertex at time t.

    Uses the count/weighted-sum reduction; position() gives the same
    answer by construction of the group law.
    """
    ub, vb = _as_bits(u), _as_bits(v)
    if t > ub.size or t > vb.size:
        raise ValueError("time beyond a word's length")
    if int(ub[:t].sum()) != int(vb[:t].sum()):
        return False
    return weighted_sum(ub, t) == weighted_sum(vb, t)


def vertex_coincidences(u, v) -> int:
    """Number of times t >= 1 at which the paths share a vertex."""
    ub, vb = _as_bits(u), _as_bits(v)
    k = min(ub.size, vb.size)
    return sum(1 for t in range(1, k + 1) if coincides(ub, vb, t))


def shared_edges(u, v) -> int:
    """Number of directed edges traversed by both paths.

    Positions carry their step count, so a common edge is always crossed
    at the same time index by both paths: count steps t with coinciding
    positions at t and equal bits at index t.
    """
    ub, vb = _as_bits(u), _as_bits(v)
    k = min(ub.size, vb.size)
    return sum(1 for t in range(k) if ub[t] == vb[t] and coincides(ub, vb, t))


@dataclass
class TailEstimate:
    """Survivor counts and a fitted geometric ratio for intersection tails.

    counts[n] is the number of sampled pairs with at least n shared
    edges; vertex_counts and excursion_counts are the analogous tails for
    vertex coincidences and for fresh re-meets after separation.
    theta_hat is exp(slope) of a weighted fit of log counts[n] against n
    over fit_range (n >= 1 with counts >= the configured minimum), None
    when fewer than three points qualify.  std_errors hold the per-n
    standard error of log counts[n].  censoring_bound is the integral
    bound on intersections lost beyond the horizon.
    """

    horizon: int
    samples: int
    counts: dict[int, int]
    vertex_counts: dict[int, int] = field(default_factory=dict)
    excursion_counts: dict[int, int] = field(default_factory=dict)
    theta_hat: float | None = None
    theta_se: float | None = None
    r_squared: float | None = None
    fit_range: list[int] = field(default_factory=list)
    std_errors: dict[int, float] = field(default_factory=dict)
    censoring_bound: float = 0.0

    def excursion_fit(self, min_count: int = DEFAULT_MIN_FIT_COUNT):
        """(theta, theta_se, r_squared, fit_range) of the re-meet tail, fitted like theta_hat."""
        return _fit_tail(self.excursion_counts, self.samples, min_count)[:4]


def _survivor_counts(hist: np.ndarray) -> dict[int, int]:
    """Histogram -> survivor counts {n: #values >= n} up to the largest value."""
    nz = np.flatnonzero(hist)
    top = int(nz[-1]) if nz.size else 0
    tail = np.cumsum(hist[: top + 1][::-1])[::-1]
    return {n: int(tail[n]) for n in range(top + 1)}


def _fit_tail(counts: dict[int, int], samples: int, min_count: int):
    """Weighted geometric fit of the survivor tail; returns fit pieces."""
    ns = sorted(n for n, c in counts.items() if n >= 1 and c >= min_count)
    std_errors = {
        n: float(np.sqrt(max(1.0 - c / samples, 0.0) / c))
        for n, c in counts.items()
        if c > 0
    }
    if len(ns) < 3:
        return None, None, None, [], std_errors
    y = np.array([counts[n] for n in ns], dtype=float)
    fit: LineFit = fit_exponential(ns, y, weights=y)
    theta = float(np.exp(fit.slope))
    return theta, theta * fit.slope_se, fit.r_squared, ns, std_errors


# ---------------------------------------------------------------- engine

HEISENBERG_HORIZON_CAP = 2**21  # largest h with h + (2h+1) h(h-1)/2 < 2^63
# pair-steps in one chunk of pair_tail: an int64 key and a few bytes each, so a
# chunk at the cap peaks near 200 MiB per thread
PAIR_CHUNK_CELLS_CAP = 2**24


def map_chunks(fn, total: int, chunk: int, threads: int) -> list:
    """[fn(size, index) for each fixed-size chunk of `total`], in chunk order."""
    sizes = [min(chunk, total - start) for start in range(0, total, chunk)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, sizes, range(len(sizes))))
    return [fn(size, index) for index, size in enumerate(sizes)]


def lattice_pair_keys(d: int, horizon: int) -> np.ndarray:
    """Z^d step keys by letter pair, one row per int64 key word.

    Entry [w, a*d + b] is what a step with letters a and b adds to word w.
    Letter c < d-1 counts (2h+1)^(c mod m) in word c // m, where m is the
    most coordinates with (2h+1)^m < 2^64, so |key| <= ((2h+1)^m - 1)/2
    < 2^63; letter d-1 counts nothing.
    """
    base, m = 2 * horizon + 1, 1
    while base ** (m + 1) < 2**64:
        m += 1
    letter = np.zeros((max(1, -(-(d - 1) // m)), d), dtype=np.int64)
    for c in range(d - 1):
        letter[c // m, c] = base ** (c % m)
    return (letter[:, :, None] - letter[:, None, :]).reshape(len(letter), d * d)


def lattice_steps(keys: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Per-word int64 step keys keys[w, u*d + v] of the Z^d difference walk."""
    d = math.isqrt(keys.shape[1])
    pair = u.astype(np.uint8 if d <= 16 else np.uint16) * d + v  # narrow index: faster lookup
    return (row[pair] for row in keys)


def heisenberg_steps(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """int64 step keys (u_j - v_j)(1 + (2h+1) j) of the G_H difference walk."""
    weights = 1 + (2 * u.shape[1] + 1) * np.arange(u.shape[1], dtype=np.int64)
    return (u.view(np.int8) - v.view(np.int8)) * weights


def at_origin(steps, carry: np.ndarray | None = None) -> np.ndarray:
    """Where the difference walk is at its origin after each step.

    `steps` yields the (n, T) step keys of each key word, which are
    overwritten by running sums.  `carry`, of shape (words, n), holds the
    keys before the first step and is advanced past the last.
    """
    origin = None
    for w, key in enumerate(steps):
        if carry is not None:
            key[:, 0] += carry[w]
        np.cumsum(key, axis=1, out=key)
        if carry is not None:
            carry[w] = key[:, -1]
        origin = key == 0 if origin is None else origin & (key == 0)
    return origin


def pair_histograms(met: np.ndarray, same: np.ndarray):
    """Shared-edge, vertex and re-meet histograms of one chunk of pairs, from
    met[:, i] (walks coincide after step i) and same[:, i] (equal letters)."""
    shared = same[:, 0] + np.count_nonzero(met[:, :-1] & same[:, 1:], axis=1)
    vertices = np.count_nonzero(met, axis=1)
    remeets = np.count_nonzero(met[:, 1:] > met[:, :-1], axis=1)
    return [np.bincount(c, minlength=met.shape[1] + 1) for c in (shared, vertices, remeets)]


def pair_tail(chunk_fn, horizon: int, samples: int, *, min_count: int, threads: int,
              chunk: int, decay_exponent: float) -> TailEstimate:
    """TailEstimate from the pair_histograms of chunk_fn(size, index).

    decay_exponent beta is the per-step meeting decay behind the horizon
    censoring bound sum_{t > horizon} t^-beta <= horizon^(1-beta) / (beta-1),
    vacuous (inf) for beta <= 1.  A chunk of more than PAIR_CHUNK_CELLS_CAP
    pair-steps raises CapExceededError before anything is drawn.
    """
    if horizon < 1 or samples < 1:
        raise ValueError("horizon and samples must be positive")
    cells = min(chunk, samples) * horizon
    if cells > PAIR_CHUNK_CELLS_CAP:
        raise CapExceededError(f"a chunk of {min(chunk, samples)} pairs x {horizon} steps is "
                               f"{cells} cells, above the cap {PAIR_CHUNK_CELLS_CAP}")
    parts = map_chunks(chunk_fn, samples, chunk, threads)
    shared, vertices, remeets = (np.sum(hists, axis=0) for hists in zip(*parts))
    counts = _survivor_counts(shared)
    theta, theta_se, r2, fit_range, std_errors = _fit_tail(counts, samples, min_count)
    beta = float(decay_exponent)
    return TailEstimate(
        horizon=horizon,
        samples=samples,
        counts=counts,
        vertex_counts=_survivor_counts(vertices),
        excursion_counts=_survivor_counts(remeets),
        theta_hat=theta,
        theta_se=theta_se,
        r_squared=r2,
        fit_range=fit_range,
        std_errors=std_errors,
        censoring_bound=math.inf if beta <= 1.0 else horizon ** (1.0 - beta) / (beta - 1.0),
    )


def _heisenberg_pairs(horizon: int, n: int, seed: int, index: int):
    if horizon > HEISENBERG_HORIZON_CAP:
        raise CapExceededError(f"horizon {horizon} exceeds {HEISENBERG_HORIZON_CAP}, the "
                               "largest with an exact int64 position key")
    rng = stream(seed, index)
    u = rng.integers(0, 2, size=(n, horizon), dtype=np.uint8)
    return u, rng.integers(0, 2, size=(n, horizon), dtype=np.uint8)


def _pair_statistics_chunk(horizon: int, n_pairs: int, seed: int, index: int):
    """Shared-edge / vertex / re-meet histograms for one deterministic chunk."""
    u, v = _heisenberg_pairs(horizon, n_pairs, seed, index)
    return pair_histograms(at_origin([heisenberg_steps(u, v)]), u == v)


def tail_estimate(
    horizon: int,
    samples: int,
    seed: int,
    *,
    min_count: int = DEFAULT_MIN_FIT_COUNT,
    decay_exponent: float = 2.0,
    threads: int = 1,
    chunk: int = 1024,
) -> TailEstimate:
    """Monte Carlo intersection tails for uniform path pairs on G_H.

    Pairs are drawn in fixed chunks with one counter-based stream per
    chunk, so the result depends only on (horizon, samples, seed) and
    never on the thread count.  decay_exponent is the per-step collision
    decay rate used for the horizon-censoring bound (see pair_tail).
    Horizons above HEISENBERG_HORIZON_CAP raise CapExceededError.
    """
    return pair_tail(
        lambda size, index: _pair_statistics_chunk(horizon, size, seed, index),
        horizon, samples, min_count=min_count, threads=threads, chunk=chunk,
        decay_exponent=decay_exponent,
    )


def endpoint_collision_frequency(k: int, samples: int, seed: int, chunk: int = 4096) -> float:
    """Fraction of independent pairs of length-k words meeting at time k."""

    def hits(size: int, index: int) -> int:
        u, v = _heisenberg_pairs(k, size, seed, index)
        return int(np.count_nonzero(heisenberg_steps(u, v).sum(axis=1) == 0))

    return sum(map_chunks(hits, samples, chunk, 1)) / samples


def continuation_ratios(survivor_counts: dict[int, int], min_count: int = DEFAULT_MIN_FIT_COUNT):
    """Per-level continuation probabilities of a survivor tail.

    For each n with survivor_counts[n] >= min_count and n+1 present,
    returns (n, ratio, se) rows plus the pooled ratio, where ratio is
    counts[n+1]/counts[n] and se uses the pooled ratio's binomial spread.
    Under a memoryless tail all ratios estimate one constant.
    """
    ns = [
        n
        for n in sorted(survivor_counts)
        if survivor_counts[n] >= min_count and (n + 1) in survivor_counts
    ]
    if not ns:
        return [], float("nan")
    num = sum(survivor_counts[n + 1] for n in ns)
    den = sum(survivor_counts[n] for n in ns)
    pooled = num / den
    rows = []
    for n in ns:
        c = survivor_counts[n]
        ratio = survivor_counts[n + 1] / c
        se = float(np.sqrt(max(pooled * (1.0 - pooled), 1e-12) / c))
        rows.append((n, ratio, se))
    return rows, pooled
