"""Intersection tails of oriented paths on the Heisenberg Cayley graph, and
the difference-walk Monte Carlo engine shared with the Z^d controls.

A word alpha_0 .. alpha_{k-1} encodes a directed path from the identity:
bit 0 takes the A-edge, bit 1 the B-edge.  After t steps the position is

    x = #zeros, y = #ones, z = -sum over zero bits j < t of (#ones before j)

and two paths occupy the same vertex at time t exactly when their prefix
bit counts and prefix weighted sums sum_{j<t} j*alpha_j both agree.

Two walks meet exactly when their difference walk is at its origin.  The
engine (walk_blocks) packs its position into exact int64 keys in mixed
radix 2h+1 for horizon h: on G_H step j adds (u_j - v_j)(1 + (2h+1) j),
which fits one word up to HEISENBERG_HORIZON_CAP = 2^21 steps
(CapExceededError, exit 3, beyond); on Z^d each letter count gets its own
digit (lattice_pair_keys).  Each step's letter pair is drawn once, as the
index a*d + b (draw_pairs): 4 pairs per byte of raw 64-bit words on G_H,
2 on Z^4, 1 at d = 16, one bounded integer per pair for any other d.  A
chunk of PAIR_CHUNK = 1024 pairs draws from stream(seed, chunk index) and
advances in whole drawn blocks of 256 steps, so all horizons share one
sample-path prefix; it reads meetings off running key sums `== 0`, equal
letters off pair indices that are multiples of d + 1.  A chunk does at
most PAIR_CHUNK_CELLS_CAP pair-steps (exit 3 beyond); map_chunks adds the
chunk results in chunk order as they finish, in O(threads * horizon)
memory, so no result depends on the thread count.  The tails count shared
directed edges of path pairs (coinciding positions at t and equal letters
at t), vertex coincidences, and fresh re-meets after separation.

The engine only counts.  _fit_tail (the weighted geometric fit of a
survivor tail) and continuation_ratios are pure functions of the counts,
and the CLI driver calls them beside its claim verdicts.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ConfigError
from .fitting import LineFit, fit_exponential
from .rng import stream

__all__ = [
    "TailEstimate",
    "tail_estimate",
    "continuation_ratios",
    "HEISENBERG_HORIZON_CAP",
    "PAIR_CHUNK", "PAIR_CHUNK_CELLS_CAP", "THREADS_CAP",
    # the difference-walk engine, shared with reference
    "map_chunks", "lattice_pair_keys", "draw_pairs", "walk_blocks", "pair_chunk", "pair_tail",
]

@dataclass
class TailEstimate:
    """Survivor counts of the intersection tails of sampled walk pairs.

    counts[n] is the number of sampled pairs with at least n shared
    edges; vertex_counts and excursion_counts are the analogous tails for
    vertex coincidences and for fresh re-meets after separation.
    censoring_bound is h^(1-beta)/(beta-1), the integral of t^-beta beyond
    the horizon h (see pair_tail).  It concerns the meetings a pair would
    make after h, and bounds their expected number only if the meeting
    probability u_t is at most t^-beta with constant 1, which nothing
    checks.  On G_H (beta = 2) t^2 u_t rises to 2 sqrt(3)/pi = 1.10, so at
    h = 4096 the figure is about 9% below the expected vertex meetings
    beyond h; shared edges, u_t/2 a step, stay below it.  On Z^d the
    constant passes 1 from d = 10, and at d = 16, h = 2048 the vertex
    meetings in (h, 2h] alone are 24 times the figure.  The CLI driver
    fits rates to these counts (_fit_tail).
    """

    horizon: int
    samples: int
    counts: dict[int, int]
    vertex_counts: dict[int, int]
    excursion_counts: dict[int, int]
    censoring_bound: float


def _survivor_counts(hist: np.ndarray) -> dict[int, int]:
    """Histogram -> survivor counts {n: #values >= n} up to the largest value."""
    nz = np.flatnonzero(hist)
    top = int(nz[-1]) if nz.size else 0
    tail = np.cumsum(hist[: top + 1][::-1])[::-1]
    return {n: int(tail[n]) for n in range(top + 1)}


def _fit_tail(counts: dict[int, int], min_count: int):
    """Weighted geometric fit of a survivor tail: (theta, theta_se, r_squared, fit_range).

    theta is exp(slope) of the fit of log counts[n] against n, weighted by
    counts[n], over fit_range, the n >= 1 with counts[n] >= min_count; all
    None (and fit_range empty) when fewer than three levels qualify.
    """
    ns = sorted(n for n, c in counts.items() if n >= 1 and c >= min_count)
    if len(ns) < 3:
        return None, None, None, []
    y = np.array([counts[n] for n in ns], dtype=float)
    fit: LineFit = fit_exponential(ns, y, weights=y)
    theta = float(np.exp(fit.slope))
    return theta, theta * fit.slope_se, fit.r_squared, ns


# ---------------------------------------------------------------- engine

HEISENBERG_HORIZON_CAP = 2**21  # largest h with h + (2h+1) h(h-1)/2 < 2^63
PAIR_CHUNK = 1024  # walk pairs in every Monte Carlo chunk but the last
# pair-steps in one chunk: this bounds a chunk's work; its memory is one
# block of _BLOCK steps per pair (an int64 key and a few flags each)
PAIR_CHUNK_CELLS_CAP = 2**24
THREADS_CAP = 64  # pool threads; each may start an OS thread
_BLOCK = 256  # steps that every chunk draws and advances at once


def map_chunks(fn, samples: int, horizon: int, threads: int):
    """Sum of fn(size, index) over the PAIR_CHUNK-pair chunks of `samples` pairs.

    Results are added in chunk order as they finish, with at most 2 * threads
    pending.  A chunk of more than PAIR_CHUNK_CELLS_CAP pair-steps over
    `horizon` steps, or more than THREADS_CAP threads, raises
    CapExceededError before any chunk runs or thread starts.
    """
    if horizon < 1 or samples < 1:
        raise ConfigError("horizon and samples must be positive")
    cells = min(PAIR_CHUNK, samples) * horizon
    if cells > PAIR_CHUNK_CELLS_CAP:
        raise CapExceededError(f"a chunk of {min(PAIR_CHUNK, samples)} pairs x {horizon} steps "
                               f"is {cells} cells, above the cap {PAIR_CHUNK_CELLS_CAP}")
    if threads > THREADS_CAP:
        raise CapExceededError(f"{threads} threads exceed the cap {THREADS_CAP}")
    sizes = [min(PAIR_CHUNK, samples - start) for start in range(0, samples, PAIR_CHUNK)]
    total, pending = 0, deque()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for index, size in enumerate(sizes):
            pending.append(pool.submit(fn, size, index))
            if len(pending) == 2 * threads:
                total += pending.popleft().result()
        for future in pending:
            total += future.result()
    return total


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


def draw_pairs(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """(n, _BLOCK) letter-pair indices a*d + b of one block, a and b uniform on 0..d-1.

    When d*d is 4, 16 or 256 the pairs are bit fields of raw 64-bit words:
    each byte holds 8 / log2(d*d) of them, and field i of byte b of word j
    is step (i * words per row + j) * 8 + b.  Any other d draws one bounded
    integer per pair.
    """
    cells = d * d
    if cells not in (4, 16, 256):
        return rng.integers(0, cells, size=(n, _BLOCK), dtype=np.uint8 if d <= 16 else np.uint16)
    bits = cells.bit_length() - 1
    words = rng.integers(0, 2**64, size=(n, _BLOCK * bits // 64), dtype=np.uint64)
    fields = np.empty((n, 8 // bits, words.shape[1]), dtype=np.uint64)
    for i in range(8 // bits):
        np.right_shift(words, np.uint64(bits * i), out=fields[:, i])
    fields &= np.uint64((cells - 1) * 0x0101010101010101)
    return fields.astype("<u8", copy=False).view(np.uint8).reshape(n, _BLOCK)


def walk_blocks(d: int, horizon: int, n: int, seed: int, index: int, *,
                heisenberg: bool = False, live: np.ndarray | None = None):
    """Yield (t0, met, pairs) for each _BLOCK-step block of n difference walks.

    The letter pairs come from draw_pairs on stream(seed, index), a whole
    block at a time, so runs at different horizons share a sample-path
    prefix.  A step adds lattice_pair_keys(d, horizon)[w, pair] to key word
    w; on G_H (d = 2) step j is weighted by 1 + (2h+1) j.  met[:, i] says
    the walks are together after step t0 + i, and pairs[:, i] is the letter
    pair a*d + b of step t0 + i.  Keys carry exactly across blocks; the
    arrays are reused, so read them before the next block.

    live, a boolean mask over the n walks that the caller may clear between
    blocks, limits each block to the walks still live: met and pairs then
    hold their rows in walk order, and the loop ends once none is left.
    Every block still draws all n rows, so the streams do not depend on it.
    """
    if heisenberg and horizon > HEISENBERG_HORIZON_CAP:
        raise CapExceededError(f"horizon {horizon} exceeds {HEISENBERG_HORIZON_CAP}, the "
                               "largest with an exact int64 position key")
    rng = stream(seed, index)
    keys = lattice_pair_keys(d, horizon)
    carry = np.zeros((len(keys), n), dtype=np.int64)
    steps = np.empty((n, _BLOCK), dtype=np.int64)
    met = np.empty((n, _BLOCK), dtype=bool)
    rows, picked = slice(None), None
    for t0 in range(0, horizon, _BLOCK):
        block = min(_BLOCK, horizon - t0)
        pairs = draw_pairs(rng, d, n)
        if live is not None:
            rows = np.flatnonzero(live)
            if not rows.size:
                return
            picked = np.empty_like(pairs) if picked is None else picked
            pairs = np.take(pairs, rows, axis=0, out=picked[:rows.size], mode="clip")
        pairs = pairs[:, :block]
        walks = len(pairs)
        key, m = steps[:walks, :block], met[:walks, :block]
        for w, table in enumerate(keys):
            np.take(table, pairs, out=key, mode="clip")
            if heisenberg:
                key *= 1 + (2 * horizon + 1) * np.arange(t0, t0 + block, dtype=np.int64)
            key[:, 0] += carry[w, rows]
            np.cumsum(key, axis=1, out=key)
            carry[w, rows] = key[:, -1]
            if w == 0:
                np.equal(key, 0, out=m)
            else:
                m &= key == 0
        yield t0, m, pairs


def pair_chunk(d: int, horizon: int, n: int, seed: int, index: int, *,
               heisenberg: bool = False) -> np.ndarray:
    """Shared-edge, vertex and re-meet histograms (3, horizon + 1) of n walk pairs.

    A pair shares the edge of step t when it is together at time t and the
    letters agree (walk_blocks' pair a*d + b is a multiple of d + 1); it
    re-meets at t when together at t but not at t - 1.  Only pairs that are
    together somewhere in a block are looked at there.
    """
    shared, vertices, remeets = counts = np.zeros((3, n), dtype=np.int64)
    before = np.ones(n, dtype=bool)  # every pair starts together
    for _t0, met, pairs in walk_blocks(d, horizon, n, seed, index, heisenberg=heisenberg):
        shared += before & (pairs[:, 0] % (d + 1) == 0)
        rows = np.flatnonzero(met.any(axis=1))
        m, same = met[rows], pairs[rows] % (d + 1) == 0
        shared[rows] += np.count_nonzero(m[:, :-1] & same[:, 1:], axis=1)
        vertices[rows] += np.count_nonzero(m, axis=1)
        remeets[rows] += np.count_nonzero(m[:, 1:] > m[:, :-1], axis=1) + (m[:, 0] > before[rows])
        before = met[:, -1].copy()
    return np.stack([np.bincount(c, minlength=horizon + 1) for c in counts])


def pair_tail(chunk_fn, horizon: int, samples: int, *, threads: int,
              decay_exponent: float) -> TailEstimate:
    """TailEstimate from the pair_chunk histograms of chunk_fn(size, index).

    decay_exponent beta is the per-step meeting decay behind the horizon
    censoring figure sum_{t > horizon} t^-beta <= horizon^(1-beta) / (beta-1),
    inf for beta <= 1; it assumes u_t <= t^-beta with constant 1 (see
    TailEstimate).  The chunks are capped as in map_chunks.
    """
    shared, vertices, remeets = map_chunks(chunk_fn, samples, horizon, threads)
    beta = float(decay_exponent)
    return TailEstimate(
        horizon=horizon,
        samples=samples,
        counts=_survivor_counts(shared),
        vertex_counts=_survivor_counts(vertices),
        excursion_counts=_survivor_counts(remeets),
        censoring_bound=math.inf if beta <= 1.0 else horizon ** (1.0 - beta) / (beta - 1.0),
    )


def _pair_statistics_chunk(horizon: int, n_pairs: int, seed: int, index: int):
    """Shared-edge / vertex / re-meet histograms for one deterministic chunk."""
    return pair_chunk(2, horizon, n_pairs, seed, index, heisenberg=True)


def tail_estimate(horizon: int, samples: int, seed: int, *, threads: int = 1) -> TailEstimate:
    """Monte Carlo intersection tails for uniform path pairs on G_H.

    Pairs are drawn in fixed chunks with one counter-based stream per
    chunk, so the result depends only on (horizon, samples, seed) and
    never on the thread count.  The horizon-censoring figure (see
    TailEstimate) takes the t^-2 decay of G_H meeting probabilities with
    constant 1, where the true constant is 2 sqrt(3)/pi.  Horizons above
    HEISENBERG_HORIZON_CAP raise CapExceededError.
    """
    return pair_tail(
        lambda size, index: _pair_statistics_chunk(horizon, size, seed, index),
        horizon, samples, threads=threads, decay_exponent=2.0,
    )


def continuation_ratios(survivor_counts: dict[int, int], min_count: int):
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
