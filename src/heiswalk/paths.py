"""Intersection tails of oriented paths on the Heisenberg Cayley graph, and
the difference-walk Monte Carlo engine shared with the Z^d controls.

A word alpha_0 .. alpha_{k-1} encodes a directed path from the identity:
bit 0 takes the A-edge, bit 1 the B-edge.  After t steps the position is

    x = #zeros, y = #ones, z = -sum over zero bits j < t of (#ones before j)

and two paths occupy the same vertex at time t exactly when their prefix
bit counts and prefix weighted sums sum_{j<t} j*alpha_j both agree.

Two walks meet exactly when their difference walk is at its origin.  The
engine (walk_blocks) draws and advances whole blocks of 256 steps, and
inside a block it keys a walk's position relative to the block start in
32 bits: on G_H P = dX + 1024 V, with dX the block's move in the zero-letter
count difference and V = sum over block steps i of i times step i's move,
so |P| <= 33,423,616; on Z^d three 10-bit coordinate fields a lane, with
ceil((d-1)/3) lanes (_lanes).  Steps i and i + 128 share one int64 word,
the low lane biased by 2^31.  A lane's words come from table lookups, and
their row sums give the lane's move over the block, so between blocks each
walk's state stays exact in int64: (X, W - t0 X) on G_H, the d-1
coordinates on Z^d.  Only walks that can meet in the block are scanned:
those that one block can bring back to the origin, and, lane by lane,
those that every earlier lane found at its origin at some step.  A
scanned walk's carry-in is the key at which it is back at the origin, and
one cumsum over 128 columns and one compare against the pattern [2^31, 0]
give every meeting.  On G_H that state, |X| <= h and |W - t0 X| <= 3h^2/2
at horizon h, keeps the carry-in X + 1024 (W - t0 X) below 2^59 through
h = 2^24, the most PAIR_CHUNK_CELLS_CAP gives one pair.  Each step's letter
pair a*d + b is drawn once (draw_pairs): the bytes of raw 64-bit words hold
4 pairs each on G_H and 2 on Z^4, and any other d draws one uint8 bounded
integer per pair (d <= 16 keeps a*d + b below 256).  At d = 4 a byte holds
the two steps that share a word, so one lookup of the raw bytes builds the
words; at d = 2 a byte holds two such step pairs, looked up in a
per-position table that also folds in the G_H step weights 1 + 1024 i; any
other d looks each step's pair up apart.  A chunk of PAIR_CHUNK = 1024
pairs draws from stream(seed, chunk index), so all horizons share one
sample-path prefix.  A chunk does at most PAIR_CHUNK_CELLS_CAP pair-steps
(exit 3 beyond); map_chunks adds the chunk results in chunk order as they
finish, in O(threads * max count) memory, so no result depends on the
thread count.  The tails count shared directed edges of path pairs
(coinciding positions at t and equal letters at t), vertex coincidences,
and fresh re-meets after separation; two walks at one vertex stay together
exactly when their letters agree, so the shared edges are the vertex
meetings that are not re-meets.

The engine only counts: pair_tail, and so tail_estimate, returns one int64
array (3, m + 1) whose rows are the shared-edge, vertex and re-meet
survivor tails, column n the pairs with at least n.  _fit_tail (the pooled
continuation ratio of a survivor row, its one estimate of a geometric tail
ratio) and continuation_ratios are pure functions of the counts, and the
CLI calls them beside its claim verdicts and its censoring figures.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import CapExceededError, ConfigError
from .rng import stream

__all__ = [
    "tail_estimate",
    "continuation_ratios",
    "PAIR_CHUNK", "PAIR_CHUNK_CELLS_CAP", "THREADS_CAP",
    # the difference-walk engine, shared with reference
    "map_chunks", "draw_pairs", "walk_blocks", "pair_chunk", "pair_tail",
]

def _fit_tail(row: list[int], min_count: int):
    """Pooled geometric ratio of a survivor row: (theta, theta_se, levels).

    row[n] counts the pairs with at least n (see pair_tail).  levels are the n
    with row[n] >= min_count and row[n + 1] > 0, and theta = sum of
    row[n + 1] / sum of row[n] over them: each of those row[n] pairs is one
    trial of going on past n, so theta is the maximum-likelihood ratio of a
    geometric tail cut after the last level, and theta_se =
    sqrt(theta (1 - theta) / trials) its binomial spread.  Both are NaN when
    no level qualifies.
    """
    levels = [n for n in range(len(row) - 1) if row[n] >= min_count and row[n + 1] > 0]
    trials = sum(row[n] for n in levels)
    if not trials:
        return math.nan, math.nan, levels
    theta = sum(row[n + 1] for n in levels) / trials
    return theta, math.sqrt(theta * (1.0 - theta) / trials), levels


# ---------------------------------------------------------------- engine

PAIR_CHUNK = 1024  # walk pairs in every Monte Carlo chunk but the last
# pair-steps in one chunk: this bounds a chunk's work, and a G_H horizon to
# 2^24; its memory is one block of _BLOCK steps per pair (an int64 of words
# and scratch, and two flags each)
PAIR_CHUNK_CELLS_CAP = 2**24
THREADS_CAP = 64  # pool threads; each may start an OS thread
_BLOCK = 256  # steps that every chunk draws and advances at once
_HALF = _BLOCK // 2  # steps i and i + _HALF of a walk share one int64 word
_RADIX = 1024  # a lane's fields: 10-bit Z^d coordinates, or dX below V on G_H
_BIAS = 2**31  # added to the low lane, which then stays in 0 .. 2^32 - 1
_MET = np.full(_HALF, _BIAS, dtype=np.int64).view(np.uint32)  # both lanes at 0
_BYTE_ROW = 256 * np.arange(_HALF, dtype=np.uint16).reshape(-1, 64)  # d = 2: c's table row


def map_chunks(fn, samples: int, horizon: int, threads: int):
    """Sum of fn(size, index) over the PAIR_CHUNK-pair chunks of `samples` pairs.

    Results are added in chunk order as they finish, with at most 2 * threads
    pending; arrays of unequal length in their last axis add as if the
    shorter were zero-padded.  A chunk of more than PAIR_CHUNK_CELLS_CAP
    pair-steps over `horizon` steps, or more than THREADS_CAP threads, raises
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
    total, pending = np.zeros(0, dtype=np.int64), deque()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for index, size in enumerate(sizes):
            pending.append(pool.submit(fn, size, index))
            if len(pending) == 2 * threads:
                total = _add(total, pending.popleft().result())
        for future in pending:
            total = _add(total, future.result())
    return total


def _add(total, part):
    """total + part, the shorter zero-padded in its last axis."""
    if total.shape[-1] < part.shape[-1]:
        total, part = part, total
    total[..., :part.shape[-1]] += part
    return total


def draw_pairs(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """(n, m) draws of one block's letter pairs a*d + b, a and b uniform on 0..d-1.

    At d = 2 and 4 a pair takes log2(d*d) = d bits, and these are the bytes
    of raw 64-bit words, m = _BLOCK * d / 8: bit field i of byte k holds the
    pair of step k + i * m, so byte k holds steps k and k + 128 at d = 4,
    and steps k, k + 64, k + 128 and k + 192 at d = 2.  Any other d, at most
    16, draws one uint8 bounded integer per pair, m = _BLOCK, in step order.
    """
    if d not in (2, 4):
        return rng.integers(0, d * d, size=(n, _BLOCK), dtype=np.uint8)
    words = rng.integers(0, 2**64, size=(n, _BLOCK * d // 64), dtype=np.uint64)
    return words.astype("<u8", copy=False).view(np.uint8)


@functools.cache  # the tables are read only, and shared by every chunk
def _lanes(d: int, heisenberg: bool):
    """(tables, reach) of the block-relative keys of d-letter walk pairs.

    A lane is a 32-bit key; lane w of a walk after block step s is the sum
    of its fields of the walk's state and their moves over steps 0..s of
    the block, as digits of radix _RADIX.  On Z^d the state is the walks'
    difference in letters 0..d-2, three coordinates a lane (letter d-1
    moves none; a last lane of fewer coordinates keeps idle fields at 0),
    and a block moves each by at most _BLOCK.  On G_H it is (X, Y) in one
    lane: X the difference in zero letters and Y = W - t0 X, where W = sum
    over steps j of j times step j's move in X and t0 is the first step of
    the block; a block moves X by dX (at most _BLOCK) and Y by V = sum over
    block steps i of i times step i's move (at most _BLOCK (_BLOCK - 1) / 2),
    so block step i keys its move (1 + _RADIX i).  reach[f] is the most a
    block moves field f of a lane.

    tables[w] maps letter pairs to lane w's keys (see _words): at d = 4 by
    the byte p_c + 16 p_(c + _HALF), to the key of block step c in the low
    32 bits of an int64 word and of step c + _HALF in the high 32; at d = 2
    likewise by 256 c + the byte that holds steps c and c + _HALF, in its
    bit fields c // 64 and 2 + c // 64 (see draw_pairs); at any other d by
    the pair index a*d + b, to one step's key.
    """
    a, b = np.divmod(np.arange(d * d), d)
    keys = []  # lane by lane
    for first in range(0, d - 1, 3):
        letter = np.zeros(d, dtype=np.int64)
        coords = np.arange(first, min(first + 3, d - 1))
        letter[coords] = _RADIX ** (coords - first)
        keys.append(letter[a] - letter[b])
    if heisenberg:
        reach = np.array([[_BLOCK], [_BLOCK * (_BLOCK - 1) // 2]])
    else:
        reach = np.full((3, 1), _BLOCK)
    if d == 4:
        return [((key[:, None] << 32) + key).ravel() for key in keys], reach
    if d != 2:
        return keys, reach
    weight = 1 + _RADIX * np.arange(_BLOCK) if heisenberg else np.ones(_BLOCK, dtype=np.int64)
    byte, col = np.arange(256), np.arange(_HALF)[:, None]

    def step(key, s):  # key of block step s by byte value
        return key[byte >> 2 * (s // 64) & 3] * weight[s]

    return [(step(key, col) + (step(key, col + _HALF) << 32)).ravel() for key in keys], reach


def _codes(drawn: np.ndarray, d: int) -> np.ndarray:
    """One block's indices into the tables of _lanes, from draw_pairs'
    values: at d = 2, 256 c + the byte that holds steps c and c + _HALF; at
    any other d the draws themselves."""
    if d != 2:
        return drawn
    at = np.empty((len(drawn), *_BYTE_ROW.shape), dtype=np.uint16)
    np.add(drawn[:, None], _BYTE_ROW, out=at)
    return at.reshape(len(drawn), _HALF)


def _words(table: np.ndarray, codes: np.ndarray, out: np.ndarray, spare: np.ndarray) -> None:
    """One lane's (walks, _HALF) int64 words of a block, into out, through a
    table of _lanes; spare is scratch of out's shape."""
    if codes.shape[1] == _HALF:  # d = 2 and 4: a code holds both steps
        np.take(table, codes, out=out, mode="clip")
    else:  # one lookup a step
        np.take(table, codes[:, _HALF:], out=out, mode="clip")
        out <<= 32
        out += np.take(table, codes[:, :_HALF], out=spare, mode="clip")


def _totals(words: np.ndarray):
    """(low, move) of one lane's unscanned words: the low lane's move over
    block steps 0.._HALF - 1, and the lane's move over the whole block."""
    total = words.sum(axis=1)
    low = ((total + _BIAS) & 0xFFFFFFFF) - _BIAS
    return low, low + ((total - low) >> 32)


def _scan(words: np.ndarray, carry: np.ndarray, low: np.ndarray) -> None:
    """Block positions, in place, from one lane's words, the walks' carry-ins
    and the low lane's totals (the move over block steps 0.._HALF - 1).

    Afterwards column c holds 2^31 + carry + P_c in its low 32 bits and
    carry + P_(c + _HALF) in its high 32, where P_s is the lane's key after
    block step s: the high lane starts from carry + low, and one cumsum
    moves both lanes.  A walk is together after step s exactly when its
    lane reads 2^31 (low) or 0 (high): the pattern _MET.
    """
    words[:, 0] += _BIAS + carry + ((carry + low) << 32)
    np.cumsum(words, axis=1, out=words)


def walk_blocks(d: int, horizon: int, n: int, seed: int, index: int, *,
                heisenberg: bool = False):
    """Yield (t0, rows, met, fresh) for each _BLOCK-step block of n difference walks.

    The letter pairs come from draw_pairs on stream(seed, index), a whole
    block at a time, so runs at different horizons share a sample-path
    prefix.  Within a block a walk's position is a 32-bit key per lane
    (see _lanes), and steps i and i + _HALF share one int64 word: lookups
    build each lane's words, whose row sums give the lane's move over the
    block, and _scan turns them into positions in one cumsum over _HALF
    columns.  Between blocks each walk's state stays exact in int64, and
    its carry-in is the block-relative key at which it is back at the
    origin.  Only candidates are scanned: walks that every lane can bring
    back within the block and that earlier lanes found together at some
    step of it.

    rows are the walks together after some drawn step of the block (in a
    last block cut short by the horizon, maybe only after it), met[r, i]
    says walk rows[r] is together after step t0 + i < horizon, and fresh[r, i]
    that it is but was not a step before, a re-meet (all start together).
    The caller caps the horizon: the G_H state stays exact through 2^24
    steps, the most that map_chunks gives one pair.
    """
    rng = stream(seed, index)
    tables, reach = _lanes(d, heisenberg)
    lanes, fields = len(tables), len(reach)
    place = (_RADIX ** np.arange(fields))[:, None]  # a lane's field weights
    state = np.zeros((lanes, fields, n), dtype=np.int64)
    words, spare = np.empty((2, n, _HALF), dtype=np.int64)  # spare: scratch, then candidates
    met, lane_met = np.empty((2, n, _BLOCK), dtype=bool)
    moves = np.empty((lanes, fields, n), dtype=np.int64)
    before = np.ones(n, dtype=bool)  # together after the previous block's last step
    for t0 in range(0, horizon, _BLOCK):
        block = min(_BLOCK, horizon - t0)
        codes = _codes(draw_pairs(rng, d, n), d)
        carry = (place * state).sum(axis=1)
        sel = np.flatnonzero((np.abs(state) <= reach).all(axis=(0, 1)))
        together = met[:0]  # over sel: together in every lane so far
        for lane, table in enumerate(tables):
            _words(table, codes, words, spare)
            low, moves[lane, 0] = _totals(words)  # the lane's move is split below
            if not sel.size:
                continue
            if sel.size == n:
                scan, pick = words, slice(None)
            else:
                scan = np.take(words, sel, axis=0, out=spare[:sel.size], mode="clip")
                pick = sel
            _scan(scan, carry[lane, pick], low[pick])
            if lane == 0:
                together = np.equal(scan.view(np.uint32), _MET, out=met[:sel.size])
            else:
                together &= np.equal(scan.view(np.uint32), _MET, out=lane_met[:sel.size])
            keep = together.any(axis=1)
            if not keep.all():
                sel, together = sel[keep], together[keep]
        if t0 + _BLOCK < horizon:  # add the block's moves, digit by digit
            for f in range(fields - 1):
                moves[:, f + 1] = moves[:, f]
                moves[:, f] = (moves[:, f] + _RADIX // 2) % _RADIX - _RADIX // 2
                moves[:, f + 1] -= moves[:, f]
                moves[:, f + 1] //= _RADIX
            state += moves
            if heisenberg:  # Y = W - t0 X at the next block's t0
                state[0, 1] -= _BLOCK * state[0, 0]
        lanes_met = together.reshape(len(sel), _HALF, 2)  # column c, lane h: step c + h * _HALF
        flags = lanes_met.transpose(0, 2, 1).reshape(len(sel), _BLOCK)[:, :block]
        fresh = flags > np.column_stack([before[sel], flags[:, :-1]])
        before[:] = False
        before[sel] = flags[:, -1]
        yield t0, sel, flags, fresh


def pair_chunk(d: int, horizon: int, n: int, seed: int, index: int, *,
               heisenberg: bool = False) -> np.ndarray:
    """Shared-edge, vertex and re-meet histograms (3, m + 1) of n walk pairs,
    m their most vertex meetings (neither other count exceeds it).

    A pair re-meets at each fresh meeting of walk_blocks.  It shares the edge
    of step t when together at t and the letters of step t agree, and two
    walks at one vertex stay together exactly when their letters agree: so
    its shared edges are its vertex meetings less its re-meets.
    """
    vertices, remeets = np.zeros((2, n), dtype=np.int64)
    for _t0, rows, met, fresh in walk_blocks(d, horizon, n, seed, index, heisenberg=heisenberg):
        vertices[rows] += np.count_nonzero(met, axis=1)
        remeets[rows] += np.count_nonzero(fresh, axis=1)
    width = int(vertices.max()) + 1
    return np.stack([np.bincount(c, minlength=width)
                     for c in (vertices - remeets, vertices, remeets)])


def pair_tail(chunk_fn, horizon: int, samples: int, *, threads: int) -> np.ndarray:
    """Survivor tails (3, m + 1) of the pair_chunk histograms of chunk_fn(size, index).

    Rows are shared edges, vertex meetings and re-meets; column n counts the
    pairs with at least n.  The chunks are capped as in map_chunks.
    """
    hist = map_chunks(chunk_fn, samples, horizon, threads)
    return np.cumsum(hist[:, ::-1], axis=1)[:, ::-1]


def _pair_statistics_chunk(horizon: int, n_pairs: int, seed: int, index: int):
    """Shared-edge / vertex / re-meet histograms for one deterministic chunk."""
    return pair_chunk(2, horizon, n_pairs, seed, index, heisenberg=True)


def tail_estimate(horizon: int, samples: int, seed: int, *, threads: int = 1) -> np.ndarray:
    """Monte Carlo intersection tails (pair_tail) for uniform path pairs on G_H.

    Pairs are drawn in fixed chunks with one counter-based stream per
    chunk, so the result depends only on (horizon, samples, seed) and
    never on the thread count.  The chunks are capped as in map_chunks, so
    horizons above 2^24 raise CapExceededError.
    """
    return pair_tail(
        lambda size, index: _pair_statistics_chunk(horizon, size, seed, index),
        horizon, samples, threads=threads,
    )


def continuation_ratios(row: list[int], min_count: int):
    """Per-level continuation probabilities of a survivor row.

    Returns an (n, ratio, se) row for each level of _fit_tail, where ratio
    is row[n+1]/row[n] and se the pooled ratio's binomial spread at
    row[n].  Under a memoryless tail all ratios estimate one constant,
    _fit_tail's theta.
    """
    pooled, _se, levels = _fit_tail(row, min_count)
    spread = max(pooled * (1.0 - pooled), 1e-12)
    return [(n, row[n + 1] / row[n], math.sqrt(spread / row[n])) for n in levels]
