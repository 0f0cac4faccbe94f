"""Reference models: oriented walks on Z^d and simple random walk on G_H.

These calibrate the Heisenberg results against lattices where the
answers are classical:

* zd_collision_probability -- exact meeting probability at time k of two
  oriented walks on Z^d (uniform positive steps), k^(-(d-1)/2) scale.
* zd_meeting_sequence, first_renewals, theta_d_exact -- the exact renewal
  layer.  Two walks that meet start afresh, so their meeting times form a
  renewal process whose renewal sequence is the meeting probability u_t
  (Feller, vol. 1, ch. XIII).  zd_meeting_sequence gives u_0..u_h on Z^d
  by a recursion over halves of the letters, first_renewals the law f of
  the first meeting from any renewal sequence, and theta_d_exact the
  horizon-censored embedded return probability theta_d(h).  The pass is
  O(h^2 log d); horizons above RENEWAL_HORIZON_CAP = 2^14 raise
  CapExceededError.
* theta_d_estimate -- Monte Carlo counts of the returns of the difference
  of two oriented walks, whose return probability is the constant
  governing intersection tails: how many walks return by the horizon, and
  how many first return in its second half.  The difference walk holds in
  place with probability 1/d; by convention a return only counts once the
  walk has actually left the origin, i.e. the returns sample the embedded
  (jump-chain) return probability, theta_d_exact.  Derived constants for
  the other conventions are provided: lazy_return_probability folds the
  holds back in, and edge_collision_rate is the exact geometric ratio of
  the shared-edge tail implied by a renewal argument at each shared edge.
* zd_eit_tail -- the same survivor tails as on G_H (paths.pair_tail).
  It and theta_d_estimate run on the difference-walk engine of `paths`;
  their letter pairs a*d + b are raw bytes at d in {2, 4} and a uint8
  draw at any other d, so d above ZD_MAX_D = 16 is a ConfigError.
* srw_return_profile -- exact return probabilities of simple random
  walk on G_H (uniform on a, a^-1, b, b^-1), n^(-2) scale at even times.
  The step law is symmetric, so P_2n(e) = sum_g P_n(g)^2: a dense
  convolution runs only to n = t_max // 2, on the rotated sublattice that
  the time-n law occupies, in a z window sized for n, and the window's
  clipping error stays below the reported dropped mass.
* srw_mutual_intersections -- Monte Carlo range intersections of two
  independent SRWs at doubling time checkpoints (unbounded growth): batch
  b of INTERSECTION_CHUNK pairs draws its walks' letters in one call on
  stream(seed, b) and sorts both walks' visits once, and both first visit
  times of each common vertex are read off two adjacent sorted entries.
  It returns the checkpoint times and each pair's count at each of them;
  the CLI computes their means, standard errors and growth z-score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapExceededError, ConfigError
from .paths import PAIR_CHUNK, PAIR_CHUNK_CELLS_CAP, map_chunks, pair_chunk, pair_tail, walk_blocks
from .rng import stream

__all__ = [
    "zd_collision_probability",
    "theta_d_estimate",
    "lazy_return_probability",
    "edge_collision_rate",
    "zd_meeting_sequence",
    "first_renewals",
    "theta_d_exact",
    "zd_eit_tail",
    "srw_return_profile",
    "SrwReturnProfile",
    "srw_mutual_intersections",
    "ZD_COLLISION_WORK_CAP",
    "RENEWAL_HORIZON_CAP",
    "ZD_MAX_D",
    "SRW_TIME_CAP",
    "INTERSECTION_TIME_CAP",
]

ZD_COLLISION_WORK_CAP = 2**21  # d * (k + 1)^2 of zd_collision_probability
# steps (2^14); the largest horizon a full chunk reaches under the cells cap
RENEWAL_HORIZON_CAP = PAIR_CHUNK_CELLS_CAP // PAIR_CHUNK
ZD_MAX_D = 16  # Monte Carlo Z^d: every letter pair a*d + b fits in one byte
# walk steps; two (t_max // 2 + 1)^2 x (2 b_z + 1) float64 buffers, 56 MB at the cap
SRW_TIME_CAP = 128
# walk steps; _sorted_visits sorts key * 2(t+1) + position, below 2^63 up to t = 4704
INTERSECTION_TIME_CAP = 2**12
# sample pairs per stream and sort; batch b draws stream(seed, b), and its
# int64 composites and scratch peak at about 2 MiB at t_max = 1024
INTERSECTION_CHUNK = 32


def zd_collision_probability(d: int, k: int) -> float:
    """P[two independent oriented k-step walks on Z^d end at the same site].

    Each step adds a uniformly chosen basis vector, so the endpoint is a
    multinomial count vector and the meeting probability is N_d(k) / d^(2k),
    N_d(t) = sum_v multinomial(t; v)^2 the number of word pairs of length t
    that meet.  It is counted in exact integers by the letter split of
    zd_meeting_sequence (_zd_meeting_counts), and rounded once.

    The split at d takes k + 1 terms, and each distinct letter count below
    it other than 1 and 2 (at most two per halving, so at most 2 log2 d)
    takes (k + 1)(k + 2) / 2.  The work figure d * (k + 1)^2 is thus an
    upper bound on the terms, and above ZD_COLLISION_WORK_CAP raises
    CapExceededError before any is done.  The largest accepted calls take
    at most about 0.3 s on a 2-core Xeon (d = 9, k = 481), and d = 4,
    k = 723, a single split of N_2 by N_2, takes 0.02 s.
    """
    if d < 1:
        raise ConfigError("d must be >= 1")
    if k < 0:
        raise ConfigError("k must be >= 0")
    if (work := d * (k + 1) ** 2) > ZD_COLLISION_WORK_CAP:
        raise CapExceededError(f"d={d}, k={k}: work d*(k+1)^2 = {work} exceeds the cap "
                               f"{ZD_COLLISION_WORK_CAP}")
    return float(Fraction(_zd_meeting_counts(d, k), d ** (2 * k)))


def _zd_meeting_counts(d: int, k: int) -> int:
    """N_d(k) = sum_v multinomial(k; v)^2 over the count vectors v of Z^d.

    Split the letters into a = d // 2 and b = d - a: a meeting pair of
    words takes m letters from the first part in both words, in C(t, m)^2
    ways, and meets within each part, so

        N_d(t) = sum_m C(t, m)^2 N_a(m) N_b(t - m),

    with N_1(t) = 1 and N_2(t) = C(2t, t).  The parts' counts are kept for
    every t <= k, once per distinct letter count; the top one is taken at
    t = k alone.
    """
    seqs = {1: [1] * (k + 1), 2: [math.comb(2 * t, t) for t in range(k + 1)]}

    def split(letters: int, t: int) -> int:
        a = letters // 2
        total, c = 0, 1  # c = C(t, m)
        for m, x, y in zip(range(t + 1), seq(a), reversed(seq(letters - a)[: t + 1])):
            total += c * c * (x * y)
            c = c * (t - m) // (m + 1)
        return total

    def seq(letters: int) -> list[int]:
        if letters not in seqs:
            seqs[letters] = [split(letters, t) for t in range(k + 1)]
        return seqs[letters]

    return seq(d)[k] if d <= 2 else split(d, k)


def zd_meeting_sequence(d: int, horizon: int) -> np.ndarray:
    """u_t = P[two oriented walks on Z^d meet at time t] for t = 0..horizon.

    zd_collision_probability in float64, for every t at once.  Split the
    letters into a = d // 2 and b = d - a: the walks meet at t when both
    take m of the first a letters, for some m, and then meet within each
    part, so with p = a/d and q = b/d

        u^(d)_t = sum_m [C(t,m) p^m q^(t-m)]^2 u^(a)_m u^(b)_(t-m),

    where u^(1) = 1 and u^(2)_t = C(2t,t)/4^t, a running product.  Every
    term is non-negative; the binomial rows grow by Pascal's rule.  The
    work is O(horizon^2 log d).
    """
    if d < 1 or horizon < 0:
        raise ConfigError("need d >= 1 and horizon >= 0")
    if horizon > RENEWAL_HORIZON_CAP:
        raise CapExceededError(f"horizon {horizon} exceeds the exact renewal cap "
                               f"{RENEWAL_HORIZON_CAP}")
    t = np.arange(1, horizon + 1)
    seqs = {1: np.ones(horizon + 1),
            2: np.concatenate(([1.0], np.cumprod((2 * t - 1) / (2 * t))))}

    def seq(letters: int) -> np.ndarray:
        if letters not in seqs:
            a = letters // 2
            seqs[letters] = _split_letters(seq(a), seq(letters - a), a / letters,
                                           (letters - a) / letters)
        return seqs[letters]

    return seq(d)


def _split_letters(ua: np.ndarray, ub: np.ndarray, p: float, q: float) -> np.ndarray:
    """sum_m Binomial(t, p)(m)^2 ua[m] ub[t - m] for t = 0..len(ua) - 1."""
    h = len(ua) - 1
    u = np.empty(h + 1)
    row, nxt = np.zeros((2, h + 1))  # the Binomial(t, p) pmf; zero above t
    row[0] = 1.0
    ub_reversed = ub[::-1].copy()
    for t in range(h + 1):
        if t:
            np.multiply(row[:t + 1], q, out=nxt[:t + 1])
            nxt[1:t + 1] += p * row[:t]
            row, nxt = nxt, row
        w = row[:t + 1] * row[:t + 1]
        w *= ua[:t + 1]
        u[t] = np.dot(w, ub_reversed[h - t:])
    return u


def first_renewals(u: np.ndarray) -> np.ndarray:
    """f_t = P[first renewal at t] from a renewal sequence u (u_0 = 1).

    Solves the renewal equation u_t = sum_{s=1..t} f_s u_(t-s) for t >= 1:
    f_0 = 0 and f_t = u_t - sum_{s<t} f_s u_(t-s).  The n-th renewal has
    law f convolved n times with itself.
    """
    u = np.asarray(u, dtype=float)
    h = len(u) - 1
    f = np.zeros(h + 1)
    u_reversed = u[::-1].copy()
    for t in range(1, h + 1):
        f[t] = u[t] - np.dot(f[1:t], u_reversed[h - t + 1:h])
    return f


def theta_d_exact(d: int, horizon: int) -> float:
    """P[the Z^d difference walk returns by `horizon`], embedded convention.

    The exact value that theta_d_estimate samples.  f = first_renewals of
    zd_meeting_sequence(d, horizon) is the first time the lazy difference
    walk is back at 0; f_1 = 1/d is a hold at step 1, and dropping it leaves
    phi, first returns that start with a move.  A return after j initial
    holds has weight d^-j, so theta_d(h) = sum_{t<=h} acc_t with
    acc_t = acc_(t-1)/d + phi_t.  The pass is float64 with no proven bound;
    against exact rationals its relative error is at most 1e-14 at (d, h) =
    (4, 48), (5, 40) and (16, 32) (tested; measured 1.4e-16, 3.2e-16 and
    1.2e-16).  Horizons above RENEWAL_HORIZON_CAP raise CapExceededError;
    d outside 2..ZD_MAX_D is a ConfigError.
    """
    if not 2 <= d <= ZD_MAX_D:
        raise ConfigError(f"d must be in 2..{ZD_MAX_D}, the range of theta_d_estimate")
    phi = first_renewals(zd_meeting_sequence(d, horizon))
    phi[1:2] = 0.0  # f_1 = 1/d, the hold
    acc = total = 0.0
    for value in phi[1:].tolist():
        acc = acc / d + value
        total += acc
    return total


def lazy_return_probability(d: int, theta_embedded: float) -> float:
    """Return probability counting holds at the origin as returns.

    The difference walk holds with probability 1/d; a hold at the origin
    is itself a time at the origin, so the lazy-convention probability
    is 1/d + (1 - 1/d) * theta_embedded.
    """
    return 1.0 / d + (1.0 - 1.0 / d) * theta_embedded


def edge_collision_rate(d: int, theta_embedded: float) -> float:
    """Geometric ratio of the shared-edge tail implied by returns.

    From coinciding positions the walks share the next edge with
    probability 1/d; otherwise they separate and meet again with the
    embedded return probability, restarting the trial.  Solving the
    renewal equation q = 1/d + (1 - 1/d) * theta * q gives the ratio.
    It always lies below the lazy-convention return probability, which
    is why that constant bounds the shared-edge tail.
    """
    return (1.0 / d) / (1.0 - (1.0 - 1.0 / d) * theta_embedded)


def _theta_chunk(d: int, horizon: int, n: int, seed: int, index: int) -> np.ndarray:
    """First-return times (0 = none by horizon) for one stream of walks.

    A first return is the first fresh meeting that walk_blocks yields.
    """
    return_time = np.zeros(n, dtype=np.int64)
    for t0, walks, _met, fresh in walk_blocks(d, horizon, n, seed, index):
        hit = fresh.any(axis=1) & (return_time[walks] == 0)
        return_time[walks[hit]] = t0 + np.argmax(fresh[hit], axis=1) + 1
    return return_time


def theta_d_estimate(d: int, horizon: int, samples: int, seed: int, *,
                     threads: int = 1) -> tuple[int, int]:
    """Monte Carlo returns of the difference walk: (returned, late).

    Simulates the difference of two oriented walks for `horizon` steps and
    counts the walks that revisit the origin after having left it, and
    those whose first such return is later than horizon // 2.
    returned / samples estimates the embedded return probability, whose
    value theta_d_exact gives.  Each chunk folds to its two counts; the
    chunks are capped as in paths.map_chunks.
    """
    if not 2 <= d <= ZD_MAX_D:
        raise ConfigError(f"d must be in 2..{ZD_MAX_D} for a nondegenerate difference walk")

    def counts(size: int, index: int) -> np.ndarray:
        times = _theta_chunk(d, horizon, size, seed, index)
        return np.array([np.count_nonzero(times), np.count_nonzero(times > horizon // 2)])

    return tuple(map_chunks(counts, samples, horizon, threads).tolist())


def _zd_pair_chunk(d: int, horizon: int, n: int, seed: int, index: int):
    """Shared-edge / vertex / re-meet histograms for one chunk of Z^d pairs."""
    return pair_chunk(d, horizon, n, seed, index)


def zd_eit_tail(d: int, horizon: int, samples: int, seed: int, *, threads: int = 1) -> np.ndarray:
    """Intersection tails (paths.pair_tail) for oriented walk pairs on Z^d.

    The same survivor rows as the Heisenberg tail_estimate.  The re-meet
    row (fresh re-meets after separation) is the statistic whose geometric
    ratio equals the embedded return probability; the shared-edge ratio
    equals edge_collision_rate of it.
    """
    if not 2 <= d <= ZD_MAX_D:
        raise ConfigError(f"d must be in 2..{ZD_MAX_D}")
    return pair_tail(
        lambda size, idx: _zd_pair_chunk(d, horizon, size, seed, idx),
        horizon, samples, threads=threads,
    )


@dataclass(frozen=True)
class SrwReturnProfile:
    """P[SRW on G_H is at the identity at time t] for t = 0..len-1.

    The step law is symmetric, so P_2n(e) = sum_g P_n(g)^2, and only the
    time-n law P_n is evolved.  The time-s law lives on |x| + |y| <= s,
    x + y = s (mod 2), and is held whole on P = (s + x + y) / 2,
    Q = (s + x - y) / 2, both in 0..s; the one clip is in z, to the window
    |z| <= b_z (see _srw_box), which drops the mass a step moves beyond it.
    The clipped evolution P~_n is a sub-probability with P~_n <= P_n
    pointwise, and `dropped_mass` = 1 - sum_g P~_m(g) at m = t_max // 2
    is nondecreasing in m.  Every P_n(g) <= 1/4 for n >= 1, being a
    quarter of the time-(n-1) mass of four distinct points, so

        0 <= P_2n(e) - sum_g P~_n(g)^2
          = sum_g (P_n - P~_n)(g) (P_n + P~_n)(g) <= dropped_mass / 2,

    and `dropped_mass` bounds the absolute error of every entry.  Odd
    times are exactly zero by parity.

    Rounding: each step adds nonnegative terms, at most three roundings
    per value, and probabilities[2s] sums the squares over the m =
    (s + 1)^2 (2 w_z + 1) cells of step s's rotated window, w_z = min(s^2 // 4,
    b_z) (see _srw_box), so it lies within a relative gamma_(6s+m) of
    sum_g P~_s(g)^2, gamma_j = j u / (1 - j u) and u = 2^-53; no value
    underflows at t <= SRW_TIME_CAP.  With the clipping,

        P_2s(e) (1 - gamma) - dropped_mass / 2 <= probabilities[2s]
                                               <= P_2s(e) (1 + gamma),

    dropped_mass being itself a rounded sum of the rotated buffer.  Through t = 54
    every P~_s(g) is a multiple of 4^-s below 1, exact in float64, and
    only the sum of squares rounds.
    """

    probabilities: np.ndarray
    dropped_mass: float


def _srw_box(n: int) -> int:
    """Half-width b_z of the z window that holds the clipped time-n law."""
    # z tails decay like exp(-c|z|/n): a window linear in n suffices, and 6.4n
    # keeps the total clipped mass below 1e-10 out to n=64 (measured)
    return min(n * (n - 1) // 2 + 1, int(math.ceil(6.4 * n)) + 4)


def srw_return_profile(t_max: int) -> SrwReturnProfile:
    """Exact SRW return probabilities on G_H for all times up to t_max."""
    if t_max < 0:
        raise ConfigError("t_max must be >= 0")
    if t_max > SRW_TIME_CAP:
        raise CapExceededError(f"t_max={t_max} exceeds cap {SRW_TIME_CAP}")
    n = t_max // 2
    b_z = _srw_box(n)
    # axes (P, Q, z): step s fills P, Q <= s (see SrwReturnProfile)
    cur = np.zeros((n + 1, n + 1, 2 * b_z + 1))
    cur[0, 0, b_z] = 1.0
    nxt = np.zeros_like(cur)
    diag = n + 2  # with (P, Q) flattened, the rows from one cell to the next of a diagonal
    probs = np.zeros(t_max + 1)
    probs[0] = 1.0
    for s in range(1, n + 1):
        # after s steps |z| <= s^2/4 (each a-step moves z by |y| <= the number
        # of b-steps), so step s reads and writes only that window; outside it
        # both buffers hold zeros
        w_z = min(s * s // 4, b_z)
        zw = slice(b_z - w_z, b_z + w_z + 1)
        src, dst = cur[:s, :s, zw], nxt[:s + 1, :s + 1, zw]
        nz = 2 * w_z + 1
        # b step: (P+1, Q, z); b inverse: (P, Q+1, z)
        dst[0] = 0.0
        dst[1:, s] = 0.0
        dst[1:, :s] = src
        dst[:s, 1:] += src
        # a step: (P+1, Q+1, z-y); a inverse: (P, Q, z+y).  Diagonal y of the
        # time-(s-1) law has s - |y| cells, from (y, 0) or (0, -y)
        flat_src, flat_dst = (a.reshape((n + 1) ** 2, -1)[:, zw] for a in (cur, nxt))
        for y in range(1 - s, s):
            first = y * (n + 1) if y >= 0 else -y
            last = first + (s - abs(y)) * diag
            cells = slice(first, last, diag)
            moved = slice(first + diag, last + diag, diag)
            lo = slice(max(0, -y), nz - max(0, y))
            hi = slice(max(0, y), nz - max(0, -y))
            flat_dst[moved, lo] += flat_src[cells, hi]
            flat_dst[cells, hi] += flat_src[cells, lo]
        dst *= 0.25
        # a fixed-order sum over the window: no BLAS, whose order depends
        # on its thread count
        probs[2 * s] = np.einsum("ijk,ijk->", dst, dst)
        cur, nxt = nxt, cur
    return SrwReturnProfile(probs, max(0.0, 1.0 - float(cur.sum())))


def srw_mutual_intersections(
    n_base: int, samples: int, seed: int, num_doublings: int
) -> tuple[tuple[int, ...], np.ndarray]:
    """Common range vertices of two SRWs at doubling checkpoints: (times, values).

    times are 0, n_base, 2*n_base, ..., 2^num_doublings * n_base, and
    values[i, j], int64, is |range_u(times[j]) intersect range_v(times[j])|
    for sample pair i.  A vertex is common at time T when both walks have
    visited it by T; at time 0 both ranges are {identity}, so column 0 is 1.
    A last checkpoint above INTERSECTION_TIME_CAP is a CapExceededError.
    """
    if n_base < 1 or samples < 1:
        raise ConfigError(f"n_base={n_base} and samples={samples} must be positive")
    # n_base >= 1, so 2^num_doublings alone passes the cap from that bit length on
    if (num_doublings >= INTERSECTION_TIME_CAP.bit_length()
            or n_base * 2**num_doublings > INTERSECTION_TIME_CAP):
        raise CapExceededError(f"last checkpoint {n_base} * 2^{num_doublings} exceeds cap "
                               f"{INTERSECTION_TIME_CAP}")
    times = (0,) + tuple(n_base * 2**i for i in range(num_doublings + 1))
    t_max = times[-1]
    values = np.zeros((samples, len(times)), dtype=np.int64)
    visits = np.empty((INTERSECTION_CHUNK, 2 * (t_max + 1)), dtype=np.int64)
    for lo in range(0, samples, INTERSECTION_CHUNK):
        n = min(INTERSECTION_CHUNK, samples - lo)
        letters = stream(seed, lo // INTERSECTION_CHUNK).integers(
            0, 4, size=(2 * n, t_max), dtype=np.uint8)
        values[lo:lo + n] = _common_counts(_sorted_visits(letters, visits[:n]), times)
    return times, values


def _sorted_visits(letters: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out, each row one pair's visits as sorted composites key * 2(t+1) + position.

    letters holds t steps of walks u0, v0, u1, v1, ...  As |x|, |y| <= t and
    |z| <= t^2 / 4, (x, y, z) has the key ((x + t)(2t + 1) + y + t) B + z +
    t^2 // 4, B = 2(t^2 // 4) + 1, one int64 prefix sum: a adds A - y and
    a^-1 y - A, A = (2t + 1) B and y taken before the step; b and b^-1 add
    +-B.  u's visit at time s takes position t - s and v's t + 1 + s, so
    each key's entries are u's visits in reverse time, then v's in forward
    time.  The largest composite, (2t + 1)^2 B 2(t + 1) - 1, is below 2^63
    up to t = 4704, above INTERSECTION_TIME_CAP; int64 would wrap beyond.
    """
    t = letters.shape[1]
    b = 2 * (t * t // 4) + 1
    steps = letters.astype(np.intp)
    y = np.take(np.array([0, 0, 1, -1], dtype=np.int16), steps)
    np.cumsum(y, axis=1, out=y)
    keys = out.reshape(-1, t + 1)
    keys[:, 0] = (t * (2 * t + 1) + t) * b + t * t // 4  # the identity
    np.take(np.array([1, -1, 0, 0]) * (2 * t + 1) * b + [0, 0, b, -b], steps, out=keys[:, 1:])
    keys[:, 2:] -= np.take(np.array([1, -1, 0, 0], dtype=np.int16), steps[:, 1:]) * y[:, :-1]
    np.cumsum(keys, axis=1, out=keys)
    keys *= 2 * (t + 1)
    out.reshape(len(out), 2, t + 1)[:] += [np.arange(t, -1, -1), np.arange(t + 1, 2 * t + 2)]
    out.sort(axis=1)
    return out


def _common_counts(rows: np.ndarray, times) -> np.ndarray:
    """Per row of _sorted_visits, how many vertices both walks visited by each checkpoint.

    A vertex is common from the later of its first visits: the adjacent
    entries where its key's u visits meet its v visits.  G_H is bipartite
    in the parity of x + y, which is the time's, so those two composites
    differ by an odd number and two visits of one walk by an even one.
    Entries of one key differ by less than the width 2(t + 1); so may the
    last of key k and the first of key k + 1, whose u time then decodes
    above t.  Positions are decoded at the odd gaps below the width alone.
    """
    width = rows.shape[1]
    gap = rows[:, 1:] - rows[:, :-1]
    row, col = np.nonzero((gap < width) & ((gap & 1) == 1))
    v_time = rows[row, col + 1] % width - width // 2
    u_time = gap[row, col] - 1 - v_time  # t less the position before
    same = u_time < width // 2
    bucket = np.searchsorted(np.asarray(times), np.maximum(u_time, v_time)[same])
    counts = np.bincount(row[same] * len(times) + bucket, minlength=len(rows) * len(times))
    return np.cumsum(counts.reshape(len(rows), len(times)), axis=1)
