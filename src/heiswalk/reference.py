"""Reference models: oriented walks on Z^d and simple random walk on G_H.

These calibrate the Heisenberg results against lattices where the
answers are classical:

* zd_collision_probability -- exact meeting probability at time k of two
  oriented walks on Z^d (uniform positive steps), k^(-(d-1)/2) scale.
* theta_d_estimate -- Monte Carlo return probability of the difference
  of two oriented walks, the constant governing intersection tails.  The
  difference walk holds in place with probability 1/d; by convention a
  return only counts once the walk has actually left the origin, i.e.
  the estimate targets the embedded (jump-chain) return probability.
  Derived constants for the other conventions are provided:
  lazy_return_probability folds the holds back in, and
  edge_collision_rate is the exact geometric ratio of the shared-edge
  tail implied by a renewal argument at each shared edge.
* zd_eit_tail -- the same shared-edge tail statistic as on G_H.
  It and theta_d_estimate run on the difference-walk engine of `paths`;
  their letter pairs are drawn as uint16 indices a*d + b, so d above
  ZD_MAX_D = 256 is a ConfigError.
* srw_return_probability -- exact return probabilities of simple random
  walk on G_H (uniform on a, a^-1, b, b^-1), n^(-2) scale at even times.
  The step law is symmetric, so P_2n(e) = sum_g P_n(g)^2: a dense
  convolution runs only to n = t_max // 2, in a box sized for n, and the
  box clipping error stays below the reported dropped mass.
* srw_mutual_intersections -- Monte Carlo range intersections of two
  independent SRWs at doubling time checkpoints (unbounded growth),
  from each walk's first visit time to every vertex of its range;
  fewer than two sample pairs is a ConfigError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapExceededError, ConfigError
from .paths import DEFAULT_MIN_FIT_COUNT, TailEstimate, map_chunks, pair_chunk, pair_tail
from .paths import walk_blocks
from .rng import stream

__all__ = [
    "zd_collision_probability",
    "theta_d_estimate",
    "lazy_return_probability",
    "edge_collision_rate",
    "difference_walk_return_by",
    "zd_eit_tail",
    "srw_return_probability",
    "srw_return_profile",
    "SrwReturnProfile",
    "srw_mutual_intersections",
    "IntersectionGrowth",
    "ZD_COLLISION_K_CAP",
    "ZD_MAX_D",
    "SRW_TIME_CAP",
    "INTERSECTION_TIME_CAP",
]

ZD_COLLISION_K_CAP = 2048
ZD_MAX_D = 256  # Monte Carlo letter pairs a*d + b are drawn as uint16
SRW_TIME_CAP = 128  # walk steps; memory grows like (t_max // 2)^3
INTERSECTION_TIME_CAP = 2**15  # walk steps; positions pack exactly into int64 keys
INTERSECTION_CHUNK = 128  # sample pairs per sort; bounds the batch's memory


def zd_collision_probability(d: int, k: int) -> float:
    """P[two independent oriented k-step walks on Z^d end at the same site].

    Each step adds a uniformly chosen basis vector, so the endpoint is a
    multinomial count vector and the meeting probability is
    sum_v (multinomial(k; v) / d^k)^2.  Evaluated in exact integer
    arithmetic as a one-dimensional convolution over coordinates:
    squared binomial factors accumulate against the slots used so far.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > ZD_COLLISION_K_CAP:
        raise CapExceededError(f"k={k} exceeds cap {ZD_COLLISION_K_CAP}")
    f = [0] * (k + 1)
    f[0] = 1
    for _ in range(d):
        g = [0] * (k + 1)
        for t in range(k + 1):
            acc = 0
            for v in range(t + 1):
                prev = f[t - v]
                if prev:
                    acc += prev * math.comb(k - (t - v), v) ** 2
            g[t] = acc
        f = g
    return float(Fraction(f[k], d ** (2 * k)))


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
    """First-return times (0 = none by horizon) for one stream of walks."""
    has_left = np.zeros(n, dtype=bool)
    return_time = np.zeros(n, dtype=np.int64)
    for t0, home, _same in walk_blocks(d, horizon, n, seed, index):
        # only walks at the origin somewhere in the block can return in it
        rows = np.flatnonzero(home.any(axis=1) & (return_time == 0))
        left_by = np.logical_or.accumulate(~home[rows], axis=1)
        ret = home[rows] & (left_by | has_left[rows, None])
        hit = ret.any(axis=1)
        return_time[rows[hit]] = t0 + np.argmax(ret[hit], axis=1) + 1
        has_left |= ~home.all(axis=1)
    return return_time


def theta_d_estimate(
    d: int,
    horizon: int,
    samples: int,
    seed: int,
    *,
    threads: int = 1,
    chunk: int = 1024,
) -> tuple[float, float]:
    """Monte Carlo embedded return probability of the difference walk.

    Simulates the difference of two oriented walks for `horizon` steps
    and reports the fraction that revisit the origin after having left
    it, plus a censoring bound: returns later than the horizon are
    extrapolated from the frequency of returns in (horizon/2, horizon]
    under the t^(-(d-1)/2) first-return tail, vacuous (inf) for d <= 3
    where the difference walk is recurrent.
    """
    if not 2 <= d <= ZD_MAX_D:
        raise ConfigError(f"d must be in 2..{ZD_MAX_D} for a nondegenerate difference walk")
    if horizon < 1 or samples < 1:
        raise ValueError("horizon and samples must be positive")
    parts = map_chunks(lambda size, idx: _theta_chunk(d, horizon, size, seed, idx),
                       samples, chunk, threads)
    times = np.concatenate(parts)
    returned = int(np.count_nonzero(times))
    theta_hat = returned / samples
    beta = (d - 1) / 2.0
    if beta <= 1.0:
        return theta_hat, float("inf")
    late = int(np.count_nonzero(times > horizon // 2))
    censoring = (late / samples) / (2.0 ** (beta - 1.0) - 1.0)
    return theta_hat, censoring


def difference_walk_return_by(d: int, horizon: int) -> float:
    """Exact P[difference walk returns by `horizon`], embedded convention.

    Independent oracle for theta_d_estimate at small horizons: dense
    convolution of the lazy difference walk on the zero-sum hyperplane
    (coordinates projected to the first d-1), with the origin absorbing
    once the walk has left it.  Mixes over the geometric time of the
    first actual move.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if horizon < 1:
        return 0.0
    if horizon > 96:
        raise CapExceededError("exact difference-walk DP is for horizons <= 96")
    dim = d - 1
    # projected increments e_i - e_j for i != j, with multiplicity
    moves: dict[tuple[int, ...], float] = {}
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            vec = [0] * dim
            if i < dim:
                vec[i] += 1
            if j < dim:
                vec[j] -= 1
            key = tuple(vec)
            moves[key] = moves.get(key, 0.0) + 1.0 / (d * d)
    hold = 1.0 / d

    r = horizon  # box radius
    shape = (2 * r + 1,) * dim
    grid = np.zeros(shape)
    origin = (r,) * dim
    # start: distribution after the first actual move
    move_mass = 1.0 - hold
    for vec, w in moves.items():
        grid[tuple(r + v for v in vec)] += w / move_mass

    def shifted(g: np.ndarray, vec: tuple[int, ...]) -> np.ndarray:
        out = g
        for axis, v in enumerate(vec):
            out = np.roll(out, v, axis=axis)
            # zero the wrapped band
            sl = [slice(None)] * dim
            if v > 0:
                sl[axis] = slice(0, v)
            elif v < 0:
                sl[axis] = slice(v, None)
            if v != 0:
                out[tuple(sl)] = 0.0
        return out

    absorbed = np.zeros(horizon)  # absorbed[h] = P[back at origin within h steps of the move]
    acc = grid[origin]
    grid[origin] = 0.0
    absorbed[0] = acc
    for h in range(1, horizon):
        nxt = hold * grid
        for vec, w in moves.items():
            nxt += w * shifted(grid, vec)
        grid = nxt
        acc += grid[origin]
        grid[origin] = 0.0
        absorbed[h] = acc

    # first actual move at step m with probability hold^(m-1) * (1 - hold)
    total = 0.0
    for m in range(1, horizon + 1):
        total += hold ** (m - 1) * move_mass * absorbed[horizon - m]
    return float(total)


def _zd_pair_chunk(d: int, horizon: int, n: int, seed: int, index: int):
    """Shared-edge / vertex / re-meet histograms for one chunk of Z^d pairs."""
    return pair_chunk(d, horizon, n, seed, index)


def zd_eit_tail(
    d: int,
    horizon: int,
    samples: int,
    seed: int,
    *,
    min_count: int = DEFAULT_MIN_FIT_COUNT,
    threads: int = 1,
    chunk: int = 1024,
) -> TailEstimate:
    """Shared-edge intersection tail for oriented walk pairs on Z^d.

    Same statistic and fitting as the Heisenberg tail_estimate; the
    horizon-censoring bound uses the per-step meeting decay (d-1)/2.
    The excursion_counts tail (fresh re-meets after separation) is the
    statistic whose geometric ratio equals the embedded return
    probability; the shared-edge ratio equals edge_collision_rate of it.
    """
    if not 2 <= d <= ZD_MAX_D:
        raise ConfigError(f"d must be in 2..{ZD_MAX_D}")
    return pair_tail(
        lambda size, idx: _zd_pair_chunk(d, horizon, size, seed, idx),
        horizon, samples, min_count=min_count, threads=threads, chunk=chunk,
        decay_exponent=(d - 1) / 2.0,
    )


@dataclass(frozen=True)
class SrwReturnProfile:
    """P[SRW on G_H is at the identity at time t] for t = 0..len-1.

    The step law is symmetric, so P_2n(e) = sum_g P_n(g)^2, and only the
    time-n law P_n is evolved, on a box clipped to the likely region.
    The clipped evolution P~_n is a sub-probability with P~_n <= P_n
    pointwise, and `dropped_mass` = 1 - sum_g P~_m(g) at m = t_max // 2
    is nondecreasing in m.  Every P_n(g) <= 1/4 for n >= 1, being a
    quarter of the time-(n-1) mass of four distinct points, so

        0 <= P_2n(e) - sum_g P~_n(g)^2
          = sum_g (P_n - P~_n)(g) (P_n + P~_n)(g) <= dropped_mass / 2,

    and `dropped_mass` bounds the absolute error of every entry.  Odd
    times are exactly zero by parity.
    """

    probabilities: np.ndarray
    dropped_mass: float


def _srw_box(n: int) -> tuple[int, int]:
    """Half-widths (b_xy, b_z) of the box that holds the clipped time-n law."""
    # z tails decay like exp(-c|z|/n): a box linear in n suffices, and 6.4n
    # keeps the total clipped mass below 1e-10 out to n=64 (measured)
    b_xy = min(n, int(math.ceil(7.5 * math.sqrt(max(n, 1) / 2.0))) + 2)
    b_z = min(n * (n - 1) // 2 + 1, int(math.ceil(6.4 * n)) + 4)
    return b_xy, b_z


@lru_cache(maxsize=4)
def _srw_profile_cached(t_max: int) -> SrwReturnProfile:
    n = t_max // 2
    b_xy, b_z = _srw_box(n)
    cur = np.zeros((2 * b_xy + 1, 2 * b_xy + 1, 2 * b_z + 1))  # axes (y, x, z)
    cur[b_xy, b_xy, b_z] = 1.0
    nxt = np.zeros_like(cur)
    probs = np.zeros(t_max + 1)
    probs[0] = 1.0
    for s in range(1, n + 1):
        # after s steps |x|, |y| <= s and |z| <= s^2/4 (each a-step moves z by
        # |y| <= the number of b-steps), so step s reads and writes only that
        # window; outside it both buffers hold zeros
        w_xy, w_z = min(s, b_xy), min(s * s // 4, b_z)
        xy = slice(b_xy - w_xy, b_xy + w_xy + 1)
        window = (xy, xy, slice(b_z - w_z, b_z + w_z + 1))
        src, dst = cur[window], nxt[window]
        nz = 2 * w_z + 1
        # b step: (x, y+1, z); b inverse: (x, y-1, z)
        dst[0] = 0.0
        dst[1:] = src[:-1]
        dst[:-1] += src[1:]
        # a step: (x+1, y, z-y); a inverse: (x-1, y, z+y)
        for yi in range(2 * w_xy + 1):
            y = yi - w_xy
            lo = slice(max(0, -y), nz - max(0, y))
            hi = slice(max(0, y), nz - max(0, -y))
            dst[yi, 1:, lo] += src[yi, :-1, hi]
            dst[yi, :-1, hi] += src[yi, 1:, lo]
        dst *= 0.25
        cur, nxt = nxt, cur
        probs[2 * s] = np.vdot(cur, cur)
    return SrwReturnProfile(probs, max(0.0, 1.0 - float(cur.sum())))


def srw_return_profile(t_max: int) -> SrwReturnProfile:
    """Exact SRW return probabilities on G_H for all times up to t_max."""
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if t_max > SRW_TIME_CAP:
        raise CapExceededError(f"t_max={t_max} exceeds cap {SRW_TIME_CAP}")
    return _srw_profile_cached(int(t_max))


def srw_return_probability(t: int) -> float:
    """P[simple random walk on G_H is at the identity at time t]."""
    return float(srw_return_profile(t).probabilities[t])


@dataclass(frozen=True)
class IntersectionGrowth:
    """Range-intersection sizes of two independent SRWs on G_H.

    values[i, j] is |range_u(times[j]) intersect range_v(times[j])| for
    sample pair i; means and std_errors summarize the columns.
    """

    times: tuple[int, ...]
    means: np.ndarray
    std_errors: np.ndarray
    values: np.ndarray

    @property
    def series(self) -> list[tuple[int, float]]:
        return [(t, float(m)) for t, m in zip(self.times, self.means)]

    def growth_z(self, i: int = -1, j: int = 1) -> float:
        """Paired z-score of means[i] - means[j] (defaults: last vs first positive)."""
        diff = self.values[:, i].astype(float) - self.values[:, j].astype(float)
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        return float(diff.mean() / se) if se > 0 else float("inf")


def srw_mutual_intersections(
    n_base: int, samples: int, seed: int, num_doublings: int = 2
) -> IntersectionGrowth:
    """Common range vertices of two SRWs at doubling checkpoints.

    Checkpoints are 0, n_base, 2*n_base, ..., 2^num_doublings * n_base;
    at time 0 both ranges are {identity}, so the mean there is exactly 1.
    A vertex is common at time T when both walks have visited it by T.
    Fewer than two samples leave no standard error: ConfigError; a last
    checkpoint above INTERSECTION_TIME_CAP is a CapExceededError.
    """
    if n_base < 1:
        raise ValueError("n_base must be positive")
    if samples < 2:
        raise ConfigError(f"samples={samples}: a standard error needs at least 2 pairs")
    times = (0,) + tuple(n_base * 2**i for i in range(num_doublings + 1))
    t_max = times[-1]
    if t_max > INTERSECTION_TIME_CAP:
        raise CapExceededError(f"last checkpoint {t_max} exceeds cap {INTERSECTION_TIME_CAP}")
    values = np.zeros((samples, len(times)), dtype=np.int64)
    for lo in range(0, samples, INTERSECTION_CHUNK):
        hi = min(lo + INTERSECTION_CHUNK, samples)
        letters = []
        for i in range(lo, hi):
            rng = stream(seed, i)
            letters += [rng.integers(0, 4, size=t_max, dtype=np.uint8) for _ in range(2)]
        keys = _visit_keys(np.array(letters), t_max)  # rows u0, v0, u1, v1, ...
        values[lo:hi] = _common_counts(keys[0::2], keys[1::2], times)
    means = values.mean(axis=0)
    ses = values.std(axis=0, ddof=1) / math.sqrt(samples)
    return IntersectionGrowth(times, means, ses, values)


def _visit_keys(letters: np.ndarray, t_max: int) -> np.ndarray:
    """Position keys of walks at times 0..t, one walk per row of letters (t steps).

    Letters 0..3 step by a, a^-1, b, b^-1.  Within t_max steps |x|, |y| <= t_max
    and |z| <= t_max^2 / 4, so the mixed-radix key is exact in int64 up to
    INTERSECTION_TIME_CAP.
    """
    dx = (letters == 0).astype(np.int64) - (letters == 1)
    dy = (letters == 2).astype(np.int64) - (letters == 3)
    zero = np.zeros((len(letters), 1), dtype=np.int64)
    x = np.cumsum(np.hstack([zero, dx]), axis=1)
    y = np.cumsum(np.hstack([zero, dy]), axis=1)
    # a moves z by -y and a^-1 by +y, y taken before the step
    z = np.cumsum(np.hstack([zero, -dx * y[:, :-1]]), axis=1)
    z_half = t_max * t_max // 4
    return ((x + t_max) * (2 * t_max + 1) + y + t_max) * (2 * z_half + 1) + z + z_half


def _common_counts(keys_u: np.ndarray, keys_v: np.ndarray, times) -> np.ndarray:
    """Per row, the number of vertices visited by both walks by each checkpoint.

    A vertex is common from the later of its two first visits.  One stable
    sort of each row of u and v keys puts every key's u visits, in time
    order, just before its v visits; the first v visit right after a u
    visit of the same key marks a common vertex, and the u run's head is
    u's first visit.
    """
    n, steps = keys_u.shape
    keys = np.hstack([keys_u, keys_v])
    order = np.argsort(keys, axis=1, kind="stable")
    keys = np.take_along_axis(keys, order, axis=1)
    from_v = order >= steps
    time = np.where(from_v, order - steps, order)
    new_key = np.ones(keys.shape, dtype=bool)
    new_key[:, 1:] = keys[:, 1:] != keys[:, :-1]
    # position of the head of each key's run
    head = np.maximum.accumulate(np.where(new_key, np.arange(2 * steps), 0), axis=1)
    common = from_v & ~new_key
    common[:, 1:] &= ~from_v[:, :-1]
    row, col = np.nonzero(common)
    both = np.maximum(time[row, head[row, col]], time[row, col])
    bucket = np.searchsorted(np.asarray(times), both)
    counts = np.bincount(row * len(times) + bucket, minlength=n * len(times))
    return np.cumsum(counts.reshape(n, len(times)), axis=1)
