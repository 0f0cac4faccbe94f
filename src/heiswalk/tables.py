"""Exact joint law of (count, weighted count) for fair 0/1 words.

For a word of k independent fair bits alpha_0..alpha_{k-1}, the table
holds the joint distribution of

    S = sum_j alpha_j        (number of ones)
    W = sum_j j * alpha_j    (position-weighted sum)

Row s counts the words with s ones by W: it is the Gaussian binomial
[k choose s]_q on w = s(s-1)/2 + (0..s(k-s)).  In these offset
coordinates row k-s equals row s, so only the rows s <= k//2 are stored,
as ragged float64 counts grown in place one bit per step; the exact 2^-k
is applied when a statistic is taken.  Two words of length k land on the
same Cayley-graph vertex exactly when their (S, W) pairs agree, so every
endpoint-collision statistic for oriented walk pairs is a quadratic
functional of this table:

    collision_probability      sum over (s,w) of mass^2
    count_match_probability    sum over s of (S-marginal)^2 = C(2k,k)/4^k
    weighted_match_probability sum over w of (W-marginal)^2
    max_point_mass             max of the W-marginal

Memory is the binding constraint, about k^3/12 cells (k=512 is ~90 MB);
build_table refuses k above a cap, default 512, overridable with the
HEISWALK_TABLE_CAP environment variable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import CapExceededError, ConfigError

__all__ = [
    "CountWeightTable",
    "TableStatistics",
    "build_table",
    "iter_tables",
    "scan_statistics",
    "table_cap",
    "collision_probability",
    "count_match_probability",
    "weighted_match_probability",
    "max_point_mass",
    "conditional_match_probability",
    "conditional_match_at_count",
    "dyadic_uniformity",
    "weight_bounds",
    "DYADIC_K_CAP",
]

DEFAULT_TABLE_CAP = 512
_CAP_ENV = "HEISWALK_TABLE_CAP"
# Stored counts stay below 2^_RESCALE_BITS: at 512 every sum of squared
# counts a statistic takes stays finite, and the default cap never rescales.
_RESCALE_BITS = 512
# dyadic_uniformity's law has 2^floor(log2 k) float64 cells: below 2^21, at most 8 MiB
DYADIC_K_CAP = 2**21


def table_cap() -> int:
    """Largest allowed k, from HEISWALK_TABLE_CAP or the built-in default."""
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return DEFAULT_TABLE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ConfigError(f"{_CAP_ENV} must be positive, got {cap}")
    return cap


def weight_bounds(k: int, s: int) -> tuple[int, int]:
    """Smallest and largest weighted sum achievable with s ones in k slots."""
    return s * (s - 1) // 2, s * (2 * k - s - 1) // 2


@dataclass(frozen=True)
class CountWeightTable:
    """Joint law of (S, W) at word length k, as half ragged rows.

    rows[s] (s <= k//2) holds 2^-shift times the number of words with s ones
    and W = s(s-1)/2 + offset, offset 0..s(k-s); row k-s is the same array.
    """

    k: int
    rows: tuple[np.ndarray, ...]
    shift: int = 0

    @cached_property
    def mass(self) -> np.ndarray:
        """Dense read-only mass[s, w] = P[S == s, W == w], built on request."""
        k = self.k
        mass = np.zeros((k + 1, k * (k - 1) // 2 + 1))
        for s in range(k + 1):
            row = self.rows[min(s, k - s)]
            mass[s, s * (s - 1) // 2 :][: row.size] = row * math.ldexp(1.0, self.shift - k)
        mass.flags.writeable = False
        return mass

    def s_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    def w_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=0)


def iter_tables(k_max: int) -> Iterator[CountWeightTable]:
    """Yield the table for k = 1, 2, ..., k_max.

    The yielded tables share one set of growing row buffers; each is a
    read-only view valid until the next iteration.  Copy the rows to keep them.
    """
    if k_max < 1:
        raise ValueError("k must be >= 1")
    if k_max > (cap := table_cap()):
        raise CapExceededError(f"k={k_max} exceeds the table cap {cap}; raise {_CAP_ENV}")
    bufs = [np.zeros(s * (k_max - s) + 1) for s in range(k_max // 2 + 1)]
    bufs[0][0] = 1.0
    frozen = [buf.view() for buf in bufs]
    for view in frozen:
        view.flags.writeable = False
    shift = 0
    for k in range(1, k_max + 1):
        # add bit k-1 (weight k-1): row s gains row s-1 shifted by k-1 in w,
        # which is k-s in offset coordinates; downward s reads row s-1 intact
        if k - shift > _RESCALE_BITS:
            for buf in bufs:
                buf *= math.ldexp(1.0, -_RESCALE_BITS)
            shift += _RESCALE_BITS
        half = k // 2
        if k % 2 == 0:
            # row k/2 of length k-1 is not stored; it mirrors row k/2-1
            n = half * (half - 1) + 1
            bufs[half][:n] = bufs[half - 1][:n]
        for s in range(half, 0, -1):
            n = (s - 1) * (k - s) + 1
            bufs[s][k - s : k - s + n] += bufs[s - 1][:n]
        rows = tuple(frozen[s][: s * (k - s) + 1] for s in range(half + 1))
        yield CountWeightTable(k, rows, shift)


def build_table(k: int) -> CountWeightTable:
    """Exact (S, W) table for word length k."""
    return next(table for table in iter_tables(k) if table.k == k)


@dataclass(frozen=True)
class TableStatistics:
    k: int
    collision: float
    count_match: float
    weighted_match: float
    max_point_mass: float
    conditional_match: float


def _statistics(table: CountWeightTable) -> TableStatistics:
    """Every statistic from one pass over the stored rows.

    A row s < k-s also stands for its mirror k-s, so it counts twice and
    lands in the W-marginal at both offsets.
    """
    k = table.k
    e = table.shift - k  # probability = stored count * 2^e
    w_marg = np.zeros(k * (k - 1) // 2 + 1)
    squares, conditional = [], []
    for s, row in enumerate(table.rows):
        ones = (s, k - s) if 2 * s < k else (s,)
        square = float(row @ row)
        squares.append(len(ones) * square)
        conditional.append(len(ones) * square / float(row.sum()))
        for c in ones:
            w_marg[c * (c - 1) // 2 :][: row.size] += row
    return TableStatistics(
        k=k,
        collision=math.ldexp(math.fsum(squares), 2 * e),
        count_match=math.comb(2 * k, k) / 4**k,
        weighted_match=math.ldexp(float(w_marg @ w_marg), 2 * e),
        max_point_mass=math.ldexp(float(w_marg.max()), e),
        conditional_match=math.ldexp(math.fsum(conditional), e),
    )


def scan_statistics(k_values) -> dict[int, TableStatistics]:
    """Statistics at each requested k from a single incremental build."""
    wanted = {int(k) for k in k_values}
    if not wanted:
        return {}
    return {t.k: _statistics(t) for t in iter_tables(max(wanted)) if t.k in wanted}


def _as_table(k_or_table) -> CountWeightTable:
    if isinstance(k_or_table, CountWeightTable):
        return k_or_table
    return build_table(int(k_or_table))


def collision_probability(k_or_table) -> float:
    """P[two independent words of length k share both S and W]."""
    return _statistics(_as_table(k_or_table)).collision


def count_match_probability(k_or_table) -> float:
    """P[equal counts]; equals C(2k, k) / 4^k, computed in integers."""
    return _statistics(_as_table(k_or_table)).count_match


def weighted_match_probability(k_or_table) -> float:
    """P[equal weighted sums], ignoring counts."""
    return _statistics(_as_table(k_or_table)).weighted_match


def max_point_mass(k_or_table) -> float:
    """Largest single point mass of the weighted sum W."""
    return _statistics(_as_table(k_or_table)).max_point_mass


def conditional_match_probability(k_or_table) -> float:
    """Average over s of P[equal weighted sums | both counts equal s].

    Computed as sum_s P[S=s] * sum_w P[W=w|S=s]^2, the match probability
    when the common count is drawn from the count law itself.
    """
    return _statistics(_as_table(k_or_table)).conditional_match


def conditional_match_at_count(k_or_table, s: int | None = None) -> float:
    """P[equal weighted sums | both counts equal s]; s defaults to k//2."""
    t = _as_table(k_or_table)
    s = t.k // 2 if s is None else s
    if not 0 <= s <= t.k:
        raise ValueError(f"count s={s} outside 0..{t.k}")
    row = t.rows[min(s, t.k - s)]
    p = row / row.sum()
    return float(p @ p)


def dyadic_uniformity(k: int) -> tuple[int, bool]:
    """Support size and exact uniformity of the dyadic sub-sum of W.

    Restrict W to the bit positions 2^0, 2^1, ..., 2^(m-1) with
    m = floor(log2 k).  Those weights are distinct powers of two, so the
    sub-sum should be exactly uniform on {0, ..., 2^m - 1}; this computes
    the law by convolution and checks rather than assumes it.  k at or
    above DYADIC_K_CAP is a CapExceededError.
    """
    if k < 2:
        raise ValueError("k must be >= 2 so that some dyadic position exists")
    if k >= DYADIC_K_CAP:
        raise CapExceededError(f"k={k} is not below the dyadic cap {DYADIC_K_CAP}")
    m = int(math.floor(math.log2(k)))
    law = np.array([1.0])
    for j in range(m):
        w = 1 << j
        nxt = np.zeros(law.size + w)
        nxt[: law.size] += 0.5 * law
        nxt[w:] += 0.5 * law
        law = nxt
    support = int(np.count_nonzero(law))
    uniform = support == law.size and bool(np.all(law == law[0]))
    return support, uniform
