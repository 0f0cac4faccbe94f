"""Exact joint law of (count, weighted count) for fair 0/1 words.

For a word of k independent fair bits alpha_0..alpha_{k-1}, the table
holds the joint distribution of

    S = sum_j alpha_j        (number of ones)
    W = sum_j j * alpha_j    (position-weighted sum)

Row s counts the words with s ones by W: it is the Gaussian binomial
[k choose s]_q on w = s(s-1)/2 + (0..s(k-s)).  In these offset
coordinates row k-s equals row s, and each row is a palindrome, so only
the rows s <= k//2 are stored, and of each only the offsets up to its
centre s(k-s)//2: ragged float64 counts grown in place one bit per step.
The W-marginal has its own one-dimensional recursion, m_k(w) = m_{k-1}(w)
+ m_{k-1}(w - (k-1)), and is grown beside the rows.  The exact 2^-k is
applied when a statistic is taken.  Two words of length k land on the
same Cayley-graph vertex exactly when their (S, W) pairs agree, so every
endpoint-collision statistic for oriented walk pairs is a quadratic
functional of this table, and scan_statistics takes them all at once
(TableStatistics):

    collision          sum over (s,w) of mass^2
    count_match        sum over s of (S-marginal)^2 = C(2k,k)/4^k
    weighted_match     sum over w of (W-marginal)^2
    max_point_mass     max of the W-marginal
    conditional_match  sum over s of P[S=s] * sum over w of P[W=w|S=s]^2

Every count is exact while it stays below 2^53 (through k = 56).  Beyond
that, each W-marginal cell is a sum of non-negative floats formed by at
most k-1 roundings (the rescaling is by powers of two and exact), so its
relative error is at most gamma_{k-1} = (k-1)u / (1 - (k-1)u) with
u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
ch. 4); the sum of squares adds its own gamma_n over its n cells.

Memory is the binding constraint, about k^3/24 cells (k=512 is ~45 MB);
iter_tables refuses k above a cap, default 512, overridable with the
HEISWALK_TABLE_CAP environment variable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import CapExceededError, ConfigError

__all__ = [
    "CountWeightTable",
    "TableStatistics",
    "iter_tables",
    "scan_statistics",
    "table_cap",
    "dyadic_uniformity",
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


def _row_moments(half: np.ndarray, s: int, k: int) -> tuple[float, float]:
    """Sum and sum of squares of the full row s, read off its stored half."""
    if s * (k - s) % 2:  # even length: every cell has a mirror
        return 2.0 * float(half.sum()), 2.0 * float(half @ half)
    body, centre = half[:-1], float(half[-1])
    return 2.0 * float(body.sum()) + centre, 2.0 * float(body @ body) + centre * centre


@dataclass(frozen=True)
class CountWeightTable:
    """Joint law of (S, W) at word length k, as half ragged rows.

    rows[s] (s <= k//2) holds 2^-shift times the number of words with s ones
    and W = s(s-1)/2 + offset, offset 0..s(k-s)//2; the offsets past the
    centre mirror those before it, and row k-s is the same array.
    w_counts[w] holds 2^-shift times the number of words with W = w.
    """

    k: int
    rows: tuple[np.ndarray, ...]
    w_counts: np.ndarray
    shift: int = 0


def iter_tables(k_max: int) -> Iterator[CountWeightTable]:
    """Yield the table for k = 1, 2, ..., k_max.

    The yielded tables share one set of growing buffers; each is a
    read-only view valid until the next iteration.  Copy the rows to keep them.
    """
    if k_max < 1:
        raise ValueError("k must be >= 1")
    if k_max > (cap := table_cap()):
        raise CapExceededError(f"k={k_max} exceeds the table cap {cap}; raise {_CAP_ENV}")
    bufs = [np.zeros(s * (k_max - s) // 2 + 1) for s in range(k_max // 2 + 1)]
    bufs.append(np.zeros(k_max * (k_max - 1) // 2 + 1))  # the W-marginal
    bufs[0][0] = bufs[-1][0] = 1.0
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
            n = half * (half - 1) // 2 + 1
            bufs[half][:n] = bufs[half - 1][:n]
        for s in range(half, 0, -1):
            row = bufs[s]
            last = s * (k - 1 - s)  # last offset of row s before this bit
            old, new = last // 2, s * (k - s) // 2
            # the cells past the old centre are the mirrors of cells before it;
            # the add below reads row s-1 only up to its old centre
            row[old + 1 : new + 1] = row[last - new : last - old][::-1]
            if (n := new + 1 - (k - s)) > 0:
                row[k - s : new + 1] += bufs[s - 1][:n]
        w = k * (k - 1) // 2 + 1
        bufs[-1][k - 1 : w] += bufs[-1][: w - k + 1]  # numpy buffers the overlap
        rows = tuple(frozen[s][: s * (k - s) // 2 + 1] for s in range(half + 1))
        yield CountWeightTable(k, rows, frozen[-1][:w], shift)


@dataclass(frozen=True)
class TableStatistics:
    k: int
    collision: float
    count_match: float
    weighted_match: float
    max_point_mass: float
    conditional_match: float


def _statistics(table: CountWeightTable) -> TableStatistics:
    """Every statistic from one pass over the stored half rows.

    A row s < k-s also stands for its mirror k-s, so it counts twice.
    """
    k = table.k
    e = table.shift - k  # probability = stored count * 2^e
    squares, conditional = [], []
    for s, row in enumerate(table.rows):
        mirrors = 2 if 2 * s < k else 1
        total, square = _row_moments(row, s, k)
        squares.append(mirrors * square)
        conditional.append(mirrors * square / total)
    w_counts = table.w_counts
    return TableStatistics(
        k=k,
        collision=math.ldexp(math.fsum(squares), 2 * e),
        count_match=math.comb(2 * k, k) / 4**k,
        weighted_match=math.ldexp(float(w_counts @ w_counts), 2 * e),
        max_point_mass=math.ldexp(float(w_counts.max()), e),
        conditional_match=math.ldexp(math.fsum(conditional), e),
    )


def scan_statistics(k_values) -> dict[int, TableStatistics]:
    """Statistics at each requested k from a single incremental build."""
    wanted = {int(k) for k in k_values}
    if not wanted:
        return {}
    return {t.k: _statistics(t) for t in iter_tables(max(wanted)) if t.k in wanted}


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
