"""Exact endpoint-collision statistics of fair 0/1 words.

For k independent fair bits alpha_j, let S = sum_j alpha_j and
W = sum_j j * alpha_j.  Two words of length k end on the same
Cayley-graph vertex exactly when their (S, W) pairs agree, so every
endpoint-collision statistic of two oriented walks is a quadratic
functional of the law of (S, W) (TableStatistics):

    collision          sum over (s,w) of P[S=s, W=w]^2
    count_match        sum over s of P[S=s]^2 = C(2k,k)/4^k
    weighted_match     sum over w of P[W=w]^2
    max_point_mass     max over w of P[W=w]
    conditional_match  sum over s of P[S=s] * sum over w of P[W=w|S=s]^2

That law is never built.  _weight_laws grows the W-marginal in counts,
N_k(w) = N_{k-1}(w) + N_{k-1}(w-(k-1)) in float64, on the lower half
w <= k(k-1)/4 alone: prod_j (1 + q^j) is palindromic, and each float cell
is one sum of two cells whose mirrors sum, in the other order, to its
mirror cell, so N(w) = N(k(k-1)/2 - w) bit for bit at every k.
weight_statistics mirrors the half and scales it by 2^-k only at the k it
is asked for.  The words with s ones count by W as the Gaussian binomial
[k choose s]_q (Andrews, The Theory of Partitions, 1976, ch. 3), whose
sum of squared coefficients _row_square_sums takes by Parseval from its
values at the M-th roots of unity, M prime; it visits the roots in the
order of the powers of a primitive root of M, so every factor of a step
is one contiguous slice of a single sin^2 table.  scan_statistics adds
those rows up and takes count_match in closed form.

count_match is correctly rounded.  Each W-marginal count is formed from
non-negative floats by at most k-1 additions, and scaling it by 2^-k is
exact (also below 2^-1022, through k = 1074), so each cell is the one the
halving recursion m_k(w) = (m_{k-1}(w) + m_{k-1}(w-(k-1))) / 2 gives.  It
is exact while its count is below 2^53 (through k = 56), and beyond that
within gamma_{k-1} = (k-1)u / (1 - (k-1)u), u = 2^-53, of its value
(Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 4),
which cell_error reports; the sum of squares adds its own gamma_n over
its n cells.  A row sum of squares is exact where its certificate
(_row_square_sums) is below 1/2, which holds for every row through
k = 26, so collision is correctly rounded there.

Memory is O(k^2); time grows like k^3.  On a 2-core Xeon, best of 5,
_row_square_sums takes about 0.04 s at k = 512 and 0.4 s at k = 1024,
and weight_statistics([1024]) about 0.07 s, for its k^3/12 half-law
additions.
Both functions refuse k above TABLE_K_CAP = 1024, inside the range
k <= 1074 where the scaling by 2^-k is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ConfigError

__all__ = [
    "TableStatistics",
    "scan_statistics",
    "weight_statistics",
    "cell_error",
    "TABLE_K_CAP",
    "dyadic_uniformity",
    "DYADIC_K_CAP",
]

TABLE_K_CAP = 1024
# dyadic_uniformity's law has 2^floor(log2 k) float64 cells: below 2^21, at most 8 MiB
DYADIC_K_CAP = 2**21
_U = 2.0**-53


def weight_statistics(k_values) -> dict[int, tuple[float, float]]:
    """(max_point_mass, weighted_match) at each requested k, from one recursion.

    Every k must lie in 1..TABLE_K_CAP; scan_statistics relies on this check.
    """
    wanted = set()
    for k in map(int, k_values):  # stops a long range at its first k above the cap
        if k > TABLE_K_CAP:
            raise CapExceededError(f"k={k} exceeds the table cap {TABLE_K_CAP}")
        wanted.add(k)
    if not wanted:
        return {}
    if min(wanted) < 1:
        raise ConfigError("k must be >= 1")
    k_max = max(wanted)
    square = np.empty(k_max * (k_max - 1) // 2 + 1)
    out = {}
    for k, half in _weight_laws(k_max):
        if k in wanted:
            # P[W = w] = N(w) 2^-k exactly; squared on the half, then mirrored
            n, m = k * (k - 1) // 2 + 1, half.size
            np.multiply(half, 2.0**-k, out=square[:m])
            np.multiply(square[:m], square[:m], out=square[:m])
            square[m:n] = square[: n - m][::-1]
            # np.sum's pairwise order is fixed; a BLAS dot product's depends on its thread count
            out[k] = (float(half.max()) * 2.0**-k, float(np.sum(square[:n])))
    return out


def cell_error(k: int, value: float) -> float:
    """Bound on the distance of a W-marginal cell of `value` at k from its exact value.

    0 through k = 56, where every cell is exact; beyond, the exact value x
    satisfies |value - x| <= gamma_{k-1} x <= gamma_{k-1} value / (1 - gamma_{k-1}).
    """
    if k <= 56:
        return 0.0
    gamma = (k - 1) * _U / (1 - (k - 1) * _U)
    return gamma / (1 - gamma) * value


def _weight_laws(k_max: int):
    """Yield (k, N(w) for w = 0..n//2) for k = 1..k_max, n = k(k-1)/2.

    N(w) counts the words of length k with W = w, in float64; N(w) = N(n-w)
    bit for bit, so only the lower half is kept.  Each half is a view of one
    of two buffers that the step after next overwrites.
    """
    half_cap = k_max * (k_max - 1) // 4 + 1
    old, new = np.zeros(half_cap), np.zeros(half_cap)
    old[0] = 1.0  # the empty word
    n_old = 0  # the top weight of the old law
    for k in range(1, k_max + 1):
        # add bit k-1, of weight k-1: N_k(w) = N(w) + N(w - (k-1))
        top = (n_old + k - 1) // 2
        # extend the old half to w <= top by its mirror N(w) = N(n_old - w)
        old[n_old // 2 + 1 : top + 1] = old[n_old - top : n_old - n_old // 2][::-1]
        low = min(k - 1, top + 1)
        new[:low] = old[:low]
        np.add(old[low : top + 1], old[: top + 2 - k], out=new[low : top + 1])
        old, new = new, old
        n_old += k - 1
        yield k, old[: top + 1]


def _odd_prime_above(n: int) -> int:
    """The least odd prime above n, and at least 3."""
    m = max(3, n + 1) | 1
    while any(m % d == 0 for d in range(3, math.isqrt(m) + 1, 2)):
        m += 2
    return m


def _primitive_root(m: int) -> int:
    """The least primitive root of the odd prime m: g^((m-1)/f) != 1 for each prime f | m-1."""
    factors, rest, d = [], m - 1, 2
    while d * d <= rest:
        if rest % d == 0:
            factors.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        factors.append(rest)
    g = 2
    while any(pow(g, (m - 1) // f, m) == 1 for f in factors):
        g += 1
    return g


def _row_square_sums(k: int) -> list[tuple[float, int, float]]:
    """(value, b, err) for s = 0..k//2: sum_w N(s,w)^2 = value * 4^b within err * 4^b.

    N(s, .) are the coefficients of [k choose s]_q (row k-s is the same), of
    degree s(k-s) < M, M the least odd prime above floor(k/2) * ceil(k/2)
    (at least 3).  Parseval on the M-th roots of unity omega^j gives

        sum_w N(s,w)^2 = (1/M) sum_{j<M} |[k choose s]_{omega^j}|^2,
        |[k choose s]_{omega^j}|^2 = prod_{i=1..s} sin^2(pi j (k-s+i)/M) / sin^2(pi j i/M),

    where no denominator vanishes (M prime, i <= k//2 < M), j and M-j give
    equal terms, and the j = 0 term is C(k,s)^2.  The factors come from one
    sin^2 table, read at integer residues and taken at angles at most pi/2
    (r folded to min(r, M-r)), where the sine's condition number is at
    most 1: with a sine accurate to 2 ulp each entry is within gamma_15,
    and a step in s (one product, one quotient) adds gamma_32.  np.frexp
    keeps every running product in [1/2, 1), exactly, with its exponent
    apart, so nothing under- or overflows until the terms are scaled by
    4^-b (b = bit length of C(k,s), so each term is below 1); a term
    below 2^-1022 is dropped.  Summing the (M+1)/2 non-negative terms in
    any order, scaling the j = 0 term and dividing by M add
    gamma_{(M+3)/2}.  So with n = 32s + (M+3)/2 the value is within gamma_n
    of the exact sum, and err = gamma_{2n} * value + M 2^-1022.  Where
    err * 4^b < 1/2 the row is rounded to its integer (b = 0, err = 0).

    The roots are taken in primitive-root order: with g a primitive root of
    M, j = g^a for a < H = (M-1)/2 meets each pair {j, M-j} once, as g^H is
    -1.  The residue j t is then g^(a + L(t)), L the discrete log, so the
    factor sin^2(pi j t/M) of every root is the slice s2[L(t) mod H :][:H]
    of s2[a] = sin^2(pi g^a/M), a < M-1, which has period H because the
    folded table is even.  Each term takes the same table entries in the
    same order as when indexed by j, so it is the same float; only the order
    of the sum over j differs, which the bound allows.  M divides k-s+1 only
    at k = 3 (M = 3), where the numerator sin^2(pi j) = 0 zeroes the terms.
    """
    half = k // 2
    m = _odd_prime_above(half * (k - half))
    h = (m - 1) // 2
    g = _primitive_root(m)
    pw = np.ones(1, dtype=np.int64)  # g^a mod m for a < m-1, by doubling
    while pw.size < m - 1:
        pw = np.concatenate([pw, pw * pow(g, pw.size, m) % m])
    pw = pw[: m - 1]
    log = np.empty(m, dtype=np.int64)
    log[pw] = np.arange(m - 1)
    # offsets of the numerator and denominator slices of step s, from s = 1
    up = [int(log[(k - s + 1) % m]) % h if (k - s + 1) % m else None for s in range(1, half + 1)]
    down = [int(log[s]) % h for s in range(1, half + 1)]
    r = np.arange(m)
    s2 = (np.sin(np.pi * np.minimum(r, m - r) / m) ** 2)[pw]
    del pw, log, r
    # |[k choose s]_{omega^j}|^2 = frac * 2^expo, frac in [1/2, 1) or 0
    frac, expo = np.ones(h), np.zeros(h, dtype=np.int64)
    step, bits = np.empty(h, dtype=np.intc), np.empty(h, dtype=np.int64)
    rows, c = [], 1  # c = C(k, s)
    for s in range(half + 1):
        if s:
            c = c * (k - s + 1) // s
            a, d = up[s - 1], down[s - 1]
            if a is None:
                frac *= 0.0
            else:
                frac *= s2[a : a + h]
            frac /= s2[d : d + h]
            np.frexp(frac, out=(frac, step))
            expo += step
        b = c.bit_length()
        # the float64 bits of 2^(expo-2b), or of 0.0 below 2^-1022
        np.subtract(expo, 2 * b, out=bits)
        np.maximum(bits, -1023, out=bits)
        bits += 1023
        bits <<= 52
        value = (c * c / 4**b + 2.0 * float((frac * bits.view(np.float64)).sum())) / m
        n = 32 * s + (m + 3) // 2
        err = 2 * n * _U / (1 - 2 * n * _U) * value + m * 2.0**-1022
        if err < math.ldexp(0.5, -2 * b):
            value, b, err = float(round(math.ldexp(value, 2 * b))), 0, 0.0
        rows.append((value, b, err))
    return rows


@dataclass(frozen=True)
class TableStatistics:
    k: int
    collision: float
    count_match: float
    weighted_match: float
    max_point_mass: float
    conditional_match: float


def scan_statistics(k_values) -> dict[int, TableStatistics]:
    """Every TableStatistics field at each requested k."""
    out = {}
    for k, (point_mass, weighted_match) in weight_statistics(k_values).items():
        collision, conditional, c = [], [], 1  # c = C(k, s)
        for s, (value, b, _err) in enumerate(_row_square_sums(k)):
            if s:
                c = c * (k - s + 1) // s
            copies = 2 if 2 * s < k else 1  # [k choose s]_q = [k choose k-s]_q
            collision.append(copies * math.ldexp(value, 2 * b - 2 * k))
            # sum_w N^2 / (C(k,s) 2^k), with C(k,s) / 2^b correctly rounded
            conditional.append(copies * math.ldexp(value / (c / 2**b), b - k))
        out[k] = TableStatistics(
            k=k,
            collision=math.fsum(collision),
            count_match=math.comb(2 * k, k) / 4**k,
            weighted_match=weighted_match,
            max_point_mass=point_mass,
            conditional_match=math.fsum(conditional),
        )
    return out


def dyadic_uniformity(k: int) -> tuple[int, bool]:
    """Support size and exact uniformity of the dyadic sub-sum of W.

    Restrict W to the bit positions 2^0, 2^1, ..., 2^(m-1) with
    m = floor(log2 k).  Those weights are distinct powers of two, so the
    sub-sum should be exactly uniform on {0, ..., 2^m - 1}; this computes
    the law by convolution and checks rather than assumes it.  k at or
    above DYADIC_K_CAP is a CapExceededError.
    """
    if k < 2:
        raise ConfigError("k must be >= 2 so that some dyadic position exists")
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
