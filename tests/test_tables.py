"""Exact collision statistics against word enumeration, a full-row DP and integer counts."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    build_table,
    conditional_match_at_count,
    dense_mass,
    full_row_tables,
    row_square_sums_by_gather,
    weight_bounds,
    weight_laws_by_halving,
    weight_statistics_by_halving,
)

from heiswalk import tables
from heiswalk.errors import CapExceededError, ConfigError
from heiswalk.tables import (
    TABLE_K_CAP,
    _odd_prime_above,
    _primitive_root,
    _row_square_sums,
    _weight_laws,
    cell_error,
    dyadic_uniformity,
    scan_statistics,
    weight_statistics,
)


def brute_table(k):
    """Oracle: enumerate all 2^k words and tally (count, weight) exactly.

    Every probability is count / 2^k with a small integer numerator, so
    the float table must match bit for bit.
    """
    idx = np.arange(2**k, dtype=np.uint32)
    bits = (idx[:, None] >> np.arange(k, dtype=np.uint32)) & 1
    s = bits.sum(axis=1)
    w = bits @ np.arange(k, dtype=np.uint64)
    n_w = k * (k - 1) // 2 + 1
    counts = np.zeros((k + 1, n_w), dtype=np.int64)
    np.add.at(counts, (s.astype(np.int64), w.astype(np.int64)), 1)
    return counts / float(2**k)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 11])
def test_dp_equals_enumeration_exactly(k):
    mass = dense_mass(build_table(k))
    brute = brute_table(k)
    assert mass.shape == brute.shape
    assert np.array_equal(mass, brute)


def test_collision_spot_values():
    stats = scan_statistics([1, 2, 3, 4])
    assert stats[1].collision == 0.5
    assert stats[2].collision == 0.25
    assert stats[3].collision == 0.125
    assert stats[4].collision == 9 / 128


def test_conditional_spot_values():
    stats = scan_statistics([1, 2])
    assert stats[1].conditional_match == 1.0
    assert stats[2].conditional_match == 0.75
    assert conditional_match_at_count(build_table(2), 0) == 1.0
    assert conditional_match_at_count(build_table(2), 1) == 0.5
    # default count is k//2
    t = build_table(8)
    assert conditional_match_at_count(t) == conditional_match_at_count(t, 4)


def test_count_match_is_central_binomial():
    small = scan_statistics([1, 2, 5, 10, 20])
    for k in (1, 2, 5, 10, 20):
        exact = math.comb(2 * k, k) / 4**k
        assert small[k].count_match == exact
        # the table's own S-marginal agrees (every term is exact at this size)
        s_marg = dense_mass(build_table(k)).sum(axis=1)
        assert float(s_marg @ s_marg) == exact
    ks = list(range(1, 65)) + [128, 256, 512]
    stats = scan_statistics(ks)
    for k in ks:
        assert stats[k].count_match == math.comb(2 * k, k) / 4**k


def test_mass_is_a_probability_law():
    mass = dense_mass(build_table(32))
    assert mass.min() >= 0.0
    assert mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert float(mass.sum(axis=1).sum()) == pytest.approx(1.0, abs=1e-12)


def test_weight_bounds_delimit_support():
    mass = dense_mass(build_table(12))
    for s in range(13):
        lo, hi = weight_bounds(12, s)
        row = mass[s]
        support = np.flatnonzero(row)
        assert support[0] == lo and support[-1] == hi
        # nothing outside the bounds
        assert row[:lo].sum() == 0.0 and row[hi + 1 :].sum() == 0.0


def test_reversal_symmetry():
    # reversing a word maps weight w to s*(k-1) - w, so each count row is
    # symmetric across its own support [lo, hi] (lo + hi = s*(k-1))
    mass = dense_mass(build_table(9))
    for s in range(10):
        lo, hi = weight_bounds(9, s)
        span = mass[s, lo : hi + 1]
        assert np.array_equal(span, span[::-1])


def test_statistics_agree_with_direct_formulas():
    stats = scan_statistics([7, 16])[16]
    mass = dense_mass(build_table(16))
    s_marg, w_marg = mass.sum(axis=1), mass.sum(axis=0)
    assert stats.collision == float(np.sum(mass**2))
    assert stats.count_match == float(np.sum(s_marg**2))
    assert stats.weighted_match == float(np.sum(w_marg**2))
    assert stats.max_point_mass == float(w_marg.max())
    assert stats.conditional_match == math.fsum(
        float(row @ row) / float(row.sum()) for row in mass
    )


def test_point_mass_and_match_bounds():
    for k, stats in scan_statistics([2, 3, 17, 64]).items():
        assert stats.max_point_mass <= 1.0 / k + 1e-12
        assert stats.collision <= stats.count_match
        assert stats.collision <= stats.max_point_mass


def test_dyadic_cap():
    # below the cap the law has at most 2^20 cells; at it, no allocation
    assert dyadic_uniformity(tables.DYADIC_K_CAP - 1) == (2**20, True)
    with pytest.raises(CapExceededError):
        dyadic_uniformity(tables.DYADIC_K_CAP)
    with pytest.raises(CapExceededError):
        dyadic_uniformity(2**31)


def test_dyadic_uniformity_cases():
    assert dyadic_uniformity(4) == (4, True)
    assert dyadic_uniformity(8) == (8, True)
    assert dyadic_uniformity(16) == (16, True)
    assert dyadic_uniformity(31) == (16, True)
    assert dyadic_uniformity(256) == (256, True)
    assert dyadic_uniformity(1000) == (512, True)
    for k in (4, 8, 16, 31, 256, 1000):
        support, uniform = dyadic_uniformity(k)
        assert uniform and support >= k / 2 - 1


def test_table_k_cap(monkeypatch):
    # refused before the recursion starts
    monkeypatch.setattr(tables, "_weight_laws", None)
    for scan in (scan_statistics, weight_statistics):
        with pytest.raises(CapExceededError):
            scan([2, TABLE_K_CAP + 1])
        # a long range stops at its first k above the cap
        with pytest.raises(CapExceededError):
            scan(range(2, 10**12))


_WEIGHT_STATISTICS = """
import sys
sys.path.insert(0, sys.argv[1])
from heiswalk.tables import weight_statistics
print(repr(sorted(weight_statistics(range(2, 257)).items())))
"""


def test_weight_statistics_independent_of_blas_threads():
    # a BLAS dot product sums in an order that depends on its thread count
    src = str(Path(tables.__file__).parents[1])
    outputs = {
        subprocess.run([sys.executable, "-c", _WEIGHT_STATISTICS, src],
                       env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                       capture_output=True, text=True, timeout=120, check=True).stdout
        for threads in ("1", "2")
    }
    assert len(outputs) == 1


def test_k_validation():
    for scan in (scan_statistics, weight_statistics):
        with pytest.raises(ValueError):
            scan([0, 4])
        assert scan([]) == {}


def exact_tables(k_max):
    """Oracle: yield (k, rows) for k = 1..k_max with Python-int counts.

    rows[s] (s = 0..k, object dtype) counts the words of length k with s
    ones by W - s(s-1)/2: the Gaussian binomial [k choose s]_q, built by
    the q-Pascal rule on every row, without the mirror symmetry.
    """
    rows = [np.array([1], dtype=object)]
    for k in range(1, k_max + 1):
        nxt = []
        for s in range(k + 1):
            row = np.zeros(s * (k - s) + 1, dtype=object)
            if s < k:
                row[: rows[s].size] += rows[s]
            if s > 0:
                row[k - s : k - s + rows[s - 1].size] += rows[s - 1]
            nxt.append(row)
        rows = nxt
        yield k, rows


def exact_statistics(k, rows):
    """The five TableStatistics fields as exact rationals."""
    w_marg = np.zeros(k * (k - 1) // 2 + 1, dtype=object)
    for s, row in enumerate(rows):
        w_marg[s * (s - 1) // 2 :][: row.size] += row
    return {
        "collision": Fraction(sum(int(r.dot(r)) for r in rows), 4**k),
        "count_match": Fraction(sum(int(r.sum()) ** 2 for r in rows), 4**k),
        "weighted_match": Fraction(int(w_marg.dot(w_marg)), 4**k),
        "max_point_mass": Fraction(int(w_marg.max()), 2**k),
        "conditional_match": sum(Fraction(int(r.dot(r)), int(r.sum())) for r in rows)
        / 2**k,
    }


def _mirrored(half, k):
    """The whole count vector N(w), w = 0..k(k-1)/2, from its lower half."""
    n = k * (k - 1) // 2 + 1
    return np.concatenate([half, half[: n - half.size][::-1]])


def test_mass_equals_integer_counts_through_k56():
    # every count stays below 2^53 up to k = 56, so the W-marginal is exact
    for (k, rows), (k_law, half) in zip(exact_tables(56), _weight_laws(56)):
        assert k_law == k
        assert cell_error(k, float(half.max()) * 2.0**-k) == 0.0
        assert max(int(r.max()) for r in rows) < 2**53
        w_counts = np.zeros(k * (k - 1) // 2 + 1, dtype=object)
        for s, row in enumerate(rows):
            w_counts[s * (s - 1) // 2 :][: row.size] += row
        assert np.array_equal(_mirrored(half, k), w_counts.astype(float)), k


def test_w_marginal_matches_full_row_dp():
    # bit for bit while every count is exact, then to 1e-14 at every cell
    for (k, rows, w_counts), (k_law, half) in zip(full_row_tables(200), _weight_laws(200)):
        assert k_law == k
        got = _mirrored(half, k)
        if k <= 56:
            assert np.array_equal(got, w_counts), k
        else:
            assert np.all(np.abs(got - w_counts) <= 1e-14 * w_counts), k


def test_halving_recursion_is_mirror_symmetric():
    # the premise of the half-law recursion: each float cell of the whole
    # law is one sum whose mirror cell adds the same two floats
    for k, law in weight_laws_by_halving(300):
        assert np.array_equal(law, law[::-1]), k


def test_weight_statistics_match_the_halving_recursion():
    # counts on the mirror half, scaled at the end, give the same bits
    ks = [*range(1, 301), 512, 1000, 1023, 1024]
    assert weight_statistics(ks) == weight_statistics_by_halving(ks)


def test_point_mass_bound_certified_above_k56():
    # each W-marginal cell has relative error at most gamma_{k-1}, and the
    # sum of squares over its n cells adds gamma_n: the bounds below hold
    # for the exact values, and both stay below 1/k
    def gamma(n):
        return n * 2.0**-53 / (1 - n * 2.0**-53)

    for k, (point_mass, weighted_match) in weight_statistics(range(57, 257)).items():
        cell = 1 / (1 - gamma(k - 1))
        dot = 1 / (1 - gamma(k * (k - 1) // 2 + 1))
        assert point_mass * cell < 1 / k, k
        assert weighted_match * cell**2 * dot < 1 / k, k


def test_statistics_near_exact_rationals_beyond_k56():
    ks = (57, 100, 128)
    stats = scan_statistics(ks)
    exact = {k: exact_statistics(k, rows) for k, rows in exact_tables(128) if k in ks}
    for k in ks:
        assert exact[k]["count_match"] == Fraction(math.comb(2 * k, k), 4**k)
        for field, value in exact[k].items():
            rel = abs(Fraction(getattr(stats[k], field)) - value) / value
            assert rel <= 1e-15, (k, field, float(rel))
        # the certificate bound-scan prints beside max_point_mass
        point_mass = Fraction(stats[k].max_point_mass)
        error = cell_error(k, stats[k].max_point_mass)
        assert 0 < error and abs(point_mass - exact[k]["max_point_mass"]) <= Fraction(error), k


def test_row_square_sums_at_k1_and_k2():
    # M is 3 at both: the j = 1 term must enter (M = 2 would drop it)
    assert _row_square_sums(1) == [(1.0, 0, 0.0)]
    assert _row_square_sums(2) == [(1.0, 0, 0.0), (2.0, 0, 0.0)]
    assert _row_square_sums(3) == [(1.0, 0, 0.0), (3.0, 0, 0.0)]


def test_row_square_sums_against_integer_counts_through_k56():
    # exact where the certificate is below 1/2 (every row through k = 26),
    # within it elsewhere
    for k, rows in exact_tables(56):
        got = _row_square_sums(k)
        assert len(got) == k // 2 + 1
        for s, (value, b, err) in enumerate(got):
            exact = int(rows[s].dot(rows[s]))
            if err == 0.0:
                assert (value, b) == (float(exact), 0), (k, s)
            else:
                assert k > 26 and math.ldexp(err, 2 * b) >= 0.5, (k, s)
                assert abs(Fraction(value) * 4**b - exact) <= Fraction(err) * 4**b, (k, s)


@pytest.mark.parametrize("k", [27, 40, 56, 64, 128, 256, 512])
def test_row_square_sums_match_the_gather_order(k):
    # the same terms summed in another order: within both certificates, and
    # equal where a row is rounded to its integer
    got, ref = _row_square_sums(k), row_square_sums_by_gather(k)
    assert len(got) == len(ref) == k // 2 + 1
    for s, ((value, b, err), (ref_value, ref_b, ref_err)) in enumerate(zip(got, ref)):
        assert b == ref_b, (k, s)
        if err == 0.0 or ref_err == 0.0:
            assert (value, err) == (ref_value, ref_err), (k, s)
        else:
            assert abs(value - ref_value) <= err + ref_err, (k, s)


def _prime_factors(n):
    """The primes dividing n, by trial division."""
    primes, d = set(), 2
    while d * d <= n:
        if n % d:
            d += 1
        else:
            primes.add(d)
            n //= d
    return primes | ({n} if n > 1 else set())


def test_generator_has_full_order_up_to_the_cap():
    # g^((M-1)/f) != 1 for every prime f | M-1 means g has order M-1
    moduli = {_odd_prime_above((k // 2) * (k - k // 2)) for k in range(1, TABLE_K_CAP + 1)}
    for m in sorted(moduli):
        g = _primitive_root(m)
        assert all(pow(g, (m - 1) // f, m) != 1 for f in _prime_factors(m - 1)), m


def test_statistics_at_the_table_cap():
    stats = scan_statistics([TABLE_K_CAP])[TABLE_K_CAP]
    values = [stats.collision, stats.count_match, stats.weighted_match,
              stats.max_point_mass, stats.conditional_match]
    assert all(math.isfinite(v) and v > 0 for v in values)
    assert stats.collision <= stats.count_match
    assert stats.collision <= stats.max_point_mass


def test_bad_arguments_are_config_errors():
    with pytest.raises(ConfigError):
        dyadic_uniformity(1)
