"""Exact count/weight DP against exhaustive word enumeration and integer counts."""

import math
from fractions import Fraction

import numpy as np
import pytest
from oracles import full_row_tables

from heiswalk import tables
from heiswalk.errors import CapExceededError, ConfigError
from heiswalk.tables import (
    build_table,
    collision_probability,
    conditional_match_at_count,
    conditional_match_probability,
    count_match_probability,
    dyadic_uniformity,
    iter_tables,
    max_point_mass,
    scan_statistics,
    table_cap,
    weight_bounds,
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
    dp = build_table(k)
    brute = brute_table(k)
    assert dp.mass.shape == brute.shape
    assert np.array_equal(dp.mass, brute)


def test_collision_spot_values():
    assert collision_probability(1) == 0.5
    assert collision_probability(2) == 0.25
    assert collision_probability(3) == 0.125
    assert collision_probability(4) == 9 / 128


def test_conditional_spot_values():
    assert conditional_match_probability(1) == 1.0
    assert conditional_match_probability(2) == 0.75
    assert conditional_match_at_count(2, 0) == 1.0
    assert conditional_match_at_count(2, 1) == 0.5
    # default count is k//2
    t = build_table(8)
    assert conditional_match_at_count(t) == conditional_match_at_count(t, 4)


def test_count_match_is_central_binomial():
    for k in (1, 2, 5, 10, 20):
        exact = math.comb(2 * k, k) / 4**k
        assert count_match_probability(k) == exact
        # the table's own S-marginal agrees (every term is exact at this size)
        s_marg = build_table(k).s_marginal()
        assert float(s_marg @ s_marg) == exact
    ks = list(range(1, 65)) + [128, 256, 512]
    stats = scan_statistics(ks)
    for k in ks:
        assert stats[k].count_match == math.comb(2 * k, k) / 4**k


def test_mass_is_a_probability_law():
    t = build_table(32)
    assert t.mass.min() >= 0.0
    assert t.mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert float(t.s_marginal().sum()) == pytest.approx(1.0, abs=1e-12)


def test_weight_bounds_delimit_support():
    t = build_table(12)
    for s in range(13):
        lo, hi = weight_bounds(12, s)
        row = t.mass[s]
        support = np.flatnonzero(row)
        assert support[0] == lo and support[-1] == hi
        # nothing outside the bounds
        assert row[:lo].sum() == 0.0 and row[hi + 1 :].sum() == 0.0


def test_reversal_symmetry():
    # reversing a word maps weight w to s*(k-1) - w, so each count row is
    # symmetric across its own support [lo, hi] (lo + hi = s*(k-1))
    t = build_table(9)
    for s in range(10):
        lo, hi = weight_bounds(9, s)
        span = t.mass[s, lo : hi + 1]
        assert np.array_equal(span, span[::-1])


def test_iter_tables_prefix_consistency():
    # yielded views share one buffer: snapshot each before advancing
    masses = {t.k: t.mass.copy() for t in iter_tables(6)}
    assert sorted(masses) == list(range(1, 7))
    for k, mass in masses.items():
        assert np.array_equal(mass, build_table(k).mass)


def test_iter_tables_views_are_read_only():
    for t in iter_tables(3):
        with pytest.raises(ValueError):
            t.mass[0, 0] = 1.0


def test_statistics_agree_with_direct_formulas():
    stats = scan_statistics([7, 16])[16]
    t = build_table(16)
    assert stats.collision == float(np.sum(t.mass**2))
    assert stats.count_match == float(np.sum(t.s_marginal() ** 2))
    assert stats.weighted_match == float(np.sum(t.w_marginal() ** 2))
    assert stats.max_point_mass == max_point_mass(t)
    assert stats.conditional_match == conditional_match_probability(t)


def test_point_mass_and_match_bounds():
    for k in (2, 3, 17, 64):
        assert max_point_mass(k) <= 1.0 / k + 1e-12
        assert collision_probability(k) <= count_match_probability(k)
        assert collision_probability(k) <= max_point_mass(k)


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


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("HEISWALK_TABLE_CAP", "8")
    assert table_cap() == 8
    build_table(8)
    with pytest.raises(CapExceededError):
        build_table(9)
    monkeypatch.setenv("HEISWALK_TABLE_CAP", "banana")
    with pytest.raises(ValueError):
        table_cap()
    with pytest.raises(ConfigError):
        table_cap()
    monkeypatch.setenv("HEISWALK_TABLE_CAP", "0")
    with pytest.raises(ValueError):
        table_cap()


def test_k_validation():
    with pytest.raises(ValueError):
        build_table(0)


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


def test_mass_equals_integer_counts_through_k56():
    # every count stays below 2^53 up to k = 56, so the float table is exact
    for (k, rows), table in zip(exact_tables(56), iter_tables(56)):
        assert max(int(r.max()) for r in rows) < 2**53
        mass = np.zeros((k + 1, k * (k - 1) // 2 + 1))
        w_counts = np.zeros(k * (k - 1) // 2 + 1, dtype=object)
        for s, row in enumerate(rows):
            mass[s, s * (s - 1) // 2 :][: row.size] = row.astype(float) / 2.0**k
            w_counts[s * (s - 1) // 2 :][: row.size] += row
        assert np.array_equal(table.mass, mass), k
        assert np.array_equal(table.w_counts, w_counts.astype(float)), k


def test_half_rows_match_full_row_dp():
    # bit for bit while every count is exact, then to 1e-14 at every cell
    for (k, rows, w_counts), table in zip(full_row_tables(200), iter_tables(200)):
        assert table.shift == 0
        for s, row in enumerate(rows):
            half = table.rows[s]
            assert half.size == s * (k - s) // 2 + 1
            got = tables._full_row(half, s, k)
            if k <= 56:
                assert np.array_equal(got, row), (k, s)
            else:
                assert np.all(np.abs(got - row) <= 1e-14 * row), (k, s)
        if k <= 56:
            assert np.array_equal(table.w_counts, w_counts), k
        else:
            assert np.all(np.abs(table.w_counts - w_counts) <= 1e-14 * w_counts), k


def test_point_mass_bound_certified_above_k56():
    # each W-marginal cell has relative error at most gamma_{k-1}, and the
    # sum of squares over its n cells adds gamma_n: the bounds below hold
    # for the exact values, and both stay below 1/k
    def gamma(n):
        return n * 2.0**-53 / (1 - n * 2.0**-53)

    for k, stats in scan_statistics(range(57, 257)).items():
        cell = 1 / (1 - gamma(k - 1))
        dot = 1 / (1 - gamma(k * (k - 1) // 2 + 1))
        assert stats.max_point_mass * cell < 1 / k, k
        assert stats.weighted_match * cell**2 * dot < 1 / k, k


def test_statistics_near_exact_rationals_beyond_k56():
    ks = (57, 100, 128)
    stats = scan_statistics(ks)
    exact = {k: exact_statistics(k, rows) for k, rows in exact_tables(128) if k in ks}
    for k in ks:
        assert exact[k]["count_match"] == Fraction(math.comb(2 * k, k), 4**k)
        for field, value in exact[k].items():
            rel = abs(Fraction(getattr(stats[k], field)) - value) / value
            assert rel <= 1e-15, (k, field, float(rel))


def test_rescale_keeps_statistics_bit_identical(monkeypatch):
    ks = range(1, 81)
    plain = scan_statistics(ks)
    plain_table = build_table(40)
    plain_mass, plain_w_counts = plain_table.mass, plain_table.w_counts
    monkeypatch.setattr(tables, "_RESCALE_BITS", 12)
    table = build_table(40)
    assert table.shift > 0  # the rescale path ran
    assert np.array_equal(table.mass, plain_mass)
    assert np.array_equal(np.ldexp(table.w_counts, table.shift), plain_w_counts)
    assert scan_statistics(ks) == plain
