"""Oriented path pairs: coincidence reduction and Monte Carlo tails."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heiswalk.errors import CapExceededError
from heiswalk.heisenberg import IDENTITY, Generator, word_eval
from heiswalk.paths import (
    HEISENBERG_HORIZON_CAP,
    coincides,
    continuation_ratios,
    endpoint_collision_frequency,
    heisenberg_steps,
    position,
    sample_word,
    shared_edges,
    tail_estimate,
    vertex_coincidences,
    weighted_sum,
)
from heiswalk.rng import stream
from heiswalk.tables import collision_probability

words = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=32)


def to_generators(bits):
    return [Generator.B if b else Generator.A for b in bits]


def test_position_matches_group_walk():
    rng = np.random.default_rng(3)
    for _ in range(50):
        w = sample_word(int(rng.integers(0, 40)), rng)
        for t in (0, len(w) // 2, len(w)):
            assert position(w, t) == word_eval(to_generators(w[:t]))


def test_position_identity_and_bounds():
    assert position([], 0) == IDENTITY
    assert position([0, 1, 1, 0]) == (2, 2, -2)
    with pytest.raises(ValueError):
        position([0, 1], 3)
    with pytest.raises(ValueError):
        position([0, 2, 1])


def test_weighted_sum_values():
    assert weighted_sum([0, 1, 1, 0]) == 3
    assert weighted_sum([1, 1, 1, 1]) == 6
    assert weighted_sum([0, 1, 1, 0], 2) == 1


def test_worked_pair_example():
    u, v = [0, 1, 1, 0], [1, 0, 0, 1]
    assert not any(coincides(u, v, t) for t in (1, 2, 3))
    assert coincides(u, v, 4)
    assert position(u) == position(v) == (2, 2, -2)
    assert vertex_coincidences(u, v) == 1
    assert shared_edges(u, v) == 0


def test_identical_words_share_everything():
    w = [1, 0, 1, 1, 0, 0, 1]
    assert vertex_coincidences(w, w) == len(w)
    assert shared_edges(w, w) == len(w)


def test_reduction_exhaustive_small_k():
    # coincidence via (count, weight) == positional equality, all pairs
    for u in itertools.product((0, 1), repeat=4):
        for v in itertools.product((0, 1), repeat=4):
            for t in range(5):
                assert coincides(u, v, t) == (position(u, t) == position(v, t))


@given(words, words)
@settings(max_examples=150, deadline=None)
def test_reduction_random(u, v):
    t = min(len(u), len(v))
    assert coincides(u, v, t) == (position(u, t) == position(v, t))


@given(words, words)
@settings(max_examples=150, deadline=None)
def test_shared_edges_at_most_vertex_coincidences(u, v):
    # each shared edge at step t forces a shared vertex at time t+1
    assert shared_edges(u, v) <= vertex_coincidences(u, v)


def test_endpoint_frequency_tracks_exact_value():
    p = collision_probability(8)
    freq = endpoint_collision_frequency(8, 40_000, seed=11)
    sigma = np.sqrt(p * (1 - p) / 40_000)
    assert abs(freq - p) < 4 * sigma


def test_endpoint_hits_match_group_positions():
    k, n = 10, 600
    freq = endpoint_collision_frequency(k, n, seed=12, chunk=4096)
    rng = stream(12, 0)
    u = rng.integers(0, 2, size=(n, k), dtype=np.uint8)
    v = rng.integers(0, 2, size=(n, k), dtype=np.uint8)
    hits = sum(1 for i in range(n) if position(u[i]) == position(v[i]))
    assert hits > 0
    assert freq * n == hits


def test_packed_key_exact_up_to_horizon_cap():
    # the extreme difference walk (all ones against all zeros) reaches
    # D = h, E = h(h-1)/2, the largest key, without leaving int64
    h = HEISENBERG_HORIZON_CAP
    assert h + (2 * h + 1) * (h * (h - 1) // 2) < 2**63
    g = h + 1
    assert g + (2 * g + 1) * (g * (g - 1) // 2) >= 2**63
    ones = np.ones((1, h), dtype=np.uint8)
    keys = np.cumsum(heisenberg_steps(ones, np.zeros_like(ones)), axis=1)
    assert int(keys[0, -1]) == h + (2 * h + 1) * (h * (h - 1) // 2)
    with pytest.raises(CapExceededError):
        tail_estimate(h + 1, 1, seed=1)
    with pytest.raises(CapExceededError):
        endpoint_collision_frequency(h + 1, 1, seed=1)


def test_tail_estimate_basic_shape():
    est = tail_estimate(64, 3000, seed=5)
    assert est.horizon == 64 and est.samples == 3000
    assert est.counts[0] == 3000
    tail = [est.counts[n] for n in sorted(est.counts)]
    assert all(a >= b for a, b in zip(tail, tail[1:]))
    # a shared edge at t implies a vertex coincidence at t+1
    for n, c in est.counts.items():
        assert est.vertex_counts.get(n, 0) >= c
    assert est.censoring_bound == pytest.approx(1.0 / 64, abs=1e-12)


def test_tail_estimate_deterministic_and_thread_invariant():
    a = tail_estimate(128, 4096, seed=9, threads=1)
    b = tail_estimate(128, 4096, seed=9, threads=3)
    assert a.counts == b.counts
    assert a.vertex_counts == b.vertex_counts
    assert a.excursion_counts == b.excursion_counts
    assert a.theta_hat == b.theta_hat
    c = tail_estimate(128, 4096, seed=10)
    assert c.counts != a.counts


def test_tail_counts_match_direct_pair_statistics():
    # regenerate the first chunk's words and recount shared edges directly
    est = tail_estimate(32, 40, seed=21, chunk=1024)
    rng = stream(21, 0)
    u = rng.integers(0, 2, size=(40, 32), dtype=np.uint8)
    v = rng.integers(0, 2, size=(40, 32), dtype=np.uint8)
    shared = [shared_edges(u[i], v[i]) for i in range(40)]
    vertex = [vertex_coincidences(u[i], v[i]) for i in range(40)]
    top = max(shared)
    for n in range(top + 1):
        assert est.counts.get(n, 0) == sum(1 for s in shared if s >= n)
    for n in range(max(vertex) + 1):
        assert est.vertex_counts.get(n, 0) == sum(1 for s in vertex if s >= n)


def test_continuation_ratios_geometric_input():
    counts = {0: 1600, 1: 800, 2: 400, 3: 200, 4: 100, 5: 50}
    rows, pooled = continuation_ratios(counts, min_count=100)
    assert [n for n, _, _ in rows] == [0, 1, 2, 3, 4]
    assert all(r == 0.5 for _, r, _ in rows)
    assert pooled == 0.5
    assert all(se > 0 for _, _, se in rows)


def test_continuation_ratios_empty():
    rows, pooled = continuation_ratios({0: 10}, min_count=50)
    assert rows == [] and np.isnan(pooled)


def test_tail_estimate_validation():
    with pytest.raises(ValueError):
        tail_estimate(0, 10, seed=1)
    with pytest.raises(ValueError):
        tail_estimate(10, 0, seed=1)
