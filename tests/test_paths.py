"""Oriented path pairs: coincidence reduction and Monte Carlo tails."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    IDENTITY,
    A,
    B,
    block_pairs,
    chunk_letters,
    coincides,
    endpoint_collision_frequency,
    position,
    sample_word,
    shared_edges,
    survivor_rows,
    traced_peak,
    vertex_coincidences,
    weighted_sum,
    word_eval,
)

from heiswalk import cli, paths
from heiswalk.errors import CapExceededError, ConfigError
from heiswalk.paths import (
    PAIR_CHUNK_CELLS_CAP,
    continuation_ratios,
    tail_estimate,
)
from heiswalk.reference import first_renewals, zd_collision_probability, zd_eit_tail
from heiswalk.rng import stream
from heiswalk.tables import scan_statistics

words = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=32)


def to_generators(bits):
    return [B if b else A for b in bits]


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
    p = scan_statistics([8])[8].collision
    freq = endpoint_collision_frequency(8, 40_000, seed=11)
    sigma = np.sqrt(p * (1 - p) / 40_000)
    assert abs(freq - p) < 4 * sigma


def test_endpoint_hits_match_group_positions():
    k, n = 10, 600
    freq = endpoint_collision_frequency(k, n, seed=12)
    u, v = chunk_letters(2, k, n, seed=12)
    hits = sum(1 for i in range(n) if position(u[i]) == position(v[i]))
    assert hits > 0
    assert freq * n == hits


# d = 2 and 4 unpack raw words, 3, 8 and 16 draw bounded integers
@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_draw_pairs_uniform_on_letter_pairs(d):
    pairs = block_pairs(paths.draw_pairs(stream(5, 0), d, 4096), d)
    assert pairs.shape == (4096, 256)
    counts = np.bincount(pairs.ravel(), minlength=d * d)
    expected = pairs.size / d**2
    assert counts.size == d * d
    assert np.all(np.abs(counts - expected) < 5 * np.sqrt(expected))
    # every step of the block, not only the block as a whole
    per_step = pairs.mean(axis=0)
    assert np.all(np.abs(per_step - (d * d - 1) / 2) < 5 * d * d / np.sqrt(12 * 4096))
    # steps one byte, one word and one bit field apart are independent
    for lag in (1, 8, 64, 128):
        equal = np.count_nonzero(pairs[:, lag:] == pairs[:, :-lag])
        expected = pairs[:, lag:].size / d**2
        assert abs(equal - expected) < 5 * np.sqrt(expected)


def test_d16_draw_reads_the_bytes_of_raw_words():
    # the full-range uint8 draw at d = 16 reads Philox's 64-bit words byte
    # by byte, little end first, and leaves the generator where the raw
    # words do: Z^16 streams are those of the raw-word draw they replaced
    for seed, index, n in [(1, 0, 1), (31, 2, 48), (-7, 5, 1024)]:
        drawn, raw = stream(seed, index), stream(seed, index)
        words = raw.integers(0, 2**64, size=(n, 32), dtype=np.uint64)
        assert np.array_equal(paths.draw_pairs(drawn, 16, n),
                              words.astype("<u8").view(np.uint8))
        assert np.array_equal(drawn.integers(0, 2**64, size=5, dtype=np.uint64),
                              raw.integers(0, 2**64, size=5, dtype=np.uint64))


def _uniform_block(d, pair, walks):
    """draw_pairs' values for `walks` walks that take letter pair `pair` at every step."""
    if d * d not in (4, 16):
        return np.full((walks, 256), pair, dtype=np.uint8)
    bits = (d * d).bit_length() - 1
    byte = sum(pair << bits * i for i in range(8 // bits))
    return np.full((walks, 256 * bits // 8), byte, dtype=np.uint8)


# The largest moves of one block: all (1, 0) on G_H, P_s = -(s+1) - 1024 s(s+1)/2,
# so |P_255| = 256 + 1024 * 32640; all (c, d-1) on Z^d with c the top field of
# its lane, P_s = (s+1) 1024^f.  Two walks take the block: one as far away as
# a block can bring back (back at step 255 exactly), and one at the block's
# far end (moving on to twice the largest move).
@pytest.mark.parametrize("d, heisenberg, letter", [(2, True, 1), (4, False, 2), (3, False, 1),
                                                   (16, False, 14)])
def test_lane_keys_exact_at_the_largest_block_move(d, heisenberg, letter):
    tables, reach = paths._lanes(d, heisenberg)
    if heisenberg:  # letters (1, 0)
        pair, lane = 1 * d + 0, 0
        key = [-(s + 1) - 1024 * (s * (s + 1) // 2) for s in range(256)]
        assert -key[-1] == reach[0, 0] + 1024 * reach[1, 0] == 33_423_616
    else:  # letters (letter, d - 1)
        pair, lane = letter * d + d - 1, letter // 3
        key = [(s + 1) * 1024 ** (letter % 3) for s in range(256)]
        assert key[-1] == reach[letter % 3, 0] * 1024 ** (letter % 3) <= 2**28
    carry = np.array([-key[-1], key[-1]])
    words, spare = np.empty((2, 2, 128), dtype=np.int64)
    paths._words(tables[lane], paths._codes(_uniform_block(d, pair, 2), d), words, spare)
    low, move = paths._totals(words)
    assert low.tolist() == [key[127]] * 2 and move.tolist() == [key[-1]] * 2
    paths._scan(words, carry, low)
    low, high = (words & 0xFFFFFFFF).tolist(), (words >> 32).tolist()
    for w, c in enumerate(carry.tolist()):
        assert low[w] == [2**31 + c + k for k in key[:128]]
        assert high[w] == [c + k for k in key[128:]]
    assert min(low[1]) > 0 and max(low[1]) < 2**32 and max(map(abs, high[1])) < 2**31
    met = (words & 0xFFFFFFFF == 2**31) | (words >> 32 == 0)
    assert met[0].tolist() == [False] * 127 + [True] and not met[1:].any()


def test_zd_walk_at_the_reach_of_a_block_gets_back(monkeypatch):
    # Z^4: 256 steps along letter 0 and 256 back meet once, at t = 512, from
    # exactly the reach of a block
    blocks = iter([_uniform_block(4, 0 * 4 + 3, 1), _uniform_block(4, 3 * 4 + 0, 1)])
    monkeypatch.setattr(paths, "draw_pairs", lambda rng, d, n: next(blocks))
    tails = zd_eit_tail(4, 512, 1, seed=1)
    assert tails.tolist() == [[1, 0], [1, 1], [1, 1]]


def test_heisenberg_horizon_cap_exits_before_drawing():
    # one pair's chunk holds the whole horizon, so the cells cap is the horizon cap
    h = PAIR_CHUNK_CELLS_CAP
    start = time.perf_counter()
    with pytest.raises(CapExceededError):
        tail_estimate(h + 1, 1, seed=1)
    with pytest.raises(CapExceededError):
        endpoint_collision_frequency(h + 1, 1, seed=1)
    assert time.perf_counter() - start < 1.0


def test_gh_carry_stays_exact_at_the_largest_horizon():
    # at horizon h = 2^24 the state that walk_blocks carries between blocks
    # has |X| <= h and |Y| = |W - t0 X| <= |W| + |t0 X| <= h^2/2 + h^2; the
    # carry-in X + 1024 Y and the next block's Y - 256 X stay exact in int64
    h = PAIR_CHUNK_CELLS_CAP
    x = np.array([h, -h, h, -h], dtype=np.int64)
    y = np.array([1, -1, -1, 1], dtype=np.int64) * (3 * h * h // 2)
    at = np.stack([x, y])[None]  # (lanes, fields, walks), as in walk_blocks
    carry = ((paths._RADIX ** np.arange(2))[:, None] * at).sum(axis=1)[0]
    want = [a + paths._RADIX * b for a, b in zip(x.tolist(), y.tolist())]
    assert carry.tolist() == want
    assert max(map(abs, want)) < 2**59
    at[0, 1] -= paths._BLOCK * at[0, 0]
    assert at[0, 1].tolist() == [b - paths._BLOCK * a for a, b in zip(x.tolist(), y.tolist())]


def test_tail_estimate_basic_shape():
    tails = tail_estimate(64, 3000, seed=5)
    assert tails.dtype == np.int64 and tails.shape[0] == 3
    assert tails[:, 0].tolist() == [3000] * 3
    assert (np.diff(tails, axis=1) <= 0).all()
    # a shared edge at t implies a vertex coincidence at t+1
    assert (tails[1] >= tails[0]).all()
    assert cli._censoring(64, 2.0) == pytest.approx(1.0 / 64, abs=1e-12)


def test_tail_estimate_deterministic_and_thread_invariant():
    a = tail_estimate(128, 4096, seed=9, threads=1)
    b = tail_estimate(128, 4096, seed=9, threads=3)
    assert np.array_equal(a, b)
    c = tail_estimate(128, 4096, seed=10)
    assert np.trim_zeros(c[0], "b").tolist() != np.trim_zeros(a[0], "b").tolist()


def test_short_last_chunk_is_thread_invariant():
    # 1500 pairs are a chunk of 1024 and a last chunk of 476
    for estimate in (lambda threads: tail_estimate(300, 1500, seed=3, threads=threads),
                     lambda threads: zd_eit_tail(4, 300, 1500, seed=3, threads=threads)):
        assert np.array_equal(estimate(1), estimate(2))


def test_negative_seeds_have_distinct_streams():
    # keys at or above 2^63 must not pass through float64, where -1 and -2 meet
    draws = {tuple(stream(seed, 0).integers(0, 2**63, 4)) for seed in (-1, -2, 2**63, 0)}
    assert len(draws) == 4


def test_merged_histograms_take_bounded_memory():
    # chunk results are summed as they finish, so 200 chunks hold no more
    # memory at the peak than 25 (each result here is 256 KiB; keeping all
    # 200 would add about 44 MiB)
    def peak(chunks):
        return traced_peak(paths.map_chunks, lambda size, index: np.ones(2**15, dtype=np.int64),
                           paths.PAIR_CHUNK * chunks, 1, threads=2)

    assert peak(200) - peak(25) < 2 * 2**20


def test_chunk_histograms_are_as_long_as_their_largest_count():
    # one pair meets a few times in 4096 steps: its histograms end at its
    # vertex count, not at the horizon
    hist = paths.pair_chunk(2, 4096, 1, 3, 0)
    assert hist.shape[1] < 4097 and hist[1, -1] == 1
    # map_chunks adds unequal lengths as if the shorter were zero-padded
    total = paths.map_chunks(lambda size, index: np.ones([2, 3, 1][index], dtype=np.int64),
                             3 * paths.PAIR_CHUNK, 1, threads=1)
    assert total.tolist() == [3, 2, 1]


def _brute_gh_counts(u, v):
    """(shared edges, vertex meetings, re-meets) of one G_H pair, one time at a time."""
    together = [coincides(u, v, t) for t in range(len(u) + 1)]
    remeets = sum(1 for t in range(1, len(u) + 1) if together[t] and not together[t - 1])
    return shared_edges(u, v), vertex_coincidences(u, v), remeets


def _assert_tail_matches_brute_force(horizon, n, seed):
    tails = tail_estimate(horizon, n, seed=seed)
    u, v = chunk_letters(2, horizon, n, seed)
    shared, vertex, remeets = zip(*(_brute_gh_counts(u[i], v[i]) for i in range(n)))
    assert tails.tolist() == survivor_rows(shared, vertex, remeets)
    return u, v


def test_tail_counts_match_direct_pair_statistics():
    # 300 and 513 end inside the second and third 256-step block; the others
    # sit at and around the seams of the half-block lanes and of the block
    for horizon, n in ((32, 40), (300, 40), (513, 24), (127, 16), (128, 16), (129, 16),
                       (255, 16), (257, 16)):
        _assert_tail_matches_brute_force(horizon, n, seed=21)


def test_tail_counts_match_across_block_boundaries(monkeypatch):
    # random G_H pairs almost never meet at t = 256 (u_256 ~ 2e-5), so make
    # letters agree with probability 0.995: pairs then share the edges of
    # steps 128, 256, 384 and 512, the seams of the half-block lanes and of
    # the blocks
    draw = paths.draw_pairs

    def sticky(rng, d, n):
        # d = 2 draws bytes of four letter pairs a*2 + b, two bits each: copy a onto b
        drawn = draw(rng, d, n)
        agree = rng.random((*drawn.shape, 4)) < 0.995
        b_bits = (agree << np.arange(0, 8, 2)).sum(axis=-1).astype(np.uint8)
        return drawn & ~b_bits | (drawn >> 1) & b_bits

    monkeypatch.setattr(paths, "draw_pairs", sticky)
    u, v = _assert_tail_matches_brute_force(513, 24, seed=22)
    for t in (128, 256, 384, 512):
        assert any(u[i, t] == v[i, t] and coincides(u[i], v[i], t) for i in range(24)), t


def test_tail_counts_nondecreasing_in_horizon():
    # whole-block draws: every horizon sees a prefix of the same sample paths
    ests = [tail_estimate(h, 3000, seed=8) for h in (64, 256, 300, 600)]
    for short, long in zip(ests, ests[1:]):
        assert long.shape[1] >= short.shape[1]
        assert (long[:, :short.shape[1]] >= short).all()
    assert not np.array_equal(ests[-1][1], ests[0][1])


def _mean_and_se(row, samples):
    """Sample mean of a count and its standard error, from its survivor row
    (E[X] = sum_k P(X >= k), E[X^2] = sum_k (2k - 1) P(X >= k))."""
    mean = sum(row[1:].tolist()) / samples
    square = sum((2 * k - 1) * c for k, c in enumerate(row.tolist()) if k >= 1) / samples
    return mean, np.sqrt((square - mean**2) / samples)


@pytest.fixture(scope="module")
def gh_run():
    """One G_H run (h = 256, 200k pairs, seed 7) and the exact u_0..u_h."""
    h, n = 256, 200_000
    scan = scan_statistics(range(1, h + 1))
    u = np.array([1.0] + [scan[t].collision for t in range(1, h + 1)])
    return h, n, u, tail_estimate(h, n, seed=7, threads=2)


# A vertex meeting at time t has probability u_t, and a shared edge at step t
# needs a meeting at t and equal letters (probability 1/2), so the mean counts
# by the horizon are exact sums of u_t.  The tolerance, 4 standard errors, was
# fixed before these draws were run.
def test_gh_mean_meeting_counts_match_exact_sums(gh_run):
    h, n, u, est = gh_run
    for row, exact in ((est[1], u[1:].sum()), (est[0], u[:h].sum() / 2)):
        mean, se = _mean_and_se(row, n)
        assert abs(mean - exact) < 4 * se


# A vertex fixes its time, and from a common vertex the two walks meet again
# exactly when their later letters do, so meetings are renewals with sequence
# u_t: the k-th meeting time has law f^(*k), f = first_renewals(u), and
# P(N_v >= k) = sum_{t <= h} f^(*k)_t.  This does not depend on the seed.  The
# tolerance, 4 binomial standard errors, was fixed before these draws were run.
def test_gh_vertex_tail_matches_renewal_law(gh_run):
    h, n, u, est = gh_run
    f = first_renewals(u)
    law = f
    for k in range(1, 7):
        p = law.sum()
        se = np.sqrt(p * (1 - p) / n)
        assert abs(est[1, k] / n - p) < 4 * se
        law = np.convolve(law, f)[:h + 1]


def test_z4_mean_meeting_count_matches_exact_sum():
    h, n = 64, 200_000
    est = zd_eit_tail(4, h, n, seed=7, threads=2)
    mean, se = _mean_and_se(est[1], n)
    assert abs(mean - sum(zd_collision_probability(4, t) for t in range(1, h + 1))) < 4 * se


def test_continuation_ratios_geometric_input():
    counts = [1600, 800, 400, 200, 100, 50]
    rows = continuation_ratios(counts, min_count=100)
    assert [n for n, _, _ in rows] == [0, 1, 2, 3, 4]
    assert all(r == 0.5 for _, r, _ in rows)
    assert paths._fit_tail(counts, min_count=100)[0] == 0.5
    assert all(se > 0 for _, _, se in rows)
    # a survivor row's trailing zeros are no levels: a level needs a next count
    for min_count, levels in ((1, [0, 1]), (6, [0])):
        assert continuation_ratios([10, 5, 2, 0, 0], min_count) == continuation_ratios(
            [10, 5, 2], min_count)
        fit = paths._fit_tail([10, 5, 2, 0, 0], min_count)
        assert fit == paths._fit_tail([10, 5, 2], min_count) and fit[2] == levels


def test_continuation_ratios_empty():
    rows = continuation_ratios([10], min_count=50)
    assert rows == [] and np.isnan(paths._fit_tail([10], min_count=50)[0])


@pytest.mark.parametrize("theta, draws", [(0.25, 20000), (0.5, 4000)])
def test_fit_tail_standard_error_is_calibrated(theta, draws):
    # over replicate geometric tails P(N >= n) = theta^n, the z-scores of the
    # tail ratio against theta are unit normal: its se is its real spread
    rng = np.random.default_rng(11)
    z = []
    for _ in range(300):
        hist = np.bincount(rng.geometric(1.0 - theta, draws) - 1)
        counts = np.cumsum(hist[::-1])[::-1].tolist()
        fit, se = paths._fit_tail(counts, 50)[:2]
        z.append((fit - theta) / se)
    assert 0.8 <= np.std(z) <= 1.2 and abs(np.mean(z)) < 0.2


def test_tail_estimate_validation():
    with pytest.raises(ValueError):
        tail_estimate(0, 10, seed=1)
    with pytest.raises(ValueError):
        tail_estimate(10, 0, seed=1)


def test_bad_arguments_are_config_errors():
    for horizon, samples in ((0, 10), (10, 0)):
        with pytest.raises(ConfigError):
            paths.map_chunks(None, samples, horizon, threads=1)
