"""Lattice reference models: exact DP values, renewal identities, SRW."""

import math
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    GENERATORS,
    chunk_letters,
    difference_walk_return_by,
    pair_counts,
    srw_intersection_values,
    srw_profile_full_box,
    survivor_rows,
    theta_d_by_fractions,
    traced_peak,
    word_eval,
    zd_collision_by_comb,
)

from heiswalk.errors import CapExceededError, ConfigError
from heiswalk import cli, paths
from heiswalk.paths import PAIR_CHUNK_CELLS_CAP
from heiswalk.reference import (
    INTERSECTION_TIME_CAP,
    RENEWAL_HORIZON_CAP,
    _common_counts,
    _sorted_visits,
    _srw_box,
    _theta_chunk,
    _zd_meeting_counts,
    edge_collision_rate,
    first_renewals,
    lazy_return_probability,
    srw_mutual_intersections,
    srw_return_profile,
    theta_d_estimate,
    theta_d_exact,
    zd_collision_probability,
    zd_eit_tail,
    zd_meeting_sequence,
)


def test_zd_collision_degenerate_dimension():
    # one letter: both words are forced, so they always collide
    for k in (0, 1, 7, 30):
        assert zd_collision_probability(1, k) == 1.0


def test_zd_collision_two_letters_closed_form():
    # endpoint reduces to the letter count: central binomial over 4^k
    for k in (1, 2, 5, 12, 30):
        assert zd_collision_probability(2, k) == pytest.approx(
            math.comb(2 * k, k) / 4**k, rel=1e-15
        )


def test_zd_collision_brute_force_d4():
    assert zd_collision_probability(4, 0) == 1.0
    assert zd_collision_probability(4, 1) == 0.25
    assert zd_collision_probability(4, 2) == 28 / 256


@pytest.mark.parametrize("d", [1, 2, 4])
def test_zd_collision_matches_comb_loop(d):
    for k in (0, 1, 16, 128):
        assert zd_collision_probability(d, k) == zd_collision_by_comb(d, k)


@pytest.mark.parametrize("d", [*range(1, 10), 16, 17])
def test_zd_letter_split_matches_comb_loop(d):
    # odd, even and power-of-two letter counts, and their halves
    for k in (0, 1, 2, 3, 5, 8, 13, 21, 34, 40):
        assert zd_collision_probability(d, k) == zd_collision_by_comb(d, k), k


def test_zd_letter_split_closed_forms_at_the_largest_d():
    # two one-step words meet when they take the same letter; two two-step
    # words when they take the same letters in either order: d(2d - 1) pairs
    d = 2**21
    assert Fraction(_zd_meeting_counts(d, 1), d**2) == Fraction(1, d)
    assert Fraction(_zd_meeting_counts(d, 2), d**4) == Fraction(2 * d - 1, d**3)


def test_zd_collision_monotone():
    vals_k = [zd_collision_probability(4, k) for k in (1, 2, 4, 8, 16, 32)]
    assert all(a > b for a, b in zip(vals_k, vals_k[1:]))
    vals_d = [zd_collision_probability(d, 8) for d in (2, 3, 4, 5)]
    assert all(a > b for a, b in zip(vals_d, vals_d[1:]))


def test_zd_collision_cap():
    with pytest.raises(CapExceededError):
        zd_collision_probability(4, 5000)
    # the work figure d * (k + 1)^2 is d alone at k = 0
    with pytest.raises(CapExceededError):
        zd_collision_probability(10**12, 0)


def test_renewal_identities():
    assert lazy_return_probability(4, 0.0) == 0.25
    assert edge_collision_rate(4, 0.0) == 0.25
    assert lazy_return_probability(4, 1.0) == 1.0
    assert edge_collision_rate(4, 1.0) == pytest.approx(1.0)
    for theta in (0.1, 0.25, 0.5, 0.9):
        lazy = lazy_return_probability(4, theta)
        edge = edge_collision_rate(4, theta)
        # geometric runs of shared edges: rate solves r = (1/d) / (1 - (lazy - 1/d))
        assert edge == pytest.approx(0.25 / (1 - (lazy - 0.25)), rel=1e-14)
        assert edge < lazy < 1.0


def test_difference_walk_hand_values():
    # first displacement, then an immediate cancellation
    assert difference_walk_return_by(2, 2) == pytest.approx(1 / 8, abs=1e-15)
    assert difference_walk_return_by(4, 2) == pytest.approx(3 / 64, abs=1e-15)
    assert difference_walk_return_by(4, 1) == 0.0


def test_difference_walk_monotone_in_horizon():
    vals = [difference_walk_return_by(4, h) for h in (2, 4, 8, 16, 32)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.3


# the renewal pass against the dense-grid oracle; at d <= 4 the oracle's
# (2h+1)^(d-1) box stays small enough up to h = 40
@pytest.mark.parametrize("d, horizon", [(2, 17), (2, 40), (3, 30), (3, 40), (4, 5), (4, 20),
                                        (5, 8), (5, 12)])
def test_theta_exact_matches_dense_grid(d, horizon):
    assert abs(theta_d_exact(d, horizon) - difference_walk_return_by(d, horizon)) < 1e-14


# the float64 pass against exact rationals: measured relative errors 1.4e-16,
# 3.2e-16 and 1.2e-16
@pytest.mark.parametrize("d, horizon", [(4, 48), (5, 40), (16, 32)])
def test_theta_exact_matches_exact_rationals(d, horizon):
    exact = theta_d_by_fractions(d, horizon)
    assert abs(Fraction(theta_d_exact(d, horizon)) - exact) <= Fraction(1e-14) * exact


# zd_collision_probability is exact integer arithmetic; t = 256 sits at the
# top of the range, and the small t cover every split's first steps
@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_meeting_sequence_matches_integer_collision(d):
    u = zd_meeting_sequence(d, 256)
    assert u.shape == (257,)
    for t in [*range(17), 63, 256]:
        exact = zd_collision_probability(d, t)
        assert abs(u[t] - exact) <= 1e-13 * exact


def test_meeting_sequence_two_letters_central_binomial():
    u = zd_meeting_sequence(2, 256)
    for t in range(257):
        exact = float(Fraction(math.comb(2 * t, t), 4**t))
        assert abs(u[t] - exact) <= 1e-13 * exact
    assert np.array_equal(zd_meeting_sequence(1, 9), np.ones(10))


def test_first_renewals_inverts_the_renewal_equation():
    # independent Bernoulli(p) renewals at every step have u_t = p for t >= 1
    # and a geometric first renewal
    p = 0.3
    u = np.concatenate(([1.0], np.full(12, p)))
    f = first_renewals(u)
    assert f[0] == 0.0
    assert np.allclose(f[1:], p * (1 - p) ** np.arange(12), rtol=1e-14, atol=0)
    u4 = zd_meeting_sequence(4, 64)
    f4 = first_renewals(u4)
    assert f4[1] == pytest.approx(0.25, rel=1e-15)
    assert np.all(f4[1:] >= 0)
    # u = delta + f * u, term by term
    conv = np.convolve(f4, u4)[:65]
    assert np.allclose(conv[1:], u4[1:], rtol=1e-13, atol=0)


def test_theta_exact_cap_and_degenerate_inputs():
    assert theta_d_exact(4, 0) == 0.0
    assert theta_d_exact(4, 1) == 0.0
    with pytest.raises(CapExceededError):
        theta_d_exact(4, RENEWAL_HORIZON_CAP + 1)
    with pytest.raises(ValueError):
        theta_d_exact(1, 10)


def test_theta_estimate_matches_exact_dp():
    horizon = 24
    returned, late = theta_d_estimate(4, horizon, 60_000, seed=13)
    exact = theta_d_exact(4, horizon)
    se = math.sqrt(exact * (1 - exact) / 60_000)
    assert abs(returned / 60_000 - exact) < 4 * se
    assert late > 0


def test_theta_estimate_monotone_in_horizon_pathwise():
    values = [theta_d_estimate(4, h, 10_000, seed=3)[0] for h in (4, 16, 64, 256)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_theta_estimate_deterministic_and_thread_invariant():
    a = theta_d_estimate(4, 64, 40_000, seed=2, threads=1)
    b = theta_d_estimate(4, 64, 40_000, seed=2, threads=4)
    assert a == b


def test_srw_return_spot_values():
    assert srw_return_profile(0).probabilities[0] == 1.0
    assert srw_return_profile(2).probabilities[2] == 0.25
    assert srw_return_profile(4).probabilities[4] == pytest.approx(28 / 256, abs=1e-15)
    for t in (1, 3, 5, 7):
        assert srw_return_profile(t).probabilities[t] == 0.0


def test_srw_profile_results_are_independent():
    first = srw_return_profile(8)
    first.probabilities[2] = 7.0
    assert srw_return_profile(8).probabilities[2] == 0.25


def test_srw_return_matches_word_enumeration():
    # all 4^8 generator words, exact probabilities
    import itertools

    profile = srw_return_profile(8)
    for t in (2, 4, 6, 8):
        hits = sum(
            1
            for word in itertools.product(GENERATORS, repeat=t)
            if word_eval(word) == (0, 0, 0)
        )
        assert profile.probabilities[t] == pytest.approx(hits / 4**t, abs=1e-12)


def _direct_return_profile(t_max):
    """P[SRW at e at time t], t <= t_max, by convolving all t_max steps.

    A walk at g at time s that is back at e by time t_max has
    d(e, g) <= t_max/2 = m, so |x|, |y| <= m and |z| <= m^2/4: the box
    clips nothing that can return, and the values are exact up to
    rounding.  Axes (x, y, z); a: (x+1, y, z-y), b: (x, y+1, z).
    """
    m = t_max // 2
    bz = m * m // 4
    nx, nz = 2 * m + 1, 2 * bz + 1

    def shift_z(a, s):
        out = np.zeros_like(a)
        if s >= 0:
            out[..., s:] = a[..., : nz - s]
        else:
            out[..., :s] = a[..., -s:]
        return out

    cur = np.zeros((nx, nx, nz))
    cur[m, m, bz] = 1.0
    probs = [1.0]
    for _ in range(t_max):
        nxt = np.zeros_like(cur)
        nxt[:, 1:] += 0.25 * cur[:, :-1]
        nxt[:, :-1] += 0.25 * cur[:, 1:]
        for yi in range(nx):
            y = yi - m
            nxt[1:, yi] += 0.25 * shift_z(cur[:-1, yi], -y)
            nxt[:-1, yi] += 0.25 * shift_z(cur[1:, yi], y)
        cur = nxt
        probs.append(cur[m, m, bz])
    return np.array(probs)


def test_srw_half_time_matches_direct_convolution():
    direct = _direct_return_profile(32)
    profile = srw_return_profile(32)
    assert direct[1::2].max() == 0.0
    for t in range(0, 33, 2):
        got = profile.probabilities[t]
        assert got == pytest.approx(direct[t], rel=1e-14, abs=0.0)
        # clipping only lowers sum P_n^2, by at most dropped_mass / 2
        assert -1e-15 <= direct[t] - got <= profile.dropped_mass + 1e-15


def _square_count_sums(n):
    """[sum_g N_s(g)^2 for s = 0..n] as Python ints, N_s(g) the number of
    s-letter generator words that end at g: P_2s(e) = sum / 4^(2s) exactly.

    After s steps |x|, |y| <= s and |z| <= s^2 / 4, so the box of n holds
    every walk; the count total 4^s certifies that none left it.
    """
    bz = n * n // 4
    size, nz = 2 * n + 1, 2 * bz + 1

    def shift_z(a, s):
        out = np.zeros_like(a)
        if s >= 0:
            out[..., s:] = a[..., : nz - s]
        else:
            out[..., :s] = a[..., -s:]
        return out

    cur = np.zeros((size, size, nz), dtype=np.int64)  # axes (x, y, z)
    cur[n, n, bz] = 1
    sums = [1]
    for s in range(1, n + 1):
        nxt = np.zeros_like(cur)
        nxt[:, 1:] += cur[:, :-1]  # b: (x, y+1, z)
        nxt[:, :-1] += cur[:, 1:]
        for yi in range(size):
            y = yi - n
            nxt[1:, yi] += shift_z(cur[:-1, yi], -y)  # a: (x+1, y, z-y)
            nxt[:-1, yi] += shift_z(cur[1:, yi], y)
        cur = nxt
        assert int(cur.sum()) == 4**s
        sums.append(sum(v * v for v in cur[cur > 0].tolist()))
    return sums


def test_srw_return_within_its_rounding_bound_of_exact_counts():
    """Every even t <= 32 against the integer word count, within the
    bound of the SrwReturnProfile docstring: a relative gamma_(6s+m), m
    the cells of step s's rotated window, plus dropped_mass / 2 below."""
    profile = srw_return_profile(32)
    b_z = _srw_box(16)
    u = Fraction(2) ** -53
    for s, count in enumerate(_square_count_sums(16)):
        exact = Fraction(count, 4 ** (2 * s))
        got = Fraction(profile.probabilities[2 * s])
        m = (s + 1) ** 2 * (2 * min(s * s // 4, b_z) + 1)
        gamma = (6 * s + m) * u / (1 - (6 * s + m) * u)
        assert exact * (1 - gamma) - Fraction(profile.dropped_mass) / 2 <= got, s
        assert got <= exact * (1 + gamma), s


@pytest.mark.parametrize("t_max", [7, 32, 64, 96])
def test_srw_window_matches_full_box(t_max):
    probs, dropped = srw_profile_full_box(t_max)
    profile = srw_return_profile(t_max)
    assert np.array_equal(profile.probabilities, probs)
    assert profile.dropped_mass == dropped


def test_srw_profile_takes_its_rotated_buffers():
    # two (33, 33, 419) float64 buffers are 7.3 MB, a quarter of two
    # (65, 65, 419) boxes around the same law (27 MiB)
    assert traced_peak(srw_return_profile, 64) < 14 * 2**20


def test_srw_profile_odd_t_max():
    profile = srw_return_profile(7)
    assert profile.probabilities.shape == (8,)
    assert not profile.probabilities[1::2].any()
    assert np.array_equal(profile.probabilities[:7], srw_return_profile(6).probabilities)


def test_srw_profile_mass_accounting():
    profile = srw_return_profile(32)
    assert profile.dropped_mass < 1e-9
    probs = profile.probabilities[::2]
    assert all(a > b for a, b in zip(probs[1:], probs[2:]))
    # at t_max 96 the box clips a little mass, and the clip stays small
    assert 0.0 < srw_return_profile(96).dropped_mass < 1e-10


def test_srw_time_cap():
    with pytest.raises(CapExceededError):
        srw_return_profile(1000)


def test_intersection_growth_basics():
    times, values = srw_mutual_intersections(16, 300, seed=8, num_doublings=2)
    assert times == (0, 16, 32, 64)
    assert values.dtype == np.int64 and values.shape == (300, len(times))
    # both ranges are {identity} at time 0
    assert np.all(values[:, 0] == 1)
    # common-vertex sets only grow along each sample path
    assert np.all(np.diff(values, axis=1) >= 0)


def test_intersection_growth_deterministic():
    a = srw_mutual_intersections(8, 100, seed=5, num_doublings=2)
    b = srw_mutual_intersections(8, 100, seed=5, num_doublings=2)
    assert a[0] == b[0] and np.array_equal(a[1], b[1])


# 130 samples cross four boundaries of the 32-pair batches, the last one
# short; walks of 3, 10 and 7 steps are no whole number of uint32 words; one
# pair is a batch of one; the last case ends at INTERSECTION_TIME_CAP, where
# the sort composites are largest
@pytest.mark.parametrize("n_base,samples,seed,doublings",
                         [(1, 6, 2, 0), (3, 25, 1, 3), (8, 40, 5, 2), (16, 12, 9, 1),
                          (16, 130, 3, 1), (3, 20, 6, 0), (5, 20, 7, 1), (7, 20, 8, 0),
                          (4, 1, 3, 2), (INTERSECTION_TIME_CAP // 4, 2, 4, 2)])
def test_intersections_match_step_loop(n_base, samples, seed, doublings):
    _times, values = srw_mutual_intersections(n_base, samples, seed, doublings)
    assert np.array_equal(values, srw_intersection_values(n_base, samples, seed, doublings))


def test_intersections_take_bounded_memory():
    # the default call sorts 32 pairs of 1024-step walks at a time: about
    # 1.9 MiB traced, against 7.5 MiB for a batch of 128 pairs
    assert traced_peak(srw_mutual_intersections, 256, 1000, 1, 2) < 7 * 2**20


def test_intersection_time_cap():
    with pytest.raises(CapExceededError):
        srw_mutual_intersections(256, 2, seed=1, num_doublings=60)
    with pytest.raises(CapExceededError):
        srw_mutual_intersections(1, 2, seed=1, num_doublings=10**12)
    with pytest.raises(CapExceededError):
        srw_mutual_intersections(INTERSECTION_TIME_CAP // 4, 2, seed=1, num_doublings=3)
    times, _values = srw_mutual_intersections(INTERSECTION_TIME_CAP // 4, 2, seed=1,
                                              num_doublings=2)
    assert times[-1] == INTERSECTION_TIME_CAP


def test_first_visit_keys_exact_at_the_cap():
    # walks reaching |x| = |y| = t/2 and |z| = t^2/4 at the cap: each
    # composite decodes (width 2(t+1); radix 2t+1 for x and y, 2(t^2//4)+1
    # for z) to one visit's time and position
    t = INTERSECTION_TIME_CAP
    z_half, width = t * t // 4, 2 * (t + 1)
    # the largest composite fits in int64 at the cap, and first overflows at t = 4705
    def largest_composite(t):
        return (2 * t + 1) ** 2 * (2 * (t * t // 4) + 1) * 2 * (t + 1) - 1

    assert largest_composite(t) < largest_composite(4704) < 2**63 <= largest_composite(4705)
    for a, b in ((0, 2), (1, 3), (0, 3), (1, 2)):
        letters = np.repeat(np.array([b, a], dtype=np.uint8), [t // 2, t // 2])
        walk = [(0, 0, 0)]
        for g in letters.tolist():
            wx, wy, wz = walk[-1]
            dx, dy = ((1, 0), (-1, 0), (0, 1), (0, -1))[g]
            walk.append((wx + dx, wy + dy, wz - dx * wy))
        # u and v take the same letters, so each vertex is common from its first visit
        row = _sorted_visits(np.stack([letters, letters]), np.empty((1, width), dtype=np.int64))
        assert np.all(np.diff(row[0]) > 0) and row.max() <= largest_composite(t)
        keys, position = np.divmod(row[0], width)
        xy, z = np.divmod(keys, 2 * z_half + 1)
        x, y = np.divmod(xy, 2 * t + 1)
        got = zip((x - t).tolist(), (y - t).tolist(), (z - z_half).tolist())
        from_u = position <= t
        time = np.where(from_u, t - position, position - (t + 1)).tolist()
        assert sorted(zip(from_u.tolist(), time, got)) == sorted(
            (w, s, g) for w in (False, True) for s, g in enumerate(walk))
        checkpoints = (0, 1, t // 2, t // 2 + 1, t)
        assert _common_counts(row, checkpoints)[0].tolist() == [
            len(set(walk[:s + 1])) for s in checkpoints]


def test_zd_eit_tail_structure():
    tails = zd_eit_tail(4, 128, 4000, seed=17)
    assert tails.dtype == np.int64 and tails.shape[0] == 3
    assert tails[:, 0].tolist() == [4000] * 3
    assert (np.diff(tails, axis=1) <= 0).all()
    assert (tails[1] >= tails[0]).all()
    assert cli._censoring(128, 1.5) == pytest.approx(128**-0.5 / 0.5, rel=1e-12)


def test_zd_eit_excursion_ratio_estimates_theta():
    # the fresh re-meet tail is geometric with the embedded return rate;
    # later excursions see a shorter remaining horizon, so the finite-h
    # ratio is bracketed by the half- and full-horizon exact values
    c1, c2 = zd_eit_tail(4, 48, 30_000, seed=23)[2, 1:3].tolist()
    ratio = c2 / c1
    se = math.sqrt(ratio * (1 - ratio) / c1)
    assert theta_d_exact(4, 24) - 4 * se < ratio
    assert ratio < theta_d_exact(4, 48) + 4 * se


def test_zd_eit_validation():
    with pytest.raises(ValueError):
        zd_eit_tail(1, 16, 100, seed=1)
    # one chunk of 1024 pairs x 2^15 steps is above the cell cap
    assert 1024 * 2**15 > PAIR_CHUNK_CELLS_CAP
    with pytest.raises(CapExceededError):
        zd_eit_tail(4, 2**15, 4096, seed=1)


# key lanes hold three coordinates each; d = 2 and 4 unpack raw words (4 and
# 2 pairs a byte), d = 3, 8, 11 and 16 draw bounded integers; on Z^2 pairs
# often meet at the 256-step block boundaries of horizon 513
@pytest.mark.parametrize("d, horizon, lanes", [(4, 300, 1), (8, 300, 3), (11, 60, 4),
                                               (16, 300, 5), (3, 300, 1), (2, 513, 1)])
def test_zd_pair_counts_match_per_pair_loop(d, horizon, lanes):
    assert len(paths._lanes(d, False)[0]) == lanes
    n = 48
    tails = zd_eit_tail(d, horizon, n, seed=31)
    u, v = chunk_letters(d, horizon, n, seed=31)
    shared, vertices, remeets = zip(*(pair_counts(u[i], v[i]) for i in range(n)))
    assert tails.tolist() == survivor_rows(shared, vertices, remeets)


def _brute_first_return(inc_i, inc_j):
    """Per-walk loop: first time back at the origin after leaving it, else 0."""
    diff = {}
    left = False
    for t, (a, b) in enumerate(zip(inc_i.tolist(), inc_j.tolist()), start=1):
        diff[a] = diff.get(a, 0) + 1
        diff[b] = diff.get(b, 0) - 1
        if any(diff.values()):
            left = True
        elif left:
            return t
    return 0


# horizons off the 256-step block grid; (8, 300) and (8, 700) need three key
# lanes, (16, 300) five; d = 2 and 4 unpack raw words, the others draw
# bounded integers.  Walks go on after they have returned: on Z^2 most
# return in the first block of (2, 513), and their later re-meets must not
# move that first return while the rest must still advance exactly over
# three blocks; (8, 700) screens candidates through three key lanes over
# three blocks
@pytest.mark.parametrize("d, horizon, n", [(2, 300, 4000), (3, 600, 400), (4, 300, 400),
                                           (8, 300, 400), (5, 37, 400), (16, 300, 400),
                                           (2, 513, 1000), (8, 700, 400)])
def test_theta_first_returns_match_per_walk_loop(d, horizon, n):
    times = _theta_chunk(d, horizon, n, 19, 0)
    inc_i, inc_j = chunk_letters(d, horizon, n, seed=19)
    expected = [_brute_first_return(inc_i[w], inc_j[w]) for w in range(n)]
    assert times.tolist() == expected
    if horizon == 300 and d == 2:  # a return on block 2's first step needs the carried `before`
        assert 257 in expected
    if horizon == 513:  # most walks return in block 1, and some return later
        assert sum(0 < t <= 256 for t in expected) > n // 2 and max(expected) > 256


# horizons at and around the seams of the 128-step lanes and of the block,
# for one pair, a chunk of 77 and one of 500
@pytest.mark.parametrize("d", [2, 3, 4, 16])
@pytest.mark.parametrize("n", [1, 77, 500])
def test_counts_match_per_pair_loops_around_the_lane_seams(d, n):
    for horizon in (127, 128, 129, 255, 257):
        tails = zd_eit_tail(d, horizon, n, seed=41)
        u, v = chunk_letters(d, horizon, n, seed=41)
        shared, vertices, remeets = zip(*(pair_counts(u[i], v[i]) for i in range(n)))
        assert tails.tolist() == survivor_rows(shared, vertices, remeets)
        times = _theta_chunk(d, horizon, n, 41, 0)
        assert times.tolist() == [_brute_first_return(u[w], v[w]) for w in range(n)]
        # a walk returns exactly when its pair re-meets (no column 1 if none meets)
        assert np.count_nonzero(times) == tails[2, 1:2].sum()


def test_bad_arguments_are_config_errors():
    calls = [
        lambda: zd_collision_probability(0, 4),
        lambda: zd_collision_probability(2, -1),
        lambda: zd_meeting_sequence(0, 4),
        lambda: srw_return_profile(-1),
        lambda: srw_mutual_intersections(0, 10, seed=1, num_doublings=2),
        lambda: srw_mutual_intersections(8, 0, seed=1, num_doublings=2),
    ]
    for call in calls:
        with pytest.raises(ConfigError):
            call()
