"""The tuple group law of the oracles, and ball enumeration against it."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    GENERATORS,
    IDENTITY,
    A,
    A_INV,
    B,
    B_INV,
    ball_distances,
    inverse,
    multiply,
    word_eval,
)

from heiswalk.errors import CapExceededError, ConfigError
from heiswalk.heisenberg import DEFAULT_BALL_CAP, ball_levels, ball_sizes, ball_with_distances

coords = st.integers(min_value=-50, max_value=50)
elements = st.tuples(coords, coords, coords)


def brute_ball_sizes(radius):
    """Oracle: grow the ball one multiplication at a time, no BFS reuse."""
    frontier = {IDENTITY}
    seen = {IDENTITY}
    sizes = [1]
    for _ in range(radius):
        frontier = {multiply(g, s) for g in frontier for s in GENERATORS} - seen
        seen |= frontier
        sizes.append(len(seen))
    return sizes


def test_identity_and_generators():
    assert multiply(IDENTITY, IDENTITY) == IDENTITY
    assert inverse(A) == A_INV and inverse(B) == B_INV
    assert multiply(A, inverse(A)) == IDENTITY
    assert multiply(B, inverse(B)) == IDENTITY


def test_product_twists_center():
    # ab and ba differ by exactly one central step
    ab = multiply(A, B)
    ba = multiply(B, A)
    assert ab == (1, 1, 0)
    assert ba == (1, 1, -1)
    commutator = word_eval([A, B, A_INV, B_INV])
    assert commutator == (0, 0, 1)
    assert word_eval([B_INV, A_INV, B, A]) == (0, 0, -1)


def test_central_element_commutes():
    c = (0, 0, 1)
    for g in (A, B, (3, -2, 5)):
        assert multiply(c, g) == multiply(g, c)


@given(elements, elements, elements)
@settings(max_examples=200, deadline=None)
def test_associativity(g, h, f):
    assert multiply(multiply(g, h), f) == multiply(g, multiply(h, f))


@given(elements)
@settings(max_examples=200, deadline=None)
def test_inverse_two_sided(g):
    assert multiply(g, inverse(g)) == IDENTITY
    assert multiply(inverse(g), g) == IDENTITY
    assert inverse(inverse(g)) == g


@given(elements, elements)
@settings(max_examples=200, deadline=None)
def test_inverse_antihomomorphism(g, h):
    assert inverse(multiply(g, h)) == multiply(inverse(h), inverse(g))


def test_word_eval_from_offset_start():
    start = (2, 3, -1)
    assert word_eval([], start) == start
    assert word_eval([A], start) == multiply(start, A)
    word = [A, B, B, A_INV]
    assert word_eval(word, start) == multiply(start, word_eval(word))


def test_generator_steps_in_coordinates():
    # a-step twists z by the current y; b-step leaves z alone
    g = (4, 7, 9)
    assert multiply(g, A) == (5, 7, 2)
    assert multiply(g, B) == (4, 8, 9)


def test_ball_small_sizes():
    assert ball_sizes(0) == [1]
    assert ball_sizes(2) == [1, 5, 17]
    assert set(ball_with_distances(1)) == {IDENTITY, *GENERATORS}


def test_ball_matches_brute_enumeration():
    assert ball_sizes(6) == brute_ball_sizes(6)


def test_ball_levels_match_dict_bfs():
    oracle = ball_distances(12)
    for radius in range(13):
        levels = ball_levels(radius)
        assert len(levels) == radius + 1
        for r, level in enumerate(levels):
            assert level.dtype == np.int64 and level.shape[1] == 3
            assert level.tolist() == sorted(list(g) for g, d in oracle.items() if d == r)
        assert ball_with_distances(radius) == {g: d for g, d in oracle.items() if d <= radius}


def test_ball_levels_to_the_cap_are_sorted_and_follow_the_growth_series():
    # the percolation boxes take ball_levels' order, by distance and then
    # lexicographic, as their vertex order; the sphere sizes are the
    # coefficients of the growth series in heisenberg's docstring
    levels = ball_levels(DEFAULT_BALL_CAP)
    for r, level in enumerate(levels):
        step = np.diff(level, axis=0)
        lead = step[np.arange(len(step)), np.argmax(step != 0, axis=1)]
        assert np.all(lead > 0), r
    numerator = [1, 1, 4, 11, 8, 21, 6, 9, 1]
    denominator = np.convolve(np.convolve([1, -4, 6, -4, 1], [1, 0, 1]), [1, 1, 1]).tolist()
    series = []
    for r in range(DEFAULT_BALL_CAP + 1):
        below = sum(denominator[i] * series[r - i] for i in range(1, min(r, 8) + 1))
        series.append((numerator[r] if r < len(numerator) else 0) - below)
    assert [len(level) for level in levels] == series
    assert ball_sizes(DEFAULT_BALL_CAP) == np.cumsum(series).tolist()


def test_spheres_have_the_parity_of_their_radius():
    # every generator flips n + m mod 2, so no sphere holds two neighbours
    for r, level in enumerate(ball_levels(12)):
        assert np.all((level[:, 0] + level[:, 1]) % 2 == r % 2), r


def test_ball_distances_are_geodesic():
    dist = ball_with_distances(5)
    assert dist[IDENTITY] == 0
    # each element at distance r+1 has a neighbour at distance r
    for g, r in dist.items():
        if r == 0:
            continue
        assert min(dist.get(multiply(g, s), r + 1) for s in GENERATORS) == r - 1


def test_ball_distance_via_word_search():
    # exhaustive words up to length 3 reach exactly the distance<=3 ball
    dist = ball_with_distances(3)
    reached = {IDENTITY: 0}
    for length in (1, 2, 3):
        for word in itertools.product(GENERATORS, repeat=length):
            reached.setdefault(word_eval(word), length)
    assert reached == dist


def test_ball_cap():
    with pytest.raises(CapExceededError):
        ball_sizes(DEFAULT_BALL_CAP + 1)


def test_bad_arguments_are_config_errors():
    with pytest.raises(ConfigError):
        ball_levels(-1)
