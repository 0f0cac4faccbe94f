"""Group arithmetic, word evaluation, and ball enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ball_distances

from heiswalk.errors import CapExceededError, CoordinateOverflowError
from heiswalk.heisenberg import (
    IDENTITY,
    Generator,
    GroupElement,
    apply_generator,
    ball,
    ball_levels,
    ball_sizes,
    ball_with_distances,
    inverse,
    multiply,
    out_edges,
    word_eval,
)

A, B, AI, BI = Generator.A, Generator.B, Generator.A_INV, Generator.B_INV

coords = st.integers(min_value=-50, max_value=50)
elements = st.builds(GroupElement, coords, coords, coords)


def brute_ball_sizes(radius):
    """Oracle: grow the ball one multiplication at a time, no BFS reuse."""
    gens = [g.element() for g in Generator]
    frontier = {IDENTITY}
    seen = {IDENTITY}
    sizes = [1]
    for _ in range(radius):
        frontier = {multiply(g, s) for g in frontier for s in gens} - seen
        seen |= frontier
        sizes.append(len(seen))
    return sizes


def test_identity_and_generators():
    assert multiply(IDENTITY, IDENTITY) == IDENTITY
    assert A.element() == GroupElement(1, 0, 0)
    assert B.element() == GroupElement(0, 1, 0)
    assert multiply(A.element(), inverse(A.element())) == IDENTITY
    assert multiply(B.element(), inverse(B.element())) == IDENTITY


def test_product_twists_center():
    # ab and ba differ by exactly one central step
    ab = multiply(A.element(), B.element())
    ba = multiply(B.element(), A.element())
    assert ab == GroupElement(1, 1, 0)
    assert ba == GroupElement(1, 1, -1)
    commutator = word_eval([A, B, AI, BI])
    assert commutator == GroupElement(0, 0, 1)
    assert word_eval([BI, AI, B, A]) == GroupElement(0, 0, -1)


def test_central_element_commutes():
    c = GroupElement(0, 0, 1)
    for g in (A.element(), B.element(), GroupElement(3, -2, 5)):
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
    start = GroupElement(2, 3, -1)
    assert word_eval([], start) == start
    assert word_eval([A], start) == multiply(start, A.element())
    word = [A, B, B, AI]
    assert word_eval(word, start) == multiply(start, word_eval(word))


def test_generator_steps_in_coordinates():
    # a-step twists z by the current y; b-step leaves z alone
    g = GroupElement(4, 7, 9)
    assert apply_generator(g, A) == GroupElement(5, 7, 2)
    assert apply_generator(g, B) == GroupElement(4, 8, 9)


def test_out_edges_labels_and_targets():
    g = GroupElement(1, 2, 3)
    ea, eb = out_edges(g)
    assert ea.src == g and ea.label is A
    assert eb.src == g and eb.label is B
    assert ea.dst == apply_generator(g, A)
    assert eb.dst == apply_generator(g, B)


def test_overflow_guard():
    big = GroupElement(2**62, 2**62, 0)
    with pytest.raises(CoordinateOverflowError):
        multiply(big, big)
    with pytest.raises(CoordinateOverflowError):
        multiply(GroupElement(2**63, 0, 0), IDENTITY)


def test_ball_small_sizes():
    assert ball_sizes(0) == [1]
    assert ball_sizes(2) == [1, 5, 17]
    assert ball(1) == {IDENTITY} | {g.element() for g in Generator}


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


def test_ball_distances_are_geodesic():
    dist = ball_with_distances(5)
    assert dist[IDENTITY] == 0
    # each element at distance r+1 has a neighbour at distance r
    gens = [g.element() for g in Generator]
    for g, r in dist.items():
        if r == 0:
            continue
        assert min(dist.get(multiply(g, s), r + 1) for s in gens) == r - 1


def test_ball_distance_via_word_search():
    # exhaustive words up to length 3 reach exactly the distance<=3 ball
    dist = ball_with_distances(3)
    reached = {IDENTITY: 0}
    for length in (1, 2, 3):
        for word in itertools.product(list(Generator), repeat=length):
            reached.setdefault(word_eval(word), length)
    assert reached == dist


def test_ball_cap():
    with pytest.raises(CapExceededError):
        ball_sizes(10, cap=5)
