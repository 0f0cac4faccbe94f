"""Integer Heisenberg group arithmetic and its oriented Cayley graph.

Elements are written in the normal form a^n b^m c^k with c the commutator
of the two generators, stored as coordinate triples (n, m, k).  The graph
carries two directed edge families out of each vertex:

    A-edge: (x, y, z) -> (x + 1, y, z - y)
    B-edge: (x, y, z) -> (x, y + 1, z)

Right multiplication by the generators reproduces exactly these edges,
which pins the multiplication law used throughout:

    (n, m, k) * (n', m', k') = (n + n', m + m', k + k' - m * n')

Coordinates are kept inside the signed 64-bit range; arithmetic that
would leave it raises CoordinateOverflowError rather than returning a
silently wrapped or silently arbitrary-precision value.
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple

import numpy as np

from .errors import CapExceededError, CoordinateOverflowError

__all__ = [
    "GroupElement",
    "Generator",
    "DirectedEdge",
    "IDENTITY",
    "multiply",
    "inverse",
    "apply_generator",
    "word_eval",
    "out_edges",
    "ball",
    "ball_levels",
    "ball_with_distances",
    "ball_sizes",
    "DEFAULT_BALL_CAP",
]

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1

DEFAULT_BALL_CAP = 48


class GroupElement(NamedTuple):
    n: int
    m: int
    k: int


IDENTITY = GroupElement(0, 0, 0)


class Generator(enum.Enum):
    """The four one-step moves; A and B are the oriented edge labels."""

    A = "a"
    B = "b"
    A_INV = "a_inv"
    B_INV = "b_inv"

    def element(self) -> GroupElement:
        return _GENERATOR_ELEMENTS[self]


_GENERATOR_ELEMENTS = {
    Generator.A: GroupElement(1, 0, 0),
    Generator.B: GroupElement(0, 1, 0),
    Generator.A_INV: GroupElement(-1, 0, 0),
    Generator.B_INV: GroupElement(0, -1, 0),
}


class DirectedEdge(NamedTuple):
    src: GroupElement
    dst: GroupElement
    label: Generator  # A or B only


def _checked(n: int, m: int, k: int) -> GroupElement:
    if not (_I64_MIN <= n <= _I64_MAX and _I64_MIN <= m <= _I64_MAX and _I64_MIN <= k <= _I64_MAX):
        raise CoordinateOverflowError(f"coordinates ({n}, {m}, {k}) exceed the signed 64-bit range")
    return GroupElement(n, m, k)


def _validate(g: GroupElement) -> GroupElement:
    if not (_I64_MIN <= g[0] <= _I64_MAX and _I64_MIN <= g[1] <= _I64_MAX and _I64_MIN <= g[2] <= _I64_MAX):
        raise CoordinateOverflowError(f"input coordinates {tuple(g)} exceed the signed 64-bit range")
    return g


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    """Group product in normal-form coordinates."""
    g = _validate(g)
    h = _validate(h)
    return _checked(g[0] + h[0], g[1] + h[1], g[2] + h[2] - g[1] * h[0])


def inverse(g: GroupElement) -> GroupElement:
    """Two-sided inverse: multiply(g, inverse(g)) == IDENTITY."""
    g = _validate(g)
    return _checked(-g[0], -g[1], -g[2] - g[0] * g[1])


def apply_generator(g: GroupElement, gen: Generator) -> GroupElement:
    """Right-multiply by one generator (one step in the Cayley graph)."""
    return multiply(g, gen.element())


def word_eval(word: Iterable[Generator], start: GroupElement = IDENTITY) -> GroupElement:
    """Evaluate a generator word left to right from `start`."""
    g = _validate(start)
    for gen in word:
        g = multiply(g, gen.element())
    return g


def out_edges(g: GroupElement) -> tuple[DirectedEdge, DirectedEdge]:
    """The two oriented edges leaving g (A-step and B-step)."""
    return (
        DirectedEdge(g, apply_generator(g, Generator.A), Generator.A),
        DirectedEdge(g, apply_generator(g, Generator.B), Generator.B),
    )


def ball_levels(radius: int, cap: int = DEFAULT_BALL_CAP) -> list[np.ndarray]:
    """Coordinates of every sphere of the ball of `radius` about the identity.

    Level r is an (n_r, 3) int64 array of the elements at word distance r,
    in lexicographic order.  One frontier search over packed int64 keys:
    in a Cayley graph with a symmetric generating set the neighbours of
    sphere r lie in spheres r-1, r and r+1, so each new level is the set
    of frontier neighbours minus the last two levels.  The cap guards
    memory: the ball grows like the fourth power of the radius.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius > cap:
        raise CapExceededError(f"ball radius {radius} exceeds cap {cap}")
    # |n|, |m| <= r and |k| <= r^2 inside the ball: mixed-radix digits
    z_half = radius * radius
    z_base = 2 * z_half + 1
    m_base = 2 * radius + 1
    n_step = m_base * z_base
    levels = [np.array([(radius * m_base + radius) * z_base + z_half], dtype=np.int64)]
    previous = levels[0][:0]
    for _ in range(radius):
        frontier = levels[-1]
        m = (frontier // z_base) % m_base - radius
        # a: (n+1, m, k-m); a^-1: (n-1, m, k+m); b, b^-1: (n, m +- 1, k)
        a_step = n_step - m
        near = np.sort(np.concatenate(
            [frontier + a_step, frontier - a_step, frontier + z_base, frontier - z_base]
        ))
        near = near[np.concatenate(([True], near[1:] != near[:-1]))]  # faster than np.unique
        known = np.isin(near, previous, assume_unique=True)
        known |= np.isin(near, frontier, assume_unique=True)
        previous = frontier
        levels.append(near[~known])
    out = []
    for keys in levels:
        n, rest = np.divmod(keys, n_step)
        m, k = np.divmod(rest, z_base)
        out.append(np.column_stack([n - radius, m - radius, k - z_half]))
    return out


def ball_with_distances(radius: int, cap: int = DEFAULT_BALL_CAP) -> dict[GroupElement, int]:
    """Word-metric distances for every element within `radius` of identity.

    A dict view of ball_levels, for callers that look elements up.
    """
    return {
        GroupElement(*g): r
        for r, level in enumerate(ball_levels(radius, cap))
        for g in level.tolist()
    }


def ball(radius: int, cap: int = DEFAULT_BALL_CAP) -> set[GroupElement]:
    """All elements at word distance <= radius from the identity."""
    return set(ball_with_distances(radius, cap))


def ball_sizes(radius: int, cap: int = DEFAULT_BALL_CAP) -> list[int]:
    """|ball(r)| for r = 0..radius, from a single search."""
    return np.cumsum([len(level) for level in ball_levels(radius, cap)]).tolist()
