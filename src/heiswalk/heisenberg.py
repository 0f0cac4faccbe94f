"""The discrete Heisenberg group's oriented Cayley graph and its balls.

Elements are coordinate triples (n, m, k), standing for a^n b^m c^k with
c the commutator of the two generators.  The graph carries two directed
edge families out of each vertex:

    A-edge: (x, y, z) -> (x + 1, y, z - y)
    B-edge: (x, y, z) -> (x, y + 1, z)

Right multiplication by the generators reproduces exactly these edges,
which pins the multiplication law used throughout:

    (n, m, k) * (n', m', k') = (n + n', m + m', k + k' - m * n')

Balls are capped at radius DEFAULT_BALL_CAP, far inside the signed
64-bit range of their packed keys.  The sphere sizes |S(r)| have the
rational growth series, checked by the tests up to the cap,

    sum_r |S(r)| z^r = (1 + z + 4z^2 + 11z^3 + 8z^4 + 21z^5 + 6z^6 + 9z^7 + z^8)
                       / ((1 - z)^4 (1 + z^2) (1 + z + z^2)),

so |B(r)| / r^4 -> 31/72.  Every generating set of the group has a
rational growth series (Duchin and Shapiro, "The Heisenberg group is
pan-rational", Adv. Math. 346, 2019).
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceededError, ConfigError

__all__ = ["ball_levels", "ball_with_distances", "ball_sizes", "DEFAULT_BALL_CAP"]

DEFAULT_BALL_CAP = 48


def ball_levels(radius: int) -> list[np.ndarray]:
    """Coordinates of every sphere of the ball of `radius` about the identity.

    Level r is an (n_r, 3) int64 array of the elements at word distance r,
    in lexicographic order: the decoded keys of _sphere_keys.
    """
    z_half = radius * radius
    z_base, m_base = 2 * z_half + 1, 2 * radius + 1
    out = []
    for keys in _sphere_keys(radius):
        n, rest = np.divmod(keys, m_base * z_base)
        m, k = np.divmod(rest, z_base)
        out.append(np.column_stack([n - radius, m - radius, k - z_half]))
    return out


def _sphere_keys(radius: int) -> list[np.ndarray]:
    """Sorted packed keys of every sphere of the ball of `radius`.

    (n, m, k) packs into the mixed-radix key ((n + r) (2r + 1) + m + r)
    (2r^2 + 1) + k + r^2: inside the ball |n|, |m| <= r and |k| <= r^2, so
    key order is lexicographic order.  One frontier search over the keys:
    in a Cayley graph with a symmetric generating set the neighbours of
    sphere r lie in spheres r-1, r and r+1.  Every generator flips the
    parity of n + m, so sphere r holds only elements with n + m = r mod 2
    and none of them neighbours another: each new level is the set of
    frontier neighbours minus sphere r-1; the four moves of the sorted
    frontier are sorted runs (nearly so for a^+-1, whose move depends on m),
    which a stable sort merges.  DEFAULT_BALL_CAP guards memory: |ball| ~ r^4.
    """
    if radius < 0:
        raise ConfigError("radius must be nonnegative")
    if radius > DEFAULT_BALL_CAP:
        raise CapExceededError(f"ball radius {radius} exceeds cap {DEFAULT_BALL_CAP}")
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
        near = np.concatenate([frontier + a_step, frontier - a_step,
                               frontier + z_base, frontier - z_base])
        near.sort(kind="stable")
        near = near[np.concatenate(([True], near[1:] != near[:-1]))]  # faster than np.unique
        levels.append(near[~np.isin(near, previous, assume_unique=True)])
        previous = frontier
    return levels


def ball_with_distances(radius: int) -> dict[tuple, int]:
    """Word-metric distance of every (n, m, k) within `radius` of identity.

    A dict view of ball_levels, for callers that look elements up.
    """
    return {
        tuple(g): r
        for r, level in enumerate(ball_levels(radius))
        for g in level.tolist()
    }


def ball_sizes(radius: int) -> list[int]:
    """|ball(r)| for r = 0..radius, from a single search of packed keys."""
    return np.cumsum([len(keys) for keys in _sphere_keys(radius)]).tolist()
