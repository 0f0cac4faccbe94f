"""Bond percolation and effective resistance on finite generator-edge boxes.

A BoxGraph holds the ball of a given radius (word metric on G_H, L1 on
Z^d) together with every directed generator edge between ball members.
Percolation keeps each edge with probability p, drawing one uniform per
(edge identity, seed) via a hash, so masks at different p or different
radii are monotonically coupled: raising p or shrinking the box never
closes an open edge.  Vertices are ordered by distance and edges by
tail, so the box of a smaller radius is a slice of a larger one
(BoxGraph.sub_box); its edges keep their keys, so percolating it opens
the edges the larger box's mask opens there.  A mask is the open-edge
array of the box it was drawn on, and every search and solve works on
that box at its own radius.

Resistance treats each open edge as a unit resistor with orientation
ignored, and solves the Dirichlet problem between the origin and the
sphere at the box radius with diagonally preconditioned conjugate
gradients, capped at a step count set by the size of that box.
Disconnection is reported as infinite resistance, solver
non-convergence as SolverConvergenceError.

Every generator edge joins a vertex at even distance to one at odd
distance, so on the boxes no edge joins two odd vertices.  The solve
eliminates each free odd vertex with no free odd neighbour (on the boxes,
every free odd vertex): it runs conjugate gradients on the Schur
complement of the remaining vertices, about half of them, and recovers
the eliminated potentials in one pass (Reid 1972, "The use of conjugate
gradients for systems of linear equations possessing 'Property A'").
That takes about half the steps of a solve on the whole Laplacian.

Everything here is numpy on one neighbour table per box (BoxGraph.slots
and .ends): the Schur complement in gather form (_Schur), the conjugate
gradient loop (_solve_spd) and the frontier sweep (_sweep) of both
cluster searches, the oriented one through the out-slots, the solve's
component through the table under the mask.

Transience of a ball sequence cannot be decided by any finite solve;
resistance_profile reports the honest finite surrogate (resistance to
growing shells under coupled masks) and leaves the reading of the
increments to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ConfigError, SolverConvergenceError
from .heisenberg import ball_levels
from .rng import edge_uniforms, stream

__all__ = [
    "BoxGraph",
    "SubgraphMask",
    "FlowAssignment",
    "heisenberg_box",
    "lattice_box",
    "percolate",
    "oriented_cluster",
    "effective_resistance",
    "resistance_profile",
    "path_flow_assignment",
    "path_flow_energy",
    "LATTICE_VERTEX_CAP",
]

LATTICE_VERTEX_CAP = 2_000_000

SOLVER_RTOL = 1e-8
# CG on the reduced system stops after max(20, this * sqrt(box vertices)) steps;
# the r = 16 boxes at p = 0.95 take about 36 of the 8352 allowed
CG_ITERATIONS_PER_ROOT = 50


class BoxGraph:
    """Vertices of a ball plus the directed generator edges inside it.

    A vertex is an index into the (n_vertices, dim) int64 array `coords`,
    in a fixed canonical order (by distance, then coordinates), so every
    derived array is reproducible; `origin` is the index of the unique
    distance-zero vertex.  Edges are ordered by (tail, label).  Each edge
    carries a 64-bit key built from the tail coordinates and the
    generator label only; the key is independent of the box radius,
    which is what couples masks across nested boxes.

    Those orders make every smaller ball a prefix: sub_box cuts it out
    by slicing.

    The neighbour table slots[s, v] is v's s-th edge (-1 if none): its
    out-edges by label, then its in-edges in edge order, on the boxes
    (tail, label), in as many slots as the largest in-degree.  ends[s, v]
    is that edge's far end, or the pad n_vertices.  A solve sums over the
    slots in this order, its edges' order, and a closed slot adds zero.
    """

    def __init__(self, radius, coords, dist, tails, heads, labels, keys, n_labels):
        self.radius = radius
        self.coords = np.asarray(coords, dtype=np.int64)
        self.dist = np.asarray(dist, dtype=np.int32)
        self.origin = int(np.argmin(self.dist))
        self.n_labels = n_labels
        self.tails = np.asarray(tails, dtype=np.int32)
        self.heads = np.asarray(heads, dtype=np.int32)
        self.labels = np.asarray(labels, dtype=np.uint8)
        self.keys = np.asarray(keys, dtype=np.uint64)
        # each label leaves v at most once; an in-edge's slot follows its
        # place among the edges into its head
        by_head = np.argsort(self.heads, kind="stable")
        into = self.heads[by_head]
        in_degree = np.bincount(into, minlength=self.n_vertices)
        in_slot = n_labels + np.arange(len(into)) - (np.cumsum(in_degree) - in_degree)[into]
        shape = (n_labels + in_degree.max(initial=0), self.n_vertices)
        self.slots = np.full(shape, -1, dtype=np.int32)
        self.ends = np.full(shape, self.n_vertices, dtype=np.int32)
        self.slots[self.labels, self.tails] = np.arange(len(into))
        self.ends[self.labels, self.tails] = self.heads
        self.slots[in_slot, into] = by_head
        self.ends[in_slot, into] = self.tails[by_head]
        # the ball of radius r is the first _ball_end[r] vertices, and the
        # first _edge_end[r] edges are those with tails in it
        self._ball_end = np.searchsorted(self.dist, np.arange(radius + 1), side="right")
        self._edge_end = np.searchsorted(self.tails, self._ball_end)

    @property
    def n_vertices(self) -> int:
        return len(self.coords)

    @property
    def n_edges(self) -> int:
        return len(self.tails)

    def sub_box(self, radius: int) -> BoxGraph:
        """The box of a radius in [0, self.radius], by slicing.

        Its vertices are a prefix, and its edges are those of the edge
        prefix with tails in it whose heads lie in it too, in the same
        order and with the same keys: the box that heisenberg_box or
        lattice_box would build at that radius; at self.radius, self.
        """
        if not 0 <= radius <= self.radius:
            raise ConfigError(f"sub-box radius must be in [0, {self.radius}], got {radius}")
        if radius == self.radius:
            return self
        n, e = self._ball_end[radius], self._edge_end[radius]
        kept = self.heads[:e] < n
        return BoxGraph(radius, self.coords[:n], self.dist[:n], self.tails[:e][kept],
                        self.heads[:e][kept], self.labels[:e][kept], self.keys[:e][kept],
                        self.n_labels)


def heisenberg_box(radius: int) -> BoxGraph:
    """Word-metric ball of G_H in ball_levels' order, with its a- and b-edges
    (labels 0, 1)."""
    levels = ball_levels(radius)
    coords = np.concatenate(levels)
    dist = np.repeat(np.arange(len(levels)), [len(level) for level in levels])
    n, m, k = coords.T
    heads = [np.column_stack([n + 1, m, k - m]), np.column_stack([n, m + 1, k])]
    # edge keys: 10+10+21 bit fields; the ball cap keeps coordinates far inside them
    return _box_graph("heisenberg", radius, coords, dist, heads, (10, 10, 21))


def lattice_box(d: int, radius: int) -> BoxGraph:
    """L1 ball of Z^d with its +e_i edges (label = axis index)."""
    if d < 1 or d > 4:
        raise ConfigError("lattice dimension must be in 1..4")
    if radius < 0:
        raise ConfigError("radius must be >= 0")
    size_bound = (2 * radius + 1) ** d
    if size_bound > 8 * LATTICE_VERTEX_CAP:
        raise CapExceededError(f"lattice box radius {radius} too large")
    # grow the ball one axis at a time; `room` is the L1 budget left
    coords = np.zeros((1, 0), dtype=np.int64)
    room = np.array([radius], dtype=np.int64)
    for _axis in range(d):
        width = 2 * room + 1
        row = np.repeat(np.arange(len(room)), width)
        c = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width) - room[row]
        coords = np.column_stack([coords[row], c])
        room = room[row] - np.abs(c)
    if len(coords) > LATTICE_VERTEX_CAP:
        raise CapExceededError(f"lattice box has {len(coords)} vertices")
    dist = radius - room
    order = np.lexsort(np.vstack([coords.T[::-1], dist]))
    coords, dist = coords[order], dist[order]
    heads = [coords + np.eye(d, dtype=np.int64)[axis] for axis in range(d)]
    return _box_graph(f"z{d}", radius, coords, dist, heads, (12,) * d)


def _box_graph(family, radius, coords, dist, heads, widths) -> BoxGraph:
    """BoxGraph of the vertices `coords` at distances `dist`, given in order
    by (distance, coordinates).

    heads[label] holds each vertex's head along that label; the edge exists
    when the head is a vertex.  Vertex lookups and edge keys use the tail
    coordinates packed into signed fields of the given bit widths, with
    the label above them.
    """
    vertex_key = _pack(coords, widths)
    if (vertex_key < 0).any():
        raise CapExceededError(f"{family} box of radius {radius} does not fit the edge keys")
    by_key = np.argsort(vertex_key)
    sorted_key = vertex_key[by_key]
    head_index = np.full((len(coords), len(heads)), -1, dtype=np.int64)
    for label, head in enumerate(heads):
        head_key = _pack(head, widths)
        pos = np.minimum(np.searchsorted(sorted_key, head_key), len(sorted_key) - 1)
        head_index[:, label] = np.where(sorted_key[pos] == head_key, by_key[pos], -1)
    tails, labels = np.nonzero(head_index >= 0)
    keys = vertex_key[tails] | (labels << sum(widths))
    return BoxGraph(radius, coords, dist, tails, head_index[tails, labels], labels, keys,
                    len(heads))


def _pack(coords: np.ndarray, widths) -> np.ndarray:
    """Each row's coordinates in signed bit fields, first coordinate lowest.

    -1 marks a row with a coordinate outside its field.
    """
    key = np.zeros(len(coords), dtype=np.int64)
    fits = np.ones(len(coords), dtype=bool)
    shift = 0
    for col, width in zip(coords.T, widths):
        half = 1 << (width - 1)
        fits &= (-half <= col) & (col < half)
        key |= (col + half) << shift
        shift += width
    return np.where(fits, key, -1)


@dataclass(frozen=True)
class SubgraphMask:
    """Open-edge indicator over the edges of the BoxGraph it was drawn on."""

    graph: BoxGraph
    open: np.ndarray


def percolate(graph: BoxGraph, p: float, seed: int) -> SubgraphMask:
    """Bernoulli(p) edge retention, coupled across p and radius by seed."""
    if not 0.0 < p <= 1.0:
        raise ConfigError(f"p must be in (0, 1], got {p}")
    u = edge_uniforms(graph.keys, seed)
    mask = u < p
    mask.flags.writeable = False
    return SubgraphMask(graph, mask)


def oriented_cluster(mask: SubgraphMask) -> np.ndarray:
    """Sorted indices of the vertices reachable from the origin along open
    directed edges, read off each frontier's out-slots."""
    graph, out = mask.graph, slice(mask.graph.n_labels)
    is_open = np.append(mask.open, False)  # an empty slot, -1, reads False

    def step(frontier):
        return graph.ends[out, frontier][is_open[graph.slots[out, frontier]]]
    return np.flatnonzero(_sweep(graph, step))


def _sweep(graph: BoxGraph, step) -> np.ndarray:
    """Boolean mask of the vertices reached from the origin, step(frontier)
    giving the next; the pad n_vertices among them is passed over."""
    seen = np.zeros(graph.n_vertices + 1, dtype=bool)
    seen[-1] = True
    frontier = np.array([graph.origin])
    while len(frontier):
        seen[frontier] = True
        fresh = np.zeros_like(seen)
        fresh[step(frontier)] = True
        frontier = np.flatnonzero(fresh & ~seen)
    return seen[:-1]


def effective_resistance(mask: SubgraphMask) -> float:
    """Resistance between the origin and the sphere at the box radius.

    Open edges are unit resistors, orientation ignored.  Potentials solve
    the Dirichlet problem (1 at the origin, 0 on the whole sphere); the
    result is 1 over the current leaving the origin.  Infinite when no
    open path reaches the sphere; SolverConvergenceError if CG stalls
    within max(20, CG_ITERATIONS_PER_ROOT * sqrt(box vertices)) steps.
    CG runs on the Schur complement of the kept free vertices and stops
    once that residual is below SOLVER_RTOL |b|, b the right-hand side of
    all free vertices: the recovered eliminated rows have zero residual,
    so the whole system's residual is the reduced one.
    """
    graph = mask.graph
    if graph.radius < 1:
        raise ConfigError("effective resistance needs a box of radius >= 1")
    n, src = graph.n_vertices, graph.origin
    # the box's neighbour table under the mask: a closed slot reads the pad n
    nbr = np.where(np.append(mask.open, False)[graph.slots], graph.ends, n)
    comp = _sweep(graph, lambda frontier: nbr[:, frontier])
    if not (comp & (graph.dist == graph.radius)).any():
        return float("inf")

    free = comp & (graph.dist < graph.radius)
    free[src] = False
    deg = np.count_nonzero(nbr < n, axis=0).astype(float)
    # edges touching the source push unit potential into the system
    b = np.where(free, np.count_nonzero(nbr == src, axis=0), 0).astype(float)
    # eliminate the free odd vertices with no free odd neighbour: no open
    # edge joins two of them, so their block of the Laplacian is diagonal
    elim = free & (graph.dist % 2 == 1)
    elim &= ~np.append(elim, False)[nbr].any(axis=0)
    kept = free & ~elim
    schur = _Schur.build(deg, kept, elim, nbr)
    maxiter = max(20, int(CG_ITERATIONS_PER_ROOT * math.sqrt(n)))
    phi = _solve_spd(schur, schur.rhs(b[kept], b[elim]), maxiter, math.sqrt(_dot(b, b)))

    potential = np.zeros(n)
    potential[src] = 1.0
    potential[kept] = phi
    potential[elim] = schur.recover(b[elim], phi)
    other = nbr[:, src]
    current = float(np.sum(1.0 - potential[other[other < n]]))
    if current <= 0:
        return float("inf")
    return 1.0 / current


def _gather(table: np.ndarray, *parts: np.ndarray) -> np.ndarray:
    """out[i] = sum over s of v[table[s, i]], v the parts joined and padded
    with a zero: one gather per table row."""
    v = np.concatenate([*parts, [0.0]])
    out = np.zeros(table.shape[1])
    for nbr in table:
        out += v.take(nbr)
    return out


@dataclass(frozen=True)
class _Schur:
    """Schur complement S = D_K - A_KK - A_KE D_E^-1 A_EK of the free-vertex
    Laplacian onto the kept vertices K, in gather form.

    D holds the degrees of the free vertices, every open edge counted
    (those to the source and the ground too), and A their adjacency.  No
    edge joins two eliminated vertices E, so D_E is their whole block.
    Free vertices are numbered kept first, then eliminated, each part in
    vertex order; kept_nbrs is the gather table of [A_KK A_KE] in that
    numbering, read off the masked neighbour table with the pad for any
    other slot, and elim_nbrs that of A_EK, packed: each column's entries
    move up past its pads, since `diag`'s bincount adds in ravel order.
    `diag` is S's diagonal: D_K less c^2 / D_e for each eliminated e that
    c parallel edges join to the kept vertex.
    """

    deg: np.ndarray
    inv_elim: np.ndarray
    kept_nbrs: np.ndarray
    elim_nbrs: np.ndarray
    diag: np.ndarray

    @classmethod
    def build(cls, deg, kept, elim, nbr) -> _Schur:
        """From the degrees and the kept and eliminated masks over the box's
        vertices, and its neighbour table under the mask."""
        n_kept = int(kept.sum())
        n_free = n_kept + int(elim.sum())
        col = np.full(len(kept) + 1, n_free)  # the pad and every fixed vertex
        col[:-1][kept] = np.arange(n_kept)
        col[:-1][elim] = np.arange(n_kept, n_free)
        kept_nbrs = col[nbr[:, kept]]
        # an eliminated vertex's free neighbours are all kept
        near = col[nbr[:, elim]]
        is_kept = near < n_kept
        slot = np.cumsum(is_kept, axis=0) - 1
        elim_nbrs = np.full((is_kept.sum(axis=0).max(initial=0), near.shape[1]), n_kept)
        elim_nbrs[slot[is_kept], np.nonzero(is_kept)[1]] = near[is_kept]
        inv_elim = 1.0 / deg[elim]
        # each entry of e's column counts once per entry equal to it: c^2 in all
        mult = (elim_nbrs[:, None] == elim_nbrs[None, :]).sum(axis=1)
        loss = np.bincount(elim_nbrs.ravel(), weights=(mult * inv_elim).ravel(),
                           minlength=n_kept + 1)
        return cls(deg[kept], inv_elim, kept_nbrs, elim_nbrs, deg[kept] - loss[:n_kept])

    def rhs(self, b_kept: np.ndarray, b_elim: np.ndarray) -> np.ndarray:
        """b_K + A_KE D_E^-1 b_E, the reduced system's right-hand side."""
        return b_kept + _gather(self.kept_nbrs, np.zeros_like(b_kept), self.inv_elim * b_elim)

    def recover(self, b_elim: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """The eliminated potentials D_E^-1 (b_E + A_EK phi_K)."""
        return self.inv_elim * (b_elim + _gather(self.elim_nbrs, phi))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.deg * x - _gather(self.kept_nbrs, x, self.inv_elim * _gather(self.elim_nbrs, x))


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.einsum("i,i->", u, v))


def _solve_spd(op: _Schur, b, maxiter: int, b_norm: float) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients (Hestenes & Stiefel 1952).

    The recurrence of scipy.sparse.linalg.cg with M = diag(op)^-1, read
    from op.diag: from x = 0, stop once |r| < SOLVER_RTOL b_norm or raise
    after maxiter steps; b_norm = 0 gives 0.  b_norm is the norm of the
    full system's right-hand side, whose residual is r on the kept rows
    and zero on the eliminated ones.  Its inner products are fixed-order
    einsum sums, not the BLAS calls scipy makes, whose summation order
    (and so the result's last bits) depends on the BLAS thread count.
    """
    inv_diag = 1.0 / np.where(op.diag > 0, op.diag, 1.0)
    x = np.zeros_like(b)
    if b_norm == 0:
        return x
    r = b.copy()
    p = rho_prev = None
    for _ in range(maxiter):
        if math.sqrt(_dot(r, r)) < SOLVER_RTOL * b_norm:
            return x
        z = inv_diag * r
        rho = _dot(r, z)
        if p is None:
            p = z
        else:
            p *= rho / rho_prev
            p += z
        q = op @ p
        alpha = rho / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    raise SolverConvergenceError(f"conjugate gradient stopped with status {maxiter}")


def resistance_profile(graph: BoxGraph, p: float, radii, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Origin-to-sphere resistances and oriented-cluster sizes, seeds x radii.

    Each radius's sub-box is cut once and percolated with every seed.
    Uniforms follow the edge keys, so a seed's masks are nested across
    radii (its resistances are nondecreasing) and coupled across p.
    Cluster sizes follow orientation; resistance ignores it.
    """
    radii, seeds = list(radii), list(seeds)
    if radii != sorted(radii) or len(set(radii)) != len(radii):
        raise ConfigError("radii must be strictly increasing")
    if not radii or radii[-1] > graph.radius:
        raise ConfigError("radii must be nonempty and within the graph radius")
    resistance = np.empty((len(seeds), len(radii)))
    cluster_size = np.empty((len(seeds), len(radii)), dtype=np.int64)
    for j, r in enumerate(radii):
        sub = graph.sub_box(r)
        for i, seed in enumerate(seeds):
            mask = percolate(sub, p, seed)
            resistance[i, j] = effective_resistance(mask)
            cluster_size[i, j] = len(oriented_cluster(mask))
    return resistance, cluster_size


@dataclass(frozen=True)
class FlowAssignment:
    """Unit flow from the origin to the sphere at the box radius, signed
    along edge orientation, averaged over `surviving` sampled paths.
    """

    flow: np.ndarray
    surviving: int

    def energy(self) -> float:
        return float(np.sum(self.flow**2))


def path_flow_assignment(mask: SubgraphMask, num_paths: int, seed: int) -> FlowAssignment | None:
    """Average of surviving oriented-path unit flows, truncated at the shell.

    Words are drawn uniformly (fair a/b letters); a word survives when
    its first `radius` edges are all open, which is the entire portion
    inside the box since an oriented prefix of length t sits at distance
    exactly t.  None when no word survives.
    """
    if num_paths < 1:
        raise ConfigError("num_paths must be positive")
    graph = mask.graph
    r = graph.radius
    rng = stream(seed, 0)
    words = rng.integers(0, 2, size=(num_paths, max(2 * r, 1)), dtype=np.uint8)
    # advance every word one letter at a time, keeping the ones still open
    alive = np.arange(num_paths)
    at = np.full(num_paths, graph.origin)
    used = np.zeros((num_paths, r), dtype=np.int64)
    for t in range(r):
        e = graph.slots[words[alive, t], at]
        ok = e >= 0
        ok[ok] = mask.open[e[ok]]
        alive, at, e = alive[ok], graph.heads[e[ok]], e[ok]
        used[alive, t] = e
    if len(alive) == 0:
        return None
    # an oriented path never repeats an edge, so counting edge uses is exact
    counts = np.bincount(used[alive].ravel(), minlength=graph.n_edges)
    flow = counts / len(alive)
    flow.flags.writeable = False
    return FlowAssignment(flow, len(alive))


def path_flow_energy(graph: BoxGraph, p: float, num_paths: int, seed: int) -> tuple[float, int]:
    """Energy of the averaged surviving-path flow on graph; (inf, 0) if none survive.

    The flow is feasible for the origin-to-sphere problem, so by the
    Thomson principle its energy upper-bounds effective_resistance on
    the same mask.
    """
    mask = percolate(graph, p, seed)
    assignment = path_flow_assignment(mask, num_paths, seed)
    if assignment is None:
        return float("inf"), 0
    return assignment.energy(), assignment.surviving
