"""Brute-force references for the array kernels of heisenberg, percolation,
paths, reference and tables: one vertex, one edge or one step at a time in
plain Python, or the whole object without the symmetries or the reachable
window the kernel uses.

Each returns what the kernel it checks returns (or the arrays it builds),
so the tests can demand exact equality.  chunk_letters decodes the letters
the Monte Carlo engine draws, so that a per-pair loop can recount them.
"""

from itertools import product

import numpy as np

from heiswalk import paths
from heiswalk.heisenberg import IDENTITY, GroupElement
from heiswalk.reference import _srw_box
from heiswalk.rng import stream


def ball_distances(radius):
    """Word distance of every element of the ball, by a dict BFS."""
    dist = {IDENTITY: 0}
    frontier = [IDENTITY]
    for r in range(1, radius + 1):
        next_frontier = []
        for n, m, k in frontier:
            for h in (
                GroupElement(n + 1, m, k - m),
                GroupElement(n - 1, m, k + m),
                GroupElement(n, m + 1, k),
                GroupElement(n, m - 1, k),
            ):
                if h not in dist:
                    dist[h] = r
                    next_frontier.append(h)
        frontier = next_frontier
    return dist


def _pack_heis(n, m, k):
    return (n + 512) | ((m + 512) << 10) | ((k + (1 << 20)) << 20)


def _pack_lattice(v):
    return sum((c + 2048) << (12 * pos) for pos, c in enumerate(v))


def box_arrays(family, radius):
    """The arrays of a BoxGraph, built vertex by vertex.

    family is "heisenberg" or "z<d>"; returns vertices, dist, tails,
    heads, labels, keys and out_edge.
    """
    if family == "heisenberg":
        dist_map = ball_distances(radius)
        n_labels = 2

        def steps(v):
            n, m, k = v
            return ((0, (n + 1, m, k - m)), (1, (n, m + 1, k)))

        def key_of(v, label):
            return _pack_heis(*v) | (label << 41)
    else:
        d = int(family[1:])
        dist_map = {
            v: sum(abs(c) for c in v)
            for v in product(range(-radius, radius + 1), repeat=d)
            if sum(abs(c) for c in v) <= radius
        }
        n_labels = d

        def steps(v):
            return [(axis, v[:axis] + (v[axis] + 1,) + v[axis + 1 :]) for axis in range(d)]

        def key_of(v, label):
            return _pack_lattice(v) | (label << (12 * d))

    vertices = sorted((tuple(v) for v in dist_map), key=lambda v: (dist_map[v], v))
    index = {v: i for i, v in enumerate(vertices)}
    edges = []
    for i, v in enumerate(vertices):
        for label, head in steps(v):
            j = index.get(head)
            if j is not None:
                edges.append((i, j, label, key_of(v, label)))
    out_edge = np.full((len(vertices), n_labels), -1, dtype=np.int64)
    for e, (i, _j, label, _key) in enumerate(edges):
        out_edge[i, label] = e
    cols = list(zip(*edges)) if edges else [(), (), (), ()]
    return {
        "vertices": tuple(vertices),
        "dist": np.array([dist_map[v] for v in vertices]),
        "tails": np.array(cols[0], dtype=np.int64),
        "heads": np.array(cols[1], dtype=np.int64),
        "labels": np.array(cols[2], dtype=np.int64),
        "keys": np.array(cols[3], dtype=np.uint64),
        "out_edge": out_edge,
    }


def component(mask, start, limit):
    """Undirected open component of start within the radius limit, by DFS."""
    graph = mask.graph
    adjacent = [[] for _ in range(graph.n_vertices)]
    for e, (t, h) in enumerate(zip(graph.tails.tolist(), graph.heads.tolist())):
        if mask.open[e]:
            adjacent[t].append(h)
            adjacent[h].append(t)
    seen = {start}
    stack = [start]
    while stack:
        for j in adjacent[stack.pop()]:
            if j not in seen and graph.dist[j] <= limit:
                seen.add(j)
                stack.append(j)
    return seen


def oriented_cluster(mask, start, limit):
    """Vertices reachable from start along open directed edges, by DFS."""
    graph = mask.graph
    seen = {start}
    stack = [start]
    while stack:
        i = stack.pop()
        for e in graph.out_edge[i]:
            if e >= 0 and mask.open[e]:
                j = int(graph.heads[e])
                if j not in seen and graph.dist[j] <= limit:
                    seen.add(j)
                    stack.append(j)
    return {graph.vertices[i] for i in seen}


def path_flow(graph, mask, num_paths, seed):
    """(edge use counts, surviving paths, sinks), one word at a time."""
    r = graph.radius
    words = stream(seed, 0).integers(0, 2, size=(num_paths, max(2 * r, 1)), dtype=np.uint8)
    counts = np.zeros(graph.n_edges)
    surviving = 0
    sinks = set()
    origin = graph.index[tuple(graph.origin)]
    for w in words:
        edge_ids = []
        i = origin
        for t in range(r):
            e = graph.out_edge[i, w[t]]
            if e < 0 or not mask.open[e]:
                break
            edge_ids.append(e)
            i = graph.heads[e]
        else:
            surviving += 1
            counts[edge_ids] += 1.0
            sinks.add(graph.vertices[i])
    return counts, surviving, frozenset(sinks)


def srw_intersection_values(n_base, samples, seed, num_doublings):
    """The values matrix of srw_mutual_intersections, one step at a time."""
    times = (0,) + tuple(n_base * 2**i for i in range(num_doublings + 1))
    t_max = times[-1]
    moves = ((1, 0), (-1, 0), (0, 1), (0, -1))  # (dx, dy) of a, a^-1, b, b^-1
    values = np.zeros((samples, len(times)), dtype=np.int64)
    for i in range(samples):
        rng = stream(seed, i)
        letters = [rng.integers(0, 4, size=t_max, dtype=np.uint8) for _ in range(2)]
        walkers = [[0, 0, 0], [0, 0, 0]]
        seen = [{(0, 0, 0)}, {(0, 0, 0)}]
        common = 1
        col = 0
        for t in range(t_max + 1):
            if t == times[col]:
                values[i, col] = common
                col += 1
            if t == t_max:
                break
            for w in (0, 1):
                dx, dy = moves[letters[w][t]]
                x, y, z = walkers[w]
                walkers[w] = [x + dx, y + dy, z - dx * y]
                p = tuple(walkers[w])
                if p not in seen[w]:
                    seen[w].add(p)
                    common += p in seen[1 - w]
    return values


def srw_profile_full_box(t_max):
    """(probabilities, dropped_mass) of srw_return_profile, each step over
    the whole box instead of the window the walk can have reached."""
    n = t_max // 2
    b_xy, b_z = _srw_box(n)
    nx = 2 * b_xy + 1
    nz = 2 * b_z + 1
    cur = np.zeros((nx, nx, nz))  # axes (y, x, z)
    cur[b_xy, b_xy, b_z] = 1.0
    nxt = np.empty_like(cur)
    probs = np.zeros(t_max + 1)
    probs[0] = 1.0
    for s in range(1, n + 1):
        # b step: (x, y+1, z); b inverse: (x, y-1, z)
        nxt[0] = 0.0
        nxt[1:] = cur[:-1]
        nxt[:-1] += cur[1:]
        # a step: (x+1, y, z-y); a inverse: (x-1, y, z+y)
        for yi in range(nx):
            y = yi - b_xy
            lo = slice(max(0, -y), nz - max(0, y))
            hi = slice(max(0, y), nz - max(0, -y))
            nxt[yi, 1:, lo] += cur[yi, :-1, hi]
            nxt[yi, :-1, hi] += cur[yi, 1:, lo]
        nxt *= 0.25
        cur, nxt = nxt, cur
        probs[2 * s] = np.vdot(cur, cur)
    return probs, max(0.0, 1.0 - float(cur.sum()))


def chunk_letters(d, horizon, n, seed, index=0):
    """Letters (u, v), each (n, horizon), of the pairs walk_blocks draws for
    chunk `index`: its draw_pairs indices p decoded as u = p // d, v = p % d."""
    rng = stream(seed, index)
    blocks = -(-horizon // paths._BLOCK)
    pairs = np.concatenate([paths.draw_pairs(rng, d, n) for _ in range(blocks)], axis=1)
    return pairs[:, :horizon] // d, pairs[:, :horizon] % d


def pair_counts(u, v):
    """(shared edges, vertex meetings, re-meets) of one pair of Z^d letter
    words, one step at a time."""
    diff = {}
    together = True  # both walks start at the origin
    shared = vertices = remeets = 0
    for a, b in zip(u.tolist(), v.tolist()):
        shared += together and a == b
        diff[a] = diff.get(a, 0) + 1
        diff[b] = diff.get(b, 0) - 1
        now = not any(diff.values())
        vertices += now
        remeets += now and not together
        together = now
    return shared, vertices, remeets


def survivors(values):
    """{n: #values >= n} for n up to the largest value."""
    return {n: sum(1 for x in values if x >= n) for n in range(max(values) + 1)}


def full_row_tables(k_max):
    """Yield (k, rows, w_counts) for k = 1..k_max from the full-row float DP.

    rows[s] (s <= k//2) holds the whole of row s of the (S, W) table, offsets
    0..s(k-s), as float64 word counts: the DP uses the mirror between rows s
    and k-s but not the palindrome within a row.  w_counts is the W-marginal,
    scattered from every row and its mirror k-s.  The rows are views into
    buffers that the next step overwrites.
    """
    bufs = [np.zeros(s * (k_max - s) + 1) for s in range(k_max // 2 + 1)]
    bufs[0][0] = 1.0
    for k in range(1, k_max + 1):
        half = k // 2
        if k % 2 == 0:
            n = half * (half - 1) + 1
            bufs[half][:n] = bufs[half - 1][:n]
        for s in range(half, 0, -1):
            n = (s - 1) * (k - s) + 1
            bufs[s][k - s : k - s + n] += bufs[s - 1][:n]
        rows = [bufs[s][: s * (k - s) + 1] for s in range(half + 1)]
        w_counts = np.zeros(k * (k - 1) // 2 + 1)
        for s, row in enumerate(rows):
            for c in (s, k - s) if 2 * s < k else (s,):
                w_counts[c * (c - 1) // 2 :][: row.size] += row
        yield k, rows, w_counts
