"""Brute-force references for the array kernels of heisenberg, percolation,
paths, reference, tables and fourier: one vertex, one edge or one step at a
time in plain Python, or the whole object without the symmetries or the
reachable window the kernel uses.

Each returns what the kernel it checks returns (or the arrays it builds),
so the tests can demand exact equality.  chunk_letters decodes the letters
the Monte Carlo engine draws, so that a per-pair loop can recount them.
difference_walk_return_by is the dense-grid value of the renewal theta_d(h),
and theta_d_by_fractions its value in exact rationals.
The G_H word helpers (position, coincides, shared_edges, ...) read a 0/1
word one prefix at a time, and endpoint_collision_frequency reads the
engine's meetings at the last step only.

The group law on plain (n, m, k) tuples (multiply, inverse, word_eval over
GENERATORS) is the scalar reference for the packed-key ball search.  The
(S, W) table helpers (build_table, full_row, dense_mass, weight_bounds,
conditional_match_at_count) read the full-row DP full_row_tables, which
tables never builds; weight_laws_by_halving grows the whole W-law with a
halving pass every step, where tables keeps half of it in counts;
row_square_sums_by_gather takes the roots of unity of
tables._row_square_sums in their natural order, through index gathers;
inversion_marginal and cf_magnitude_integral rederive the W-marginal and a
bound on it from the exact characteristic function.  simpson_five_node
takes the integrand on five nodes of every panel, where
fourier._adaptive_simpson takes each shared edge once; cos_product_by_cos
takes one np.cos per factor where fourier.cos_product rotates exp(ijx),
and zd_collision_by_comb takes one math.comb per term and runs every
coordinate pass in full.
build_custom_graph makes hand-built resistor networks, dirichlet_system
builds the resistance solve's scipy CSR Laplacian edge by edge, and
flow_conservation checks that a path flow is a unit flow from the origin to
the sphere at the box radius.  traced_peak measures a call's peak of
Python-visible allocations, numpy arrays included.
"""

import functools
import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np

from heiswalk import paths, reference
from heiswalk.errors import QuadratureError
from heiswalk.fourier import (
    _TOL_ABS,
    _TOL_REL,
    QuadratureResult,
    _adaptive_simpson,
    _initial_edges,
    cos_product,
    folding_distance,
)
from heiswalk.percolation import BoxGraph
from heiswalk.rng import stream
from heiswalk.tables import _odd_prime_above

IDENTITY = (0, 0, 0)
A, B, A_INV, B_INV = GENERATORS = ((1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0))


def multiply(g, h):
    """(n, m, k) * (n', m', k') = (n + n', m + m', k + k' - m * n')."""
    return (g[0] + h[0], g[1] + h[1], g[2] + h[2] - g[1] * h[0])


def inverse(g):
    return (-g[0], -g[1], -g[2] - g[0] * g[1])


def word_eval(word, start=IDENTITY):
    """start times the generators of word, multiplied left to right."""
    return functools.reduce(multiply, word, start)


def ball_distances(radius):
    """Word distance of every element of the ball, by a dict BFS."""
    dist = {IDENTITY: 0}
    frontier = [IDENTITY]
    for r in range(1, radius + 1):
        next_frontier = []
        for n, m, k in frontier:
            for h in ((n + 1, m, k - m), (n - 1, m, k + m), (n, m + 1, k), (n, m - 1, k)):
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

    family is "heisenberg" or "z<d>"; returns coords, dist, tails,
    heads, labels, keys, and the neighbour table slots and ends: each
    vertex's out-edges by label, then its in-edges in edge order, each
    column padded with -1 (slots) and the vertex count (ends).
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
    out_slots = [[-1] * n_labels for _ in vertices]
    in_slots = [[] for _ in vertices]
    for e, (i, j, label, _key) in enumerate(edges):
        out_slots[i][label] = e
        in_slots[j].append(e)
    width = n_labels + max(map(len, in_slots), default=0)
    slots = np.full((width, len(vertices)), -1, dtype=np.int64)
    ends = np.full((width, len(vertices)), len(vertices), dtype=np.int64)
    for v, (out, inn) in enumerate(zip(out_slots, in_slots)):
        for s, e in enumerate(out + inn):
            if e >= 0:
                slots[s, v] = e
                ends[s, v] = edges[e][1] if s < n_labels else edges[e][0]
    cols = list(zip(*edges)) if edges else [(), (), (), ()]
    return {
        "coords": np.array(vertices, dtype=np.int64).reshape(len(vertices), -1),
        "dist": np.array([dist_map[v] for v in vertices]),
        "tails": np.array(cols[0], dtype=np.int64),
        "heads": np.array(cols[1], dtype=np.int64),
        "labels": np.array(cols[2], dtype=np.int64),
        "keys": np.array(cols[3], dtype=np.uint64),
        "slots": slots,
        "ends": ends,
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


def dirichlet_system(mask, source, r):
    """(L, b) of effective_resistance's solve, one edge at a time.

    The free vertices are source's component within radius r less the
    source and the sphere at r, numbered in vertex order; L is their
    Laplacian as a scipy CSR matrix and b[i] counts the open edges from
    free vertex i to the source.
    """
    from scipy.sparse import csr_matrix

    graph = mask.graph
    comp = component(mask, source, r)
    free = sorted(v for v in comp if v != source and graph.dist[v] < r)
    index = {v: i for i, v in enumerate(free)}
    entries = {}
    b = np.zeros(len(free))
    for e, (t, h) in enumerate(zip(graph.tails.tolist(), graph.heads.tolist())):
        if not (mask.open[e] and t in comp and h in comp):
            continue
        for u, v in ((t, h), (h, t)):
            if u in index:
                i = index[u]
                entries[i, i] = entries.get((i, i), 0.0) + 1.0
                if v in index:
                    entries[i, index[v]] = entries.get((i, index[v]), 0.0) - 1.0
                elif v == source:
                    b[i] += 1.0
    rows, cols = zip(*entries) if entries else ((), ())
    return csr_matrix((list(entries.values()), (rows, cols)), shape=(len(free), len(free))), b


def oriented_cluster(mask, start, limit):
    """Sorted vertices reachable from start along open directed edges, by DFS."""
    graph = mask.graph
    seen = {start}
    stack = [start]
    while stack:
        i = stack.pop()
        for e in graph.slots[: graph.n_labels, i]:
            if e >= 0 and mask.open[e]:
                j = int(graph.heads[e])
                if j not in seen and graph.dist[j] <= limit:
                    seen.add(j)
                    stack.append(j)
    return np.array(sorted(seen))


def path_flow(graph, mask, num_paths, seed):
    """(edge use counts, surviving paths), one word at a time."""
    r = graph.radius
    words = stream(seed, 0).integers(0, 2, size=(num_paths, max(2 * r, 1)), dtype=np.uint8)
    counts = np.zeros(graph.n_edges)
    surviving = 0
    for w in words:
        edge_ids = []
        i = graph.origin
        for t in range(r):
            e = graph.slots[w[t], i]
            if e < 0 or not mask.open[e]:
                break
            edge_ids.append(e)
            i = graph.heads[e]
        else:
            surviving += 1
            counts[edge_ids] += 1.0
    return counts, surviving


def srw_intersection_values(n_base, samples, seed, num_doublings):
    """The values matrix of srw_mutual_intersections, one step at a time."""
    times = (0,) + tuple(n_base * 2**i for i in range(num_doublings + 1))
    t_max = times[-1]
    moves = ((1, 0), (-1, 0), (0, 1), (0, -1))  # (dx, dy) of a, a^-1, b, b^-1
    values = np.zeros((samples, len(times)), dtype=np.int64)
    chunk = reference.INTERSECTION_CHUNK
    for i in range(samples):
        b, k = divmod(i, chunk)
        if k == 0:  # batch b's rows are walks u0, v0, u1, v1, ...
            batch = stream(seed, b).integers(
                0, 4, size=(2 * min(chunk, samples - i), t_max), dtype=np.uint8)
        letters = batch[2 * k:2 * k + 2]
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


def traced_peak(fn, *args, **kwargs):
    """Peak bytes that tracemalloc sees allocated during fn(*args, **kwargs)."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def srw_profile_full_box(t_max):
    """(probabilities, dropped_mass) of srw_return_profile, step s over the
    whole |x|, |y| <= s square and z range of a (y, x, z) box instead of the
    rotated window the walk can have reached.

    Once every cell off step s's sublattice (x + y = s mod 2, |x| + |y| <= s,
    |z| <= s^2 / 4) is checked to be zero, the law is laid out as
    srw_return_profile holds it, on P = (s + x + y) / 2, Q = (s + x - y) / 2,
    and summed in its order."""
    n = t_max // 2
    b_z = reference._srw_box(n)
    nz = 2 * b_z + 1
    cur = np.zeros((2 * n + 1, 2 * n + 1, nz))  # axes (y, x, z), the origin at (n, n, b_z)
    cur[n, n, b_z] = 1.0
    nxt = np.zeros_like(cur)
    rotated = np.zeros((n + 1, n + 1, nz))  # axes (P, Q, z)
    rotated[0, 0, b_z] = 1.0
    probs = np.zeros(t_max + 1)
    probs[0] = 1.0
    for s in range(1, n + 1):
        square = slice(n - s, n + s + 1)
        src, dst = cur[square, square], nxt[square, square]
        # b step: (x, y+1, z); b inverse: (x, y-1, z)
        dst[0] = 0.0
        dst[1:] = src[:-1]
        dst[:-1] += src[1:]
        # a step: (x+1, y, z-y); a inverse: (x-1, y, z+y)
        for yi in range(2 * s + 1):
            y = yi - s
            lo = slice(max(0, -y), nz - max(0, y))
            hi = slice(max(0, y), nz - max(0, -y))
            dst[yi, 1:, lo] += src[yi, :-1, hi]
            dst[yi, :-1, hi] += src[yi, 1:, lo]
        dst *= 0.25
        cur, nxt = nxt, cur
        p, q = np.mgrid[:s + 1, :s + 1]
        x, y = p + q - s + n, p - q + n
        w_z = min(s * s // 4, b_z)
        z = slice(b_z - w_z, b_z + w_z + 1)
        assert np.count_nonzero(cur) == np.count_nonzero(cur[y, x, z]), s
        rotated = np.zeros_like(rotated)
        rotated[p, q] = cur[y, x]
        probs[2 * s] = np.einsum("ijk,ijk->", rotated[:s + 1, :s + 1, z],
                                 rotated[:s + 1, :s + 1, z])
    return probs, max(0.0, 1.0 - float(rotated.sum()))


def zd_collision_by_comb(d, k):
    """reference.zd_collision_probability(d, k): d full coordinate passes,
    each term's binomial from math.comb, where the kernel splits the letters."""
    f = [0] * (k + 1)
    f[0] = 1
    for _ in range(d):
        g = [0] * (k + 1)
        for t in range(k + 1):
            acc = 0
            for v in range(t + 1):
                prev = f[t - v]
                if prev:
                    acc += prev * math.comb(k - (t - v), v) ** 2
            g[t] = acc
        f = g
    return float(Fraction(f[k], d ** (2 * k)))


def sample_word(k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform 0/1 word of length k as a uint8 array."""
    return rng.integers(0, 2, size=k, dtype=np.uint8)


def _as_bits(word) -> np.ndarray:
    bits = np.asarray(word, dtype=np.uint8)
    if bits.ndim != 1 or np.any(bits > 1):
        raise ValueError("a word is a one-dimensional array of 0/1 bits")
    return bits


def position(word, t: int | None = None) -> tuple:
    """Vertex reached after the first t steps of the word."""
    bits = _as_bits(word)
    t = bits.size if t is None else int(t)
    if not 0 <= t <= bits.size:
        raise ValueError(f"time {t} outside 0..{bits.size}")
    prefix = bits[:t].astype(np.int64)
    y = int(prefix.sum())
    ones_before = np.cumsum(prefix) - prefix
    z = -int(ones_before[prefix == 0].sum())
    return (t - y, y, z)


def weighted_sum(word, t: int | None = None) -> int:
    """sum_{j < t} j * alpha_j for the first t bits."""
    bits = _as_bits(word)
    t = bits.size if t is None else int(t)
    if not 0 <= t <= bits.size:
        raise ValueError(f"time {t} outside 0..{bits.size}")
    return int(np.dot(np.arange(t, dtype=np.int64), bits[:t].astype(np.int64)))


def coincides(u, v, t: int) -> bool:
    """True when the two paths occupy the same vertex at time t.

    Uses the count/weighted-sum reduction; position() gives the same
    answer by construction of the group law.
    """
    ub, vb = _as_bits(u), _as_bits(v)
    if t > ub.size or t > vb.size:
        raise ValueError("time beyond a word's length")
    if int(ub[:t].sum()) != int(vb[:t].sum()):
        return False
    return weighted_sum(ub, t) == weighted_sum(vb, t)


def vertex_coincidences(u, v) -> int:
    """Number of times t >= 1 at which the paths share a vertex."""
    ub, vb = _as_bits(u), _as_bits(v)
    k = min(ub.size, vb.size)
    return sum(1 for t in range(1, k + 1) if coincides(ub, vb, t))


def shared_edges(u, v) -> int:
    """Number of directed edges traversed by both paths.

    Positions carry their step count, so a common edge is always crossed
    at the same time index by both paths: count steps t with coinciding
    positions at t and equal bits at index t.
    """
    ub, vb = _as_bits(u), _as_bits(v)
    k = min(ub.size, vb.size)
    return sum(1 for t in range(k) if ub[t] == vb[t] and coincides(ub, vb, t))


def endpoint_collision_frequency(k: int, samples: int, seed: int) -> float:
    """Fraction of independent pairs of length-k words meeting at time k,
    in the engine's chunks."""

    def hits(size: int, index: int) -> int:
        for _t0, _rows, met, _fresh in paths.walk_blocks(2, k, size, seed, index,
                                                         heisenberg=True):
            pass
        return np.count_nonzero(met[:, -1], keepdims=True)

    return float(paths.map_chunks(hits, samples, k, threads=1)[0]) / samples


def block_pairs(drawn, d):
    """(n, 256) letter-pair indices a*d + b, in step order, of one draw_pairs
    block: at d = 2 and 4 bit field i of byte k is step k + i * (bytes a row)."""
    if drawn.shape[1] == 256:
        return drawn
    bits = (d * d).bit_length() - 1
    return np.concatenate([drawn >> bits * i & d * d - 1 for i in range(8 // bits)], axis=1)


def chunk_letters(d, horizon, n, seed, index=0):
    """Letters (u, v), each (n, horizon), of the pairs walk_blocks draws for
    chunk `index`: its block_pairs indices p decoded as u = p // d, v = p % d."""
    rng = stream(seed, index)
    blocks = -(-horizon // paths._BLOCK)
    pairs = np.concatenate([block_pairs(paths.draw_pairs(rng, d, n), d) for _ in range(blocks)],
                           axis=1)
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


def weight_laws_by_halving(k_max):
    """Yield (k, P[W = w] for w = 0..k(k-1)/2) for k = 1..k_max: the whole
    law, with a halving pass at every step.

    The recursion tables._weight_laws replaced; each law is a view of one
    buffer that the next step overwrites.
    """
    law = np.zeros(k_max * (k_max - 1) // 2 + 1)
    law[0] = 1.0
    for k in range(1, k_max + 1):
        n = k * (k - 1) // 2 + 1
        law[k - 1 : n] += law[: n - k + 1]  # numpy buffers the overlap
        law[:n] *= 0.5
        yield k, law[:n]


def weight_statistics_by_halving(k_values):
    """tables.weight_statistics from weight_laws_by_halving."""
    wanted = set(k_values)
    return {k: (float(law.max()), float(np.sum(law * law)))
            for k, law in weight_laws_by_halving(max(wanted)) if k in wanted}


def row_square_sums_by_gather(k):
    """tables._row_square_sums with the roots in the order j = 1..(M-1)/2.

    Each step gathers sin2[j(k-s+1) mod M] and sin2[js mod M] from the
    folded table through two index arrays that it advances mod M; the
    frexp bookkeeping, the scale and the certificate are those of tables.
    """
    half = k // 2
    m = _odd_prime_above(half * (k - half))
    j = np.arange(1, (m + 1) // 2)
    r = np.arange(m)
    sin2 = np.sin(np.pi * np.minimum(r, m - r) / m) ** 2
    frac, expo = np.ones(j.size), np.zeros(j.size, dtype=np.int64)
    up, down = j * k % m, j.copy()  # residues of j(k-s+1) and js, from s = 1
    rows = []
    for s in range(half + 1):
        if s:
            frac *= sin2[up]
            frac /= sin2[down]
            frac, step = np.frexp(frac)
            expo += step
            up -= j
            np.add(up, m, out=up, where=up < 0)
            down += j
            np.subtract(down, m, out=down, where=down >= m)
        c = math.comb(k, s)
        b = c.bit_length()
        scale = ((np.maximum(expo - 2 * b, -1023) + 1023) << 52).view(np.float64)
        value = (c * c / 4**b + 2.0 * float((frac * scale).sum())) / m
        n = 32 * s + (m + 3) // 2
        u = 2.0**-53
        err = 2 * n * u / (1 - 2 * n * u) * value + m * 2.0**-1022
        if err < math.ldexp(0.5, -2 * b):
            value, b, err = float(round(math.ldexp(value, 2 * b))), 0, 0.0
        rows.append((value, b, err))
    return rows


def difference_walk_return_by(d: int, horizon: int) -> float:
    """Exact P[difference walk returns by `horizon`], embedded convention.

    Oracle for reference.theta_d_exact at small horizons: dense
    convolution of the lazy difference walk on the zero-sum hyperplane
    (coordinates projected to the first d-1) in a (2h+1)^(d-1) box, with
    the origin absorbing once the walk has left it.  Mixes over the
    geometric time of the first actual move.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if horizon < 1:
        return 0.0
    dim = d - 1
    # projected increments e_i - e_j for i != j, with multiplicity
    moves: dict[tuple[int, ...], float] = {}
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            vec = [0] * dim
            if i < dim:
                vec[i] += 1
            if j < dim:
                vec[j] -= 1
            key = tuple(vec)
            moves[key] = moves.get(key, 0.0) + 1.0 / (d * d)
    hold = 1.0 / d

    r = horizon  # box radius
    shape = (2 * r + 1,) * dim
    grid = np.zeros(shape)
    origin = (r,) * dim
    # start: distribution after the first actual move
    move_mass = 1.0 - hold
    for vec, w in moves.items():
        grid[tuple(r + v for v in vec)] += w / move_mass

    def shifted(g: np.ndarray, vec: tuple[int, ...]) -> np.ndarray:
        out = g
        for axis, v in enumerate(vec):
            out = np.roll(out, v, axis=axis)
            # zero the wrapped band
            sl = [slice(None)] * dim
            if v > 0:
                sl[axis] = slice(0, v)
            elif v < 0:
                sl[axis] = slice(v, None)
            if v != 0:
                out[tuple(sl)] = 0.0
        return out

    absorbed = np.zeros(horizon)  # absorbed[h] = P[back at origin within h steps of the move]
    acc = grid[origin]
    grid[origin] = 0.0
    absorbed[0] = acc
    for h in range(1, horizon):
        nxt = hold * grid
        for vec, w in moves.items():
            nxt += w * shifted(grid, vec)
        grid = nxt
        acc += grid[origin]
        grid[origin] = 0.0
        absorbed[h] = acc

    # first actual move at step m with probability hold^(m-1) * (1 - hold)
    total = 0.0
    for m in range(1, horizon + 1):
        total += hold ** (m - 1) * move_mass * absorbed[horizon - m]
    return float(total)


def theta_d_by_fractions(d: int, horizon: int) -> Fraction:
    """reference.theta_d_exact in exact rationals.

    The meeting counts c_t, the pairs of t-letter words over d letters with
    equal letter counts, are (t!)^2 [x^t] (sum_k x^k / (k!)^2)^d; u_t =
    c_t / d^(2t).  The renewal equation gives f_t = u_t - sum_{s<t} f_s
    u_(t-s), f_1 = 1/d is the hold and is dropped, and the holds fold back
    as acc_t = acc_(t-1) / d + phi_t, theta = sum_{t<=h} acc_t."""
    term = [Fraction(1, math.factorial(k) ** 2) for k in range(horizon + 1)]
    power = [Fraction(1)] + [Fraction(0)] * horizon
    for _ in range(d):
        power = [sum(power[i] * term[t - i] for i in range(t + 1)) for t in range(horizon + 1)]
    counts = [power[t] * math.factorial(t) ** 2 for t in range(horizon + 1)]
    assert all(c.denominator == 1 for c in counts)
    u = [Fraction(c.numerator, d ** (2 * t)) for t, c in enumerate(counts)]
    f = [Fraction(0)] * (horizon + 1)
    for t in range(1, horizon + 1):
        f[t] = u[t] - sum(f[s] * u[t - s] for s in range(1, t))
    if horizon >= 1:
        assert f[1] == Fraction(1, d)
        f[1] = Fraction(0)
    acc = total = Fraction(0)
    for value in f[1:]:
        acc = acc / d + value
        total += acc
    return total


def build_table(k):
    """(k, rows, w_counts) of full_row_tables at word length k, as copies."""
    for _k, rows, w_counts in full_row_tables(k):
        pass
    return k, [row.copy() for row in rows], w_counts


def full_row(table, s):
    """Word counts of row s (0 <= s <= k) of a build_table table by W - s(s-1)/2."""
    k, rows, _w_counts = table
    return rows[min(s, k - s)]


def dense_mass(table):
    """mass[s, w] = P[S == s, W == w] as a dense (k+1) x (k(k-1)/2+1) array."""
    k = table[0]
    mass = np.zeros((k + 1, k * (k - 1) // 2 + 1))
    for s in range(k + 1):
        row = full_row(table, s)
        mass[s, s * (s - 1) // 2 :][: row.size] = row * math.ldexp(1.0, -k)
    return mass


def weight_bounds(k, s):
    """Smallest and largest weighted sum achievable with s ones in k slots."""
    return s * (s - 1) // 2, s * (2 * k - s - 1) // 2


def conditional_match_at_count(table, s=None):
    """P[equal weighted sums | both counts equal s]; s defaults to k//2."""
    row = full_row(table, table[0] // 2 if s is None else s)
    return float(row @ row) / float(row.sum()) ** 2


def exact_char_function(k, x):
    """E[exp(i x W)] = prod_{j<k} (1 + exp(ijx))/2, elementwise over x."""
    x = np.asarray(x, dtype=float)
    out = np.ones(x.shape, dtype=complex)
    for j in range(1, k):
        out *= 0.5 * (1.0 + np.exp(1j * j * x))
    return out


def inversion_marginal(k):
    """All point masses P[W = n], n = 0..k(k-1)/2, by inverting the transform.

    W lives on a lattice, so the trapezoid rule over one period at as many
    nodes as the support size inverts the transform without aliasing:
    p_n = (1/M) sum_m phi(x_m) e^{-i n x_m}.
    """
    m = k * (k - 1) // 2 + 1
    return np.fft.fft(exact_char_function(k, 2.0 * math.pi * np.arange(m) / m)).real / m


def cf_magnitude_integral(k):
    """(1/2pi) * integral over [-pi, pi] of |exact transform|.

    Dominates every point mass of W (triangle inequality applied to the
    inversion integral).
    """
    if k == 1:
        return 1.0
    # |phi(x)| = prod |cos(jx/2)|: even, period 2*pi -> integrate [0, pi]
    res = _adaptive_simpson(
        lambda x: np.abs(exact_char_function(k, x)),
        _initial_edges(k, 0.0, 0.5 * math.pi) * 2.0,
        _TOL_ABS,
        _TOL_REL,
    )
    return res.value / math.pi


def cos_product_integral_whole(k):
    """integral over [-pi, pi] of the cos product, as 4x one quadrature over [0, pi/2].

    The reference for fourier.cos_product_integral, which integrates the
    head [0, 1/k] and the tail [1/k, pi/2] apart; this is the single
    quadrature it replaced, at a quarter of the absolute tolerance.
    """
    res = _adaptive_simpson(
        lambda x: cos_product(k, x),
        _initial_edges(k, 0.0, 0.5 * math.pi),
        _TOL_ABS / 4.0,
        _TOL_REL,
    )
    return 4.0 * res.value


def simpson_five_node(f, edges, tol_abs, tol_rel):
    """fourier._adaptive_simpson with f taken on five nodes of every panel,
    a + (b - a) * {0, 1/4, 1/2, 3/4, 1}, so on each inner edge twice; the
    tolerance is checked as there."""
    a, b = edges[:-1], edges[1:]
    h = b - a
    nodes = a[:, None] + h[:, None] * np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    fv = f(nodes.ravel()).reshape(nodes.shape)
    coarse = h / 6.0 * (fv[:, 0] + 4.0 * fv[:, 2] + fv[:, 4])
    fine = h / 12.0 * (fv[:, 0] + 4.0 * fv[:, 1] + 2.0 * fv[:, 2] + 4.0 * fv[:, 3] + fv[:, 4])
    total = float((fine + (fine - coarse) / 15.0).sum())
    total_err = float((np.abs(fine - coarse) / 15.0).sum())
    if not total_err <= max(tol_abs, tol_rel * abs(total)):
        raise QuadratureError(f"Simpson error estimate {total_err:.3g} is above tolerance")
    return QuadratureResult(total, total_err, a.size)


def cos_product_by_cos(k, x):
    """prod_{j<k} |cos(jx)|, elementwise over x, one np.cos per factor."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    for j in range(1, k):
        out *= np.abs(np.cos(j * x))
    return out


def tail_rate_floor(k):
    """min over a dense grid of [1/k, pi/2] of (1/k) * sum_{j<k} f(jx)^2.

    f is the distance to pi*Z.  Under |cos y| <= exp(-f(y)^2/2) the tail
    integrand is at most exp(-k * floor / 2), so a strictly positive floor
    certifies the exponential-in-k decay of the tail.
    """
    xs = np.linspace(1.0 / k, 0.5 * math.pi, min(100_000, 8192 + 16 * k))
    rate = np.zeros_like(xs)
    for j in range(1, k):
        rate += folding_distance(j * xs) ** 2
    return float(rate.min() / k)


def build_custom_graph(dist, edges):
    """Hand-built network: vertex i, with coordinates (i,), at distance
    dist[i]; edges are (tail, head, label) index triples.

    Keys are (tail << 8) | label, adequate since hand networks are never
    coupled across radii.
    """
    tails, heads, labels = np.array(edges, dtype=np.int64).reshape(-1, 3).T
    return BoxGraph(max(dist), np.arange(len(dist))[:, None], dist, tails, heads, labels,
                    (tails << 8) | labels, int(labels.max(initial=0)) + 1)


def flow_conservation(graph, flow):
    """(net outflow at the origin, largest |net outflow| at any vertex that
    is neither the origin nor on the sphere at the box radius) of an edge flow."""
    net = np.zeros(graph.n_vertices)
    np.add.at(net, graph.tails, flow)
    np.add.at(net, graph.heads, -flow)
    inner = (graph.dist < graph.radius) & (np.arange(graph.n_vertices) != graph.origin)
    return float(net[graph.origin]), float(np.abs(net[inner]).max(initial=0.0))
