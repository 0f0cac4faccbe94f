"""Percolation masks, resistance circuit algebra, and path flows."""

import itertools

import numpy as np
import oracles
import pytest
from oracles import build_custom_graph, flow_conservation

from heiswalk import percolation
from heiswalk.errors import CapExceededError, ConfigError
from heiswalk.percolation import (
    SubgraphMask,
    effective_resistance,
    heisenberg_box,
    lattice_box,
    oriented_cluster,
    path_flow_assignment,
    path_flow_energy,
    percolate,
    resistance_profile,
)


def line_graph(n_edges):
    """0 - 1 - ... - n chain with unit edges."""
    return build_custom_graph(range(n_edges + 1), [(i, i + 1, 0) for i in range(n_edges)])


def full_mask(graph):
    return percolate(graph, 1.0, seed=0)


def hand_mask(graph, open_bits):
    return SubgraphMask(graph, np.asarray(open_bits, dtype=bool))


def component(mask):
    """Sorted vertices of the undirected search over the box's neighbour
    table under the mask, as effective_resistance runs it."""
    g = mask.graph
    nbr = np.where(np.append(mask.open, False)[g.slots], g.ends, g.n_vertices)
    return np.flatnonzero(percolation._sweep(g, lambda frontier: nbr[:, frontier]))


def test_single_edge_resistance():
    assert effective_resistance(full_mask(line_graph(1))) == pytest.approx(1.0, abs=1e-8)


def test_series_resistance():
    assert effective_resistance(full_mask(line_graph(2))) == pytest.approx(2.0, abs=1e-8)
    assert effective_resistance(full_mask(line_graph(5))) == pytest.approx(5.0, abs=1e-8)
    # orientation is ignored: the middle edge of this chain points back
    g = build_custom_graph([0, 1, 2, 3], [(0, 1, 0), (2, 1, 1), (2, 3, 0)])
    assert effective_resistance(full_mask(g)) == pytest.approx(3.0, abs=1e-8)


def test_parallel_resistance():
    g = build_custom_graph([0, 1], [(0, 1, 0), (0, 1, 1)])
    assert effective_resistance(full_mask(g)) == pytest.approx(0.5, abs=1e-8)


def test_series_parallel_mix():
    # unit edge in parallel with a two-edge chain: 1/(1 + 1/2) = 2/3
    g = build_custom_graph([0, 1, 2], [(0, 1, 0), (1, 2, 0), (0, 2, 1)])
    assert effective_resistance(full_mask(g)) == pytest.approx(2 / 3, abs=1e-8)


def test_balanced_bridge():
    # Wheatstone square with a bridge; symmetry keeps the bridge idle
    o, a, b, t = 0, 1, 2, 3
    g = build_custom_graph(
        [0, 1, 1, 2],
        [(o, a, 0), (o, b, 1), (a, t, 0), (b, t, 0), (a, b, 1)],
    )
    assert effective_resistance(full_mask(g)) == pytest.approx(1.0, abs=1e-8)


def test_closed_edge_disconnects():
    g = line_graph(2)
    assert effective_resistance(hand_mask(g, [True, False])) == float("inf")
    assert effective_resistance(hand_mask(g, [False, True])) == float("inf")


def test_resistance_validation():
    # a radius-0 box has no sphere apart from the origin
    for g in (line_graph(3).sub_box(0), heisenberg_box(0)):
        with pytest.raises(ConfigError):
            effective_resistance(full_mask(g))


def test_kept_and_eliminated_odd_vertices(monkeypatch):
    # o-a-b-t (3 edges) in parallel with o-c-t (2): 3 * 2 / 5.  The odd
    # vertices a and b share an edge, so both are kept; c is eliminated.
    o, a, b, c, t = 0, 1, 2, 3, 4
    g = build_custom_graph([0, 1, 1, 1, 2], [(o, a, 0), (a, b, 0), (b, t, 0), (o, c, 1), (c, t, 0)])
    systems = []
    solve = percolation._solve_spd

    def record(op, *args):
        systems.append(op)
        return solve(op, *args)

    monkeypatch.setattr(percolation, "_solve_spd", record)
    assert effective_resistance(full_mask(g)) == pytest.approx(6 / 5, abs=1e-8)
    (op,) = systems
    assert (len(op.deg), len(op.inv_elim)) == (2, 1)
    # b and c each reach t by a label-0 edge: labels are unique per tail only
    assert oriented_cluster(full_mask(g)).tolist() == [o, a, b, c, t]


class _CountedOperator:
    """An operator whose products with vectors are counted: one per CG step."""

    def __init__(self, op):
        self.op, self.diag, self.steps = op, op.diag, 0

    def __matmul__(self, v):
        self.steps += 1
        return self.op @ v


# a hand network with every block: the odd a and b share an edge, so both
# are kept, as is the even m; the odd c is eliminated, and meets the
# source and m by two parallel edges each
_MIXED = build_custom_graph(
    [0, 1, 1, 1, 2, 3],
    [(0, 1, 0), (1, 2, 0), (0, 3, 1), (0, 3, 2), (3, 4, 0), (3, 4, 1), (2, 4, 0), (1, 4, 1),
     (4, 5, 0)],
)


def _recorded_systems(family, p, monkeypatch):
    """[(mask, op, b, maxiter, b_norm, phi)] of the solves effective_resistance
    makes on the masks of the sub-boxes of radii 2..8 of a radius-8 box
    (radius 1 has no free vertex), or on the one mask of a hand network;
    phi is the reduced solution."""
    solve = percolation._solve_spd
    systems = []

    def record(op, b, maxiter, b_norm):
        phi = solve(op, b, maxiter, b_norm)
        systems.append((op, b, maxiter, b_norm, phi))
        return phi

    if family == "mixed":
        masks = [full_mask(_MIXED)]
    else:
        graph = heisenberg_box(8) if family == "heisenberg" else lattice_box(2, 8)
        masks = [percolate(graph.sub_box(r), p, seed=3) for r in range(2, 9)]
    with monkeypatch.context() as patch:
        patch.setattr(percolation, "_solve_spd", record)
        for mask in masks:
            effective_resistance(mask)
    assert len(systems) == len(masks)
    return [(mask, *system) for mask, system in zip(masks, systems)]


def _schur_system(mask):
    """(L, b, free, kept, elim, S, b_S) from oracles.dirichlet_system: the
    full free system and its free vertices in vertex order, the kept and
    eliminated rows (the odd free vertices with no odd free neighbour are
    eliminated), and the Schur complement S = L_KK - L_KE L_EE^-1 L_EK with
    its right-hand side b_K - L_KE L_EE^-1 b_E, assembled by scipy."""
    from scipy.sparse import diags

    graph = mask.graph
    lap, b = oracles.dirichlet_system(mask, graph.origin, graph.radius)
    comp = oracles.component(mask, graph.origin, graph.radius)
    free = np.array(sorted(v for v in comp if v != graph.origin and graph.dist[v] < graph.radius),
                    dtype=np.int64)
    odd = graph.dist[free] % 2 == 1
    off_diagonal = abs(lap - diags(lap.diagonal()))
    elim = odd & (off_diagonal @ odd.astype(float) == 0)
    kept = ~elim
    lap_ee = lap[elim][:, elim]
    assert (lap_ee - diags(lap_ee.diagonal())).count_nonzero() == 0
    inv_ee = diags(1.0 / lap_ee.diagonal())
    lap_ke = lap[kept][:, elim]
    schur = (lap[kept][:, kept] - lap_ke @ inv_ee @ lap_ke.T).tocsr()
    return lap, b, free, kept, elim, schur, b[kept] - lap_ke @ (inv_ee @ b[elim])


def _gamma(m):
    u = 2.0**-53
    return m * u / (1 - m * u)


def _residual_norm(lap, b, x):
    """|b - Lx| rounded up by the rounding of its own evaluation.

    Each entry sums at most m + 1 products, m the most nonzeros in a row
    of L, so it is off by at most (m + 1) u (|b| + |L||x|), u = 2^-53.
    """
    m = int(np.diff(lap.indptr).max(initial=0))
    slack = (m + 1) * 2.0**-53 * np.linalg.norm(np.abs(b) + abs(lap) @ np.abs(x))
    return float(np.linalg.norm(b - lap @ x)) + slack


_SYSTEMS = [("heisenberg", 0.95), ("heisenberg", 1.0), ("z2", 1.0), ("mixed", 1.0)]


@pytest.mark.parametrize("family,p", _SYSTEMS)
def test_schur_complement_matches_scipy(family, p, monkeypatch):
    """The gather-form reduced system against the Schur complement of the
    system built edge by edge as a scipy CSR matrix: the same degrees, and
    the diagonal, right-hand side and products within rounding.

    Each side evaluates an entry as a sum of fewer than m terms, counting
    the divisions by D_e, so it lies within gamma_m = m u / (1 - m u),
    u = 2^-53, of the exact value scaled by the absolute terms
    (|D_K| + |A_KK| + |A_KE| D_E^-1 |A_EK|) |x|; the two lie within twice
    that of each other.
    """
    from scipy.sparse import diags

    rng = np.random.default_rng(5)
    for mask, op, b_s, maxiter, b_norm, _phi in _recorded_systems(family, p, monkeypatch):
        graph = mask.graph
        assert maxiter == max(20, int(percolation.CG_ITERATIONS_PER_ROOT
                                      * np.sqrt(graph.n_vertices)))
        lap, b, free, kept, elim, schur, want_b = _schur_system(mask)
        assert b_norm == np.linalg.norm(b)
        if family == "mixed":
            assert elim.tolist() == [False, False, True, False]  # a, b, c, m
        else:
            # no edge of a box joins two odd vertices: every odd free vertex goes
            assert np.array_equal(elim, graph.dist[free] % 2 == 1)
        degree = lap.diagonal()
        assert np.array_equal(op.deg, degree[kept])
        assert np.array_equal(op.inv_elim, 1.0 / degree[elim])
        a_ke = abs(lap[kept][:, elim])
        absolute = (abs(lap[kept][:, kept]) + a_ke @ diags(op.inv_elim) @ a_ke.T).tocsr()
        slots = max(len(op.kept_nbrs), len(op.elim_nbrs))
        bound = 2 * _gamma(int(np.diff(absolute.indptr).max(initial=0)) + 2 * slots + 4)
        assert np.all(np.abs(op.diag - schur.diagonal()) <= bound * absolute.diagonal())
        assert np.all(np.abs(b_s - want_b) <= bound * (b[kept] + a_ke @ (op.inv_elim * b[elim])))
        for _ in range(5):
            x = rng.standard_normal(len(b_s))
            assert np.all(np.abs(op @ x - schur @ x) <= bound * (absolute @ np.abs(x)))


@pytest.mark.parametrize("family,p", _SYSTEMS)
def test_cg_matches_scipy_step_for_step(family, p, monkeypatch):
    """_solve_spd against scipy's cg on the Schur complement assembled from
    the CSR Laplacian, with the same Jacobi preconditioner and stopping
    rule |r| < SOLVER_RTOL |b|, b the right-hand side of all free vertices.

    The two run the same recurrence and differ only in the order of their
    sums, so they take the same number of steps.  Two vectors x, y with
    residuals r_x = b - Sx and r_y = b - Sy of the same symmetric
    positive definite S satisfy x - y = S^-1 (r_y - r_x), so
    |x - y| <= (|r_x| + |r_y|) / lambda_min(S): that bounds the distance to
    scipy's solution, with lambda_min from a shift-invert eigensolve
    (or the dense eigenvalues of a small S).  The potential recovered
    from the reduced solution has a residual below SOLVER_RTOL |b| on
    the whole free system.
    """
    from scipy.sparse import diags
    from scipy.sparse.linalg import cg, eigsh

    for mask, op, b_s, maxiter, b_norm, phi in _recorded_systems(family, p, monkeypatch):
        lap, b, _free, kept, elim, schur, _ = _schur_system(mask)
        counted = _CountedOperator(op)
        got = percolation._solve_spd(counted, b_s, maxiter, b_norm)
        steps = []
        want, info = cg(schur, b_s, rtol=0.0, atol=percolation.SOLVER_RTOL * b_norm,
                        M=diags(1.0 / schur.diagonal()), callback=steps.append)
        assert info == 0
        assert counted.steps == len(steps)
        assert np.array_equal(got, phi)
        assert np.linalg.norm(b_s - schur @ got) <= percolation.SOLVER_RTOL * b_norm
        if schur.shape[0] > 8:
            lam_min = eigsh(schur, k=1, sigma=0, which="LM", return_eigenvectors=False)[0]
        else:
            lam_min = np.linalg.eigvalsh(schur.toarray()).min(initial=np.inf)
        bound = (_residual_norm(schur, b_s, got) + _residual_norm(schur, b_s, want)) / lam_min
        assert np.linalg.norm(got - want) <= bound

        full = np.empty(len(b))
        full[kept] = got
        full[elim] = op.recover(b[elim], got)
        assert np.linalg.norm(b - lap @ full) < percolation.SOLVER_RTOL * b_norm


def test_cg_zero_right_hand_side_returns_zeros():
    # vertices 0 and 1 joined by one edge, in slot 0 of 0 and slot 1 of 1
    op = percolation._Schur.build(np.array([2.0, 2.0]), np.array([True, True]),
                                  np.array([False, False]), np.array([[1, 2], [2, 0]]))
    assert np.array_equal(percolation._solve_spd(op, np.zeros(2), 20, 0.0), np.zeros(2))


def test_oriented_cluster_hand_mask():
    # only the chain 0 -> 1 -> 2 is open; vertex 3 is cut off
    g = line_graph(3)
    cluster = oriented_cluster(hand_mask(g, [True, True, False]))
    assert cluster.tolist() == [0, 1, 2]


def test_oriented_cluster_respects_orientation():
    # the origin mid-chain 0 -> 1 -> 2: only the forward edge is usable
    g = build_custom_graph([1, 0, 1], [(0, 1, 0), (1, 2, 0)])
    assert g.origin == 1
    assert oriented_cluster(full_mask(g)).tolist() == [1, 2]
    assert component(full_mask(g)).tolist() == [0, 1, 2]


def test_oriented_cluster_full_box_matches_word_closure():
    g = heisenberg_box(5)
    cluster = oriented_cluster(full_mask(g))
    reachable = set()
    for t in range(6):
        for w in itertools.product((0, 1), repeat=t):
            reachable.add(oracles.position(list(w)))
    assert len(cluster) == len(reachable)
    assert set(map(tuple, g.coords[cluster].tolist())) == reachable


def test_percolate_validation():
    g = line_graph(1)
    for p in (0.0, -0.1, 1.5):
        with pytest.raises(ConfigError):
            percolate(g, p, seed=1)


def test_open_fraction_tracks_p():
    mask = percolate(lattice_box(2, 160), 0.5, seed=42)
    n = mask.graph.n_edges
    assert n > 100_000
    assert abs(mask.open.mean() - 0.5) < 4 * np.sqrt(0.25 / n)
    assert not mask.open.flags.writeable


def test_masks_couple_monotonically_in_p():
    g = heisenberg_box(8)
    lo = percolate(g, 0.6, seed=7)
    hi = percolate(g, 0.9, seed=7)
    assert np.all(hi.open[lo.open])
    assert lo.open.sum() < hi.open.sum()


def test_masks_couple_across_nested_radii():
    small, big = heisenberg_box(4), heisenberg_box(8)
    m_small = percolate(small, 0.7, seed=11)
    m_big = percolate(big, 0.7, seed=11)
    key_state = dict(zip(big.keys.tolist(), m_big.open.tolist()))
    for key, state in zip(small.keys.tolist(), m_small.open.tolist()):
        assert key_state[key] == state


def test_lattice_box_shapes():
    g = lattice_box(2, 3)
    # L1 ball in Z^2: 2r^2 + 2r + 1 vertices
    assert g.n_vertices == 25
    assert g.coords[g.origin].tolist() == [0, 0]
    with pytest.raises(ConfigError):
        lattice_box(5, 2)
    with pytest.raises(CapExceededError):
        lattice_box(4, 200)


@pytest.mark.parametrize(
    "family,radius",
    [("heisenberg", 0), ("heisenberg", 1), ("heisenberg", 5), ("heisenberg", 8),
     ("z2", 0), ("z2", 1), ("z2", 7), ("z3", 1), ("z3", 4)],
)
def test_box_matches_vertex_by_vertex_builder(family, radius):
    g = heisenberg_box(radius) if family == "heisenberg" else lattice_box(int(family[1:]), radius)
    # the sub-box of every radius is the box built at that radius
    for r in range(radius + 1):
        sub = g.sub_box(r)
        assert (sub.radius, sub.origin) == (r, g.origin)
        want = oracles.box_arrays(family, r)
        for name in ("coords", "dist", "tails", "heads", "labels", "keys", "slots", "ends"):
            assert np.array_equal(getattr(sub, name), want[name]), (r, name)
    assert g.sub_box(radius) is g  # the whole box is not rebuilt
    assert g.coords.dtype == np.int64 and g.keys.dtype == np.uint64
    for bad in (-1, radius + 1):
        with pytest.raises(ConfigError):
            g.sub_box(bad)


@pytest.mark.parametrize("family", ["heisenberg", "z2"])
def test_restricted_mask_is_the_mask_of_the_sub_box(family):
    # edge uniforms depend on the keys alone: percolating a sub-box and
    # restricting the whole box's mask to the sub-box's edges open the same edges
    g = heisenberg_box(8) if family == "heisenberg" else lattice_box(2, 7)
    mask = percolate(g, 0.7, seed=11)
    order = np.argsort(g.keys)
    for r in range(g.radius + 1):
        sub = g.sub_box(r)
        edge = order[np.searchsorted(g.keys, sub.keys, sorter=order)]
        assert np.array_equal(g.keys[edge], sub.keys), r
        assert np.array_equal(percolate(sub, 0.7, seed=11).open, mask.open[edge]), r


@pytest.mark.parametrize("family", ["heisenberg", "z1", "z2", "z3", "z4"])
def test_box_edges_join_even_to_odd_distance(family):
    # every generator changes the distance by one, so no edge joins two odd
    # vertices, and the Schur complement on the boxes has no kept-to-kept term
    g = heisenberg_box(8) if family == "heisenberg" else lattice_box(int(family[1:]), 8)
    for r in range(9):
        sub = g.sub_box(r)
        assert np.all(np.abs(sub.dist[sub.tails] - sub.dist[sub.heads]) == 1), r
        assert np.all((sub.dist[sub.tails] + sub.dist[sub.heads]) % 2 == 1), r


def test_lattice_box_beyond_the_key_fields():
    # edge keys hold coordinates in [-2048, 2048); a check, not an assert
    assert lattice_box(1, 2047).n_vertices == 4095
    with pytest.raises(CapExceededError):
        lattice_box(1, 2048)


@pytest.mark.parametrize("family", ["heisenberg", "z2"])
@pytest.mark.parametrize("p", [0.5, 0.95, 1.0])
def test_cluster_searches_match_dfs(family, p):
    g = heisenberg_box(6) if family == "heisenberg" else lattice_box(2, 6)
    for seed in (1, 2, 3, 4):
        for r in (0, 1, 2, 4, 6):
            mask = percolate(g.sub_box(r), p, seed)
            got = component(mask)
            assert len(got) == len(set(got.tolist()))
            assert set(got.tolist()) == oracles.component(mask, g.origin, r)
            assert np.array_equal(oriented_cluster(mask),
                                  oracles.oriented_cluster(mask, g.origin, r))


@pytest.mark.parametrize("radius,p,num_paths,seed",
                         [(0, 1.0, 5, 1), (3, 0.5, 200, 2), (6, 0.8, 500, 3), (8, 0.95, 300, 4)])
def test_path_flow_matches_per_path_loop(radius, p, num_paths, seed):
    g = heisenberg_box(radius)
    mask = percolate(g, p, seed)
    counts, surviving = oracles.path_flow(g, mask, num_paths, seed)
    fa = path_flow_assignment(mask, num_paths, seed)
    assert fa.surviving == surviving > 0
    assert np.array_equal(fa.flow, counts / surviving)


def test_rayleigh_monotone_in_p_per_seed():
    g = heisenberg_box(8)
    for seed in (1, 2, 3):
        masks = [percolate(g, p, seed) for p in (0.85, 0.95, 1.0)]
        res = [effective_resistance(m) for m in masks]
        assert res[0] >= res[1] - 1e-9 >= res[2] - 2e-9


def test_profile_nested_radius_monotone():
    g = heisenberg_box(8)
    radii, seeds = [2, 4, 6, 8], [5, 6, 7]
    res, sizes = resistance_profile(g, 0.9, radii, seeds)
    assert res.shape == sizes.shape == (3, 4)
    assert np.all(np.diff(res, axis=1) >= -1e-9)
    assert np.all(np.diff(sizes, axis=1) >= 0)
    # each entry is that seed's mask on that radius's box
    for i, seed in enumerate(seeds):
        for j, r in enumerate(radii):
            mask = percolate(heisenberg_box(r), 0.9, seed)
            assert res[i, j] == effective_resistance(mask)
            assert sizes[i, j] == len(oracles.oriented_cluster(mask, g.origin, r))


def test_profile_p1_seed_independent():
    g = heisenberg_box(6)
    a, _ = resistance_profile(g, 1.0, [2, 4, 6], seeds=[1])
    b, _ = resistance_profile(g, 1.0, [2, 4, 6], seeds=[9])
    assert np.allclose(a, b, atol=1e-9)


def test_profile_validation():
    g = heisenberg_box(4)
    with pytest.raises(ConfigError):
        resistance_profile(g, 0.9, [4, 2], seeds=[1])
    with pytest.raises(ConfigError):
        resistance_profile(g, 0.9, [2, 8], seeds=[1])


def test_gh_increments_shrink_at_full_density():
    res, _ = resistance_profile(heisenberg_box(12), 1.0, [4, 8, 12], seeds=[1])
    inc = np.diff(res[0])
    assert inc[0] > inc[1] > 0


def test_z2_resistance_keeps_growing():
    res, _ = resistance_profile(lattice_box(2, 16), 1.0, [4, 8, 16], seeds=[1])
    assert np.all(np.diff(res[0]) > 0.05)


def test_single_path_flow_energy_is_radius():
    g = heisenberg_box(6)
    fa = path_flow_assignment(full_mask(g), 1, seed=3)
    assert fa.surviving == 1
    assert fa.energy() == pytest.approx(6.0, abs=1e-12)
    outflow, divergence = flow_conservation(g, fa.flow)
    assert outflow == pytest.approx(1.0, abs=1e-12)
    assert divergence <= 1e-9


def test_flow_averaging_never_raises_energy():
    g = heisenberg_box(6)
    m = full_mask(g)
    one = path_flow_assignment(m, 1, seed=3).energy()
    many = path_flow_assignment(m, 400, seed=3).energy()
    assert many <= one + 1e-12


def test_flow_conservation_under_percolation():
    g = heisenberg_box(8)
    m = percolate(g, 0.9, seed=13)
    fa = path_flow_assignment(m, 300, seed=13)
    assert fa is not None
    outflow, divergence = flow_conservation(g, fa.flow)
    assert divergence <= 1e-9
    assert outflow == pytest.approx(1.0, abs=1e-12)


def test_flow_none_when_everything_closed():
    g = heisenberg_box(3)
    closed = SubgraphMask(g, np.zeros(g.n_edges, dtype=bool))
    assert path_flow_assignment(closed, 50, seed=1) is None


def test_path_flow_energy_bounds_resistance():
    g = heisenberg_box(6)
    energy, surviving = path_flow_energy(g, 1.0, 300, seed=2)
    assert surviving == 300
    reff = effective_resistance(percolate(g, 1.0, seed=2))
    assert energy + 1e-9 >= reff


def test_path_flow_energy_validation():
    with pytest.raises(ConfigError):
        path_flow_energy(heisenberg_box(4), 1.0, 0, seed=1)
