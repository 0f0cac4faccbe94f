"""Acceptance gate: the thirteen headline checks at their stated tolerances.

Each test computes one criterion end to end at the canonical scale and
records a PASS/FAIL line for the run summary.  Slow entries stay well
inside their stated runtime budgets on a laptop-class machine.
"""

import itertools
import math

import numpy as np
import pytest

from heiswalk import fourier, paths, reference, tables
from heiswalk.fitting import _fit_line, fit_exponential, fit_loglog
from heiswalk.heisenberg import Generator, ball_sizes, word_eval
from heiswalk.percolation import (
    build_custom_graph,
    effective_resistance,
    heisenberg_box,
    lattice_box,
    path_flow_energy,
    percolate,
    resistance_profile,
)

SEED = 20260817


@pytest.fixture(scope="module")
def full_scan():
    return tables.scan_statistics(range(2, 257))


def gh_collision_slope(scan):
    ks = [32, 64, 128, 256]
    return fit_loglog(ks, [scan[k].collision for k in ks]).slope


def test_criterion_01_point_mass_and_match_bounds(full_scan, criterion_log):
    slack = 1e-12
    worst = max(
        max(s.max_point_mass - 1.0 / k, s.weighted_match - 1.0 / k)
        for k, s in full_scan.items()
    )
    criterion_log(
        "criterion 01 exact 1/k bounds",
        worst <= slack,
        f"max excess over 1/k across k in [2,256] is {worst:.3e}",
    )


def test_criterion_02_gh_collision_exponent(full_scan, criterion_log):
    slope = gh_collision_slope(full_scan)
    criterion_log(
        "criterion 02 collision exponent",
        -2.2 <= slope <= -1.8,
        f"log-log slope over k in {{32..256}} is {slope:.4f}, window [-2.2, -1.8]",
    )


def test_criterion_03_z4_exponent_and_gap(full_scan, criterion_log):
    ks = [16, 32, 64, 128]
    z4 = fit_loglog(ks, [reference.zd_collision_probability(4, k) for k in ks]).slope
    gap = z4 - gh_collision_slope(full_scan)
    criterion_log(
        "criterion 03 four-letter exponent and gap",
        (-1.7 <= z4 <= -1.3) and abs(gap - 0.5) <= 0.25,
        f"slope {z4:.4f} in [-1.7, -1.3]; exponent gap {gap:.4f} = 0.5 +/- 0.25",
    )


def test_criterion_04_conditional_exponent(full_scan, criterion_log):
    ks = [32, 64, 128, 256]
    slope = fit_loglog(ks, [full_scan[k].conditional_match for k in ks]).slope
    criterion_log(
        "criterion 04 conditional exponent",
        -1.7 <= slope <= -1.3,
        f"log-log slope over k in {{32..256}} is {slope:.4f}, window [-1.7, -1.3]",
    )


def test_criterion_05_count_match_constant(full_scan, criterion_log):
    target = 1.0 / math.sqrt(math.pi)
    value = math.sqrt(256) * full_scan[256].count_match
    rel = abs(value - target) / target
    criterion_log(
        "criterion 05 sqrt-k count match",
        rel <= 0.02,
        f"sqrt(256)*p = {value:.6f} vs pi^-0.5 = {target:.6f} ({100 * rel:.2f}% off)",
    )


def brute_mass(k):
    idx = np.arange(2**k, dtype=np.uint32)
    bits = (idx[:, None] >> np.arange(k, dtype=np.uint32)) & 1
    s = bits.sum(axis=1).astype(np.int64)
    w = (bits @ np.arange(k, dtype=np.uint64)).astype(np.int64)
    counts = np.zeros((k + 1, k * (k - 1) // 2 + 1), dtype=np.int64)
    np.add.at(counts, (s, w), 1)
    return counts / float(2**k)


def test_criterion_06_brute_force_equivalence(criterion_log):
    exact = True
    for k in range(1, 15):
        if not np.array_equal(tables.build_table(k).mass, brute_mass(k)):
            exact = False
            break
    spots = (
        tables.collision_probability(1) == 0.5
        and tables.collision_probability(2) == 0.25
        and tables.collision_probability(3) == 0.125
        and tables.collision_probability(4) == 9 / 128
    )
    criterion_log(
        "criterion 06 exhaustive enumeration",
        exact and spots,
        "DP tables equal 2^k enumeration bit for bit through k=14; "
        "spot collisions 1/2, 1/4, 1/8, 9/128",
    )


def test_criterion_07_fourier_chain(criterion_log):
    closed = (
        abs(fourier.cos_product_integral(1).value - 2 * math.pi) < 1e-8
        and abs(fourier.cos_product_integral(2).value - 4.0) < 1e-8
    )
    scaled = [k**1.5 * fourier.cos_product_integral(k).value for k in (16, 64, 256, 1024)]
    ratio = max(scaled) / min(scaled)
    gauss = fourier.verify_cos_gaussian_bound(0.5, grid_points=100_000)
    drop = math.log(fourier.tail_integral_decay(64) / fourier.tail_integral_decay(32))
    inv_err = max(
        float(np.max(np.abs(fourier.inversion_marginal(k) - tables.build_table(k).w_marginal())))
        for k in range(1, 65)
    )
    ok = closed and ratio < 2.5 and gauss and drop < -1.0 and inv_err < 1e-6
    criterion_log(
        "criterion 07 transform chain",
        ok,
        f"closed forms to 1e-8: {closed}; scaled spread {ratio:.4f} < 2.5; "
        f"gaussian bound at c=0.5: {gauss}; tail log-drop {drop:.2f} < -1; "
        f"inversion error {inv_err:.2e} < 1e-6",
    )


def test_criterion_08_dyadic_uniformity(criterion_log):
    results = {k: tables.dyadic_uniformity(k) for k in (4, 8, 16, 31, 256, 1000)}
    ok = all(uniform and support >= k / 2 - 1 for k, (support, uniform) in results.items())
    criterion_log(
        "criterion 08 dyadic uniformity",
        ok,
        "exact uniform sub-sums with support >= k/2 - 1 at k in {4,8,16,31,256,1000}",
    )


def test_criterion_09_eit_tail(criterion_log):
    est = paths.tail_estimate(4096, 100_000, SEED)
    fit_ns = [n for n in range(1, 11) if est.counts.get(n, 0) > 0]
    fit = fit_exponential(
        fit_ns, [est.counts[n] for n in fit_ns], weights=[est.counts[n] for n in fit_ns]
    )
    ratios, pooled = paths.continuation_ratios(est.counts)
    worst = max((abs(r - pooled) / se for _n, r, se in ratios if se > 0), default=math.inf)
    ok = fit.r_squared >= 0.98 and worst <= 3.0
    criterion_log(
        "criterion 09 intersection tail",
        ok,
        f"log-survivor R^2 = {fit.r_squared:.5f} >= 0.98 on n in [1,10]; "
        f"worst continuation-ratio deviation {worst:.2f} <= 3 standard errors",
    )


def test_criterion_10_srw_return_exponent(criterion_log):
    profile = reference.srw_return_profile(96)
    ns = list(range(8, 49))
    slope = fit_loglog(ns, [profile.probabilities[2 * n] for n in ns]).slope
    criterion_log(
        "criterion 10 return probability exponent",
        -2.3 <= slope <= -1.7,
        f"log P(2n) vs log n slope over n in [8,48] is {slope:.4f}, window [-2.3, -1.7]",
    )


def test_criterion_11_ball_growth(criterion_log):
    sizes = ball_sizes(32)
    radii = list(range(8, 33))
    slope = fit_loglog(radii, [sizes[r] for r in radii]).slope
    gens = list(Generator)
    enum1 = {word_eval(w) for t in (0, 1) for w in itertools.product(gens, repeat=t)}
    enum2 = enum1 | {word_eval(w) for w in itertools.product(gens, repeat=2)}
    ok = 3.7 <= slope <= 4.3 and sizes[1] == len(enum1) == 5 and sizes[2] == len(enum2) == 17
    criterion_log(
        "criterion 11 ball growth",
        ok,
        f"growth slope {slope:.4f} in [3.7, 4.3]; |ball(1)| = 5, |ball(2)| = 17 "
        "match word enumeration",
    )


def test_criterion_12_resistance_mechanics(criterion_log):
    # circuit algebra
    chain = build_custom_graph(
        [(0,), (1,), (2,)], [0, 1, 2], [((0,), (1,), 0), ((1,), (2,), 0)]
    )
    pair = build_custom_graph([(0,), (1,)], [0, 1], [((0,), (1,), 0), ((0,), (1,), 1)])
    series_ok = abs(effective_resistance(percolate(chain, 1.0, 0)) - 2.0) < 1e-8
    parallel_ok = abs(effective_resistance(percolate(pair, 1.0, 0)) - 0.5) < 1e-8

    # Rayleigh monotonicity per seed under the coupled masks
    g8 = heisenberg_box(8)
    rayleigh_ok = True
    for seed in (1, 2, 3, 4, 5):
        res = [effective_resistance(percolate(g8, p, seed)) for p in (0.85, 0.95, 1.0)]
        rayleigh_ok &= res[0] >= res[1] - 1e-9 and res[1] >= res[2] - 1e-9

    # recurrent control: resistance keeps climbing with log radius
    z2 = resistance_profile(lattice_box(2, 16), 1.0, [4, 8, 16], seeds=[1])
    z2_slope = _fit_line(np.log([4.0, 8.0, 16.0]), np.asarray(z2.resistances())).slope
    z2_ok = z2_slope > 0.0 and all(i > 0 for i in z2.increments())

    # transience diagnostic: shrinking increments at both densities
    g16 = heisenberg_box(16)
    gh_ok = True
    increments = {}
    for p in (1.0, 0.95):
        prof = resistance_profile(g16, p, [4, 8, 12, 16], seeds=[1, 2, 3, 4, 5])
        inc = prof.increments()
        increments[p] = inc
        gh_ok &= all(a > b > 0 for a, b in zip(inc, inc[1:]))

    ok = series_ok and parallel_ok and rayleigh_ok and z2_ok and gh_ok
    criterion_log(
        "criterion 12 resistance mechanics",
        ok,
        f"series/parallel exact: {series_ok and parallel_ok}; Rayleigh per seed: "
        f"{rayleigh_ok}; flat-lattice slope {z2_slope:.3f} > 0; increment decay at "
        f"p=1: {[round(i, 4) for i in increments[1.0]]}, "
        f"p=0.95: {[round(i, 4) for i in increments[0.95]]}",
    )


def test_criterion_13_thomson_bound(criterion_log):
    margins = []
    for radius in (4, 8, 12, 16):
        graph = heisenberg_box(radius)
        energy, surviving = path_flow_energy(1.0, 400, radius, SEED, graph=graph)
        reff = effective_resistance(percolate(graph, 1.0, SEED))
        assert surviving == 400
        margins.append(energy - reff)
    criterion_log(
        "criterion 13 flow-energy bound",
        all(m >= -1e-9 for m in margins),
        "averaged-path energy dominates effective resistance at every radius; "
        f"margins {[round(m, 4) for m in margins]}",
    )
