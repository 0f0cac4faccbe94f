"""Quadrature of the cosine product and transform inversion checks."""

import math

import numpy as np
import pytest
from oracles import (
    build_table,
    cf_magnitude_integral,
    cos_product_by_cos,
    cos_product_integral_whole,
    dense_mass,
    exact_char_function,
    inversion_marginal,
    simpson_five_node,
    tail_rate_floor,
)

from heiswalk.errors import CapExceededError, ConfigError, QuadratureError
from heiswalk.fourier import (
    _RESYNC,
    _TOL_ABS,
    _TOL_REL,
    FOURIER_K_CAP,
    _adaptive_simpson,
    _initial_edges,
    cos_product,
    cos_product_integral,
    folding_distance,
    head_integral,
    tail_integral_decay,
    verify_cos_gaussian_bound,
)
from heiswalk.tables import weight_statistics


def test_closed_form_integrals():
    # the j=0 factor is 1, so k=1 integrates the constant over [-pi, pi]
    assert cos_product_integral(1).value == pytest.approx(2 * math.pi, abs=1e-10)
    # k=2 is the plain |cos| integral
    assert cos_product_integral(2).value == pytest.approx(4.0, abs=1e-8)


def test_integral_decreases_with_k():
    vals = [cos_product_integral(k).value for k in (2, 4, 8, 16, 32)]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))


def test_head_integral_values():
    # k=1 integrates the constant 1 over [0, 1] and [1, pi/2]
    assert head_integral(1).value == 1.0
    assert tail_integral_decay(1).value == math.pi / 2 - 1
    # k=2: integral of cos(x) over [0, 1/2]
    assert head_integral(2).value == pytest.approx(math.sin(0.5), abs=1e-9)
    # head alone is below the full integral
    assert head_integral(16).value < cos_product_integral(16).value


@pytest.mark.parametrize("k", [1, 2, 16, 64, 256])
def test_whole_integral_is_four_times_head_plus_tail(k):
    # against one quadrature over all of [0, pi/2]
    got = cos_product_integral(k)
    assert got.value == 4.0 * (got.head + got.tail)
    assert got.value == pytest.approx(cos_product_integral_whole(k), rel=1e-14, abs=0.0)


def test_one_simpson_pass_meets_the_tolerance_on_every_mesh():
    # the quadrature never refines, so each mesh must resolve its integrand;
    # every k up to the cap passes (worst 0.566 of the tolerance, k = 18,
    # tail), and this samples the sweep densely where the margin is least
    for k in [*range(1, 129), 192, 256, 384, 512, 768, 1024, 1536, 2048]:
        for quadrature in (head_integral, tail_integral_decay):
            got = quadrature(k)
            assert got.error_estimate <= max(_TOL_ABS, _TOL_REL * got.value), (k, quadrature)


@pytest.mark.parametrize("k", [1, 2, 3, 17, 18, 64, 256, 1024, 2048])
def test_simpson_takes_each_node_once_with_the_same_bits(k):
    # against the five-node rule, which evaluates every inner edge twice
    for lo, hi in ((0.0, 1.0 / k), (1.0 / k, 0.5 * math.pi)):
        edges = _initial_edges(k, lo, hi)
        args = (lambda x: cos_product(k, x), edges, _TOL_ABS, _TOL_REL)
        assert _adaptive_simpson(*args) == simpson_five_node(*args), (k, lo)


def test_panel_end_nodes_are_the_next_panel_edges():
    # the premise of taking each node once: b - a is exact (Sterbenz), so
    # a + (b - a) * 1.0 == b on every head and tail mesh up to the cap
    for k in range(1, FOURIER_K_CAP + 1):
        for lo, hi in ((0.0, 1.0 / k), (1.0 / k, 0.5 * math.pi)):
            edges = _initial_edges(k, lo, hi)
            a, b = edges[:-1], edges[1:]
            assert np.array_equal(a + (b - a) * 1.0, b), (k, lo)


def test_a_mesh_that_misses_the_peak_raises():
    # three panels cannot resolve the k = 64 peak, and nothing refines them
    edges = np.linspace(0.0, 0.5 * math.pi, 4)
    with pytest.raises(QuadratureError):
        _adaptive_simpson(lambda x: cos_product(64, x), edges, _TOL_ABS, _TOL_REL)


@pytest.mark.parametrize("k", [1, 2, 3, 64, 1024, 2048])
def test_cos_product_fold_identities(k):
    # cos_product_integral folds [-pi, pi] onto [0, pi/2]: period pi, even
    # around 0, even around pi/2
    x = np.random.default_rng(k + 12345).uniform(-math.pi, math.pi, size=1000)
    base = cos_product(k, x)
    for other in (x + math.pi, -x, math.pi - x):
        assert float(np.max(np.abs(cos_product(k, other) - base))) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 32, 33, 1024, 2048])
def test_cos_product_rotation_error_bound(k):
    """cos_product against the np.cos product, within the bound of the
    fourier docstring.

    Factor j of the two differs by at most e_j = u (2j|x| + 4 + 4.25 m),
    u = 2^-53 and m = (j - 1) mod _RESYNC the complex multiplies since the
    last restart.  With a_j the np.cos factors, each factor of either
    product is at most a_j + e_j, so telescoping one factor at a time gives
    |prod - prod| <= sum_j e_j prod_{i != j} (a_i + e_i).  To first order
    in u that is at most u (k - 1)(k|x| + 4.25 _RESYNC + 4), and much
    smaller where the product is small; x = k^(-3/2), the width of the
    peak, is where the multiply drift weighs most.
    """
    x = np.concatenate([np.random.default_rng(k).uniform(-math.pi, math.pi, 200),
                        [0.0, 1.0 / k, 0.5 * math.pi, math.pi, k**-1.5]])
    j = np.arange(1, k)[:, None]
    err = 2.0**-53 * (2 * j * np.abs(x) + 4 + 4.25 * ((j - 1) % _RESYNC))
    weight = np.abs(np.cos(j * x)) + err
    ones = np.ones_like(x)[None]
    before = np.cumprod(np.vstack([ones, weight]), axis=0)[:-1]  # prod over i < j
    after = np.cumprod(np.vstack([ones, weight[::-1]]), axis=0)[:-1][::-1]  # i > j
    bound = (err * before * after).sum(axis=0)
    assert np.all(np.abs(cos_product(k, x) - cos_product_by_cos(k, x)) <= bound)


def test_cos_product_even_and_bounded():
    xs = np.linspace(-math.pi, math.pi, 101)
    vals = cos_product(8, xs)
    assert np.all(vals >= 0) and np.all(vals <= 1)
    assert np.allclose(vals, cos_product(8, -xs))


def test_folding_distance():
    assert folding_distance(np.array([0.0]))[0] == 0.0
    assert folding_distance(np.array([math.pi]))[0] == pytest.approx(0.0, abs=1e-12)
    assert folding_distance(np.array([0.3]))[0] == pytest.approx(0.3)
    assert folding_distance(np.array([math.pi - 0.2]))[0] == pytest.approx(0.2)


def test_gaussian_domination_threshold():
    # exp(-x^2/2) dominates |cos| on [0, pi]; c = 0.7 overshoots near 0
    assert verify_cos_gaussian_bound(0.5)
    assert not verify_cos_gaussian_bound(0.7)


def test_tail_decay_rate_positive():
    integral, min_rate = tail_integral_decay(32).value, tail_rate_floor(32)
    assert integral > 0 and min_rate > 0
    ln32 = math.log(integral)
    ln64 = math.log(tail_integral_decay(64).value)
    assert ln64 - ln32 < -1.0


def test_char_function_is_product_of_halved_cosines():
    xs = np.linspace(-3.0, 3.0, 41)
    phi = exact_char_function(5, xs)
    expected = np.ones_like(xs, dtype=complex)
    for j in range(5):
        expected *= np.cos(j * xs / 2) * np.exp(1j * j * xs / 2)
    assert np.allclose(phi, expected, atol=1e-12)


def test_inversion_recovers_exact_marginal():
    for k in (2, 4, 16, 64):
        w = dense_mass(build_table(k)).sum(axis=0)
        inv = inversion_marginal(k)
        assert inv.shape == w.shape
        assert np.max(np.abs(inv - w)) < 1e-6


def test_point_mass_spot_values():
    assert inversion_marginal(2)[0] == pytest.approx(0.5, abs=1e-12)
    assert inversion_marginal(2)[1] == pytest.approx(0.5, abs=1e-12)
    assert inversion_marginal(4)[3] == pytest.approx(0.25, abs=1e-12)


def test_cf_integral_dominates_point_masses():
    stats = weight_statistics([2, 8, 16, 64])
    for k in (2, 8, 16, 64):
        bound = cf_magnitude_integral(k)
        assert bound + 1e-9 >= stats[k][0]
        # and the bound is itself below 1
        assert bound <= 1.0


def test_scaled_integral_is_flat():
    scaled = [k**1.5 * cos_product_integral(k).value for k in (16, 64, 256)]
    assert max(scaled) / min(scaled) < 2.5


def test_validation():
    with pytest.raises(ValueError):
        cos_product_integral(0)
    with pytest.raises(ValueError):
        head_integral(0)
    with pytest.raises(ValueError):
        tail_integral_decay(0)
    # checked before any quadrature work, so these return at once
    for fn in (cos_product_integral, head_integral, tail_integral_decay):
        with pytest.raises(CapExceededError):
            fn(FOURIER_K_CAP + 1)


def test_bad_arguments_are_config_errors():
    with pytest.raises(ConfigError):
        head_integral(0)
    with pytest.raises(ConfigError):
        _adaptive_simpson(np.cos, np.array([0.0, 1.0, 1.0]), 1e-12, 1e-12)
