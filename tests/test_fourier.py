"""Quadrature of the cosine product and transform inversion checks."""

import math

import numpy as np
import pytest

from heiswalk.errors import CapExceededError
from heiswalk.fourier import (
    FOURIER_K_CAP,
    cf_magnitude_integral,
    cos_product,
    cos_product_integral,
    exact_char_function,
    folding_distance,
    head_integral,
    inversion_marginal,
    point_mass_via_inversion,
    tail_integral_decay,
    tail_rate_floor,
    verify_cos_gaussian_bound,
)
from heiswalk.tables import build_table, max_point_mass


def test_closed_form_integrals():
    # the j=0 factor is 1, so k=1 integrates the constant over [-pi, pi]
    assert cos_product_integral(1).value == pytest.approx(2 * math.pi, abs=1e-10)
    # k=2 is the plain |cos| integral
    assert cos_product_integral(2).value == pytest.approx(4.0, abs=1e-8)


def test_integral_decreases_with_k():
    vals = [cos_product_integral(k).value for k in (2, 4, 8, 16, 32)]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))


def test_head_integral_values():
    assert head_integral(1) == 1.0
    # k=2: integral of cos(x) over [0, 1/2]
    assert head_integral(2) == pytest.approx(math.sin(0.5), abs=1e-9)
    # head alone is below the full integral
    assert head_integral(16) < cos_product_integral(16).value


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
    integral, min_rate = tail_integral_decay(32), tail_rate_floor(32)
    assert integral > 0 and min_rate > 0
    ln32 = math.log(integral)
    ln64 = math.log(tail_integral_decay(64))
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
        w = build_table(k).w_marginal()
        inv = inversion_marginal(k)
        assert inv.shape == w.shape
        assert np.max(np.abs(inv - w)) < 1e-6


def test_point_mass_spot_values():
    assert point_mass_via_inversion(2, 0) == pytest.approx(0.5, abs=1e-12)
    assert point_mass_via_inversion(2, 1) == pytest.approx(0.5, abs=1e-12)
    assert point_mass_via_inversion(4, 3) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError):
        point_mass_via_inversion(4, 7)


def test_cf_integral_dominates_point_masses():
    for k in (2, 8, 16, 64):
        bound = cf_magnitude_integral(k)
        assert bound + 1e-9 >= max_point_mass(k)
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
        tail_integral_decay(1)
    with pytest.raises(ValueError):
        tail_rate_floor(1)
    with pytest.raises(ValueError):
        verify_cos_gaussian_bound(0.5, grid_points=2)
    # checked before any quadrature work, so these return at once
    for fn in (cos_product_integral, head_integral, tail_integral_decay, tail_rate_floor,
               cf_magnitude_integral, inversion_marginal):
        with pytest.raises(CapExceededError):
            fn(FOURIER_K_CAP + 1)
