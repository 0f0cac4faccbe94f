"""Fourier-side bounds for the weighted-sum distribution.

The weighted sum W = sum_{j<k} j*alpha_j of fair bits has the exact
transform E[exp(ixW)] = prod_{j<k} (1 + exp(ijx))/2, with magnitude
prod |cos(jx/2)|.  Two integrands matter:

* prod_{j<k} |cos(jx)| over [-pi, pi] -- the bound-side object whose
  integral decays like k^(-3/2); its mass sits in a central peak of
  width ~ k^(-3/2), an exponentially small tail beyond 1/k, and it is
  dominated pointwise by a Gaussian exp(-c * dist(x, pi*Z)^2) for c=1/2.
* the exact transform, inverted over one period to recover point masses
  P[W = n]; the inversion must reproduce the dynamic-programming table.

Quadrature is composite adaptive Simpson on explicit panels: the initial
mesh resolves the central peak (step <= min(1e-2, k^(-3/2)/8) near 0)
and the oscillation scale ~1/k elsewhere; panels split until the summed
halving error estimate meets tolerance (1e-10 absolute or 1e-4 relative,
whichever is looser) or the panel budget trips QuadratureError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, QuadratureError

__all__ = [
    "QuadratureResult",
    "cos_product",
    "exact_char_function",
    "cos_product_integral",
    "head_integral",
    "tail_integral_decay",
    "tail_rate_floor",
    "verify_cos_gaussian_bound",
    "point_mass_via_inversion",
    "inversion_marginal",
    "cf_magnitude_integral",
    "folding_distance",
    "DEFAULT_COS_GAUSSIAN_C",
    "FOURIER_K_CAP",
]

DEFAULT_COS_GAUSSIAN_C = 0.5

_TOL_ABS = 1e-10
_TOL_REL = 1e-4
_MAX_PANELS = 400_000
FOURIER_K_CAP = 2048  # work grows like k^2: `fourier --k-list 2048` takes about 4 s


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    panels: int


def cos_product(k: int, x) -> np.ndarray:
    """prod_{j<k} |cos(jx)|, elementwise over x (the j=0 factor is 1)."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    for j in range(1, k):
        out *= np.abs(np.cos(j * x))
    return out


def exact_char_function(k: int, x) -> np.ndarray:
    """E[exp(i x W)] = prod_{j<k} (1 + exp(ijx))/2, elementwise over x."""
    x = np.asarray(x, dtype=float)
    out = np.ones(x.shape, dtype=complex)
    for j in range(1, k):
        out *= 0.5 * (1.0 + np.exp(1j * j * x))
    return out


def folding_distance(y) -> np.ndarray:
    """Distance from y to the nearest integer multiple of pi."""
    y = np.asarray(y, dtype=float)
    return np.abs(np.mod(y + 0.5 * math.pi, math.pi) - 0.5 * math.pi)


def _adaptive_simpson(f, edges: np.ndarray, tol_abs: float, tol_rel: float,
                      max_panels: int = _MAX_PANELS) -> QuadratureResult:
    """Composite adaptive Simpson over the given initial panel edges.

    Panels are refined in batches: any panel whose halving estimate
    exceeds its width-proportional share of the global tolerance splits
    in two.  The returned value uses the Richardson-corrected fine rule.
    """
    a = np.asarray(edges[:-1], dtype=float)
    b = np.asarray(edges[1:], dtype=float)
    if np.any(b <= a):
        raise ValueError("panel edges must be strictly increasing")
    total_width = float(b[-1] - a[0])

    def panel_rule(lo: np.ndarray, hi: np.ndarray):
        h = hi - lo
        nodes = lo[:, None] + h[:, None] * np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        fv = f(nodes.ravel()).reshape(nodes.shape)
        coarse = h / 6.0 * (fv[:, 0] + 4.0 * fv[:, 2] + fv[:, 4])
        fine = h / 12.0 * (fv[:, 0] + 4.0 * fv[:, 1] + 2.0 * fv[:, 2] + 4.0 * fv[:, 3] + fv[:, 4])
        err = np.abs(fine - coarse) / 15.0
        return fine + (fine - coarse) / 15.0, err

    val, err = panel_rule(a, b)
    for _ in range(64):
        total = float(val.sum())
        total_err = float(err.sum())
        tol = max(tol_abs, tol_rel * abs(total))
        if total_err <= tol:
            return QuadratureResult(total, total_err, a.size)
        if a.size >= max_panels:
            break
        share = tol * (b - a) / total_width
        split = err > np.maximum(share, 1e-300)
        if not np.any(split):
            # error equidistributed but above tolerance: split everything
            split = err > 0
        keep = ~split
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[keep], a[split], mid])
        new_b = np.concatenate([b[keep], mid, b[split]])
        new_val = np.empty_like(new_a)
        new_err = np.empty_like(new_a)
        nk = int(keep.sum())
        new_val[:nk] = val[keep]
        new_err[:nk] = err[keep]
        new_val[nk:], new_err[nk:] = panel_rule(new_a[nk:], new_b[nk:])
        a, b, val, err = new_a, new_b, new_val, new_err
    raise QuadratureError(
        f"adaptive quadrature did not reach tolerance with {a.size} panels"
    )


def _mesh(a: float, b: float, step: float) -> np.ndarray:
    n = max(1, int(math.ceil((b - a) / step)))
    return np.linspace(a, b, n + 1)


def _peak_step(k: int) -> float:
    return min(1e-2, k ** (-1.5) / 8.0)


def _oscillation_step(k: int) -> float:
    return min(1e-2, math.pi / (4.0 * max(k, 1)))


def _initial_edges(k: int, lo: float, hi: float) -> np.ndarray:
    """Panel edges resolving both the central peak and the 1/k oscillation."""
    cut = min(hi, max(1.0 / max(k, 1), 16.0 * k ** (-1.5)))
    if lo >= cut:
        return _mesh(lo, hi, _oscillation_step(k))
    fine = _mesh(lo, cut, _peak_step(k))
    if cut >= hi:
        return fine
    coarse = _mesh(cut, hi, _oscillation_step(k))
    return np.concatenate([fine, coarse[1:]])


def _check_cap(k: int) -> None:
    if k > FOURIER_K_CAP:
        raise CapExceededError(f"k={k} exceeds cap {FOURIER_K_CAP}")


def _assert_symmetries(k: int) -> None:
    """Spot-check the period/evenness/reflection identities used to fold."""
    rng = np.random.default_rng(k + 12345)
    x = rng.uniform(-math.pi, math.pi, size=1000)
    base = cos_product(k, x)
    for other in (x + math.pi, -x, math.pi - x):
        dev = float(np.max(np.abs(cos_product(k, other) - base)))
        if dev > 1e-12:
            raise AssertionError(f"cos product symmetry violated at k={k}: dev={dev:.3e}")


def cos_product_integral(k: int, *, tol_abs: float = _TOL_ABS, tol_rel: float = _TOL_REL) -> QuadratureResult:
    """integral over [-pi, pi] of prod_{j<k} |cos(jx)|, folded to 4x [0, pi/2].

    The fold is valid because the integrand has period pi and is even
    around both 0 and pi/2; those identities are asserted numerically on
    random points before being used.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_cap(k)
    _assert_symmetries(k)
    if k == 1:
        return QuadratureResult(2.0 * math.pi, 0.0, 0)
    res = _adaptive_simpson(
        lambda x: cos_product(k, x),
        _initial_edges(k, 0.0, 0.5 * math.pi),
        tol_abs / 4.0,
        tol_rel,
    )
    return QuadratureResult(4.0 * res.value, 4.0 * res.error_estimate, res.panels)


def head_integral(k: int) -> float:
    """integral of the cos product over [0, 1/k] (the central peak).

    Arguments stay below pi: max_j j/k = (k-1)/k < pi, asserted.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_cap(k)
    assert (k - 1) / k < math.pi
    if k == 1:
        return 1.0
    res = _adaptive_simpson(
        lambda x: cos_product(k, x),
        _mesh(0.0, 1.0 / k, _peak_step(k)),
        _TOL_ABS,
        _TOL_REL,
    )
    return res.value


def tail_integral_decay(k: int) -> float:
    """integral of the cos product over the tail [1/k, pi/2].

    Beyond the central peak the integrand is exponentially small in k;
    tail_rate_floor certifies that decay under the Gaussian domination.
    """
    if k < 2:
        raise ValueError("k must be >= 2 so the tail interval is nonempty")
    _check_cap(k)
    res = _adaptive_simpson(
        lambda x: cos_product(k, x),
        _initial_edges(k, 1.0 / k, 0.5 * math.pi),
        _TOL_ABS,
        _TOL_REL,
    )
    return res.value


def tail_rate_floor(k: int, grid_points: int | None = None) -> float:
    """min over a dense grid of [1/k, pi/2] of (1/k) * sum_{j<k} f(jx)^2.

    f is the distance to pi*Z.  Under |cos y| <= exp(-f(y)^2/2) the tail
    integrand is at most exp(-k * floor / 2), so a strictly positive floor
    certifies the exponential-in-k decay of the tail.
    """
    if k < 2:
        raise ValueError("k must be >= 2 so the tail interval is nonempty")
    _check_cap(k)
    if grid_points is None:
        grid_points = min(100_000, 8192 + 16 * k)
    xs = np.linspace(1.0 / k, 0.5 * math.pi, grid_points)
    rate = np.zeros_like(xs)
    for j in range(1, k):
        rate += folding_distance(j * xs) ** 2
    return float(rate.min() / k)


def verify_cos_gaussian_bound(c: float, grid_points: int = 100_000) -> bool:
    """Check |cos x| <= exp(-c * f(x)^2) on [0, pi], f = distance to pi*Z.

    Evaluates on a uniform grid plus refined windows around every local
    minimum of the margin, so near-tangencies are not missed.  True only
    if the bound holds at every checked point.  Both sides touch 1 at
    multiples of pi, where the true margin is quartic and far below one
    ulp, so the comparison carries a representation slack of a few ulp;
    genuine violations at this grid density are orders of magnitude
    larger.
    """
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    slack = 1e-14
    xs = np.linspace(0.0, math.pi, grid_points)

    def margin(x: np.ndarray) -> np.ndarray:
        return np.exp(-c * folding_distance(x) ** 2) - np.abs(np.cos(x))

    m = margin(xs)
    if np.any(m < -slack):
        return False
    interior_min = (m[1:-1] <= m[:-2]) & (m[1:-1] <= m[2:])
    for i in np.flatnonzero(interior_min):
        fine = np.linspace(xs[i], xs[i + 2], 65)
        if np.any(margin(fine) < -slack):
            return False
    return True


@functools.lru_cache(maxsize=16)
def _inversion_marginal_cached(k: int) -> np.ndarray:
    _check_cap(k)
    # trapezoid nodes over one period; p_n = (1/M) sum_m phi(x_m) e^{-i n x_m}
    w_max = k * (k - 1) // 2
    m = w_max + 1
    nodes = 2.0 * math.pi * np.arange(m) / m
    phi = exact_char_function(k, nodes)
    return np.fft.fft(phi).real / m


def inversion_marginal(k: int) -> np.ndarray:
    """All point masses P[W = n], n = 0..k(k-1)/2, via transform inversion.

    W lives on a lattice, so the trapezoid rule over one period at more
    nodes than the support size inverts the transform without aliasing.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _inversion_marginal_cached(k).copy()


def point_mass_via_inversion(k: int, n: int) -> float:
    """P[W = n] recovered from the exact characteristic function."""
    w_max = k * (k - 1) // 2
    if not 0 <= n <= w_max:
        raise ValueError(f"n={n} outside the support 0..{w_max}")
    return float(_inversion_marginal_cached(k)[n])


def cf_magnitude_integral(k: int) -> float:
    """(1/2pi) * integral over [-pi, pi] of |exact transform|.

    Dominates every point mass of W (triangle inequality applied to the
    inversion integral); compared against the inversion maximum in tests.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_cap(k)
    if k == 1:
        return 1.0
    # |phi(x)| = prod |cos(jx/2)|: even, period 2*pi -> integrate [0, pi]
    edges = _initial_edges(k, 0.0, 0.5 * math.pi) * 2.0
    res = _adaptive_simpson(
        lambda x: np.abs(exact_char_function(k, x)),
        edges,
        _TOL_ABS,
        _TOL_REL,
    )
    return res.value / math.pi
