"""Fourier-side bounds for the weighted-sum distribution.

The weighted sum W = sum_{j<k} j*alpha_j of fair bits has the exact
transform E[exp(ixW)] = prod_{j<k} (1 + exp(ijx))/2, with magnitude
prod |cos(jx/2)|.  The bound-side object is prod_{j<k} |cos(jx)| over
[-pi, pi]: its integral decays like k^(-3/2); its mass sits in a central
peak of width ~ k^(-3/2), an exponentially small tail beyond 1/k, and it
is dominated pointwise by a Gaussian exp(-c * dist(x, pi*Z)^2) for c=1/2.

The integral folds onto 4x [0, pi/2], which splits at 1/k into the head
[0, 1/k] and the tail [1/k, pi/2]; each region is integrated once, and
the whole integral is 4 * (head + tail).  Quadrature is one pass of
composite Simpson, Richardson-corrected, on a fixed mesh that resolves
the central peak (step <= min(1e-2, k^(-3/2)/8) near 0) and the
oscillation scale ~1/k elsewhere.  The summed halving error estimate
must meet the tolerance (1e-10 absolute or 1e-4 relative, whichever is
looser), or QuadratureError is raised; nothing is refined.  For every k
from 1 to FOURIER_K_CAP, head and tail, the mesh meets it: the largest
estimate is 0.566 of the tolerance (k = 18, tail).

The integrand calls no cosine per factor: cos_product rotates
z_j = exp(ijx) = z_{j-1} * exp(ix), takes |Re z_j| as factor j, and
restarts from exp(i*(j*x)) every _RESYNC = 32 factors, so one complex
multiply stands in for each np.cos and the rounding drift never spans
more than 31 multiplies.  Against a_j = |cos(j*x)| from np.cos, factor
j is off by at most e_j = u*(2j|x| + 4 + 4.25m), where u = 2^-53 and
m = (j-1) mod _RESYNC counts the multiplies since the last restart:
2j|x|u is the rounding of the arguments j0*x and j*x, and the rest that
of the two exponentials, np.cos and m complex multiplies (sqrt(5)*u
each, plus the rounding of exp(ix)).  Telescoping one factor at a time,
the products differ by at most sum_j e_j prod_{i != j} (a_i + e_i): to
first order in u at most u*(k-1)*(k|x| + 4.25*_RESYNC + 4), about
1.5e-9 at k = 2048 and x = pi, and far less away from the central
peak, where the other factors are small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ConfigError, QuadratureError

__all__ = [
    "QuadratureResult",
    "CosProductIntegral",
    "cos_product",
    "cos_product_integral",
    "head_integral",
    "tail_integral_decay",
    "verify_cos_gaussian_bound",
    "folding_distance",
    "FOURIER_K_CAP",
]

_TOL_ABS = 1e-10
_TOL_REL = 1e-4
FOURIER_K_CAP = 2048  # work grows like k^2: `fourier --k-list 2048` takes about 0.4 s
_RESYNC = 32  # cos_product factors per exp(i*(j*x)) restart


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    panels: int


@dataclass(frozen=True)
class CosProductIntegral(QuadratureResult):
    """The whole integral, with the head and tail integrals it sums."""

    head: float
    tail: float


def cos_product(k: int, x) -> np.ndarray:
    """prod_{j<k} |cos(jx)|, elementwise over x (the j=0 factor is 1).

    By the rotation recurrence and error bound of the module docstring.
    """
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    step = np.exp(1j * x)
    for start in range(1, k, _RESYNC):
        z = np.exp(1j * (start * x))
        out *= z.real
        for _ in range(start + 1, min(start + _RESYNC, k)):
            z *= step
            out *= z.real
    # the product of the |Re z_j| is the modulus of the signed product
    return np.abs(out)


def folding_distance(y) -> np.ndarray:
    """Distance from y to the nearest integer multiple of pi."""
    y = np.asarray(y, dtype=float)
    return np.abs(np.mod(y + 0.5 * math.pi, math.pi) - 0.5 * math.pi)


def _adaptive_simpson(f, edges: np.ndarray, tol_abs: float, tol_rel: float) -> QuadratureResult:
    """Composite Simpson over the given panel edges, in one pass.

    Each panel [a, b] takes the Richardson-corrected rule of its two halves,
    on the nodes a + (b - a) * {0, 1/4, 1/2, 3/4} and b, and the halving
    estimate |fine - coarse| / 15 summed over the panels is the error
    estimate; above max(tol_abs, tol_rel * |value|), or NaN, it raises
    QuadratureError.  No panel is refined: the edges must resolve f.  f is
    called once on each distinct node, as a panel's end node is the next
    one's start; where b - a is exact, as on every mesh _initial_edges
    builds (Sterbenz's lemma), b is a + (b - a) * 1.0 too.
    """
    a = np.asarray(edges[:-1], dtype=float)
    b = np.asarray(edges[1:], dtype=float)
    if np.any(b <= a):
        raise ConfigError("panel edges must be strictly increasing")
    h = b - a
    nodes = a[:, None] + h[:, None] * np.array([0.0, 0.25, 0.5, 0.75])
    fv = f(np.append(nodes.ravel(), b[-1]))
    f0, f1, f2, f3, f4 = fv[:-1:4], fv[1::4], fv[2::4], fv[3::4], fv[4::4]
    coarse = h / 6.0 * (f0 + 4.0 * f2 + f4)
    fine = h / 12.0 * (f0 + 4.0 * f1 + 2.0 * f2 + 4.0 * f3 + f4)
    total = float((fine + (fine - coarse) / 15.0).sum())
    total_err = float((np.abs(fine - coarse) / 15.0).sum())
    if not total_err <= max(tol_abs, tol_rel * abs(total)):  # a NaN estimate fails too
        raise QuadratureError(f"Simpson error estimate {total_err:.3g} on {a.size} panels "
                              "is above tolerance")
    return QuadratureResult(total, total_err, a.size)


def _mesh(a: float, b: float, step: float) -> np.ndarray:
    n = max(1, int(math.ceil((b - a) / step)))
    return np.linspace(a, b, n + 1)


def _peak_step(k: int) -> float:
    return min(1e-2, k ** (-1.5) / 8.0)


def _oscillation_step(k: int) -> float:
    return min(1e-2, math.pi / (4.0 * k))


def _initial_edges(k: int, lo: float, hi: float) -> np.ndarray:
    """Panel edges resolving both the central peak and the 1/k oscillation."""
    cut = min(hi, max(1.0 / k, 16.0 * k ** (-1.5)))
    if lo >= cut:
        return _mesh(lo, hi, _oscillation_step(k))
    fine = _mesh(lo, cut, _peak_step(k))
    if cut >= hi:
        return fine
    coarse = _mesh(cut, hi, _oscillation_step(k))
    return np.concatenate([fine, coarse[1:]])


def _integrate(k: int, region: str) -> QuadratureResult:
    """integral of the cos product over the "head" [0, 1/k] or the "tail" [1/k, pi/2]."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    if k > FOURIER_K_CAP:
        raise CapExceededError(f"k={k} exceeds cap {FOURIER_K_CAP}")
    lo, hi = (0.0, 1.0 / k) if region == "head" else (1.0 / k, 0.5 * math.pi)
    return _adaptive_simpson(lambda x: cos_product(k, x), _initial_edges(k, lo, hi),
                             _TOL_ABS, _TOL_REL)


def head_integral(k: int) -> QuadratureResult:
    """integral of the cos product over the central peak [0, 1/k].

    Arguments stay below pi: max_j j/k = (k-1)/k < pi.
    """
    return _integrate(k, "head")


def tail_integral_decay(k: int) -> QuadratureResult:
    """integral of the cos product over the tail [1/k, pi/2].

    Beyond the central peak the integrand is exponentially small in k,
    by the Gaussian domination that verify_cos_gaussian_bound checks.
    """
    return _integrate(k, "tail")


def cos_product_integral(k: int) -> CosProductIntegral:
    """integral over [-pi, pi] of prod_{j<k} |cos(jx)|, as 4 * (head + tail).

    The fold onto 4x [0, pi/2] is valid because each factor |cos(jx)|
    with integer j has period pi and is even, so the product has period
    pi and is even around both 0 and pi/2; [0, pi/2] splits at 1/k into
    the head and the tail, each integrated once.
    """
    head, tail = head_integral(k), tail_integral_decay(k)
    return CosProductIntegral(
        value=4.0 * (head.value + tail.value),
        error_estimate=4.0 * (head.error_estimate + tail.error_estimate),
        panels=head.panels + tail.panels,
        head=head.value,
        tail=tail.value,
    )


def verify_cos_gaussian_bound(c: float) -> bool:
    """Check |cos x| <= exp(-c * f(x)^2) on [0, pi], f = distance to pi*Z.

    Evaluates on a uniform grid plus refined windows around every local
    minimum of the margin, so near-tangencies are not missed.  True only
    if the bound holds at every checked point.  Both sides touch 1 at
    multiples of pi, where the true margin is quartic and far below one
    ulp, so the comparison carries a representation slack of a few ulp;
    genuine violations at this grid density are orders of magnitude
    larger.
    """
    slack = 1e-14
    xs = np.linspace(0.0, math.pi, 100_000)

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
