"""Shared oracles and helpers for the test suite.

Zero-finding oracles: scipy's ``jnp_zeros``/``jn_zeros`` for J' and J, and a
brute-force sign-change scan (default step 1e-4) over scipy's spherical j',
refined by plain bisection (scipy has no zero routine for j').  The
production code never sees scipy, so agreement here is a genuine two-route
check.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import special as sp


def run_cli(*args):
    """``python -m specpack ARGS`` in a fresh process, its output captured; a
    hung child fails its test after two minutes."""
    cmd = [sys.executable, "-m", "specpack", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def oracle_fn(kind, order):
    if kind == "bessel_prime":
        return lambda x: sp.jvp(order, x)
    if kind == "bessel":
        return lambda x: sp.jv(order, x)
    if kind == "spherical_prime":
        return lambda x: sp.spherical_jn(order, x, derivative=True)
    raise ValueError(kind)


def _bisect(f, lo, hi, flo, width=1e-12):
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_positive_zeros(kind, order, count, step=1e-4, x_hi=None):
    """First `count` strictly positive zeros by scan + bisection on scipy."""
    f = oracle_fn(kind, order)
    if x_hi is None:
        # first zero sits within a few times order^(1/3) above the order
        x_hi = order + 6.0 * (1.0 + order ** (1.0 / 3.0)) + (count + 2) * math.pi
    x_lo = max(order * 0.4, 1e-3)
    grid = np.arange(x_lo, x_hi, step)
    vals = f(grid)
    signs = np.sign(vals)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    zeros = []
    for i in flips[:count]:
        zeros.append(_bisect(f, grid[i], grid[i + 1], vals[i]))
    if len(zeros) < count:
        raise AssertionError(
            f"oracle found only {len(zeros)} zeros of {kind}/{order} below {x_hi}"
        )
    return zeros


def oracle_zeros(kind, order, count, step=1e-4):
    """First `count` positive zeros: scipy's own routine for J' and J (for
    order 0, jnp_zeros skips the trivial zero at 0, as positive_zero does),
    the scan oracle for the spherical j'."""
    if kind == "bessel_prime":
        return list(sp.jnp_zeros(order, count))
    if kind == "bessel":
        return list(sp.jn_zeros(order, count))
    return oracle_positive_zeros(kind, order, count, step)


def spherical_series(p, x, terms=60):
    """Ascending series for the spherical Bessel j_p (test-local oracle)."""
    # j_p(x) = x^p sum_k (-x^2/2)^k / (k! (2p+2k+1)!!)
    dfact = 1.0
    for i in range(1, 2 * p + 2, 2):
        dfact *= i
    term = x**p / dfact
    total = term
    for k in range(1, terms):
        term *= -(x * x) / (2.0 * k * (2.0 * p + 2.0 * k + 1.0))
        total += term
    return total


@pytest.fixture(scope="session")
def disks_sequence():
    from specpack import wolfkeller

    return wolfkeller.extremal_sequence(wolfkeller.disks_class(), 83)


@pytest.fixture(scope="session")
def squares_sequence():
    from specpack import wolfkeller

    return wolfkeller.extremal_sequence(wolfkeller.squares_class(), 83)
