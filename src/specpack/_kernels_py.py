"""Evaluation kernels, in pure Python.

Scalar Bessel J, its derivative, spherical Bessel j and its derivative, and
the per-zero refinement ``next_zero`` that the zero tables call once for
each zero inside a bracket they derived from interlacing.

Evaluation strategy:
  * x < 8: ascending power series (no destructive cancellation there).
  * x >= 8: backward recurrence started well above max(order, x), normalized
    with the even-order sum rule J_0 + 2*sum_k J_{2k} = 1 (cylindrical) or
    against the closed forms j_0, j_1 (spherical).  Backward recurrence keeps
    relative accuracy even deep in the evanescent zone.

Each Newton iterate of ``next_zero`` costs one such pass, which yields the
pair (J_{m-1}, J_m) (or (j_{p-1}, j_p)) and so f and, through the Bessel
ODE, f'.
"""

import math

BACKEND = "python"

KIND_BESSEL_PRIME = 0
KIND_BESSEL = 1
KIND_SPHERICAL_PRIME = 2

_SERIES_MAX_X = 8.0
_STEP_TOL = 1e-12  # relative Newton step at which a zero has converged
_MAX_STEPS = 100
# reporting grid of the tabulated values (see _grid_value)
_GRID_STEP = 0.05
_BISECT_WIDTH = 1e-12
_GUARD_ULPS = 4
_RESCALE_AT = 1e250
_RESCALE_BY = 1e-250


def _series_j(m, x):
    # sum_k (-1)^k (x/2)^(m+2k) / (k! (k+m)!)
    half = 0.5 * x
    if m > 120:
        t = math.exp(m * math.log(half) - math.lgamma(m + 1.0)) if half > 0.0 else 0.0
    else:
        t = half**m / math.factorial(m)
    s = t
    mx2 = -half * half
    for k in range(1, 200):
        t *= mx2 / (k * (k + m))
        s += t
        if abs(t) <= 1e-17 * abs(s):
            break
    return s


def _miller_pair(x, ma, mb):
    # (J_ma, J_mb) for x >= _SERIES_MAX_X, ma <= mb, via backward recurrence.
    top = max(mb, int(x))
    start = top + 20 + int(10.0 * max(x, 1.0) ** (1.0 / 3.0))
    if start & 1:
        start += 1
    jnext = 0.0  # trial J at order k+1
    jcur = 1e-30  # trial J at order k
    esum = 0.0  # sum of trial J over even orders >= 2
    va = 0.0
    vb = 0.0
    k = start
    while k > 0:
        if k == ma:
            va = jcur
        if k == mb:
            vb = jcur
        if not (k & 1):
            esum += jcur
        jprev = (2.0 * k) / x * jcur - jnext
        jnext = jcur
        jcur = jprev
        if abs(jcur) > _RESCALE_AT:
            jcur *= _RESCALE_BY
            jnext *= _RESCALE_BY
            esum *= _RESCALE_BY
            va *= _RESCALE_BY
            vb *= _RESCALE_BY
        k -= 1
    if ma == 0:
        va = jcur
    if mb == 0:
        vb = jcur
    norm = jcur + 2.0 * esum
    return va / norm, vb / norm


def bessel_j(order, x):
    """J_order(x) for order >= 0, x >= 0."""
    if x < _SERIES_MAX_X:
        return _series_j(order, x)
    return _miller_pair(x, order, order)[0]


def bessel_j_prime(order, x):
    """J'_order(x) via J'_0 = -J_1 and 2 J'_m = J_{m-1} - J_{m+1}."""
    if order == 0:
        return -bessel_j(1, x)
    if x < _SERIES_MAX_X:
        return 0.5 * (_series_j(order - 1, x) - _series_j(order + 1, x))
    ja, jb = _miller_pair(x, order - 1, order + 1)
    return 0.5 * (ja - jb)


def _sph_miller_pair(x, pa, pb):
    # (j_pa, j_pb) for pa <= pb, backward recurrence anchored on j_0 / j_1.
    top = max(pb, int(x))
    start = top + 20 + int(10.0 * max(x, 1.0) ** (1.0 / 3.0))
    jnext = 0.0
    jcur = 1e-30
    va = 0.0
    vb = 0.0
    anchor1 = 0.0
    k = start
    while k >= 1:
        if k == pa:
            va = jcur
        if k == pb:
            vb = jcur
        if k == 1:
            anchor1 = jcur
        jprev = (2.0 * k + 1.0) / x * jcur - jnext
        jnext = jcur
        jcur = jprev
        if abs(jcur) > _RESCALE_AT:
            jcur *= _RESCALE_BY
            jnext *= _RESCALE_BY
            va *= _RESCALE_BY
            vb *= _RESCALE_BY
            anchor1 *= _RESCALE_BY
        k -= 1
    anchor0 = jcur  # trial j_0
    if pa == 0:
        va = anchor0
    if pb == 0:
        vb = anchor0
    sx = math.sin(x)
    cx = math.cos(x)
    s0 = sx / x
    s1 = sx / (x * x) - cx / x
    if abs(s0) >= abs(s1):
        scale = s0 / anchor0
    else:
        scale = s1 / anchor1
    return va * scale, vb * scale


def spherical_j(order, x):
    """Spherical Bessel j_order(x), x > 0."""
    if order == 0:
        return math.sin(x) / x
    if order == 1:
        return math.sin(x) / (x * x) - math.cos(x) / x
    return _sph_miller_pair(x, order, order)[1]


def spherical_j_prime(order, x):
    """d/dx j_order(x) via j'_p = j_{p-1} - (p+1)/x * j_p; j'_0 = -j_1."""
    if order == 0:
        return -(math.sin(x) / (x * x) - math.cos(x) / x)
    if order == 1:
        j0 = math.sin(x) / x
        j1 = math.sin(x) / (x * x) - math.cos(x) / x
        return j0 - 2.0 / x * j1
    ja, jb = _sph_miller_pair(x, order - 1, order)
    return ja - (order + 1.0) / x * jb


def _pass(kind, order, x):
    # (f, f') at x > 0 for the function the kind tabulates, from one series
    # or Miller pass; f' from the ODE, e.g. J''_m = -J'_m/x - (1 - m^2/x^2) J_m
    if kind == KIND_SPHERICAL_PRIME:
        if order < 2:
            s0 = math.sin(x) / x
            s1 = (s0 - math.cos(x)) / x
            j, d = (s0, -s1) if order == 0 else (s1, s0 - 2.0 / x * s1)
        else:
            below, j = _sph_miller_pair(x, order - 1, order)
            d = below - (order + 1.0) / x * j
        return d, -2.0 / x * d - (1.0 - order * (order + 1.0) / (x * x)) * j
    lo = order - 1 if order else 0
    if x < _SERIES_MAX_X:
        a, b = _series_j(lo, x), _series_j(lo + 1, x)
    else:
        a, b = _miller_pair(x, lo, lo + 1)
    if order:
        j, d = b, a - order / x * b
    else:
        j, d = a, -b
    if kind == KIND_BESSEL:
        return j, d
    return d, -d / x - (1.0 - order * order / (x * x)) * j


def evaluate(kind, order, x):
    """The function whose zeros the kind tabulates, at x > 0."""
    return _pass(kind, order, x)[0]


def _eval(kind, order, x):
    if kind == KIND_BESSEL_PRIME:
        return bessel_j_prime(order, x)
    if kind == KIND_BESSEL:
        return bessel_j(order, x)
    if kind == KIND_SPHERICAL_PRIME:
        return spherical_j_prime(order, x)
    raise ValueError(f"unknown kind code {kind}")


def _grid_value(kind, order, zero, x_from, sign_lo):
    # The reported value of a zero, which keeps the tabulated values of the
    # earlier grid-scan finder bit for bit: the midpoint at which a bisection
    # to width _BISECT_WIDTH ends, started from the cell of the grid x_from,
    # x_from + _GRID_STEP, ... (summed step by step) that holds the zero.  The
    # side of the Newton zero decides each step; a point within _GUARD_ULPS
    # of it is decided by the sign of _eval there, as the scan decided it.
    # The grid of an order's first zero starts at max(order/2, 0.01), below
    # the zero in every kind.  Returns the value and the grid point after the
    # cell (nan, nan if the grid starts past the zero).
    guard = _GUARD_ULPS * math.ulp(zero)

    def left(x):
        # x lies left of the zero; None if the evaluator vanishes at x
        if abs(x - zero) > guard:
            return x < zero
        f = _eval(kind, order, x)
        return None if f == 0.0 else (f > 0.0) == (sign_lo > 0.0)

    edge = zero - guard
    lo = max(order * 0.5, 0.01) if x_from is None else x_from
    if not lo < edge:
        return math.nan, math.nan
    hi = lo + _GRID_STEP
    while hi < edge:
        lo = hi
        hi = lo + _GRID_STEP
    while True:
        side = left(hi)
        if side is None:
            return hi, hi + _GRID_STEP
        if not side:
            break
        lo = hi
        hi = lo + _GRID_STEP
    resume = hi
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        side = left(mid)
        if side is None:
            return mid, resume
        if side:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), resume


def next_zero(kind, order, lo, hi, guess, sign_lo, x_from):
    """Refine the one zero of the kind's function inside (lo, hi).

    f has the sign ``sign_lo`` on (lo, zero) and the opposite sign on
    (zero, hi).  Newton steps start at ``guess``.  The step size is tested
    for convergence before the bracket, and a step that leaves the bracket
    is replaced by bisection.  The zero is reported on the grid that resumes
    at ``x_from``, the resume point returned with the order's previous zero
    (None for its first; see ``_grid_value``).

    Returns (zero, |f| at the last iterate, resume point), or three nans if
    no step converged.
    """
    x = guess if lo < guess < hi else 0.5 * (lo + hi)
    for _ in range(_MAX_STEPS):
        f, df = _pass(kind, order, x)
        step = f / df if df else math.inf
        if abs(step) <= _STEP_TOL * x:
            zero, resume = _grid_value(kind, order, x - step, x_from, sign_lo)
            if math.isnan(zero):
                break
            return zero, abs(f), resume
        if (f > 0.0) == (sign_lo > 0.0):
            lo = x
        else:
            hi = x
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    return math.nan, math.nan, math.nan
