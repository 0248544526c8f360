"""Evaluation kernels, in pure Python.

Scalar Bessel J, its derivative, spherical Bessel j and its derivative, and
the per-zero refinement ``next_zero``, a cubic Taylor step with a
safeguarded Newton fallback that the zero tables call once for each zero
inside a bracket they derived from interlacing; where a zero is reported is
the tables' decision.  The internal functions take a kind, the name of the
function they evaluate: "bessel", "bessel_prime", "spherical" or
"spherical_prime" (J, J', j or j'), the zero tables' own kind names for the
three they tabulate.  The four evaluators are the public ones
(``specpack.bessel_j`` and the rest are these functions), so they check
their input here: an integer order >= 0 and a finite x, x >= 0 for J and
J', x > 0 for j and j', and no more than ``MAX_RECURRENCE`` steps of
backward recurrence (``check_recurrence``, which the zero tables apply to
each query too).  The internal passes skip these checks.

Evaluation strategy, one rule for all four evaluators and every order:
  * below x = 1e-3, where the recurrence's c/x overflows: the ascending
    series that J_m and j_p share, a leading power times
    0F1(; nu + 1; -x^2/4) with nu = m or p + 1/2, differentiated term by
    term for J' and j';
  * from x = 1e-3 on: one backward-recurrence loop, ``_backward``, started
    well above max(order, x): v_{k-1} = (2k + shift)/x v_k - v_{k+1}, with
    shift 0 for J (from an even start, normalized with the even-order sum
    rule J_0 + 2*sum_k J_{2k} = 1) and 1 for j (anchored on
    j_0 = sin x/x or j_1 = sin x/x^2 - cos x/x, whichever is larger).
    Backward recurrence keeps relative accuracy deep in the evanescent zone,
    to some tens of eps: against 40-digit mpmath, J_105(0.1) ~ 2.28e-305 is
    30 eps off and j_105(0.1) 24 eps.  A value among the subnormal floats
    keeps only their few bits: j'_68(1e-3) ~ 9.9e-318 is 1.5% off.  Nothing
    bounds these errors yet (ROADMAP item 6).

One such pass (``_pass``) yields y = J_m or j_p, its derivative and the
order above, and from them one formula set, the same for all four kinds,
gives f, the kind's function (J_m, J'_m, j_p or j'_p), f', f'' and f'''
through the Bessel ODE and its derivatives, and the same function of order
m + 1.  That pass serves each iterate of ``next_zero``, the zero tables'
sign checks at their zeros (``evaluate``) and every public evaluator, which
is its input check followed by one pass of its kind.  The
zero tables read the signs of their counts at x only where x > 1 and the
order is below x (below that no zero lies, see ``specpack.bessel``), and
read them from ``evaluate_orders``: one run of the same loop that keeps
every value gives f, through the same formulas and bit for bit, for every
order up to int(x), whose own passes all start at the same order.
``next_zero`` states the one rule by which a zero is accepted: a proof that
it lies within a quarter ulp of the root of a cubic Taylor model.  From the
zero tables' guesses most zeros take one pass (about 1.06 passes per zero
for a 3000-mode disk, plus one shared run for the signs of its counts).  The
order-(m + 1) value of a zero's last pass lets the zero tables check the
sign of f_{m+1} at that zero without a pass of its own.
"""

import math
import operator

BACKEND = "python"

# each kind, J, J', j and j' by name, as (spherical, derivative): whether it
# is j rather than J, and the derivative rather than the function
_KINDS = {"bessel": (False, False), "bessel_prime": (False, True),
          "spherical": (True, False), "spherical_prime": (True, True)}

# below it every evaluator sums its ascending series: the recurrence's c/x
# overflows there
_SERIES_SEAM = 1e-3
_MAX_STEPS = 100
_RESCALE_AT = 1e250
_RESCALE_BY = 1e-250
# the most steps of backward recurrence a public evaluator takes (about 0.4 s)
MAX_RECURRENCE = 10**6


def _recurrence_start(x, lo):
    # the order well above max(lo + 1, x) at which a backward recurrence for
    # orders lo .. lo + 2 starts; it takes that many steps
    return max(lo + 1, int(x)) + 20 + int(10.0 * max(x, 1.0) ** (1.0 / 3.0))


def _backward(x, lo, start, shift, kept=None):
    # trial values v_k of the backward recurrence
    # v_{k-1} = (2k + shift)/x v_k - v_{k+1} (shift 0 for J, 1 for j), run
    # from v_start = 1e-30, v_{start+1} = 0 down to k = 1: returns v_lo,
    # v_lo+1, v_lo+2, v_0, v_1 and the sum of v_k over even k >= 2, all
    # rescaled together right after the step at which |v| exceeds _RESCALE_AT.
    # Given a list kept, it appends v_{start-1} .. v_0, each rescaled as
    # v_lo is by every later rescale.
    # The step at k multiplies M = max(|v_k|, |v_k+1|) by at most
    # g = (2k + shift)/x + 1 (the growth bound of a three-term recurrence,
    # Gautschi, SIAM Rev. 9, 1967), and g falls with k; so no step of the
    # budget, the n steps with M g^n < _RESCALE_AT / 2 at the k where it is
    # drawn, can rescale (the halving covers rounding).  Within the budget
    # the loop runs pairs of steps from an even k with no test at all; the
    # capture step at lo + 1, a step from an odd k and every step outside the
    # budget run alone with every test, and a budget is drawn anew when it is
    # spent or after a rescale (0 when M is 0 or c/x overflows, and in a run
    # that keeps its values, which so runs every step alone).  Each rescale
    # thus falls on the step at which a test of every step puts it, and a
    # kept value is bit for bit the v_lo that a capture there would give.
    vnext = 0.0
    vcur = 1e-30
    esum = 0.0
    cap = lo + 1
    va = vb = vc = 0.0
    c = 2.0 * start + shift  # 2k + shift, exactly
    k = start
    budget = 0
    while k:
        if budget < 2:
            m = max(abs(vcur), abs(vnext))
            budget = (int(math.log(0.5 * _RESCALE_AT / m) / math.log1p(c / x))
                      if 0.0 < m < 0.5 * _RESCALE_AT and kept is None else 0)
        if not k & 1:
            n = min(budget, k - cap if k >= cap else k) >> 1
            budget -= 2 * n
            k -= 2 * n
            for _ in range(n):
                esum += vcur
                vnext = c / x * vcur - vnext
                c -= 2.0
                vcur = c / x * vnext - vcur
                c -= 2.0
            if not k:
                break
            esum += vcur
        vprev = c / x * vcur - vnext
        c -= 2.0
        if k == cap:
            va, vb, vc = vprev, vcur, vnext
        if kept is not None:
            kept.append(vprev)
        vnext = vcur
        vcur = vprev
        k -= 1
        budget -= 1
        if abs(vcur) > _RESCALE_AT:
            vcur *= _RESCALE_BY
            vnext *= _RESCALE_BY
            esum *= _RESCALE_BY
            va *= _RESCALE_BY
            vb *= _RESCALE_BY
            vc *= _RESCALE_BY
            if kept is not None:
                kept[:] = [v * _RESCALE_BY for v in kept]
            budget = 0
    return va, vb, vc, vcur, vnext, esum


def _miller(x, lo, kept=None):
    # (J_lo, J_lo+1, J_lo+2) for x >= _SERIES_SEAM, from an even start,
    # normalized by the sum rule J_0 + 2 sum_k J_2k = 1; given a list kept,
    # it holds J_k for every k below the start, k = 0 first
    start = _recurrence_start(x, lo)
    va, vb, vc, v0, _, esum = _backward(x, lo, start + (start & 1), 0.0, kept)
    norm = v0 + 2.0 * esum
    if kept is not None:
        kept[::-1] = [v / norm for v in kept]
    return va / norm, vb / norm, vc / norm


def check_recurrence(x, lo):
    """The order at which a backward recurrence for orders lo .. lo + 2 at x
    starts, which is the number of steps it takes; ValueError if that is
    more than ``MAX_RECURRENCE``."""
    start = _recurrence_start(x, lo)
    if start > MAX_RECURRENCE:
        raise ValueError(
            f"order and x too large: the backward recurrence would take more "
            f"than {MAX_RECURRENCE} steps"
        )
    return start


def check_integer(name, value, low):
    """value as an int (from an int or a numpy integer) that is at least low,
    the base of what it names: 0 for an order or a Neumann mu_i, 1 for a rank
    or a Dirichlet lambda_i.  ValueError for anything else, a float of
    integral value included, and for an int below low."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _check(order, x, closed):
    # the public evaluators' input, and their order as an int: an integer
    # order >= 0 and a finite x, >= 0 if closed and > 0 otherwise; and from
    # the series seam on, where the pass recurs backward, a recurrence of at
    # most MAX_RECURRENCE steps
    order = check_integer("order", order, 0)
    if not (math.isfinite(x) and (x >= 0 if closed else x > 0)):
        raise ValueError(f"x must be finite and {'>=' if closed else '>'} 0")
    if x >= _SERIES_SEAM:
        check_recurrence(x, max(order - 1, 0))
    return order


def bessel_j(order, x):
    """Bessel function of the first kind J_order(x).

    For x >= 1e-3 the backward recurrence takes about max(order, x) steps;
    input that needs more than ``MAX_RECURRENCE`` (10^6) raises ValueError.
    """
    order = _check(order, x, True)
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    return _pass("bessel", order, x)[0]


def bessel_j_prime(order, x):
    """Derivative J'_order(x).

    For x >= 1e-3 the backward recurrence takes about max(order, x) steps;
    input that needs more than ``MAX_RECURRENCE`` (10^6) raises ValueError.
    """
    order = _check(order, x, True)
    if x == 0.0:
        return 0.5 if order == 1 else 0.0
    return _pass("bessel_prime", order, x)[0]


def _sph_miller(x, lo, kept=None):
    # (j_lo, j_lo+1, j_lo+2), anchored on j_0 = sin x/x or on
    # j_1 = sin x/x^2 - cos x/x, whichever is larger; given a list kept, it
    # holds j_k for every k below the start, k = 0 first
    va, vb, vc, v0, v1, _ = _backward(x, lo, _recurrence_start(x, lo), 1.0, kept)
    sx = math.sin(x)
    cx = math.cos(x)
    s0 = sx / x
    s1 = sx / (x * x) - cx / x
    scale = s0 / v0 if abs(s0) >= abs(s1) else s1 / v1
    if kept is not None:
        kept[::-1] = [v * scale for v in kept]
    return va * scale, vb * scale, vc * scale


def _series(p, x, shift, deriv):
    # J_p(x) (shift 0) or j_p(x) (shift 1), or with deriv = 1 its derivative
    # (p >= 1), for x < _SERIES_SEAM: the ascending series they share, a
    # leading power times 0F1(; nu + 1; -x^2/4) with nu = p or p + 1/2
    # (DLMF 10.2.2, 10.53.1),
    # sum_k (-x^2/2)^k x^p / (k! prod_{i=1}^{p+k} (2i + shift)),
    # differentiated term by term.  Below 1e-3 each term is below 2.5e-7 of
    # the one before, so the terms past k = 3 add less than 1e-26.  The
    # leading x^(p - deriv) / prod_{i=1}^p (2i + shift) is built a factor at
    # a time, so that it underflows to 0 where the value does instead of
    # overflowing, and it stops there, so that every order is cheap.
    t = 1.0
    for i in range(1, p + 1):
        t *= (x if i > deriv else 1.0) / (2 * i + shift)
        if not t:
            break
    s = p * t if deriv else t
    mx2 = -0.5 * x * x
    for k in (1, 2, 3):
        t *= mx2 / (k * (2 * p + 2 * k + shift))
        s += (p + 2 * k) * t if deriv else t
    return s


def spherical_j(order, x):
    """Spherical Bessel function j_order(x), x > 0.

    For x >= 1e-3 the backward recurrence takes about max(order, x) steps;
    input that needs more than ``MAX_RECURRENCE`` (10^6) raises ValueError.
    """
    order = _check(order, x, False)
    return _pass("spherical", order, x)[0]


def spherical_j_prime(order, x):
    """Derivative d/dx j_order(x), x > 0.

    For x >= 1e-3 the backward recurrence takes about max(order, x) steps;
    input that needs more than ``MAX_RECURRENCE`` (10^6) raises ValueError.
    """
    order = _check(order, x, False)
    return _pass("spherical_prime", order, x)[0]


def _pass(kind, order, x):
    # (f, f', f'', f''', g) at x > 0: f is the kind's function (J, J', j or
    # j') at order m and g the same function of order m + 1.  One formula set
    # serves all four kinds.  With y = J_m (w = 1, shift 0) or j_m (w = 2, shift 1)
    # and q = m(m + shift)/x^2, one Miller pass over the orders
    # max(m - 1, 0) .. m + 1 gives y, y_{m+1} and y' = (J_{m-1} - J_{m+1})/2
    # or j_{m-1} - (m + 1)/x j_m (y'_0 = -y_1 in both), and below the series
    # seam y, y_{m+1} and y' are their own series.  The ODE
    # y'' = -w y'/x - (1 - q) y and its two derivatives
    # y''' = w y'/x^2 - w y''/x - 2q/x y - (1 - q) y' and
    # y'''' = 2w/x^2 (y'' - y'/x) - w y'''/x - 4q/x y' + 6q/x^2 y - (1 - q) y''
    # give the rest, and y'_{m+1} = y_m - (m + w)/x y_{m+1}.  x * x
    # underflows to 0 below x = 1.6e-162, far below every zero: the ODE's
    # terms are nan there, and f (the sign passes') stays exact
    spherical, derivative = _KINDS[kind]
    w = 2.0 if spherical else 1.0
    shift = w - 1.0
    if x < _SERIES_SEAM:
        y = _series(order, x, shift, 0)
        d = _series(order, x, shift, 1) if order else -_series(1, x, shift, 0)
        above = _series(order + 1, x, shift, 0)
    else:
        miller = _sph_miller if spherical else _miller
        y, d, above = _from_miller(spherical, order, x, *miller(x, order - 1 if order else 0))
    xx = x * x or math.nan
    q = order * (order + shift) / xx
    d2 = -w * d / x - (1.0 - q) * y
    d3 = w * d / xx - w * d2 / x - 2.0 * q / x * y - (1.0 - q) * d
    if not derivative:
        return y, d, d2, d3, above
    d4 = (2.0 * w / xx * (d2 - d / x) - w * d3 / x - 4.0 * q / x * d + 6.0 * q / xx * y
          - (1.0 - q) * d2)
    return d, d2, d3, d4, y - (order + w) / x * above


def _from_miller(spherical, order, x, a, b, c):
    # (y, y', y_{m+1}) of ``_pass`` from the Miller values a, b, c of the
    # orders max(m - 1, 0) .. m + 1
    if order:
        return b, (a - (order + 1.0) / x * b if spherical else 0.5 * (a - c)), c
    return a, -b, b


def evaluate(kind, order, x):
    """The kind's function of the given order at x > 0, its input unchecked."""
    return _pass(kind, order, x)[0]


def evaluate_orders(kind, x):
    """``evaluate(kind, m, x)`` for every order m <= int(x), as a list, bit
    for bit, from one backward run, at x > 1: the domain of its one caller,
    the zero tables' counts (see ``specpack.bessel``).

    A pass for any of these orders starts its recurrence at the same order,
    ``_recurrence_start(x, 0)``, so one run that keeps every value serves
    them all (Gautschi, SIAM Rev. 9, 1967).  That run takes every step
    alone, so at x = 125, where it serves 126 orders, it takes as long as
    about ten passes (one core of a 2-core Xeon, Python 3.11).
    """
    spherical, derivative = _KINDS[kind]
    ys = []
    (_sph_miller if spherical else _miller)(x, 0, ys)
    values = []
    for m in range(int(x) + 1):
        lo = m - 1 if m else 0
        y, d, _ = _from_miller(spherical, m, x, *ys[lo:lo + 3])
        values.append(d if derivative else y)
    return values


def next_zero(kind, order, lo, hi, guess, sign_lo):
    """Refine the one zero of the kind's function inside (lo, hi).

    f has the sign ``sign_lo`` on (lo, zero) and the opposite sign on
    (zero, hi).  The passes start at ``guess``, or at the midpoint of
    (lo, hi) where the guess is not inside it.  Each pass at x gives f
    through f''' there, and from them the cubic Taylor step x + t: t solves
    the model p(t) = f + f' t + f'' t^2/2 + f''' t^3/6 = 0 near -f/f' (one
    Newton step on p from there).  Every derivative of J_m and j_p is at
    most 1 in size (DLMF 10.14.1 with 10.6.7, and 10.54.2), so with
    q = ulp(x)/4 and S = |t| + q, on [x + t - q, x + t + q]

        |f'| >= d = |f'(x)| - S (|f''(x)| + S (|f'''(x)|/2 + S/6)),

    and |f(x + t)| <= R = |p(t)| + t^4/24.  If d > 0 and R <= d q, f is
    monotone there and changes sign, so the zero lies within q of x + t,
    which is accepted if it lies inside (lo, hi).  Otherwise the next pass
    is at the Newton step x - f/f', or at the midpoint of the bracket that
    the signs of f have narrowed when that leaves it.  That step needs no
    test of its own: Newton's bound proves x - f/f' within q only where
    M r^2/2 <= d q, with r = |f/f'| and M = |f''(x)| + 2r >= 2r, so only
    where r^3 <= d q, and there the cubic's remainder t^4/24 is far
    smaller still.

    The test R <= d q is the one rule by which a zero is accepted.  Its
    proof holds for the computed f through f''', whose own error is not yet
    bounded.  It also bounds the residual: |f(x + t)| <= R <= d q < 3e-11,
    as d <= |f'(x)| <= 1 and q <= 2^-35 at every x below 2^20, where every
    pass of the zero tables lies: they refuse (``check_recurrence``) a
    query whose recurrence would start above ``MAX_RECURRENCE`` = 10^6.

    Returns (zero, x, g): the zero x + t, the last iterate x and the kind's
    function of order + 1 at x, from the same pass.  All three are nan if
    no step was accepted.
    """
    x = guess if lo < guess < hi else 0.5 * (lo + hi)
    for _ in range(_MAX_STEPS):
        f, df, d2f, d3f, up = _pass(kind, order, x)
        step = f / df if df else math.inf
        # a p' of exactly 0 leaves t at -step
        t = -step
        t -= ((f + t * (df + t * (0.5 * d2f + t * d3f / 6.0)))
              / ((df + t * (d2f + 0.5 * t * d3f)) or math.inf))
        q = 0.25 * math.ulp(x)
        s = abs(t) + q
        small = abs(df) - s * (abs(d2f) + s * (0.5 * abs(d3f) + s / 6.0))
        bound = abs(f + t * (df + t * (0.5 * d2f + t * d3f / 6.0))) + (t * t) * (t * t) / 24.0
        if small > 0.0 and bound <= small * q and lo < x + t < hi:
            return x + t, x, up
        if (f > 0.0) == (sign_lo > 0.0):
            lo = x
        else:
            hi = x
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    return (math.nan,) * 3
