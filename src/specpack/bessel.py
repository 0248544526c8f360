"""Bessel functions and cached tables of their positive zeros.

The evaluators J_m, J'_m, j_p and j'_p (``bessel_j``, ``bessel_j_prime``,
``spherical_bessel_j``, ``spherical_bessel_j_prime``) are the kernels' own,
which check their input; this module only names them.

Three kinds of zeros are tabulated:

  * ``bessel_prime``     -- zeros of J'_m (Neumann disk modes)
  * ``bessel``           -- zeros of J_m (Dirichlet disk modes)
  * ``spherical_prime``  -- zeros of d/dx j_p (Neumann ball modes)

Rank convention: rank r denotes the r-th strictly positive zero, with one
exception.  For ``bessel_prime`` at order 0 the stationary point of J_0 at
x = 0 occupies rank 1 but is never stored (it is the constant Neumann mode),
so valid ranks start at 2 and rank r maps to the (r-1)-th positive zero.
``spherical_prime`` at order 0 also has a trivial stationary point at x = 0;
there the ranks simply count the strictly positive zeros starting at 1.

Completeness follows from interlacing (DLMF 10.21(i)), checked as the table
grows.  For order m >= 1 the k-th zero lies between the k-th and (k+1)-th
zeros of order m-1; for the two derivative kinds the trivial zero of order 0
at x = 0 counts as the first.  Order 0 is bracketed the same way, with the
multiples of pi standing in for the order below: counting the trivial zero
as zero 0 in the kinds that have one, zero i of order 0 lies strictly inside
(i pi, (i+1) pi) in all three kinds.

  * J_0's k-th zero lies in ((k-1) pi, k pi).  The zeros of J_nu grow with
    nu >= 0 (DLMF 10.21(iv)), and J_{1/2}(x) = sqrt(2/(pi x)) sin x has its
    k-th zero at k pi, so j_{0,k} < k pi.  By interlacing j_{0,k} lies above
    j_{1,k-1}, which lies above j_{1/2,k-1} = (k-1) pi.
  * The positive zeros of J'_0 = -J_1 and j'_0 = -j_1 lie in
    (k pi, (k+1/2) pi): j_{1,k} lies between the k-th zeros of J_{1/2} and
    J_{3/2}, and the zeros of j_1, as of J_{3/2}, are the roots of
    tan x = x, one in each (k pi, (k+1/2) pi).

Each function is positive on (0, first zero) (J'_0 and j'_0 negative), so
the sign of f_m at every zero of order m-1 is fixed by its rank.  Each such
sign is checked when its zero of order m-1 is found, from the last pass of
the finder, which also gives f_m at the last iterate x: as |f_m'| <= 1,
f_m has the same sign at the zero when |f_m(x)| > |x - zero|, and is
evaluated there otherwise.  A zero missing from, or extra in, the order
below raises AccuracyError.  The count of zeros below any x then follows
from the order below (for order 0 the multiples of pi) plus the sign of f_m
at x, which is what ``ZeroTable.zeros_below`` answers.

No zero of any kind and order m lies in (0, max(m, 1)].  For m >= 1, with
f = J_m (or j_m), f and f' are positive near 0, and (x f')' = (m^2/x - x) f
for J_m, or (x^2 f')' = (m(m+1) - x^2) f for j_m, is positive while f is on
(0, m]: x f' (x^2 f') grows from 0, so neither f nor f' vanishes there.  For
order 0, J_0 >= 1 - x^2/4 > 0 on (0, 1], and J'_0 = -J_1 and j'_0 = -j_1 are
nonzero there by the case m = 1.  So a count at x <= max(m, 1) is 0 and reads
no sign, and every other count has m < x with x > 1: the orders counted at
one x read their signs from one backward run there, which serves every order
up to int(x) bit for bit as its own pass would (``kernels.evaluate_orders``).
From order 1 on, the first zero also grows with the order, so the first
order >= 1 with no zero below x has no higher order with one, and it is at
most floor(x) + 1: ``ZeroTable.entries_below`` tabulates every zero below x
by growing the orders up to that one.  The tables have no fixed range: any
x can be reached, at the cost of the zeros below it.

Inside its bracket each zero is refined by ``kernels.next_zero``: a cubic
Taylor step from each pass, with a safeguarded Newton step as the fallback.
Its first pass is at a guess: from order 4 on, the zeros of orders m-1 .. m-4
extrapolated in the order by a cubic; below order 4, an asymptotic expansion
(McMahon's, DLMF 10.21.19 and 10.21.20, for J and J'; for j', one Newton
step from McMahon's zero of J'_{p+1/2}, see ``_mcmahon``).  Where the guess
is not inside the bracket the first pass is at the bracket's midpoint.
A zero is accepted by the one rule that ``kernels.next_zero`` states and
proves.  The table reports that zero on a grid of its own: as the midpoint
of a bisection to width 1e-12, steered by that zero alone, from the cell of
the 0.05-step grid that holds the zero (see ``_grid_value``).  Each order's
grid starts at max(order/2, 0.01) and resumes, for each later zero, after
the cell of the one before.
"""

import bisect
import math
from collections import namedtuple

from .backend import kernels

KINDS = ("bessel_prime", "bessel", "spherical_prime")

# The kernels take the kind's name itself.  Only the benchmark's tracer reads
# this identity map, to tag each ``kernels.next_zero`` span with its kind;
# ROADMAP item 1(b) deletes it with the tracer's lookup.
_KIND_CODE = dict(zip(KINDS, KINDS))

# the reporting grid of the tabulated values (see _grid_value)
_GRID_STEP = 0.05
_BISECT_WIDTH = 1e-12
# The most recurrence steps, by the estimate in ``_check_query``, that a
# query may take to grow a fresh table: about 1.5 minutes at the 8e-8 to
# 1.1e-7 s a step measured on one core of a 2-core Xeon (Python 3.11).
MAX_QUERY_STEPS = 10**9


class AccuracyError(RuntimeError):
    """A zero is not refined inside its bracket (``kernels.next_zero``
    accepts no step there), lies below where its order's reporting grid
    resumes, or gives the next order a sign that contradicts interlacing."""


class ZeroIndex(namedtuple("ZeroIndex", "order rank")):
    """(order, rank) address of a tabulated zero."""

    __slots__ = ()

    def __new__(cls, order, rank):
        return super().__new__(cls, kernels.check_integer("order", order, 0),
                               kernels.check_integer("rank", rank, 1))


def rank_offset(kind, order):
    """Rank of the k-th positive zero less k: 1 for ``bessel_prime`` order 0,
    whose rank 1 is the trivial zero at x = 0 (see above), else 0."""
    return 1 if (kind == "bessel_prime" and order == 0) else 0


def _grid_value(zero, lo):
    # The reported value of a zero above the grid point lo: the midpoint at
    # which a bisection to width _BISECT_WIDTH ends, started from the cell of
    # the grid lo, lo + _GRID_STEP, ... (summed step by step) that holds the
    # zero.  A point below the zero lies left of it, any other right of it.
    # Returns the value and the grid point after the cell.
    hi = lo + _GRID_STEP
    while hi < zero:
        lo = hi
        hi = lo + _GRID_STEP
    resume = hi
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid < zero:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), resume


def _mcmahon(kind, m, s):
    # McMahon's expansion of the s-th zero of J_m (DLMF 10.21.19) or of J'_m
    # (10.21.20, which counts the zero of J'_0 at x = 0 as its first), to
    # four terms.  For j'_p it is one Newton step from the s-th zero b of
    # J'_nu, nu = p + 1/2: j_p = sqrt(pi/2x) J_nu (DLMF 10.47.3), so j'_p
    # vanishes where J'_nu - J_nu/(2x) does, and at b, where J'_nu = 0 and
    # J''_nu = -(1 - nu^2/b^2) J_nu, the step is -b/(2 (b^2 - nu^2 - 1/2)).
    # The first zero of J'_{1/2}, 1.166, stands for the trivial zero of j'_0
    nu = m + 0.5 if kind == "spherical_prime" else m
    mu = 4.0 * nu * nu
    if kind == "bessel":
        a = (s + 0.5 * nu - 0.25) * math.pi
        c1 = mu - 1.0
        c2 = (mu - 1.0) * (7.0 * mu - 31.0)
        c3 = (mu - 1.0) * ((83.0 * mu - 982.0) * mu + 3779.0)
    else:
        a = (s + 0.5 * nu - 0.75) * math.pi
        c1 = mu + 3.0
        c2 = (7.0 * mu + 82.0) * mu - 9.0
        c3 = ((83.0 * mu + 2075.0) * mu - 3039.0) * mu + 3537.0
    t = 1.0 / (8.0 * a)
    b = a - t * (c1 + t * t * (4.0 / 3.0 * c2 + t * t * 32.0 / 15.0 * c3))
    if kind == "spherical_prime":
        b -= b / (2.0 * (b * b - nu * nu - 0.5))
    return b


def _check_query(order, x):
    # refuse, before any pass, a query whose passes would recur too far, or
    # whose whole work could, by an estimate from an empty table: each of the
    # orders 0 .. order is allowed 5 passes for each of its about x/pi zeros,
    # none longer than the top order's, and x/2.4 + 2 more.  A zero takes
    # about 1.06 passes, and the signs of the counts at x one shared run, so
    # the x/2.4 + 2, once the 2.4 passes a zero took, is a pad: it covers the
    # sign checks at found zeros that fall back to an evaluation and the
    # shared run, until one work budget per command replaces this estimate
    start = kernels.check_recurrence(x, order)
    steps = (order + 1) * (x / 2.4 + 5.0 * x / math.pi + 2.0) * start
    if steps > MAX_QUERY_STEPS:
        raise ValueError(
            f"query too large: growing orders 0 .. {order} to x = {x:g} "
            f"could take {steps:.1e} recurrence steps, more than "
            f"{MAX_QUERY_STEPS:.0e}"
        )


def _parity(crossings):
    # sign of f after the given number of zeros (f > 0 before the first)
    return -1.0 if crossings & 1 else 1.0


class _Order:
    """What a table holds of one order: its nodes, the zeros found so far,
    ascending, after the trivial zero at x = 0 where the order has one (node
    i is then zero i of the interlacing); the count of its positive zeros
    below its reach, the x below which its zeros are counted; and where its
    reporting grid resumes."""

    __slots__ = ("nodes", "count", "reach", "resume")

    def __init__(self, nodes, resume):
        self.nodes = nodes
        self.count = 0
        self.reach = 0.0
        self.resume = resume


class ZeroTable:
    """Lazily grown cache of positive zeros for one kind.

    Per order the table keeps one record (``_Order``): the zeros found so
    far and its reach, the x below which every zero of the order is
    counted.  A count below x rests on the order below (its zeros below x
    plus the sign of f at x), so growing one order grows every lower order
    to the same x.  A count at x <= max(order, 1) reads no sign, as no zero
    lies there, and the signs of all other counts at one x come from one
    backward run there (``kernels.evaluate_orders``; see the module
    docstring).
    Each zero is accepted by ``kernels.next_zero``'s proof alone, and
    checked when it is found against the sign that interlacing fixes for
    the function of the next order there.

    A pass at x runs a backward recurrence of about max(order, x) steps, and
    order 0 alone has about x/pi zeros below x, each found in one or two
    passes, so growing a table to x costs about x^2: ``zeros_below(0, 1000)``
    takes about 0.15 s and ``zeros_below(0, 2000)`` about 0.5 s.  A query is
    refused with ValueError before any pass when one pass would take more
    than the kernels' ``MAX_RECURRENCE`` (10^6) steps
    (``kernels.check_recurrence``, as in the public evaluators), or when its
    whole work from an empty table could take more than ``MAX_QUERY_STEPS``
    (10^9 steps, about 1.5 minutes).

    Construction is single-writer; once the needed zeros are in, lookups are
    pure reads and safe to share.
    """

    def __init__(self, kind):
        if kind not in KINDS:
            raise ValueError(f"unknown zero kind {kind!r}")
        self.kind = kind
        self._orders = {}  # order -> _Order
        self._pi = [0.0]  # the multiples of pi listed so far (see _below)
        self._at = (math.nan, [])  # the last reach x and evaluate_orders there

    def positive_zero(self, order, k):
        """The k-th strictly positive zero (k >= 1) for the given order.

        Each order is bracketed by the order below, so the first query of a
        high order grows every lower order to about the same x: on a fresh
        table ``ZeroTable("bessel_prime").positive_zero(100, 1)`` finds 1455
        zeros.  Queries in ascending order, as the spectra make them, pay
        for each zero once.
        """
        order = kernels.check_integer("order", order, 0)
        k = kernels.check_integer("k", k, 1)
        rec = self._record(order)
        while rec.count < k:
            self._settle(order, max(rec.reach, order) + (k - rec.count + 1) * math.pi)
        self._find(order, k)
        return rec.nodes[self._trivial(order) + k - 1]

    def zeros_below(self, order, x):
        """All strictly positive zeros of the given order below x, ascending."""
        order = kernels.check_integer("order", order, 0)
        if not math.isfinite(x):
            raise ValueError(f"need a finite x, got {x}")
        self._settle(order, x)
        rec = self._orders[order]
        shift = self._trivial(order)
        if rec.count > len(rec.nodes) - shift:
            self.positive_zero(order, rec.count)
        return rec.nodes[shift:bisect.bisect_left(rec.nodes, x)]

    def entries_below(self, x):
        """``entries`` restricted to the zeros below x, once every zero below
        x is tabulated: the orders grow one at a time (``zeros_below``) up to
        the first order >= 1 with no zero below x, past which no order has
        one.  The walk is refused before its first pass when the query of
        the highest order it could reach would be."""
        if not math.isfinite(x):
            raise ValueError(f"need a finite x, got {x}")
        # the first zero of order m >= 1 exceeds m (see the module
        # docstring), so the walk ends by order floor(x) + 1, whose estimate
        # bounds every query it makes
        _check_query(int(x) + 1, x)
        order = 0
        while self.zeros_below(order, x) or not order:
            order += 1
        return self._entries(x)

    def zero(self, idx):
        """Zero addressed by a ZeroIndex, honoring the rank convention."""
        off = rank_offset(self.kind, idx.order)
        if idx.rank == off:
            raise ValueError(
                f"{self.kind} order 0 rank 1 denotes the trivial stationary "
                f"point at x = 0 and is not tabulated; ranks start at 2"
            )
        return self.positive_zero(idx.order, idx.rank - off)

    def entries(self):
        """Snapshot of all cached zeros keyed by ZeroIndex."""
        return self._entries(math.inf)

    def _entries(self, x):
        # the cached zeros below x keyed by ZeroIndex, by order, then rank
        out = {}
        for order, rec in sorted(self._orders.items()):
            nodes = rec.nodes
            zs = nodes[self._trivial(order):bisect.bisect_left(nodes, x)]
            # valid orders and ranks by construction: skip ZeroIndex's checks
            for rank, z in enumerate(zs, 1 + rank_offset(self.kind, order)):
                out[ZeroIndex._make((order, rank))] = z
        return out

    def _trivial(self, order):
        # the derivative kinds vanish at x = 0 for order 0; that zero leads
        # the interlacing with order 1 but is not stored
        return 1 if (order == 0 and self.kind != "bessel") else 0

    def _record(self, m):
        # the record of order m, empty until the order is first counted
        rec = self._orders.get(m)
        if rec is None:
            rec = self._orders[m] = _Order([0.0] * self._trivial(m), max(m * 0.5, 0.01))
        return rec

    def _settle(self, order, x):
        _check_query(order, x)
        # count every zero of orders <= order below x; find the lower orders'
        low = order
        while low > 0 and self._record(low - 1).reach < x:
            low -= 1
        for m in range(low, order + 1):
            if m:
                self._find(m - 1, self._orders[m - 1].count)
            if self._record(m).reach < x:
                self._count_from_below(m, x)

    def _below(self, m, x):
        # the nodes that bracket the zeros of order m, one zero each: those
        # of order m - 1, and for m = 0 the multiples of pi (the zeros of
        # sin x, by the theorem in the module docstring), listed up to the
        # first one at or above x.  The count and the brackets both read them
        if m:
            return self._orders[m - 1].nodes
        nodes = self._pi
        while nodes[-1] < x:
            nodes.append(len(nodes) * math.pi)
        return nodes

    def _count_from_below(self, m, x):
        # no zero of order m lies at or below max(m, 1) (see the module
        # docstring).  Above it, ``_find`` checked the sign of f_m at every
        # zero of order m-1, so with the n nodes (see _below) below x, the
        # trivial zeros counted, n zeros of m lie below x if f_m(x) has the
        # sign (-1)^n, and n - 1 otherwise; f_m(x) comes from the one run at
        # x, kept for the next order counted there
        rec = self._orders[m]
        rec.reach = x
        rec.count = 0
        if x > max(m, 1):
            at, values = self._at
            if at != x:
                values = kernels.evaluate_orders(self.kind, x)
                self._at = x, values
            n = bisect.bisect_left(self._below(m, x), x)
            if not values[m] * _parity(n) > 0.0:
                n -= 1
            rec.count = n - self._trivial(m)

    def _find(self, order, k):
        # find the counted zeros up to rank k, one bracketed refinement each.
        # Zero i (the trivial zero counted) lies between nodes i and i + 1 of
        # the order below (see _below), and below the reach; its first guess
        # is the asymptotic one below order 4, else the zeros of the same
        # place in the orders m-1 .. m-4 extrapolated by a cubic
        rec = self._orders[order]
        nodes = rec.nodes
        i = len(nodes)
        shift = self._trivial(order)
        if i >= shift + k:
            return
        reach = rec.reach
        below = self._below(order, reach)
        if order >= 4:
            n2, n3, n4 = (self._orders[order - d].nodes for d in (2, 3, 4))
        start = rec.resume
        sign = _parity(i)  # of f below zero i
        while i < shift + k:
            lo = below[i]
            hi = min(below[i + 1], reach) if i + 1 < len(below) else reach
            guess = (_mcmahon(self.kind, order, i + 1) if order < 4
                     else 4.0 * (lo + n3[i]) - 6.0 * n2[i] - n4[i])
            zero, x, f_up = kernels.next_zero(self.kind, order, lo, hi, guess, sign)
            if math.isnan(zero):
                raise AccuracyError(
                    f"{self.kind} order {order} zero #{i - shift + 1}: not refined "
                    f"inside its bracket ({lo}, {hi})"
                )
            # an order's grid starts below its first zero in every kind, and
            # resumes within 0.05 above the zero before, below the next one
            # (zeros of one order lie more than 0.05 apart)
            if not start < zero:
                raise AccuracyError(
                    f"{self.kind} order {order} zero #{i - shift + 1}: the reporting "
                    f"grid resumes at {start!r}, past the zero {zero!r}; a "
                    f"zero below {start!r} is missing from the table"
                )
            zero, start = _grid_value(zero, start)
            # interlacing puts i zeros of order + 1 below this one, so f of
            # order + 1 has the sign (-1)^i here; f_up, at the last iterate x,
            # has it too when |f_up| > |x - zero|, as slopes are at most 1
            if not abs(f_up) > abs(x - zero):
                f_up = kernels.evaluate(self.kind, order + 1, zero)
            if f_up * sign < 0.0:
                raise AccuracyError(
                    f"{self.kind} order {order + 1}: f({zero!r}) = {f_up:.3e} has the "
                    f"wrong sign for {i} zeros below it; interlacing is broken "
                    f"(a zero is missing or extra)"
                )
            nodes.append(zero)
            rec.resume = start
            i += 1
            sign = -sign


bessel_j = kernels.bessel_j
bessel_j_prime = kernels.bessel_j_prime
spherical_bessel_j = kernels.spherical_j
spherical_bessel_j_prime = kernels.spherical_j_prime

_TABLES = {kind: ZeroTable(kind) for kind in KINDS}


def default_table(kind):
    """Process-wide shared table for the given kind."""
    return _TABLES[kind]


def bessel_jprime_zero(idx):
    """Positive zero of J'_m addressed by idx (see rank convention above)."""
    return default_table("bessel_prime").zero(idx)


def bessel_j_zero(idx):
    """idx.rank-th positive zero of J_{idx.order}."""
    return default_table("bessel").zero(idx)


def spherical_jprime_zero(idx):
    """idx.rank-th positive zero of d/dx j_{idx.order}."""
    return default_table("spherical_prime").zero(idx)

