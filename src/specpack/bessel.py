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
at x = 0 counts as the first.  Each function is positive on (0, first zero)
(J'_0 and j'_0 negative), so the sign of f_m at every zero of order m-1 is
fixed by its rank.  Each such sign is checked when its zero of order m-1 is
found, from the Newton pass that found it, which also gives f_m at the last
iterate x: as |f_m'| <= 1, f_m has the same sign at the zero when
|f_m(x)| > |x - zero|, and is evaluated there otherwise.  A zero missing
from, or extra in, the order below raises AccuracyError.  The count of zeros
below any x then follows from the order below plus the sign of f_m at x,
which is what ``ZeroTable.zeros_below`` answers.  Order 0 is counted by a
sign scan in cells of ``ORDER0_STEP`` = 2.4, with no sign at x = 0 and the
last cell ending at x: the step stays below J_0's first zero (2.405), so the
first cell holds no zero, and below the spacing of consecutive order-0 zeros
(> 3.1 for J_0, > pi for J_1 and j_1), so every later cell holds at most
one.  The tables have no fixed range: any x can be reached, at the cost of
the zeros below it.

Inside its bracket each zero is refined by a safeguarded Newton iteration
(``kernels.next_zero``), started from the zeros of orders m-1, m-2 and m-3
extrapolated in the order.  Its last step is accepted once an error bound
puts the zero within a quarter ulp of it, and the bound on |f| after that
step is checked against ``RESIDUAL_TOL``.  The reported value keeps the
tabulated values of earlier releases bit for bit: the midpoint of a
bisection to width 1e-12 from the cell of the 0.05-step grid, started at
max(order/2, 0.01), that holds the zero (see ``_kernels_py._grid_value``).
"""

import bisect
import math
from collections import namedtuple

from .backend import kernels

KINDS = ("bessel_prime", "bessel", "spherical_prime")

_KIND_CODE = {
    "bessel_prime": kernels.KIND_BESSEL_PRIME,
    "bessel": kernels.KIND_BESSEL,
    "spherical_prime": kernels.KIND_SPHERICAL_PRIME,
}

RESIDUAL_TOL = 1e-9
# Step of the order-0 sign scan.  The scan has no sign at x = 0, so its first
# cell (0, step] must hold no zero: the step stays below J_0's first zero
# (2.405).  Each later cell must hold at most one zero: the step stays below
# the spacing of consecutive order-0 zeros (> 3.1 for J_0, > pi for J_1, j_1).
# A scan's last cell ends at the x asked for, so it counts no zero past x.
ORDER0_STEP = 2.4


class AccuracyError(RuntimeError):
    """A zero fails its residual bound, or a sign contradicts interlacing."""


class ZeroIndex(namedtuple("ZeroIndex", "order rank")):
    """(order, rank) address of a tabulated zero."""

    __slots__ = ()

    def __new__(cls, order, rank):
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        return super().__new__(cls, order, rank)


def rank_offset(kind, order):
    """Rank of the k-th positive zero less k: 1 for ``bessel_prime`` order 0,
    whose rank 1 is the trivial zero at x = 0 (see above), else 0."""
    return 1 if (kind == "bessel_prime" and order == 0) else 0


def _parity(crossings):
    # sign of f after the given number of zeros (f > 0 before the first)
    return -1.0 if crossings & 1 else 1.0


class ZeroTable:
    """Lazily grown cache of positive zeros for one kind.

    Per order the table keeps the zeros found so far and its reach: the x
    below which every zero of the order is counted, with f(reach).  A count
    below x rests on the order below (its zeros below x plus the sign of f
    at x), so growing one order grows every lower order to the same x.
    Each zero is checked when it is found: its residual, and the sign that
    interlacing fixes for the function of the next order there.

    A pass at x runs a backward recurrence of about max(order, x) steps, and
    the order-0 scan makes x/2.4 of them, so growing a table to x costs
    about x^2: ``zeros_below(0, 1000)`` takes about 0.3 s and
    ``zeros_below(0, 2000)`` about 1 s.  A query whose passes would take
    more than ``MAX_RECURRENCE`` (10^6) steps raises ValueError, as the
    public evaluators do.

    Construction is single-writer; once the needed zeros are in, lookups are
    pure reads and safe to share.
    """

    def __init__(self, kind):
        if kind not in KINDS:
            raise ValueError(f"unknown zero kind {kind!r}")
        self.kind = kind
        self._code = _KIND_CODE[kind]
        self._zeros = {}  # order -> positive zeros found, ascending
        self._count = {}  # order -> positive zeros counted below the reach
        self._reach = {}  # order -> (x, f(x)); f is None when nothing is below x
        self._scan = []  # order 0: (lo, hi, guess) of each counted zero
        self._resume = {}  # order -> where the reporting grid resumes

    def positive_zero(self, order, k):
        """The k-th strictly positive zero (k >= 1) for the given order.

        Each order is bracketed by the order below, so the first query of a
        high order grows every lower order to about the same x: on a fresh
        table ``ZeroTable("bessel_prime").positive_zero(100, 1)`` finds 1455
        zeros.  Queries in ascending order, as the spectra make them, pay
        for each zero once.
        """
        if order < 0 or k < 1:
            raise ValueError(f"need order >= 0 and k >= 1, got ({order}, {k})")
        while self._count.get(order, 0) < k:
            missing = k - self._count.get(order, 0)
            self._settle(order, max(self._reach_x(order), order) + (missing + 1) * math.pi)
        self._find(order, k)
        return self._zeros[order][k - 1]

    def zeros_below(self, order, x):
        """All strictly positive zeros of the given order below x, ascending."""
        if order < 0 or not math.isfinite(x):
            raise ValueError(f"need order >= 0 and a finite x, got ({order}, {x})")
        self._settle(order, x)
        n = self._count.get(order, 0)
        if n > len(self._zeros.get(order, ())):
            self.positive_zero(order, n)
        zs = self._zeros.get(order, [])
        return zs[: bisect.bisect_left(zs, x)]

    def zero(self, idx):
        """Zero addressed by a ZeroIndex, honoring the rank convention."""
        off = rank_offset(self.kind, idx.order)
        if idx.rank - off < 1:
            raise ValueError(
                f"{self.kind} order 0 rank 1 denotes the trivial stationary "
                f"point at x = 0 and is not tabulated; ranks start at 2"
            )
        return self.positive_zero(idx.order, idx.rank - off)

    def entries(self):
        """Snapshot of all cached zeros keyed by ZeroIndex."""
        out = {}
        for order, zs in sorted(self._zeros.items()):
            off = rank_offset(self.kind, order)
            for i, z in enumerate(zs):
                out[ZeroIndex(order, i + 1 + off)] = z
        return out

    def _trivial(self, order):
        # the derivative kinds vanish at x = 0 for order 0; that zero leads
        # the interlacing with order 1 but is not stored
        return 1 if (order == 0 and self.kind != "bessel") else 0

    def _reach_x(self, order):
        return self._reach.get(order, (0.0, None))[0]

    def _settle(self, order, x):
        if kernels._recurrence_start(x, order) > kernels.MAX_RECURRENCE:
            raise ValueError(
                f"order and x too large: the backward recurrence would take "
                f"more than {kernels.MAX_RECURRENCE} steps"
            )
        # count every zero of orders <= order below x; find the lower orders'
        low = order
        while low > 0 and self._reach_x(low - 1) < x:
            low -= 1
        for m in range(low, order + 1):
            if m:
                self._find(m - 1, self._count.get(m - 1, 0))
            if self._reach_x(m) < x:
                if m:
                    self._count_from_below(m, x)
                else:
                    self._scan_order0(x)

    def _check_sign(self, order, x, f, crossings):
        if f is not None and f * _parity(crossings) < 0.0:
            raise AccuracyError(
                f"{self.kind} order {order}: f({x!r}) = {f:.3e} has the wrong "
                f"sign for {crossings} zeros below it; interlacing is broken "
                f"(a zero is missing or extra)"
            )

    def _count_from_below(self, m, x):
        # zeros of order m-1 bracket those of order m (DLMF 10.21(i)), one
        # each, as ``_find`` checked the sign of f_m at every one of them; so
        # with the n zeros of m-1 below x, the trivial one counted, n zeros of
        # m lie below x if f_m(x) has the sign (-1)^n, and n - 1 otherwise
        below = self._zeros.get(m - 1, [])
        shift = self._trivial(m - 1)
        low_x, low_f = self._reach[m - 1]
        self._check_sign(m - 1, low_x, low_f, shift + len(below))
        n = shift + bisect.bisect_left(below, x)
        fx = None
        count = 0
        if n:
            fx = kernels.evaluate(self._code, m, x)
            count = n if fx * _parity(n) > 0.0 else n - 1
        self._reach[m] = (x, fx)
        self._count[m] = count

    def _scan_order0(self, x):
        # sign scan in cells of at most ORDER0_STEP, the last one ending at
        # x: no zero lies in the first cell, and at most one in each later one
        shift = self._trivial(0)
        a, fa = self._reach.get(0, (0.0, None))
        count = self._count.get(0, 0)
        while a < x:
            b = min(a + ORDER0_STEP, x)
            fb = kernels.evaluate(self._code, 0, b)
            if fa is not None and (fa < 0.0) != (fb < 0.0):
                self._scan.append((a, b, a - fa * (b - a) / (fb - fa)))
                count += 1
            a, fa = b, fb
        self._check_sign(0, a, fa, shift + count)
        self._reach[0] = (a, fa)
        self._count[0] = count

    def _find(self, order, k):
        # find the counted zeros up to rank k, one bracketed refinement each
        zs = self._zeros.setdefault(order, [])
        while len(zs) < k:
            j = len(zs)
            i = self._trivial(order) + j  # its place, counting the trivial zero
            lo, hi, guess = self._bracket(order, j)
            zero, residual, resume, x, f_up = kernels.next_zero(
                self._code, order, lo, hi, guess, _parity(i), self._resume.get(order),
            )
            if math.isnan(zero):
                raise AccuracyError(
                    f"{self.kind} order {order} zero #{j + 1}: not refined "
                    f"inside its bracket ({lo}, {hi})"
                )
            if residual > RESIDUAL_TOL:
                raise AccuracyError(
                    f"{self.kind} order {order} zero #{j + 1} in ({lo}, {hi}): "
                    f"residual {residual:.3e} exceeds {RESIDUAL_TOL}"
                )
            # interlacing puts i zeros of order + 1 below this one, so f of
            # order + 1 has the sign (-1)^i here; f_up, at the last iterate x,
            # has it too when |f_up| > |x - zero|, as slopes are at most 1
            if not abs(f_up) > abs(x - zero):
                f_up = kernels.evaluate(self._code, order + 1, zero)
            self._check_sign(order + 1, zero, f_up, i)
            zs.append(zero)
            self._resume[order] = resume

    def _node(self, order, i):
        # i-th zero of the order, counting the trivial zero at 0; None if unknown
        shift = self._trivial(order)
        if i < shift:
            return 0.0
        zs = self._zeros.get(order, [])
        return zs[i - shift] if i - shift < len(zs) else None

    def _bracket(self, m, j):
        # (lo, hi, first guess) of the j-th positive zero of order m: for
        # m = 0 from the scan; for m >= 1 between the j-th and (j+1)-th zeros
        # of m-1, and below the reach of m
        if m == 0:
            return self._scan[j]
        lo = self._node(m - 1, j)
        hi = self._node(m - 1, j + 1)
        reach = self._reach_x(m)
        hi = reach if hi is None else min(hi, reach)
        prev = self._node(m - 2, j) if m >= 2 else None
        prev2 = self._node(m - 3, j) if m >= 3 else None
        # extrapolate in the order from m-1, m-2 and m-3
        if prev2 is not None:
            guess = 3.0 * (lo - prev) + prev2
        elif prev is not None:
            guess = 2.0 * lo - prev
        else:
            guess = 0.5 * (lo + hi)
        return lo, hi, guess


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

