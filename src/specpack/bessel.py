"""Bessel functions and cached tables of their positive zeros.

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

Zeros are found by scanning the function on a uniform grid of step 0.05
(starting at max(order/2, 0.01), below the first positive zero of every
tabulated kind) and bisecting each sign-change bracket to width 1e-12.
Consecutive zeros of all three kinds are separated by far more than the grid
step over the supported range, so no zero is skipped; the interlacing tests
double-check this.
"""

import math
from dataclasses import dataclass

from .backend import kernels

KINDS = ("bessel_prime", "bessel", "spherical_prime")

_KIND_CODE = {
    "bessel_prime": kernels.KIND_BESSEL_PRIME,
    "bessel": kernels.KIND_BESSEL,
    "spherical_prime": kernels.KIND_SPHERICAL_PRIME,
}

SCAN_STEP = 0.05
SCAN_LIMIT = 200.0
RESIDUAL_TOL = 1e-9


class AccuracyError(RuntimeError):
    """A computed zero fails the residual bound |f(zero)| <= 1e-9."""


class ZeroRangeError(RuntimeError):
    """A requested zero lies beyond the supported bracketing range."""


@dataclass(frozen=True)
class ZeroIndex:
    """(order, rank) address of a tabulated zero."""

    order: int
    rank: int

    def __post_init__(self):
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")


def _rank_offset(kind, order):
    # bessel_prime order 0: rank 1 is the trivial x=0 stationary point.
    return 1 if (kind == "bessel_prime" and order == 0) else 0


class ZeroTable:
    """Lazily grown cache of positive zeros for one kind.

    Construction is single-writer; once the needed zeros are in, lookups are
    pure reads and safe to share.
    """

    def __init__(self, kind):
        if kind not in KINDS:
            raise ValueError(f"unknown zero kind {kind!r}")
        self.kind = kind
        self._code = _KIND_CODE[kind]
        self._zeros = {}
        self._resume = {}

    def positive_zero(self, order, k):
        """The k-th strictly positive zero (k >= 1) for the given order."""
        if order < 0 or k < 1:
            raise ValueError(f"need order >= 0 and k >= 1, got ({order}, {k})")
        zs = self._zeros.setdefault(order, [])
        while len(zs) < k:
            start = self._resume.get(order, max(order * 0.5, 0.01))
            zero, resume = kernels.next_zero(
                self._code, order, start, SCAN_STEP, SCAN_LIMIT
            )
            if math.isnan(zero):
                raise ZeroRangeError(
                    f"{self.kind} order {order}: zero #{len(zs) + 1} not found "
                    f"below x = {SCAN_LIMIT}; requested rank is out of the "
                    f"supported bracketing range"
                )
            residual = abs(kernels_eval(self.kind, order, zero))
            if residual > RESIDUAL_TOL:
                raise AccuracyError(
                    f"{self.kind} order {order} zero at {zero}: residual "
                    f"{residual:.3e} exceeds {RESIDUAL_TOL}"
                )
            zs.append(zero)
            self._resume[order] = resume
        return zs[k - 1]

    def zero(self, idx):
        """Zero addressed by a ZeroIndex, honoring the rank convention."""
        off = _rank_offset(self.kind, idx.order)
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
            off = _rank_offset(self.kind, order)
            for i, z in enumerate(zs):
                out[ZeroIndex(order, i + 1 + off)] = z
        return out


def kernels_eval(kind, order, x):
    """Evaluate the function whose zeros the given kind tabulates."""
    code = _KIND_CODE[kind]
    if code == kernels.KIND_BESSEL_PRIME:
        return kernels.bessel_j_prime(order, x)
    if code == kernels.KIND_BESSEL:
        return kernels.bessel_j(order, x)
    return kernels.spherical_j_prime(order, x)


_TABLES = {kind: ZeroTable(kind) for kind in KINDS}


def default_table(kind):
    """Process-wide shared table for the given kind."""
    return _TABLES[kind]


def bessel_j(order, x):
    """Bessel function of the first kind J_order(x)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if not math.isfinite(x) or x < 0:
        raise ValueError("x must be finite and >= 0")
    return kernels.bessel_j(order, x)


def bessel_j_prime(order, x):
    """Derivative J'_order(x)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if not math.isfinite(x) or x < 0:
        raise ValueError("x must be finite and >= 0")
    return kernels.bessel_j_prime(order, x)


def spherical_bessel_j(order, x):
    """Spherical Bessel function j_order(x), x > 0."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if not (x > 0) or not math.isfinite(x):
        raise ValueError("x must be finite and > 0")
    return kernels.spherical_j(order, x)


def spherical_bessel_j_prime(order, x):
    """Derivative d/dx j_order(x), x > 0."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if not (x > 0) or not math.isfinite(x):
        raise ValueError("x must be finite and > 0")
    return kernels.spherical_j_prime(order, x)


def bessel_jprime_zero(idx):
    """Positive zero of J'_m addressed by idx (see rank convention above)."""
    return default_table("bessel_prime").zero(idx)


def bessel_j_zero(idx):
    """idx.rank-th positive zero of J_{idx.order}."""
    return default_table("bessel").zero(idx)


def spherical_jprime_zero(idx):
    """idx.rank-th positive zero of d/dx j_{idx.order}."""
    return default_table("spherical_prime").zero(idx)

