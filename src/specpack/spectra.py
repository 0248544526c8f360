"""Complete Neumann/Dirichlet spectra of canonical domains and of scaled
disjoint unions.  The disk and the ball have unit volume; a rectangle or box
keeps its own sides, so its volume is their product.

All spectra list nonzero eigenvalues only; the zero modes of a Neumann
spectrum are implicit in ``n_components`` (one constant mode per connected
component).  ``Spectrum.eigenvalue(i)`` recovers the conventional indexing:
for Neumann, mu_0 .. mu_{c-1} are 0 and mu_i for i >= c is the (i-c+1)-th
stored value; Dirichlet indexing starts at lambda_1 = first stored value.

Completeness: every generator enumerates all modes with eigenvalue below an
adaptive ceiling and only returns the first k once the k-th value sits
strictly inside the ceiling, so no eigenvalue below the last returned one can
be missing.  One order walk serves the disk and the ball: it takes every
zero below the ceiling's reach in x from the zero table
(``ZeroTable.entries_below``).  One lattice walk serves rectangles and
boxes.

The first ceiling inverts the two-term Weyl law (Ivrii 1980) for k modes,
volume V and boundary measure S (perimeter or surface area), + for Neumann
and - for Dirichlet,

    N(lam) ~ V lam / 4 pi +- S sqrt(lam) / 4 pi         (2D)
    N(lam) ~ V lam^(3/2) / 6 pi^2 +- S lam / 16 pi      (3D)

pads it by 2% and adds the same law's ceiling for 4 modes, a pad that scales
with the shape (so a long thin rectangle does not list every mode below a
fixed lam).  It only sets how much is enumerated: a ceiling that falls short
is raised by a factor 1.6 and the modes enumerated again.
"""

import io
import math
from collections import namedtuple
from operator import attrgetter

from . import bessel
from ._kernels_py import check_integer

PI = math.pi
BALL_RADIUS = (3.0 / (4.0 * PI)) ** (1.0 / 3.0)  # unit-volume ball

BOUNDARY_CONDITIONS = ("neumann", "dirichlet")


class DomainShape(namedtuple("DomainShape", "kind bc sides")):
    """A canonical domain: disk, rectangle(a, b), ball, or box(a1, a2, a3)."""

    __slots__ = ()

    def __new__(cls, kind, bc="neumann", sides=()):
        if bc not in BOUNDARY_CONDITIONS:
            raise ValueError(f"unknown boundary condition {bc!r}")
        if kind == "ball" and bc != "neumann":
            raise ValueError("the ball spectrum is Neumann-only")
        if kind in ("disk", "ball"):
            if sides:
                raise ValueError(f"{kind} takes no side lengths")
        elif kind == "rectangle":
            if len(sides) != 2 or not all(0 < s < math.inf for s in sides):
                raise ValueError("rectangle needs two positive sides")
        elif kind == "box":
            if len(sides) != 3 or not all(0 < s < math.inf for s in sides):
                raise ValueError("box needs three positive sides")
        else:
            raise ValueError(f"unknown shape kind {kind!r}")
        shape = super().__new__(cls, kind, bc, sides)
        # sides of 1e-200 or 1e200 multiply to 0.0 or inf
        if not (0.0 < shape.volume < math.inf and 0.0 < shape.boundary < math.inf):
            raise ValueError(f"{kind} needs a positive finite volume and boundary")
        return shape

    @property
    def dimension(self):
        return 2 if self.kind in ("disk", "rectangle") else 3

    @property
    def volume(self):
        if self.kind in ("disk", "ball"):
            return 1.0
        return math.prod(self.sides)

    @property
    def boundary(self):
        """Perimeter (2D) or surface area (3D)."""
        if self.kind == "disk":
            return 2.0 * math.sqrt(PI)  # unit area: radius 1/sqrt(pi)
        if self.kind == "ball":
            return 4.0 * PI * BALL_RADIUS**2
        if self.kind == "rectangle":
            return 2.0 * sum(self.sides)
        a1, a2, a3 = self.sides
        return 2.0 * (a1 * a2 + a1 * a3 + a2 * a3)

    def describe(self):
        if self.kind == "rectangle":
            return f"rectangle {self.sides[0]:.6g}x{self.sides[1]:.6g}"
        if self.kind == "box":
            return "box " + "x".join(f"{s:.6g}" for s in self.sides)
        return self.kind


def disk(bc="neumann"):
    return DomainShape("disk", bc)


def rectangle(a, b, bc="neumann"):
    return DomainShape("rectangle", bc, (float(a), float(b)))


def square(bc="neumann"):
    return rectangle(1.0, 1.0, bc)


def ball(bc="neumann"):
    return DomainShape("ball", bc)


def box(a1, a2, a3, bc="neumann"):
    return DomainShape("box", bc, (float(a1), float(a2), float(a3)))


def cube(bc="neumann"):
    return box(1.0, 1.0, 1.0, bc)


Mode = namedtuple("Mode", "label value multiplicity", defaults=(1,))
Mode.__doc__ = "One eigenvalue with its quantum-number label and multiplicity."


def _sort_modes(modes):
    # ascending values, equal values ordered by descending-lexicographic label
    # (matches the classical tabulation order, e.g. (1,0) before (0,1) on the
    # square): two stable sorts with C-level keys, the second by value
    modes.sort(key=attrgetter("label"), reverse=True)
    modes.sort(key=attrgetter("value"))
    return modes


class Spectrum(
    namedtuple("Spectrum", "bc dimension volume n_components modes count")
):
    """Ascending nonzero eigenvalues of a domain (or disjoint union)."""

    __slots__ = ()

    @property
    def expanded(self):
        """(value, label) per eigenvalue, multiplicities written out: a new
        list, built from ``modes``, on each read."""
        out = []
        for m in self.modes:
            out.extend([(m.value, m.label)] * m.multiplicity)
        return out

    def nonzero_values(self, k=None):
        """The first k >= 0 (default: count) nonzero eigenvalues, read from
        ``modes`` only as far as they reach; IndexError past what the
        spectrum holds."""
        k = self.count if k is None else check_integer("k", k, 0)
        out = []
        for m in self.modes:
            if len(out) >= k:
                break
            out += [m.value] * m.multiplicity
        if len(out) < k:
            raise IndexError(
                f"spectrum holds {len(out)} nonzero eigenvalues, asked for {k}"
            )
        del out[k:]
        return out

    def nonzero(self, i):
        """The i-th nonzero eigenvalue, i >= 1."""
        return self.nonzero_values(check_integer("i", i, 1))[-1]

    def eigenvalue(self, i):
        """mu_i (Neumann: i >= 0, a zero for each component first) or
        lambda_i (Dirichlet: i >= 1, the i-th nonzero eigenvalue)."""
        if self.bc != "neumann":
            return self.nonzero(i)
        i = check_integer("i", i, 0)
        if i < self.n_components:
            return 0.0
        return self.nonzero(i - self.n_components + 1)

    def rescaled(self, volume):
        """Same domain scaled to the given total volume; ValueError where an
        eigenvalue would leave the positive finite floats."""
        if not 0 < volume < math.inf:
            raise ValueError("volume must be positive and finite")
        factor = _unpower(self.volume / volume, self.dimension)
        modes = tuple(
            Mode(m.label, m.value * factor, m.multiplicity) for m in self.modes
        )
        if not all(0.0 < m.value < math.inf for m in modes):
            raise ValueError(
                f"rescaled to volume {volume!r} an eigenvalue is not a positive finite float"
            )
        return self._replace(volume=volume, modes=modes)

    def to_csv(self):
        """CSV export: index,value,multiplicity,label (10 significant digits)."""
        rows = []
        index = 1
        for m in self.modes:
            rows.append(
                [index, f"{m.value:.10g}", m.multiplicity, ",".join(map(str, m.label))]
            )
            index += m.multiplicity
        return csv_text(["index", "value", "multiplicity", "label"], rows)


def csv_text(header, rows):
    """The CSV text of a header and rows, each line ended by a newline: the
    one dialect of every CSV export."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _power(value, dimension):
    # eigenvalue -> volume-like quantity: value^(N/2)
    if dimension == 2:
        return value
    return value * math.sqrt(value)


def _unpower(s, dimension):
    # inverse of _power: s^(2/N)
    if dimension == 2:
        return s
    return s ** (2.0 / 3.0)


def _prefix(modes, k):
    """The shortest prefix of ascending modes that holds k eigenvalues, or
    None if all of them hold fewer."""
    total = 0
    for i, m in enumerate(modes):
        total += m.multiplicity
        if total >= k:
            return modes[:i + 1]
    return None


def _adaptive_modes(enumerate_below, k, lam0):
    """The first k modes, from an adaptive ceiling that is raised until the
    k-th lies strictly below it."""
    lam = lam0
    for _ in range(200):
        head = _prefix(_sort_modes(enumerate_below(lam)), k)
        if head is not None and head[-1].value <= lam * (1.0 - 1e-9):
            return head
        lam *= 1.6
    raise RuntimeError("eigenvalue ceiling failed to converge")


# two-term Weyl law (module docstring): about V * lam^(N/2) / _WEYL[N]
# +- S * lam^((N-1)/2) / _WEYL_BOUNDARY[N] eigenvalues lie below lam
_WEYL = {2: 4.0 * PI, 3: 6.0 * PI**2}
_WEYL_BOUNDARY = {2: 4.0 * PI, 3: 16.0 * PI}


def _weyl_ceiling(shape, k):
    # the lam at which the two-term law counts k: Newton in s = sqrt(lam) on
    # a s^N + b s^(N-1) - k, from a start above its root, where it is convex
    dim = shape.dimension
    a = shape.volume / _WEYL[dim]
    b = shape.boundary / _WEYL_BOUNDARY[dim]
    if shape.bc == "dirichlet":
        b = -b
    s = (k / a) ** (1.0 / dim) + abs(b) / a
    if b > 0:
        # b s^(N-1) alone reaches k here, so this s is above the root too; on
        # a long thin shape the first start lies orders of magnitude above
        # the root, and Newton from there rounds s to 0
        s = min(s, (k / b) ** (1.0 / (dim - 1)))
    for _ in range(100):
        step = (a * s + b - k / s ** (dim - 1)) / (dim * a + (dim - 1) * b / s)
        s -= step
        if step <= 1e-12 * s:
            break
    return s * s


def _spectrum(shape, k, enumerate_below):
    """Spectrum of the first k modes that enumerate_below(lam) lists for shape,
    starting from a padded two-term Weyl ceiling."""
    k = check_integer("k", k, 1)
    try:
        lam0 = _weyl_ceiling(shape, k) * 1.02 + _weyl_ceiling(shape, 4)
    except (ZeroDivisionError, OverflowError):
        lam0 = math.nan
    # on a 1e200 x 1e-200 rectangle the first eigenvalue, about 1e-399,
    # and so the ceiling, rounds to 0.0
    if not 0.0 < lam0 < math.inf:
        raise ValueError(
            f"{shape.describe()}: the first eigenvalue ceiling for {k} modes "
            f"is not a positive finite float"
        )
    modes = _adaptive_modes(enumerate_below, k, lam0)
    return Spectrum(shape.bc, shape.dimension, shape.volume, 1, tuple(modes), k)


def _order_walk(kind, reach, mode):
    """enumerate_below for a Bessel spectrum: mode(order, rank, zero) for
    every zero of the kind's table below reach(lam), ranked by the table's
    rank convention."""
    table = bessel.default_table(kind)
    return lambda lam: [
        mode(idx.order, idx.rank, z) for idx, z in table.entries_below(reach(lam)).items()
    ]


def disk_spectrum(bc, k):
    """First k nonzero eigenvalues of the unit-area disk."""
    shape = disk(bc)
    walk = _order_walk(
        "bessel_prime" if bc == "neumann" else "bessel",
        lambda lam: math.sqrt(lam / PI),
        lambda m, q, z: Mode((m, q), PI * z * z, 1 if m == 0 else 2),
    )
    return _spectrum(shape, k, walk)


def ball_spectrum(bc, k):
    """First k nonzero Neumann eigenvalues of the unit-volume ball."""
    shape = ball(bc)
    walk = _order_walk(
        "spherical_prime",
        lambda lam: math.sqrt(lam) * BALL_RADIUS,
        lambda p, q, z: Mode((p, q), (z / BALL_RADIUS) ** 2, 2 * p + 1),
    )
    return _spectrum(shape, k, walk)


def _lattice_walk(shape, k):
    """enumerate_below for the first k modes of a rectangle or box with
    sides s_i: the modes pi^2 * sum (c_i / s_i)^2 <= lam over integers
    0 <= c_i <= k (Neumann, less the constant mode) or 1 <= c_i <= k
    (Dirichlet).

    The cap is exact: the exact values strictly increase along an axis
    line, so a mode with c_i > k lies above the k + 1 (Neumann) or k
    (Dirichlet) modes of its line with c_i <= k, at most one of them the
    constant mode, and is not among the first k; nor is any extension of a
    prefix past the cap.  It keeps a needle's walk short: the first
    ceiling of the 1e-105 x 1e-105 x 1 box would run its unit axis to about
    1e53 values."""
    lo = 0 if shape.bc == "neumann" else 1

    def below(lam):
        # extend index prefixes one axis at a time, each carrying its sum of
        # (c/s)^2 and the budget lam - pi^2 * (that sum) left for the rest
        prefixes = [((), 0.0, lam)]
        for s in shape.sides:
            grown = []
            for label, q, rem in prefixes:
                for c in range(lo, min(int(s * math.sqrt(rem) / PI) + 1, k + 1)):
                    # the range's end may round up past the last c that
                    # fits, and the next axis would take sqrt(left < 0)
                    left = rem - (PI * c / s) ** 2
                    if left >= 0:
                        grown.append((label + (c,), q + (c / s) ** 2, left))
            prefixes = grown
        modes = [Mode(label, PI * PI * q, 1) for label, q, _ in prefixes]
        if lo == 0:
            del modes[0]  # the constant mode: all indices 0, first in walk order
        return modes

    return below


def rectangle_spectrum(a, b, bc, k):
    """First k nonzero eigenvalues of an a-by-b rectangle."""
    shape = rectangle(a, b, bc)
    return _spectrum(shape, k, _lattice_walk(shape, k))


def box_spectrum(a1, a2, a3, bc, k):
    """First k nonzero eigenvalues of an a1-by-a2-by-a3 box."""
    shape = box(a1, a2, a3, bc)
    return _spectrum(shape, k, _lattice_walk(shape, k))


def spectrum_of(shape, k):
    """Spectrum of a canonical shape at its own volume (``shape.volume``):
    1 for the disk and the ball, the product of the sides otherwise."""
    if shape.kind == "disk":
        return disk_spectrum(shape.bc, k)
    if shape.kind == "rectangle":
        return rectangle_spectrum(*shape.sides, shape.bc, k)
    if shape.kind == "ball":
        return ball_spectrum(shape.bc, k)
    return box_spectrum(*shape.sides, shape.bc, k)


def union_spectrum(parts, k):
    """Spectrum of a disjoint union of rescaled parts.

    ``parts`` is a list of (Spectrum, volume) pairs; each part's spectrum is
    rescaled from its own volume to the given one and the nonzero values are
    merged in ascending order.  Every part must carry at least k nonzero
    eigenvalues so the merged prefix is complete.
    """
    k = check_integer("k", k, 1)
    if not parts:
        raise ValueError("parts must be nonempty")
    bc = parts[0][0].bc
    dim = parts[0][0].dimension
    merged = []
    for spec, vol in parts:
        if spec.bc != bc:
            raise ValueError("cannot mix boundary conditions in a union")
        if spec.dimension != dim:
            raise ValueError("cannot mix dimensions in a union")
        if spec.count < k:
            raise ValueError(
                f"part spectra must carry at least {k} eigenvalues (got {spec.count})"
            )
        merged += _prefix(spec.rescaled(vol).modes, k)
    _sort_modes(merged)
    return Spectrum(
        bc=bc,
        dimension=dim,
        volume=sum(vol for _, vol in parts),
        n_components=sum(spec.n_components for spec, _ in parts),
        modes=tuple(_prefix(merged, k)),
        count=k,
    )
