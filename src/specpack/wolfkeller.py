"""Class-restricted extremal eigenvalue sequences over disjoint unions.

For a class of domains generated by unit-volume base shapes and closed under
scaled disjoint unions, the extremal n-th nonzero eigenvalue satisfies

    best[n]^(N/2) = opt( conn[n]^(N/2),
                         max/min over 1 <= j <= n/2 of best[j]^(N/2) + best[n-j]^(N/2) )

where conn[n] is the best connected candidate (the n-th nonzero eigenvalue of
a base shape) and N is the dimension.  Maximization is the Neumann problem;
the Dirichlet mirror minimizes with the same additive combination.

The recursion also yields the optimal packing: a split at n into (i, n-i)
gives the two sides volumes (best[i]/best[n])^(N/2) and
(best[n-i]/best[n])^(N/2), which telescope down to the Connected leaves.

Every decision the layer makes goes through one margin rule, ``_beats``: new
beats old when it is better under the objective by more than a relative
tolerance of max(|new|, |old|).  At each n the connected candidate is kept
if it beats the best split by REL_TIE_TOL, the split is kept if it beats the
candidate, and otherwise the two tie: the stored provenance is Connected
with the tie flag set.  Among equal splits the smallest left index wins.
The same rule at REL_TIE_TOL decides ``connectedness_certificate`` and at
REL_SCAN_TOL decides ``crossover_scan``.

The split search behind the recursion and the certificate, ``_best_split``,
returns exactly what a scan over every j would, but skips the blocks of j
that a superadditivity bound on the stored powers rules out.
"""

import csv
import io
import itertools
import math
import operator
from collections import namedtuple

from . import spectra
from .spectra import _power, _unpower, spectrum_of

REL_TIE_TOL = 1e-12
REL_SCAN_TOL = 1e-9

# the split search sums powers in blocks of SPLIT_BLOCK consecutive left
# indices, and skips a block whose bound, widened by SPLIT_SLACK, cannot
# reach the best sum found first (see _best_split)
SPLIT_BLOCK = 16
SPLIT_SLACK = 1e-12

# the better of two values under each objective
_PICK = {"maximize": max, "minimize": min}

# per pick: when a block's top reaches the threshold, and the side of the
# threshold the slack widens toward
_REACHES = {max: (operator.ge, -1.0), min: (operator.le, 1.0)}


def _beats(pick, new, old, tol):
    """True iff new is better than old under pick (max or min) by more than
    tol relative to max(|new|, |old|)."""
    return pick(new, old) != old and abs(new - old) > tol * max(abs(new), abs(old))


class DomainClass(namedtuple("DomainClass", "name shape objective")):
    """Scaled disjoint unions of one unit-volume base shape (a DomainShape),
    with the objective: "maximize" (Neumann) or "minimize" (Dirichlet)."""

    __slots__ = ()

    def __new__(cls, name, shape, objective):
        if objective not in _PICK:
            raise ValueError(f"unknown objective {objective!r}")
        return super().__new__(cls, name, shape, objective)

    @property
    def dimension(self):
        return self.shape.dimension

    @property
    def pick(self):
        """max or min: the better of two values under the objective."""
        return _PICK[self.objective]


def disks_class():
    return DomainClass("disks", spectra.disk("neumann"), "maximize")


def squares_class():
    return DomainClass("squares", spectra.square("neumann"), "maximize")


def balls_class():
    return DomainClass("balls", spectra.ball(), "maximize")


def cubes_class():
    return DomainClass("cubes", spectra.cube("neumann"), "maximize")


def dirichlet_disks_class():
    return DomainClass("dirichlet-disks", spectra.disk("dirichlet"), "minimize")


class Connected(namedtuple("Connected", "index tie", defaults=(False,))):
    """Leaf: the index-th nonzero eigenvalue of the class's base shape."""

    __slots__ = ()


class Split(namedtuple("Split", "i")):
    """Union of the optimal packings for indices i and j = n - i."""

    __slots__ = ()


class PackedComponent(
    namedtuple("PackedComponent", "shape volume support_index", defaults=(None,))
):
    """A DomainShape scaled to the volume; support_index is the eigenvalue
    index this component realizes."""

    __slots__ = ()


class PackedDomain(namedtuple("PackedDomain", "components")):
    """Scaled canonical components with volumes summing to the total."""

    __slots__ = ()

    @property
    def total_volume(self):
        return math.fsum(c.volume for c in self.components)


class ExtremalSequence:
    """best[n] for n = 1..K in one domain class, with provenance."""

    def __init__(self, domain_class, K, values, provenance, connected_values,
                 split_values, split_indices):
        self.domain_class = domain_class
        self.K = K
        self._values = values
        self._provenance = provenance
        self._connected = connected_values
        self._split_values = split_values
        self._split_indices = split_indices

    @property
    def dimension(self):
        return self.domain_class.dimension

    @property
    def objective(self):
        return self.domain_class.objective

    def _check_index(self, n):
        if not 1 <= n <= self.K:
            raise IndexError(f"index {n} outside computed range 1..{self.K}")

    def value(self, n):
        self._check_index(n)
        return self._values[n]

    def connected_value(self, n):
        self._check_index(n)
        return self._connected[n]

    def split_value(self, n):
        """Best pure-split value at n (None for n = 1)."""
        self._check_index(n)
        return self._split_values[n]

    def decomposition(self, n):
        self._check_index(n)
        return self._provenance[n]

    def leaf_counts(self, n, tie_as_split=False):
        """Multiset of Connected leaf indices under the stored provenance.

        With tie_as_split=True, tie nodes unroll through their equal-value
        split instead (the packing the split side of the tie denotes).
        """
        self._check_index(n)
        counts = {}
        # an explicit stack: a chain of splits can be n deep
        stack = [n]
        while stack:
            idx = stack.pop()
            dec = self._provenance[idx]
            if isinstance(dec, Connected) and not (dec.tie and tie_as_split):
                counts[idx] = counts.get(idx, 0) + 1
            else:
                i = self._split_indices[idx]  # a Split's own index, or a tie's split
                stack += (i, idx - i)
        return counts

    def expression(self, n, ascii_form=False):
        """Provenance as `2*mu8+6*mu1` (ascii) or `2μ_8 + 6μ_1`.

        Split expressions unroll tie nodes through their split side (so a
        split over an index whose connected value merely ties a pure union
        reads as the union, e.g. `5μ_1` rather than `μ_4 + μ_1`); a tie at n
        itself renders both sides, e.g. `9μ_1 = μ_9`.
        """
        text = _format_terms(self.leaf_counts(n, tie_as_split=True), ascii_form)
        dec = self._provenance[n]
        if isinstance(dec, Connected) and dec.tie:
            text += ("=" if ascii_form else " = ") + _format_terms({n: 1}, ascii_form)
        return text

    def to_csv(self):
        """CSV export: n,value,provenance (full precision)."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "value", "provenance"])
        for n in range(1, self.K + 1):
            writer.writerow([n, repr(self._values[n]), self.expression(n, ascii_form=True)])
        return buf.getvalue()


def _format_terms(counts, ascii_form):
    parts = []
    for idx in sorted(counts, reverse=True):
        c = counts[idx]
        if ascii_form:
            parts.append(f"{c}*mu{idx}" if c > 1 else f"mu{idx}")
        else:
            parts.append(f"{c}μ_{idx}" if c > 1 else f"μ_{idx}")
    return ("+" if ascii_form else " + ").join(parts)


def _block_best(powers, n, pick, a, b):
    """pick of powers[j] + powers[n - j] over a <= j <= b, and the smallest j
    that attains it."""
    sums = list(map(operator.add, powers[a:b + 1], powers[n - a:n - b - 1:-1]))
    best = pick(sums)
    return best, a + sums.index(best)


def _best_split(powers, n, pick):
    """pick (max or min) of powers[j] + powers[n - j] over 1 <= j <= n/2, and
    the smallest j that attains it: the exhaustive result, from a search that
    sums only the blocks of j a bound cannot rule out.

    The bound.  A stored power dominates every split sum at its own index
    (powers[m] >= powers[i] + powers[m - i] when maximizing, <= when
    minimizing), so with c = powers[1], the split (1, i) at i + 1 gives
    powers[i + 1] >= powers[i] + c.  Hence g(j) = powers[j] - c*j is
    monotone, and every sum in a block a <= j <= b is at most (when
    minimizing: at least) powers[b] + powers[n - a] - (b - a)*c.  The best
    sum of the whole block with the best top is the seed.  Then, in
    ascending order, every whole block whose top, widened by SPLIT_SLACK
    relative to |seed| + SPLIT_BLOCK*|c|, reaches seed + (SPLIT_BLOCK - 1)*c
    is summed, and the last partial block always is.

    Why the slack is safe.  The premise holds up to the recursion's defect
    (3D stores _power(_unpower(s)), a few ulps off s; 2D stores s itself),
    which the tests keep below SPLIT_SLACK/1000 relative.  One bound chains
    at most 2*(SPLIT_BLOCK - 1) steps, each off by that defect plus one
    rounding, on positive powers (extremal_sequence admits no others) that
    stay within |seed| + SPLIT_BLOCK*|c| wherever a top is near the
    threshold.  So a bound is off by under a tenth of the slack, and no
    block that can hold the best sum, the seed's own included, is skipped.
    """
    h = n // 2
    full = h - h % SPLIT_BLOCK  # j <= full lie in whole blocks
    starts = range(1, full + 1, SPLIT_BLOCK)
    if full:
        tops = list(map(operator.add, powers[SPLIT_BLOCK:full + 1:SPLIT_BLOCK],
                        powers[n - 1:n - 1 - full:-SPLIT_BLOCK]))
        a = starts[tops.index(pick(tops))]
        seed, _ = _block_best(powers, n, pick, a, a + SPLIT_BLOCK - 1)
        c = powers[1]
        reaches, sign = _REACHES[pick]
        slack = SPLIT_SLACK * (abs(seed) + SPLIT_BLOCK * abs(c))
        threshold = seed + (SPLIT_BLOCK - 1) * c + sign * slack
        starts = itertools.compress(starts, map(reaches, tops, itertools.repeat(threshold)))
    if full < h:
        starts = itertools.chain(starts, (full + 1,))
    best = None
    for a in starts:  # ascending, so the first block to attain best has the smallest j
        s, j = _block_best(powers, n, pick, a, min(a + SPLIT_BLOCK - 1, h))
        if best is None or pick(s, best) != best:
            best, best_j = s, j
    return best, best_j


def extremal_sequence(domain_class, K, base_values=None):
    """Run the recursion up to index K.

    ``base_values`` overrides the connected candidates (the ascending nonzero
    eigenvalues of the base shape); by default they come from spectrum_of.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    N = domain_class.dimension
    pick = domain_class.pick

    if base_values is None:
        base_values = spectrum_of(domain_class.shape, K).nonzero_values()
    if len(base_values) < K:
        raise ValueError(
            f"base spectrum for {domain_class.shape.kind} shorter than K={K}")
    conn = [None, *base_values[:K]]
    # the split search (see _best_split) needs positive powers, and every
    # power, split sum and bound it forms is at most 2*K times the largest
    if not (all(v > 0.0 for v in conn[1:]) and 4 * K * _power(max(conn[1:]), N) < math.inf):
        raise ValueError("base values must be positive, with 4*K times their largest power finite")

    values = [math.nan] * (K + 1)
    powers = [math.nan] * (K + 1)
    provenance = [None] * (K + 1)
    split_values = [None] * (K + 1)
    split_indices = [None] * (K + 1)

    values[1] = conn[1]
    powers[1] = _power(conn[1], N)
    provenance[1] = Connected(1)

    for n in range(2, K + 1):
        best_s, best_i = _best_split(powers, n, pick)
        split_v = _unpower(best_s, N)
        split_values[n] = split_v
        split_indices[n] = best_i
        cv = conn[n]
        if _beats(pick, cv, split_v, REL_TIE_TOL):
            values[n] = cv
            provenance[n] = Connected(n)
        elif _beats(pick, split_v, cv, REL_TIE_TOL):
            values[n] = split_v
            provenance[n] = Split(best_i)
        else:
            values[n] = pick(cv, split_v)
            provenance[n] = Connected(n, tie=True)
        powers[n] = _power(values[n], N)

    return ExtremalSequence(
        domain_class, K, values, provenance, conn, split_values, split_indices
    )


def unpack_geometry(seq, n):
    """Unroll the provenance at n into scaled components of total volume 1."""
    N = seq.dimension
    vn = seq.value(n)
    shape = seq.domain_class.shape
    components = []
    for idx, count in seq.leaf_counts(n).items():
        ratio = seq.value(idx) / vn
        components.extend([PackedComponent(shape, _power(ratio, N), idx)] * count)
    components.sort(key=lambda c: (-c.volume, -c.support_index))
    return PackedDomain(tuple(components))


def connectedness_certificate(candidate_value, seq, n):
    """True iff candidate_value beats every split, so the class optimum at n
    must be connected: ``_beats`` at REL_TIE_TOL, on the powered values.

    Only the best split is tested: the margin test is monotone in the split
    value, so the best split passes iff every split does."""
    if n < 2:
        return True
    if n - 1 > seq.K:
        raise IndexError(f"sequence must be complete to {n - 1}")
    N = seq.dimension
    pick = seq.domain_class.pick
    powers = [None] + [_power(seq.value(i), N) for i in range(1, n)]
    s, _ = _best_split(powers, n, pick)
    return _beats(pick, _power(candidate_value, N), s, REL_TIE_TOL)


def crossover_scan(seq_a, seq_b, K):
    """Indices n <= K where seq_b beats seq_a: ``_beats`` at REL_SCAN_TOL."""
    if seq_a.dimension != seq_b.dimension:
        raise ValueError("sequences must share dimension")
    if seq_a.objective != seq_b.objective:
        raise ValueError("sequences must share objective")
    if seq_a.K < K or seq_b.K < K:
        raise ValueError(f"both sequences must reach K={K}")
    pick = seq_a.domain_class.pick
    return [n for n in range(1, K + 1)
            if _beats(pick, seq_b.value(n), seq_a.value(n), REL_SCAN_TOL)]


class DirichletCheck(
    namedtuple("DirichletCheck", "square_value disks_value disks_exceed_square")
):
    __slots__ = ()


def dirichlet_min_check():
    """Compare lambda_13 of the unit square against the minimizing sequence
    over disjoint unions of disks."""
    square_13 = spectra.rectangle_spectrum(1.0, 1.0, "dirichlet", 13).nonzero(13)
    seq = extremal_sequence(dirichlet_disks_class(), 13)
    disks_13 = seq.value(13)
    return DirichletCheck(square_13, disks_13, disks_13 > square_13), seq
