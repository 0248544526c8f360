"""Class-restricted extremal eigenvalue sequences over disjoint unions.

For a class of domains generated by unit-volume base shapes and closed under
scaled disjoint unions, the extremal n-th nonzero eigenvalue satisfies

    best[n]^(N/2) = opt( conn[n]^(N/2),
                         max/min over 1 <= j <= n/2 of best[j]^(N/2) + best[n-j]^(N/2) )

where conn[n] is the best connected candidate (the n-th nonzero eigenvalue of
a base shape) and N is the dimension.  The boundary condition sets the
objective: Neumann classes maximize, and the Dirichlet mirror minimizes with
the same additive combination.  The recursion stores sign * best[n]^(N/2),
with ``DomainClass.sign`` -1.0 to minimize: negation is exact in floating
point, so the split search and the margin rule only maximize, bit for bit.

The recursion also yields the optimal packing: a split at n into (i, n-i)
gives the two sides volumes (best[i]/best[n])^(N/2) and
(best[n-i]/best[n])^(N/2), which telescope down to the Connected leaves.

Every decision the layer makes goes through one margin rule, ``_beats``: new
beats old when sign * new exceeds sign * old by more than a relative
tolerance of max(|new|, |old|).  At each n the connected candidate is kept
if it beats the best split by REL_TIE_TOL, the split is kept if it beats the
candidate, and otherwise the two tie: the stored provenance is Connected
with the tie flag set.  Among equal splits the smallest left index wins.
The same rule at REL_TIE_TOL decides ``connectedness_certificate`` and at
REL_SCAN_TOL decides ``crossover_scan``.

The split search behind the recursion and the certificate, ``_best_split``,
returns exactly what a scan over every j would, but skips the blocks of j
that a superadditivity bound on the stored powers rules out.  The
certificate searches the signed powers an ``ExtremalSequence`` stores.
"""

import itertools
import math
import operator
from collections import namedtuple

from . import spectra
from ._kernels_py import check_integer
from .spectra import _power, _unpower, csv_text, spectrum_of

REL_TIE_TOL = 1e-12
REL_SCAN_TOL = 1e-9

# the split search sums powers in blocks of SPLIT_BLOCK consecutive left
# indices, and skips a block whose bound, widened by SPLIT_SLACK, cannot
# reach the best sum found first (see _best_split)
SPLIT_BLOCK = 16
SPLIT_SLACK = 1e-12


def _beats(new, old, tol):
    """True iff new exceeds old by more than tol relative to max(|new|, |old|);
    callers pass values times the objective's sign."""
    return new - old > tol * max(abs(new), abs(old))


class DomainClass(namedtuple("DomainClass", "name shape")):
    """Scaled disjoint unions of one unit-volume base shape (a DomainShape);
    its boundary condition sets the objective."""

    __slots__ = ()

    @property
    def dimension(self):
        return self.shape.dimension

    @property
    def sign(self):
        """+1.0 to maximize (Neumann), -1.0 to minimize (Dirichlet): the class
        maximizes sign * value."""
        return 1.0 if self.shape.bc == "neumann" else -1.0


def disks_class():
    return DomainClass("disks", spectra.disk("neumann"))


def squares_class():
    return DomainClass("squares", spectra.square("neumann"))


def balls_class():
    return DomainClass("balls", spectra.ball())


def cubes_class():
    return DomainClass("cubes", spectra.cube("neumann"))


def dirichlet_disks_class():
    return DomainClass("dirichlet-disks", spectra.disk("dirichlet"))


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


class ExtremalSequence(namedtuple(
    "ExtremalSequence", "domain_class K values powers connected split_indices provenance"
)):
    """best[n] for n = 1..K in one domain class, with provenance: tuples
    indexed by n (None at 0), powers[n] = sign * best[n]^(N/2)."""

    __slots__ = ()

    @property
    def dimension(self):
        return self.domain_class.dimension

    def _check_index(self, n):
        n = check_integer("n", n, 1)
        if n > self.K:
            raise IndexError(f"index {n} outside computed range 1..{self.K}")
        return n

    def value(self, n):
        return self.values[self._check_index(n)]

    def connected_value(self, n):
        return self.connected[self._check_index(n)]

    def split_value(self, n):
        """Best pure-split value at n (None for n = 1), from the stored split
        index and signed powers."""
        n = self._check_index(n)
        j = self.split_indices[n]
        if j is None:
            return None
        return _unpower(self.domain_class.sign * (self.powers[j] + self.powers[n - j]),
                        self.dimension)

    def decomposition(self, n):
        return self.provenance[self._check_index(n)]

    def leaf_counts(self, n, tie_as_split=False):
        """Multiset of Connected leaf indices under the stored provenance.

        With tie_as_split=True, tie nodes unroll through their equal-value
        split instead (the packing the split side of the tie denotes).
        """
        n = self._check_index(n)
        counts = {}
        # an explicit stack: a chain of splits can be n deep
        stack = [n]
        while stack:
            idx = stack.pop()
            dec = self.provenance[idx]
            if isinstance(dec, Connected) and not (dec.tie and tie_as_split):
                counts[idx] = counts.get(idx, 0) + 1
            else:
                i = self.split_indices[idx]  # a Split's own index, or a tie's split
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
        dec = self.provenance[n]
        if isinstance(dec, Connected) and dec.tie:
            text += ("=" if ascii_form else " = ") + _format_terms({n: 1}, ascii_form)
        return text

    def to_csv(self):
        """CSV export: n,value,provenance (full precision)."""
        return csv_text(
            ["n", "value", "provenance"],
            ([n, repr(self.values[n]), self.expression(n, ascii_form=True)]
             for n in range(1, self.K + 1)),
        )


def _format_terms(counts, ascii_form):
    parts = []
    for idx in sorted(counts, reverse=True):
        c = counts[idx]
        if ascii_form:
            parts.append(f"{c}*mu{idx}" if c > 1 else f"mu{idx}")
        else:
            parts.append(f"{c}μ_{idx}" if c > 1 else f"μ_{idx}")
    return ("+" if ascii_form else " + ").join(parts)


def _sums(powers, n, a, b):
    """powers[j] + powers[n - j] for a <= j <= b."""
    return list(map(operator.add, powers[a:b + 1], powers[n - a:n - b - 1:-1]))


def _best_split(powers, n):
    """max of powers[j] + powers[n - j] over 1 <= j <= n/2, and the smallest j
    that attains it: the exhaustive result, from a search that sums only the
    blocks of j a bound cannot rule out, each at most once.

    The bound.  A stored power dominates every split sum at its own index
    (powers[m] >= powers[i] + powers[m - i]), so with c = powers[1], the
    split (1, i) at i + 1 gives powers[i + 1] >= powers[i] + c.  Hence
    g(j) = powers[j] - c*j is nondecreasing, and every sum in a block
    a <= j <= b is at most powers[b] + powers[n - a] - (b - a)*c.  Below
    2*SPLIT_BLOCK there is no whole block and the one block is summed.
    Otherwise the best sum of the whole block with the best top is the seed.
    Then, in ascending order, every block whose top, widened by SPLIT_SLACK
    relative to |seed| + SPLIT_BLOCK*|c|, reaches seed + (b - a)*c is summed:
    the whole blocks of SPLIT_BLOCK indices, then the last partial block
    full + 1 <= j <= h.  The seed's block keeps the sums that made the seed.

    Why the slack is safe.  The premise holds up to the recursion's defect
    (3D stores _power(_unpower(s)), a few ulps off s; 2D stores s itself),
    which the tests keep below SPLIT_SLACK/1000 relative.  One bound chains
    at most 2*(SPLIT_BLOCK - 1) steps (the partial block's fewer), each off by that defect plus one
    rounding, on powers of one sign (extremal_sequence admits no others) that
    stay within |seed| + SPLIT_BLOCK*|c| wherever a top is near the
    threshold.  So a bound is off by under a tenth of the slack, and no
    block that can hold the best sum, the seed's own included, is skipped.
    """
    h = n // 2
    full = h - h % SPLIT_BLOCK  # j <= full lie in whole blocks
    if not full:
        sums = _sums(powers, n, 1, h)
        best = max(sums)
        return best, 1 + sums.index(best)
    starts = range(1, full + 1, SPLIT_BLOCK)
    tops = list(map(operator.add, powers[SPLIT_BLOCK:full + 1:SPLIT_BLOCK],
                    powers[n - 1:n - 1 - full:-SPLIT_BLOCK]))
    seed_a = starts[tops.index(max(tops))]
    seed_sums = _sums(powers, n, seed_a, seed_a + SPLIT_BLOCK - 1)
    seed = max(seed_sums)
    c = powers[1]
    slack = SPLIT_SLACK * (abs(seed) + SPLIT_BLOCK * abs(c))
    threshold = seed + (SPLIT_BLOCK - 1) * c - slack
    starts = itertools.compress(starts, map(operator.ge, tops, itertools.repeat(threshold)))
    if full < h and powers[h] + powers[n - full - 1] >= seed + (h - full - 1) * c - slack:
        starts = itertools.chain(starts, (full + 1,))
    best = None
    for a in starts:  # ascending, so the first block to attain best has the smallest j
        sums = seed_sums if a == seed_a else _sums(powers, n, a, min(a + SPLIT_BLOCK - 1, h))
        s = max(sums)
        if best is None or s > best:
            best, best_j = s, a + sums.index(s)
    return best, best_j


def extremal_sequence(domain_class, K, base_values=None):
    """Run the recursion up to index K.

    ``base_values`` overrides the connected candidates (the ascending nonzero
    eigenvalues of the base shape); by default they come from spectrum_of.
    """
    K = check_integer("K", K, 1)
    N = domain_class.dimension
    sign = domain_class.sign

    if base_values is None:
        base_values = spectrum_of(domain_class.shape, K).nonzero_values()
    if len(base_values) < K:
        raise ValueError(
            f"base spectrum for {domain_class.shape.kind} shorter than K={K}")
    conn = [None, *base_values[:K]]
    # the split search (see _best_split) needs powers of one sign, and every
    # power, split sum and bound it forms is at most 2*K times the largest
    if not (all(v > 0.0 for v in conn[1:]) and 4 * K * _power(max(conn[1:]), N) < math.inf):
        raise ValueError("base values must be positive, with 4*K times their largest power finite")

    values = [None] * (K + 1)
    powers = [None] * (K + 1)
    provenance = [None] * (K + 1)
    split_indices = [None] * (K + 1)

    values[1] = conn[1]
    powers[1] = sign * _power(conn[1], N)
    provenance[1] = Connected(1)

    for n in range(2, K + 1):
        best_s, best_i = _best_split(powers, n)
        split_v = _unpower(sign * best_s, N)
        split_indices[n] = best_i
        cv = conn[n]
        if _beats(sign * cv, sign * split_v, REL_TIE_TOL):
            values[n] = cv
            provenance[n] = Connected(n)
        elif _beats(sign * split_v, sign * cv, REL_TIE_TOL):
            values[n] = split_v
            provenance[n] = Split(best_i)
        else:
            values[n] = cv if sign * cv >= sign * split_v else split_v
            provenance[n] = Connected(n, tie=True)
        powers[n] = sign * _power(values[n], N)

    return ExtremalSequence(domain_class, K, tuple(values), tuple(powers), tuple(conn),
                            tuple(split_indices), tuple(provenance))


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

    Only the best split is tested, by the split search over the sequence's
    stored signed powers: the margin test is monotone in the split value, so
    the best split passes iff every split does."""
    n = check_integer("n", n, 1)
    if n == 1:
        return True
    if n - 1 > seq.K:
        raise IndexError(f"sequence must be complete to {n - 1}")
    s, _ = _best_split(seq.powers, n)
    return _beats(seq.domain_class.sign * _power(candidate_value, seq.dimension), s, REL_TIE_TOL)


def crossover_scan(seq_a, seq_b, K):
    """Indices n <= K where seq_b beats seq_a: ``_beats`` at REL_SCAN_TOL."""
    K = check_integer("K", K, 1)
    if seq_a.dimension != seq_b.dimension:
        raise ValueError("sequences must share dimension")
    if seq_a.domain_class.sign != seq_b.domain_class.sign:
        raise ValueError("sequences must share objective")
    if seq_a.K < K or seq_b.K < K:
        raise ValueError(f"both sequences must reach K={K}")
    sign = seq_a.domain_class.sign
    return [n for n in range(1, K + 1)
            if _beats(sign * seq_b.value(n), sign * seq_a.value(n), REL_SCAN_TOL)]


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
