"""Class-restricted extremal eigenvalue sequences over disjoint unions.

For a class of domains generated by unit-volume base shapes and closed under
scaled disjoint unions, the extremal n-th nonzero eigenvalue satisfies

    best[n]^(N/2) = opt( conn[n]^(N/2),
                         max/min over 1 <= j <= n/2 of best[j]^(N/2) + best[n-j]^(N/2) )

where conn[n] is the best connected candidate (the n-th nonzero eigenvalue of
a base shape) and N is the dimension.  The boundary condition sets the
objective: Neumann classes maximize, and the Dirichlet mirror minimizes with
the same additive combination.  The recursion works in signed powers,
sign * best[n]^(N/2), with ``DomainClass.sign`` -1.0 to minimize: negation
is exact in floating point, so the split search and the margin rule only
maximize, bit for bit.  It stores the power it decided on, the connected
candidate's or the split's float sum itself, and best[n] is that power's
eigenvalue.

The recursion also yields the optimal packing: a leaf at index i in the
union at n has the volume best[i]^(N/2) / best[n]^(N/2), the ratio of the
stored powers, and the Connected leaves telescope down from n.

Every decision the layer makes goes through one margin rule, ``_margin``:
on signed powers or values it is 1 when new exceeds old by more than a
relative tolerance of max(|new|, |old|), -1 when old exceeds new so,
else 0.  At each n one call at REL_TIE_TOL, on the connected candidate's
power against the best split sum, keeps the connected candidate (1), the
best split (-1), or stores Connected with the tie flag set (0).  Among equal
splits the smallest left index wins (equal as float sums, see
``extremal_sequence``).  The same rule at REL_TIE_TOL decides
``connectedness_certificate`` and at REL_SCAN_TOL decides ``crossover_scan``.

The split search runs in the recursion's loop: it returns exactly what a
scan over every j would, but sums only the blocks of j that a
superadditivity bound on the stored powers cannot rule out, and a ruled-out
block sleeps across n, in a ring of 2*SPLIT_BLOCK + 1 lists, until its bound
can reach the best split again (the proof is in ``extremal_sequence``).
``_block_max`` reduces a block's sums to their maximum without a list; the
certificate takes it over every split of the stored powers.
"""

import math
from bisect import bisect_left
from collections import namedtuple
from operator import add

from . import spectra
from ._kernels_py import check_integer
from .spectra import _power, _unpower, csv_text, spectrum_of

REL_TIE_TOL = 1e-12
REL_SCAN_TOL = 1e-9

# the split search sums blocks of SPLIT_BLOCK left indices and skips a block
# whose bound, widened by SPLIT_SLACK, cannot reach the best sum found first
SPLIT_BLOCK = 16
SPLIT_SLACK = 1e-12


def _margin(new, old, tol):
    """On signed values: 1 if new exceeds old by more than tol relative to
    max(|new|, |old|), -1 if old exceeds new so, else 0 (a tie)."""
    d = new - old
    m = tol * max(abs(new), abs(old))
    return 1 if d > m else -1 if d < -m else 0


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


Connected = namedtuple("Connected", "index tie", defaults=(False,))
Connected.__doc__ = "Leaf: the index-th nonzero eigenvalue of the class's base shape."

Split = namedtuple("Split", "i")
Split.__doc__ = "Union of the optimal packings for indices i and j = n - i."

PackedComponent = namedtuple("PackedComponent", "shape volume support_index", defaults=(None,))
PackedComponent.__doc__ = """A DomainShape scaled to the volume; support_index is the
eigenvalue index this component realizes."""


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
    indexed by n (None at 0).  powers[n] is the signed power the recursion
    summed and stored, sign * conn[n]^(N/2) or a split's float sum, and
    values[n] its eigenvalue."""

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

    def expression(self, n):
        """Provenance as `2μ_8 + 6μ_1`; ``ascii_expression`` gives its CSV form.

        Split expressions unroll tie nodes through their split side (so a
        split over an index whose connected value merely ties a pure union
        reads as the union, e.g. `5μ_1` rather than `μ_4 + μ_1`); a tie at n
        itself renders both sides, e.g. `9μ_1 = μ_9`.
        """
        counts = self.leaf_counts(n, tie_as_split=True)
        text = " + ".join(f"{c}μ_{idx}" if c > 1 else f"μ_{idx}"
                          for idx, c in sorted(counts.items(), reverse=True))
        dec = self.provenance[n]
        if isinstance(dec, Connected) and dec.tie:
            text += f" = μ_{n}"
        return text

    def to_csv(self):
        """CSV export: n,value,provenance, each value at full precision and
        each provenance in ASCII (`2mu8+6mu1`, a tie `9mu1=mu9`)."""
        return csv_text(
            ["n", "value", "provenance"],
            ([n, repr(self.values[n]), ascii_expression(self.expression(n))]
             for n in range(1, self.K + 1)),
        )


def ascii_expression(text):
    """An ``expression`` in the one ASCII form every CSV writes: `2μ_8 + 6μ_1`
    as `2mu8+6mu1`, and `9μ_1 = μ_9` as `9mu1=mu9`."""
    return text.replace("μ_", "mu").replace(" ", "")


def _block_max(powers, n, a, b):
    """The largest powers[j] + powers[n - j] over a <= j <= b."""
    return max(map(add, powers[a:b + 1], powers[n - a:n - b - 1:-1]))


def _first(powers, n, a, s):
    """The smallest j >= a with powers[j] + powers[n - j] == s."""
    while powers[a] + powers[n - a] != s:
        a += 1
    return a


def extremal_sequence(domain_class, K, base_values=None):
    """Run the recursion up to index K.

    ``base_values`` overrides the connected candidates (the ascending nonzero
    eigenvalues of the base shape); by default they come from spectrum_of.

    The split search at each n returns the max of powers[j] + powers[n - j]
    over 1 <= j <= h = n/2 and the smallest j attaining it, as a scan over
    every j would, but sums only the blocks of j a bound cannot rule out.
    A summed block gives only its maximum (``_block_max``), and j is looked
    up only in the seed's block and a block whose maximum wins.  Equal means
    equal float sums: squares' exact ties (pi^2 times integers) round apart,
    so at K = 3000 491 of the 2999 squares split indices are not the
    smallest j in exact arithmetic, with equal values (ROADMAP item 17).

    The bound.  A stored power dominates every split sum at its own index
    (powers[m] >= powers[i] + powers[m - i]), so with c = powers[1], the
    split (1, i) at i + 1 gives powers[i + 1] >= powers[i] + c.  Hence
    g[m] = powers[m] - c*m is nondecreasing, and every sum in a block
    a <= j <= b is at most its top, powers[b] + powers[n - a], minus
    (b - a)*c.  Below 2*SPLIT_BLOCK there is no whole block and the one
    block is summed.  Otherwise the tops of the whole blocks of SPLIT_BLOCK
    indices awake at n are formed, and the best sum of the block with the
    best top (the smallest start among equal tops) is the seed.  Every awake
    block whose top, widened by the slack, SPLIT_SLACK relative to
    S = |seed| + (SPLIT_BLOCK + n)*|c|, reaches the threshold
    seed + (SPLIT_BLOCK - 1)*c is summed, the seed's own block once, and so
    is the last partial block full + 1 <= j <= h if its top reaches
    seed + (h - full - 1)*c.  The larger sum wins, and the smaller j among
    equal sums.

    The sleeps.  Each awake block wakes again at n + 1 if it reaches the
    threshold; if it misses by M, at n + d for the first d at which
    g[n - a + d] - g[n - a], the growth of its top beyond d*c, can reach
    M - slack (the first unknown d if no known g does), and at most
    2*SPLIT_BLOCK.  Until then its sums stay twice the slack under
    seed + d*c, and the seed's split (j, n + d - j) does not fall below
    that.  A block is first awake where it becomes whole.  A sleep lasts 1
    to 2*SPLIT_BLOCK steps, so the blocks awake at m wait in slot
    m % (2*SPLIT_BLOCK + 1) of a ring, which is read and cleared at m.

    Why the slack is safe.  The premise is exact, in 2D and 3D alike: the
    stored power at m is the float maximum of its split sums or a larger
    connected power, so no split sum exceeds it.  g can then fall only by
    roundings: from m to m + 1, one in the sum (1, m) and two in forming
    each g (c*m and the difference), each at most u*max(|powers[m + 1]|,
    |c|*(m + 1)) with u = 2**-53.  One bound chains at most
    2*(SPLIT_BLOCK - 1) steps (the partial block's fewer), a sleep
    2*SPLIT_BLOCK more and as many in its bisect, 94 in all, each off by the
    fall of g plus one rounding.  Every step a bound at n chains ends at an
    index m + 1 <= n, so |c|*(m + 1) <= n*|c|; and its powers are of one sign
    (the check on the base values admits no others) and stay within
    |seed| + 3*SPLIT_BLOCK*|c| wherever a bound is near the best split, with
    3*SPLIT_BLOCK <= SPLIT_BLOCK + n as n >= 2*SPLIT_BLOCK there.  So each
    step falls by at most 5u*S, for any positive base values and at every
    K, and with its rounding it stays below SPLIT_SLACK/(2*94)*S, about
    46u*S: a bound is off by under half the slack, and no block that can
    hold the best sum, the seed's own included, is skipped or left asleep.
    The tests check each step's fall against that allowance in all five
    classes at K = 3000 and 10,000, and on minimizing base values where
    |c|*(m + 1) outgrows |powers[m + 1]| 1500-fold.  Uncapped, a sleep
    could chain a/2 steps, past the slack at large K.
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
    # the split search needs powers of one sign, and every power, split sum
    # and bound it forms is at most 2*K times the largest
    if not (all(v > 0.0 for v in conn[1:]) and 4 * K * _power(max(conn[1:]), N) < math.inf):
        raise ValueError("base values must be positive, with 4*K times their largest power finite")

    values, powers, split_indices, provenance = ([None] * (K + 1) for _ in range(4))
    values[1] = conn[1]
    powers[1] = c = sign * _power(conn[1], N)
    provenance[1] = Connected(1)
    g = [0.0, 0.0]  # g[m] = powers[m] - c*m for the known m
    B, B2, R = SPLIT_BLOCK, 2 * SPLIT_BLOCK, 2 * SPLIT_BLOCK + 1
    lead = (B - 1) * c  # the threshold's term in c
    ring = [[] for _ in range(R)]  # slot m % R: the whole blocks awake at m
    splits = {}  # one Split record per left index

    for n in range(2, K + 1):
        h = n // 2
        full = h - h % B  # j <= full lie in whole blocks
        if not full:
            best = _block_max(powers, n, 1, h)
            best_i = _first(powers, n, 1, best)
        else:
            awake, ring[n % R] = ring[n % R], []
            if n % B2 == 0:  # the whole block new at n
                awake.append(h - B + 1)
            tops = [powers[a + B - 1] + powers[n - a] for a in awake]
            top = max(tops)
            seed_a = awake[tops.index(top)] if tops.count(top) == 1 else min(
                a for a, t in zip(awake, tops) if t == top)
            best = seed = _block_max(powers, n, seed_a, seed_a + B - 1)
            best_i = _first(powers, n, seed_a, seed)
            slack = SPLIT_SLACK * (abs(seed) + (B + n) * abs(c))
            threshold = seed + lead - slack
            woken = ring[(n + 1) % R]
            for a, top in zip(awake, tops):
                if top < threshold:
                    d = bisect_left(g, g[n - a] + threshold - top - slack, n - a + 1) - n + a
                    ring[(n + (d if d < B2 else B2)) % R].append(a)
                    continue
                woken.append(a)
                if a != seed_a:
                    s = _block_max(powers, n, a, a + B - 1)
                    if s > best or s == best and a < best_i:
                        best, best_i = s, _first(powers, n, a, s)
            if full < h and powers[h] + powers[n - full - 1] >= seed + (h - full - 1) * c - slack:
                s = _block_max(powers, n, full + 1, h)
                if s > best:
                    best, best_i = s, _first(powers, n, full + 1, s)
        split_indices[n] = best_i
        pc = sign * _power(conn[n], N)
        margin = _margin(pc, best, REL_TIE_TOL)
        if margin < 0:
            provenance[n] = splits.get(best_i) or splits.setdefault(best_i, Split(best_i))
        else:
            provenance[n] = Connected(n, tie=margin == 0)
        # the larger power as it was formed (the connected one if equal), and
        # its eigenvalue
        if pc >= best:
            powers[n], values[n] = pc, conn[n]
        else:
            powers[n], values[n] = best, _unpower(sign * best, N)
        g.append(powers[n] - c * n)

    return ExtremalSequence(domain_class, K, tuple(values), tuple(powers), tuple(conn),
                            tuple(split_indices), tuple(provenance))


def unpack_geometry(seq, n):
    """Unroll the provenance at n into scaled components of total volume 1:
    a leaf at idx takes the volume powers[idx] / powers[n]."""
    counts = seq.leaf_counts(n)  # checks n
    powers, shape = seq.powers, seq.domain_class.shape
    components = []
    for idx, count in counts.items():
        components.extend([PackedComponent(shape, powers[idx] / powers[n], idx)] * count)
    components.sort(key=lambda c: (-c.volume, -c.support_index))
    return PackedDomain(tuple(components))


def connectedness_certificate(candidate_value, seq, n):
    """True iff candidate_value beats every split, so the class optimum at n
    must be connected: ``_margin`` is 1 at REL_TIE_TOL on signed powers, the
    recursion's own rule and space.

    Only the best split is tested, the plain maximum over every split of the
    sequence's stored signed powers: the margin test is monotone in the
    split value, so the best split passes iff every split does.  The
    candidate must be positive with a finite power, as the recursion's base
    values must."""
    n = check_integer("n", n, 1)
    if not (candidate_value > 0.0 and _power(candidate_value, seq.dimension) < math.inf):
        raise ValueError(f"candidate must be positive with a finite power, got {candidate_value}")
    if n == 1:
        return True
    if n - 1 > seq.K:
        raise IndexError(f"sequence must be complete to {n - 1}")
    p = seq.domain_class.sign * _power(candidate_value, seq.dimension)
    return _margin(p, _block_max(seq.powers, n, 1, n // 2), REL_TIE_TOL) > 0


def crossover_scan(seq_a, seq_b, K):
    """Indices n <= K where seq_b beats seq_a: ``_margin`` is 1 at REL_SCAN_TOL."""
    K = check_integer("K", K, 1)
    if seq_a.dimension != seq_b.dimension:
        raise ValueError("sequences must share dimension")
    if seq_a.domain_class.sign != seq_b.domain_class.sign:
        raise ValueError("sequences must share objective")
    if seq_a.K < K or seq_b.K < K:
        raise ValueError(f"both sequences must reach K={K}")
    sign = seq_a.domain_class.sign
    a, b = seq_a.values, seq_b.values
    return [n for n in range(1, K + 1) if _margin(sign * b[n], sign * a[n], REL_SCAN_TOL) > 0]


DirichletCheck = namedtuple("DirichletCheck", "square_value disks_value disks_exceed_square")
DirichletCheck.__doc__ = "lambda_13 of the unit square against the minimizing disks' value."


def dirichlet_min_check():
    """Compare lambda_13 of the unit square against the minimizing sequence
    over disjoint unions of disks."""
    square_13 = spectra.rectangle_spectrum(1.0, 1.0, "dirichlet", 13).nonzero(13)
    seq = extremal_sequence(dirichlet_disks_class(), 13)
    disks_13 = seq.value(13)
    return DirichletCheck(square_13, disks_13, disks_13 > square_13), seq
