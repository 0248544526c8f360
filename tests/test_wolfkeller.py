"""Extremal recursion: values, provenance, packings, certificates, scans."""

import collections
import hashlib
import math
import operator

import pytest

from specpack import spectra, wolfkeller
from specpack.wolfkeller import (
    Connected,
    Split,
    balls_class,
    connectedness_certificate,
    crossover_scan,
    cubes_class,
    dirichlet_disks_class,
    dirichlet_min_check,
    disks_class,
    extremal_sequence,
    squares_class,
    unpack_geometry,
)

PI = math.pi

# sha256 of extremal_sequence(cls, 3000).to_csv(): every value at full
# precision and every provenance expression, in the table CSV's ASCII form
CSV_3000_SHA256 = {
    "disks": "d6ffd41a4cd428ccacb040499ef612f85b694e62ae378123695f1e97e5595019",
    "squares": "69f75fe4dc795a67c89ed2a5ac8b6a89aa8e4205a639b315f2c152d24a9c484f",
    "balls": "a4d90c7d2ec53d03de461430eb6ce93aff872d0e1a14e93529d8b3b6068c2e54",
    "cubes": "95f98c1f6ac797ac9938f91f8e4915573865ab28c58e3091bb3a33bb01a56697",
    "dirichlet-disks": "3e43c6d2d4677931e111958953420c670f2c39e7115128de007eb18334f157ef",
}

# sha256 of the repr of split_value(n), one a line, for n = 1..3000: the best
# pure split at every n, past the rows the golden table shows
SPLIT_3000_SHA256 = {
    "disks": "36cfca66d86d32973036b85e427db722a5deb9e88042a6b24749bfb3bb0fd9e7",
    "squares": "c3f9531fe1bd8d3fc0a9cfa6b865f6f90d6a4fdaeb84c11648b89e73352194ca",
    "balls": "5c03a275b03a7245d0acd25def52485c4fd91bb1b36d185ce44b19154e9e15a3",
    "cubes": "8a0562c2fa87b97f86a9006ad20dde12caee3c8bd984be591204b546837ad81c",
    "dirichlet-disks": "de43d349c780c1c411d24e632047d64de61bac261395e32ea10dbb53d86de5a8",
}


def _margin_pair(tol):
    """(big, small) with big - small == tol * big exactly in floats: the two
    values sit exactly on the margin of the decision rule."""
    for d in range(-8, 9):
        big = math.ldexp(4504 * 10**12 + d, -46)  # about 64.0057
        small = big - tol * big
        if big - small == tol * big:
            return big, small
    pytest.fail(f"no pair on the margin {tol}")


def _better_worse(cls, tol):
    # the margin pair ordered by the class's objective, and the direction in
    # which a value gets better
    big, small = _margin_pair(tol)
    if cls().sign > 0:
        return big, small, math.inf
    return small, big, -math.inf


CLASSES = (disks_class, squares_class, balls_class, cubes_class, dirichlet_disks_class)


@pytest.fixture(scope="module")
def sequences_3000():
    return {cls().name: extremal_sequence(cls(), 3000) for cls in CLASSES}


@pytest.fixture(scope="module")
def sequences_10000():
    return {cls().name: extremal_sequence(cls(), 10_000) for cls in CLASSES}


def _powers(seq):
    # the powers the recursion stores: the sign times _power of every value,
    # recomputed
    sign = seq.domain_class.sign
    return [None] + [sign * spectra._power(seq.value(n), seq.dimension)
                     for n in range(1, seq.K + 1)]


def _worst_g_fall(seq):
    # the largest fall of g[m] = powers[m] - c*m, as the recursion forms it,
    # from one m to the next, relative to |powers| at the later m
    powers = seq.powers
    g = [powers[m] - powers[1] * m for m in range(1, seq.K + 1)]
    return max((g[i] - g[i + 1]) / abs(powers[i + 2]) for i in range(seq.K - 1))


def _exhaustive_split(powers, n):
    # reference: every split sum at n, and the smallest j attaining the best
    h = n // 2
    sums = list(map(operator.add, powers[1:h + 1], powers[n - 1:n - h - 1:-1]))
    best = max(sums)
    return best, sums.index(best) + 1


def _seed(powers, n):
    # the seed over every whole block, c and the slack
    B = wolfkeller.SPLIT_BLOCK
    h = n // 2
    full = h - h % B
    tops = [powers[a + B - 1] + powers[n - a] for a in range(1, full + 1, B)]
    a = 1 + B * tops.index(max(tops))
    seed = max(powers[i] + powers[n - i] for i in range(a, a + B))
    c = powers[1]
    return seed, c, wolfkeller.SPLIT_SLACK * (abs(seed) + B * abs(c))


def _partial_reaches(powers, n):
    # the partial block's bound against the seed, widened by the slack:
    # every sum at full < j <= h is at most
    # powers[h] + powers[n - full - 1] - (h - full - 1)*c
    B = wolfkeller.SPLIT_BLOCK
    h = n // 2
    full = h - h % B
    seed, c, slack = _seed(powers, n)
    bound = powers[h] + powers[n - full - 1] - (h - full - 1) * c
    return bound >= seed - slack


def _sleeps(powers, n, blocks):
    # reference for the sleep of each whole block (its first index a) bounded
    # at n, and its kind: 1 if its top reaches the threshold, else the first d
    # at which g[m] = powers[m] - c*m grows from n - a by the miss less the
    # slack, by a scan of the known g (m < n; d = a if none does), at most 2*B
    if not blocks:
        return {}
    B = wolfkeller.SPLIT_BLOCK
    seed, c, slack = _seed(powers, n)
    threshold = seed + (B - 1) * c - slack
    sleeps = {}
    for a in blocks:
        top = powers[a + B - 1] + powers[n - a]
        target = powers[n - a] - c * (n - a) + threshold - top - slack
        crossing = (d for d in range(1, min(a, 2 * B))
                    if powers[n - a + d] - c * (n - a + d) >= target)
        if top >= threshold:
            sleeps[a] = 1, "reached"
        elif (d := next(crossing, None)) is not None:
            sleeps[a] = d, "cut by the bisect"
        elif a < 2 * B:
            sleeps[a] = a, "no known crossing"
        else:
            sleeps[a] = 2 * B, "capped"
    return sleeps


def _every_block_summed(powers, n):
    # the number of blocks of sums a search that bounds every whole block
    # forms at n: the whole blocks whose tops reach the threshold, and the
    # partial block if its bound reaches (the one block below n = 2*B)
    B = wolfkeller.SPLIT_BLOCK
    h = n // 2
    full = h - h % B
    if not full:
        return 1
    seed, c, slack = _seed(powers, n)
    threshold = seed + (B - 1) * c - slack
    whole = sum(powers[a + B - 1] + powers[n - a] >= threshold for a in range(1, full + 1, B))
    return whole + (full < h and _partial_reaches(powers, n))


def _schedule(monkeypatch, seq):
    # the recursion rerun on seq's base values, read from the blocks it sums
    # (_block_max) and the blocks it puts to sleep (bisect_left, at
    # a = n - lo + 1 with n = len(g)): per n, the whole blocks whose tops it
    # forms, the sleep it gives each of them (1 for a summed whole block,
    # whose top reached the threshold; the bisect's, capped at 2*B, for the
    # rest) and the blocks of sums (a, b) it forms, in order
    B = wolfkeller.SPLIT_BLOCK
    sleeps, summed = collections.defaultdict(dict), collections.defaultdict(list)
    block_max, bisect_left = wolfkeller._block_max, wolfkeller.bisect_left

    def recording_block_max(powers, n, a, b):
        summed[n].append((a, b))
        if b - a == B - 1:
            sleeps[n][a] = 1
        return block_max(powers, n, a, b)

    def recording_bisect(g, x, lo):
        m = bisect_left(g, x, lo)
        n = len(g)
        a = n - lo + 1
        sleeps[n][a] = min(m - n + a, 2 * B)
        return m

    monkeypatch.setattr(wolfkeller, "_block_max", recording_block_max)
    monkeypatch.setattr(wolfkeller, "bisect_left", recording_bisect)
    again = extremal_sequence(seq.domain_class, seq.K, base_values=seq.connected[1:])
    monkeypatch.undo()
    assert again == seq
    bounded = {n: sorted(sleeps[n]) for n in range(2, seq.K + 1)}
    return bounded, sleeps, summed


@pytest.fixture(scope="module")
def schedules_3000(sequences_3000):
    with pytest.MonkeyPatch.context() as monkeypatch:
        return {name: _schedule(monkeypatch, seq) for name, seq in sequences_3000.items()}


class TestSequenceValues:
    def test_disks_n8_connected(self, disks_sequence):
        assert disks_sequence.value(8) == pytest.approx(88.83, abs=5e-3)
        dec = disks_sequence.decomposition(8)
        assert isinstance(dec, Connected) and dec.index == 8 and not dec.tie

    def test_disks_n22(self, disks_sequence):
        assert disks_sequence.value(22) == pytest.approx(241.56, abs=5e-3)
        assert disks_sequence.leaf_counts(22) == {8: 2, 1: 6}
        assert disks_sequence.expression(22) == "2μ_8 + 6μ_1"

    def test_squares_n22_connected(self, squares_sequence):
        assert squares_sequence.value(22) == pytest.approx(246.74, abs=5e-3)
        dec = squares_sequence.decomposition(22)
        assert isinstance(dec, Connected) and not dec.tie

    def test_squares_n2_split(self, squares_sequence):
        assert squares_sequence.value(2) == pytest.approx(2 * PI**2, rel=1e-12)
        assert isinstance(squares_sequence.decomposition(2), Split)

    def test_squares_tie_rows(self, squares_sequence):
        for n in (4, 8, 9, 13):
            dec = squares_sequence.decomposition(n)
            assert isinstance(dec, Connected) and dec.tie
            assert squares_sequence.expression(n) == f"{n}μ_1 = μ_{n}"

    def test_monotone_nondecreasing(self, disks_sequence, squares_sequence):
        for seq in (disks_sequence, squares_sequence):
            vals = [seq.value(n) for n in range(1, seq.K + 1)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_superadditivity(self, disks_sequence):
        seq = disks_sequence
        for n in range(2, 31):
            vn = seq.value(n)
            for j in range(1, n):
                assert vn >= seq.value(j) + seq.value(n - j) - 1e-12 * vn

    def test_superadditivity_3d(self):
        seq = extremal_sequence(balls_class(), 40)
        for n in range(2, 41):
            sn = seq.value(n) ** 1.5
            for j in range(1, n):
                combo = seq.value(j) ** 1.5 + seq.value(n - j) ** 1.5
                assert sn >= combo - 1e-12 * sn

    def test_recursion_against_exhaustive(self, disks_sequence):
        # brute force over the connected candidate and every split 1..n-1
        base = spectra.disk_spectrum("neumann", 30).nonzero_values()
        best = {}
        for n in range(1, 31):
            cands = [base[n - 1]]
            for j in range(1, n):
                cands.append(best[j] + best[n - j])
            best[n] = max(cands)
            assert disks_sequence.value(n) == pytest.approx(best[n], rel=1e-12)

    def test_semiring_reordering_bitwise_stable(self, disks_sequence):
        # plain addition in 2D: reversed-order max must match bitwise
        seq = disks_sequence
        for n in range(2, 60):
            rev = max(
                seq.value(j) + seq.value(n - j)
                for j in reversed(range(1, n // 2 + 1))
            )
            assert rev == seq.split_value(n)

    def test_argmax_invariance_under_common_scaling(self):
        cls = disks_class()
        base = spectra.disk_spectrum("neumann", 25).nonzero_values()
        seq1 = extremal_sequence(cls, 25, base_values=base)
        scaled = [4.0 * v for v in base]
        seq4 = extremal_sequence(cls, 25, base_values=scaled)
        for n in range(1, 26):
            assert seq4.value(n) == 4.0 * seq1.value(n)  # exact: power-of-two factor
            assert seq4.decomposition(n) == seq1.decomposition(n)

    def test_argmax_invariance_3d(self):
        cls = balls_class()
        base = spectra.ball_spectrum("neumann", 20).nonzero_values()
        seq1 = extremal_sequence(cls, 20, base_values=base)
        scaled = [4.0 * v for v in base]
        seq4 = extremal_sequence(cls, 20, base_values=scaled)
        for n in range(1, 21):
            assert seq4.value(n) == pytest.approx(4.0 * seq1.value(n), rel=1e-12)
            assert type(seq4.decomposition(n)) is type(seq1.decomposition(n))

    def test_deep_split_chain(self):
        # equal base values: every best split peels off index 1, so the
        # provenance is a chain as deep as n
        cls = disks_class()
        seq = extremal_sequence(cls, 2000, base_values=[1.0] * 2000)
        assert seq.decomposition(2000) == Split(1)
        assert seq.leaf_counts(2000) == {1: 2000}
        assert wolfkeller.ascii_expression(seq.expression(2000)) == "2000mu1"

    @pytest.mark.parametrize("cls", [disks_class, dirichlet_disks_class])
    def test_tie_margin_is_inclusive(self, cls):
        # at exactly REL_TIE_TOL the connected candidate and the split tie;
        # one ulp further the better side wins
        better, worse, up = _better_worse(cls, wolfkeller.REL_TIE_TOL)

        def decide(split, connected):
            seq = extremal_sequence(cls(), 2, base_values=[split / 2, connected])
            return seq.decomposition(2)

        assert decide(worse, better) == Connected(2, tie=True)
        assert decide(worse, math.nextafter(better, up)) == Connected(2)
        assert decide(better, worse) == Connected(2, tie=True)
        assert decide(better, math.nextafter(worse, -up)) == Split(1)

    def test_indices_outside_range_rejected(self, disks_sequence):
        K = disks_sequence.K
        for read in ("value", "connected_value", "split_value", "decomposition",
                     "leaf_counts"):
            with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
                getattr(disks_sequence, read)(0)
            with pytest.raises(IndexError, match=f"^index {K + 1} outside computed range 1..{K}$"):
                getattr(disks_sequence, read)(K + 1)

    def test_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="K must be >= 1"):
            extremal_sequence(disks_class(), 0)

    def test_short_base_rejected(self):
        cls = disks_class()
        with pytest.raises(ValueError):
            extremal_sequence(cls, 5, base_values=[10.65])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 1e308])
    def test_nonpositive_or_overflowing_base_rejected(self, bad):
        # sums of powers near the float maximum overflow to inf
        with pytest.raises(ValueError, match="must be positive"):
            extremal_sequence(disks_class(), 3, base_values=[10.65, bad, 30.0])

    def test_3d_power_overflow_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            extremal_sequence(balls_class(), 40, base_values=[1e250] * 40)


class TestSplitSearch:
    """The bounded split search returns the exhaustive (value, smallest j)."""

    @pytest.mark.parametrize("name", sorted(CSV_3000_SHA256))
    def test_equals_exhaustive_through_3000(self, sequences_3000, name):
        # the stored split, its index and its sum, at every n; the Dirichlet
        # disks minimize: their signed powers are negative
        seq = sequences_3000[name]
        powers = _powers(seq)
        assert tuple(powers) == seq.powers
        for n in range(2, seq.K + 1):
            j = seq.split_indices[n]
            assert (powers[j] + powers[n - j], j) == _exhaustive_split(powers, n)

    def test_superadditivity_defect_below_slack(self, sequences_3000):
        # the bound's premise: a stored power dominates every split sum at its
        # own index, up to a defect far inside the search's slack
        for seq in sequences_3000.values():
            powers = _powers(seq)
            worst = max(
                (_exhaustive_split(powers, m)[0] - powers[m]) / abs(powers[m])
                for m in range(2, seq.K + 1)
            )
            assert worst <= wolfkeller.SPLIT_SLACK / 1000, seq.domain_class.name

    def test_g_nondecreasing_within_slack(self, sequences_3000):
        # the sleeps' premise: g[m] = powers[m] - c*m, as the recursion forms
        # it, falls by no more than a defect far inside the search's slack
        for seq in sequences_3000.values():
            assert _worst_g_fall(seq) <= wolfkeller.SPLIT_SLACK / 1000, seq.domain_class.name

    def test_g_within_the_proofs_bound_at_10000(self, sequences_10000):
        # the bound the slack proof needs (extremal_sequence's docstring): a
        # bound chains at most 94 steps, each off by the fall of g plus one
        # rounding, and all of them stay under half the slack; at K = 10,000
        # the cubes' fall, 1.06e-15, is past the K = 3000 test's
        # SPLIT_SLACK/1000, but far inside this bound
        B = wolfkeller.SPLIT_BLOCK
        steps = 2 * (B - 1) + 2 * B + 2 * B
        assert steps == 94
        per_step = wolfkeller.SPLIT_SLACK / 2 / steps - 2**-52
        for seq in sequences_10000.values():
            assert _worst_g_fall(seq) < per_step, seq.domain_class.name

    @pytest.mark.parametrize("name, most", [
        ("disks", 6), ("squares", 6), ("balls", 6), ("cubes", 6), ("dirichlet-disks", 12),
    ])
    def test_recursion_bounds_few_blocks_per_n(
            self, sequences_3000, schedules_3000, name, most):
        # the sleeps keep the tops formed per n at a few (3.2-4.8 for the
        # Neumann classes, 10.4 for the Dirichlet disks) where bounding every
        # whole block forms 46.4, and sum no more blocks than a search that
        # bounds every whole block
        seq = sequences_3000[name]
        bounded, _, summed = schedules_3000[name]
        K, B = seq.K, wolfkeller.SPLIT_BLOCK
        assert sum(n // 2 // B for n in range(2, K + 1)) / (K - 1) > 46
        assert sum(map(len, bounded.values())) / (K - 1) <= most
        for n in range(2, K + 1):
            assert len(summed[n]) <= _every_block_summed(seq.powers, n), n

    def test_sleeps_follow_the_rule_and_hold_no_best_sum(self, sequences_3000, schedules_3000):
        # every bounded block sleeps as the reference rule says and is bounded
        # again exactly where its sleep ends, and no other block is bounded
        # but the one new at n; while it sleeps, each of its sums stays below
        # the best split; and every kind of sleep occurs
        B = wolfkeller.SPLIT_BLOCK
        kinds = collections.Counter()
        for name, seq in sequences_3000.items():
            bounded, sleeps, _ = schedules_3000[name]
            powers = seq.powers
            awake = collections.defaultdict(set)
            for n in range(2, seq.K + 1):
                if n % (2 * B) == 0:
                    awake[n].add(n // 2 - B + 1)
                assert set(bounded[n]) == awake.pop(n, set()), (name, n)
                for a, d in sleeps[n].items():
                    awake[n + d].add(a)
                for a, (d, kind) in _sleeps(powers, n, bounded[n]).items():
                    assert sleeps[n][a] == d, (name, n, a, kind)
                    kinds[kind] += 1
                h = n // 2
                sums = list(map(operator.add, powers[1:h + 1], powers[n - 1:n - h - 1:-1]))
                best, j = max(sums), -1
                for _ in range(sums.count(best)):
                    j = sums.index(best, j + 1)  # j + 1 is a best split; its block
                    a = j + 1 - j % B  # is the partial one or a bounded one
                    assert a > h - h % B or a in bounded[n], (name, n, j + 1)
        assert kinds.keys() == {"reached", "cut by the bisect", "capped", "no known crossing"}
        # no block is whole below n = 2*B, and at 2*B only the new one is
        bounded = schedules_3000["disks"][0]
        assert [bounded[n] for n in range(2, 2 * B + 1)] == [[]] * (2 * B - 2) + [[1]]

    @pytest.mark.parametrize("n", [20, 31, 2000, 2015, 2016, 2999])
    def test_blocks_cut_under_both_objectives(self, sequences_3000, schedules_3000, n):
        # h < 16 sums its one block; larger n sums each block at most once and
        # skips most whole blocks under either objective
        h = n // 2
        full = h - h % wolfkeller.SPLIT_BLOCK
        for name in ("disks", "dirichlet-disks"):
            seq = sequences_3000[name]
            powers = _powers(seq)
            summed = schedules_3000[name][2][n]
            j = seq.split_indices[n]
            assert (powers[j] + powers[n - j], j) == _exhaustive_split(powers, n)
            if h < wolfkeller.SPLIT_BLOCK:
                assert summed == [(1, h)]
                continue
            assert len(set(summed)) == len(summed)
            assert ((full + 1, h) in summed) == (full < h and _partial_reaches(powers, n))
            whole = [a for a, b in summed if b - a == wolfkeller.SPLIT_BLOCK - 1]
            assert len(whole) < full // wolfkeller.SPLIT_BLOCK / 2

    @pytest.mark.parametrize("name, n, reaches", [
        ("disks", 2015, False), ("dirichlet-disks", 2999, False),
        ("balls", 50, True), ("cubes", 87, True),
    ])
    def test_partial_block_summed_when_its_bound_reaches(
            self, sequences_3000, schedules_3000, name, n, reaches):
        # a skipped partial block holds no sum as good as the best; at these
        # balls and cubes n it holds the best j itself
        seq = sequences_3000[name]
        summed = schedules_3000[name][2][n]
        powers = _powers(seq)
        h = n // 2
        full = h - h % wolfkeller.SPLIT_BLOCK
        j = seq.split_indices[n]
        best = powers[j] + powers[n - j]
        assert (best, j) == _exhaustive_split(powers, n)
        assert _partial_reaches(powers, n) == reaches
        assert ((full + 1, h) in summed) == reaches
        partial = [powers[i] + powers[n - i] for i in range(full + 1, h + 1)]
        assert (j > full) == reaches
        assert (max(partial) == best) == reaches

    def test_recursion_bit_identical_at_10000(self, sequences_10000):
        # sha256 over repr((values, powers, split_indices, provenance)) of the
        # five classes at K = 10,000, in this order, as the block search gave
        # them before it moved into extremal_sequence's loop: the search's bit
        # identity past the K = 3000 pins
        digest = hashlib.sha256()
        for seq in sequences_10000.values():
            digest.update(repr((seq.values, seq.powers, seq.split_indices,
                                seq.provenance)).encode())
        assert digest.hexdigest() == (
            "d338b485a3c1bcf46070b98eb3efe4f01ba34509cc2f3adc4e971f706a23f009")


class TestPolyaBound:
    """Pólya's bound, an oracle for the recursion independent of its code.

    Pólya (1961) proved the Dirichlet lambda_n >= 4 pi n for unit-area
    domains that tile the plane, and the Neumann mu_n <= 4 pi n (mu_n the
    n-th nonzero eigenvalue) for those that tile it periodically; Kellner
    (1966) extended the Neumann bound to every tiling domain.  The argument
    holds in every dimension, so squares and cubes satisfy it, and Filonov,
    Levitin, Polterovich and Sher (Invent. Math., 2023) proved it for disks
    and balls, both conditions.  In 3D the unit-volume bound is
    (6 pi^2 n)^(2/3).  A union inherits it: in powers, best^(N/2) <= C*n
    with C = 4 pi (2D) or 6 pi^2 (3D), and the power law is additive, so a
    split (j, n - j) of two sides under C*j and C*(n - j) is under C*n (over
    it for the Dirichlet mirror).  At K = 3000 the extremes of best[n] over
    the bound are 0.9845 (disks, n = 2910), 0.9821 (squares, 2879), 0.9523
    (balls, 2904), 0.9247 (cubes, 2893) and 1.0157 (Dirichlet disks, 2937).
    """

    @pytest.mark.parametrize("name", sorted(CSV_3000_SHA256))
    def test_every_stored_value_within_the_bound(self, sequences_3000, name):
        seq = sequences_3000[name]
        if seq.dimension == 2:
            bound = [4 * PI * n for n in range(seq.K + 1)]
        else:
            bound = [(6 * PI**2 * n) ** (2 / 3) for n in range(seq.K + 1)]
        if seq.domain_class.sign > 0:
            assert all(seq.values[n] <= bound[n] for n in range(1, seq.K + 1))
        else:
            assert all(seq.values[n] >= bound[n] for n in range(1, seq.K + 1))


class TestGeometry:
    def test_single_disk_at_n1(self, disks_sequence):
        packed = unpack_geometry(disks_sequence, 1)
        assert len(packed.components) == 1
        assert packed.components[0].volume == pytest.approx(1.0, abs=1e-15)

    def test_two_half_disks_at_n16(self, disks_sequence):
        packed = unpack_geometry(disks_sequence, 16)
        assert [c.volume for c in packed.components] == pytest.approx([0.5, 0.5])
        assert all(c.support_index == 8 for c in packed.components)

    def test_n22_packing(self, disks_sequence):
        packed = unpack_geometry(disks_sequence, 22)
        vols = [c.volume for c in packed.components]
        assert vols[:2] == pytest.approx([0.36774, 0.36774], abs=5e-6)
        assert vols[2:] == pytest.approx([0.044087] * 6, abs=5e-6)
        assert packed.total_volume == pytest.approx(1.0, abs=1e-12)

    def test_volume_closure_everywhere(self, disks_sequence, squares_sequence):
        for seq in (disks_sequence, squares_sequence):
            for n in range(1, seq.K + 1):
                packed = unpack_geometry(seq, n)
                assert packed.total_volume == pytest.approx(1.0, abs=1e-12)

    def test_component_supports_extremal_value(self, disks_sequence):
        base = spectra.disk_spectrum("neumann", 30).nonzero_values()
        for n in (5, 16, 22, 30):
            packed = unpack_geometry(disks_sequence, n)
            for c in packed.components:
                rescaled = base[c.support_index - 1] / c.volume
                assert rescaled == pytest.approx(disks_sequence.value(n), rel=1e-9)

    def test_round_trip_through_union_spectrum(self, disks_sequence, squares_sequence):
        for seq in (disks_sequence, squares_sequence):
            for n in range(1, 31):
                packed = unpack_geometry(seq, n)
                parts = [
                    (spectra.spectrum_of(c.shape, n), c.volume)
                    for c in packed.components
                ]
                union = spectra.union_spectrum(parts, n)
                assert union.eigenvalue(n) == pytest.approx(
                    seq.value(n), rel=1e-9
                )


class TestCertificates:
    def test_disks_n8(self, disks_sequence):
        assert connectedness_certificate(
            disks_sequence.connected_value(8), disks_sequence, 8
        )

    def test_single_disk_not_certified_at_2(self, disks_sequence):
        mu2_single = spectra.disk_spectrum("neumann", 2).nonzero(2)
        assert not connectedness_certificate(mu2_single, disks_sequence, 2)

    def test_squares_n22(self, squares_sequence):
        assert connectedness_certificate(25 * PI**2, squares_sequence, 22)
        # the best split (16+7) pi^2 fails the certificate
        assert not connectedness_certificate(23 * PI**2, squares_sequence, 22)

    def test_margin_is_strict(self):
        # a candidate cp that beats the split s = v + v by exactly the margin
        # REL_TIE_TOL * cp in floats: with cp = 2^e * M / 2^52 that needs
        # REL_TIE_TOL * M to round to an integer, which happens a few ulps
        # from M = 4504 / REL_TIE_TOL, i.e. cp = 2^e * (1 + 9e-5)
        tol = wolfkeller.REL_TIE_TOL
        middle = round(4504 / tol)
        for M in range(middle - 8, middle + 9):
            cp = math.ldexp(M, 6 - 52)
            s = cp - tol * cp
            if cp - s == tol * cp:
                break
        else:
            pytest.fail("no candidate on the margin")
        seq = extremal_sequence(disks_class(), 1, base_values=[s / 2])
        assert not connectedness_certificate(cp, seq, 2)
        assert connectedness_certificate(math.nextafter(cp, math.inf), seq, 2)

    def test_margin_is_strict_when_minimizing(self):
        better, worse, up = _better_worse(dirichlet_disks_class, wolfkeller.REL_TIE_TOL)
        seq = extremal_sequence(dirichlet_disks_class(), 1, base_values=[worse / 2])
        assert not connectedness_certificate(better, seq, 2)
        assert connectedness_certificate(math.nextafter(better, up), seq, 2)

    def test_incomplete_sequence_rejected(self, disks_sequence):
        n = disks_sequence.K + 2
        with pytest.raises(IndexError, match=f"sequence must be complete to {n - 1}"):
            connectedness_certificate(1.0, disks_sequence, n)

    def test_n1_is_always_connected(self, disks_sequence):
        assert connectedness_certificate(disks_sequence.value(1), disks_sequence, 1)

    @pytest.mark.parametrize("cls, bad", [
        (disks_class, 0.0), (disks_class, -1.0), (disks_class, math.nan),
        (disks_class, math.inf), (balls_class, -1.0), (balls_class, math.nan),
        (balls_class, math.inf), (balls_class, 1e308),
    ])
    def test_candidate_positive_with_finite_power(self, cls, bad):
        # as the recursion's base values: a ValueError before any work, at
        # n = 1 too; 1e308 is finite, but its 3D power overflows to inf
        seq = extremal_sequence(cls(), 3)
        for n in (1, 3):
            with pytest.raises(ValueError, match="^candidate must be positive with a finite power"):
                connectedness_certificate(bad, seq, n)

    @pytest.mark.parametrize("name", sorted(CSV_3000_SHA256))
    def test_agrees_with_the_recursion(self, sequences_3000, sequences_10000, name):
        # the connected candidate is certified exactly where the recursion
        # stored it without the tie flag, at every n <= K, at K = 3000 and
        # K = 10,000.  In 2D the power is the value, so the certificate's
        # margin on powers is the recursion's on values.  In 3D the recursion
        # decides on values and the certificate on powers, whose relative
        # gaps are about 3/2 of the values', so the two could part only at a
        # gap within about REL_TIE_TOL of the margin, and no 3D gap lies
        # there: the one 3D tie (cubes, n = 8) is exact and every other gap
        # is orders of magnitude wider.  At K + 1, candidates on both sides
        # of the margin are certified exactly where they beat every split.
        tol = wolfkeller.REL_TIE_TOL
        for seq in (sequences_3000[name], sequences_10000[name]):
            for n in range(1, seq.K + 1):
                dec = seq.decomposition(n)
                certified = isinstance(dec, Connected) and not dec.tie
                assert connectedness_certificate(seq.connected_value(n), seq, n) == certified, n
            n, sign, N = seq.K + 1, seq.domain_class.sign, seq.dimension
            splits = [seq.powers[j] + seq.powers[n - j] for j in range(1, n // 2 + 1)]
            outcomes = set()
            for d in range(-30, 31):
                candidate = spectra._unpower(sign * max(splits), N) * (1 + d * 1e-13)
                p = sign * spectra._power(candidate, N)
                every = all(p - s > tol * max(abs(p), abs(s)) for s in splits)
                assert connectedness_certificate(candidate, seq, n) == every, d
                outcomes.add(every)
            assert outcomes == {False, True}


class TestCrossoverScan:
    def test_2d_through_25(self, disks_sequence, squares_sequence):
        assert crossover_scan(disks_sequence, squares_sequence, 25) == [22, 23]

    def test_2d_through_83(self, disks_sequence, squares_sequence):
        assert crossover_scan(disks_sequence, squares_sequence, 83) == [22, 23, 83]

    def test_values_at_23(self, disks_sequence, squares_sequence):
        assert disks_sequence.value(23) == pytest.approx(252.21, abs=5e-3)
        assert squares_sequence.value(23) == pytest.approx(256.61, abs=5e-3)

    def test_2d_through_3000(self, sequences_3000):
        disks, squares = sequences_3000["disks"], sequences_3000["squares"]
        assert tuple(crossover_scan(disks, squares, 3000)) == (
            22, 23, 83, 142, 143, 185, 186, 187, 188, 189, 190,
            238, 239, 240, 241, 242, 243, 394, 395, 396, 397, 398, 471, 549, 550,
            730, 731, 732, 733, 734, 735, 736, 1107,
            1216, 1217, 1218, 1219, 1220, 1221, 1222, 1223, 1224, 1225,
            1483, 1484, 1485, 1486, 1701, 2502, 2503,
        )

    def test_dimension_mismatch_rejected(self, disks_sequence):
        seq3 = extremal_sequence(balls_class(), 5)
        with pytest.raises(ValueError):
            crossover_scan(disks_sequence, seq3, 5)

    def test_length_guard(self, disks_sequence, squares_sequence):
        with pytest.raises(ValueError):
            crossover_scan(disks_sequence, squares_sequence, 1000)

    def test_objective_mismatch_rejected(self, disks_sequence):
        # a maximizing and a minimizing sequence, either way round
        seq = extremal_sequence(dirichlet_disks_class(), 5)
        assert (disks_sequence.domain_class.sign, seq.domain_class.sign) == (1.0, -1.0)
        for a, b in ((disks_sequence, seq), (seq, disks_sequence)):
            with pytest.raises(ValueError, match="^sequences must share objective$"):
                crossover_scan(a, b, 5)

    @pytest.mark.parametrize("cls", [disks_class, dirichlet_disks_class])
    def test_margin_is_strict(self, cls):
        # b beats a only by more than REL_SCAN_TOL relative
        better, worse, up = _better_worse(cls, wolfkeller.REL_SCAN_TOL)

        def scan(a, b):
            return crossover_scan(extremal_sequence(cls(), 1, base_values=[a]),
                                  extremal_sequence(cls(), 1, base_values=[b]), 1)

        assert scan(worse, better) == []
        assert scan(worse, math.nextafter(better, up)) == [1]
        assert scan(better, worse) == []


class TestDirichletMirror:
    def test_min_check(self):
        check, seq = dirichlet_min_check()
        assert check.square_value == pytest.approx(20 * PI**2, rel=1e-12)
        assert check.disks_value > check.square_value
        assert check.disks_exceed_square

    def test_faber_krahn_head(self):
        seq = extremal_sequence(dirichlet_disks_class(), 3)
        assert seq.value(1) == pytest.approx(PI * 2.4048256**2, abs=1e-5)

    def test_krahn_two_equal_disks_at_2(self):
        seq = extremal_sequence(dirichlet_disks_class(), 3)
        packed = unpack_geometry(seq, 2)
        assert [c.volume for c in packed.components] == pytest.approx([0.5, 0.5])
        assert seq.value(2) == pytest.approx(2 * seq.value(1), rel=1e-12)

    def test_min_sequence_monotone(self):
        seq = extremal_sequence(dirichlet_disks_class(), 13)
        vals = [seq.value(n) for n in range(1, 14)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestExport:
    @pytest.mark.parametrize("name", sorted(CSV_3000_SHA256))
    def test_csv_3000_pinned(self, sequences_3000, name):
        text = sequences_3000[name].to_csv()
        assert hashlib.sha256(text.encode()).hexdigest() == CSV_3000_SHA256[name]

    @pytest.mark.parametrize("name", sorted(SPLIT_3000_SHA256))
    def test_split_values_3000_pinned(self, sequences_3000, name):
        seq = sequences_3000[name]
        text = "".join(f"{seq.split_value(n)!r}\n" for n in range(1, seq.K + 1))
        assert hashlib.sha256(text.encode()).hexdigest() == SPLIT_3000_SHA256[name]

    def test_csv_shape(self, disks_sequence):
        lines = disks_sequence.to_csv().splitlines()
        assert lines[0] == "n,value,provenance"
        assert lines[22].startswith("22,")
        assert lines[22].endswith(",2mu8+6mu1")
        assert len(lines) == disks_sequence.K + 1

    def test_csv_tie_rendering(self, squares_sequence):
        lines = squares_sequence.to_csv().splitlines()
        assert lines[9].endswith(",9mu1=mu9")

    def test_class_validation(self):
        # the boundary condition alone sets the objective: Neumann maximizes,
        # Dirichlet minimizes, and a class takes no objective of its own
        for bc, sign in (("neumann", 1.0), ("dirichlet", -1.0)):
            for shape in (spectra.disk(bc), spectra.square(bc), spectra.cube(bc)):
                assert wolfkeller.DomainClass("any", shape).sign == sign
        assert wolfkeller.DomainClass("balls", spectra.ball()).sign == 1.0
        with pytest.raises(TypeError):
            wolfkeller.DomainClass("bad", spectra.disk(), "maximize")


class TestThreeDimensional:
    def test_no_crossover_to_120(self):
        balls = extremal_sequence(balls_class(), 120)
        cubes = extremal_sequence(cubes_class(), 120)
        assert crossover_scan(balls, cubes, 120) == []

    def test_ball_class_head(self):
        balls = extremal_sequence(balls_class(), 3)
        # two equal balls beat one ball at n = 2: factor 2^(2/3)
        assert balls.value(2) == pytest.approx(
            balls.value(1) * 2 ** (2 / 3), rel=1e-12
        )
        assert isinstance(balls.decomposition(2), Split)
