"""Extremal recursion: values, provenance, packings, certificates, scans."""

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
# precision and every provenance expression, as the loop-based split search
# produced them
CSV_3000_SHA256 = {
    "disks": "1fc3d1ad7da020bd7587d708458f83b317227ab026cf56bb1c7d311b416cd6bb",
    "squares": "6a61cfec495f1a9ea4a7932fc8ef5f89e7192711fd47066825110358a6a290e9",
    "balls": "7d19ff5120753b6674da3d2d00958c6f4de4aca3089ad485f4562f93898ae197",
    "cubes": "a8fa03e2b683ba3183d4c94685fb1e4f3bfd17bd90357729bb0af993139c2ce2",
    "dirichlet-disks": "2ed011ee773a862bddc0ce59c341663d3bb9bdb9bf325d92268e00735cd99922",
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


@pytest.fixture(scope="module")
def sequences_3000():
    classes = (disks_class(), squares_class(), balls_class(), cubes_class(),
               dirichlet_disks_class())
    return {cls.name: extremal_sequence(cls, 3000) for cls in classes}


def _powers(seq):
    # the powers the recursion stores: the sign times _power of every value,
    # recomputed
    sign = seq.domain_class.sign
    return [None] + [sign * spectra._power(seq.value(n), seq.dimension)
                     for n in range(1, seq.K + 1)]


def _exhaustive_split(powers, n):
    # reference: every split sum at n, and the smallest j attaining the best
    h = n // 2
    sums = list(map(operator.add, powers[1:h + 1], powers[n - 1:n - h - 1:-1]))
    best = max(sums)
    return best, sums.index(best) + 1


def _record_sums(monkeypatch):
    # the (a, b) of every block of split sums the search forms, in order
    summed = []
    sums = wolfkeller._sums

    def recording(powers, n, a, b):
        summed.append((a, b))
        return sums(powers, n, a, b)

    monkeypatch.setattr(wolfkeller, "_sums", recording)
    return summed


def _partial_reaches(powers, n):
    # the partial block's bound against the seed, widened by the slack:
    # every sum at full < j <= h is at most
    # powers[h] + powers[n - full - 1] - (h - full - 1)*c
    B = wolfkeller.SPLIT_BLOCK
    h = n // 2
    full = h - h % B
    tops = [powers[a + B - 1] + powers[n - a] for a in range(1, full + 1, B)]
    a = 1 + B * tops.index(max(tops))
    seed = max(powers[i] + powers[n - i] for i in range(a, a + B))
    c = powers[1]
    bound = powers[h] + powers[n - full - 1] - (h - full - 1) * c
    slack = wolfkeller.SPLIT_SLACK * (abs(seed) + B * abs(c))
    return bound >= seed - slack


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
        assert seq.expression(2000, ascii_form=True) == "2000*mu1"

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
        # the Dirichlet disks minimize: their signed powers are negative
        seq = sequences_3000[name]
        powers = _powers(seq)
        for n in range(2, seq.K + 1):
            assert wolfkeller._best_split(powers, n) == _exhaustive_split(powers, n)

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

    @pytest.mark.parametrize("n", [20, 31, 2000, 2015, 2016, 2999])
    def test_blocks_cut_under_both_objectives(self, monkeypatch, sequences_3000, n):
        # h < 16 sums its one block; larger n sums each block at most once and
        # skips most whole blocks under either objective
        summed = _record_sums(monkeypatch)
        h = n // 2
        full = h - h % wolfkeller.SPLIT_BLOCK
        for seq in (sequences_3000["disks"], sequences_3000["dirichlet-disks"]):
            powers = _powers(seq)
            summed.clear()
            assert wolfkeller._best_split(powers, n) == _exhaustive_split(powers, n)
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
            self, monkeypatch, sequences_3000, name, n, reaches):
        # a skipped partial block holds no sum as good as the best; at these
        # balls and cubes n it holds the best j itself
        summed = _record_sums(monkeypatch)
        powers = _powers(sequences_3000[name])
        h = n // 2
        full = h - h % wolfkeller.SPLIT_BLOCK
        best, j = wolfkeller._best_split(powers, n)
        assert (best, j) == _exhaustive_split(powers, n)
        assert _partial_reaches(powers, n) == reaches
        assert ((full + 1, h) in summed) == reaches
        partial = [powers[i] + powers[n - i] for i in range(full + 1, h + 1)]
        assert (j > full) == reaches
        assert (max(partial) == best) == reaches


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
        assert lines[22].endswith(",2*mu8+6*mu1")
        assert len(lines) == disks_sequence.K + 1

    def test_csv_tie_rendering(self, squares_sequence):
        lines = squares_sequence.to_csv().splitlines()
        assert lines[9].endswith(",9*mu1=mu9")

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
