"""Spectrum generators: values, multiplicities, completeness, unions."""

import ast
import functools
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import oracle_positive_zeros, oracle_zeros

import specpack
from specpack import bessel, constructions, spectra, wolfkeller
from specpack.spectra import (
    ball_spectrum,
    box_spectrum,
    cube,
    disk,
    disk_spectrum,
    rectangle,
    rectangle_spectrum,
    spectrum_of,
    square,
    union_spectrum,
)

PI = math.pi


class TestDiskSpectrum:
    def test_neumann_head(self):
        spec = disk_spectrum("neumann", 2)
        vals = spec.nonzero_values()
        assert vals[0] == pytest.approx(10.650, abs=1e-3)
        assert vals[1] == pytest.approx(10.650, abs=1e-3)

    def test_neumann_eighth(self):
        assert disk_spectrum("neumann", 8).nonzero(8) == pytest.approx(
            88.833, abs=1e-3
        )

    def test_dirichlet_head(self):
        assert disk_spectrum("dirichlet", 1).nonzero(1) == pytest.approx(
            PI * 2.4048256**2, abs=1e-5
        )

    def test_multiplicities(self):
        spec = disk_spectrum("neumann", 12)
        by_label = {m.label: m.multiplicity for m in spec.modes}
        assert by_label[(1, 1)] == 2
        assert by_label[(0, 2)] == 1

    def test_order0_labels_follow_shifted_ranks(self):
        labels = [m.label for m in disk_spectrum("neumann", 20).modes]
        zero_order = [l for l in labels if l[0] == 0]
        assert zero_order[:2] == [(0, 2), (0, 3)]
        # Dirichlet ranks are unshifted
        labels_d = [m.label for m in disk_spectrum("dirichlet", 20).modes]
        assert (0, 1) in labels_d


class TestDiskRange:
    @staticmethod
    def _check_neumann(k, monkeypatch):
        def fresh_spectrum(k):
            monkeypatch.setitem(bessel._TABLES, "bessel_prime", bessel.ZeroTable("bessel_prime"))
            return disk_spectrum("neumann", k)

        big = fresh_spectrum(k)
        assert big.nonzero_values(k - 500) == fresh_spectrum(k - 500).nonzero_values()
        # two-term Weyl law for the unit-area disk (perimeter 2 sqrt(pi)),
        # counting mu_0 = 0: N(lam) ~ lam / (4 pi) + 2 sqrt(pi) sqrt(lam) / (4 pi)
        lam = big.nonzero(k)
        weyl = lam / (4 * PI) + 2 * math.sqrt(PI * lam) / (4 * PI)
        assert abs(weyl / (k + 1) - 1.0) < 0.005

    def test_neumann_7000(self, monkeypatch):
        # tabulates zeros up to x ~ 168, at orders up to 163
        self._check_neumann(7000, monkeypatch)

    def test_neumann_10000(self, monkeypatch):
        # tabulates zeros up to x ~ 202, at orders up to 196
        self._check_neumann(10000, monkeypatch)


class TestRectangleSpectrum:
    def test_square_neumann(self):
        vals = rectangle_spectrum(1, 1, "neumann", 8).nonzero_values()
        assert vals[0] == pytest.approx(PI**2, rel=1e-12)
        assert vals[1] == pytest.approx(PI**2, rel=1e-12)
        assert vals[7] == pytest.approx(8 * PI**2, rel=1e-12)

    def test_two_by_half(self):
        assert rectangle_spectrum(2, 0.5, "neumann", 1).nonzero(1) == pytest.approx(
            PI**2 / 4, rel=1e-12
        )

    def test_square_dirichlet_13(self):
        assert rectangle_spectrum(1, 1, "dirichlet", 13).nonzero(13) == pytest.approx(
            20 * PI**2, rel=1e-12
        )

    def test_dirichlet_excludes_zero_indices(self):
        labels = [m.label for m in rectangle_spectrum(1, 1, "dirichlet", 10).modes]
        assert all(j >= 1 and k >= 1 for j, k in labels)

    @pytest.mark.parametrize("shape", [square(), spectra.box(1.0, 2.0, 3.0)],
                             ids=["square", "box"])
    def test_walk_skips_an_axis_end_rounded_up(self, shape):
        # one ulp below the mode value (3 pi)^2 the first axis still runs to
        # c = 3, which leaves a negative budget: the walk skips it and lists
        # exactly the modes that an exact count over the float pi puts at or
        # below the ceiling
        lam = math.nextafter((3 * PI) ** 2, 0.0)
        side = shape.sides[0]
        end = int(side * math.sqrt(lam) / PI)
        assert lam - (PI * end / side) ** 2 < 0
        labels = {m.label for m in spectra._lattice_walk(shape, 100)(lam)}
        exact = {
            c for c in itertools.product(range(10), repeat=len(shape.sides))
            if any(c) and Fraction(PI) ** 2 * sum(
                Fraction(ci) ** 2 / Fraction(si) ** 2 for ci, si in zip(c, shape.sides)
            ) <= Fraction(lam)
        }
        assert labels == exact and (end, 0) + (0,) * (len(shape.sides) - 2) not in labels


class TestBallSpectrum:
    def test_triple_ground_mode(self):
        vals = ball_spectrum("neumann", 3).nonzero_values()
        radius = (3 / (4 * PI)) ** (1 / 3)
        a11 = oracle_positive_zeros("spherical_prime", 1, 1)[0]
        expected = (a11 / radius) ** 2
        assert vals == pytest.approx([expected] * 3, rel=1e-9)

    def test_multiplicity_is_2p_plus_1(self):
        spec = ball_spectrum("neumann", 30)
        for m in spec.modes:
            assert m.multiplicity == 2 * m.label[0] + 1

    def test_rescaled_eighth_volume(self):
        spec = ball_spectrum("neumann", 1)
        assert spec.rescaled(1 / 8).nonzero(1) == pytest.approx(
            4 * spec.nonzero(1), rel=1e-12
        )

    def test_dirichlet_rejected(self):
        with pytest.raises(ValueError):
            ball_spectrum("dirichlet", 3)


class TestBoxSpectrum:
    def test_cube_head(self):
        vals = box_spectrum(1, 1, 1, "neumann", 4).nonzero_values()
        assert vals[:3] == pytest.approx([PI**2] * 3, rel=1e-12)
        assert vals[3] == pytest.approx(2 * PI**2, rel=1e-12)

    def test_anisotropic(self):
        assert box_spectrum(2, 1, 0.5, "neumann", 1).nonzero(1) == pytest.approx(
            PI**2 / 4, rel=1e-12
        )


class TestCompleteness:
    """First 30 eigenvalues against generously padded brute force."""

    def test_disk_both_bcs(self):
        for bc, kind in (("neumann", "bessel_prime"), ("dirichlet", "bessel")):
            vals = spectra.disk_spectrum(bc, 30).nonzero_values()
            brute = []
            for m in range(0, 36):
                for z in oracle_zeros(kind, m, 12):
                    brute.extend([PI * z * z] * (1 if m == 0 else 2))
            brute.sort()
            assert vals == pytest.approx(brute[:30], abs=1e-9)

    def test_ball(self):
        radius = (3 / (4 * PI)) ** (1 / 3)
        vals = ball_spectrum("neumann", 30).nonzero_values()
        brute = []
        for p in range(0, 30):
            for z in oracle_positive_zeros("spherical_prime", p, 10, step=2e-3):
                brute.extend([(z / radius) ** 2] * (2 * p + 1))
        brute.sort()
        assert vals == pytest.approx(brute[:30], abs=1e-9)

    def test_rectangle(self):
        a, b = 1.7, 1 / 1.7
        vals = rectangle_spectrum(a, b, "neumann", 30).nonzero_values()
        j, k = np.meshgrid(np.arange(0, 60), np.arange(0, 60))
        brute = np.sort(
            (PI**2 * (j**2 / a**2 + k**2 / b**2)).ravel()
        )[1:]  # drop the (0,0) constant mode
        assert vals == pytest.approx(list(brute[:30]), abs=1e-9)

    def test_box(self):
        vals = box_spectrum(1, 1, 1, "neumann", 30).nonzero_values()
        r = np.arange(0, 25)
        j, k, l = np.meshgrid(r, r, r)
        brute = np.sort((PI**2 * (j**2 + k**2 + l**2)).ravel())[1:]
        assert vals == pytest.approx(list(brute[:30]), abs=1e-9)


CEILING_SHAPES = {
    "disk-n": disk("neumann"),
    "disk-d": disk("dirichlet"),
    "ball": spectra.ball(),
    "square-n": square("neumann"),
    "square-d": square("dirichlet"),
    "rect-2x0.5": rectangle(2.0, 0.5),
    "cube": cube(),
}


class TestCeiling:
    """The padded two-term Weyl ceiling covers the first k modes at once."""

    @pytest.mark.parametrize("name", sorted(CEILING_SHAPES))
    def test_no_retry(self, name, monkeypatch):
        calls = []
        adaptive = spectra._adaptive_modes

        def counted(enumerate_below, k, lam0):
            def below(lam):
                calls.append(lam)
                return enumerate_below(lam)

            return adaptive(below, k, lam0)

        monkeypatch.setattr(spectra, "_adaptive_modes", counted)
        for k in (1, 2, 13, 22, 25, 100, 2950, 2975, 3000):
            calls.clear()
            spectrum_of(CEILING_SHAPES[name], k)
            assert len(calls) == 1, (name, k, calls)

    @pytest.mark.parametrize("name", ["disk-n", "ball", "square-d"])
    def test_short_ceiling_is_retried(self, name, monkeypatch):
        shape = CEILING_SHAPES[name]
        full = spectrum_of(shape, 200)
        monkeypatch.setattr(spectra, "_weyl_ceiling", lambda shape, k: 1.0)
        assert spectrum_of(shape, 200) == full

    def test_short_first_ceiling_is_raised(self):
        # asked for two modes, listed in descending order: the first ceiling
        # holds one (no prefix of two), the second holds both but the second
        # at the ceiling itself, not strictly below it, and the third holds
        # both strictly below it, in ascending order
        lam0 = 1.2
        modes = [spectra.Mode((2,), lam0 * 1.6), spectra.Mode((1,), 1.0)]
        calls = []

        def below(lam):
            calls.append(lam)
            return [m for m in modes if m.value <= lam]

        assert spectra._adaptive_modes(below, 2, lam0) == modes[::-1]
        assert calls == [lam0, lam0 * 1.6, lam0 * 1.6 * 1.6]

    def test_sort_matches_tuple_key(self):
        # ascending values, equal values by descending label, as the tuple
        # key (value, -label) orders them, on the 3133 modes of the first
        # ceiling of a 3000-mode cube, in a shuffled order
        lam = spectra._weyl_ceiling(cube(), 3000) * 1.02 + spectra._weyl_ceiling(cube(), 4)
        modes = spectra._lattice_walk(cube(), 3000)(lam)
        assert len(modes) == 3133
        np.random.default_rng(22).shuffle(modes)
        key = sorted(modes, key=lambda m: (m.value, tuple(-c for c in m.label)))
        assert spectra._sort_modes(modes) == key

    def test_ceiling_that_never_covers_raises(self):
        with pytest.raises(RuntimeError, match="failed to converge"):
            spectra._adaptive_modes(lambda lam: [], 1, 1.0)

    def test_long_rectangle_enumerates_few_modes(self, monkeypatch):
        # the 3.2e-11 x 3.1e10 rectangle of `construct --t 1e-20`: a fixed
        # additive pad on the ceiling would list ~5e10 modes along its long side
        counts = []
        adaptive = spectra._adaptive_modes

        def counted(enumerate_below, k, lam0):
            def below(lam):
                modes = enumerate_below(lam)
                counts.append(len(modes))
                return modes

            return adaptive(below, k, lam0)

        monkeypatch.setattr(spectra, "_adaptive_modes", counted)
        spectrum_of(rectangle(0.99e-10 / PI, PI * 1e10), 3)
        assert len(counts) == 1 and counts[0] <= 40, counts

    def test_two_term_count(self):
        # the ceiling inverts N(lam) = lam / (4 pi) + 2 sqrt(pi) sqrt(lam) / (4 pi)
        # for the unit-area Neumann disk, and its - sign counterpart for Dirichlet
        for bc, sign in (("neumann", 1.0), ("dirichlet", -1.0)):
            lam = spectra._weyl_ceiling(disk(bc), 3000)
            count = lam / (4 * PI) + sign * 2 * math.sqrt(PI * lam) / (4 * PI)
            assert count == pytest.approx(3000, rel=1e-12)
        # 3D: V lam^(3/2) / 6 pi^2 + S lam / 16 pi for the unit cube (S = 6)
        lam = spectra._weyl_ceiling(cube(), 3000)
        count = lam**1.5 / (6 * PI**2) + 6 * lam / (16 * PI)
        assert count == pytest.approx(3000, rel=1e-12)
        # rectangles (0.99/pi) sqrt(t) x pi/sqrt(t) of `construct --t t`: the
        # boundary term dominates, so (k/a)^(1/2) + b/a lies orders of
        # magnitude above the root
        for t in (1e-20, 1e-50, 1e-300):
            a, b = 0.99 * math.sqrt(t) / PI, PI / math.sqrt(t)
            lam = spectra._weyl_ceiling(rectangle(a, b), 3)
            count = a * b * lam / (4 * PI) + 2 * (a + b) * math.sqrt(lam) / (4 * PI)
            assert count == pytest.approx(3, rel=1e-12)


class TestScalingLaw:
    def test_exact_common_factor(self):
        for spec in (
            disk_spectrum("neumann", 10),
            rectangle_spectrum(1, 1, "neumann", 10),
            ball_spectrum("neumann", 10),
        ):
            for vol in (0.25, 0.5, 2.0):
                factor = (1 / vol) ** (2 / spec.dimension)
                scaled = spec.rescaled(vol)
                for a, b in zip(scaled.nonzero_values(), spec.nonzero_values()):
                    assert a == pytest.approx(factor * b, rel=1e-12)

    def test_multiplicity_bookkeeping(self):
        for spec in (disk_spectrum("neumann", 25), ball_spectrum("neumann", 25)):
            assert len(spec.expanded) == sum(m.multiplicity for m in spec.modes)

    def test_weyl_monotone(self):
        for spec in (
            disk_spectrum("neumann", 40),
            rectangle_spectrum(1.3, 1 / 1.3, "dirichlet", 40),
            ball_spectrum("neumann", 40),
        ):
            vals = spec.nonzero_values()
            assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestUnionSpectrum:
    def test_two_half_disks(self):
        d = disk_spectrum("neumann", 5)
        u = union_spectrum([(d, 0.5), (d, 0.5)], 5)
        assert u.eigenvalue(1) == 0.0
        assert u.eigenvalue(2) == pytest.approx(21.30, abs=5e-3)

    def test_three_equal_disks(self):
        d = disk_spectrum("neumann", 5)
        u = union_spectrum([(d, 1 / 3)] * 3, 5)
        assert u.eigenvalue(2) == 0.0
        assert u.eigenvalue(3) == pytest.approx(31.95, abs=5e-3)

    def test_single_part_identity(self):
        d = disk_spectrum("neumann", 8)
        u = union_spectrum([(d, 1.0)], 8)
        assert u.nonzero_values() == d.nonzero_values()

    def test_permutation_invariance(self):
        d = disk_spectrum("neumann", 12)
        s = rectangle_spectrum(1, 1, "neumann", 12)
        u1 = union_spectrum([(d, 0.2), (s, 0.5), (d, 0.3)], 12)
        u2 = union_spectrum([(s, 0.5), (d, 0.3), (d, 0.2)], 12)
        assert u1.nonzero_values() == u2.nonzero_values()

    def test_mixed_bc_rejected(self):
        with pytest.raises(ValueError):
            union_spectrum(
                [(disk_spectrum("neumann", 3), 0.5),
                 (disk_spectrum("dirichlet", 3), 0.5)],
                3,
            )

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValueError):
            union_spectrum(
                [(disk_spectrum("neumann", 3), 0.5),
                 (ball_spectrum("neumann", 3), 0.5)],
                3,
            )

    def test_bad_count_or_parts_rejected(self):
        d = disk_spectrum("neumann", 3)
        with pytest.raises(ValueError, match="k must be >= 1"):
            union_spectrum([(d, 1.0)], 0)
        with pytest.raises(ValueError, match="parts must be nonempty"):
            union_spectrum([], 3)
        with pytest.raises(ValueError, match="volume must be positive and finite"):
            union_spectrum([(d, 0.5), (d, math.nan)], 3)

    def test_dirichlet_union_indexing(self):
        d = disk_spectrum("dirichlet", 4)
        u = union_spectrum([(d, 0.5), (d, 0.5)], 4)
        # no zero modes under Dirichlet
        assert u.eigenvalue(1) == pytest.approx(2 * d.nonzero(1), rel=1e-12)

    def test_short_parts_rejected(self):
        d = disk_spectrum("neumann", 3)
        with pytest.raises(ValueError):
            union_spectrum([(d, 0.5), (d, 0.5)], 10)


@functools.lru_cache(maxsize=None)
def _small_sequence(cls):
    return wolfkeller.extremal_sequence(cls(), 5)


class TestSpectrumChecks:
    def test_bad_indices_rejected(self):
        neumann = disk_spectrum("neumann", 3)
        held = len(neumann.expanded)
        with pytest.raises(IndexError, match=f"holds {held} nonzero eigenvalues, asked for {held + 1}"):
            neumann.nonzero_values(held + 1)
        # below an index's base a ValueError, past what is held an IndexError
        with pytest.raises(ValueError, match="^i must be >= 1, got 0$"):
            neumann.nonzero(0)
        with pytest.raises(ValueError, match="^i must be >= 0, got -1$"):
            neumann.eigenvalue(-1)
        with pytest.raises(ValueError, match="^i must be >= 1, got 0$"):
            disk_spectrum("dirichlet", 3).eigenvalue(0)

    def test_index_queries_read_modes_only_as_far_as_asked(self):
        class Unreadable:
            def __getattr__(self, name):
                raise AssertionError(f"mode read past the query: .{name}")

        modes = (spectra.Mode("a", 1.0, 1), spectra.Mode("b", 2.0, 2), Unreadable())
        spec = spectra.Spectrum("neumann", 2, 1.0, 1, modes, 4)
        assert spec.nonzero(1) == 1.0
        assert spec.nonzero_values(2) == [1.0, 2.0]
        assert spec.nonzero(3) == 2.0
        assert spec.eigenvalue(1) == 1.0
        assert spec.eigenvalue(0) == 0.0
        assert spec.nonzero_values(0) == []

    @pytest.mark.parametrize("volume", [0.0, -1.0, math.nan, math.inf])
    def test_rescaled_needs_positive_finite_volume(self, volume):
        with pytest.raises(ValueError, match="volume must be positive and finite"):
            disk_spectrum("neumann", 3).rescaled(volume)

    @pytest.mark.parametrize("spec, volume", [
        # the values, about 10, times 1e308 overflow to inf
        (lambda: disk_spectrum("neumann", 3), 1e-308),
        # the values, about 10, times 1e-600 underflow to 0.0
        (lambda: rectangle_spectrum(1e-300, 1.0, "neumann", 3), 1e300),
    ], ids=["inf", "zero"])
    def test_rescaled_needs_positive_finite_eigenvalues(self, spec, volume):
        message = "an eigenvalue is not a positive finite float"
        with pytest.raises(ValueError, match=message):
            spec().rescaled(volume)
        with pytest.raises(ValueError, match=message):
            union_spectrum([(spec(), volume)], 3)

    def test_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            disk_spectrum("neumann", 0)

    @pytest.mark.parametrize("call, name, bad", [
        (lambda t, v: t.positive_zero(v, 1), "order", 1.5),
        (lambda t, v: t.positive_zero(1, v), "k", 2.0),
        (lambda t, v: t.zeros_below(v, 10.0), "order", 2.0),
        (lambda t, v: disk_spectrum("neumann", v), "k", 2.5),
        (lambda t, v: ball_spectrum("neumann", v), "k", 3.0),
        (lambda t, v: rectangle_spectrum(1.0, 1.0, "neumann", v), "k", 2.5),
        (lambda t, v: box_spectrum(1.0, 1.0, 1.0, "dirichlet", v), "k", "3"),
        (lambda t, v: union_spectrum([(rectangle_spectrum(1.0, 1.0, "neumann", 3), 1.0)], v),
         "k", 2.5),
        (lambda t, v: wolfkeller.extremal_sequence(wolfkeller.disks_class(), v), "K", 3.0),
        (lambda t, v: wolfkeller.crossover_scan(_small_sequence(wolfkeller.disks_class),
                                                _small_sequence(wolfkeller.squares_class), v),
         "K", 3.0),
        (lambda t, v: wolfkeller.connectedness_certificate(
            30.0, _small_sequence(wolfkeller.disks_class), v), "n", 3.0),
        (lambda t, v: _small_sequence(wolfkeller.disks_class).value(v), "n", 2.0),
        (lambda t, v: _small_sequence(wolfkeller.disks_class).split_value(v), "n", 2.0),
        (lambda t, v: _small_sequence(wolfkeller.disks_class).leaf_counts(v), "n", 2.0),
        (lambda t, v: _small_sequence(wolfkeller.disks_class).expression(v), "n", 2.0),
        (lambda t, v: wolfkeller.unpack_geometry(_small_sequence(wolfkeller.disks_class), v),
         "n", 2.0),
        (lambda t, v: disk_spectrum("neumann", 5).nonzero_values(v), "k", 2.5),
        (lambda t, v: disk_spectrum("neumann", 5).nonzero(v), "i", 2.0),
        (lambda t, v: disk_spectrum("neumann", 5).eigenvalue(v), "i", 2.0),
        (lambda t, v: constructions.kroger_bound(v, 1.0), "m", 2.5),
    ], ids=["zero-order", "zero-rank", "zeros-below-order", "disk", "ball", "rectangle",
            "box", "union", "recursion", "scan", "certificate", "value", "split-value",
            "leaf-counts", "expression", "geometry", "nonzero-values", "nonzero",
            "eigenvalue", "kroger"])
    def test_counts_orders_and_ranks_are_integers(self, call, name, bad):
        # one rule for every count, order and rank: a ValueError before any
        # work for anything but an int or a numpy integer
        table = bessel.ZeroTable("bessel")
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
            call(table, bad)
        assert table._orders == {}
        plain, numpy = call(table, 3), call(table, np.int64(3))
        if isinstance(plain, wolfkeller.ExtremalSequence):
            assert type(numpy.K) is int
            plain, numpy = plain.to_csv(), numpy.to_csv()
        elif isinstance(plain, spectra.Spectrum):
            assert type(numpy.count) is int
        assert numpy == plain

    @pytest.mark.parametrize("call, name, low", [
        *[(lambda t, v, f=f: f(v, 1.0), "order", 0) for f in (
            specpack.bessel_j, specpack.bessel_j_prime,
            specpack.spherical_bessel_j, specpack.spherical_bessel_j_prime)],
        (lambda t, v: bessel.ZeroIndex(v, 1), "order", 0),
        (lambda t, v: bessel.ZeroIndex(0, v), "rank", 1),
        (lambda t, v: t.positive_zero(v, 1), "order", 0),
        (lambda t, v: t.positive_zero(1, v), "k", 1),
        (lambda t, v: t.zeros_below(v, 10.0), "order", 0),
        (lambda t, v: disk_spectrum("neumann", v), "k", 1),
        (lambda t, v: ball_spectrum("neumann", v), "k", 1),
        (lambda t, v: rectangle_spectrum(1.0, 1.0, "neumann", v), "k", 1),
        (lambda t, v: box_spectrum(1.0, 1.0, 1.0, "dirichlet", v), "k", 1),
        (lambda t, v: union_spectrum([(rectangle_spectrum(1.0, 1.0, "neumann", 3), 1.0)], v),
         "k", 1),
        (lambda t, v: disk_spectrum("neumann", 5).nonzero_values(v), "k", 0),
        (lambda t, v: disk_spectrum("neumann", 5).nonzero(v), "i", 1),
        (lambda t, v: disk_spectrum("neumann", 5).eigenvalue(v), "i", 0),
        (lambda t, v: disk_spectrum("dirichlet", 5).eigenvalue(v), "i", 1),
        (lambda t, v: wolfkeller.extremal_sequence(wolfkeller.disks_class(), v), "K", 1),
        (lambda t, v: _small_sequence(wolfkeller.disks_class).value(v), "n", 1),
        (lambda t, v: _small_sequence(wolfkeller.disks_class).split_value(v), "n", 1),
        (lambda t, v: _small_sequence(wolfkeller.disks_class).leaf_counts(v), "n", 1),
        (lambda t, v: wolfkeller.unpack_geometry(_small_sequence(wolfkeller.disks_class), v),
         "n", 1),
        (lambda t, v: wolfkeller.connectedness_certificate(
            30.0, _small_sequence(wolfkeller.disks_class), v), "n", 1),
        (lambda t, v: wolfkeller.crossover_scan(_small_sequence(wolfkeller.disks_class),
                                                _small_sequence(wolfkeller.squares_class), v),
         "K", 1),
        (lambda t, v: constructions.kroger_bound(v, 1.0), "m", 1),
    ], ids=["bessel-j", "bessel-j-prime", "spherical-j", "spherical-j-prime",
            "index-order", "index-rank", "zero-order", "zero-rank", "zeros-below-order",
            "disk", "ball", "rectangle", "box", "union", "nonzero-values", "nonzero",
            "mu", "lambda", "recursion", "value", "split-value", "leaf-counts", "geometry",
            "certificate", "scan", "kroger"])
    def test_indices_below_their_base_rejected(self, call, name, low):
        # one rule for the base of every index (mu_0, lambda_1, order 0,
        # rank 1, ...): a ValueError before any work one below it
        table = bessel.ZeroTable("bessel")
        with pytest.raises(ValueError, match=f"^{name} must be >= {low}, got {low - 1}$"):
            call(table, low - 1)
        assert table._orders == {}


class TestCsvExport:
    def test_header_and_digits(self):
        text = disk_spectrum("neumann", 5).to_csv()
        lines = text.splitlines()
        assert lines[0] == "index,value,multiplicity,label"
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[1] == f"{disk_spectrum('neumann', 5).nonzero(1):.10g}"

    def test_indices_advance_by_multiplicity(self):
        text = ball_spectrum("neumann", 9).to_csv()
        rows = [line.split(",") for line in text.splitlines()[1:]]
        indices = [int(r[0]) for r in rows]
        mults = [int(r[2]) for r in rows]
        for i in range(1, len(indices)):
            assert indices[i] == indices[i - 1] + mults[i - 1]


class TestShapeValidation:
    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            rectangle(0.0, 1.0)
        for side in (math.nan, math.inf):
            with pytest.raises(ValueError, match="rectangle needs two positive sides"):
                rectangle(1.0, side)
            with pytest.raises(ValueError, match="box needs three positive sides"):
                spectra.box(1.0, side, 1.0)
        with pytest.raises(ValueError, match="box needs three positive sides"):
            spectra.DomainShape("box", "neumann", (1.0, 1.0))
        for sides in ((1.0,), (1.0, 1.0, 1.0)):
            with pytest.raises(ValueError, match="rectangle needs two positive sides"):
                spectra.DomainShape("rectangle", "neumann", sides)
        with pytest.raises(ValueError, match="unknown boundary condition 'robin'"):
            disk("robin")
        with pytest.raises(ValueError):
            spectra.DomainShape("disk", "neumann", (1.0,))
        with pytest.raises(ValueError):
            spectra.DomainShape("pentagon")
        with pytest.raises(ValueError, match="the ball spectrum is Neumann-only"):
            spectra.DomainShape("ball", "dirichlet")
        with pytest.raises(ValueError, match="the ball spectrum is Neumann-only"):
            spectra.ball("dirichlet")

    @pytest.mark.parametrize("build, message", [
        # sides whose product or sum is inf or 0.0
        (lambda: rectangle_spectrum(1e300, 1e300, "neumann", 3), "rectangle needs"),
        (lambda: rectangle_spectrum(1e-200, 1e-200, "neumann", 3), "rectangle needs"),
        (lambda: rectangle_spectrum(1e-200, 1e-200, "dirichlet", 3), "rectangle needs"),
        (lambda: box_spectrum(1e-120, 1e-120, 1e-120, "neumann", 3), "box needs"),
        (lambda: box_spectrum(1e200, 1e200, 1e200, "neumann", 3), "box needs"),
        # a volume of 1, but a first eigenvalue of about 1e-399, which
        # rounds to 0.0 with the ceiling
        (lambda: rectangle_spectrum(1e200, 1e-200, "neumann", 3), "ceiling"),
        # a volume of 5e-324, whose Weyl coefficient underflows to 0.0
        (lambda: rectangle_spectrum(2.2e-162, 2.2e-162, "neumann", 3), "ceiling"),
    ], ids=["huge", "tiny-neumann", "tiny-dirichlet", "tiny-box", "huge-box", "long",
            "subnormal-volume"])
    def test_extreme_sides_refused_before_any_walk(self, build, message, monkeypatch):
        def no_walk(*args):
            raise AssertionError("the modes were enumerated")

        monkeypatch.setattr(spectra, "_adaptive_modes", no_walk)
        with pytest.raises(ValueError, match=message):
            build()

    def test_thin_shapes_end_at_once(self):
        # a needle along either end axis, and a thin Dirichlet rectangle and
        # box: their first ceilings would let the lattice walk run an axis to
        # about 1e53 values or more, which the cap of k + 1 values per axis
        # cuts to a few.  In a child process, so that a walk that loses its
        # cap fails in 30 s instead of holding the suite
        code = (
            "import time; from specpack.spectra import box_spectrum as b, "
            "rectangle_spectrum as r\n"
            "out = []\n"
            "for f, args in ((b, (1e-105, 1e-105, 1, 'neumann', 3)), "
            "(b, (1, 1e-105, 1e-105, 'neumann', 3)), "
            "(r, (1e-150, 1.0, 'dirichlet', 3)), "
            "(b, (1e-105, 1e-105, 1, 'dirichlet', 3))):\n"
            "    t = time.perf_counter(); modes = f(*args).modes\n"
            "    out.append((time.perf_counter() - t, "
            "[(m.value, m.label) for m in modes]))\n"
            "print(repr(out))"
        )
        src = str(Path(specpack.__file__).parents[1])
        cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=30)
        assert cp.returncode == 0, cp.stderr
        runs = ast.literal_eval(cp.stdout)
        assert all(seconds < 1.0 for seconds, _ in runs), runs
        needle = [9.869604401089358, 39.47841760435743, 88.82643960980423]
        assert runs[0][1] == [(v, (0, 0, c)) for c, v in enumerate(needle, 1)]
        assert runs[1][1] == [(v, (c, 0, 0)) for c, v in enumerate(needle, 1)]
        for (_, modes), head, value in ((runs[2], (1,), PI**2 * 1e300),
                                        (runs[3], (1, 1), 2 * PI**2 * 1e210)):
            values, labels = zip(*modes)
            assert len(set(values)) == 1 and values[0] == pytest.approx(value, rel=1e-15)
            assert sorted(labels) == [head + (c,) for c in (1, 2, 3)]

    def test_dimensions_and_volumes(self):
        assert disk().dimension == 2
        assert cube().dimension == 3
        assert rectangle(2.0, 0.5).volume == pytest.approx(1.0)
        assert square().describe() == "rectangle 1x1"
        assert spectra.box(2, 0.5, 1.5).describe() == "box 2x0.5x1.5"
