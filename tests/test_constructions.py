"""Prescribed-mu_2 constructions and the convex eigenvalue bound."""

import math

import numpy as np
import pytest

from specpack import spectra
from specpack.constructions import (
    ConstructionError,
    kroger_bound,
    mu1_max,
    mu2_max,
    mu2_range_domain,
    verified_mu2,
)
from specpack.wolfkeller import disks_class, extremal_sequence, unpack_geometry

PI = math.pi


class TestRangeDomain:
    def test_zero_target_three_disks(self):
        domain = mu2_range_domain(0.0)
        assert len(domain.components) == 3
        mu1, mu2, mu3 = verified_mu2(domain)
        assert mu1 == 0.0 and mu2 == 0.0
        assert mu3 > 0.0

    def test_top_of_range_two_half_disks(self):
        t = mu2_max()
        domain = mu2_range_domain(t)
        assert [c.volume for c in domain.components] == pytest.approx([0.5, 0.5])
        _, mu2, _ = verified_mu2(domain)
        assert mu2 == pytest.approx(t, abs=1e-9)
        assert t == pytest.approx(21.30, abs=5e-3)

    def test_low_branch_example(self):
        t = PI**2
        domain = mu2_range_domain(t)  # default slack eps = min(t/100, 0.01)
        rect = domain.components[0].shape
        b = PI / math.sqrt(t)
        a = (t - 0.01) / (PI * math.sqrt(t))
        assert rect.sides == pytest.approx((a, b))
        mu1, mu2, _ = verified_mu2(domain)
        assert mu1 == 0.0
        assert mu2 == pytest.approx(t, abs=1e-9)
        assert domain.components[1].volume == 0.01 / t
        # area identity a*b + eps/t = 1 is exact by construction
        assert domain.total_volume == pytest.approx(1.0, abs=1e-15)

    def test_generic_midrange(self):
        for t in (5.0, 10.2, 15.0):
            mu0_, mu2, mu3 = verified_mu2(mu2_range_domain(t))
            assert mu0_ == 0.0
            assert mu2 == pytest.approx(t, abs=1e-9)

    def test_grid_of_100(self):
        top = mu2_max()
        for t in np.linspace(top / 100, top, 100):
            domain = mu2_range_domain(float(t))
            assert domain.total_volume == pytest.approx(1.0, abs=1e-12)
            mu1, mu2, mu3 = verified_mu2(domain)
            assert mu1 == 0.0
            assert mu2 == pytest.approx(float(t), abs=1e-9)
            if t <= mu1_max():
                # rectangle branches: mu_2 is simple, mu_3 strictly above
                assert mu3 > t
            else:
                # two disks: the supporting first disk mode is double
                assert mu3 >= mu2 - 1e-12

    def test_branch_boundaries_both_sides(self):
        # the boundary itself belongs to the lower construction
        for boundary, kinds_at, kinds_above in (
            (PI**2, ["rectangle", "disk"], ["rectangle", "disk"]),
            (mu1_max(), ["rectangle", "disk"], ["disk"]),
        ):
            above = math.nextafter(boundary, math.inf)
            for t, kinds in ((boundary, kinds_at), (above, kinds_above)):
                domain = mu2_range_domain(t)
                assert [c.shape.kind for c in domain.components] == kinds
                assert domain.total_volume == pytest.approx(1.0, abs=1e-12)
                _, mu2, _ = verified_mu2(domain)
                assert mu2 == pytest.approx(t, abs=1e-9)
        # just above pi^2 the rectangle is the high one: a unit side first
        rect = mu2_range_domain(math.nextafter(PI**2, math.inf)).components[0].shape
        assert rect.sides[0] > rect.sides[1]

    def test_out_of_range_rejected(self):
        with pytest.raises(ConstructionError):
            mu2_range_domain(-0.5)
        with pytest.raises(ConstructionError):
            mu2_range_domain(mu2_max() * 1.01)

    def test_filler_eigenvalue_strictly_above_target(self):
        for t in (2.0, 9.0, 10.4):
            domain = mu2_range_domain(t)
            for c in domain.components:
                if c.support_index is None:
                    first = spectra.spectrum_of(c.shape, 1).nonzero(1) / c.volume
                    assert first > t

    def test_low_filler_eigenvalue_raises(self, monkeypatch):
        # the filler check is verified, not assumed: a filler whose first
        # eigenvalue is not above t fails loudly
        from specpack import constructions
        from specpack.bessel import AccuracyError

        class ZeroSpectrum:
            def nonzero(self, k):
                return 0.0

        monkeypatch.setattr(constructions, "spectrum_of", lambda shape, k: ZeroSpectrum())
        with pytest.raises(AccuracyError, match="filler eigenvalue"):
            mu2_range_domain(5.0)

    def test_single_component_is_its_own_spectrum(self):
        # one unit disk: the union spectrum of a single part rescales it
        seq = extremal_sequence(disks_class(), 1)
        domain = unpack_geometry(seq, 1)
        assert len(domain.components) == 1
        assert verified_mu2(domain) == tuple(
            spectra.disk_spectrum("neumann", 3).nonzero_values()
        )


class TestKrogerBound:
    def test_unit_area_disk(self):
        d = 2 / math.sqrt(PI)
        bound = kroger_bound(1, d)
        assert bound == pytest.approx((2 * 2.4048256) ** 2 * PI / 4, abs=1e-4)
        assert bound >= 10.65

    def test_unit_square(self):
        bound = kroger_bound(1, math.sqrt(2))
        assert bound == pytest.approx(4.8096512**2 / 2, abs=1e-4)
        assert bound >= PI**2

    def test_validity_on_convex_catalog(self):
        rng = np.random.default_rng(7)
        shapes = [("disk", None)] + [("rect", 1.0)] + [
            ("rect", float(a)) for a in rng.uniform(1.0, 4.0, 5)
        ]
        for kind, aspect in shapes:
            if kind == "disk":
                spec = spectra.disk_spectrum("neumann", 20)
                diameter = 2 / math.sqrt(PI)
            else:
                a = math.sqrt(aspect)
                b = 1 / a
                spec = spectra.rectangle_spectrum(a, b, "neumann", 20)
                diameter = math.hypot(a, b)
            for m in range(1, 21):
                assert spec.nonzero(m) <= kroger_bound(m, diameter) * (1 + 1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kroger_bound(0, 1.0)
        with pytest.raises(ValueError):
            kroger_bound(1, 0.0)
        for diameter in (math.nan, math.inf):
            with pytest.raises(ValueError, match="diameter must be positive and finite"):
                kroger_bound(3, diameter)
        # a bound that underflows to 0.0 (no bound at all) or overflows, or a
        # diameter whose square underflows to 0.0
        for m, diameter in ((2, 1e200), (1, 1e-160), (2, 1e-200), (10**300, 1.0)):
            with pytest.raises(ValueError, match="^the bound is not a positive finite float$"):
                kroger_bound(m, diameter)
