"""Special-function values, zero tables, and their independent oracles."""

import hashlib
import math
import random
import re
import sys
import time
from collections import namedtuple

import pytest
from conftest import oracle_positive_zeros, spherical_series

import specpack
from specpack import _kernels_py, backend, bessel, spectra
from specpack.bessel import (
    AccuracyError,
    ZeroIndex,
    ZeroTable,
    bessel_j,
    bessel_j_prime,
    bessel_j_zero,
    bessel_jprime_zero,
    spherical_bessel_j,
    spherical_bessel_j_prime,
    spherical_jprime_zero,
)

PI = math.pi


class TestBesselJ:
    def test_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0
        assert bessel_j(7, 0.0) == 0.0

    def test_first_zero_of_j0(self):
        assert abs(bessel_j(0, 2.404826)) < 1e-6

    def test_against_scipy_grid(self):
        from scipy import special as sp

        for m in (0, 1, 2, 5, 8, 13, 21, 34):
            x = 0.05
            while x < 200.0:
                mine = bessel_j(m, x)
                ref = sp.jv(m, x)
                assert mine == pytest.approx(ref, rel=1e-10, abs=1e-13)
                x *= 1.37
        # relative accuracy away from zeros of J
        for m, x in ((0, 1.0), (3, 11.5), (10, 60.0), (25, 150.0), (0, 199.0)):
            ref = sp.jv(m, x)
            assert abs(bessel_j(m, x) - ref) <= 1e-11 * max(abs(ref), 1e-2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bessel_j(-1, 1.0)
        with pytest.raises(ValueError):
            bessel_j(0, -1.0)
        with pytest.raises(ValueError):
            bessel_j(0, math.inf)


class TestBesselJPrime:
    def test_at_zero(self):
        assert bessel_j_prime(0, 0.0) == 0.0
        assert bessel_j_prime(1, 0.0) == 0.5

    def test_first_zero_of_j1_prime(self):
        assert abs(bessel_j_prime(1, 1.841184)) < 1e-6

    def test_finite_difference_consistency(self):
        h = 1e-5
        for m in range(0, 9):
            x = 0.3
            while x <= 50.0:
                fd = (bessel_j(m, x + h) - bessel_j(m, x - h)) / (2 * h)
                assert abs(bessel_j_prime(m, x) - fd) <= 1e-6
                x += 1.7

    def test_against_scipy_grid(self):
        from scipy import special as sp

        # the grid of TestBesselJ: series (x < 8) and Miller region
        for m in (0, 1, 2, 5, 8, 13, 21, 34):
            x = 0.05
            while x < 200.0:
                assert bessel_j_prime(m, x) == pytest.approx(
                    sp.jvp(m, x), rel=1e-10, abs=1e-13
                )
                x *= 1.37


class TestSphericalBessel:
    def test_closed_form_j0(self):
        assert spherical_bessel_j(0, PI) == pytest.approx(0.0, abs=1e-12)
        assert spherical_bessel_j(0, PI / 2) == pytest.approx(2 / PI, abs=1e-12)
        for x in (0.1, 1.0, 4.7, 22.0):
            assert spherical_bessel_j(0, x) == pytest.approx(
                math.sin(x) / x, abs=1e-12
            )

    def test_closed_form_j1(self):
        for x in (0.1, 1.0, 4.7, 22.0):
            ref = math.sin(x) / x**2 - math.cos(x) / x
            assert spherical_bessel_j(1, x) == pytest.approx(ref, abs=1e-12)

    def test_against_series_low_orders(self):
        for p in range(0, 6):
            for x in (0.2, 0.9, 2.5, 5.0, 8.0):
                assert spherical_bessel_j(p, x) == pytest.approx(
                    spherical_series(p, x), rel=1e-11, abs=1e-13
                )

    def test_half_integer_bessel_relation(self):
        from scipy import special as sp

        for p in (0, 1, 2, 7, 19, 40):
            for x in (0.5, 3.3, 12.0, 47.0):
                ref = math.sqrt(PI / (2 * x)) * sp.jv(p + 0.5, x)
                assert spherical_bessel_j(p, x) == pytest.approx(
                    ref, rel=1e-10, abs=1e-13
                )

    def test_derivative_against_scipy_grid(self):
        from scipy import special as sp

        for p in (0, 1, 2, 5, 8, 13, 21, 34):
            x = 0.05
            while x < 200.0:
                ref = sp.spherical_jn(p, x, derivative=True)
                assert spherical_bessel_j_prime(p, x) == pytest.approx(
                    ref, rel=1e-10, abs=1e-13
                )
                x *= 1.37

    def test_derivative_vanishes_at_tabulated_zero(self):
        assert abs(spherical_bessel_j_prime(1, 2.0816)) < 1e-3
        z = spherical_jprime_zero(ZeroIndex(1, 1))
        assert abs(spherical_bessel_j_prime(1, z)) < 1e-12

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            spherical_bessel_j(0, 0.0)
        with pytest.raises(ValueError):
            spherical_bessel_j_prime(2, -1.0)


EVALUATORS = {
    "bessel_j": "bessel_j",
    "bessel_j_prime": "bessel_j_prime",
    "spherical_bessel_j": "spherical_j",
    "spherical_bessel_j_prime": "spherical_j_prime",
}

# x far below every zero, down to the smallest subnormal
TINY_X = [1e-5, 1e-8, 1e-50, 1e-150, 1e-200, 5e-324]


def _mp_evaluator(mp, name, order, x):
    # the public evaluator in mpmath: j_p = sqrt(pi/2x) J_{p+1/2} and
    # j'_p = (p/x) j_p - j_{p+1} (DLMF 10.47.3, 10.51.2)
    if name == "bessel_j":
        return mp.besselj(order, x)
    if name == "bessel_j_prime":
        return mp.besselj(order, x, derivative=1)

    def sph(p):
        return mp.sqrt(mp.pi / (2 * x)) * mp.besselj(p + mp.mpf(0.5), x)

    return sph(order) if name == "spherical_bessel_j" else order / x * sph(order) - sph(order + 1)


# sha256 of the four public evaluators' reprs on the grid of
# TestPublicEvaluators.test_values_pinned
EVALUATORS_SHA256 = "3e6cdd61bbdc4776f483a5a64c6e47a2cedd7af7c52bd453cdd4625d1b5dac72"


class TestPublicEvaluators:
    """The four public evaluators are the kernels' own, input checks included."""

    @pytest.mark.parametrize("name", sorted(EVALUATORS))
    def test_public_name_is_the_kernel(self, name):
        kernel = getattr(backend.kernels, EVALUATORS[name])
        assert getattr(specpack, name) is kernel
        assert getattr(bessel, name) is kernel

    def test_values_pinned(self):
        # every bit of the four evaluators on a grid across both sides of the
        # series/recurrence seam at x = 1e-3 and of x = 8, the
        # deep-evanescent orders included; a kernel change that moves one
        # value moves this digest
        orders = [*range(12), 40, 150]
        seam = _kernels_py._SERIES_SEAM
        xs = [0.37 * i for i in range(1, 120)] + [8.0 - 2.0**-50, 8.0, 8.0 + 2.0**-49,
                                                  math.nextafter(seam, 0.0), seam,
                                                  math.nextafter(seam, 1.0)]
        digest = hashlib.sha256()
        for name in sorted(EVALUATORS):
            f = getattr(specpack, name)
            digest.update(" ".join(repr(f(n, x)) for n in orders for x in xs).encode())
        assert digest.hexdigest() == EVALUATORS_SHA256

    @pytest.mark.parametrize("name,order,x,message", [
        *[pytest.param(name, -1, 1.0, "order must be >= 0, got -1",
                       id=f"{name}--1-1.0-order must be >= 0") for name in sorted(EVALUATORS)],
        *[(name, 0, x, "x must be finite and >= 0")
          for name in ("bessel_j", "bessel_j_prime") for x in (-1.0, math.inf, math.nan)],
        *[(name, 0, x, "x must be finite and > 0")
          for name in ("spherical_bessel_j", "spherical_bessel_j_prime")
          for x in (-1.0, 0.0, math.inf, math.nan)],
        # refused before any work: a float order failed deep in the Miller
        # loop or in range(), or gave J'_{1/2}(0) = 0.0 at its pole
        *[(name, order, x, f"order must be an integer, got {order!r}")
          for name in sorted(EVALUATORS) for order in (2.0, 0.5, 1.5, "1")
          for x in (0.0 if name.startswith("bessel") else 1e-4, 2.0)],
    ])
    def test_error_messages(self, name, order, x, message):
        with pytest.raises(ValueError) as exc:
            getattr(specpack, name)(order, x)
        assert str(exc.value) == message

    @pytest.mark.parametrize("name", sorted(EVALUATORS))
    def test_numpy_integer_order(self, name):
        import numpy as np

        f = getattr(specpack, name)
        got = f(np.int64(3), 2.0)
        assert type(got) is float and got == f(3, 2.0)

    @pytest.mark.parametrize("name,order,x,ref", [
        # the rescale branch of _backward for J below x = 8
        ("bessel_j", 150, 5.0, lambda sp: sp.jv(150, 5.0)),
        # the rescale branch of _backward for J (x >= 8, far below the order)
        ("bessel_j", 200, 9.0, lambda sp: sp.jv(200, 9.0)),
        ("bessel_j_prime", 200, 9.0, lambda sp: sp.jvp(200, 9.0)),
        # the rescale branch of _backward for j
        ("spherical_bessel_j", 200, 9.0, lambda sp: sp.spherical_jn(200, 9.0)),
    ])
    def test_deep_evanescent_against_scipy(self, name, order, x, ref):
        from scipy import special as sp

        assert getattr(specpack, name)(order, x) == pytest.approx(ref(sp), rel=1e-12, abs=0)

    @pytest.mark.parametrize("x", TINY_X)
    @pytest.mark.parametrize("order", range(4))
    @pytest.mark.parametrize("name", sorted(EVALUATORS))
    def test_tiny_x_against_mpmath(self, name, order, x):
        # far below the zeros: the closed forms of j cancel, x * x and the
        # recurrence's c/x overflow or underflow.  Each value is within 1e-12
        # of 30-digit mpmath, or where the true value underflows, 0.0 or a
        # subnormal of its sign within one subnormal step
        import mpmath as mp

        got = getattr(specpack, name)(order, x)
        with mp.workdps(30):
            ref = _mp_evaluator(mp, name, order, mp.mpf(x))
            if abs(ref) >= sys.float_info.min:
                assert got == pytest.approx(float(ref), rel=1e-12, abs=0)
            else:
                assert abs(got - ref) <= 5e-324
                assert math.copysign(1.0, got) == mp.sign(ref)

    @pytest.mark.parametrize("name", sorted(EVALUATORS))
    def test_recurrence_bound(self, name):
        # x = 1e300 would take about 1e300 steps of backward recurrence
        with pytest.raises(ValueError, match="backward recurrence would take more than"):
            getattr(specpack, name)(2, 1e300)

    def test_recurrence_bound_edge(self):
        # J_m(9) recurs from order m + 40: exactly MAX_RECURRENCE steps run,
        # one more is refused
        assert _kernels_py._recurrence_start(9.0, 999_959) == _kernels_py.MAX_RECURRENCE
        assert bessel_j(999_960, 9.0) == 0.0
        with pytest.raises(ValueError, match="backward recurrence"):
            bessel_j(999_961, 9.0)

    def test_one_rule_at_series_seam(self):
        # below x = 1e-3 the series serves every order, its leading power cut
        # short once it underflows to 0, so order 10^7 takes microseconds;
        # from 1e-3 on every evaluator recurs backward at every order, and
        # MAX_RECURRENCE refuses that order there, as it refuses j_0 and j_1
        # at x = 1e300
        seam = _kernels_py._SERIES_SEAM
        for name in sorted(EVALUATORS):
            f = getattr(specpack, name)
            start = time.perf_counter()
            assert f(10**7, math.nextafter(seam, 0.0)) == 0.0
            assert time.perf_counter() - start < 0.1
            for order, x in ((10**7, seam), (10**7, 5.0), (0, 1e300), (1, 1e300)):
                with pytest.raises(ValueError, match="backward recurrence would take more than"):
                    f(order, x)

    @pytest.mark.parametrize("name", sorted(EVALUATORS))
    def test_sampled_against_mpmath(self, name):
        # seeded (x, order) samples in [1e-3, 8), x uniform and log-uniform
        # in turn so that both ends are sampled: each value within 16 eps of
        # max |f_{m-1}|, |f_m|, |f_{m+1}| of 40-digit mpmath (a power series
        # of J cancels near 8, closed forms of j and j' near 1e-3; the Miller
        # pass stays within 4 eps)
        import mpmath as mp

        f = getattr(specpack, name)
        rng = random.Random(22)
        with mp.workdps(40):
            for i in range(150):
                x = rng.uniform(1e-3, 8.0) if i % 2 else 1e-3 * 8000.0 ** rng.random()
                order = rng.randrange(12)
                ref = {m: _mp_evaluator(mp, name, m, mp.mpf(x))
                       for m in range(max(order - 1, 0), order + 2)}
                err = abs(f(order, x) - ref[order]) / max(abs(r) for r in ref.values())
                assert err <= 16 * sys.float_info.epsilon, (x, order, float(err))

    @pytest.mark.parametrize("name,order,x,rel", [
        # deep in the evanescent zone below x = 8
        ("bessel_j", 150, 5.0, 1e-14),
        ("bessel_j_prime", 150, 5.0, 1e-14),
        # just above the series seam, where the closed forms of j_1 and j'_1
        # cancel to about eps/x^2
        *[(name, order, x, 1e-15)
          for name, order in (("spherical_bessel_j", 1), ("spherical_bessel_j_prime", 0),
                              ("spherical_bessel_j_prime", 1))
          for x in (1e-3, 1e-2)],
    ])
    def test_points_against_mpmath(self, name, order, x, rel):
        import mpmath as mp

        with mp.workdps(40):
            ref = float(_mp_evaluator(mp, name, order, mp.mpf(x)))
        assert getattr(specpack, name)(order, x) == pytest.approx(ref, rel=rel, abs=0)

    def test_j_prime_below_series_seam_in_ulps(self):
        # J' below the seam comes from its own derivative series: at the
        # orders of test_values_pinned, every normal value lies within
        # 3.67 ulp of 40-digit mpmath, the worst error on this grid of the
        # difference form (J_{m-1} - J_{m+1})/2 of two series values (order
        # 40 just below the seam)
        import mpmath as mp

        xs = [10.0**-e for e in (150, 100, 50, 20, 10, 8, 6, 5, 4)]
        xs += [2e-4, 5e-4, math.nextafter(_kernels_py._SERIES_SEAM, 0.0)]
        with mp.workdps(40):
            for order in [*range(12), 40, 150]:
                for x in xs:
                    ref = mp.besselj(order, mp.mpf(x), derivative=1)
                    if abs(ref) >= sys.float_info.min:
                        err = abs(bessel_j_prime(order, x) - ref) / math.ulp(float(ref))
                        assert err <= 3.67, (order, x, float(err))


def _backward_per_step(x, lo, start, shift):
    # the backward recurrence with every test at every step: the reference
    # that _backward must match bit for bit.  Also returns how often it
    # rescaled
    vnext, vcur, esum = 0.0, 1e-30, 0.0
    va = vb = vc = 0.0
    c = 2.0 * start + shift
    rescales = 0
    for k in range(start, 0, -1):
        if not (k & 1):
            esum += vcur
        vprev = c / x * vcur - vnext
        c -= 2.0
        if k == lo + 1:
            va, vb, vc = vprev, vcur, vnext
        vnext, vcur = vcur, vprev
        if abs(vcur) > _kernels_py._RESCALE_AT:
            by = _kernels_py._RESCALE_BY
            vcur, vnext, esum, va, vb, vc = (v * by for v in (vcur, vnext, esum, va, vb, vc))
            rescales += 1
    return (va, vb, vc, vcur, vnext, esum), rescales


class TestBackward:
    """``_backward`` runs unchecked pairs of steps inside a growth-bound
    budget; every result is the bits of the loop that tests every step."""

    def test_bit_identical_to_per_step_loop(self):
        rng = random.Random(20)
        cases = [
            (9.0, 199, 0),  # J_200(9) and j_200(9): one rescale each
            (9.0, 199, 1),
            (9.0, 1500, 0),  # many rescales
            (1.0, 600, 1),
            (1e-280, 2, 1),  # c/x = 6e281: budget 0 from the start
            (5e-324, 2, 1),  # c/x overflows
        ]
        cases += [(rng.uniform(0.5, 8.0), rng.randrange(300), shift) for shift in (0, 1)
                  for _ in range(100)]
        cases += [(rng.uniform(8.0, 200.0), rng.randrange(300), shift) for shift in (0, 1)
                  for _ in range(100)]
        cases += [(rng.uniform(0.5, 200.0), 0, shift) for shift in (0, 1) for _ in range(20)]
        seen = set()
        for x, lo, shift in cases:
            for start in (_kernels_py._recurrence_start(x, lo) + odd for odd in (0, 1)):
                ref, rescales = _backward_per_step(x, lo, start, shift)
                got = _kernels_py._backward(x, lo, start, shift)
                assert repr(got) == repr(ref), (x, lo, start, shift)
                seen.add(("shift", shift))
                seen.add(("odd start", start & 1))
                seen.add(("x >= 8", int(x >= 8.0)))
                seen.add(("lo > 0", min(lo, 1)))
                seen.add(("rescales", min(rescales, 2)))
        features = ("shift", "odd start", "x >= 8", "lo > 0", "rescales")
        assert seen == {(f, v) for f in features for v in (0, 1)} | {("rescales", 2)}
        # where one step can exceed the rescale threshold, the budget is 0
        # from the start
        c = 2 * _kernels_py._recurrence_start(1e-280, 2) + 1
        assert math.log1p(c / 1e-280) > math.log(0.5 * _kernels_py._RESCALE_AT / 1e-30)


class TestZeroTables:
    def test_bad_kind_and_address_rejected(self):
        with pytest.raises(ValueError, match="unknown zero kind 'hankel'"):
            ZeroTable("hankel")
        table = ZeroTable("bessel")
        for order, k, message in ((-1, 1, "order must be >= 0, got -1"),
                                  (0, 0, "k must be >= 1, got 0")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                table.positive_zero(order, k)

    @pytest.mark.parametrize("kind", bessel.KINDS)
    def test_zeros_below_rejects_negative_order(self, kind):
        message = "order must be >= 0, got -1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ZeroTable(kind).zeros_below(-1, 5.0)

    def test_jprime_first_zero(self):
        assert bessel_jprime_zero(ZeroIndex(1, 1)) == pytest.approx(
            1.8411838, abs=1e-6
        )

    def test_paper_style_disk_eigenvalues(self):
        # pi * zero^2 for the modes heading the tabulated disk spectrum
        assert PI * bessel_jprime_zero(ZeroIndex(1, 1)) ** 2 == pytest.approx(
            10.650, abs=1e-3
        )
        assert PI * bessel_jprime_zero(ZeroIndex(2, 1)) ** 2 == pytest.approx(
            29.306, abs=1e-3
        )
        assert PI * bessel_jprime_zero(ZeroIndex(0, 2)) ** 2 == pytest.approx(
            46.125, abs=1e-3
        )

    def test_j_zeros(self):
        assert bessel_j_zero(ZeroIndex(0, 1)) == pytest.approx(2.4048256, abs=1e-6)
        assert bessel_j_zero(ZeroIndex(1, 1)) == pytest.approx(3.8317060, abs=1e-6)

    def test_spherical_zeros(self):
        # first positive root of tan x = x
        assert spherical_jprime_zero(ZeroIndex(0, 1)) == pytest.approx(
            4.4934095, abs=1e-6
        )
        assert spherical_jprime_zero(ZeroIndex(1, 1)) == pytest.approx(
            2.0815760, abs=1e-6
        )

    def test_rank_monotonicity(self):
        for kind in bessel.KINDS:
            table = bessel.default_table(kind)
            for order in (0, 1, 4):
                zs = [table.positive_zero(order, k) for k in range(1, 8)]
                assert zs == sorted(zs)
                assert zs[0] > 0.0

    def test_trivial_rank_rejected_for_jprime_order0(self):
        with pytest.raises(ValueError, match="rank 1"):
            bessel_jprime_zero(ZeroIndex(0, 1))
        # rank 2 is the first strictly positive zero (= first zero of J_1)
        assert bessel_jprime_zero(ZeroIndex(0, 2)) == pytest.approx(
            bessel_j_zero(ZeroIndex(1, 1)), abs=1e-10
        )

    def test_zero_index_validation(self):
        import numpy as np

        with pytest.raises(ValueError, match=r"^order must be >= 0, got -1$"):
            ZeroIndex(-1, 1)
        with pytest.raises(ValueError, match=r"^rank must be >= 1, got 0$"):
            ZeroIndex(0, 0)
        with pytest.raises(ValueError, match=r"^order must be an integer, got 1.5$"):
            ZeroIndex(1.5, 1)
        with pytest.raises(ValueError, match=r"^rank must be an integer, got 2.0$"):
            ZeroIndex(1, 2.0)
        idx = ZeroIndex(np.int64(1), np.int64(2))
        assert idx == (1, 2) and type(idx.order) is type(idx.rank) is int

    def test_no_fixed_range(self):
        from scipy import special as sp

        # the 100th zero of J_0 sits near x = 313
        zero = ZeroTable("bessel").positive_zero(0, 100)
        assert zero == pytest.approx(sp.jn_zeros(0, 100)[-1], rel=1e-12)
        with pytest.raises(ValueError):
            ZeroTable("bessel").zeros_below(0, math.inf)
        with pytest.raises(ValueError, match="need a finite x"):
            ZeroTable("bessel").entries_below(math.inf)

    def test_positive_zero_grows_twice(self, monkeypatch):
        # the first growth step reaches 40 + 2 pi = 46.28, short of
        # j_{40,1} = 46.648, so a second one reaches 52.57: for J the first
        # zero lies past order + 2 pi from order 34 on
        from scipy import special as sp

        steps = []
        settle = ZeroTable._settle
        monkeypatch.setattr(ZeroTable, "_settle", lambda self, order, x: (
            steps.append((order, x)) or settle(self, order, x)))
        zero = ZeroTable("bessel").positive_zero(40, 1)
        assert zero == pytest.approx(sp.jn_zeros(40, 1)[0], rel=1e-12)
        assert steps == [(40, pytest.approx(40 + 2 * PI)), (40, pytest.approx(40 + 4 * PI))]

    @pytest.mark.parametrize("query", [
        lambda: ZeroTable("bessel").zeros_below(0, 1e300),
        lambda: ZeroTable("bessel_prime").positive_zero(0, 10**9),
    ], ids=["zeros_below", "positive_zero"])
    def test_recurrence_bound(self, query, monkeypatch):
        # both would need passes of far more than MAX_RECURRENCE steps, and
        # about x^2 work in all; they are refused before any pass
        def no_pass(*args):
            raise AssertionError("a kernel pass ran")

        monkeypatch.setattr(bessel.kernels, "evaluate", no_pass)
        monkeypatch.setattr(bessel.kernels, "next_zero", no_pass)
        with pytest.raises(ValueError, match="backward recurrence would take more than"):
            query()

    @pytest.mark.parametrize("query", [
        lambda: ZeroTable("bessel").zeros_below(0, 9e5),
        lambda: ZeroTable("bessel_prime").positive_zero(0, 10**5),
        lambda: ZeroTable("bessel_prime").positive_zero(10**5, 1),
        lambda: ZeroTable("bessel_prime").entries_below(2857.0),
    ], ids=["zeros_below", "positive_zero_rank", "positive_zero_order", "entries_below"])
    def test_work_bound(self, query, monkeypatch):
        # each pass stays within MAX_RECURRENCE, but the whole query would
        # take from 5e10 to 1e15 steps (hours at least); it is refused before
        # any pass.  The walk of entries_below (a 2-million-mode disk) is
        # refused as a whole, although its queries up to order 56 would pass
        def no_pass(*args):
            raise AssertionError("a kernel pass ran")

        monkeypatch.setattr(bessel.kernels, "evaluate", no_pass)
        monkeypatch.setattr(bessel.kernels, "next_zero", no_pass)
        with pytest.raises(ValueError, match="query too large: .* more than 1e\\+09"):
            query()

    @pytest.mark.parametrize("x", TINY_X)
    @pytest.mark.parametrize("kind", bessel.KINDS)
    def test_nothing_below_tiny_x(self, kind, x):
        # at 5e-324 J'_0 and j'_0 underflow to -0.0; the count below pi needs
        # no sign: the trivial zero is the only one there
        table = ZeroTable(kind)
        assert table.zeros_below(0, x) == [] and table.entries_below(x) == {}
        assert table._count[0] == 0

    def test_residuals_of_all_cached_zeros(self):
        evaluators = {
            "bessel_prime": bessel_j_prime,
            "bessel": bessel_j,
            "spherical_prime": spherical_bessel_j_prime,
        }
        for kind in bessel.KINDS:
            table = bessel.default_table(kind)
            table.positive_zero(3, 5)
            for idx, z in table.entries().items():
                assert abs(evaluators[kind](idx.order, z)) <= 1e-9

    def test_interlacing(self):
        # j'_{m,n} < j_{m,n} < j'_{m,n+1} for m <= 10, n <= 10
        jp = bessel.default_table("bessel_prime")
        jz = bessel.default_table("bessel")
        for m in range(0, 11):
            off = 1 if m == 0 else 0
            for n in range(1, 11):
                zp = jp.positive_zero(m, n)
                # align the shifted order-0 ranks so both count positive zeros
                z = jz.positive_zero(m, n + off)
                zp_next = jp.positive_zero(m, n + 1)
                assert zp < z < zp_next

    def test_oracle_equivalence_sample(self):
        for kind, order in (("bessel_prime", 0), ("bessel_prime", 3),
                            ("bessel", 2), ("spherical_prime", 4)):
            table = bessel.default_table(kind)
            ref = oracle_positive_zeros(kind, order, 4, step=1e-3)
            for k in range(1, 5):
                assert table.positive_zero(order, k) == pytest.approx(
                    ref[k - 1], abs=1e-8
                )

    def test_first_zero_lower_bound(self):
        # classical lower bound j'_{m,1} > sqrt(m(m+2))
        jp = bessel.default_table("bessel_prime")
        for m in range(0, 41):
            assert jp.positive_zero(m, 1) ** 2 > m * (m + 2)

    def test_spherical_first_zero_monotone_in_order(self):
        # the first zeros grow with the order from p = 1 on
        sph = bessel.default_table("spherical_prime")
        firsts = [sph.positive_zero(p, 1) for p in range(0, 41)]
        # p = 0 is the lone exception (4.49 > 2.08): its trivial zero at
        # x = 0 leads the interlacing with p = 1
        assert all(a < b for a, b in zip(firsts[1:], firsts[2:]))
        assert firsts[0] > firsts[1]


FreshTable = namedtuple("FreshTable", "table passes zeros found refined")
Refined = namedtuple("Refined", "order lo hi guess zero passes")


def _fresh_table(name, k):
    """A fresh zero table grown by the k-mode Neumann or Dirichlet disk
    spectrum or the Neumann ball spectrum: the table, the kernel passes
    (series/Miller passes of the finder and of its sign checks) that growing
    it took, a snapshot of the zeros it then held (``entries()``; later
    queries grow the table itself), the zeros as the finder returned them,
    before the reporting grid (the first argument of ``_grid_value``), keyed
    alike, and one ``Refined`` per zero found: the (lo, hi, guess) of
    ``_bracket`` as ``next_zero`` was given it, the zero it returned and the
    passes it took."""
    kind = {"neumann": "bessel_prime", "dirichlet": "bessel", "ball": "spherical_prime"}[name]
    table = ZeroTable(kind)
    passes = []
    found = {}
    refined = []
    fn = _kernels_py._pass
    next_zero = _kernels_py.next_zero
    grid_value = bessel._grid_value

    def recorded(zero, lo):
        value, resume = grid_value(zero, lo)
        found[value] = zero
        return value, resume

    def counted(code, order, lo, hi, guess, sign_lo):
        before = len(passes)
        result = next_zero(code, order, lo, hi, guess, sign_lo)
        refined.append(Refined(order, lo, hi, guess, result[0], len(passes) - before))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(bessel._TABLES, kind, table)
        mp.setattr(_kernels_py, "_pass", lambda *a: passes.append(1) or fn(*a))
        mp.setattr(_kernels_py, "next_zero", counted)
        mp.setattr(bessel, "_grid_value", recorded)
        if name == "ball":
            spectra.ball_spectrum("neumann", k)
        else:
            spectra.disk_spectrum(name, k)
    zeros = table.entries()
    return FreshTable(table, len(passes), zeros, {idx: found[z] for idx, z in zeros.items()},
                      refined)


@pytest.fixture(scope="module")
def disk_tables_3000():
    return {bc: _fresh_table(bc, 3000) for bc in ("neumann", "dirichlet")}


@pytest.fixture(scope="module")
def ball_table_3000():
    return _fresh_table("ball", 3000)


# sha256 of repr(sorted(entries().items())) of the fresh tables that the
# K = 3000 spectra grow, and the kernel passes that growing each one took
TABLES_3000 = {
    "neumann": ("9f4af24dd5f37941c63b6464b870d3a9dccbc20f08516d8405718fd51a1740f1", 1750),
    "dirichlet": ("9071537246b2efd0395c2fadd606e4511eddbcea20d41a2406d28b4a6e9968c4", 1738),
    "ball": ("94bb0d3b437068258923ea62dc615e9e34296e4ff9334097e0d9a1245811652a", 274),
}


def _zeros_by_order(table):
    out = {}
    for idx, z in sorted(table.entries().items(), key=lambda item: (item[0].order, item[1])):
        out.setdefault(idx.order, []).append(z)
    return out


# x up to which a 3000-mode disk build tabulated zeros under the one-term
# Weyl ceiling 1.3 * 4 pi k + 30
REACH_3000 = math.sqrt((1.3 * 4.0 * PI * 3000 + 30.0) / PI)


def _exact_sign(kind, m, x):
    """The sign, 1 or -1, of J'_m(x) (kind "bessel_prime") or j'_m(x)
    ("spherical_prime") at a float x > 0, decided in integers.

    Each is a positive multiple of S = sum_k u_k, u_k = (-1)^k (2k + m) q_k,
    with q_0 = 1 and q_k = q_{k-1} y / d(k): y = x^2/4 and d(i) = i (i + m)
    for J'_m, y = x^2/2 and d(i) = i (2m + 2i + 1) for j'_m (the ascending
    series, DLMF 10.2.2 and 10.53.1).  With x = a/2^s, y = A/2^E exactly, and
    Horner gives the sum of u_0 .. u_N as num/den in integers.  N starts
    where |u_{k+1}/u_k| <= 1/2 for every k > N, so the rest is at most
    2 |u_{N+1}|; the sign of num is that of S once |num/den| exceeds that
    bound, and N doubles until it does."""
    a, b = x.as_integer_ratio()  # b = 2^s
    A = a * a
    E = 2 * (b.bit_length() - 1) + (2 if kind == "bessel_prime" else 1)

    def d(i):
        return i * (i + m) if kind == "bessel_prime" else i * (2 * m + 2 * i + 1)

    # the ratio |u_{k+1}/u_k| = y (2k + 2 + m) / ((2k + m) d(k + 1)) falls with k
    N = 1
    while 2 * A * (2 * N + 4 + m) > (2 * N + 2 + m) * d(N + 2) << E:
        N += 1
    while True:
        num, den = (-1) ** N * (2 * N + m), 1
        for k in range(N - 1, -1, -1):
            den *= d(k + 1) << E
            num = (-1) ** k * (2 * k + m) * den + A * num
        # |num| / den > 2 |u_{N+1}|, both sides times den
        if abs(num) * d(N + 1) << E > 2 * (2 * N + 2 + m) * A ** (N + 1):
            return 1 if num > 0 else -1
        N *= 2


def _ulps_away(x, k):
    """The floats k ulp below and above x > 0."""
    lo = hi = x
    for _ in range(k):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
    return lo, hi


class TestZeroOracle:
    def test_disk_tables_match_scipy(self, disk_tables_3000):
        from scipy import special as sp

        # scipy's jnp_zeros(0, .) starts at 3.83, like the stored positive zeros
        for bc, oracle in (("neumann", sp.jnp_zeros), ("dirichlet", sp.jn_zeros)):
            table = disk_tables_3000[bc].table
            m = 0
            while table.zeros_below(m, REACH_3000):
                m += 1
            checked = 0
            for order, zs in _zeros_by_order(table).items():
                ref = oracle(order, len(zs))
                worst = max(abs(z - r) for z, r in zip(zs, ref))
                assert worst <= 1e-12, (bc, order, worst)
                checked += len(zs)
            assert checked > 1900

    @pytest.mark.parametrize("name", ["neumann", "dirichlet", "ball"])
    def test_found_zeros_against_mpmath(self, name, disk_tables_3000, ball_table_3000):
        # each zero as the finder returned it, before the reporting grid,
        # against the root of the 40-digit mpmath function next to it (the
        # ranks are checked against scipy above), within 1.5 ulp: every zero
        # below x = 8 (10 of J', 7 of J, 10 of j'), where a power series of
        # J would leave some 9 ulp off, and a seeded sample of 120 of the rest
        import mpmath as mp

        fresh = ball_table_3000 if name == "ball" else disk_tables_3000[name]
        evaluator = {"neumann": "bessel_j_prime", "dirichlet": "bessel_j",
                     "ball": "spherical_bessel_j_prime"}[name]
        found = sorted(fresh.found.items())
        below_8 = [item for item in found if item[1] < 8.0]
        assert len(below_8) == {"neumann": 10, "dirichlet": 7, "ball": 10}[name]
        sample = random.Random(21).sample([item for item in found if item not in below_8], 120)
        with mp.workdps(40):
            for idx, zero in below_8 + sample:
                root = mp.findroot(
                    lambda x: _mp_evaluator(mp, evaluator, idx.order, x), mp.mpf(zero))
                ulps = float(abs(zero - root)) / math.ulp(float(root))
                assert ulps <= 1.5, (idx, zero, ulps)


    def test_exact_sign_against_mpmath(self):
        # 60 seeded (order, x) per kind, each where 30-digit mpmath gives
        # |f| > 1e-10, so that its sign is not in doubt
        import mpmath as mp

        rng = random.Random(16)
        with mp.workdps(30):
            for kind, name in (("bessel_prime", "bessel_j_prime"),
                               ("spherical_prime", "spherical_bessel_j_prime")):
                checked = 0
                while checked < 60:
                    m, x = rng.randrange(0, 60), rng.uniform(0.01, 120.0)
                    value = _mp_evaluator(mp, name, m, mp.mpf(x))
                    if abs(value) > 1e-10:
                        assert _exact_sign(kind, m, x) == mp.sign(value), (kind, m, x)
                        checked += 1

    @pytest.mark.parametrize("name", ["neumann", "ball"])
    def test_found_zeros_change_sign_exactly(self, name, disk_tables_3000, ball_table_3000):
        # each zero as the finder returned it has f_m change sign, exactly,
        # between its neighbouring floats: from (-1)^i below to -(-1)^i
        # above, where i counts the zeros of order m below it, the trivial
        # zero at x = 0 included; and f_{m+1} has the sign (-1)^i at it
        # (interlacing).  One zero, J'_{26,1} = 28.41807483456036, is 1.008
        # ulp below the true zero, so it changes sign only within 2 ulp.
        # All 155 ball zeros are checked; of the 1,547 disk zeros every one
        # below x = 30 and a sample of 300 of the rest, drawn by
        # random.Random(16).sample from the rest in (order, rank) order
        kind = "spherical_prime" if name == "ball" else "bessel_prime"
        fresh = ball_table_3000 if name == "ball" else disk_tables_3000[name]
        found = sorted(fresh.found.items())
        assert len(found) == {"neumann": 1547, "ball": 155}[name]
        if name == "neumann":
            low = [item for item in found if item[1] < 30.0]
            found = low + random.Random(16).sample([item for item in found if item[1] >= 30.0],
                                                   300)
        two_ulp = []
        for idx, zero in found:
            m = idx.order
            i = idx.rank - 1 + (kind == "spherical_prime" and m == 0)
            parity = (-1) ** i
            lo, hi = _ulps_away(zero, 1)
            if (_exact_sign(kind, m, lo), _exact_sign(kind, m, hi)) != (parity, -parity):
                two_ulp.append(idx)
                lo, hi = _ulps_away(zero, 2)
                assert (_exact_sign(kind, m, lo), _exact_sign(kind, m, hi)) == (parity, -parity)
            assert _exact_sign(kind, m + 1, zero) == parity, idx
        assert two_ulp == ([ZeroIndex(26, 1)] if name == "neumann" else [])

class TestOrder0Cells:
    """The theorem the order-0 count rests on: counting the trivial zero at
    x = 0 as zero 0 where there is one, zero i of order 0 lies strictly
    inside (i pi, (i+1) pi), here at least 0.69 from either end."""

    K = 2000

    def test_zeros_inside_cells(self):
        import numpy as np
        from scipy import optimize
        from scipy import special as sp

        def g(x):
            # x^2 j_1(x), with one root in ((k - 1/2) pi, (k + 1/2) pi)
            return math.sin(x) - x * math.cos(x)

        k = np.arange(1, self.K + 1)
        tan_roots = np.array([optimize.brentq(g, (i - 0.5) * PI, (i + 0.5) * PI, xtol=1e-14)
                              for i in k])
        cells = (
            (sp.jn_zeros(0, self.K), k - 1.0, k),  # J_0, zero k - 1
            (sp.jn_zeros(1, self.K), k, k + 0.5),  # J'_0 = -J_1, zero k
            (tan_roots, k, k + 0.5),  # j'_0 = -j_1, zero k
        )
        for zeros, lo, hi in cells:
            assert np.all((lo * PI < zeros) & (zeros < hi * PI))
            gap = np.minimum(zeros - np.floor(zeros / PI) * PI,
                             np.ceil(zeros / PI) * PI - zeros)
            assert gap.min() >= 0.69

    @pytest.mark.parametrize("f", [bessel_j, bessel_j_prime, spherical_bessel_j_prime])
    def test_sign_at_multiples_of_pi(self, f):
        # i zeros of order 0 lie below i pi, the trivial one counted, so f_0
        # has the sign (-1)^i there (f_0 > 0 before its first zero)
        i = 1
        while i * PI < REACH_3000:
            assert f(0, i * PI) * (-1) ** i > 0.0, i
            i += 1


class TestFinder:
    def test_passes_per_zero(self, disk_tables_3000):
        for bc in ("neumann", "dirichlet"):
            fresh = disk_tables_3000[bc]
            # 1.13 and 1.12, the sign passes included: most zeros take the
            # one pass whose cubic Taylor step is accepted, and the
            # reporting grid makes no pass
            assert fresh.passes / len(fresh.zeros) <= 1.14
            assert len(fresh.zeros) <= 1600  # the 3000 modes use 1517 (1518) of them

    @pytest.mark.parametrize("name,bound", [
        ("neumann", 1.1), ("dirichlet", 1.1), ("ball", 1.4),
    ])
    def test_passes_per_zero_below_order_4(self, name, bound, disk_tables_3000,
                                           ball_table_3000):
        # the finder passes per zero of orders 0-3, which start from the
        # asymptotic guess: 145 for 137 zeros (J'), 141 for 138 (J) and 52
        # for 39 (j'); the quadratic guess at order 3 took 1.29 (J'), and the
        # ball's line and midpoint guesses 2.49
        fresh = ball_table_3000 if name == "ball" else disk_tables_3000[name]
        low = [r for r in fresh.refined if r.order < 4]
        assert sum(r.passes for r in low) / len(low) <= bound

    @pytest.mark.parametrize("name", ["neumann", "dirichlet", "ball"])
    def test_guesses_inside_brackets(self, name, disk_tables_3000, ball_table_3000):
        # every guess of _bracket lies strictly inside its bracket, so no
        # first pass falls back to the midpoint; the asymptotic guesses of
        # orders 0-3 lie within 0.25 of their zero (at most 0.0026 for J,
        # 0.138 for J' and 0.206 for j')
        fresh = ball_table_3000 if name == "ball" else disk_tables_3000[name]
        assert len(fresh.refined) == len(fresh.zeros)
        assert all(r.lo < r.guess < r.hi for r in fresh.refined)
        assert max(abs(r.guess - r.zero) for r in fresh.refined if r.order < 4) <= 0.25

    def test_tables_3000_pinned(self, disk_tables_3000, ball_table_3000):
        # every bit of every zero the K = 3000 disk and ball spectra tabulate
        tables = {**disk_tables_3000, "ball": ball_table_3000}
        for name, fresh in tables.items():
            digest = hashlib.sha256(repr(sorted(fresh.zeros.items())).encode()).hexdigest()
            assert (digest, fresh.passes) == TABLES_3000[name], name

    def test_zeros_below_matches_ranks(self):
        table = ZeroTable("spherical_prime")
        for order in (0, 1, 5):
            zs = table.zeros_below(order, 30.0)
            assert zs and zs[-1] < 30.0
            assert zs == [table.positive_zero(order, k) for k in range(1, len(zs) + 1)]
            assert table.positive_zero(order, len(zs) + 1) > 30.0
        assert table.zeros_below(40, 30.0) == []

    def test_entries_below_hold_every_zero_below_x(self):
        table = ZeroTable("spherical_prime")
        entries = table.entries_below(30.0)
        top = max(idx.order for idx in entries) + 1
        assert table.zeros_below(top, 30.0) == []
        for order in range(top):
            zs = [z for idx, z in entries.items() if idx.order == order]
            assert zs == table.zeros_below(order, 30.0) and zs
        # with zeros past x cached, the same entries in the same order
        table.zeros_below(2, 45.0)
        assert max(table.entries().values()) > 30.0
        below = [(idx, z) for idx, z in table.entries().items() if z < 30.0]
        assert list(table.entries_below(30.0).items()) == list(entries.items()) == below
        assert {type(idx) for idx in table.entries()} == {ZeroIndex}

    def test_zeros_below_need_no_zero_past_x(self):
        table = ZeroTable("bessel")
        zs = table.zeros_below(4, 20.0)
        assert max(table.entries().values()) < 20.0
        assert zs == [bessel_j_zero(ZeroIndex(4, k)) for k in range(1, len(zs) + 1)]

    def test_grid_value_decided_by_newton_zero(self, monkeypatch):
        # the grid point hi lies 2 ulp below the zero, so the scan steps on;
        # the Newton zero alone places each point, with no kernel pass
        def no_pass(*args):
            raise AssertionError("a kernel pass ran")

        monkeypatch.setattr(_kernels_py, "_pass", no_pass)
        hi = 0.01 + bessel._GRID_STEP
        zero, resume = bessel._grid_value(hi + 2 * math.ulp(hi), 0.01)
        assert hi <= zero <= hi + 1e-12
        assert resume == hi + bessel._GRID_STEP

    def test_next_zero_gives_up_after_max_steps(self, monkeypatch):
        # with f' = 0 no step is ever accepted: after _MAX_STEPS
        # passes the refinement gives up, with all four results nan
        passes = []
        monkeypatch.setattr(
            _kernels_py, "_pass", lambda *a: passes.append(1) or (1.0, 0.0, 0.0, 0.0, 0.0)
        )
        found = _kernels_py.next_zero(_kernels_py.KIND_BESSEL, 0, 2.0, 3.0, 2.4, 1.0)
        assert len(found) == 4 and all(math.isnan(v) for v in found)
        assert len(passes) == _kernels_py._MAX_STEPS

    def test_unrefined_zero_raises(self, monkeypatch):
        # every pass reports f' = 0: the sign of J_0 at x still counts its
        # first zero in (0, pi), but no step is accepted there
        real = _kernels_py._pass
        monkeypatch.setattr(_kernels_py, "_pass", lambda *a: (real(*a)[0], 0.0, 0.0, 0.0, 0.0))
        with pytest.raises(AccuracyError, match="zero #1: not refined inside its bracket"):
            ZeroTable("bessel").positive_zero(0, 1)

    def test_taylor_step_outside_bracket_refused(self, monkeypatch):
        # passes of f(x) = x - 3.5: from 3.4999 the cubic Taylor step proves
        # the root 3.5 to the last bit, and is taken inside (3, 3.6) at once;
        # with hi = 3.49995 it lies past hi and is never taken, though every
        # pass, each at most at hi, proves it again
        passes = []

        def line(kind, order, x):
            passes.append(x)
            return x - 3.5, 1.0, 0.0, 0.0, 0.0

        monkeypatch.setattr(_kernels_py, "_pass", line)
        kind = _kernels_py.KIND_BESSEL
        zero, residual, x, _ = _kernels_py.next_zero(kind, 0, 3.0, 3.6, 3.4999, -1.0)
        assert (zero, x, passes) == (3.5, 3.4999, [3.4999]) and residual < 1e-17
        passes.clear()
        found = _kernels_py.next_zero(kind, 0, 3.0, 3.49995, 3.4999, -1.0)
        assert all(math.isnan(v) for v in found)
        assert len(passes) == _kernels_py._MAX_STEPS
        assert 3.4999 <= min(passes) and max(passes) <= 3.49995

    @pytest.mark.parametrize("guess", [2.0, 3.0, 5.0])
    def test_guess_outside_bracket_starts_at_midpoint(self, guess, monkeypatch):
        # passes of f(x) = x - 3.5: a guess at or outside an end of (3, 4)
        # is replaced by the midpoint 3.5, where the first pass proves the
        # root exactly
        passes = []

        def line(kind, order, x):
            passes.append(x)
            return x - 3.5, 1.0, 0.0, 0.0, 0.0

        monkeypatch.setattr(_kernels_py, "_pass", line)
        zero, _, x, _ = _kernels_py.next_zero(_kernels_py.KIND_BESSEL, 0, 3.0, 4.0, guess, -1.0)
        assert (zero, x, passes) == (3.5, 3.5, [3.5])

    @pytest.mark.parametrize("kind,order,x", [
        ("bessel_prime", 0, 3.3), ("bessel_prime", 5, 7.9), ("bessel_prime", 40, 55.0),
        ("bessel", 0, 9.1), ("bessel", 7, 30.2), ("bessel", 3, 2.2),
        ("spherical_prime", 0, 2.5), ("spherical_prime", 1, 20.0),
        ("spherical_prime", 12, 40.0),
    ])
    def test_pass_derivatives_against_mpmath(self, kind, order, x):
        # f through f''' of one pass, the higher ones from the ODE and its
        # derivatives, and f of order + 1, against 30-digit mpmath
        import mpmath as mp

        name = {"bessel_prime": "bessel_j_prime", "bessel": "bessel_j",
                "spherical_prime": "spherical_bessel_j_prime"}[kind]
        got = _kernels_py._pass(bessel._KIND_CODE[kind], order, x)
        with mp.workdps(30):
            ref = [mp.diff(lambda t: _mp_evaluator(mp, name, order, t), x, n) for n in range(4)]
            ref.append(_mp_evaluator(mp, name, order + 1, mp.mpf(x)))
        for value, r in zip(got, ref, strict=True):
            assert value == pytest.approx(float(r), rel=1e-11, abs=1e-13)

    @pytest.mark.parametrize("x", [1e-5, math.nextafter(1e-3, 0.0), 1e-3, 2e-3])
    @pytest.mark.parametrize("kind", bessel.KINDS)
    def test_pass_at_series_seam_against_mpmath(self, kind, x):
        # below, at and above the series seam, where the ODE's terms cancel
        # to about eps/x^2 of their size: with y = J_m or j_m, each value of
        # the pass within 16 eps of the sum of the magnitudes of the terms it
        # is computed from (y and y' their own), of 30-digit mpmath
        import mpmath as mp

        eps = sys.float_info.epsilon
        w = 2 if kind == "spherical_prime" else 1

        def y(m, t):
            return (mp.sqrt(mp.pi / (2 * t)) * mp.besselj(m + mp.mpf(0.5), t) if w == 2
                    else mp.besselj(m, t))

        for order in (0, 1, 3, 40):
            got = _kernels_py._pass(bessel._KIND_CODE[kind], order, x)
            with mp.workdps(30):
                t = mp.mpf(x)
                ys = [mp.diff(lambda s: y(order, s), t, n) for n in range(5)]
                above = y(order + 1, t)
                g = mp.diff(lambda s: y(order + 1, s), t)
                a0, a1 = abs(ys[0]), abs(ys[1])
                q = order * (order + w - 1) / t**2
                s2 = w * a1 / t + (1 + q) * a0
                s3 = w * a1 / t**2 + w * s2 / t + 2 * q * a0 / t + (1 + q) * a1
                s4 = (2 * w * (s2 + a1 / t) / t**2 + w * s3 / t + 4 * q * a1 / t
                      + 6 * q * a0 / t**2 + (1 + q) * s2)
                if kind == "bessel":
                    ref, size = [*ys[:4], above], [a0, a1, s2, s3, abs(above)]
                else:
                    ref, size = [*ys[1:], g], [a1, s2, s3, s4, a0 + (order + w) * abs(above) / t]
                for i, (value, r, terms) in enumerate(zip(got, ref, size, strict=True)):
                    assert abs(value - r) <= 16 * eps * terms, (order, i, value, float(r))

    @staticmethod
    def _grow_counting_nodes(kind, monkeypatch, orders, x):
        # zeros of each order below x in a fresh table, and per order m >= 1
        # the nodes (zeros of order m-1) at which f_m was evaluated
        calls = []
        evaluate = _kernels_py.evaluate

        def counted(kind_code, order, at):
            calls.append((order, at))
            return evaluate(kind_code, order, at)

        monkeypatch.setattr(_kernels_py, "evaluate", counted)
        table = ZeroTable(kind)
        zeros = [table.zeros_below(m, x) for m in orders]
        nodes = [[at for order, at in calls if order == m and at != x]
                 for m in orders[1:]]
        return zeros, nodes

    @pytest.mark.parametrize("kind", bessel.KINDS)
    @pytest.mark.parametrize("stored", [0.0, 1e-300])
    def test_unguarded_sign_falls_back_to_evaluate(self, kind, stored, monkeypatch):
        # each zero of order m-1 stores f_m from its last Newton pass, which
        # spares evaluating f_m there; a value too small to fix the sign at
        # the zero must be replaced by evaluate
        orders = range(6)
        ref_zeros, ref_nodes = self._grow_counting_nodes(
            kind, monkeypatch, orders, 40.0
        )
        assert ref_nodes == [[]] * (len(orders) - 1)
        next_zero = _kernels_py.next_zero

        def unguarded(*args):
            *found, f_up = next_zero(*args)
            return (*found, math.copysign(stored, f_up))

        monkeypatch.setattr(_kernels_py, "next_zero", unguarded)
        zeros, nodes = self._grow_counting_nodes(kind, monkeypatch, orders, 40.0)
        assert zeros == ref_zeros
        assert nodes == ref_zeros[:-1]

    @pytest.mark.parametrize("kind", bessel.KINDS)
    @pytest.mark.parametrize("nodes, empty", [
        # without the node 3 pi, (2 pi, 4 pi) holds two zeros, and the zero
        # in (4 pi, 5 pi) is refined as the one of the rank below it
        ([0, 1, 2, 4, 5, 6, 7], dict.fromkeys(bessel.KINDS, (4, 5))),
        # with a node at 2.5 pi, (2 pi, 2.5 pi) holds no zero of J_0, and
        # (2.5 pi, 3 pi) none of J'_0 or j'_0
        ([0, 1, 2, 2.5, 3, 4, 5, 6],
         {"bessel": (2, 2.5), "bessel_prime": (2.5, 3), "spherical_prime": (2.5, 3)}),
    ], ids=["two zeros", "no zero"])
    def test_order0_bracket_with_two_zeros_or_none_raises(self, kind, nodes, empty,
                                                          monkeypatch):
        # the multiples of pi bracket the zeros of order 0, one each; a node
        # rule that breaks this leaves some bracket without a zero of the
        # sign it expects below it, where no Newton step is accepted
        node = ZeroTable._node
        monkeypatch.setattr(ZeroTable, "_node", lambda self, order, i: (
            nodes[i] * PI if order < 0 else node(self, order, i)))
        lo, hi = empty[kind]
        with pytest.raises(AccuracyError, match=re.escape(
                f"not refined inside its bracket ({lo * PI!r}, {hi * PI!r})")):
            ZeroTable(kind).zeros_below(0, 6 * PI - 0.1)

    @pytest.mark.parametrize("kind", bessel.KINDS)
    def test_wrong_sign_at_found_zero_raises(self, kind, monkeypatch):
        # f of order m + 1 at the third zero of order m (m = 2, then 0) gets
        # the wrong sign from that zero's Newton pass, large enough to be
        # trusted: the check runs as the zero is found, though order m + 1 is
        # never counted
        next_zero = _kernels_py.next_zero
        for m in (2, 0):
            orders = []

            def flipped(code, order, *args):
                *found, f_up = next_zero(code, order, *args)
                orders.append(order)
                if order == m and orders.count(m) == 3:
                    f_up = -math.copysign(1.0, f_up)
                return (*found, f_up)

            monkeypatch.setattr(_kernels_py, "next_zero", flipped)
            with pytest.raises(AccuracyError, match=f"order {m + 1}: .* interlacing is broken"):
                ZeroTable(kind).zeros_below(m, 40.0)

    def test_residual_above_tolerance_raises(self, monkeypatch):
        next_zero = _kernels_py.next_zero

        def loose(*args):
            zero, _, *rest = next_zero(*args)
            return (zero, 2 * bessel.RESIDUAL_TOL, *rest)

        monkeypatch.setattr(_kernels_py, "next_zero", loose)
        with pytest.raises(AccuracyError, match="residual 2.000e-09 exceeds 1e-09"):
            ZeroTable("bessel").positive_zero(0, 1)

    def test_missing_zero_of_order_below_raises(self):
        # the table refinds the order below's last zero, past which its grid
        # resumes
        table = ZeroTable("bessel_prime")
        table.zeros_below(3, 30.0)
        del table._zeros[3][2]
        with pytest.raises(AccuracyError, match="grid resumes at .* a zero below .* is missing"):
            table.zeros_below(4, 30.0)
