"""Special-function values, zero tables, and their independent oracles."""

import math

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


class TestPublicEvaluators:
    """The four public evaluators are the kernels' own, input checks included."""

    @pytest.mark.parametrize("name", sorted(EVALUATORS))
    def test_public_name_is_the_kernel(self, name):
        kernel = getattr(backend.kernels, EVALUATORS[name])
        assert getattr(specpack, name) is kernel
        assert getattr(bessel, name) is kernel

    @pytest.mark.parametrize("name,order,x,message", [
        *[(name, -1, 1.0, "order must be >= 0") for name in sorted(EVALUATORS)],
        *[(name, 0, x, "x must be finite and >= 0")
          for name in ("bessel_j", "bessel_j_prime") for x in (-1.0, math.inf, math.nan)],
        *[(name, 0, x, "x must be finite and > 0")
          for name in ("spherical_bessel_j", "spherical_bessel_j_prime")
          for x in (-1.0, 0.0, math.inf, math.nan)],
    ])
    def test_error_messages(self, name, order, x, message):
        with pytest.raises(ValueError) as exc:
            getattr(specpack, name)(order, x)
        assert str(exc.value) == message

    @pytest.mark.parametrize("name,order,x,ref", [
        # the lgamma start of _series_j (order > 120, x < 8)
        ("bessel_j", 150, 5.0, lambda sp: sp.jv(150, 5.0)),
        # the rescale branch of _miller (x >= 8, far below the order)
        ("bessel_j", 200, 9.0, lambda sp: sp.jv(200, 9.0)),
        ("bessel_j_prime", 200, 9.0, lambda sp: sp.jvp(200, 9.0)),
        # the rescale branch of _sph_miller
        ("spherical_bessel_j", 200, 9.0, lambda sp: sp.spherical_jn(200, 9.0)),
    ])
    def test_deep_evanescent_against_scipy(self, name, order, x, ref):
        from scipy import special as sp

        assert getattr(specpack, name)(order, x) == pytest.approx(ref(sp), rel=1e-12, abs=0)


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

    def test_series_has_no_recurrence_bound(self):
        # below x = 8 J and J' come from the power series at any order; j and
        # j' of order 0 and 1 from closed forms at any x
        assert bessel_j(10**7, 5.0) == 0.0
        assert bessel_j_prime(10**7, 5.0) == 0.0
        assert spherical_bessel_j(0, 1e300) == math.sin(1e300) / 1e300


class TestZeroTables:
    def test_bad_kind_and_address_rejected(self):
        with pytest.raises(ValueError, match="unknown zero kind 'hankel'"):
            ZeroTable("hankel")
        table = ZeroTable("bessel")
        for order, k in ((-1, 1), (0, 0)):
            with pytest.raises(ValueError, match="need order >= 0 and k >= 1"):
                table.positive_zero(order, k)

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
        with pytest.raises(ValueError, match=r"^order must be >= 0, got -1$"):
            ZeroIndex(-1, 1)
        with pytest.raises(ValueError, match=r"^rank must be >= 1, got 0$"):
            ZeroIndex(0, 0)

    def test_no_fixed_range(self):
        from scipy import special as sp

        # the 100th zero of J_0 sits near x = 313
        zero = ZeroTable("bessel").positive_zero(0, 100)
        assert zero == pytest.approx(sp.jn_zeros(0, 100)[-1], rel=1e-12)
        with pytest.raises(ValueError):
            ZeroTable("bessel").zeros_below(0, math.inf)

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


def _fresh_disk_table(bc, k):
    """A fresh zero table grown by the k-mode disk spectrum, the kernel
    passes (series/Miller passes of the finder, of its sign checks and of
    the reporting grid's guard) that growing it took, and the zeros it then
    held."""
    kind = "bessel_prime" if bc == "neumann" else "bessel"
    table = ZeroTable(kind)
    passes = []
    fn = _kernels_py._pass
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(bessel._TABLES, kind, table)
        mp.setattr(_kernels_py, "_pass", lambda *a: passes.append(1) or fn(*a))
        spectra.disk_spectrum(bc, k)
    return table, len(passes), len(table.entries())


@pytest.fixture(scope="module")
def disk_tables_3000():
    return {bc: _fresh_disk_table(bc, 3000) for bc in ("neumann", "dirichlet")}


def _zeros_by_order(table):
    out = {}
    for idx, z in sorted(table.entries().items(), key=lambda item: (item[0].order, item[1])):
        out.setdefault(idx.order, []).append(z)
    return out


# x up to which a 3000-mode disk build tabulated zeros under the one-term
# Weyl ceiling 1.3 * 4 pi k + 30
REACH_3000 = math.sqrt((1.3 * 4.0 * PI * 3000 + 30.0) / PI)


class TestZeroOracle:
    def test_disk_tables_match_scipy(self, disk_tables_3000):
        from scipy import special as sp

        # scipy's jnp_zeros(0, .) starts at 3.83, like the stored positive zeros
        for bc, oracle in (("neumann", sp.jnp_zeros), ("dirichlet", sp.jn_zeros)):
            table, _, _ = disk_tables_3000[bc]
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


class TestFinder:
    def test_passes_per_zero(self, disk_tables_3000):
        for bc in ("neumann", "dirichlet"):
            _, passes, zeros = disk_tables_3000[bc]
            assert passes / zeros <= 2.5
            assert zeros <= 1600  # the 3000 modes use 1517 (1518) of them

    def test_zeros_below_matches_ranks(self):
        table = ZeroTable("spherical_prime")
        for order in (0, 1, 5):
            zs = table.zeros_below(order, 30.0)
            assert zs and zs[-1] < 30.0
            assert zs == [table.positive_zero(order, k) for k in range(1, len(zs) + 1)]
            assert table.positive_zero(order, len(zs) + 1) > 30.0
        assert table.zeros_below(40, 30.0) == []

    def test_zeros_below_need_no_zero_past_x(self):
        table = ZeroTable("bessel")
        zs = table.zeros_below(4, 20.0)
        assert max(table.entries().values()) < 20.0
        assert zs == [bessel_j_zero(ZeroIndex(4, k)) for k in range(1, len(zs) + 1)]

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

    def test_order0_step_past_first_zero_of_j0_raises(self, monkeypatch):
        # the order-0 scan has no sign at x = 0, so a step of 3 puts J_0's
        # first zero (2.405) into the unchecked cell (0, 3]; the derivative
        # kinds have no zero there and keep their zeros
        refs = {kind: ZeroTable(kind).zeros_below(0, 60.0)
                for kind in ("bessel_prime", "spherical_prime")}
        monkeypatch.setattr(bessel, "ORDER0_STEP", 3.0)
        with pytest.raises(AccuracyError, match="interlacing"):
            ZeroTable("bessel").zeros_below(0, 60.0)
        for kind, ref in refs.items():
            assert ZeroTable(kind).zeros_below(0, 60.0) == ref

    @pytest.mark.parametrize("kind", bessel.KINDS)
    def test_wrong_sign_at_found_zero_raises(self, kind, monkeypatch):
        # f of order 3 at the third zero of order 2 gets the wrong sign from
        # that zero's Newton pass, large enough to be trusted: the check runs
        # as the zero is found, though order 3 is never counted
        next_zero = _kernels_py.next_zero
        orders = []

        def flipped(code, order, *args):
            *found, f_up = next_zero(code, order, *args)
            orders.append(order)
            if order == 2 and orders.count(2) == 3:
                f_up = -math.copysign(1.0, f_up)
            return (*found, f_up)

        monkeypatch.setattr(_kernels_py, "next_zero", flipped)
        with pytest.raises(AccuracyError, match="order 3: .* interlacing is broken"):
            ZeroTable(kind).zeros_below(2, 40.0)

    def test_residual_above_tolerance_raises(self, monkeypatch):
        next_zero = _kernels_py.next_zero

        def loose(*args):
            zero, _, *rest = next_zero(*args)
            return (zero, 2 * bessel.RESIDUAL_TOL, *rest)

        monkeypatch.setattr(_kernels_py, "next_zero", loose)
        with pytest.raises(AccuracyError, match="residual 2.000e-09 exceeds 1e-09"):
            ZeroTable("bessel").positive_zero(0, 1)

    @pytest.mark.parametrize("recount", [False, True])
    def test_missing_zero_of_order_below_raises(self, recount):
        table = ZeroTable("bessel_prime")
        table.zeros_below(3, 30.0)
        del table._zeros[3][2]
        if recount:
            # as if the order below had never seen the zero
            table._count[3] -= 1
        with pytest.raises(AccuracyError, match="interlacing" if recount else None):
            table.zeros_below(4, 30.0)
