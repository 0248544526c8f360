"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion (each test also prints an explicit summary line).
"""

import math
import time

import numpy as np
import pytest
from conftest import oracle_zeros, run_cli

from specpack import bessel, constructions, spectra, wolfkeller
from specpack.cli import build_table_rows, render_table_markdown

PI = math.pi

# Reference extremal table, transcribed cell-for-cell from the published
# ten-column tabulation (rows 1..25).  Fields per row:
#   n, disk mode (order, rank), disk value, best-disk-union value,
#   disks provenance, disks extremal, square mode sum j^2+k^2,
#   best-square-union / pi^2, squares provenance, squares extremal
REFERENCE_TABLE = [
    (1, (1, 1), 10.650, None, "μ_1", 10.65, 1, None, "μ_1", 9.87),
    (2, (1, 1), 10.650, 21.300, "2μ_1", 21.30, 1, 2, "2μ_1", 19.74),
    (3, (2, 1), 29.306, 31.950, "3μ_1", 31.95, 2, 3, "3μ_1", 29.61),
    (4, (2, 1), 29.306, 42.599, "4μ_1", 42.60, 4, 4, "4μ_1 = μ_4", 39.48),
    (5, (0, 2), 46.125, 53.249, "5μ_1", 53.25, 4, 5, "5μ_1", 49.35),
    (6, (3, 1), 55.449, 63.899, "6μ_1", 63.90, 5, 6, "6μ_1", 59.22),
    (7, (3, 1), 55.449, 74.549, "7μ_1", 74.55, 5, 7, "7μ_1", 69.09),
    (8, (4, 1), 88.833, 85.199, "μ_8", 88.83, 8, 8, "8μ_1 = μ_8", 78.96),
    (9, (4, 1), 88.833, 99.483, "μ_8 + μ_1", 99.48, 9, 9, "9μ_1 = μ_9", 88.83),
    (10, (1, 2), 89.298, 110.133, "μ_8 + 2μ_1", 110.13, 9, 10, "10μ_1", 98.70),
    (11, (1, 2), 89.298, 120.783, "μ_8 + 3μ_1", 120.78, 10, 11, "11μ_1", 108.57),
    (12, (5, 1), 129.308, 131.432, "μ_8 + 4μ_1", 131.43, 10, 12, "12μ_1", 118.44),
    (13, (5, 1), 129.308, 142.081, "μ_8 + 5μ_1", 142.08, 13, 13, "13μ_1 = μ_13", 128.30),
    (14, (2, 2), 141.284, 152.732, "μ_8 + 6μ_1", 152.73, 13, 14, "14μ_1", 138.17),
    (15, (2, 2), 141.284, 163.382, "μ_8 + 7μ_1", 163.38, 16, 15, "μ_15", 157.91),
    (16, (0, 3), 154.624, 177.666, "2μ_8", 177.67, 16, 17, "μ_15 + μ_1", 167.78),
    (17, (6, 1), 176.774, 188.316, "2μ_8 + μ_1", 188.32, 17, 18, "μ_15 + 2μ_1", 177.65),
    (18, (6, 1), 176.774, 198.965, "2μ_8 + 2μ_1", 198.97, 17, 19, "μ_15 + 3μ_1", 187.52),
    (19, (3, 2), 201.829, 209.615, "2μ_8 + 3μ_1", 209.62, 18, 20, "μ_15 + 4μ_1", 197.39),
    (20, (3, 2), 201.829, 220.265, "2μ_8 + 4μ_1", 220.27, 20, 21, "μ_15 + 5μ_1", 207.26),
    (21, (1, 3), 228.924, 230.915, "2μ_8 + 5μ_1", 230.92, 20, 22, "μ_15 + 6μ_1", 217.13),
    (22, (1, 3), 228.924, 241.565, "2μ_8 + 6μ_1", 241.56, 25, 23, "μ_22", 246.74),
    (23, (7, 1), 231.156, 252.215, "2μ_8 + 7μ_1", 252.21, 25, 26, "μ_22 + μ_1", 256.61),
    (24, (7, 1), 231.156, 266.499, "3μ_8", 266.50, 25, 27, "μ_22 + 2μ_1", 266.48),
    (25, (4, 2), 270.689, 277.148, "3μ_8 + μ_1", 277.15, 25, 28, "μ_22 + 3μ_1", 276.35),
]

CELL_TOL = 0.005


def test_criterion_01_table_reproduction():
    # time the whole pipeline cold (fresh process, empty zero tables)
    t0 = time.perf_counter()
    cp = run_cli("table", "--rows", "25", "--format", "md")
    elapsed = time.perf_counter() - t0
    assert cp.returncode == 0, cp.stderr
    rows = build_table_rows(25)
    render_table_markdown(rows)
    for row, ref in zip(rows, REFERENCE_TABLE):
        (n, disk_label, c3, c4, c5, c6, c7, c8, c9, c10) = ref
        (row_n, row_disk_label, v3, v4, v5, v6, square_label, v8, v9, v10) = row
        assert row_n == n
        assert row_disk_label == disk_label, f"row {n} disk mode"
        assert abs(v3 - c3) <= CELL_TOL, f"row {n} col 3"
        if c4 is None:
            assert v4 is None
        else:
            assert abs(v4 - c4) <= CELL_TOL, f"row {n} col 4"
        assert v5 == c5, f"row {n} col 5"
        assert abs(v6 - c6) <= CELL_TOL, f"row {n} col 6"
        j, k = square_label
        assert j * j + k * k == c7, f"row {n} col 7"
        if c8 is None:
            assert v8 is None
        else:
            assert abs(v8 - c8) <= CELL_TOL, f"row {n} col 8"
        assert v9 == c9, f"row {n} col 9"
        assert abs(v10 - c10) <= CELL_TOL, f"row {n} col 10"
    assert elapsed < 1.0, f"table took {elapsed:.2f}s"
    print(f"\n[criterion 1] PASS: 25-row table matches every reference cell "
          f"within +/-{CELL_TOL} in {elapsed:.2f}s")


def test_criterion_02_crossover_at_22():
    disks = wolfkeller.extremal_sequence(wolfkeller.disks_class(), 22)
    squares = wolfkeller.extremal_sequence(wolfkeller.squares_class(), 22)
    assert disks.value(22) == pytest.approx(241.56, abs=0.01)
    assert squares.value(22) == pytest.approx(246.74, abs=0.01)
    assert disks.value(22) < squares.value(22)
    packed = wolfkeller.unpack_geometry(disks, 22)
    vols = sorted((c.volume for c in packed.components), reverse=True)
    assert vols[:2] == pytest.approx([0.3677, 0.3677], abs=5e-4)
    assert vols[2:] == pytest.approx([0.0441] * 6, abs=5e-4)
    assert packed.total_volume == pytest.approx(1.0, abs=1e-12)
    print("\n[criterion 2] PASS: disks 241.56 < squares 246.74 at n=22; "
          "packing 2 x 0.3677 + 6 x 0.0441 sums to 1")


def test_criterion_03_crossover_set_to_83(disks_sequence, squares_sequence):
    cross = wolfkeller.crossover_scan(disks_sequence, squares_sequence, 83)
    assert cross == [22, 23, 83], f"crossover set {cross} differs from [22, 23, 83]"
    assert not any(24 <= n <= 82 for n in cross)
    assert disks_sequence.value(23) == pytest.approx(252.21, abs=0.01)
    assert squares_sequence.value(23) == pytest.approx(256.61, abs=0.01)
    print("\n[criterion 3] PASS: crossovers at exactly {22, 23, 83}; "
          "values at 23 are 252.21 vs 256.61")


def test_criterion_04_3d_sweep_to_640():
    t0 = time.perf_counter()
    cp = run_cli("scan", "--dim", "3", "--max-n", "640")
    elapsed = time.perf_counter() - t0
    assert cp.returncode == 0, cp.stderr
    assert "no crossover" in cp.stdout
    assert elapsed < 30.0, f"3D sweep took {elapsed:.1f}s"
    balls = wolfkeller.extremal_sequence(wolfkeller.balls_class(), 640)
    cubes = wolfkeller.extremal_sequence(wolfkeller.cubes_class(), 640)
    assert wolfkeller.crossover_scan(balls, cubes, 640) == []
    print(f"\n[criterion 4] PASS: no crossover for n <= 640 in 3D "
          f"({elapsed:.2f}s end to end)")


def test_criterion_05_zero_oracle_and_interlacing():
    checked = 0
    for kind in ("bessel_prime", "bessel", "spherical_prime"):
        table = bessel.default_table(kind)
        for order in range(0, 11):
            ref = oracle_zeros(kind, order, 11, step=1e-4)
            for pos in range(1, 11):
                assert table.positive_zero(order, pos) == pytest.approx(
                    ref[pos - 1], abs=1e-8
                ), f"{kind} order {order} zero #{pos}"
                checked += 1
    jp = bessel.default_table("bessel_prime")
    jz = bessel.default_table("bessel")
    for m in range(0, 11):
        # align ranks: for order 0 the trivial stationary point holds rank 1,
        # so rank r of J'_0 is positive zero r-1
        off = 1 if m == 0 else 0
        for pos in range(1, 11):
            assert jp.positive_zero(m, pos) < jz.positive_zero(m, pos + off) \
                < jp.positive_zero(m, pos + 1)
    print(f"\n[criterion 5] PASS: {checked} zeros agree to 1e-8 with scipy's "
          f"jnp_zeros/jn_zeros (J', J) and the 1e-4-step scan oracle (j'); "
          f"interlacing holds for all tested pairs")


def test_criterion_06_geometry_round_trip(disks_sequence, squares_sequence):
    for seq in (disks_sequence, squares_sequence):
        for n in range(1, 31):
            packed = wolfkeller.unpack_geometry(seq, n)
            parts = [
                (spectra.spectrum_of(c.shape, n), c.volume)
                for c in packed.components
            ]
            union = spectra.union_spectrum(parts, n)
            assert union.eigenvalue(n) == pytest.approx(seq.value(n), rel=1e-9), (
                f"{seq.domain_class.name} n={n}"
            )
    print("\n[criterion 6] PASS: packings reproduce the recursion value as "
          "mu_n of their union for n <= 30 in both 2D classes")


def test_criterion_07_mu2_range_constructions():
    top = constructions.mu2_max()
    targets = list(np.linspace(top / 100, top, 100))
    targets += [PI**2, constructions.mu1_max()]
    for t in targets:
        domain = constructions.mu2_range_domain(float(t))
        assert domain.total_volume == pytest.approx(1.0, abs=1e-12)
        mu1, mu2, _ = constructions.verified_mu2(domain)
        assert mu1 == 0.0
        assert mu2 == pytest.approx(float(t), abs=1e-9), f"t={t}"
    print(f"\n[criterion 7] PASS: {len(targets)} targets (including both "
          f"branch boundaries) hit mu_2 = t within 1e-9 at unit area")


def test_criterion_08_kroger_bound():
    rng = np.random.default_rng(11)
    catalog = [
        (spectra.disk_spectrum("neumann", 20), 2 / math.sqrt(PI)),
        (spectra.rectangle_spectrum(1, 1, "neumann", 20), math.sqrt(2)),
    ]
    for aspect in rng.uniform(1.0, 4.0, 5):
        a = math.sqrt(aspect)
        catalog.append(
            (spectra.rectangle_spectrum(a, 1 / a, "neumann", 20),
             math.hypot(a, 1 / a))
        )
    for spec, diameter in catalog:
        for m in range(1, 21):
            bound = constructions.kroger_bound(m, diameter)
            assert spec.nonzero(m) <= bound * (1 + 1e-12), (
                f"{spec.shape.describe()} m={m}"
            )
    print("\n[criterion 8] PASS: mu_m d^2 <= (2 j_{0,1} + (m-1) pi)^2 on the "
          "disk, the square, and 5 random rectangles for m <= 20")


def test_criterion_09_dirichlet_cross_check():
    check, seq = wolfkeller.dirichlet_min_check()
    assert check.square_value == pytest.approx(20 * PI**2, rel=1e-12)
    assert check.square_value == pytest.approx(197.39, abs=0.01)
    assert check.disks_value > check.square_value
    packed = wolfkeller.unpack_geometry(seq, 2)
    assert len(packed.components) == 2
    assert [c.volume for c in packed.components] == pytest.approx([0.5, 0.5])
    print(f"\n[criterion 9] PASS: square lambda_13 = 197.39 < disks-class "
          f"minimum {check.disks_value:.2f}; minimizer at n=2 is two equal disks")


def test_criterion_10_property_suites(disks_sequence):
    # scaling-law exactness
    for spec in (spectra.disk_spectrum("neumann", 10),
                 spectra.ball_spectrum("neumann", 10)):
        factor = (1 / 0.3) ** (2 / spec.dimension)
        scaled = spec.rescaled(0.3)
        for a, b in zip(scaled.nonzero_values(), spec.nonzero_values()):
            assert a == pytest.approx(factor * b, rel=1e-12)
    # superadditivity
    for n in range(2, 31):
        vn = disks_sequence.value(n)
        for j in range(1, n):
            assert vn >= disks_sequence.value(j) + disks_sequence.value(n - j) \
                - 1e-12 * vn
    # recursion vs exhaustive splits over all j (not just j <= n/2)
    base = spectra.disk_spectrum("neumann", 30).nonzero_values()
    best = {}
    for n in range(1, 31):
        cands = [base[n - 1]] + [best[j] + best[n - j] for j in range(1, n)]
        best[n] = max(cands)
        assert disks_sequence.value(n) == pytest.approx(best[n], rel=1e-12)
    # union permutation invariance
    d = spectra.disk_spectrum("neumann", 10)
    s = spectra.rectangle_spectrum(1, 1, "neumann", 10)
    u1 = spectra.union_spectrum([(d, 0.25), (s, 0.5), (d, 0.25)], 10)
    u2 = spectra.union_spectrum([(s, 0.5), (d, 0.25), (d, 0.25)], 10)
    assert u1.nonzero_values() == u2.nonzero_values()
    # ball ground-mode multiplicity: mu_1 = mu_2 = mu_3
    ball_vals = spectra.ball_spectrum("neumann", 3).nonzero_values()
    assert ball_vals[0] == ball_vals[1] == ball_vals[2]
    print("\n[criterion 10] PASS: scaling exactness, superadditivity, "
          "exhaustive-split agreement (n <= 30), union permutation "
          "invariance, and the triple ball ground mode all hold")
