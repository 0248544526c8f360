"""Property tests on random positive spectra (hypothesis, derandomized).

Random base spectra go into the recursion through ``base_values``; random
part spectra go into ``union_spectrum``.  Values mix small integers, which
make exact ties between splits and connected candidates common, with
arbitrary floats.
"""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specpack import spectra
from specpack.spectra import Mode, Spectrum, _power, union_spectrum
from specpack.wolfkeller import (
    REL_TIE_TOL,
    DomainClass,
    Split,
    connectedness_certificate,
    extremal_sequence,
)

PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)

# the boundary condition sets the objective: Neumann maximizes, Dirichlet minimizes
CLASSES = {
    (2, "maximize"): DomainClass("disks", spectra.disk("neumann")),
    (2, "minimize"): DomainClass("dirichlet-disks", spectra.disk("dirichlet")),
    (3, "maximize"): DomainClass("balls", spectra.ball()),
    (3, "minimize"): DomainClass("dirichlet-cubes", spectra.cube("dirichlet")),
}

values = st.one_of(st.integers(1, 40).map(float), st.floats(1.0, 1e4))
base_spectra = st.lists(values, min_size=1, max_size=40).map(sorted)
classes = st.sampled_from(sorted(CLASSES))


def sorted_lists(elements, lengths):
    # the length is drawn first, since a list strategy's own sizes average a
    # handful
    return lengths.flatmap(lambda k: st.lists(elements, min_size=k, max_size=k)).map(sorted)


# long enough for several whole blocks of the split search (the first at
# n = 32) and a partial one
long_spectra = sorted_lists(values, st.integers(1, 120))


def run(key, base):
    return extremal_sequence(CLASSES[key], len(base), base_values=base)


@PROPERTY
@given(classes, long_spectra)
def test_recursion_equals_exhaustive_split(key, base):
    # best[n] = opt(conn[n], opt over every j in 1..n-1 of the j | n-j split)
    dim, objective = key
    pick = max if objective == "maximize" else min
    seq = run(key, base)
    best = [None]
    for n in range(1, len(base) + 1):
        sums = [best[j] ** (dim / 2) + best[n - j] ** (dim / 2) for j in range(1, n)]
        splits = [s ** (2 / dim) for s in sums]
        best.append(pick([base[n - 1]] + splits))
        if dim == 2:
            assert seq.value(n) == best[n]  # plain sums: bitwise
            if n > 1:
                assert seq.split_value(n) == pick(splits)
                dec = seq.decomposition(n)
                if isinstance(dec, Split):  # smallest left index among equal splits
                    assert dec.i == splits.index(pick(splits)) + 1
        else:
            assert seq.value(n) == pytest.approx(best[n], rel=1e-12)


# a first value v and a plateau r*v bend best[n] near n = r, where the
# minimizing search can rule blocks out; r = 1 makes every split sum at n
# tie exactly
lengths = st.integers(1, 200)
wide_spectra = st.one_of(
    st.tuples(st.floats(1e-3, 1e6), st.just(1.0) | st.floats(1.0, 100.0), lengths).map(
        lambda t: [t[0]] + [t[0] * t[1]] * (t[2] - 1)),
    sorted_lists(st.floats(1e-3, 1e6), lengths),
    sorted_lists(values, lengths),
)


@PROPERTY
@given(wide_spectra)
def test_best_split_equals_exhaustive(base):
    # the recursion's stored split, its sum and its index, against a sum over
    # every j, bit for bit, at every n, on the signed powers it stores
    # (negative when minimizing), for every (dimension, objective) key
    for key in sorted(CLASSES):
        seq = run(key, base)
        sign = seq.domain_class.sign
        powers = seq.powers
        assert powers[1:] == tuple(sign * _power(seq.value(n), key[0])
                                   for n in range(1, len(base) + 1))
        for n in range(2, len(base) + 1):
            h = n // 2
            sums = list(map(operator.add, powers[1:h + 1], powers[n - 1:n - h - 1:-1]))
            best = max(sums)
            j = seq.split_indices[n]
            assert (powers[j] + powers[n - j], j) == (best, sums.index(best) + 1)


def late_spectrum(k, scale, exponent, p, factor, plateau, rounded):
    # k values scale*n^exponent that stay flat from index p on (a plateau) or
    # grow by factor there (a late efficiency jump), rounded to integers (for
    # exact ties) or not
    vals = [scale * (min(n, p) ** exponent if plateau else
                     n ** exponent * (factor if n >= p else 1.0)) for n in range(1, k + 1)]
    return sorted(float(max(1, round(v))) if rounded else v for v in vals)


# 200 to 600 indices, where whole blocks of the split search sleep the full
# cap and wake on their bisect bound: a late change in the base values moves
# the best splits, and the spectra of r-by-1/r rectangles bring the
# irregular gaps and multiplicities of a real spectrum
late_spectra = st.one_of(
    st.builds(late_spectrum, st.integers(200, 600), st.floats(0.5, 50.0), st.floats(0.2, 1.5),
              st.integers(1, 600), st.floats(1.0, 8.0), st.booleans(), st.booleans()),
    st.builds(lambda r, bc, k: spectra.rectangle_spectrum(r, 1 / r, bc, k).nonzero_values(),
              st.floats(1.0, 4.0), st.sampled_from(("neumann", "dirichlet")), st.integers(200, 600)),
)


@PROPERTY
@given(late_spectra)
def test_long_recursion_splits_equal_exhaustive(base):
    # the recursion's split search, which bounds only the blocks whose sleep
    # has ended, against a sum over every j at every n, for every
    # (dimension, objective) key
    for key in sorted(CLASSES):
        seq = run(key, base)
        powers = seq.powers
        for n in range(2, len(base) + 1):
            h = n // 2
            sums = list(map(operator.add, powers[1:h + 1], powers[n - 1:n - h - 1:-1]))
            assert seq.split_indices[n] == sums.index(max(sums)) + 1


def all_splits_certificate(candidate_value, seq, n):
    # reference: the candidate must clear every split j | n-j, 1 <= j <= n/2
    maximize = seq.domain_class.shape.bc == "neumann"
    cp = _power(candidate_value, seq.dimension)
    for j in range(1, n // 2 + 1):
        s = _power(seq.value(j), seq.dimension) + _power(seq.value(n - j), seq.dimension)
        margin = REL_TIE_TOL * max(abs(cp), abs(s))
        if not (cp - s if maximize else s - cp) > margin:
            return False
    return True


@PROPERTY
@given(classes, sorted_lists(values, st.integers(2, 120)), st.data())
def test_certificate_equals_all_splits_loop(key, base, data):
    seq = run(key, base)
    for _ in range(10):
        n = data.draw(st.integers(2, len(base)))
        # candidates at and around the decision boundary, and anywhere
        candidate = data.draw(st.one_of(
            st.integers(-30, 30).map(lambda d: seq.split_value(n) * (1 + d * 1e-13)),
            st.floats(1.0, 1e5),
        ))
        assert connectedness_certificate(candidate, seq, n) == \
            all_splits_certificate(candidate, seq, n)


def random_spectrum(dim, modes):
    modes = tuple(Mode((i,), v, mult) for i, (v, mult) in enumerate(sorted(modes)))
    return Spectrum("neumann", dim, 1.0, 1, modes, sum(m.multiplicity for m in modes))


part_modes = st.lists(st.tuples(values, st.integers(1, 3)), min_size=8, max_size=20)
parts = st.lists(st.tuples(part_modes, st.floats(0.01, 4.0)), min_size=1, max_size=5)


@PROPERTY
@given(st.sampled_from((2, 3)), parts, st.data())
def test_union_permutation_invariance(dim, drawn, data):
    specs = [(random_spectrum(dim, modes), vol) for modes, vol in drawn]
    permuted = data.draw(st.permutations(specs))
    u1 = union_spectrum(specs, 8)
    u2 = union_spectrum(permuted, 8)
    assert u1.nonzero_values() == u2.nonzero_values()
    assert u1.n_components == u2.n_components == len(specs)


@PROPERTY
@given(base_spectra, st.integers(-3, 3))
def test_recursion_scales_exactly_by_powers_of_two(base, e):
    # 2D sums are plain additions, so a power-of-two factor passes through
    # every value exactly and leaves every decision in place
    factor = 2.0**e
    for objective in ("maximize", "minimize"):
        seq = run((2, objective), base)
        scaled = run((2, objective), [factor * v for v in base])
        for n in range(1, len(base) + 1):
            assert scaled.value(n) == factor * seq.value(n)
            assert scaled.decomposition(n) == seq.decomposition(n)


@PROPERTY
@given(base_spectra, st.integers(-3, 3))
def test_3d_recursion_scales_by_powers_of_four(base, e):
    # value^(3/2) of 4^e * value is 8^e * value^(3/2) exactly; only the
    # final 2/3 power rounds
    factor = 4.0**e
    seq = run((3, "maximize"), base)
    scaled = run((3, "maximize"), [factor * v for v in base])
    for n in range(1, len(base) + 1):
        assert _power(factor * base[n - 1], 3) == 8.0**e * _power(base[n - 1], 3)
        assert scaled.value(n) == pytest.approx(factor * seq.value(n), rel=1e-12)


@PROPERTY
@given(part_modes, st.integers(-4, 4))
def test_rescale_by_powers_of_two(modes, e):
    spec = random_spectrum(2, modes)
    scaled = spec.rescaled(2.0**-e)
    assert scaled.nonzero_values() == [2.0**e * v for v in spec.nonzero_values()]
