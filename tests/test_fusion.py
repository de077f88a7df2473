import cmath
import random
from collections import Counter

import pytest

from fusionring import (FusionElement, InputError, VirtualCharacter,
                        alcove_weights, build_root_system, fold, fold_weight,
                        fuse_elements, fusion_product, fusion_table,
                        in_fusion_ideal, tensor_product, verlinde_numeric_check)
from fusionring import fusion
from fusionring.resolution import g2_fusion_ideal_generators
from fusionring.rootdata import weyl_orbit_signed

from conftest import random_character


def a1_fold_oracle(w, k):
    """Independent rank-one reduction: reflect the shifted integer between
    the walls at 0 and k + 2 until it lands inside."""
    m = k + 2
    v = w + 1
    sign = 1
    while True:
        if v % m == 0:
            return None
        if 0 < v < m:
            return v - 1, sign
        v = -v if v < 0 else 2 * m - v
        sign = -sign


def test_a1_fold_against_oracle(a1):
    for k in range(0, 6):
        for w in range(-1, 2001):
            expected = a1_fold_oracle(w, k)
            assert fold_weight(a1, (w,), k) == (
                None if expected is None else ((expected[0],), expected[1]))


def uncapped_fold(rs, w, k):
    """Reflect w + rho into the level-k alcove one wall at a time, with no
    cap on the number of reflections: the slow path for fold_weight."""
    m = k + rs.dual_coxeter
    v = tuple(x + 1 for x in w)
    sign = 1
    while True:
        for i in range(1, rs.rank + 1):
            if v[i - 1] < 0:
                v = rs.reflect(i, v)
                sign = -sign
                break
        else:
            lev = rs.level(v)
            if lev > m:
                v = tuple(x + (m - lev) * t for x, t in zip(v, rs.highest_root))
                sign = -sign
                continue
            if any(x == 0 for x in v) or lev == m:
                return None
            return tuple(x - 1 for x in v), sign


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "F4", "G2"])
def test_fold_weight_against_uncapped_loop(name):
    rs = build_root_system(name)
    rng = random.Random(37)
    for _ in range(150):
        w = tuple(rng.randint(-300, 300) for _ in range(rs.rank))
        k = rng.randint(0, 4)
        assert fold_weight(rs, w, k) == uncapped_fold(rs, w, k), (w, k)


def test_fold_large_weights(a1, a2, g2):
    # far outside the alcove: many reflections, all within the derived cap
    assert not in_fusion_ideal(a1, VirtualCharacter.irrep((1000,)), 0)
    assert fold_weight(g2, (200, 0), 1) == uncapped_fold(g2, (200, 0), 1)
    assert fold_weight(a2, (300, 300), 1) == uncapped_fold(a2, (300, 300), 1)


def test_fold_validates_level_on_zero(g2):
    with pytest.raises(InputError):
        in_fusion_ideal(g2, VirtualCharacter.zero(), -1)
    with pytest.raises(InputError):
        fold(g2, VirtualCharacter.zero(), -3)


def test_fold_rejects_a_wrong_weight_length(g2):
    # the walk zips coordinates: a rank-3 weight used to fold as (1, 0)
    with pytest.raises(InputError, match="length 3"):
        fold(g2, VirtualCharacter.irrep((1, 0, 5)), 1)


def test_in_fusion_ideal_rejects_a_wrong_weight_length(g2):
    # used to die with an IndexError inside the walk
    with pytest.raises(InputError, match="length 1"):
        in_fusion_ideal(g2, VirtualCharacter.irrep((3,)), 1)


def test_fold_known_ideal_generators(g2):
    assert not fold(g2, VirtualCharacter.irrep((3, 0)), 1)
    assert not fold(g2, VirtualCharacter.irrep((0, 1)), 1)
    # interior weights survive with sign +1
    assert fold(g2, VirtualCharacter.irrep((1, 0)), 1) == \
        FusionElement(1, {(1, 0): 1})


def test_fusion_product_examples(g2, a1):
    assert fusion_product(g2, (1, 0), (1, 0), 1) == \
        FusionElement(1, {(0, 0): 1, (1, 0): 1})
    assert fusion_product(a1, (1,), (1,), 1) == FusionElement(1, {(0,): 1})
    vac = (0, 0)
    for b in alcove_weights(g2, 2):
        assert fusion_product(g2, vac, b, 2) == FusionElement(2, {b: 1})
    with pytest.raises(InputError):
        fusion_product(g2, (3, 0), (0, 0), 1)


def test_fusion_product_rejects_a_wrong_weight_length(g2):
    # used to die with an IndexError inside the alcove check
    with pytest.raises(InputError, match="length 1"):
        fusion_product(g2, (1,), (0, 0), 1)


def test_fusion_product_checks_the_level_first(g2):
    # used to report (0, 0) as outside the level -1 alcove
    with pytest.raises(InputError, match="level must be nonnegative"):
        fusion_product(g2, (0, 0), (0, 0), -1)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C2", "G2"])
def test_fusion_table_matches_fold_of_tensor_product(name):
    # the direct formula and the shared walk tables against the slow path:
    # a Klimyk tensor product, then a fold of every constituent
    rs = build_root_system(name)
    irrep = VirtualCharacter.irrep
    for k in range(4):
        table = fusion_table(rs, k)
        basis = alcove_weights(rs, k)
        assert set(table) == {(a, b) for a in basis for b in basis}
        for (a, b), product in table.items():
            expected = fold(rs, tensor_product(rs, irrep(a), irrep(b)), k)
            assert product == expected, (k, a, b)
            assert fusion_product(rs, a, b, k) == expected, (k, a, b)


# Folds of fusion_table(G2, 4): one per shifted weight s + nu, over the
# shifts s and the weights nu of the factors at or before s.  Products
# folded one tensor constituent at a time made about 184 times as many
# at k = 10.
G2_LEVEL_FOUR_FOLDS = 267


def test_fusion_table_folds_each_shifted_weight_once(g2, monkeypatch):
    # every fold goes through the kernel fusion._fold_kernel returns
    walks = Counter()
    fold_kernel = fusion._fold_kernel

    def counted_fold_kernel(rs, k):
        kernel = fold_kernel(rs, k)

        def walk(w, nu=(0,) * rs.rank):
            walks[k, tuple(nu), tuple(w)] += 1
            return kernel.walk(w, nu)
        return kernel._replace(walk=walk)

    monkeypatch.setattr(fusion, "_fold_kernel", counted_fold_kernel)
    fusion_table(g2, 4)
    assert max(walks.values()) == 1
    assert sum(walks.values()) == G2_LEVEL_FOUR_FOLDS


def test_in_fusion_ideal(g2):
    for gen in g2_fusion_ideal_generators(1):
        assert in_fusion_ideal(g2, gen, 1)
    assert in_fusion_ideal(g2, VirtualCharacter.irrep((1, 1)), 2)
    assert not in_fusion_ideal(g2, VirtualCharacter.irrep((0, 0)), 3)


@pytest.mark.parametrize("name,kmax", [("G2", 3), ("A2", 3), ("C2", 3)])
def test_fold_is_ring_map(name, kmax, request):
    rs = request.getfixturevalue(name.lower())
    rng = random.Random(23)
    for k in range(kmax + 1):
        for _ in range(3):
            x = random_character(rs, rng, level=k + 2, terms=2, coeff=2)
            y = random_character(rs, rng, level=k + 2, terms=2, coeff=2)
            lhs = fold(rs, tensor_product(rs, x, y), k)
            rhs = fuse_elements(rs, fold(rs, x, k), fold(rs, y, k))
            assert lhs == rhs


def test_fold_of_irreducible_has_small_support(g2):
    rng = random.Random(29)
    for _ in range(50):
        w = (rng.randint(0, 8), rng.randint(0, 5))
        for k in (1, 2, 3):
            f = fold(g2, VirtualCharacter.irrep(w), k)
            assert len(f.terms) <= 1
            if f.terms:
                assert set(f.terms.values()) <= {1, -1}


@pytest.mark.parametrize("name,kmax", [("G2", 4), ("A2", 4), ("C2", 4)])
def test_fusion_matrices(name, kmax, request):
    rs = request.getfixturevalue(name.lower())
    for k in range(kmax + 1):
        basis = alcove_weights(rs, k)
        table = fusion_table(rs, k)
        index = {b: i for i, b in enumerate(basis)}

        def matrix(a):
            m = [[0] * len(basis) for _ in basis]
            for b in basis:
                for c, coeff in table[(a, b)].terms.items():
                    m[index[b]][index[c]] = coeff
            return m

        mats = {a: matrix(a) for a in basis}
        vac = (0,) * rs.rank
        assert mats[vac] == [[int(i == j) for j in range(len(basis))]
                             for i in range(len(basis))]
        for a in basis:
            for row in mats[a]:
                assert all(x >= 0 for x in row)
        for a in basis:
            for b in basis:
                if b < a:
                    continue
                assert _matmul(mats[a], mats[b]) == _matmul(mats[b], mats[a])


def _matmul(x, y):
    n = len(x)
    return [[sum(x[i][t] * y[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)]


def test_alcove_rank_match(g2):
    for k, expect in [(1, 2), (2, 4), (3, 6), (4, 9)]:
        assert len(alcove_weights(g2, k)) == expect


@pytest.mark.parametrize("name,kmax", [("G2", 3), ("A2", 4), ("A1", 4)])
def test_verlinde_numeric(name, kmax, request):
    rs = request.getfixturevalue(name.lower()) if name != "A1" \
        else request.getfixturevalue("a1")
    for k in range(kmax + 1):
        report = verlinde_numeric_check(rs, k, tol=1e-6)
        assert report.passed
        if k == 0:
            assert report.max_abs_deviation < 1e-12


def fraction_s_matrix(rs, basis, k):
    """S-matrix rows with exact Fraction pairings: the slow path for the
    integer phases of fusion._s_matrix."""
    m = k + rs.dual_coxeter
    rows = []
    for a in basis:
        orbit = weyl_orbit_signed(rs, tuple(x + 1 for x in a))
        row = []
        for b in basis:
            b_rho = tuple(x + 1 for x in b)
            total = 0j
            for v, sign in orbit:
                phase = rs.form_pair(v, b_rho) / m
                total += sign * cmath.exp(-2j * cmath.pi * float(phase))
            row.append(total)
        rows.append(row)
    return rows


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_s_matrix_integer_phases_match_fractions(name):
    # the integer phase is the same correctly rounded double, so every
    # entry is bit-identical, not merely close
    rs = build_root_system(name)
    for k in range(5):
        basis = alcove_weights(rs, k)
        assert fusion._s_matrix(rs, basis, k) == fraction_s_matrix(rs, basis, k)
