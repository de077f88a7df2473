import itertools
import json
import linecache
import random
from fractions import Fraction
from operator import mul

import pytest

from fusionring import (InputError, LieType, TwistedModuleElement, VirtualCharacter,
                        alcove_weights, build_complex, build_root_system, cokernel_vs_oracle,
                        d1_component, d_squared_check, enumerate_labels, extract_presentation,
                        find_module_basis, fold, fold_weight, full_weights, fusion_product,
                        fusion_table, g2_fusion_ideal_generators, module_element_expansion,
                        regularize_affine, shifted_dominant_reduce, verify_module_basis,
                        verify_presentation, verlinde_numeric_check, weight_multiplicity,
                        weyl_dimension, weyl_orbit)
from fusionring import fusion, twisted
from fusionring.sparse import to_json
from fusionring.rootdata import (_check_level, _check_weight, chamber_walk,
                                 connected_type, dominant_reduce, reflection_orbit,
                                 rho_walk, weyl_orbit_signed)
from fusionring.twisted import (centralizer_info, classify_centralizer, is_valid_label,
                                rho2)

from conftest import reference_walk

ALL_SMALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", n) for n in (6, 7, 8)]
    + [("F", 4), ("G", 2)]
)


def test_lie_type_validation():
    with pytest.raises(InputError):
        LieType("E", 5)
    with pytest.raises(InputError):
        LieType("G", 3)
    with pytest.raises(InputError):
        LieType("D", 2)
    with pytest.raises(InputError):
        LieType("H", 4)
    assert str(LieType.parse("e7")) == "E7"
    with pytest.raises(InputError):
        LieType.parse("G")


def test_g2_data():
    rs = build_root_system("G2")
    assert rs.cartan == ((2, -1), (-3, 2))
    # affine node first; nonaffine nodes in Bourbaki order, short root first
    assert rs.comarks == (1, 1, 2)
    assert rs.marks == (1, 3, 2)
    assert rs.dual_coxeter == 4
    assert rs.highest_root == (0, 1)
    assert rs.weyl_order == 12
    assert len(rs.positive_roots) == 6


def test_a_series_comarks_all_one():
    for n in range(1, 9):
        rs = build_root_system(f"A{n}")
        assert rs.comarks == (1,) * (n + 1)
    for n in range(2, 9):
        rs = build_root_system(f"C{n}")
        assert rs.comarks == (1,) * (n + 1)


def test_e8_comarks():
    rs = build_root_system("E8")
    assert rs.comarks == (1, 2, 3, 4, 6, 5, 4, 3, 2)
    assert rs.dual_coxeter == 30


@pytest.mark.parametrize("series,rank", ALL_SMALL_TYPES)
def test_marks_identity_and_dual_coxeter(series, rank):
    rs = build_root_system(f"{series}{rank}")
    n = rs.rank
    # -alpha_0 = sum h_i alpha_i, exactly
    combo = [0] * n
    for i in range(n):
        for j in range(n):
            combo[j] += rs.marks[i + 1] * rs.simple_roots[i][j]
    assert tuple(combo) == rs.highest_root
    assert rs.dual_coxeter == 1 + sum(rs.comarks[1:])
    # comark formula through the invariant form
    theta_norm = rs.form_pair(rs.highest_root, rs.highest_root)
    assert theta_norm == 2
    for i in range(n):
        root = rs.simple_roots[i]
        expected = Fraction(rs.marks[i + 1]) * rs.form_pair(root, root) / theta_norm
        assert expected == rs.comarks[i + 1]


@pytest.mark.parametrize("series,rank", ALL_SMALL_TYPES)
def test_form_symmetric_positive_definite(series, rank):
    rs = build_root_system(f"{series}{rank}")
    n = rs.rank
    for i in range(n):
        for j in range(n):
            assert rs.form[i][j] == rs.form[j][i]
    # leading principal minors positive
    m = [[Fraction(rs.form[i][j]) for j in range(n)] for i in range(n)]
    for size in range(1, n + 1):
        sub = [row[:size] for row in m[:size]]
        det = _det(sub)
        assert det > 0


def _det(m):
    m = [row[:] for row in m]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


@pytest.mark.parametrize("name,order", [
    ("A1", 2), ("A2", 6), ("A3", 24), ("B3", 48), ("C2", 8), ("D4", 192),
    ("G2", 12), ("F4", 1152), ("E6", 51840), ("E7", 2903040), ("E8", 696729600),
])
def test_weyl_order_table(name, order):
    assert build_root_system(name).weyl_order == order


@pytest.mark.parametrize("series,rank", ALL_SMALL_TYPES)
def test_connected_type_names_each_root_system(series, rank):
    # the counts of the whole system give its type, up to the aliases
    # C2 = B2 and D3 = A3; so does its diagram without the affine node
    rs = build_root_system(f"{series}{rank}")
    want = {("C", 2): ("B", 2), ("D", 3): ("A", 3)}.get((series, rank), (series, rank))
    shorts = sum(d < 1 for d in rs.root_lengths)
    assert connected_type(rank, len(rs.positive_roots), shorts) == want
    assert classify_centralizer(rs, range(1, rank + 1)) == (want,)


@pytest.mark.parametrize("counts", [(2, 5, 0), (3, 6, 1), (5, 36, 0), (9, 120, 0)])
def test_connected_type_rejects_counts_of_no_type(counts):
    # an E count at a rank E does not have is no match, not a KeyError
    with pytest.raises(AssertionError, match="no connected type"):
        connected_type(*counts)


@pytest.mark.parametrize("name", ["A1", "A2", "C2", "G2", "A3", "B3", "D3"])
def test_weyl_order_matches_orbit_of_rho(name):
    # rho is regular, so its orbit realizes the whole group
    rs = build_root_system(name)
    assert len(weyl_orbit(rs, rs.rho)) == rs.weyl_order


def test_orbit_examples(g2, a1):
    assert weyl_orbit(g2, (0, 0)) == [(0, 0)]
    orbit = weyl_orbit(g2, (1, 0))
    assert len(orbit) == 6
    norm = g2.form_pair((1, 0), (1, 0))
    assert all(g2.form_pair(w, w) == norm for w in orbit)
    assert weyl_orbit(a1, (3,)) == [(-3,), (3,)]


def _orbit_by_reflect(rs, w):
    """{image: sign} of w under the Weyl group, breadth first over rs.reflect."""
    seen = {w: 1}
    frontier = [w]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(1, rs.rank + 1):
                u = rs.reflect(i, v)
                if u not in seen:
                    seen[u] = -seen[v]
                    nxt.append(u)
        frontier = nxt
    return seen


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3",
                                  "C4", "D4", "F4", "G2"])
def test_weyl_orbits_match_the_reflect_search(name):
    rs = build_root_system(name)
    for lam in alcove_weights(rs, 3):
        assert weyl_orbit(rs, lam) == sorted(_orbit_by_reflect(rs, lam)), lam
        regular = tuple(x + 1 for x in lam)
        assert weyl_orbit_signed(rs, regular) == \
            sorted(_orbit_by_reflect(rs, regular).items()), lam


def _orbit_by_search(rs, walls, level2, point):
    """{image: sign} of a point under a face group, breadth first from the
    point across every wall the image does not lie on, each new image
    signed opposite to the one it was reached from: the general search,
    kept as the oracle of reflection_orbit."""
    gens = [(i, rs.simple_roots[i]) for i in walls]
    if level2 is not None:
        gens.append((None, rs.highest_root))
    comarks = rs.comarks[1:]
    orbit = {point: 1}
    frontier = [point]
    while frontier:
        nxt = []
        for v in frontier:
            sign = -orbit[v]
            for i, root in gens:
                c = v[i] if i is not None else sum(map(mul, comarks, v)) - level2
                if c:
                    u = tuple([x - c * r for x, r in zip(v, root)])
                    if u not in orbit:
                        orbit[u] = sign
                        nxt.append(u)
        frontier = nxt
    return orbit


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"])
def test_reflection_orbit_matches_the_general_search(name):
    # reflection_orbit walks into the chamber and grows outward only; the
    # images and the signs must be those of the search from the point
    # itself, on regular points and on wall points of every face group
    rs = build_root_system(name)
    n = rs.rank
    for mask in range(2 ** (n + 1) - 1):
        subset = tuple(i for i in range(n + 1) if mask >> i & 1)
        walls = tuple(i - 1 for i in subset if i)
        order = centralizer_info(rs, subset).weyl_order
        for level2 in (0, 1, 2) if 0 in subset else (None,):
            kinds = set()
            for point in itertools.product(range(-3, 4), repeat=n):
                orbit = reflection_orbit(rs, walls, level2, point)
                assert orbit == _orbit_by_search(rs, walls, level2, point), \
                    (subset, level2, point)
                kinds.add(len(orbit) == order)
            assert kinds == {True, False} or order == 1, (subset, level2)


@pytest.mark.parametrize("name", ["G2", "A2", "C2", "B3"])
def test_orbit_size_divides_group_order(name):
    rs = build_root_system(name)
    rng = random.Random(7)
    for _ in range(100):
        w = tuple(rng.randint(-4, 4) for _ in range(rs.rank))
        assert rs.weyl_order % len(weyl_orbit(rs, w)) == 0


def test_shifted_reduce_examples(a1):
    assert shifted_dominant_reduce(a1, (-1,)) is None
    assert shifted_dominant_reduce(a1, (-2,)) == ((0,), -1)
    assert shifted_dominant_reduce(a1, (5,)) == ((5,), 1)


@pytest.mark.parametrize("name", ["G2", "A2", "C2"])
def test_shifted_reduce_properties(name):
    rs = build_root_system(name)
    rng = random.Random(11)
    for _ in range(200):
        w = tuple(rng.randint(-5, 5) for _ in range(rs.rank))
        red = shifted_dominant_reduce(rs, w)
        if red is None:
            continue
        mu, sign = red
        assert shifted_dominant_reduce(rs, mu) == (mu, 1)
        # one more reflection flips the sign
        i = rng.randint(1, rs.rank)
        reflected = tuple(x - 1 for x in rs.reflect(i, tuple(y + 1 for y in w)))
        red2 = shifted_dominant_reduce(rs, reflected)
        if reflected == w:
            assert red2 is None or red2 == (mu, sign)
        else:
            assert red2 == (mu, -sign)


def test_alcove_weights(g2, a1):
    for k in range(21):
        assert len(alcove_weights(a1, k)) == k + 1
    assert alcove_weights(g2, 0) == [(0, 0)]
    assert alcove_weights(g2, 1) == [(0, 0), (1, 0)]
    # independent enumeration with comarks (1, 2)
    expected = sorted((a, b) for a in range(5) for b in range(3) if a + 2 * b <= 4)
    assert alcove_weights(g2, 4) == expected
    with pytest.raises(InputError):
        alcove_weights(g2, -1)


def test_weight_multiplicity_examples(g2, a1):
    assert weight_multiplicity(g2, (1, 0), (1, 0)) == 1
    # adjoint zero weight: dimension minus the twelve roots
    n_roots = 2 * len(g2.positive_roots)
    assert weight_multiplicity(g2, (0, 1), (0, 0)) == weyl_dimension(g2, (0, 1)) - n_roots
    assert weight_multiplicity(g2, (0, 1), (0, 0)) == 2
    # weight outside the root-lattice coset of the highest weight
    assert weight_multiplicity(a1, (2,), (1,)) == 0
    with pytest.raises(InputError):
        weight_multiplicity(g2, (-1, 0), (0, 0))


def test_dimension_examples(g2):
    assert weyl_dimension(g2, (0, 0)) == 1
    assert weyl_dimension(g2, (1, 0)) == 7
    assert weyl_dimension(g2, (0, 1)) == 14
    with pytest.raises(InputError):
        weyl_dimension(g2, (0, -1))


@pytest.mark.parametrize("name", ["G2", "A2"])
def test_dimension_equals_sum_of_multiplicities(name):
    rs = build_root_system(name)
    for highest in alcove_weights(rs, 4):
        total = sum(full_weights(rs, highest).values())
        assert total == weyl_dimension(rs, highest)


def _fraction_multiplicities(rs, lam):
    """The rational-arithmetic Freudenthal recursion, kept as an oracle."""
    n = rs.rank
    norm_top = rs.form_pair(tuple(x + 1 for x in lam), tuple(x + 1 for x in lam))
    bounds = [int(sum(lam[i] * rs.form[i][j] for i in range(n)) / rs.root_lengths[j])
              for j in range(n)]
    candidates = []
    stack = [(0, (), list(lam))]
    while stack:
        j, coeffs, mu = stack.pop()
        if j == n:
            if all(x >= 0 for x in mu):
                candidates.append((sum(coeffs), coeffs, tuple(mu)))
            continue
        cur = mu
        for c in range(bounds[j] + 1):
            stack.append((j + 1, coeffs + (c,), list(cur)))
            cur = [x - r for x, r in zip(cur, rs.cartan[j])]
    mults = {}
    for height, coeffs, mu in sorted(candidates):
        if height == 0:
            mults[mu] = 1
            continue
        total = Fraction(0)
        for alpha, alpha_c in zip(rs.positive_roots, rs.positive_root_coords):
            j = 1
            while all(a - j * b >= 0 for a, b in zip(coeffs, alpha_c)):
                nu = tuple(a + j * b for a, b in zip(mu, alpha))
                total += mults.get(dominant_reduce(rs, nu), 0) * rs.form_pair(nu, alpha)
                j += 1
        mu_rho = tuple(x + 1 for x in mu)
        val = 2 * total / (norm_top - rs.form_pair(mu_rho, mu_rho))
        assert val.denominator == 1 and val >= 0
        if val:
            mults[mu] = int(val)
    return mults


FREUDENTHAL_TYPES = ([f"A{n}" for n in range(1, 5)] + [f"B{n}" for n in range(2, 5)]
                     + [f"C{n}" for n in range(2, 5)] + ["D3", "D4", "F4", "G2", "E6"])


def _small_dominant(rs):
    """Zero and the fundamental weights; their pairwise sums up to rank
    three; the level-4 alcove in rank two."""
    n = rs.rank
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    out = {(0,) * n} | set(unit)
    if n <= 3:
        out |= {tuple(a + b for a, b in zip(u, v)) for u in unit for v in unit}
    if n == 2:
        out |= set(alcove_weights(rs, 4))
    return sorted(out)


def _expanded_fraction_weights(rs, lam):
    """_fraction_multiplicities written onto every Weyl orbit."""
    return {v: m for mu, m in _fraction_multiplicities(rs, lam).items()
            for v in weyl_orbit(rs, mu)}


@pytest.mark.parametrize("name", FREUDENTHAL_TYPES)
def test_integer_freudenthal(name):
    rs = build_root_system(name)
    for lam in _small_dominant(rs):
        weights = full_weights(rs, lam)
        dominant = {mu: m for mu, m in weights.items() if rs.is_dominant(mu)}
        assert dominant == _fraction_multiplicities(rs, lam)
        assert sum(weights.values()) == weyl_dimension(rs, lam)


@pytest.mark.parametrize("name", FREUDENTHAL_TYPES)
def test_full_weights_match_the_expanded_oracle(name):
    rs = build_root_system(name)
    for lam in _small_dominant(rs):
        assert full_weights(rs, lam) == _expanded_fraction_weights(rs, lam), lam


@pytest.mark.parametrize("name,level", [("A1", 6), ("A2", 6), ("B2", 6), ("C2", 6),
                                        ("G2", 6), ("A3", 2), ("B3", 2)])
def test_full_weights_match_the_oracle_on_the_alcove(name, level):
    rs = build_root_system(name)
    for lam in alcove_weights(rs, level):
        assert full_weights(rs, lam) == _expanded_fraction_weights(rs, lam), lam


def test_full_weights_rejects_a_bad_highest_weight(g2):
    with pytest.raises(InputError, match="dominant"):
        full_weights(g2, (-1, 0))
    with pytest.raises(InputError, match="length 1"):
        full_weights(g2, (1,))


def _outcome(walk, *args):
    try:
        return walk(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3",
                                  "C4", "D4", "F4", "G2"])
def test_generated_walks_match_the_reference_walk(name):
    # every proper face at doubled levels 0..8 and the full affine group,
    # each with its own shift and with a random one: odd entries make some
    # labels half-integral, so the parity AssertionError is compared too
    rs = build_root_system(name)
    n = rs.rank
    rng = random.Random(name)
    groups = []
    for mask in range(2 ** (n + 1) - 1):
        face = tuple(i for i in range(n + 1) if mask >> i & 1)
        walls = tuple(i - 1 for i in face if i)
        for level2 in range(9) if 0 in face else (None,):
            groups.append((walls, rho2(rs, face), level2))
    walls = tuple(range(n))
    groups += [(walls, (2,) * n, 2 * (k + rs.dual_coxeter)) for k in range(5)]
    groups += [(walls, (2,) * n, level2) for level2 in range(1, 9)]
    compared = raised = 0
    for walls, shift2, level2 in groups:
        for shift2 in (shift2, tuple(rng.randint(-3, 3) for _ in range(n))):
            kernel = chamber_walk(rs, walls, shift2, level2)
            reference = reference_walk(rs, walls, shift2, level2)
            for _ in range(6):
                w = tuple(rng.randint(-12, 12) for _ in range(n))
                nu = tuple(rng.randint(-4, 4) for _ in range(n))
                for args in ((w,), (w, nu)):
                    expected = _outcome(reference, *args)
                    assert _outcome(kernel.walk, *args) == expected, \
                        (walls, shift2, level2, args)
                    compared += 1
                    raised += expected is not None and isinstance(expected[0], type)
    # in rank one every reflection keeps the parity of beta, so no label
    # is half-integral
    assert (raised > 0) == (n > 1) and compared > 2 * raised


def test_walk_kernels_are_named_after_their_group():
    # tracebacks and profiles tell the generated kernels apart
    g2 = build_root_system("G2")
    name = rho_walk(g2, 26).walk.__code__.co_filename
    assert name == "<chamber_walk G2 walls=(0, 1) shift2=(2, 2) level2=26>"
    assert linecache.getline(name, 1) == "def walk(w, nu=zero):\n"
    kernel = chamber_walk(build_root_system("B3"), (1, 2), (0, 2, 2), None)
    assert "B3" in kernel.walk.__code__.co_filename
    assert "level2=None" in kernel.walk.__code__.co_filename


class _Index:
    """An integer-like coordinate: not an int, but with __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


WEIGHT_ENTRY_POINTS = {
    "weyl_orbit": lambda g2, w: weyl_orbit(g2, w),
    "fold_weight": lambda g2, w: fold_weight(g2, w, 2),
    "regularize_affine": lambda g2, w: regularize_affine(g2, (0, 1), 2, w),
    "is_valid_label": lambda g2, w: is_valid_label(g2, (0, 1), 2, w),
    "d1_component": lambda g2, w: d1_component(g2, (1,), 0, 2, w),
    "fusion_product": lambda g2, w: fusion_product(g2, w, (0, 0), 2),
}


@pytest.mark.parametrize("name", sorted(WEIGHT_ENTRY_POINTS))
def test_weight_entry_points_reject_a_non_integral_coordinate(name):
    # weyl_orbit returned a half-integral orbit, and the walks raised a bare
    # TypeError; an integer-like coordinate still passes as its int
    g2 = build_root_system("G2")
    call = WEIGHT_ENTRY_POINTS[name]
    with pytest.raises(InputError, match=r"weight \(0\.5, 0\) has a non-integral coordinate"):
        call(g2, (0.5, 0))
    with pytest.raises(InputError, match="non-integral"):
        call(g2, (1.0, 0))
    assert call(g2, (_Index(1), False)) == call(g2, (1, 0))


def test_checked_weights_come_back_as_ints():
    g2 = build_root_system("G2")
    checked = _check_weight(g2, [_Index(2), True])
    assert checked == (2, 1) and all(type(x) is int for x in checked)


LEVEL_ENTRY_POINTS = {
    "twisted._bounds": lambda g2, k: twisted._bounds(g2, k),
    "fusion._fold_kernel": lambda g2, k: fusion._fold_kernel(g2, k),
    "alcove_weights": lambda g2, k: alcove_weights(g2, k),
    "build_complex": lambda g2, k: build_complex(g2, k),
    "d_squared_check": lambda g2, k: d_squared_check(g2, k),
    "fusion_table": lambda g2, k: fusion_table(g2, k),
    "verlinde_numeric_check": lambda g2, k: verlinde_numeric_check(g2, k),
    "cokernel_vs_oracle": lambda g2, k: cokernel_vs_oracle(g2, k),
    "fusion_product": lambda g2, k: fusion_product(g2, (1, 0), (0, 1), k),
    "regularize_affine": lambda g2, k: regularize_affine(g2, (0, 1), k, (3, 1)),
    "find_module_basis": lambda g2, k: find_module_basis(g2, (0, 2), k),
    "extract_presentation": lambda g2, k: extract_presentation(g2, k),
    "verify_module_basis": lambda g2, k: verify_module_basis(
        g2, (0, 2), k, find_module_basis(g2, (0, 2), 2)),
    "enumerate_labels": lambda g2, k: enumerate_labels(g2, (0, 2), k, 3),
    "fold": lambda g2, k: fold(g2, VirtualCharacter.irrep((2, 1)), k),
    "verify_presentation": lambda g2, k: verify_presentation(
        g2, k, g2_fusion_ideal_generators(2), primes=(2,)),
    "module_element_expansion": lambda g2, k: module_element_expansion(g2, (0, 1), k, (1, 0)),
    "TwistedModuleElement.label": lambda g2, k: TwistedModuleElement.label(
        g2, (0, 1), k, (0, 0)),
}


@pytest.mark.parametrize("name", sorted(LEVEL_ENTRY_POINTS))
def test_level_checks_reject_a_non_integral_level(name):
    # build_complex returned a spec at level 1.5, and the walks raised a
    # bare TypeError at 2.0; a negative level keeps its message
    g2 = build_root_system("G2")
    call = LEVEL_ENTRY_POINTS[name]
    for k in (1.5, 2.0):
        with pytest.raises(InputError, match=rf"level {k} is not an integer"):
            call(g2, k)
    with pytest.raises(InputError, match="level must be nonnegative"):
        call(g2, -1)
    assert _check_level(_Index(3)) == 3


@pytest.mark.parametrize("name", sorted(LEVEL_ENTRY_POINTS))
def test_level_entry_points_run_at_the_checked_int(name):
    # an integer-like level raised a bare TypeError at eleven of these and
    # came back as the level of fusion_table, fold and verify_presentation;
    # each now runs at the int the check returns.  A level kept as the
    # object would write its repr, not 2, into the JSON
    g2 = build_root_system("G2")
    call = LEVEL_ENTRY_POINTS[name]

    def text(result):
        return json.dumps(to_json(result), sort_keys=True, default=repr)

    assert text(call(g2, _Index(2))) == text(call(g2, 2))
