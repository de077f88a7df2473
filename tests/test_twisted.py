import copy
import hashlib
import itertools
import json
import random
import re
from fractions import Fraction
from math import gcd

import pytest

from fusionring import (InputError, InternalLimitError, VirtualCharacter, alcove_weights,
                        build_root_system, census, centralizer_info, enumerate_labels,
                        face_subset, find_module_basis, full_weights, tensor_product,
                        twist_order, verify_module_basis)
from fusionring import resolution, twisted
from fusionring.intlinalg import ZEchelon
from fusionring.rootdata import reflection_orbit, weyl_orbit
from fusionring.twisted import is_valid_label, rho2, translation_weight

import conftest
from conftest import (TwistedModuleElement, char_expansion, form_pair, laurent_add,
                      laurent_mul, laurent_scale, module_element_expansion, random_character,
                      reflect, rg_multiply)

ALL_SMALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", n) for n in (6, 7, 8)]
    + [("F", 4), ("G", 2)]
)


def test_rho_s_examples(g2):
    # rho2 is 2 rho_S, twice the half sum of the face's positive roots
    assert rho2(g2, ()) == (0, 0)
    assert rho2(g2, (1, 2)) == (2, 2)
    # orthogonal pair of the affine and the short simple root
    assert rho2(g2, (0, 1)) == (2, -2)
    # the two long simple roots span a rank-two subsystem with three positives
    assert rho2(g2, (0, 2)) == (-6, 2)
    # single short root gives a genuinely half-integral shift
    assert rho2(g2, (1,)) == (2, -1)


def test_twist_order_examples(g2):
    assert twist_order(g2, (0, 1)) == 2
    assert twist_order(g2, (0, 2)) == 1
    f4 = build_root_system("F4")
    assert twist_order(f4, (0, 1, 3, 4)) == 3
    with pytest.raises(InputError):
        twist_order(g2, (0, 1, 2))


def test_census_type_a_c_empty():
    for n in range(1, 9):
        assert census(build_root_system(f"A{n}")) == []
    for n in range(2, 9):
        assert census(build_root_system(f"C{n}")) == []


def test_census_g2(g2):
    entries = census(g2)
    assert len(entries) == 1
    e = entries[0]
    assert e.subset == (0, 1)
    assert e.centralizer_type == "A1+A1"
    assert e.twist_order == 2
    assert e.module_rank == 3


def test_census_f4():
    entries = census(build_root_system("F4"))
    got = sorted((e.centralizer_type, e.twist_order) for e in entries)
    assert got == [("A1+A1+A1", 2), ("A2+A2", 3), ("A3+A1", 2), ("C3+A1", 2)]


def test_census_e6():
    entries = census(build_root_system("E6"))
    order2 = [e for e in entries if e.twist_order == 2]
    order3 = [e for e in entries if e.twist_order == 3]
    assert len(order2) == 7 and len(order3) == 1
    assert sorted(e.centralizer_type for e in order2) == [
        "A1+A1+A1+A1", "A3+A1+A1", "A3+A1+A1", "A3+A1+A1",
        "A5+A1", "A5+A1", "A5+A1"]
    assert order3[0].centralizer_type == "A2+A2+A2"


def test_census_e7():
    rs = build_root_system("E7")
    entries = census(rs)
    assert len([e for e in entries if e.twist_order == 2]) == 14
    order3 = sorted(e.centralizer_type for e in entries if e.twist_order == 3)
    assert order3 == ["A2+A2+A2", "A5+A2", "A5+A2"]
    order4 = [e.centralizer_type for e in entries if e.twist_order == 4]
    assert order4 == ["A3+A3+A1"]


def test_census_e8():
    rs = build_root_system("E8")
    entries = census(rs)
    vertex = [e for e in entries if len(e.subset) == rs.rank]
    beyond = [e for e in entries if len(e.subset) < rs.rank]
    # the eight vertex modules are twisted with the comark as order
    assert sorted(e.twist_order for e in vertex) == [2, 2, 3, 3, 4, 4, 5, 6]
    assert len([e for e in beyond if e.twist_order == 2]) == 25
    assert sorted(e.centralizer_type for e in beyond if e.twist_order == 3) == \
        ["A2+A2+A2", "A2+A2+A2+A1", "A5+A2", "A5+A2"]
    assert [e.centralizer_type for e in beyond if e.twist_order == 4] == ["A3+A3+A1"]


def _face_infos(series, rank):
    """(root system, subset, centralizer_info) of every proper face, by node mask."""
    rs = build_root_system(f"{series}{rank}")
    n = rs.rank
    for mask in range(2 ** (n + 1) - 1):
        subset = tuple(i for i in range(n + 1) if mask >> i & 1)
        yield rs, subset, centralizer_info(rs, subset)


@pytest.mark.parametrize("series,rank", ALL_SMALL_TYPES)
def test_centralizer_rank_factorization(series, rank):
    for rs, subset, info in _face_infos(series, rank):
        assert info.module_rank * info.weyl_order == rs.weyl_order
        comps = [i for i in range(rs.rank + 1) if i not in subset]
        g = 0
        for i in comps:
            g = gcd(g, rs.comarks[i])
        assert info.twist_order == g
        for i in comps:
            assert rs.comarks[i] % info.twist_order == 0


def test_every_face_type_is_pinned():
    # the type of each of the 4 963 proper faces up to rank 8: the Weyl
    # order check above misses a B_r/C_r or a D/E swap
    rows = [[f"{series}{rank}", list(subset), info.centralizer_type]
            for series, rank in ALL_SMALL_TYPES
            for _, subset, info in _face_infos(series, rank)]
    assert len(rows) == 4963
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
        "9650dd955d983530a7887f7a4ba488e6edb161427eccf7a85ad9a32ec829da71"


def _face_orbit(rs, subset, k, w):
    """The signed orbit of 2 w + 2 rho_S under the level-k face group."""
    point = tuple(2 * x + y for x, y in zip(w, rho2(rs, subset)))
    return reflection_orbit(rs, tuple(i - 1 for i in subset if i),
                            2 * k if 0 in subset else None, point)


def test_face_group_order_matches_type(g2):
    # the orbit of a label, a regular point, is as large as the face group,
    # whose order the type classification gives
    for subset in [(), (1,), (2,), (0,), (0, 1), (0, 2), (1, 2)]:
        subset = face_subset(g2, subset)
        info = centralizer_info(g2, subset)
        label = enumerate_labels(g2, subset, 1, 3)[0]
        assert len(_face_orbit(g2, subset, 1, label)) == info.weyl_order


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4",
                                  "G2"])
def test_rho_s_orbit_is_the_face_group(name):
    # rho_S pairs to 1 with every simple coroot of the face, so 2 rho_S is
    # regular and its orbit is a copy of the face group at every level
    rs = build_root_system(name)
    zero = (0,) * rs.rank
    for subset in _proper_faces(rs):
        order = centralizer_info(rs, subset).weyl_order
        for k in range(3):
            orbit = _face_orbit(rs, subset, k, zero)
            assert len(orbit) == order, (subset, k)
            assert sum(orbit.values()) == (order == 1), (subset, k)


def test_regularize_examples(g2, a1):
    # already a label
    assert twisted._face_walk(g2, (0, 1), 1).walk((0, 0)) == ((0, 0), 1)
    # (0,1) + rho_S = (1,0) sits on the level-1 affine wall
    assert twisted._face_walk(g2, (0, 1), 1).walk((0, 1)) is None
    # rank one: shift crosses the affine wall once
    assert twisted._face_walk(a1, (0,), 2).walk((4,)) == ((2,), -1)
    # wall case
    assert twisted._face_walk(a1, (0,), 2).walk((3,)) is None


@pytest.mark.parametrize("name", ["G2", "C2"])
def test_regularize_sign_consistency(name):
    rs = build_root_system(name)
    rng = random.Random(41)
    faces = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    checked = 0
    while checked < 200:
        subset = face_subset(rs, rng.choice(faces))
        k = rng.randint(0, 3)
        w = tuple(rng.randint(-5, 5) for _ in range(rs.rank))
        walk = twisted._face_walk(rs, subset, k).walk
        red = walk(w)
        gen = rng.choice(subset)
        # apply one generator to w + rho_S and reduce again
        beta2 = tuple(2 * x + y for x, y in zip(w, rho2(rs, subset)))
        if gen == 0:
            lev = rs.level(beta2)
            beta2 = tuple(x + (2 * k - lev) * t
                          for x, t in zip(beta2, rs.highest_root))
        else:
            beta2 = reflect(rs, gen, beta2)
        w2 = tuple((x - y) // 2 for x, y in zip(beta2, rho2(rs, subset)))
        red2 = walk(w2)
        if red is None:
            assert red2 is None
        elif w2 == w:
            assert red2 == red
        else:
            assert red2 == (red[0], -red[1])
        checked += 1


def test_parity_periodicity(g2):
    # the level-k and level-(k+2) modules coincide after one lattice shift
    # along the face normal, label by label
    from fusionring.twisted import is_valid_label
    delta = translation_weight(g2, (0, 1))
    assert delta == (0, 1)
    rng = random.Random(19)
    for _ in range(300):
        k = rng.randint(0, 3)
        mu = (rng.randint(-6, 6), rng.randint(-6, 6))
        shifted = tuple(a + b for a, b in zip(mu, delta))
        assert is_valid_label(g2, (0, 1), k, mu) == \
            is_valid_label(g2, (0, 1), k + 2, shifted)


def test_label_rejects_a_wrong_weight_length(g2):
    # the torus face has no walls, so a rank-1 label used to pass
    with pytest.raises(InputError, match="length 1"):
        TwistedModuleElement.label(g2, (), 0, (1,))


def test_is_valid_label_rejects_a_wrong_weight_length(g2):
    with pytest.raises(InputError, match="length 1"):
        is_valid_label(g2, (0, 1), 1, (1,))


def _chamber_inequalities(rs, subset, k, mu):
    """is_valid_label by the chamber inequalities, kept as its oracle: the
    doubled point 2 mu + 2 rho_S is positive on the linear walls of the
    face and, with node 0, below the affine wall at doubled level 2k."""
    beta = twisted._beta2(rs, subset, mu)
    return (all(beta[i - 1] > 0 for i in subset if i)
            and (0 not in subset or rs.level(beta) < 2 * k))


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"])
def test_is_valid_label_matches_the_chamber_inequalities(name):
    # every proper face at k <= 3, labels in [-5, 5]^n
    rs = build_root_system(name)
    box = list(itertools.product(range(-5, 6), repeat=rs.rank))
    for subset in _proper_faces(rs):
        for k in range(4):
            for mu in box:
                assert is_valid_label(rs, subset, k, mu) == \
                    _chamber_inequalities(rs, subset, k, mu), (subset, k, mu)


def test_rg_multiply_rejects_a_wrong_weight_length(g2):
    chi = VirtualCharacter.irrep((1, 0))
    short = TwistedModuleElement((), 0, {(1,): 1})
    with pytest.raises(InputError, match="length 1"):
        rg_multiply(g2, chi, short)
    with pytest.raises(InputError, match="length 1"):
        rg_multiply(g2, VirtualCharacter.irrep((1,)),
                    TwistedModuleElement.label(g2, (), 0, (1, 0)))


def test_module_elements_name_their_face_in_any_order(g2):
    # the face is a set of nodes: its order and repeats name one module
    x = TwistedModuleElement((1, 0), 1, {(0, 0): 1})
    y = TwistedModuleElement((0, 1, 1), 1, {(0, 0): 1})
    assert x.subset == y.subset == (0, 1)
    assert x == y and hash(x) == hash(y)
    assert (x + y).terms == {(0, 0): 2}
    with pytest.raises(InputError, match="node 7"):
        rg_multiply(g2, VirtualCharacter.irrep((0, 0)), TwistedModuleElement((0, 7), 1))


def test_rg_multiply_unit_and_torus(g2):
    x = TwistedModuleElement.label(g2, (0, 1), 1, (0, 0))
    one = VirtualCharacter.irrep((0, 0))
    assert rg_multiply(g2, one, x) == x
    # with no reflections the action is the plain weight expansion
    t = TwistedModuleElement.label(g2, (), 0, (0, 0))
    chi = VirtualCharacter.irrep((1, 0))
    expanded = rg_multiply(g2, chi, t)
    assert expanded.terms == full_weights(g2, (1, 0))


def test_module_element_expansion_checks_the_label(g2):
    with pytest.raises(InputError, match="length 3"):
        module_element_expansion(g2, (0, 1), 1, (0, 0, 5))


def test_module_element_expansion_of_a_large_face(monkeypatch):
    # the face group has 5040 elements; its orbit has no cap.  The face is
    # classified once per expansion, for both antisymmetrizers
    a6 = build_root_system("A6")
    calls = []
    info = conftest.centralizer_info
    monkeypatch.setattr(conftest, "centralizer_info",
                        lambda *args: calls.append(args) or info(*args))
    assert module_element_expansion(a6, range(1, 7), 0, (0,) * 6) == {(0,) * 6: 1}
    assert len(calls) == 1


def test_module_element_expansion_on_a_wall(g2):
    # (0, 1) + rho_S sits on the level-1 affine wall: the sum cancels
    assert twisted._face_walk(g2, (0, 1), 1).walk((0, 1)) is None
    assert module_element_expansion(g2, (0, 1), 1, (0, 1)) == {}


def test_rg_multiply_matches_expansion(g2):
    x = TwistedModuleElement.label(g2, (0, 1), 1, (0, 0))
    chi = VirtualCharacter.irrep((1, 0))
    prod = rg_multiply(g2, chi, x)
    assert prod.terms == {(1, 0): 1, (2, -1): 1, (1, -1): 1}
    lhs = laurent_mul(char_expansion(g2, chi),
                      module_element_expansion(g2, (0, 1), 1, (0, 0)))
    rhs = {}
    for lab, c in prod.terms.items():
        rhs = laurent_add(rhs, laurent_scale(
            module_element_expansion(g2, (0, 1), 1, lab), c))
    assert lhs == rhs


def test_rg_multiply_module_axioms(g2):
    rng = random.Random(13)
    for subset, k in [((0, 1), 1), ((0, 2), 2), ((1,), 0)]:
        base = enumerate_labels(g2, subset, k, 3)
        x = TwistedModuleElement(subset, k, {rng.choice(base): 1,
                                             rng.choice(base): -2})
        for _ in range(3):
            c1 = random_character(g2, rng, level=2, terms=2, coeff=2)
            c2 = random_character(g2, rng, level=2, terms=2, coeff=2)
            assert rg_multiply(g2, c1, rg_multiply(g2, c2, x)) == \
                rg_multiply(g2, tensor_product(g2, c1, c2), x)
            assert rg_multiply(g2, c1 + c2, x) == \
                rg_multiply(g2, c1, x) + rg_multiply(g2, c2, x)


G2_BASES = [
    ("torus", (), 0,
     ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
      (2, -1), (2, 0), (2, 1), (3, -1), (3, 0), (3, 1)), 12),
    ("u2 short", (1,), 0,
     ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)), 6),
    ("u2 long", (2,), 0,
     ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (-2, 2)), 6),
    ("su3 vertex", (0, 2), 0, ((0, 0), (-1, 0)), 2),
    ("so4 vertex even", (0, 1), 0, ((0, 0), (1, -1), (0, -1)), 3),
    ("so4 vertex odd", (0, 1), 1, ((0, 0), (1, 0), (1, -1)), 3),
]


@pytest.mark.parametrize("name,subset,k,labels,rank", G2_BASES)
def test_g2_module_bases(g2, name, subset, k, labels, rank):
    report = verify_module_basis(g2, subset, k, labels)
    assert report.module_rank == rank
    assert report.passed, report.failure


def test_translated_bases_at_higher_level(g2):
    # the level-k bases are lattice translates of the base-level ones
    assert verify_module_basis(g2, (0, 2), 3, ((3, 0), (2, 0))).passed
    assert verify_module_basis(g2, (0, 1), 2, ((0, 1), (1, 0), (0, 0))).passed
    assert verify_module_basis(g2, (0, 1), 3, ((0, 1), (1, 1), (1, 0))).passed


def test_wrong_candidate_count_fails_fast(g2):
    report = verify_module_basis(g2, (0, 2), 0, ((0, 0),))
    assert not report.passed
    assert "rank" in report.failure


def test_stale_basis_fails(g2):
    # the base-level basis stops generating once the level grows
    report = verify_module_basis(g2, (0, 2), 1, ((0, 0), (-1, 0)))
    assert not report.passed


def test_swapped_rows_keep_small_entries(g2):
    # the stale basis leaves pivots other than 1, so inserts swap rows; a
    # swapped row is tail-reduced, and the entries of the echelon stay
    # small (without that reduction they pass two million bits)
    key = twisted._label_key(g2)
    ech = twisted._product_echelon(g2, (0, 2), 1, ((0, 0), (-1, 0)), 14, key)
    assert any(vec[col] != 1 for col, (vec, _) in ech.rows.items())
    assert max(abs(v) for vec, _ in ech.rows.values() for v in vec.values()) < 1 << 64


def test_find_module_basis_matches_proof_structure(g2, a1):
    assert find_module_basis(a1, (0,), 4) == [(4,)]
    assert find_module_basis(g2, (0, 2), 2) == [(2, 0), (1, 0)]
    found = find_module_basis(g2, (0, 1), 2)
    assert len(found) == 3


def _proper_faces(rs):
    nodes = range(rs.rank + 1)
    return [face_subset(rs, [i for i in nodes if mask >> i & 1])
            for mask in range(2 ** (rs.rank + 1) - 1)]


def _walk_by_group(rs, subset, k, w):
    """The image of 2w + 2 rho_S in the open chamber, found on its signed
    orbit under the face group, with the determinant of the element used."""
    r2 = rho2(rs, subset)
    hits = []
    for p, sign in _face_orbit(rs, subset, k, w).items():
        if all(p[i - 1] > 0 for i in subset if i) and \
                (0 not in subset or rs.level(p) < 2 * k):
            assert all((x - y) % 2 == 0 for x, y in zip(p, r2))
            hits.append((tuple((x - y) // 2 for x, y in zip(p, r2)), sign))
    assert len(hits) <= 1
    return hits[0] if hits else None


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_face_walk_against_group_enumeration(name):
    rs = build_root_system(name)
    box = range(-3, 4)
    for subset in _proper_faces(rs):
        for k in range(3):
            for w in ((a, b) for a in box for b in box):
                assert twisted._face_walk(rs, subset, k).walk(w) == \
                    _walk_by_group(rs, subset, k, w), (subset, k, w)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_found_bases_pass_the_independent_check(name):
    # find_module_basis certifies on the echelon its search built;
    # verify_module_basis rebuilds every product row from scratch.  The
    # walk of a face without the affine node ignores the level, so those
    # faces are searched at level 0 only.
    rs = build_root_system(name)
    for subset in _proper_faces(rs):
        for k in range(3 if 0 in subset else 1):
            bound = k + rs.dual_coxeter
            basis = find_module_basis(rs, subset, k, level_bound=bound)
            report = verify_module_basis(rs, subset, k, basis, level_bound=bound)
            assert report.passed, (subset, k, report.failure)


def test_small_lambda_bound_still_fails(g2):
    with pytest.raises(InternalLimitError, match="raise lambda_bound"):
        find_module_basis(g2, (0, 2), 0, lambda_bound=3)


def test_basis_calls_reject_a_negative_level(g2):
    with pytest.raises(InputError, match="level must be nonnegative"):
        find_module_basis(g2, (0, 2), -1)
    with pytest.raises(InputError, match="level must be nonnegative"):
        enumerate_labels(g2, (0, 2), -1, 3)


@pytest.mark.parametrize("call", [
    lambda g2: is_valid_label(g2, (0, 1), -1, (0, -2)),
    lambda g2: twisted._face_walk(g2, (0, 1), -1),
    lambda g2: resolution._cofaces(g2, (1,), -1),
    lambda g2: TwistedModuleElement.label(g2, (0, 1), -1, (0, -2)),
    lambda g2: module_element_expansion(g2, (0, 1), -1, (0, -2)),
], ids=["is_valid_label", "_face_walk", "_cofaces", "label", "module_element_expansion"])
def test_face_walks_reject_a_negative_level(g2, call):
    # each walks a face, and there is no alcove at a negative level
    with pytest.raises(InputError, match="level must be nonnegative"):
        call(g2)


def test_verify_module_basis_rejects_a_level_bound_below_the_level(g2):
    with pytest.raises(InputError, match="level_bound must be at least the level"):
        verify_module_basis(g2, (0, 2), 2, ((2, 0), (1, 0)), level_bound=1)


def test_find_module_basis_rejects_bad_bounds(g2):
    # the bound is checked against the base level the window is enumerated
    # at: 1 for the face (0, 1) (twist order 2) at level 3
    with pytest.raises(InputError, match="level_bound must be at least the level"):
        find_module_basis(g2, (0, 1), 3, level_bound=0)
    with pytest.raises(InputError, match="level_bound must be at least the level"):
        find_module_basis(g2, (0, 2), 0, level_bound=-1)
    with pytest.raises(InputError, match="lambda_bound must be nonnegative"):
        find_module_basis(g2, (0, 2), 0, lambda_bound=-1)


SO4_ODD_LABELS = ((0, 0), (1, 0), (1, -1))
BOUND_ENTRY_POINTS = {
    "d_squared_check": lambda g2, **b: resolution.d_squared_check(g2, 1, **b),
    "cokernel_vs_oracle": lambda g2, **b: resolution.cokernel_vs_oracle(g2, 1, **b),
    "find_module_basis": lambda g2, **b: find_module_basis(g2, (0, 2), 1, **b),
    "verify_module_basis": lambda g2, **b: verify_module_basis(g2, (0, 1), 1, SO4_ODD_LABELS,
                                                               **b),
    "extract_presentation": lambda g2, **b: resolution.extract_presentation(g2, 1, **b),
}


# the twisted entry points that take a face, each called with the face given
FACE_ENTRY_POINTS = {
    "face_subset": face_subset,
    "twist_order": twist_order,
    "centralizer_info": centralizer_info,
    "enumerate_labels": lambda g2, face: enumerate_labels(g2, face, 1, 2),
    "is_valid_label": lambda g2, face: is_valid_label(g2, face, 1, (0, 0)),
    "find_module_basis": lambda g2, face: find_module_basis(g2, face, 1),
}


@pytest.mark.parametrize("face", [(1.5,), (0, 2.0), ("1",)], ids=["half", "float", "string"])
@pytest.mark.parametrize("name", sorted(FACE_ENTRY_POINTS))
def test_face_nodes_must_be_integers(g2, name, face):
    # a half node gave twist order 1 and a KeyError in centralizer_info, a
    # float or a string node a bare TypeError; each now names the node
    bad = next(x for x in face if not isinstance(x, int))
    with pytest.raises(InputError, match=re.escape(f"node {bad!r} is not an integer")):
        FACE_ENTRY_POINTS[name](g2, face)


@pytest.mark.parametrize("name", sorted(BOUND_ENTRY_POINTS))
def test_explicit_bounds_must_be_integers(g2, name):
    # a float level_bound raised a bare TypeError in the complex checks and
    # a float lambda_bound was reported as a bad level; each now names its bound
    call = BOUND_ENTRY_POINTS[name]
    for bound in (6.5, 7.0):
        with pytest.raises(InputError, match=rf"level_bound {bound} is not an integer"):
            call(g2, level_bound=bound)
        if name not in ("d_squared_check", "cokernel_vs_oracle"):
            with pytest.raises(InputError, match=rf"lambda_bound {bound + 3} is not an integer"):
                call(g2, lambda_bound=bound + 3)


def test_an_integer_like_bound_is_reported_as_its_int(g2):
    # the report held the bound as given, so the JSON said "level_bound": true
    report = verify_module_basis(g2, (0, 1), 1, SO4_ODD_LABELS, level_bound=True)
    assert report.passed
    assert type(report.level_bound) is int and report.level_bound == 1
    assert '"level_bound": 1,' in json.dumps(report.to_json_dict())


def test_find_module_basis_takes_its_default_bound_explicitly(a1, g2):
    # on a face through the affine node the default level_bound is
    # k0 + 2 h^vee at the base level k0 = k mod twist order, below k
    assert find_module_basis(a1, (0,), 40000, level_bound=4) == \
        find_module_basis(a1, (0,), 40000) == [(40000,)]
    assert find_module_basis(g2, (0, 2), 5, level_bound=4) == \
        find_module_basis(g2, (0, 2), 5)


def test_find_module_basis_checks_the_seeds(g2):
    with pytest.raises(InputError, match="length 3"):
        find_module_basis(g2, (), 0, seeds=[(0, 0, 7)])
    with pytest.raises(InputError, match="length 1"):
        find_module_basis(g2, (1,), 0, seeds=[(5,)])
    # a seed on a wall has zero product rows, which no bound can mend
    with pytest.raises(InputError, match="not a chamber label"):
        find_module_basis(g2, (0, 1), 1, seeds=[(0, 1)])
    # no bound makes a dependent seed independent: more rows only grow
    # the lattice it lies in
    with pytest.raises(InputError, match="dependent"):
        find_module_basis(g2, (0, 2), 0, seeds=[(0, 0), (0, 0)])


def _label_product(rs, subset, k, lam, c):
    """Vector of the orbit sum m(lam) acting on the single label c of a
    validated face."""
    orbit = dict.fromkeys(weyl_orbit(rs, lam), 1)
    return twisted._face_walk(rs, subset, k).signed_sum(orbit, c)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_candidate_rows_match_label_products(name):
    # _candidate_rows reads one walk table per candidate and writes rows
    # on label codes; _label_product walks every weight of every orbit
    # afresh on labels and stays the slow path
    rs = build_root_system(name)
    key = twisted._label_key(rs)
    for subset in _proper_faces(rs):
        for k in range(3):
            bound = k + rs.dual_coxeter
            orbits = twisted._orbit_sums(rs, bound + rs.dual_coxeter + k)
            for c in find_module_basis(rs, subset, k, level_bound=bound):
                expect = []
                for lam, _ in orbits:
                    vec = _label_product(rs, subset, k, lam, c)
                    if vec:
                        expect.append((lam, {key(mu): v for mu, v in vec.items()}))
                expect.sort(key=lambda row: max(row[1]))
                assert twisted._candidate_rows(rs, subset, k, c, orbits, key) == expect, \
                    (subset, k, c)


@pytest.mark.parametrize("name, levels, row_level", [
    ("A2", (0, 1, 2), 10), ("B2", (0, 1, 2), 10), ("G2", (0, 1, 2), 12), ("A3", (0,), 5)])
def test_orbit_rows_span_the_irrep_rows(name, levels, row_level):
    # irrep(lam) is m(lam) plus integer multiples of m(mu), mu < lam
    # dominant and of no larger level, so the change of basis is
    # unitriangular over the dominant weights up to any level: the rows
    # m(lam) c of a label c span the lattice of its irrep rows
    # irrep(lam) c, which stay here as the reference.  The labels are those
    # of the window of bound 1, the rows every dominant lam up to row_level
    rs = build_root_system(name)
    key = twisted._label_key(rs)
    orbits = twisted._orbit_sums(rs, row_level)
    for subset in _proper_faces(rs):
        for k in levels:
            kernel = twisted._face_walk(rs, subset, k)
            for c in enumerate_labels(rs, subset, k, 1):
                orbit_rows = [vec for _, vec in
                              twisted._candidate_rows(rs, subset, k, c, orbits, key)]
                irrep_rows = []
                for lam, _ in orbits:
                    vec = kernel.signed_sum(full_weights(rs, lam), c)
                    irrep_rows.append({key(mu): v for mu, v in vec.items()})
                _same_lattice(irrep_rows, orbit_rows, (subset, k, c))


def _same_lattice(rows_a, rows_b, where):
    """Each row of either list lies in the echelon of the other."""
    for rows, other in [(rows_a, rows_b), (rows_b, rows_a)]:
        ech = ZEchelon()
        for vec in other:
            ech.insert(vec)
        for vec in rows:
            assert ech.contains(vec), where


def test_label_code_field_limit(g2):
    # the encoder is the one guard of the code fields: a coordinate that
    # would overflow its field raises InputError naming the label, instead
    # of wrapping into the next field; the largest coordinates inside the
    # field still encode in order
    key = twisted._label_key(g2)
    top = twisted._HALF - 1
    assert key((top, -top)) < key((-top, top)) < key((1 - top, top))   # levels -top, top, top + 1
    for label in [(twisted._HALF, 0), (0, -twisted._HALF), (3, twisted._HALF + 5)]:
        with pytest.raises(InputError, match=re.escape(str(label))):
            key(label)


def test_far_labels_reach_the_search_or_the_encoder(a1):
    # no derived bound stands before the search: a far seed is coded and
    # the search reaches its verdict, and only a seed or candidate past
    # the 32-bit code fields is refused, by the encoder, naming the label
    with pytest.raises(InternalLimitError, match="raise lambda_bound"):
        find_module_basis(a1, (1,), 0, seeds=[(40000,)])
    for face, candidates in [((1,), [(1 << 31,)]), ((), [(-(1 << 31),), (0,)])]:
        far = re.escape(str(candidates[0]))
        with pytest.raises(InputError, match=far):
            find_module_basis(a1, face, 0, seeds=candidates[:1])
        with pytest.raises(InputError, match=far):
            verify_module_basis(a1, face, 0, candidates)
    # seeds are checked after translation to the base level
    far = find_module_basis(a1, (0,), 40000)
    t = translation_weight(a1, (0,))
    assert far == [tuple(x + 40000 * y for x, y in zip(b, t))
                   for b in find_module_basis(a1, (0,), 0)]
    assert find_module_basis(a1, (0,), 40000, seeds=far) == far


@pytest.mark.parametrize("name,lam_bound,box", [("A1", 3, 4), ("A2", 2, 3), ("B2", 2, 3),
                                                ("C2", 2, 3), ("G2", 2, 3), ("A3", 1, 2),
                                                ("B3", 1, 2)])
def test_label_code_reach_bounds_every_row_label(name, lam_bound, box):
    # every c + nu of every proper face at k <= 2, c anywhere in a box,
    # walks to a label below h^vee (k + |c| + lambda_bound + |2 rho_S|).
    # This is why 32-bit code fields need no reach check of their own: a
    # search label reaches 2^31 only at bounds near 10^8, whose window and
    # orbit list cannot be built
    rs = build_root_system(name)
    weights = [nu for lam in alcove_weights(rs, lam_bound) for nu in full_weights(rs, lam)]
    for size in range(rs.rank + 1):
        for subset in itertools.combinations(range(rs.rank + 1), size):
            r2 = max(map(abs, rho2(rs, subset)))
            for k in range(3):
                walk = twisted._face_walk(rs, subset, k).walk
                for c in itertools.product(range(-box, box + 1), repeat=rs.rank):
                    reach = rs.dual_coxeter * (k + max(map(abs, c)) + lam_bound + r2)
                    for nu in weights:
                        red = walk(c, nu)
                        assert red is None or max(map(abs, red[0])) < reach, \
                            (subset, k, c, nu)


def _fraction_window_order(rs, subset, window, seeds):
    """The window order by rational distance from the seeds' centre, kept
    as the oracle of twisted._window_order."""
    if seeds:
        center = [Fraction(sum(twisted._beta2(rs, subset, s)[i] for s in seeds), len(seeds))
                  for i in range(rs.rank)]
    else:
        center = [Fraction(0)] * rs.rank

    def distance(mu):
        diff = [x - c for x, c in zip(twisted._beta2(rs, subset, mu), center)]
        return form_pair(rs, diff, diff)

    return sorted(window, key=lambda m: (distance(m), rs.level(m), m))


@pytest.mark.parametrize("name", ["A2", "B2", "C2", "G2", "A3"])
def test_window_order_matches_the_fraction_distance(name):
    rs = build_root_system(name)
    n = rs.rank
    for k in (1,) if n == 3 else (0, 1, 2):
        # seeds as extraction passes them: the basis of a vertex through
        # node 0, the one omitting the least nonaffine node the face lacks
        vertex_bases = {j: find_module_basis(rs, [i for i in range(n + 1) if i != j], k)
                        for j in range(1, n + 1)}
        for subset in _proper_faces(rs):
            window = enumerate_labels(rs, subset, k, k + 2 * rs.dual_coxeter)
            j = min(set(range(1, n + 1)) - set(subset), default=1)
            for seeds in ((), vertex_bases[j]):
                assert twisted._window_order(rs, subset, window, seeds) == \
                    _fraction_window_order(rs, subset, window, seeds), (subset, k, seeds)


# (group, top level, searches translated to a lower base level) over the
# vertex faces extract_presentation solves on: those through node 0
VERTEX_LEVELS = [("A2", 3, 6), ("B2", 2, 4), ("G2", 4, 7)]


@pytest.mark.parametrize("name, top, translated", VERTEX_LEVELS)
def test_search_echelon_is_the_translated_level_echelon(name, top, translated):
    # extract_presentation solves its lifts with the solve of the vertex
    # search, which walks each label minus shift on the echelon built at
    # the base level; on every window label at level k it must give the
    # combination of the untranslated level-k echelon, rebuilt here from
    # the same candidates with the same tags
    rs = build_root_system(name)
    key = twisted._label_key(rs)
    n = rs.rank
    moved = 0
    for j in range(1, n + 1):
        vertex = face_subset(rs, [i for i in range(n + 1) if i != j])
        for k in range(top + 1):
            level_bound = k + 2 * rs.dual_coxeter
            lambda_bound = level_bound + rs.dual_coxeter + k
            basis, solve = twisted._search_basis(rs, vertex, k, (), level_bound,
                                                 lambda_bound, tagged=True)
            moved += k >= twist_order(rs, vertex)
            orbits = twisted._orbit_sums(rs, lambda_bound)
            rebuilt = ZEchelon()
            for idx, c in enumerate(basis):
                for lam, vec in twisted._candidate_rows(rs, vertex, k, c, orbits, key):
                    rebuilt.insert(vec, {(idx, lam): 1})
            orbit_of = dict(orbits)
            for mu in enumerate_labels(rs, vertex, k, level_bound):
                residual, combo = rebuilt.reduce({key(mu): 1}, want_combination=True)
                assert not residual
                assert solve(mu) == [(idx, orbit_of[lam], c)
                                     for (idx, lam), c in combo.items()], (vertex, k, mu)
    assert moved == translated


def test_certification_leaves_the_echelon_as_it_is(g2):
    # fresh echelons: the search has already certified the one it returns
    subset = (0, 2)
    basis = find_module_basis(g2, subset, 0)
    window = enumerate_labels(g2, subset, 0, 2 * g2.dual_coxeter)
    key = twisted._label_key(g2)
    for candidates, spans in ((basis, True), (basis[:-1], False)):
        ech = twisted._product_echelon(g2, subset, 0, candidates, 3 * g2.dual_coxeter, key)
        snapshot = copy.deepcopy(ech.rows)
        assert (twisted._certify_spanning(ech, window, key) is None) == spans
        assert ech.rows == snapshot


def test_only_a_tagged_search_keeps_a_log(g2, monkeypatch):
    # untagged rows add nothing to a combination, so the echelon that
    # verify_module_basis rebuilds and an untagged search log no row
    # operation; a tagged vertex search logs the ones its solves run back
    made = []

    class Recorded(ZEchelon):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(twisted, "ZEchelon", Recorded)
    subset = (0, 2)
    basis = find_module_basis(g2, subset, 1)
    assert verify_module_basis(g2, subset, 1, basis).passed
    assert len(made) == 2
    assert all(not ech.log and not ech.tags for ech in made)
    made.clear()
    twisted._search_basis(g2, subset, 1, (), None, None, tagged=True)
    assert len(made) == 1 and made[0].log and made[0].tags


def test_solve_outside_the_certified_lattice_names_lambda_bound(g2):
    # (30, 0) walks to a chamber label far above the window, which no
    # product row of the search reaches
    _, solve = twisted._search_basis(g2, (0, 2), 1, (), None, None, tagged=True)
    with pytest.raises(InternalLimitError) as info:
        solve((30, 0))
    message = str(info.value)
    assert message.startswith("cannot express d1((30, 0)) over the vertex basis")
    assert "raise lambda_bound" in message and "lambda_bound=12" in message


LABEL_WINDOWS = [("A2", range(3)), ("B2", range(3)), ("G2", range(3)), ("A3", (1,))]
# the windows above and more groups and levels
LABEL_BOXES = LABEL_WINDOWS + [("A1", range(4)), ("C2", range(3)), ("G2", (3,)),
                               ("A3", (0, 2)), ("B3", (1,)), ("C3", (1,))]


@pytest.mark.parametrize("name, levels", LABEL_WINDOWS)
def test_labels_walk_to_themselves(name, levels):
    rs = build_root_system(name)
    for subset in _proper_faces(rs):
        for k in levels:
            for mu in enumerate_labels(rs, subset, k, 3):
                assert twisted._face_walk(rs, subset, k).walk(mu) == (mu, 1), (subset, k)


@pytest.mark.parametrize("name, levels", LABEL_BOXES)
def test_enumerate_labels_against_brute_force(name, levels):
    # enumerate_labels fills each level inside the ranges the walls and the
    # slab leave; the oracle scans the whole box of the bound and filters it
    # through the public, validating is_valid_label
    rs = build_root_system(name)
    for subset in _proper_faces(rs):
        for k in levels:
            for bound in (0, 1, 3, 5) if rs.rank < 3 else (0, 2, 4):
                lo, hi = (k - bound, k) if 0 in subset else (-bound, bound)
                box = itertools.product(range(-bound, bound + 1), repeat=rs.rank)
                expect = sorted((mu for mu in box if lo <= rs.level(mu) <= hi
                                 and is_valid_label(rs, subset, k, mu)),
                                key=lambda m: (rs.level(m), m))
                assert enumerate_labels(rs, subset, k, bound) == expect, (subset, k, bound)


def test_translation_weight_needs_the_affine_node(g2, a2):
    # the module of a face without node 0 does not depend on the level; G2
    # (1,) and (1, 2) have no integral weight of level 1 normal to them
    for rs, subset in [(g2, (1,)), (g2, (1, 2)), (g2, ()), (a2, (1,))]:
        with pytest.raises(InputError, match="affine node"):
            translation_weight(rs, subset)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3",
                                  "C4", "D4", "D5", "G2", "F4", "E6", "E7", "E8"])
def test_translation_weight_within_the_comark_radius(name):
    rs = build_root_system(name)
    n = rs.rank
    for r in range(n):
        for rest in itertools.combinations(range(1, n + 1), r):
            subset = (0,) + rest
            delta = translation_weight(rs, subset)
            free = [j for j in range(n) if j + 1 not in subset]
            assert rs.level(delta) == twist_order(rs, subset)
            assert all(delta[j] == 0 for j in range(n) if j not in free)
            assert max(map(abs, delta)) <= max(rs.comarks[j + 1] for j in free)


def test_translation_weight_past_the_radius_is_a_bug(monkeypatch):
    # G2 face (0,) has free comarks (1, 2): a twist order no weight in the
    # box of radius 2 reaches makes the search run past it, which is a bug
    monkeypatch.setattr(twisted, "twist_order", lambda rs, subset: 7 ** 5)
    translation_weight.cache_clear()
    try:
        with pytest.raises(AssertionError, match="radius 2"):
            translation_weight(build_root_system("G2"), (0,))
    finally:
        translation_weight.cache_clear()
