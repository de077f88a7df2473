import random
from itertools import product

import pytest

from fusionring import (InputError, PolyChar, VirtualCharacter, build_root_system,
                        dim_virtual, from_polynomial, full_weights,
                        g2_fusion_ideal_generators, tensor_product, to_polynomial)
from fusionring import repring, rootdata
from fusionring.repring import monomial_character

from conftest import random_character


def test_virtual_character_basics():
    x = VirtualCharacter({(1, 0): 2, (0, 1): -1})
    y = VirtualCharacter.irrep((1, 0))
    assert (x - x) == VirtualCharacter.zero()
    assert (x + y).terms[(1, 0)] == 3
    assert not VirtualCharacter({(2, 2): 0})
    with pytest.raises(InputError):
        VirtualCharacter({(-1, 0): 1})


def test_json_round_trip():
    x = VirtualCharacter({(1, 0): 2, (0, 3): -5})
    d = x.to_json_dict()
    assert d["terms"] == [{"weight": [0, 3], "coeff": -5}, {"weight": [1, 0], "coeff": 2}]
    assert VirtualCharacter.from_json_dict(d) == x


def test_a1_clebsch_gordan(a1):
    one = VirtualCharacter.irrep((1,))
    assert tensor_product(a1, one, one) == VirtualCharacter({(0,): 1, (2,): 1})


def test_g2_seven_squared(g2):
    v7 = VirtualCharacter.irrep((1, 0))
    t = tensor_product(g2, v7, v7)
    assert t == VirtualCharacter({(0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 0): 1})
    assert dim_virtual(g2, t) == 49  # 1 + 7 + 14 + 27


def test_tensor_unit(g2):
    rng = random.Random(3)
    one = VirtualCharacter.irrep((0, 0))
    for _ in range(5):
        x = random_character(g2, rng)
        assert tensor_product(g2, x, one) == x


@pytest.mark.parametrize("name", ["G2", "A2", "C2"])
def test_ring_axioms(name, request):
    rs = request.getfixturevalue(name.lower())
    rng = random.Random(17)
    for _ in range(4):
        x = random_character(rs, rng)
        y = random_character(rs, rng)
        z = random_character(rs, rng)
        assert tensor_product(rs, x, y) == tensor_product(rs, y, x)
        left = tensor_product(rs, tensor_product(rs, x, y), z)
        right = tensor_product(rs, x, tensor_product(rs, y, z))
        assert left == right
        dist = tensor_product(rs, x, y + z)
        assert dist == tensor_product(rs, x, y) + tensor_product(rs, x, z)
        assert dim_virtual(rs, tensor_product(rs, x, y)) == \
            dim_virtual(rs, x) * dim_virtual(rs, y)


def test_polynomial_examples(g2):
    assert to_polynomial(g2, VirtualCharacter.irrep((1, 0))) == PolyChar({(1, 0): 1})
    assert to_polynomial(g2, VirtualCharacter.irrep((0, 0))) == PolyChar({(0, 0): 1})
    # from the decomposition of the 7-dimensional square
    p = to_polynomial(g2, VirtualCharacter.irrep((2, 0)))
    assert p == PolyChar({(2, 0): 1, (1, 0): -1, (0, 1): -1, (0, 0): -1})
    assert from_polynomial(g2, p) == VirtualCharacter.irrep((2, 0))
    assert from_polynomial(g2, PolyChar({(0, 0): 1})) == VirtualCharacter.irrep((0, 0))
    assert from_polynomial(g2, PolyChar({(1, 0): 1})) == VirtualCharacter.irrep((1, 0))


@pytest.mark.parametrize("name", ["G2", "A2", "C2"])
def test_polynomial_round_trips(name, request):
    rs = request.getfixturevalue(name.lower())
    rng = random.Random(5)
    for _ in range(50):
        x = random_character(rs, rng)
        p = to_polynomial(rs, x)
        assert from_polynomial(rs, p) == x
    for _ in range(10):
        q = PolyChar({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
                      for _ in range(2)})
        assert to_polynomial(rs, from_polynomial(rs, q)) == q


def test_polynomials_in_the_wrong_number_of_variables_are_rejected(g2):
    for e in [(0, 0, 1), (1,)]:
        with pytest.raises(InputError, match="does not match rank 2"):
            from_polynomial(g2, PolyChar({e: 1}))


def test_monomial_character_leading_term(g2):
    # the character of x^e has the exponent itself as unique top weight
    m = monomial_character(g2, (2, 1))
    key = lambda w: (g2.level(w), w)
    assert max(m.terms, key=key) == (2, 1)
    assert m.terms[(2, 1)] == 1


@pytest.mark.parametrize("name, degree", [("A2", 6), ("B2", 6), ("C2", 6), ("G2", 6),
                                          ("A3", 3)])
def test_monomial_character_is_the_product_of_fundamentals(name, degree):
    # the oracle multiplies the fundamental irreps one by one with
    # tensor_product, last index first
    rs = build_root_system(name)
    n = rs.rank
    fundamentals = [VirtualCharacter.irrep(tuple(int(j == i) for j in range(n)))
                    for i in range(n)]
    for e in product(range(degree + 1), repeat=n):
        if sum(e) > degree:
            continue
        expected = VirtualCharacter.irrep((0,) * n)
        for i in reversed(range(n)):
            for _ in range(e[i]):
                expected = tensor_product(rs, expected, fundamentals[i])
        assert monomial_character(rs, e) == expected, e


def test_certify_polynomials_expand_only_the_fundamental_weight_systems(g2):
    # cold to_polynomial of the 32 G2 generators at k = 1..8 runs
    # Freudenthal for the two fundamental irreps and for nothing else
    gens = [g for k in range(1, 9) for g in g2_fusion_ideal_generators(k)]
    full_weights.cache_clear()
    repring._monomial.cache_clear()
    for g in gens:
        to_polynomial(g2, g)
    assert full_weights.cache_info().misses == 2


def test_monomial_cache_holds_the_root_system(g2):
    # an lru_cache key holds its arguments, so an entry keeps its root
    # system alive and another one created later at the same address
    # cannot read it: an equal root system built afresh misses
    info = repring._monomial.cache_info
    monomial_character(g2, (1, 1))
    hits, misses = info().hits, info().misses
    assert monomial_character(g2, [1, 1]) is monomial_character(g2, (1, 1))
    assert (info().hits, info().misses) == (hits + 2, misses)
    monomial_character(rootdata._build.__wrapped__("G", 2), (0, 0))
    assert info().misses == misses + 1
