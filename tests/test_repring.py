import random

import pytest

from fusionring import (InputError, PolyChar, VirtualCharacter, dim_virtual,
                        from_polynomial, tensor_product, to_polynomial)
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


def test_monomial_character_leading_term(g2):
    # the character of x^e has the exponent itself as unique top weight
    m = monomial_character(g2, (2, 1))
    key = lambda w: (g2.level(w), w)
    assert max(m.terms, key=key) == (2, 1)
    assert m.terms[(2, 1)] == 1



def test_monomial_cache_holds_the_root_system(g2):
    # keyed on the object, not on id(): an entry keeps its root system
    # alive, so another one created later at the same address cannot read it
    from fusionring.repring import _MONOMIAL_CACHE
    monomial_character(g2, (1, 1))
    assert (g2, (1, 1)) in _MONOMIAL_CACHE
