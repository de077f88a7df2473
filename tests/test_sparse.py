import json

import pytest

from fusionring import (FusionElement, InputError, PolyChar, TwistedModuleElement,
                        VirtualCharacter)
from fusionring.sparse import addmul

# (class, its space as constructor arguments, another space or None)
SPACES = [
    (VirtualCharacter, (), None),
    (PolyChar, (), None),
    (FusionElement, (2,), (3,)),
    (TwistedModuleElement, ((0, 1), 1), ((0, 2), 1)),
]
IDS = [cls.__name__ for cls, _, _ in SPACES]


def test_addmul():
    target = {(0,): 1, (1,): 2}
    assert addmul(target, {(1,): 1, (2,): 3}, -2) is target
    assert target == {(0,): 1, (2,): -6}
    assert addmul(target, {(0,): 5}, 0) == {(0,): 1, (2,): -6}
    assert addmul({}, {(0,): 1, (1,): 0}) == {(0,): 1}


@pytest.mark.parametrize("cls, space, other", SPACES, ids=IDS)
def test_zero_pruning(cls, space, other):
    x = cls(*space, {(1, 0): 0, (0, 2): 3})
    assert x.terms == {(0, 2): 3}
    assert not cls(*space, {(1, 1): 0})
    assert not cls(*space)
    assert not (x - x) and (x - x).terms == {}
    assert x.scale(0).terms == {}


@pytest.mark.parametrize("cls, space, other", SPACES, ids=IDS)
def test_arithmetic(cls, space, other):
    x = cls(*space, {(1, 0): 2, (0, 1): -1})
    y = cls(*space, {(1, 0): -2, (2, 2): 5})
    assert (x + y).terms == {(0, 1): -1, (2, 2): 5}
    assert (x - y).terms == {(1, 0): 4, (0, 1): -1, (2, 2): -5}
    assert (-x).terms == {(1, 0): -2, (0, 1): 1}
    assert x.scale(3).terms == {(1, 0): 6, (0, 1): -3}
    for z in (x + y, x - y, -x, x.scale(3)):
        assert type(z) is cls and z._space() == x._space()
    # the operands are left as they were
    assert x.terms == {(1, 0): 2, (0, 1): -1}


@pytest.mark.parametrize("cls, space, other", SPACES, ids=IDS)
def test_equality_and_hash(cls, space, other):
    x = cls(*space, {(1, 0): 2, (0, 1): -1})
    y = cls(*space, {(0, 1): -1, (1, 0): 2, (3, 3): 0})
    assert x == y and hash(x) == hash(y)
    assert len({x, y}) == 1
    assert x != x.scale(2)
    assert x != dict(x.terms)
    if other is not None:
        z = cls(*other, x.terms)
        assert x != z


@pytest.mark.parametrize("cls, space, other, message",
                         [(*SPACES[2], "different levels"), (*SPACES[3], "different modules")],
                         ids=IDS[2:])
def test_space_mismatch(cls, space, other, message):
    x = cls(*space, {(1, 0): 1})
    z = cls(*other, {(1, 0): 1})
    with pytest.raises(InputError, match=message):
        x + z
    with pytest.raises(InputError, match=message):
        x - z


def test_mixed_classes_do_not_add():
    with pytest.raises(TypeError):
        VirtualCharacter({(1, 0): 1}) + PolyChar({(1, 0): 1})


def test_negative_keys_rejected():
    with pytest.raises(InputError, match="is not dominant"):
        VirtualCharacter({(-1, 0): 1})
    with pytest.raises(InputError, match="negative entry"):
        PolyChar({(0, -2): 1})
    # a zero coefficient is pruned before the check
    assert not VirtualCharacter({(-1, 0): 0})
    # labels and alcove weights may be negative
    assert TwistedModuleElement((), 0, {(-1, 2): 1})
    assert FusionElement(0, {(-1, 2): 1})


@pytest.mark.parametrize("cls, space, other", SPACES, ids=IDS)
def test_json_round_trip(cls, space, other):
    x = cls(*space, {(1, 0): 2, (0, 3): -5})
    d = json.loads(json.dumps(x.to_json_dict()))
    y = cls.from_json_dict(d)
    assert y == x and type(y) is cls
    assert y._space() == x._space()


def test_json_layout():
    key = {"terms": [{"weight": [0, 3], "coeff": -5}, {"weight": [1, 0], "coeff": 2}]}
    terms = {(1, 0): 2, (0, 3): -5}
    assert VirtualCharacter(terms).to_json_dict() == key
    assert FusionElement(4, terms).to_json_dict() == {"level": 4, **key}
    assert list(FusionElement(4, terms).to_json_dict()) == ["level", "terms"]
    assert PolyChar(terms).to_json_dict() == {
        "terms": [{"exponents": [0, 3], "coeff": -5}, {"exponents": [1, 0], "coeff": 2}]}
    assert TwistedModuleElement((0, 2), 1, terms).to_json_dict() == {
        "subset": [0, 2], "level": 1, **key}
    back = FusionElement.from_json_dict({"level": 4, **key})
    assert back.level == 4 and back.terms == terms
