import json

import pytest

import fusionring
from fusionring import FusionElement, InputError, VirtualCharacter
from fusionring.sparse import Sparse, addmul

from conftest import TwistedModuleElement

# (class, its space as constructor arguments, another space or None)
SPACES = [
    (VirtualCharacter, (), None),
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
                         [(*SPACES[1], "different levels"), (*SPACES[2], "different modules")],
                         ids=IDS[1:])
def test_space_mismatch(cls, space, other, message):
    x = cls(*space, {(1, 0): 1})
    z = cls(*other, {(1, 0): 1})
    with pytest.raises(InputError, match=message):
        x + z
    with pytest.raises(InputError, match=message):
        x - z


def test_mixed_classes_do_not_add():
    with pytest.raises(TypeError):
        VirtualCharacter({(1, 0): 1}) + FusionElement(2, {(1, 0): 1})


def test_negative_keys_rejected():
    with pytest.raises(InputError, match="is not dominant"):
        VirtualCharacter({(-1, 0): 1})
    # a zero coefficient is pruned before the check
    assert not VirtualCharacter({(-1, 0): 0})
    # labels and alcove weights may be negative
    assert TwistedModuleElement((), 0, {(-1, 2): 1})
    assert FusionElement(0, {(-1, 2): 1})


def _read_back(cls, d):
    """The element whose to_json_dict is d: the JSON form loses nothing."""
    return cls(*(d[f] for f in cls._fields), {tuple(t["weight"]): t["coeff"] for t in d["terms"]})


@pytest.mark.parametrize("cls, space, other", SPACES, ids=IDS)
def test_json_round_trip(cls, space, other):
    x = cls(*space, {(1, 0): 2, (0, 3): -5})
    d = json.loads(json.dumps(x.to_json_dict()))
    y = _read_back(cls, d)
    assert y == x and type(y) is cls
    assert y._space() == x._space()


def test_json_layout():
    key = {"terms": [{"weight": [0, 3], "coeff": -5}, {"weight": [1, 0], "coeff": 2}]}
    terms = {(1, 0): 2, (0, 3): -5}
    assert VirtualCharacter(terms).to_json_dict() == key
    assert FusionElement(4, terms).to_json_dict() == {"level": 4, **key}
    assert list(FusionElement(4, terms).to_json_dict()) == ["level", "terms"]
    assert TwistedModuleElement((0, 2), 1, terms).to_json_dict() == {
        "subset": [0, 2], "level": 1, **key}
    back = _read_back(FusionElement, {"level": 4, **key})
    assert back.level == 4 and back.terms == terms


def test_every_sparse_key_is_a_weight():
    # polynomials in the fundamental characters are groebner.FieldPoly, so
    # the package's sparse classes are the two keyed by weights, and the
    # JSON name of a key is no knob
    assert not hasattr(Sparse, "_key")
    package = {cls for cls in Sparse.__subclasses__()
               if cls.__module__.startswith("fusionring.")}
    assert package == {fusionring.VirtualCharacter, fusionring.FusionElement}


def test_every_report_has_one_json_form():
    # to_json of a report is its to_json_dict, also for the two reports that
    # add a value no field stores (ComplexSpec's Euler characteristic and
    # D2Report's violations, written as strings)
    from fusionring import (build_complex, build_root_system, centralizer_info,
                            cokernel_vs_oracle, d_squared_check, extract_presentation,
                            find_module_basis, verify_module_basis, verify_presentation,
                            verlinde_numeric_check)
    from fusionring.resolution import D2Report
    from fusionring.sparse import Report, to_json
    a1, g2 = build_root_system("A1"), build_root_system("G2")
    extraction = extract_presentation(a1, 2)
    violation = ((0,), (1, 0), {(0, 1): {(2, 0): -1}, (1, 2): {}})
    reports = [
        verlinde_numeric_check(a1, 2), build_complex(g2, 1), d_squared_check(g2, 1),
        D2Report("G2", 1, 1, 1, 1, False, [violation]), cokernel_vs_oracle(a1, 2),
        extraction, verify_presentation(a1, 2, extraction.generators, primes=(2,)),
        centralizer_info(g2, (0, 2)),
        verify_module_basis(g2, (0, 2), 2, find_module_basis(g2, (0, 2), 2)),
    ]
    assert {type(r) for r in reports} == set(Report.__subclasses__())
    for r in reports:
        assert to_json(r) == r.to_json_dict(), type(r).__name__
        assert to_json([r]) == [r.to_json_dict()]
    assert to_json(reports[1])["euler_characteristic"] == 0
    assert to_json(reports[3])["violations"] == [str(violation)]
