"""Property tests of the integer echelon, drawn by hypothesis: the lattice
does not depend on the insertion order, tagged rows solve for the
combination of inserted rows that reaches a probe, and the backward pass
over the row-operation log gives the combination of the reference echelon
that carries every tag forward."""
import pytest

from fusionring.intlinalg import ZEchelon
from fusionring.sparse import addmul

from conftest import ReferenceEchelon

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SMALL = hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                            database=None)
COLUMNS = range(5)

vectors = st.dictionaries(st.sampled_from(COLUMNS), st.integers(-4, 4), max_size=4)
row_lists = st.lists(vectors, min_size=1, max_size=6)
tag_vectors = st.dictionaries(st.sampled_from("abcd"),
                              st.integers(-2, 2).filter(bool), min_size=1, max_size=2)


def _echelon(rows):
    ech = ZEchelon()
    for row in rows:
        ech.insert(dict(row))
    return ech


@SMALL
@hypothesis.given(st.data())
def test_lattice_does_not_depend_on_insertion_order(data):
    rows = data.draw(row_lists)
    shuffled = data.draw(st.permutations(rows))
    probes = data.draw(st.lists(vectors, max_size=8))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                                max_size=len(rows)))
    first, second = _echelon(rows), _echelon(shuffled)
    for probe in probes + [{col: 1} for col in COLUMNS]:
        assert first.contains(dict(probe)) == second.contains(dict(probe))
    member = {}
    for row, c in zip(rows, coeffs):
        addmul(member, row, c)
    assert first.contains(dict(member)) and second.contains(dict(member))


@SMALL
@hypothesis.given(st.data())
def test_tagged_rows_give_the_combination(data):
    rows = data.draw(row_lists)
    probe = data.draw(vectors)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                                max_size=len(rows)))
    ech = ZEchelon()
    for i, row in enumerate(rows):
        ech.insert(dict(row), {i: 1})
    member = {}
    for row, c in zip(rows, coeffs):
        addmul(member, row, c)
    for vec in (probe, member):
        residual, combo = ech.reduce(dict(vec), want_combination=True)
        total = dict(residual)
        for i, c in combo.items():
            addmul(total, rows[i], c)
        assert total == {col: v for col, v in vec.items() if v}
    assert not ech.reduce(dict(member))


def _lattice_member(data, rows):
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows),
                                max_size=len(rows)))
    out = {}
    for row, c in zip(rows, coeffs):
        addmul(out, row, c)
    return out


@SMALL
@hypothesis.given(st.data())
def test_backward_pass_gives_the_reference_combination(data):
    # entries in -4..4 make non-unit pivots, so Euclid swaps, negations
    # and tail reductions all reach the log; some rows are combinations of
    # earlier ones, and the untagged rows, before the first tagged row or
    # after it, add nothing to a combination
    rows = []
    for _ in range(data.draw(st.integers(1, 7))):
        dependent = rows and data.draw(st.booleans())
        rows.append(_lattice_member(data, rows) if dependent else data.draw(vectors))
    tags = [data.draw(st.one_of(st.none(), tag_vectors)) for _ in rows]
    ech, ref = ZEchelon(), ReferenceEchelon()
    for row, tag in zip(rows, tags):
        assert ech.insert(dict(row), tag) == ref.insert(dict(row), tag)
    assert {col: vec for col, (vec, _) in ech.rows.items()} == \
        {col: vec for col, (vec, _) in ref.rows.items()}
    probes = data.draw(st.lists(vectors, max_size=4)) + [_lattice_member(data, rows)]
    for probe in probes + [{col: 1} for col in COLUMNS]:
        assert ech.reduce(dict(probe), want_combination=True) == ref.reduce(dict(probe))
        assert ech.reduce(dict(probe)) == ref.reduce(dict(probe))[0]
