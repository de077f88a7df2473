"""Property tests of normal forms and reduced bases, drawn by hypothesis."""
import pytest

from fusionring import FieldPoly, buchberger, normal_form

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SMALL = hypothesis.settings(max_examples=25, deadline=None, derandomize=True,
                            database=None)
MODULI = (None, 2, 3, 7)

exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
term_dicts = st.dictionaries(exponents, st.integers(-3, 3), min_size=1, max_size=3)


@st.composite
def ideals(draw):
    """A modulus and 1..3 generators in two variables, one with a pure power
    of each variable so that the ideal is zero-dimensional."""
    modulus = draw(st.sampled_from(MODULI))
    anchor = {(draw(st.integers(1, 3)), 0): 1, (0, draw(st.integers(1, 3))): 1}
    anchor.update(draw(st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                                       st.integers(-3, 3), max_size=2)))
    gens = [anchor] + draw(st.lists(term_dicts, max_size=2))
    return modulus, [FieldPoly(2, g, modulus) for g in gens]


def _combine(a, f, b, g):
    """a*f + b*g for scalars a and b."""
    terms = {e: a * c for e, c in f.terms.items()}
    for e, c in g.terms.items():
        terms[e] = terms.get(e, 0) + b * c
    return FieldPoly(f.nvars, terms, f.modulus)


def _times(f, e, c):
    """c * x^e * f."""
    return FieldPoly(f.nvars, {tuple(a + b for a, b in zip(e, t)): c * v
                               for t, v in f.terms.items()}, f.modulus)


@SMALL
@hypothesis.given(ideals(), term_dicts, term_dicts, st.integers(-3, 3))
def test_normal_form_idempotent_and_linear(ideal, p, q, a):
    modulus, gens = ideal
    gb = buchberger(gens)
    p, q = FieldPoly(2, p, modulus), FieldPoly(2, q, modulus)
    np_, nq = normal_form(p, gb), normal_form(q, gb)
    assert normal_form(np_, gb) == np_
    assert normal_form(_combine(a, p, 1, q), gb) == _combine(a, np_, 1, nq)
    for g in gens:
        assert normal_form(g, gb).is_zero()


@SMALL
@hypothesis.given(ideals(), st.randoms(use_true_random=False))
def test_reduced_basis_independent_of_generator_order(ideal, rng):
    _, gens = ideal
    shuffled = gens[:]
    rng.shuffle(shuffled)
    assert buchberger(shuffled) == buchberger(gens)


@SMALL
@hypothesis.given(ideals(), exponents, st.integers(-3, 3))
def test_ideal_members_leave_basis_unchanged(ideal, shift, c):
    _, gens = ideal
    gb = buchberger(gens)
    # the S-polynomial of the first and last generators, and a multiple of one
    f = gens[0]
    g = gens[-1]
    (ef, cf), (eg, cg) = f.leading(), g.leading()
    lcm = tuple(map(max, ef, eg))
    s_poly = _combine(1, _times(f, tuple(a - b for a, b in zip(lcm, ef)), cg),
                      -1, _times(g, tuple(a - b for a, b in zip(lcm, eg)), cf))
    assert buchberger(gens + [s_poly]) == gb
    assert buchberger([_times(g, shift, c)] + gens) == gb
