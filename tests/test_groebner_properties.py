"""Property tests of normal forms and reduced bases, drawn by hypothesis."""
import pytest

from itertools import product
from operator import add, le

from fusionring import FieldPoly, buchberger, groebner, normal_form, quotient_codimension
from fusionring.groebner import INFINITE, prime_codimensions
from fusionring.resolution import DEFAULT_PRIMES

from conftest import grevlex_key

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


def _standard_monomials(basis):
    """Monomials that no leading term of basis divides, counted below the
    smallest pure power of each variable among those leads, or INFINITE
    when a variable has none: the count read from the reduced basis."""
    leads = [g.leading()[0] for g in basis]
    caps = []
    for v in range(2):
        pures = [e[v] for e in leads if sum(e) == e[v]]
        if not pures:
            return INFINITE
        caps.append(min(pures))
    return sum(1 for m in product(*map(range, caps))
               if not any(all(a <= b for a, b in zip(e, m)) for e in leads))


@SMALL
@hypothesis.given(ideals())
def test_codimension_counts_the_reduced_basis_leads(ideal):
    # the count from the minimal basis's leads against the same count on
    # the interreduced basis, whose leads are the same monomials
    _, gens = ideal
    assert quotient_codimension(gens) == _standard_monomials(buchberger(gens))


LIMIT = 1 << 15   # the engine's degree limit (test_groebner)


@st.composite
def exponent_pairs(draw):
    """Two exponent vectors in 1..8 variables whose sum stays below LIMIT."""
    n = draw(st.integers(1, 8))
    entries = st.integers(0, (LIMIT - 1) // (2 * n)) | st.integers(0, 2)
    vector = st.tuples(*[entries] * n)
    return n, draw(vector), draw(vector)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(exponent_pairs())
def test_packed_keys_against_componentwise_arithmetic(pair):
    n, a, b = pair
    ka, kb = groebner._pack(a), groebner._pack(b)
    both = tuple(map(add, a, b))
    assert groebner._unpack(ka, n) == a and groebner._unpack(kb, n) == b
    assert (ka < kb) == (grevlex_key(a) > grevlex_key(b))
    assert (ka == kb) == (a == b)
    assert ka + kb == groebner._pack(both)
    guard = groebner._guard(n)
    assert groebner._key_divides(ka, kb, guard) == all(map(le, a, b))
    assert groebner._key_divides(ka, groebner._pack(both), guard)
    assert groebner._key_lcm(a, b) == groebner._pack(tuple(map(max, a, b)))
    assert groebner._unpack(groebner._key_lcm(a, b), n) == tuple(map(max, a, b))


@st.composite
def monic_divisions(draw):
    """A prime, a list of 1..3 monic integer polynomials and an integer
    polynomial, in two variables."""
    basis = []
    for terms in draw(st.lists(term_dicts, min_size=1, max_size=3)):
        terms = {e: c for e, c in terms.items() if c}
        if terms:
            lead = max(terms, key=grevlex_key)
            basis.append({**terms, lead: 1})
    return draw(st.sampled_from((2, 3, 7))), basis, draw(term_dicts)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(monic_divisions())
@hypothesis.example((3, [{(1, 0): 1, (0, 1): 2}], {(1, 0): 2, (0, 1): 1}))
def test_prime_field_division_is_rational_division_mod_p(case):
    # division by monic integer polynomials takes steps that depend only on
    # monomials, so over F_p it is the Q division read mod p: a term whose
    # coefficient vanishes mod p must leave the remainder and take no step
    # (the example: y gets 1 - 2 * 2 = -3, which is 0 mod 3 but not 0)
    p, basis, f = case
    over_q = normal_form(FieldPoly(2, f), [FieldPoly(2, g) for g in basis])
    assert all(c.denominator == 1 for c in over_q.terms.values())
    expected = {e: int(c) % p for e, c in over_q.terms.items() if int(c) % p}
    assert normal_form(FieldPoly(2, f, p),
                       [FieldPoly(2, g, p) for g in basis]).terms == expected


# coefficients that vanish mod some of 2, 3, 5 and 7, so that leads do
SPLITTING = st.sampled_from((2, 3, 5, 6, 7, 10, 14, 15, 21, 35, 210, -6, -35)) \
    | st.integers(-9, 9)


@st.composite
def integer_ideals(draw):
    """1..4 integer polynomials in 1..3 variables, often with a pure power
    of each variable, and 1..5 distinct primes: default primes and
    2**31 - 1."""
    n = draw(st.integers(1, 3))
    exponent = st.tuples(*[st.integers(0, 3)] * n)
    gens = draw(st.lists(st.dictionaries(exponent, SPLITTING, min_size=1, max_size=4),
                         min_size=1, max_size=4))
    if draw(st.booleans()):
        for v in range(n):
            power = tuple(draw(st.integers(1, 3)) if u == v else 0 for u in range(n))
            gens.append({power: draw(SPLITTING), (0,) * n: draw(SPLITTING)})
    primes = draw(st.lists(st.sampled_from(DEFAULT_PRIMES + (2 ** 31 - 1,)),
                           min_size=1, max_size=5, unique=True))
    return n, gens, tuple(primes)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(integer_ideals())
@hypothesis.example((1, [{(1,): 2, (0,): 1}], (2, 3)))
@hypothesis.example((2, [{(1, 0): 6, (0, 1): 3, (0, 0): 1}, {(0, 2): 1}], (2, 3, 5)))
def test_one_run_over_the_primes_product_is_each_prime_run(case):
    # the examples split: 2x + 1 is the unit ideal mod 2 and x = 1 mod 3;
    # mod 3 the lead 6x of the first generator and then its next term 3y
    # vanish, so 1 leads
    n, gens, primes = case
    got = prime_codimensions([FieldPoly(n, g) for g in gens], primes)
    assert list(got) == list(primes)
    assert got == {p: quotient_codimension([FieldPoly(n, g, p) for g in gens])
                   for p in primes}
