import random
from fractions import Fraction
from itertools import product

import pytest

from fusionring import FieldPoly, buchberger, normal_form, quotient_codimension
from fusionring.groebner import INFINITE

from conftest import grevlex_key


def poly2(terms, modulus=None):
    return FieldPoly(2, terms, modulus)


def test_unit_ideal():
    gb = buchberger([poly2({(0, 0): 1})])
    assert len(gb) == 1 and gb[0].terms == {(0, 0): Fraction(1)}
    assert quotient_codimension([poly2({(0, 0): 5})]) == 0


def test_already_reduced_pair():
    gens = [poly2({(2, 0): 1}), poly2({(0, 2): 1})]
    gb = buchberger(gens)
    assert sorted(g.leading()[0] for g in gb) == [(0, 2), (2, 0)]
    assert quotient_codimension(gens) == 4  # 1, x, y, xy


def test_twisted_cusp_example():
    # x^2 - y, y^2 - x
    f = poly2({(2, 0): 1, (0, 1): -1})
    g = poly2({(0, 2): 1, (1, 0): -1})
    gb = buchberger([f, g])
    assert quotient_codimension([f, g]) == 4
    # x^3 reduces to x * y after two steps
    nf = normal_form(poly2({(3, 0): 1}), gb)
    assert nf.terms == {(1, 1): Fraction(1)}
    assert normal_form(f, gb).is_zero()
    # a nonzero constant is its own normal form modulo a proper ideal
    c = poly2({(0, 0): 7})
    assert normal_form(c, gb) == c


def test_not_zero_dimensional():
    assert quotient_codimension([poly2({(1, 0): 1})]) is INFINITE


def test_grevlex_order():
    def lead(*monomials):
        return poly2(dict.fromkeys(monomials, 1)).leading()[0]

    assert lead((1, 1), (2, 0), (0, 2)) == (2, 0) and lead((0, 2), (1, 1)) == (1, 1)
    assert lead((0, 1), (1, 0)) == (1, 0)
    assert lead((1, 0), (0, 2)) == (0, 2)
    # and on random polynomials in three variables, against the test-side key
    rng = random.Random(3)
    for _ in range(50):
        p = FieldPoly(3, {tuple(rng.randint(0, 3) for _ in range(3)): rng.randint(1, 3)
                          for _ in range(rng.randint(1, 5))})
        assert p.leading()[0] == max(p.terms, key=grevlex_key)


def test_normal_form_idempotent_linear():
    rng = random.Random(5)
    f = poly2({(2, 0): 1, (0, 1): -1})
    g = poly2({(0, 2): 1, (1, 0): -1})
    gb = buchberger([f, g])
    for _ in range(20):
        p = poly2({(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-4, 4)
                   for _ in range(3)})
        q = poly2({(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-4, 4)
                   for _ in range(3)})
        np_ = normal_form(p, gb)
        assert normal_form(np_, gb) == np_
        s = FieldPoly(2, {e: p.terms.get(e, 0) + q.terms.get(e, 0)
                          for e in set(p.terms) | set(q.terms)})
        assert normal_form(s, gb) == FieldPoly(
            2, {e: normal_form(p, gb).terms.get(e, 0) + normal_form(q, gb).terms.get(e, 0)
                for e in set(normal_form(p, gb).terms) | set(normal_form(q, gb).terms)})


def test_reduced_basis_independent_of_order():
    rng = random.Random(9)
    for _ in range(5):
        gens = [FieldPoly(3, {(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)):
                              rng.randint(-3, 3) for _ in range(3)})
                for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        base = buchberger(gens)
        for _ in range(3):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert buchberger(shuffled) == base


def test_codimension_against_linear_algebra():
    # zero-dimensional by construction: pure powers plus noise
    rng = random.Random(31)
    for trial in range(20):
        nvars = rng.choice([2, 3])
        gens = []
        for v in range(nvars):
            d = rng.randint(1, 2)
            e = tuple(d if i == v else 0 for i in range(nvars))
            terms = {e: 1}
            for _ in range(rng.randint(0, 2)):
                f = tuple(rng.randint(0, d - 1) if i == v else rng.randint(0, 1)
                          for i in range(nvars))
                if sum(f) < sum(e):
                    terms[f] = terms.get(f, 0) + rng.randint(-2, 2)
            gens.append(FieldPoly(nvars, terms))
        expected = quotient_codimension(gens)
        assert expected is not INFINITE
        assert expected == _brute_codim(gens, nvars)


def _brute_codim(gens, nvars, cap=8):
    """Count standard monomials via exact linear algebra.

    Pivot monomials of the row space of all monomial multiples, within a
    degree cap large enough for these tiny ideals, leave exactly the
    standard monomials of the quotient uncovered in low degree.
    """
    monos = [e for e in product(range(cap + 1), repeat=nvars) if sum(e) <= cap]
    monos.sort(key=grevlex_key)
    index = {e: i for i, e in enumerate(monos)}
    pivot_rows = {}
    for g in gens:
        gdeg = max(sum(e) for e in g.terms)
        for shift in monos:
            if sum(shift) + gdeg > cap:
                continue
            r = [Fraction(0)] * len(monos)
            for e, c in g.terms.items():
                r[index[tuple(a + b for a, b in zip(e, shift))]] += c
            while True:
                lead = next((i for i in range(len(monos) - 1, -1, -1) if r[i] != 0), None)
                if lead is None:
                    break
                if lead in pivot_rows:
                    stored = pivot_rows[lead]
                    f = r[lead] / stored[lead]
                    r = [x - f * y for x, y in zip(r, stored)]
                else:
                    pivot_rows[lead] = r
                    break
    survivors = [e for e in monos if sum(e) <= cap // 2 and index[e] not in pivot_rows]
    return len(survivors)


def test_prime_field_arithmetic():
    f = FieldPoly(2, {(2, 0): 1, (0, 1): -1}, 5)
    g = FieldPoly(2, {(0, 2): 1, (1, 0): -1}, 5)
    assert quotient_codimension([f, g]) == 4
    # coefficients collapse modulo 2
    h = FieldPoly(1, {(1,): 2, (0,): 1}, 2)
    assert h.terms == {(0,): 1}


def test_composite_modulus_rejected(g2):
    from fusionring import InputError
    from fusionring.resolution import g2_fusion_ideal_generators, verify_presentation
    # Fermat inversion modulo 4 or 9 certified this as "pass"
    with pytest.raises(InputError):
        verify_presentation(g2, 2, g2_fusion_ideal_generators(2), primes=(4, 9))
    for bad in (0, 1, 4, 9, 91, 2 ** 31, 2 ** 31 + 11):
        with pytest.raises(InputError):
            FieldPoly(1, {(1,): 1}, bad)


def test_negative_exponents_rejected():
    # x^-1 is not a polynomial; read as one it made the ideal a unit ideal
    from fusionring import InputError
    with pytest.raises(InputError, match=r"\(-1,\)"):
        quotient_codimension([FieldPoly(1, {(-1,): 1})])
    with pytest.raises(InputError, match=r"\(2, -3\)"):
        FieldPoly(2, {(0, 0): 1, (2, -3): 4}, 5)
    # nor is x^1.5; read as one it gave an infinite codimension
    with pytest.raises(InputError, match=r"\(1\.5, 0\)"):
        FieldPoly(2, {(1.5, 0): 1, (0, 2): 1})


def test_check_prime():
    from fusionring import InputError
    from fusionring.groebner import check_prime
    for p in (2, 3, 31, 2 ** 31 - 1):
        assert check_prime(p) == p
    for bad in (0, 1, 4, 9, 91, 2 ** 31, 2 ** 31 + 11, 5.0):
        with pytest.raises(InputError):
            check_prime(bad)


def test_prime_codimensions_take_integer_polynomials_and_distinct_primes():
    from fusionring import InputError
    from fusionring.groebner import prime_codimensions
    f = poly2({(2, 0): 1, (0, 1): -1})
    g = poly2({(0, 2): 1, (1, 0): -1})
    assert prime_codimensions([f, g], (5, 2)) == {5: 4, 2: 4}
    assert prime_codimensions([f, g], ()) == {}
    assert prime_codimensions([], (3,)) == {3: INFINITE}
    with pytest.raises(InputError, match="prime 2 is repeated"):
        prime_codimensions([f, g], (2, 3, 2))
    for bad in ((4,), (2, 9), (5.0,)):
        with pytest.raises(InputError):
            prime_codimensions([f, g], bad)
    # the product of the primes never reaches a FieldPoly: the generators
    # are over Q, with integer coefficients
    with pytest.raises(InputError, match="integer coefficients"):
        prime_codimensions([poly2({(1, 0): 1}, 3)], (3,))
    with pytest.raises(InputError, match="integer coefficients"):
        prime_codimensions([poly2({(1, 0): Fraction(1, 2)})], (3,))


def test_normal_form_ring_mismatch():
    from fusionring import InputError
    f = poly2({(2, 0): 1, (0, 1): -1})
    g = poly2({(0, 2): 1, (1, 0): -1})
    gb_q = buchberger([f, g])
    gb_5 = buchberger([poly2(f.terms, 5), poly2({(0, 2): 1, (1, 0): -1}, 5)])
    with pytest.raises(InputError):
        normal_form(poly2({(3, 0): 1}, 5), gb_q)
    with pytest.raises(InputError):
        normal_form(poly2({(3, 0): 1}), gb_5)
    with pytest.raises(InputError):
        normal_form(FieldPoly(3, {(3, 0, 0): 1}), gb_q)
    assert normal_form(poly2({(3, 0): 1}, 5), gb_5).terms == {(1, 1): 1}


def test_exponent_fields_guard_their_degree_limit():
    # a degree below 2**15 packs into the 16-bit exponent fields; the engine
    # refuses a monomial at the limit, input term or S-pair lcm, by name
    from fusionring import InputError
    top = (1 << 15) - 1
    nf = normal_form(poly2({(top, 0): 1}), [poly2({(top, 0): 1, (0, 1): -1})])
    assert nf.terms == {(0, 1): Fraction(1)}
    nf = normal_form(poly2({(0, top): 3}, 7), [poly2({(1, top - 1): 1}, 7)])
    assert nf.terms == {(0, top): 3}   # x does not divide y^top
    with pytest.raises(InputError, match=r"\(32767, 1\) .* 16-bit"):
        normal_form(poly2({(top, 1): 1}), [poly2({(1, 0): 1})])
    with pytest.raises(InputError, match=r"\(0, 32768\) .* 16-bit"):
        quotient_codimension([poly2({(0, top + 1): 1})])
    with pytest.raises(InputError, match=r"\(16384, 16384\) .* 16-bit"):
        buchberger([poly2({(1 << 14, 0): 1, (0, 0): -1}, 3),
                    poly2({(0, 1 << 14): 1, (0, 0): -1}, 3)])
    with pytest.raises(InputError, match=r"\(32768,\) .* 16-bit"):
        FieldPoly(1, {(top + 1,): 1, (0,): 1}).leading()
