"""Differential test of the Groebner engine against sympy's groebner.

sympy is a test-only oracle; the module is skipped when it is missing.
"""
import random
from fractions import Fraction

import pytest

from fusionring import FieldPoly, buchberger
from fusionring.groebner import grevlex_key
from fusionring.repring import to_polynomial
from fusionring.resolution import g2_fusion_ideal_generators

sympy = pytest.importorskip("sympy")


def _sympy_basis(gens, nvars, modulus):
    """Reduced grevlex basis from sympy, as sorted monic FieldPolys."""
    xs = sympy.symbols(f"x1:{nvars + 1}")
    exprs = [sum(int(c) * sympy.prod(x ** a for x, a in zip(xs, e))
                 for e, c in g.items()) for g in gens]
    opts = {"domain": "QQ"} if modulus is None else {"modulus": modulus}
    out = []
    for g in sympy.groebner(exprs, *xs, order="grevlex", **opts).exprs:
        poly = sympy.Poly(g, *xs, **opts)
        terms = {}
        for e, c in poly.terms():
            if modulus is None:
                c = sympy.Rational(c)
                terms[e] = Fraction(int(c.p), int(c.q))
            else:
                terms[e] = int(c) % modulus
        out.append(FieldPoly(nvars, terms, modulus).monic())
    return sorted(out, key=lambda g: grevlex_key(g.leading()[0]))


def _random_zero_dimensional(rng, nvars):
    """Pure powers of every variable plus lower-degree noise."""
    gens = []
    for v in range(nvars):
        d = rng.randint(1, 3)
        terms = {tuple(d if i == v else 0 for i in range(nvars)): rng.randint(1, 3)}
        for _ in range(rng.randint(0, 3)):
            f = tuple(rng.randint(0, d) for _ in range(nvars))
            if sum(f) < d:
                terms[f] = terms.get(f, 0) + rng.randint(-3, 3)
        gens.append(terms)
    for _ in range(rng.randint(0, 2)):
        gens.append({tuple(rng.randint(0, 2) for _ in range(nvars)): rng.randint(-3, 3)
                     for _ in range(rng.randint(1, 3))})
    return gens


@pytest.mark.parametrize("modulus", [None, 2, 3, 7, 31])
def test_random_ideals_against_sympy(modulus):
    rng = random.Random(1000 + (modulus or 0))
    for _ in range(12):
        nvars = rng.choice([2, 3])
        gens = _random_zero_dimensional(rng, nvars)
        ours = buchberger([FieldPoly(nvars, g, modulus) for g in gens])
        assert ours == _sympy_basis(gens, nvars, modulus), gens


@pytest.mark.parametrize("modulus", [None, 2, 3, 7, 31])
def test_random_unstructured_ideals_against_sympy(modulus):
    # no pure powers forced: more S-pairs survive, which exercises the pair criteria
    rng = random.Random(2000 + (modulus or 0))
    for _ in range(25):
        gens = [{tuple(rng.randint(0, 3) for _ in range(3)): rng.randint(-3, 3)
                 for _ in range(rng.randint(1, 4))} for _ in range(rng.randint(2, 4))]
        gens = [g for g in gens if any(g.values())]
        ours = buchberger([FieldPoly(3, g, modulus) for g in gens])
        assert ours == _sympy_basis(gens, 3, modulus), gens


@pytest.mark.parametrize("modulus", [None, 2, 5, 31])
def test_g2_generators_against_sympy(g2, modulus):
    for k in range(1, 7):
        polys = [dict(to_polynomial(g2, g).terms) for g in g2_fusion_ideal_generators(k)]
        ours = buchberger([FieldPoly(2, p, modulus) for p in polys])
        assert ours == _sympy_basis(polys, 2, modulus), k
