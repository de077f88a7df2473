"""Exact arithmetic in the representation ring.

Virtual characters are finitely supported integer maps on dominant weights.
Characters multiply by Klimyk sums: irrep(lam) x irrep(nu) is the weight
system of one factor, shifted by the other highest weight and regularized
with signs (rootdata.rho_walk).  A tensor product expands the factor that
comes first under fewer_weights_first, which fusion_product shares; the
monomial x^e is x^(e - e_i) times x_i, so monomials expand only the
fundamental weight systems.
Conversion to polynomials in the fundamental characters eliminates the
largest remaining term (by level, then lexicographic order) against the
character of the matching monomial; every new term is dominance-below the
eliminated one, so the elimination terminates.
"""
from __future__ import annotations

from functools import lru_cache

from .groebner import FieldPoly
from .rootdata import RootSystem, _check_weight, full_weights, rho_walk
from .sparse import Sparse, addmul


class VirtualCharacter(Sparse):
    """An element of the representation ring in the irreducible basis."""

    __slots__ = ()
    _negative = "virtual character key {} is not dominant"

    @classmethod
    def irrep(cls, weight):
        return cls({tuple(weight): 1})


def fewer_weights_first(rs: RootSystem):
    """Order on highest weights for the factor a product expands: fewer
    weights first, ties by the tuple."""
    return lambda w: (len(full_weights(rs, w)), w)


def tensor_product(rs: RootSystem, x: VirtualCharacter, y: VirtualCharacter) -> VirtualCharacter:
    """Bilinear tensor-product decomposition."""
    signed_sum, key = rho_walk(rs).signed_sum, fewer_weights_first(rs)
    out = {}
    for lam, a in x.terms.items():
        for nu, b in y.terms.items():
            p, s = sorted((lam, nu), key=key)
            signed_sum(full_weights(rs, p), s, a * b, out)
    return VirtualCharacter(out)


def monomial_character(rs: RootSystem, exponents) -> VirtualCharacter:
    """Character of the monomial prod x_i^{e_i}, memoized per root system."""
    return _monomial(rs, _check_weight(rs, exponents))


@lru_cache(maxsize=None)
def _monomial(rs, exponents):
    """x^e as x^(e - e_i) x_i, i the first nonzero exponent: one Klimyk sum
    of the i-th fundamental weight system at each constituent."""
    if not any(exponents):
        return VirtualCharacter.irrep((0,) * rs.rank)
    i = next(j for j, e in enumerate(exponents) if e)
    smaller = _monomial(rs, exponents[:i] + (exponents[i] - 1,) + exponents[i + 1:])
    weights = full_weights(rs, tuple(int(j == i) for j in range(rs.rank)))
    signed_sum = rho_walk(rs).signed_sum
    out = {}
    for lam, c in smaller.terms.items():
        signed_sum(weights, lam, c, out)
    return VirtualCharacter(out)


def to_polynomial(rs: RootSystem, x: VirtualCharacter) -> FieldPoly:
    """Express a virtual character as a polynomial over Q in the fundamental
    characters.  The order of elimination is not a linear extension of
    dominance (on A3, alpha_2 has level 0), so a monomial may be eliminated
    more than once and its coefficients are summed."""
    rem = dict(x.terms)
    out = {}
    while rem:
        w = max(rem, key=lambda t: (rs.level(t), t))
        c = rem[w]
        addmul(out, {w: c})
        addmul(rem, monomial_character(rs, w).terms, -c)
    return FieldPoly(rs.rank, out)
