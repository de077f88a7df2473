"""Exact arithmetic in the representation ring.

Virtual characters are finitely supported integer maps on dominant weights.
Tensor decomposition uses the Klimyk rule: expand the factor with fewer
weights, shift by the other highest weight, and regularize with signs.
Conversion to polynomials in the fundamental characters eliminates the
largest remaining term (by level, then lexicographic order) against the
character of the matching monomial; every new term is dominance-below the
eliminated one, so the elimination terminates.
"""
from __future__ import annotations

from .rootdata import RootSystem, full_weights, rho_walk, weyl_dimension
from .sparse import Sparse, addmul


class VirtualCharacter(Sparse):
    """An element of the representation ring in the irreducible basis."""

    __slots__ = ()
    _negative = "virtual character key {} is not dominant"

    @classmethod
    def irrep(cls, weight):
        return cls({tuple(weight): 1})

    @classmethod
    def zero(cls):
        return cls()


class PolyChar(Sparse):
    """Integer polynomial in the fundamental characters x_1 ... x_n."""

    __slots__ = ()
    _key = "exponents"
    _negative = "exponent vector {} has a negative entry"

    def __init__(self, poly=None):
        super().__init__(poly)


def dim_virtual(rs: RootSystem, x: VirtualCharacter) -> int:
    return sum(c * weyl_dimension(rs, w) for w, c in x.terms.items())


def _klimyk_pair(rs, lam, nu):
    """Decomposition of irrep(lam) x irrep(nu) as {weight: mult}."""
    wl, wn = full_weights(rs, lam), full_weights(rs, nu)
    if len(wl) < len(wn):
        lam, wn = nu, wl
    return rho_walk(rs).signed_sum(wn, lam)


def tensor_product(rs: RootSystem, x: VirtualCharacter, y: VirtualCharacter) -> VirtualCharacter:
    """Bilinear tensor-product decomposition."""
    out = {}
    for lam, a in x.terms.items():
        for nu, b in y.terms.items():
            addmul(out, _klimyk_pair(rs, lam, nu), a * b)
    return VirtualCharacter(out)


def _term_key(rs, w):
    return (rs.level(w), w)


# keyed on the RootSystem itself (eq=False, so it hashes by identity): the
# key keeps the object alive, so its id cannot be reused by another one
_MONOMIAL_CACHE: dict = {}


def monomial_character(rs: RootSystem, exponents) -> VirtualCharacter:
    """Character of the monomial prod x_i^{e_i}, memoized per root system."""
    exponents = tuple(exponents)
    key = (rs, exponents)
    cached = _MONOMIAL_CACHE.get(key)
    if cached is not None:
        return cached
    if not any(exponents):
        result = VirtualCharacter.irrep((0,) * rs.rank)
    else:
        i = next(j for j, e in enumerate(exponents) if e)
        smaller = list(exponents)
        smaller[i] -= 1
        fundamental = VirtualCharacter.irrep(
            tuple(1 if j == i else 0 for j in range(rs.rank)))
        result = tensor_product(rs, monomial_character(rs, smaller), fundamental)
    _MONOMIAL_CACHE[key] = result
    return result


def to_polynomial(rs: RootSystem, x: VirtualCharacter) -> PolyChar:
    """Express a virtual character as a polynomial in the fundamental characters."""
    rem = dict(x.terms)
    out = {}
    while rem:
        w = max(rem, key=lambda t: _term_key(rs, t))
        c = rem[w]
        addmul(out, {w: c})
        addmul(rem, monomial_character(rs, w).terms, -c)
    return PolyChar(out)


def from_polynomial(rs: RootSystem, p: PolyChar) -> VirtualCharacter:
    """Evaluate a polynomial with x_i sent to the i-th fundamental character."""
    out = {}
    for e, c in p.terms.items():
        addmul(out, monomial_character(rs, e).terms, c)
    return VirtualCharacter(out)
