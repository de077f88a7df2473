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

from .errors import InputError
from .rootdata import RootSystem, full_weights, rho_walk, weyl_dimension


def _prune(terms):
    return {k: v for k, v in terms.items() if v}


class VirtualCharacter:
    """An element of the representation ring in the irreducible basis."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        terms = _prune(dict(terms or {}))
        for w in terms:
            if any(x < 0 for x in w):
                raise InputError(f"virtual character key {w} is not dominant")
        self.terms = terms

    @classmethod
    def irrep(cls, weight):
        return cls({tuple(weight): 1})

    @classmethod
    def zero(cls):
        return cls()

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return VirtualCharacter(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return VirtualCharacter({w: -c for w, c in self.terms.items()})

    def scale(self, n: int):
        return VirtualCharacter({w: n * c for w, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, VirtualCharacter) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "VirtualCharacter(0)"
        bits = " + ".join(f"{c}*[{','.join(map(str, w))}]"
                          for w, c in sorted(self.terms.items()))
        return f"VirtualCharacter({bits})"

    def to_json_dict(self):
        return {"terms": [{"weight": list(w), "coeff": c}
                          for w, c in sorted(self.terms.items())]}

    @classmethod
    def from_json_dict(cls, d):
        return cls({tuple(t["weight"]): t["coeff"] for t in d["terms"]})


class PolyChar:
    """Integer polynomial in the fundamental characters x_1 ... x_n."""

    __slots__ = ("poly",)

    def __init__(self, poly=None):
        poly = _prune(dict(poly or {}))
        for e in poly:
            if any(x < 0 for x in e):
                raise InputError(f"exponent vector {e} has a negative entry")
        self.poly = poly

    def __eq__(self, other):
        return isinstance(other, PolyChar) and self.poly == other.poly

    def __hash__(self):
        return hash(tuple(sorted(self.poly.items())))

    def __bool__(self):
        return bool(self.poly)

    def __repr__(self):
        if not self.poly:
            return "PolyChar(0)"
        bits = " + ".join(f"{c}*x^{e}" for e, c in sorted(self.poly.items()))
        return f"PolyChar({bits})"

    def to_json_dict(self):
        return {"terms": [{"exponents": list(e), "coeff": c}
                          for e, c in sorted(self.poly.items())]}

    @classmethod
    def from_json_dict(cls, d):
        return cls({tuple(t["exponents"]): t["coeff"] for t in d["terms"]})


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
            for mu, m in _klimyk_pair(rs, lam, nu).items():
                out[mu] = out.get(mu, 0) + a * b * m
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
        out[w] = out.get(w, 0) + c
        for mu, m in monomial_character(rs, w).terms.items():
            rem[mu] = rem.get(mu, 0) - c * m
            if rem[mu] == 0:
                del rem[mu]
    return PolyChar(out)


def from_polynomial(rs: RootSystem, p: PolyChar) -> VirtualCharacter:
    """Evaluate a polynomial with x_i sent to the i-th fundamental character."""
    total = VirtualCharacter.zero()
    for e, c in p.poly.items():
        total = total + monomial_character(rs, e).scale(c)
    return total
