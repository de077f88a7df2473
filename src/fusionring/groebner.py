"""Buchberger engine over Q and prime fields.

Monomial order is graded reverse lexicographic throughout.  Coefficients
are exact: Fraction over Q, residues modulo a prime p < 2**31 otherwise.
Only what the quotient-codimension checks need is implemented: reduced
bases, normal forms, and standard-monomial counting for zero-dimensional
ideals.

The one monomial order is the key (-deg e, e_n, ..., e_1) of x^e.
Ascending key order is descending grevlex order, and the key of a product
is the componentwise sum of the keys, so each monomial's key is computed
once, when its term enters the engine.  A reduction works in place on a
dict of the remaining terms and a heap of their keys, with lazy deletion.

Buchberger's algorithm uses the normal selection strategy (the S-pair
with the smallest lcm first, from a heap) and the Gebauer-Moeller update
(Gebauer & Moeller, J. Symbolic Comput. 6, 1988): criteria M, F and B plus
the product criterion.  Pairs are formed only with basis elements whose
leading term no later element divides, and only that minimal basis is
interreduced.  The codimension depends only on the leading-term ideal,
which the minimal basis generates, so it is counted from those leads
without the interreduction.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product
from math import isqrt
from operator import add, le, neg, sub

from .errors import InputError

INFINITE = "infinite"  # codimension of a non-zero-dimensional quotient


def check_prime(p):
    """Return p if it is a prime below 2**31, else raise InputError."""
    if (not isinstance(p, int) or not 1 < p < 2 ** 31
            or any(p % q == 0 for q in range(2, isqrt(p) + 1))):
        raise InputError(f"modulus {p!r} is not a prime below 2**31")
    return p


def _inverse(c, modulus):
    return Fraction(1) / c if modulus is None else pow(c, -1, modulus)


class FieldPoly:
    """Polynomial with a fixed variable count over Q (modulus None) or F_p.

    Instances are not mutated after construction.
    """

    __slots__ = ("nvars", "modulus", "terms")

    def __init__(self, nvars, terms=None, modulus=None):
        if modulus is not None:
            check_prime(modulus)
        self.nvars = nvars
        self.modulus = modulus
        clean = {}
        for e, c in dict(terms or {}).items():
            if len(e) != nvars:
                raise InputError("exponent vector length mismatch")
            if min(e, default=0) < 0:
                raise InputError(f"exponent vector {tuple(e)} has a negative entry")
            c = self._coerce(c)
            if c:
                clean[tuple(e)] = c
        self.terms = clean

    @classmethod
    def _derived(cls, nvars, terms, modulus):
        """Wrap terms that are already clean: exponent tuples of length nvars
        mapped to nonzero coefficients of the field's type.  No checks."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.modulus = modulus
        poly.terms = terms
        return poly

    def _coerce(self, c):
        if self.modulus is None:
            return Fraction(c)
        return int(c) % self.modulus

    def is_zero(self):
        return not self.terms

    def leading(self):
        """(exponent, coefficient) of the grevlex-largest term: the smallest key."""
        e = min(self.terms, key=_key)
        return e, self.terms[e]

    def monic(self):
        if not self.terms:
            return self
        inv, p = _inverse(self.leading()[1], self.modulus), self.modulus
        terms = {f: c * inv if p is None else c * inv % p for f, c in self.terms.items()}
        return FieldPoly._derived(self.nvars, terms, p)

    def __eq__(self, other):
        return (isinstance(other, FieldPoly) and self.modulus == other.modulus
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.modulus, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        tag = "Q" if self.modulus is None else f"F{self.modulus}"
        return f"FieldPoly[{tag}]({self.terms})"


# -- the engine: monomials as keys, basis elements as (lead, lead[1:], tail) --

def _key(e):
    return (-sum(e),) + tuple(reversed(e))


def _exponent(key):
    return key[:0:-1]


def _key_divides(a, b):
    # the degree comparison is implied by the rest; it rejects cheaply
    return a[0] >= b[0] and all(map(le, a[1:], b[1:]))


def _key_lcm(a, b):
    e = tuple(map(max, a[1:], b[1:]))
    return (-sum(e),) + e


def _element(lead, lc, tail, modulus):
    """A basis element: lead key, lead key without its degree (for the
    divisibility test), and the tail scaled by 1/lc."""
    if lc != 1:
        inv = _inverse(lc, modulus)
        if modulus is None:
            tail = [(t, c * inv) for t, c in tail]
        else:
            tail = [(t, c * inv % modulus) for t, c in tail]
    return lead, lead[1:], tail


def _reduce(terms, elements, modulus):
    """Fully reduce terms (a key -> coefficient dict, consumed) by elements.

    Each step divides by the first element whose lead divides the largest
    remaining term.  Returns the remainder as (key, coefficient) pairs in
    descending monomial order.
    """
    heap = list(terms)
    heapify(heap)
    rem = []
    while heap:
        m = heappop(heap)
        c = terms.pop(m, None)
        if c is None:
            continue  # cancelled earlier, or a duplicate heap entry
        m0, m1 = m[0], m[1:]
        for lead, lead1, tail in elements:
            if lead[0] >= m0 and all(map(le, lead1, m1)):
                shift = tuple(map(sub, m, lead))
                for t, gc in tail:
                    t = tuple(map(add, t, shift))
                    old = terms.get(t)
                    if old is None:
                        terms[t] = -c * gc if modulus is None else -c * gc % modulus
                        heappush(heap, t)
                    else:
                        v = old - c * gc
                        if modulus is not None:
                            v %= modulus
                        if v:
                            terms[t] = v
                        else:
                            del terms[t]
                break
        else:
            rem.append((m, c))
    return rem


def _s_poly(f, g, lcm, modulus):
    """Terms of x^(lcm - lead f) f - x^(lcm - lead g) g for elements f, g."""
    shift = tuple(map(sub, lcm, f[0]))
    terms = {tuple(map(add, t, shift)): c for t, c in f[2]}
    shift = tuple(map(sub, lcm, g[0]))
    for t, c in g[2]:
        t = tuple(map(add, t, shift))
        v = terms.get(t, 0) - c
        if modulus is not None:
            v %= modulus
        if v:
            terms[t] = v
        else:
            terms.pop(t, None)
    return terms


def _update(elements, active, pairs, h):
    """Add element h to the basis under the Gebauer-Moeller criteria.

    elements lists every element found so far, active indexes the minimal
    basis and pairs is the heap of (grevlex lcm, i, j, lcm key) S-pairs.
    """
    n = len(elements)
    elements.append(h)
    lh = h[0]
    new = [(_key_lcm(lh, elements[g][0]), g) for g in active]
    kept = []
    for idx, (m, g) in enumerate(new):
        coprime = m[0] == lh[0] + elements[g][0][0]
        # criteria M and F: a new pair whose lcm is a multiple of another new
        # pair's lcm is dropped; of pairs with equal lcms one is kept
        if coprime or not (any(_key_divides(k[0], m) for k in kept)
                           or any(_key_divides(k[0], m) for k in new[idx + 1:])):
            kept.append((m, g, coprime))
    # criterion B: lead(h) divides the lcm of an old pair (i, j) strictly
    # inside both lcm(i, h) and lcm(h, j)
    pairs[:] = [p for p in pairs
                if not (_key_divides(lh, p[3])
                        and _key_lcm(elements[p[1]][0], lh) != p[3]
                        and _key_lcm(lh, elements[p[2]][0]) != p[3])]
    # product criterion: coprime leads reduce to zero
    pairs.extend((tuple(map(neg, m)), g, n, m) for m, g, coprime in kept if not coprime)
    heapify(pairs)
    active[:] = [g for g in active if not _key_divides(lh, elements[g][0])] + [n]


def _to_poly(items, nvars, modulus):
    """FieldPoly of (key, coefficient) pairs."""
    return FieldPoly._derived(nvars, {_exponent(k): c for k, c in items}, modulus)


def _check_ring(polys, nvars, modulus, message):
    for g in polys:
        if g.nvars != nvars or g.modulus != modulus:
            raise InputError(message)


def normal_form(p: FieldPoly, basis) -> FieldPoly:
    """Remainder of p on division by a Groebner basis (full reduction)."""
    basis = list(basis)
    _check_ring(basis, p.nvars, p.modulus,
                "polynomial and basis live in different polynomial rings")
    elements = []
    for g in basis:
        if not g.is_zero():
            keyed = {_key(f): c for f, c in g.terms.items()}
            lead = min(keyed)
            lc = keyed.pop(lead)
            elements.append(_element(lead, lc, list(keyed.items()), p.modulus))
    rem = _reduce({_key(e): c for e, c in p.terms.items()}, elements, p.modulus)
    return _to_poly(rem, p.nvars, p.modulus)


def _minimal_basis(gens):
    """(elements, nvars, modulus): the minimal Groebner basis of the ideal
    generated by gens, its elements in descending key order (smallest lead
    first) with unreduced tails; no elements for the zero ideal."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return [], None, None
    nvars, modulus = gens[0].nvars, gens[0].modulus
    _check_ring(gens, nvars, modulus, "generators live in different polynomial rings")
    elements, active, pairs = [], [], []

    def add_remainder(rem):
        if rem:
            (lead, lc), tail = rem[0], rem[1:]
            _update(elements, active, pairs, _element(lead, lc, tail, modulus))

    polys = [{_key(e): c for e, c in g.terms.items()} for g in gens]
    polys.sort(key=min, reverse=True)  # min key = leading term; smallest first
    for terms in polys:
        add_remainder(_reduce(terms, [elements[a] for a in active], modulus))
    while pairs:
        _, i, j, lcm = heappop(pairs)
        add_remainder(_reduce(_s_poly(elements[i], elements[j], lcm, modulus),
                              [elements[a] for a in active], modulus))
    return sorted((elements[a] for a in active), reverse=True), nvars, modulus


def buchberger(gens) -> list:
    """Reduced Groebner basis of the ideal generated by gens, smallest lead
    first: the minimal basis with its tails interreduced."""
    minimal, nvars, modulus = _minimal_basis(gens)
    one = 1 if modulus is not None else Fraction(1)
    return [_to_poly([(lead, one)] + _reduce(dict(tail), minimal, modulus), nvars, modulus)
            for lead, _, tail in minimal]


def quotient_codimension(gens):
    """Number of standard monomials of the quotient, or INFINITE.

    Exact count of monomials outside the leading-term ideal, read from the
    leads of the minimal basis; finite exactly when every variable has a
    pure power among them.
    """
    minimal, nvars, _ = _minimal_basis(gens)
    if not minimal:
        return INFINITE
    leads = [_exponent(lead) for lead, _, _ in minimal]
    degree_cap = []
    for v in range(nvars):
        pures = [e[v] for e in leads if sum(e) == e[v]]
        if not pures:
            return INFINITE
        degree_cap.append(min(pures))
    # the unit ideal has the lead 1, which caps every variable at 0
    return sum(not any(all(map(le, e, mono)) for e in leads)
               for mono in product(*map(range, degree_cap)))
