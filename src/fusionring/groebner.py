"""Buchberger engine over Q and prime fields.

Monomial order is graded reverse lexicographic throughout.  Coefficients
are exact: Fraction over Q, residues modulo a prime p < 2**31 otherwise.
Only what the quotient-codimension checks need is implemented: reduced
bases, normal forms, and standard-monomial counting for zero-dimensional
ideals.  The codimensions over a list of primes come from one run over
the integers modulo their product, split where a prime divides a leading
coefficient (_minimal_bases).

The one monomial order is the key of x^e: one int holding e_n, ..., e_1
in 16-bit fields, e_1 lowest, below -deg e, so that int order is the
order of the tuple (-deg e, e_n, ..., e_1) (Monagan & Pearce, J. Symbolic
Comput. 46, 2011).  Ascending key order is descending grevlex order, and
the key is linear in e: the key of a product is the sum of the keys, and
x^a divides x^b exactly when b - a sets no field's guard bit.  Each monomial's key is computed once, when
its term enters the engine, and a monomial whose degree reaches 2**15
raises InputError there.  A reduction works in place on a dict of the
remaining terms and a heap of their keys; over F_p a coefficient is
reduced once, when its term leaves the heap, and skipped if it is zero.

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
from math import gcd, isqrt, prod
from operator import le

from .errors import InputError

INFINITE = "infinite"  # codimension of a non-zero-dimensional quotient


def check_prime(p):
    """Return p if it is a prime below 2**31, else raise InputError."""
    if (not isinstance(p, int) or not 1 < p < 2 ** 31
            or any(p % q == 0 for q in range(2, isqrt(p) + 1))):
        raise InputError(f"modulus {p!r} is not a prime below 2**31")
    return p


def check_primes(primes):
    """Return primes as a tuple of distinct primes below 2**31, else raise
    InputError."""
    primes = tuple(primes)
    for i, p in enumerate(primes):
        if p in primes[:i]:
            raise InputError(f"prime {p} is repeated")
        check_prime(p)
    return primes


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
            if not all(isinstance(x, int) and x >= 0 for x in e):
                raise InputError(f"exponent vector {tuple(e)} has an entry that is not natural")
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
        e = min(self.terms, key=_pack)
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


# -- the engine: monomials as packed keys, basis elements as (lead, exponent, tail) --

_FIELD = 16                          # bits per exponent field, guard bit included
_DEGREE_LIMIT = 1 << (_FIELD - 1)    # the guard bit of one field


def _pack(e):
    """The key of x^e: e_1..e_n in _FIELD-bit fields, e_1 lowest, minus
    deg e above them.  The one guard of the fields: a degree at the limit
    raises InputError, and no exponent of the engine exceeds the degree of
    a monomial that passed it."""
    key = -sum(e)
    if key <= -_DEGREE_LIMIT:
        raise InputError(f"monomial {tuple(e)} overflows the {_FIELD}-bit exponent fields")
    for x in reversed(e):
        key = (key << _FIELD) + x
    return key


def _unpack(key, nvars):
    return tuple(key >> (_FIELD * v) & (_DEGREE_LIMIT - 1) for v in range(nvars))


def _guard(nvars):
    """The guard bits of nvars fields (see _key_divides)."""
    return sum(_DEGREE_LIMIT << (_FIELD * v) for v in range(nvars))


def _key_divides(a, b, guard):
    # b - a borrows into a guard bit exactly when some exponent of a is larger
    return not (b - a) & guard


def _key_lcm(a, b):
    # from the exponent vectors: unpacking keys here costs more than the lcm
    return _pack(tuple(map(max, a, b)))


def _element(lead, lc, tail, modulus, nvars):
    """A basis element: lead key, lead exponent (for lcms), and the tail
    scaled by 1/lc."""
    if lc != 1:
        inv = _inverse(lc, modulus)
        if modulus is None:
            tail = [(t, c * inv) for t, c in tail]
        else:
            tail = [(t, c * inv % modulus) for t, c in tail]
    return lead, _unpack(lead, nvars), tail


def _reduce(terms, elements, modulus, guard):
    """Fully reduce terms (a key -> coefficient dict, consumed) by elements.

    Each step divides by the first element whose lead divides the largest
    remaining term.  Over F_p a coefficient is reduced once, when its term
    is popped.  Returns the remainder as (key, coefficient) pairs in
    descending monomial order.
    """
    heap = list(terms)
    heapify(heap)
    rem = []
    while heap:
        m = heappop(heap)
        c = terms.pop(m)
        if modulus is not None:
            c %= modulus
        if not c:
            continue  # cancelled, or 0 mod p
        for lead, _, tail in elements:
            shift = m - lead
            if not shift & guard:
                for t, gc in tail:
                    t += shift
                    old = terms.get(t)
                    if old is None:
                        terms[t] = -c * gc
                        heappush(heap, t)
                    else:
                        terms[t] = old - c * gc
                break
        else:
            rem.append((m, c))
    return rem


def _s_poly(f, g, lcm):
    """Terms of x^(lcm - lead f) f - x^(lcm - lead g) g for elements f, g,
    left unreduced for _reduce."""
    shift = lcm - f[0]
    terms = {t + shift: c for t, c in f[2]}
    shift = lcm - g[0]
    for t, c in g[2]:
        t += shift
        terms[t] = terms.get(t, 0) - c
    return terms


def _update(elements, active, pairs, h, guard):
    """Add element h to the basis under the Gebauer-Moeller criteria.

    elements lists every element found so far, active indexes the minimal
    basis and pairs is the heap of (-lcm key, i, j) S-pairs: smallest lcm
    first.
    """
    n = len(elements)
    elements.append(h)
    lh, eh, _ = h
    new = [(_key_lcm(eh, elements[g][1]), g) for g in active]
    kept = []
    for idx, (m, g) in enumerate(new):
        coprime = m == lh + elements[g][0]
        # criteria M and F: a new pair whose lcm is a multiple of another new
        # pair's lcm is dropped; of pairs with equal lcms one is kept
        if coprime or not (any(_key_divides(k[0], m, guard) for k in kept)
                           or any(_key_divides(k[0], m, guard) for k in new[idx + 1:])):
            kept.append((m, g, coprime))
    # criterion B: lead(h) divides the lcm of an old pair (i, j) strictly
    # inside both lcm(i, h) and lcm(h, j)
    pairs[:] = [p for p in pairs
                if not (_key_divides(lh, -p[0], guard)
                        and _key_lcm(elements[p[1]][1], eh) != -p[0]
                        and _key_lcm(eh, elements[p[2]][1]) != -p[0])]
    # product criterion: coprime leads reduce to zero
    pairs.extend((-m, g, n) for m, g, coprime in kept if not coprime)
    heapify(pairs)
    active[:] = [g for g in active if not _key_divides(lh, elements[g][0], guard)] + [n]


def _to_poly(items, nvars, modulus):
    """FieldPoly of (key, coefficient) pairs."""
    return FieldPoly._derived(nvars, {_unpack(k, nvars): c for k, c in items}, modulus)


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
            keyed = {_pack(f): c for f, c in g.terms.items()}
            lead = min(keyed)
            lc = keyed.pop(lead)
            elements.append(_element(lead, lc, list(keyed.items()), p.modulus, p.nvars))
    rem = _reduce({_pack(e): c for e, c in p.terms.items()}, elements, p.modulus,
                  _guard(p.nvars))
    return _to_poly(rem, p.nvars, p.modulus)


def _keyed(gens):
    """(nvars, modulus, polys): the ring of gens and its nonzero members as
    key -> coefficient dicts; no polys for the zero ideal."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return 0, None, []
    nvars, modulus = gens[0].nvars, gens[0].modulus
    _check_ring(gens, nvars, modulus, "generators live in different polynomial rings")
    return nvars, modulus, [{_pack(e): c for e, c in g.terms.items()} for g in gens]


def _minimal_bases(polys, nvars, modulus):
    """The minimal Groebner bases of the ideal generated by polys (key ->
    coefficient dicts, consumed) over Q (modulus None), F_p, or Z/M for a
    product M of distinct primes, as (part, elements) leaves.

    Over Z/M this is one Buchberger run over every F_p at once: Z/M is
    their product (CRT), and the divisions, lcms and criteria read only
    leads, which agree over every F_p while each leading coefficient lc
    is a unit.  A remainder whose lc is not one splits the run: the
    primes dividing lc, gcd(lc, M), go on from a copy of the pairs, the
    minimal basis and the pending generators, where the lead has vanished
    and the next term leads; the other primes go on with lc a unit.
    Elements are shared: a tail normalised modulo a multiple of a part
    reads correctly modulo the part, since _reduce reduces at pop.  Over
    F_p the run never splits.  The parts of the leaves multiply to M, and
    the elements of a leaf, in descending key order (smallest lead first)
    with unreduced tails, are the minimal basis over F_p for every prime p
    of its part; none for the zero ideal.
    """
    guard = _guard(nvars)
    elements, leaves = [], []
    # min key = leading term: popped from the end, the smallest lead comes first
    branches = [(modulus, [], [], sorted(polys, key=min), [])]
    while branches:
        modulus, active, pairs, pending, rem = branches.pop()
        while True:
            while rem and modulus is not None:
                part = gcd(rem[0][1], modulus)
                if part == 1:
                    break
                if part == modulus:  # the lead vanishes mod every prime here
                    rem = rem[1:]
                else:
                    modulus //= part
                    branches.append((part, active[:], pairs[:], [dict(t) for t in pending],
                                     rem))
            if rem:
                (lead, lc), tail = rem[0], rem[1:]
                _update(elements, active, pairs, _element(lead, lc, tail, modulus, nvars),
                        guard)
            if pending:
                terms = pending.pop()
            elif pairs:
                neg_lcm, i, j = heappop(pairs)
                terms = _s_poly(elements[i], elements[j], -neg_lcm)
            else:
                break
            rem = _reduce(terms, [elements[a] for a in active], modulus, guard)
        leaves.append((modulus, sorted((elements[a] for a in active), reverse=True)))
    return leaves


def buchberger(gens) -> list:
    """Reduced Groebner basis of the ideal generated by gens, smallest lead
    first: the minimal basis with its tails interreduced."""
    nvars, modulus, polys = _keyed(gens)
    ((_, minimal),) = _minimal_bases(polys, nvars, modulus)
    one = 1 if modulus is not None else Fraction(1)
    guard = _guard(nvars)
    return [_to_poly([(lead, one)] + _reduce(dict(tail), minimal, modulus, guard),
                     nvars, modulus)
            for lead, _, tail in minimal]


def quotient_codimension(gens):
    """Number of standard monomials of the quotient, or INFINITE.

    Exact count of monomials outside the leading-term ideal, read from the
    leads of the minimal basis; finite exactly when every variable has a
    pure power among them.
    """
    nvars, modulus, polys = _keyed(gens)
    ((_, minimal),) = _minimal_bases(polys, nvars, modulus)
    return _codimension(minimal, nvars)


def prime_codimensions(gens, primes) -> dict:
    """{p: quotient codimension over F_p} for each prime of primes, in
    their order, of the ideal that gens, polynomials over Q with integer
    coefficients, generate modulo p.

    One Buchberger run over Z/M, M the product of the primes, which splits
    only where a prime divides a leading coefficient (_minimal_bases); each
    leaf gives the codimension of every prime of its part.
    """
    primes = check_primes(primes)
    nvars, modulus, polys = _keyed(gens)
    if modulus is not None or any(c.denominator != 1 for g in polys for c in g.values()):
        raise InputError("generators must be polynomials over Q with integer coefficients")
    polys = [{t: c.numerator for t, c in terms.items()} for terms in polys]
    counts = [(part, _codimension(minimal, nvars))
              for part, minimal in _minimal_bases(polys, nvars, prod(primes))]
    return {p: next(count for part, count in counts if part % p == 0) for p in primes}


def _codimension(minimal, nvars):
    """The standard-monomial count of the leads of a minimal basis."""
    if not minimal:
        return INFINITE
    leads = [e for _, e, _ in minimal]
    degree_cap = []
    for v in range(nvars):
        pures = [e[v] for e in leads if sum(e) == e[v]]
        if not pures:
            return INFINITE
        degree_cap.append(min(pures))
    # the unit ideal has the lead 1, which caps every variable at 0
    return sum(not any(all(map(le, e, mono)) for e in leads)
               for mono in product(*map(range, degree_cap)))
