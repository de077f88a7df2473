import random
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, mul, sub

import pytest

from fusionring import (FusionElement, InputError, VirtualCharacter, alcove_weights,
                        build_root_system, full_weights, fusion_product)
from fusionring.repring import monomial_character
from fusionring.rootdata import (_check_level, _check_weight, reflection_orbit,
                                 subsystem_positive_roots)
from fusionring.sparse import Sparse, addmul
from fusionring.twisted import (_beta2, _face_walk, centralizer_info, face_subset,
                                is_valid_label, rho2)


@pytest.fixture(scope="session")
def g2():
    return build_root_system("G2")


@pytest.fixture(scope="session")
def a1():
    return build_root_system("A1")


@pytest.fixture(scope="session")
def a2():
    return build_root_system("A2")


@pytest.fixture(scope="session")
def c2():
    return build_root_system("C2")


def random_character(rs, rng: random.Random, level: int = 3, terms: int = 3,
                     coeff: int = 3) -> VirtualCharacter:
    """Small random virtual character supported on low-level weights."""
    basis = alcove_weights(rs, level)
    out = {}
    for _ in range(terms):
        w = rng.choice(basis)
        out[w] = out.get(w, 0) + rng.randint(-coeff, coeff)
    return VirtualCharacter(out)


def grevlex_key(e):
    """Sort key of the graded reverse lexicographic order on exponent
    vectors, written apart from the Groebner engine's own order: a larger
    total degree is larger, and a tie goes to the vector with the smaller
    last differing exponent."""
    return (sum(e), tuple(-x for x in reversed(e)))


def gepner_generators(n, k):
    """Gepner's fusion-potential presentation of A_n at level k, written
    apart from extraction: the characters h_{k+1}, ..., h_{k+n} of the
    symmetric powers of the standard representation, irrep((k + j) omega_1)
    (Gepner, Commun. Math. Phys. 141 (1991) 381)."""
    return [VirtualCharacter.irrep((k + j,) + (0,) * (n - 1)) for j in range(1, n + 1)]


# Laurent polynomials in the weight-lattice group ring, as {exponent: coeff}

def laurent_add(a: dict, b: dict) -> dict:
    return addmul(dict(a), b)


def laurent_scale(a: dict, n: int) -> dict:
    return addmul({}, a, n)


def laurent_mul(a: dict, b: dict) -> dict:
    out = {}
    for ka, va in a.items():
        addmul(out, {tuple(map(add, e, ka)): c for e, c in b.items()}, va)
    return out


class ReferenceEchelon:
    """The integer echelon of intlinalg.ZEchelon with each row's tag vector
    carried forward through every row operation: the slow path its
    backward pass over the row-operation log is checked against.  Each
    stored meta is its row as a combination of the inserted tags."""

    def __init__(self):
        self.rows = {}  # pivot column -> (vector, meta)

    def insert(self, vec, meta=None) -> bool:
        vec = {k: v for k, v in vec.items() if v}
        meta = dict(meta or {})
        while vec:
            col = max(vec)
            if col not in self.rows:
                if vec[col] < 0:
                    vec = {k: -v for k, v in vec.items()}
                    meta = {k: -v for k, v in meta.items()}
                self.rows[col] = (vec, meta)
                return True
            pvec, pmeta = self.rows[col]
            q = vec[col] // pvec[col]
            addmul(vec, pvec, -q)
            addmul(meta, pmeta, -q)
            if col in vec:
                if vec[col] < 0:
                    vec = {k: -v for k, v in vec.items()}
                    meta = {k: -v for k, v in meta.items()}
                self._reduce_tail(vec, meta, col)
                self.rows[col] = (vec, meta)
                vec, meta = pvec, pmeta
        return False

    def _reduce_tail(self, vec, meta, col):
        rows = self.rows
        while True:
            col = max((c for c in vec if c < col and c in rows), default=None)
            if col is None:
                return
            pvec, pmeta = rows[col]
            q = vec[col] // pvec[col]
            if q:
                addmul(vec, pvec, -q)
                addmul(meta, pmeta, -q)

    def reduce(self, vec):
        """(residual, combination): vec = residual + the rows' metas
        weighted by the reduction."""
        vec = {k: v for k, v in vec.items() if v}
        combo = {}
        while vec:
            col = max(vec)
            row = self.rows.get(col)
            if row is None or vec[col] % row[0][col] != 0:
                break
            q = vec[col] // row[0][col]
            addmul(vec, row[0], -q)
            addmul(combo, row[1], q)
        return vec, combo


def reference_walk(rs, walls, shift2, level2):
    """The interpreted walk of rootdata.chamber_walk(rs, walls, shift2,
    level2): the slow path its generated kernels are checked against, with
    the derived reflection cap computed up front on every call."""
    linear = tuple((i, rs.simple_roots[i]) for i in walls)
    affine = level2 is not None
    theta = rs.highest_root
    comarks = rs.comarks[1:]
    if affine and len(walls) == rs.rank:
        two_rho = [2 * sum(row) for row in rs.form]   # (omega_i, 2 rho)
        common = lcm(*(x.denominator for x in two_rho))
        weights = tuple(int(x * common) for x in two_rho)
        den = common * level2
        base = len(rs.positive_roots)
    else:
        weights = None
        nodes = ((0,) if affine else ()) + tuple(i + 1 for i in walls)
        base = len(subsystem_positive_roots(rs, nodes))
    zero = (0,) * rs.rank

    def walk(w, nu=zero):
        beta = [2 * (x + y) + s for x, y, s in zip(w, nu, shift2)]
        cap = base if weights is None else \
            base + sum(map(mul, map(abs, beta), weights)) // den
        sign = 1
        for _ in range(cap + 1):
            for i, root in linear:
                ci = beta[i]
                if ci < 0:
                    beta = [x - ci * r for x, r in zip(beta, root)]
                    sign = -sign
                    break
            else:
                if affine:
                    lev = sum(map(mul, comarks, beta))
                    if lev > level2:
                        beta = [x + (level2 - lev) * t for x, t in zip(beta, theta)]
                        sign = -sign
                        continue
                    if lev == level2:
                        return None
                for i in walls:
                    if not beta[i]:
                        return None
                diff = list(map(sub, beta, shift2))
                for x in diff:
                    if x & 1:
                        raise AssertionError("label is not an integral weight")
                return tuple([x >> 1 for x in diff]), sign
        raise AssertionError(
            f"chamber walk of {tuple(map(add, w, nu))} exceeded its derived cap of "
            f"{cap} reflections (walls {walls}, doubled level {level2})")
    return walk


# Root-system and representation-ring oracles: slow paths that the package
# itself never takes

def reflect(rs, i: int, w):
    """Simple reflection at nonaffine node i (1-based)."""
    ci = w[i - 1]
    if ci == 0:
        return tuple(w)
    root = rs.simple_roots[i - 1]
    return tuple(x - ci * r for x, r in zip(w, root))


def dominant_reduce(rs, w):
    """The dominant representative of the Weyl orbit of w."""
    v = _check_weight(rs, w)
    while True:
        for i, ci in enumerate(v):
            if ci < 0:
                v = tuple(x - ci * r for x, r in zip(v, rs.simple_roots[i]))
                break
        else:
            return v


def form_pair(rs, v, w) -> Fraction:
    """Exact invariant inner product of two weight vectors."""
    total = Fraction(0)
    for i, vi in enumerate(v):
        if vi:
            row = rs.form[i]
            total += vi * sum(wj * row[j] for j, wj in enumerate(w) if wj)
    return total


def weyl_dimension(rs, highest) -> int:
    """Dimension via the product formula over positive roots."""
    highest = _check_weight(rs, highest)
    if not rs.is_dominant(highest):
        raise InputError("highest weight must be dominant")
    lam_rho = tuple(x + 1 for x in highest)
    dim = Fraction(1)
    for alpha in rs.positive_roots:
        dim *= form_pair(rs, lam_rho, alpha) / form_pair(rs, rs.rho, alpha)
    if dim.denominator != 1:
        raise AssertionError("dimension formula produced a non-integer")
    return int(dim)


def dim_virtual(rs, x: VirtualCharacter) -> int:
    return sum(c * weyl_dimension(rs, w) for w, c in x.terms.items())


def from_polynomial(rs, p) -> VirtualCharacter:
    """Evaluate a FieldPoly over Q with integer coefficients, x_i sent to
    the i-th fundamental character."""
    out = {}
    for e, c in p.terms.items():
        assert c.denominator == 1, c
        addmul(out, monomial_character(rs, e).terms, c.numerator)
    return VirtualCharacter(out)


def fuse_elements(rs, x: FusionElement, y: FusionElement) -> FusionElement:
    """Bilinear extension of the fusion product."""
    if x.level != y.level:
        raise InputError("fusion elements live at different levels")
    out = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            addmul(out, fusion_product(rs, a, b, x.level).terms, ca * cb)
    return FusionElement(x.level, out)


@lru_cache(maxsize=None)
def _face_reference(rs, face, k):
    return reference_walk(rs, tuple(i - 1 for i in face if i), rho2(rs, face),
                          2 * k if 0 in face else None)


def d1_component(rs, subset, j, k, mu):
    """The component of the differential from a validated face into the
    face plus node j, on one label, written apart from
    resolution._cofaces: None when the reference walk of mu in the larger
    face meets a wall, else (label, sign) with the simplicial sign (-1)^s,
    s the position of j in the ordered complement of the face (affine node
    first)."""
    red = _face_reference(rs, tuple(sorted(subset + (j,))), k)(mu)
    if red is None:
        return None
    s = [i for i in range(rs.rank + 1) if i not in subset].index(j)
    return red[0], red[1] * (-1) ** s


# The invariant modules inside the weight-lattice group ring: the module
# action and the expansion of a label, for the acceptance criterion on
# module bases

class TwistedModuleElement(Sparse):
    """Integer combination of chamber labels for one face and level."""

    __slots__ = ("subset", "level")
    _fields = ("subset", "level")
    _mismatch = "cannot add elements of different modules"

    def __init__(self, subset, level, terms=None):
        self.subset = tuple(sorted(set(subset)))   # one face, one module
        self.level = level
        super().__init__(terms)

    @classmethod
    def label(cls, rs, subset, level, mu):
        subset = face_subset(rs, subset)
        mu = tuple(mu)
        if not is_valid_label(rs, subset, level, mu):
            raise InputError(f"{mu} is not a chamber label for face {subset}")
        return cls(subset, _check_level(level), {mu: 1})


def char_expansion(rs, c: VirtualCharacter) -> dict:
    """Weight expansion of a virtual character inside the group ring."""
    out = {}
    for lam, coeff in c.terms.items():
        addmul(out, full_weights(rs, lam), coeff)
    return out


def rg_multiply(rs, c: VirtualCharacter, x: TwistedModuleElement) -> TwistedModuleElement:
    """Module action of a virtual character on an invariant-module element."""
    for w in (*c.terms, *x.terms):
        _check_weight(rs, w)
    weights = char_expansion(rs, c)
    kernel = _face_walk(rs, face_subset(rs, x.subset), x.level)
    out = {}
    for mu, a in x.terms.items():
        kernel.signed_sum(weights, mu, a, out)
    return TwistedModuleElement(x.subset, x.level, out)


def _shifted(a: dict, by) -> dict:
    return {tuple(map(add, e, by)): c for e, c in a.items()}


def _antisymmetrize(rs, subset, k, point2, order):
    """Signed orbit of a regular doubled point under the level-k face group,
    which must be a copy of the group, of the given order."""
    orbit = reflection_orbit(rs, tuple(i - 1 for i in subset if i),
                             2 * k if 0 in subset else None, point2)
    if len(orbit) != order:
        raise AssertionError(f"orbit of {point2} is not as large as the group of {subset}")
    return orbit


def _laurent_divide_exact(num: dict, den: dict) -> dict:
    quob = {}
    rem = dict(num)
    lead = max(den)
    lead_c = den[lead]
    while rem:
        top = max(rem)
        shift = tuple(a - b for a, b in zip(top, lead))
        if rem[top] % lead_c:
            raise AssertionError("inexact antisymmetrizer division")
        # every term the step adds is below top, so shift never returns
        q = quob[shift] = rem[top] // lead_c
        addmul(rem, _shifted(den, shift), -q)
    return quob


def module_element_expansion(rs, subset, k: int, mu) -> dict:
    """Group-ring expansion of a basis label: the antisymmetrization of
    mu + rho_S over the level-k face group divided by the level-0
    antisymmetrization of rho_S.  A label on a wall of the face group
    antisymmetrizes to zero, so its expansion is empty."""
    subset = face_subset(rs, subset)
    k, mu = _check_level(k), _check_weight(rs, mu)
    if _face_walk(rs, subset, k).walk(mu) is None:
        return {}
    order = centralizer_info(rs, subset).weyl_order
    num = _antisymmetrize(rs, subset, k, _beta2(rs, subset, mu), order)
    den = _antisymmetrize(rs, subset, 0, rho2(rs, subset), order)
    quo2 = _laurent_divide_exact(num, den)
    if any(x % 2 for e in quo2 for x in e):
        raise AssertionError("expansion landed outside the weight lattice")
    return {tuple(x // 2 for x in e): c for e, c in quo2.items()}
