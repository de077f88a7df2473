import random
from math import lcm
from operator import add, mul, sub

import pytest

from fusionring import VirtualCharacter, alcove_weights, build_root_system
from fusionring.rootdata import subsystem_positive_roots
from fusionring.sparse import addmul


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
