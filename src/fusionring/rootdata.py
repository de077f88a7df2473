"""Exact root-system combinatorics for the simple Lie types A through G.

Weights are integer tuples in fundamental-weight (Dynkin) coordinates: the
i-th entry of a weight is its pairing with the i-th simple coroot.  Simple
roots are then the rows of the Cartan matrix, and a simple reflection is
``w - w[i] * alpha_i``, all in exact integer arithmetic.

Node numbering is Bourbaki's, so for G2 the first node is the *short*
simple root: weight (1, 0) is the 7-dimensional representation and (0, 1)
the 14-dimensional adjoint.  The affine node is indexed 0 everywhere.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, mul, sub

from .errors import InputError

Weight = tuple  # integer tuple in Dynkin coordinates

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True)
class LieType:
    """A simple Lie type, e.g. series 'G' at rank 2."""

    series: str
    rank: int

    def __post_init__(self):
        if self.series not in _RANK_RANGE:
            raise InputError(f"unknown series {self.series!r}")
        lo, hi = _RANK_RANGE[self.series]
        if not isinstance(self.rank, int) or self.rank < lo or (hi is not None and self.rank > hi):
            raise InputError(f"invalid rank {self.rank} for series {self.series}")

    @classmethod
    def parse(cls, name: str) -> "LieType":
        """Parse concatenated series-plus-rank syntax such as 'G2' or 'E7'."""
        name = name.strip()
        if len(name) < 2 or not name[0].isalpha():
            raise InputError(f"cannot parse group name {name!r}")
        try:
            return cls(name[0].upper(), int(name[1:]))
        except ValueError as exc:
            raise InputError(f"cannot parse group name {name!r}") from exc

    def __str__(self):
        return f"{self.series}{self.rank}"


def _cartan_matrix(series: str, n: int) -> list[list[int]]:
    """Bourbaki Cartan matrix with entry [i][j] = <alpha_i, alpha_j^vee>."""
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if series in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if series == "B" and n >= 2:
            bond(n - 2, n - 1, -2, -1)   # alpha_n short
        if series == "C" and n >= 2:
            bond(n - 2, n - 1, -1, -2)   # alpha_n long
    elif series == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif series == "E":
        # chain 1-3-4-5-..., node 2 attached to node 4
        chain = [0] + list(range(2, n))
        for u, v in zip(chain, chain[1:]):
            bond(u, v)
        bond(1, 3)
    elif series == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)               # alpha_3, alpha_4 short
        bond(2, 3)
    elif series == "G":
        bond(0, 1, -1, -3)               # alpha_1 short
    return a


_WEYL_ORDER_EXC = {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
                   ("F", 4): 1152, ("G", 2): 12}


def weyl_order_of_type(series: str, rank: int) -> int:
    import math
    if series == "A":
        return math.factorial(rank + 1)
    if series in ("B", "C"):
        return (1 << rank) * math.factorial(rank)
    if series == "D":
        return (1 << (rank - 1)) * math.factorial(rank)
    return _WEYL_ORDER_EXC[(series, rank)]


# (positive roots, short simple roots) of each series at rank r
_ROOT_COUNTS = {"A": lambda r: (r * (r + 1) // 2, 0), "B": lambda r: (r * r, 1),
                "C": lambda r: (r * r, r - 1), "D": lambda r: (r * (r - 1), 0),
                "E": lambda r: ({6: 36, 7: 63, 8: 120}[r], 0),
                "F": lambda r: (24, 2), "G": lambda r: (6, 1)}


def connected_type(rank: int, roots: int, shorts: int) -> tuple:
    """(series, rank) of the connected Dynkin diagram with rank nodes,
    roots positive roots and shorts short simple roots: these counts fix a
    simple type.  Series are tried in _RANK_RANGE order at the ranks each
    allows, so of the coincidences C2 = B2 and D3 = A3 the first is named."""
    for series, (lo, hi) in _RANK_RANGE.items():
        if lo <= rank <= (hi or rank) and _ROOT_COUNTS[series](rank) == (roots, shorts):
            return series, rank
    raise AssertionError(f"no connected type of rank {rank} has {roots} positive "
                         f"roots and {shorts} short simple roots")


def _mat_inverse(a):
    n = len(a)
    m = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(i == j) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Complete Cartan, Weyl and alcove data for one simple type.

    Immutable after construction; instances are cached per LieType and may
    be shared freely across threads.  ``marks`` and ``comarks`` include the
    affine node first, so both start with 1.
    """

    lie_type: LieType
    cartan: tuple                 # rows are the simple roots
    cartan_inv: tuple             # exact rational inverse
    simple_roots: tuple
    positive_roots: tuple         # weight coordinates
    positive_root_coords: tuple   # coefficients over the simple roots
    rho: Weight
    highest_root: Weight
    affine_root: Weight
    marks: tuple
    comarks: tuple
    dual_coxeter: int
    form: tuple                   # F[i][j] = (omega_i, omega_j), F(theta,theta)=2
    root_lengths: tuple           # (alpha_i, alpha_i)/2, equals 1 on long roots
    weyl_order: int

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    def level(self, w) -> int:
        """Pairing with the highest coroot: sum of comark_i * w_i."""
        return sum(c * x for c, x in zip(self.comarks[1:], w))

    def reflect(self, i: int, w):
        """Simple reflection at nonaffine node i (1-based)."""
        ci = w[i - 1]
        if ci == 0:
            return tuple(w)
        root = self.simple_roots[i - 1]
        return tuple(x - ci * r for x, r in zip(w, root))

    def form_pair(self, v, w) -> Fraction:
        """Exact invariant inner product of two weight vectors."""
        total = Fraction(0)
        for i, vi in enumerate(v):
            if vi:
                row = self.form[i]
                total += vi * sum(wj * row[j] for j, wj in enumerate(w) if wj)
        return total

    def is_dominant(self, w) -> bool:
        return all(x >= 0 for x in w)

    def __repr__(self):
        return f"RootSystem({self.lie_type})"


def _positive_roots(cartan):
    n = len(cartan)
    simple = [tuple(cartan[i]) for i in range(n)]
    unit = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    known = {unit[i]: simple[i] for i in range(n)}
    layer = list(unit)
    while layer:
        nxt = []
        for rc in layer:
            wt = known[rc]
            for i in range(n):
                # alpha_i-string through wt: p steps down already known
                p = 0
                down = list(rc)
                while True:
                    down[i] -= 1
                    if down[i] < 0 or tuple(down) not in known:
                        break
                    p += 1
                if p - wt[i] >= 1:
                    up = list(rc)
                    up[i] += 1
                    key = tuple(up)
                    if key not in known:
                        known[key] = tuple(a + b for a, b in zip(wt, simple[i]))
                        nxt.append(key)
        layer = nxt
    items = sorted(known.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    coords = tuple(k for k, _ in items)
    weights = tuple(v for _, v in items)
    return weights, coords


def _symmetrizer(cartan):
    """Ratios (alpha_i, alpha_i)/2 normalized so long roots give 1."""
    n = len(cartan)
    d = [None] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(cartan[j][i], cartan[i][j])
                stack.append(j)
    top = max(d)
    return tuple(x / top for x in d)


@lru_cache(maxsize=None)
def _build(series: str, rank: int) -> RootSystem:
    t = LieType(series, rank)
    n = rank
    cartan = _cartan_matrix(series, n)
    cartan_t = tuple(tuple(row) for row in cartan)
    cartan_inv = _mat_inverse(cartan)
    d = _symmetrizer(cartan)
    # form on fundamental weights: F = A^{-1} diag(d)
    form = tuple(tuple(cartan_inv[i][j] * d[j] for j in range(n)) for i in range(n))
    pos_w, pos_c = _positive_roots(cartan)

    def norm2(w):
        return sum(w[i] * form[i][j] * w[j] for i in range(n) for j in range(n))

    dominant = [(w, c) for w, c in zip(pos_w, pos_c) if all(x >= 0 for x in w)]
    theta, theta_c = max(dominant, key=lambda wc: norm2(wc[0]))
    if norm2(theta) != 2:
        raise AssertionError("highest-root normalization failed")
    marks = (1,) + tuple(theta_c)
    comarks = [Fraction(1)] + [m * d[i] for i, m in enumerate(theta_c)]
    if any(c.denominator != 1 for c in comarks):
        raise AssertionError("comarks must be integers")
    comarks = tuple(int(c) for c in comarks)
    hvee = sum(comarks)
    rs = RootSystem(
        lie_type=t,
        cartan=cartan_t,
        cartan_inv=cartan_inv,
        simple_roots=cartan_t,
        positive_roots=pos_w,
        positive_root_coords=pos_c,
        rho=(1,) * n,
        highest_root=theta,
        affine_root=tuple(-x for x in theta),
        marks=marks,
        comarks=comarks,
        dual_coxeter=hvee,
        form=form,
        root_lengths=d,
        weyl_order=weyl_order_of_type(series, rank),
    )
    return rs


def build_root_system(t) -> RootSystem:
    """Construct (or fetch the cached) root system for a Lie type.

    Accepts a LieType or a string like "G2".  Raises InputError when the
    rank is invalid for the series.
    """
    if isinstance(t, str):
        t = LieType.parse(t)
    return _build(t.series, t.rank)


def _check_weight(rs: RootSystem, w):
    if len(w) != rs.rank:
        raise InputError(f"weight length {len(w)} does not match rank {rs.rank}")
    return tuple(w)


def weyl_orbit(rs: RootSystem, w) -> list:
    """Full Weyl orbit of a weight, sorted for reproducibility."""
    w = _check_weight(rs, w)
    return sorted(reflection_orbit(rs, tuple(range(rs.rank)), None, w))


def weyl_orbit_signed(rs: RootSystem, w) -> list:
    """Orbit of a strictly dominant weight with determinant signs."""
    w = _check_weight(rs, w)
    if not all(x > 0 for x in w):
        raise InputError("signed orbit requires a strictly dominant weight")
    return sorted(reflection_orbit(rs, tuple(range(rs.rank)), None, w).items())


def _dominant(rs: RootSystem, v):
    """dominant_reduce without input checks."""
    simple = rs.simple_roots
    n = rs.rank
    while True:
        for i in range(n):
            ci = v[i]
            if ci < 0:
                v = tuple(x - ci * r for x, r in zip(v, simple[i]))
                break
        else:
            return v


def dominant_reduce(rs: RootSystem, w):
    """The dominant representative of the Weyl orbit of w."""
    return _dominant(rs, _check_weight(rs, w))


def shifted_dominant_reduce(rs: RootSystem, w):
    """Rho-shifted reduction to the dominant chamber.

    Returns None when w + rho lies on a reflection wall, otherwise the pair
    (mu, sign) with mu + rho the dominant representative of w + rho and sign
    the determinant of the Weyl element used.  Validates the weight and
    runs the finite Weyl group's chamber walk (rho_walk).
    """
    return rho_walk(rs).walk(_check_weight(rs, w))


def _node_root(rs: RootSystem, i: int):
    """The root of affine Dynkin node i; node 0 carries -theta."""
    return rs.affine_root if i == 0 else rs.simple_roots[i - 1]


@lru_cache(maxsize=None)
def subsystem_positive_roots(rs: RootSystem, subset: tuple) -> tuple:
    """Positive roots of the subsystem on a set of affine Dynkin nodes, in
    its own simple system."""
    simples = [_node_root(rs, i) for i in subset]
    all_roots = set(rs.positive_roots) | {tuple(-x for x in w) for w in rs.positive_roots}
    found = set(simples)
    frontier = list(found)
    while frontier:
        nxt = []
        for r in frontier:
            for s in simples:
                cand = tuple(a + b for a, b in zip(r, s))
                if cand in all_roots and cand not in found:
                    found.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return tuple(sorted(found))


ChamberWalk = namedtuple("ChamberWalk", "walk signed_sum")


@lru_cache(maxsize=None)
def chamber_walk(rs: RootSystem, walls: tuple, shift2: tuple, level2) -> ChamberWalk:
    """The chamber-walk kernel of one reflection group, on doubled coordinates.

    The group is generated by the simple reflections at the 0-based linear
    walls and, unless level2 is None, the reflection in the affine wall
    where the level equals level2 / 2; doubling keeps a half-integral shift
    such as rho_S integral.  ``walk(w, nu=0)`` reflects
    beta = 2 (w + nu) + shift2 greedily into the open chamber and returns
    None on a wall, else (label, sign) with 2 label + shift2 the chamber
    point and sign the determinant of the linear part used.
    ``signed_sum(terms, nu=0, scale=1, out=None, table=None)`` adds
    scale * coeff * sign at the label of each weight of a {weight: coeff}
    map into out (a new dict by default), pruning zeros, and returns out.
    Given a table, it reads the walk result of each weight w as table[w]
    instead of walking w + nu: a rootdata._WalkTable, which walks its
    missing keys, lets many sums with one shift walk each weight once.

    The reflection cap is derived: each greedy reflection removes exactly
    one hyperplane separating the point from the chamber (Humphreys,
    Reflection Groups and Coxeter Groups, 1990, section 4.5).  A finite
    group (a proper face, or no affine wall) has |Phi+_S| hyperplanes.  At
    level m = level2 / 2, root alpha separates at most |(v, alpha)| / m + 1
    of the hyperplanes (x, alpha) = j m from the alcove, v = beta / 2, and
    sum |(v, alpha)| <= sum_i |v_i| (omega_i, 2 rho), so the cap is
    |Phi+| + floor(sum_i |v_i| (omega_i, 2 rho) / m).  Exceeding a cap is a
    bug and raises AssertionError.  Cached per (root system, walls, shift,
    level), never per weight.
    """
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

    def signed_sum(terms, nu=zero, scale=1, out=None, table=None):
        if out is None:
            out = {}
        for w, c in terms.items():
            red = walk(w, nu) if table is None else table[w]
            if red is not None:
                lab, sign = red
                v = out.get(lab, 0) + sign * scale * c
                if v:
                    out[lab] = v
                else:
                    out.pop(lab, None)
        return out

    return ChamberWalk(walk, signed_sum)


def reflection_orbit(rs: RootSystem, walls: tuple, level2, point) -> dict:
    """The orbit of a point under one finite reflection group, as
    {image: sign}.

    The group is described as in chamber_walk: the simple reflections at
    the 0-based linear walls and, unless level2 is None, the reflection in
    the affine wall where the level equals level2 (a face passes its
    doubled point and twice its level).  It must be finite: no affine
    wall, or a proper face.  The point walks greedily into the closed
    chamber (coordinates >= 0 at the linear walls, level <= level2); the
    orbit grows from there breadth first, across only the walls an image
    lies strictly on the chamber side of.  A reflection that moves an image
    changes the length of its minimal element by one (Deodhar's lemma), so
    all paths from the point to an image, which gets sign 1, share a parity.
    On a regular point the orbit is a copy of the group and each sign is
    the determinant of the linear part of the element used; on a wall the
    signs mean nothing.
    """
    # as a reflection in -theta, the affine one is v - c root like the
    # linear ones, with c = level2 - level(v) > 0 on the chamber side
    gens = [(i, rs.simple_roots[i]) for i in walls]
    if level2 is not None:
        gens.append((None, rs.affine_root))
    comarks = rs.comarks[1:]
    v, sign = tuple(point), 1
    while True:
        for i, root in gens:
            c = v[i] if i is not None else level2 - sum(map(mul, comarks, v))
            if c < 0:
                v, sign = tuple([x - c * r for x, r in zip(v, root)]), -sign
                break
        else:
            break
    orbit, frontier = {v: sign}, [v]
    while frontier:
        nxt = []
        for v in frontier:
            sign = -orbit[v]
            for i, root in gens:
                c = v[i] if i is not None else level2 - sum(map(mul, comarks, v))
                if c > 0:
                    u = tuple([x - c * r for x, r in zip(v, root)])
                    if u not in orbit:
                        orbit[u] = sign
                        nxt.append(u)
        frontier = nxt
    return orbit


class _WalkTable(dict):
    """Walk results of shift + nu for one fixed weight shift, keyed on nu
    and walked on first lookup; the table argument of
    ChamberWalk.signed_sum.  Its owner drops it with the sums that share
    the shift: a longer-lived table would keep every weight ever walked."""

    __slots__ = ("walk", "shift")

    def __init__(self, walk, shift):
        super().__init__()
        self.walk = walk
        self.shift = shift

    def __missing__(self, nu):
        red = self[nu] = self.walk(nu, self.shift)
        return red


def rho_walk(rs: RootSystem, level2=None) -> ChamberWalk:
    """The kernel of w + rho under the Weyl group, or, with level2, under
    the affine Weyl group at level level2 / 2 (Kac-Walton folding)."""
    return chamber_walk(rs, tuple(range(rs.rank)), (2,) * rs.rank, level2)


def alcove_weights(rs: RootSystem, k: int) -> list:
    """Dominant weights of level at most k, in lexicographic order."""
    if k < 0:
        raise InputError("level must be nonnegative")
    out = []
    comarks = rs.comarks[1:]

    def rec(prefix, budget):
        if len(prefix) == rs.rank:
            out.append(tuple(prefix))
            return
        c = comarks[len(prefix)]
        for v in range(budget // c + 1):
            rec(prefix + [v], budget - c * v)

    rec([], k)
    return sorted(out)


@lru_cache(maxsize=None)
def _integer_form(rs: RootSystem) -> tuple:
    """(G, D): the form scaled by the least common denominator D of its
    entries, an integer matrix G with D * (v, w) = v . G w."""
    den = 1
    for row in rs.form:
        for x in row:
            den = lcm(den, x.denominator)
    return tuple(tuple(int(x * den) for x in row) for row in rs.form), den


@lru_cache(maxsize=None)
def full_weights(rs: RootSystem, highest: Weight) -> dict:
    """Every weight of the irrep with a dominant highest weight lam, with
    its multiplicity, by Freudenthal's formula on the full weight lattice.

    The dominant mu <= lam are enumerated in a box of simple-root
    coefficients of lam - mu and taken in increasing height of lam - mu.
    The multiplicity of mu is
    2 sum_{alpha > 0} sum_{j >= 1} m(mu + j alpha) (mu + j alpha, alpha)
    divided by (lam + rho)^2 - (mu + rho)^2.  Every mu + j alpha lies in
    the orbit of a dominant weight of smaller height, so once a
    multiplicity is final it is written onto the whole Weyl orbit of mu
    and each string step is one dict lookup.  A dominant mu <= lam is a
    weight and the alpha-string through a weight is unbroken (Humphreys,
    Introduction to Lie Algebras and Representation Theory, sections 21.3
    and 22.3), so each string stops at its first missing weight.

    The arithmetic is on exact integers: with G from _integer_form every
    pairing is scaled by the form's common denominator, and (nu, alpha)
    grows by (alpha, alpha) along the string.  Each quotient must come
    out as an exact positive integer; anything else raises
    AssertionError.  On weight systems see Moody and Patera, "Fast
    recursion formula for weight multiplicities", Bull. AMS 7 (1982).
    The input is checked on cache misses only.
    """
    lam = _check_weight(rs, highest)
    if not rs.is_dominant(lam):
        raise InputError("highest weight must be dominant")
    n = rs.rank
    gram, _ = _integer_form(rs)

    def norm(v):
        return sum(x * sum(map(mul, row, v)) for x, row in zip(v, gram) if x)

    # a dominant mu has nonnegative simple-root coefficients, so those of
    # lam bound those of lam - mu
    bounds = [int(sum(x * row[j] for x, row in zip(lam, rs.cartan_inv))) for j in range(n)]
    candidates = []
    cart = rs.cartan
    # box walk keeping mu = lam - sum c_j alpha_j exact at every node
    stack = [(0, 0, lam)]
    while stack:
        j, height, mu = stack.pop()
        if j == n:
            if all(x >= 0 for x in mu):
                candidates.append((height, mu))
            continue
        for c in range(bounds[j] + 1):
            stack.append((j + 1, height + c, mu))
            mu = tuple(map(sub, mu, cart[j]))
    candidates.sort()
    strings = []
    for alpha in rs.positive_roots:
        g_alpha = tuple(sum(map(mul, row, alpha)) for row in gram)
        # (alpha, G alpha) is D * (alpha, alpha): the step of (nu, alpha) along alpha
        strings.append((alpha, g_alpha, sum(map(mul, alpha, g_alpha))))
    norm_top = norm(tuple(x + 1 for x in lam))
    walls = tuple(range(n))
    out = {}
    get = out.get
    for height, mu in candidates:
        if height == 0:
            val = 1
        else:
            total = 0
            for alpha, g_alpha, step in strings:
                nu = tuple(map(add, mu, alpha))
                m = get(nu)
                if m:
                    pair = sum(map(mul, mu, g_alpha))
                    while m:
                        pair += step
                        total += m * pair
                        nu = tuple(map(add, nu, alpha))
                        m = get(nu)
            val, rem = divmod(2 * total, norm_top - norm(tuple(x + 1 for x in mu)))
            if rem or val <= 0:
                raise AssertionError("Freudenthal recursion produced a bad value")
        out.update(dict.fromkeys(reflection_orbit(rs, walls, None, mu), val))
    return out


def weight_multiplicity(rs: RootSystem, highest, mu) -> int:
    """Multiplicity of the weight mu in the irrep with the given highest
    weight: a lookup in its full weight system."""
    return full_weights(rs, tuple(highest)).get(_check_weight(rs, mu), 0)


def weyl_dimension(rs: RootSystem, highest) -> int:
    """Dimension via the product formula over positive roots."""
    highest = _check_weight(rs, highest)
    if not rs.is_dominant(highest):
        raise InputError("highest weight must be dominant")
    lam_rho = tuple(x + 1 for x in highest)
    dim = Fraction(1)
    for alpha in rs.positive_roots:
        dim *= rs.form_pair(lam_rho, alpha) / rs.form_pair(rs.rho, alpha)
    if dim.denominator != 1:
        raise AssertionError("dimension formula produced a non-integer")
    return int(dim)
