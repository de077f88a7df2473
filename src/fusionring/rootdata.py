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

import linecache
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import add, index, mul, sub

from .errors import InputError, _integer

Weight = tuple  # integer tuple in Dynkin coordinates

# series: (lowest rank, highest rank or None, and at rank r the positive-root
# count, the short-simple-root count and the Weyl group order)
_SERIES = {
    "A": (1, None, lambda r: (r * (r + 1) // 2, 0, factorial(r + 1))),
    "B": (2, None, lambda r: (r * r, 1, 2 ** r * factorial(r))),
    "C": (2, None, lambda r: (r * r, r - 1, 2 ** r * factorial(r))),
    "D": (3, None, lambda r: (r * (r - 1), 0, 2 ** (r - 1) * factorial(r))),
    "E": (6, 8, lambda r: {6: (36, 0, 51840), 7: (63, 0, 2903040),
                           8: (120, 0, 696729600)}[r]),
    "F": (4, 4, lambda r: (24, 2, 1152)),
    "G": (2, 2, lambda r: (6, 1, 12)),
}


@dataclass(frozen=True)
class LieType:
    """A simple Lie type, e.g. series 'G' at rank 2."""

    series: str
    rank: int

    def __post_init__(self):
        if self.series not in _SERIES:
            raise InputError(f"unknown series {self.series!r}")
        lo, hi, _ = _SERIES[self.series]
        if not isinstance(self.rank, int) or self.rank < lo or (hi is not None and self.rank > hi):
            raise InputError(f"invalid rank {self.rank} for series {self.series}")

    @classmethod
    def parse(cls, name: str) -> "LieType":
        """Parse concatenated series-plus-rank syntax such as 'G2' or 'E7'."""
        name = name.strip()
        if len(name) < 2 or not name[0].isalpha():
            raise InputError(f"cannot parse group name {name!r}")
        try:
            rank = int(name[1:])
        except ValueError as exc:
            raise InputError(f"cannot parse group name {name!r}") from exc
        return cls(name[0].upper(), rank)

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


def weyl_order_of_type(series: str, rank: int) -> int:
    return _SERIES[series][2](rank)[2]


def connected_type(rank: int, roots: int, shorts: int) -> tuple:
    """(series, rank) of the connected Dynkin diagram with rank nodes,
    roots positive roots and shorts short simple roots: these counts fix a
    simple type.  Series are tried in _SERIES order at the ranks each
    allows, so of the coincidences C2 = B2 and D3 = A3 the first is named."""
    for series, (lo, hi, counts) in _SERIES.items():
        if lo <= rank <= (hi or rank) and counts(rank)[:2] == (roots, shorts):
            return series, rank
    raise AssertionError(f"no connected type of rank {rank} has {roots} positive "
                         f"roots and {shorts} short simple roots")


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Complete Cartan, Weyl and alcove data for one simple type.

    Immutable after construction; instances are cached per LieType and may
    be shared freely across threads.  ``marks`` and ``comarks`` include the
    affine node first, so both start with 1.
    """

    lie_type: LieType
    simple_roots: tuple           # the rows of the Cartan matrix
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

    def is_dominant(self, w) -> bool:
        return all(x >= 0 for x in w)

    def __repr__(self):
        return f"RootSystem({self.lie_type})"


def _positive_system(simples, pair):
    """The positive roots over the given simple roots as (root, coefficients)
    pairs, by height, then coefficients; pair(beta) gives beta's pairings
    with the simple coroots.  The simple roots are closed under
    s_i beta = beta - <beta, alpha_i^vee> alpha_i where that pairing is
    negative: a positive non-simple root pairs positively with some alpha_i
    and s_i takes it to a positive root of smaller height, so every positive
    root is reached (Humphreys, Introduction to Lie Algebras, section 10.2)."""
    n = len(simples)
    found = {tuple(a): tuple(int(i == j) for j in range(n)) for i, a in enumerate(simples)}
    frontier = list(found)
    while frontier:
        nxt = []
        for beta in frontier:
            for i, c in enumerate(pair(beta)):
                if c < 0:
                    root = tuple([x - c * a for x, a in zip(beta, simples[i])])
                    if root not in found:
                        coeffs = list(found[beta])
                        coeffs[i] -= c
                        found[root] = tuple(coeffs)
                        nxt.append(root)
        frontier = nxt
    return sorted(found.items(), key=lambda rc: (sum(rc[1]), rc[1]))


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
    d = _symmetrizer(cartan)
    # in Dynkin coordinates a weight is its own list of simple-coroot pairings
    pos_w, pos_c = zip(*_positive_system(cartan, lambda beta: beta))
    theta, theta_c = pos_w[-1], pos_c[-1]   # the one root of greatest height
    marks = (1,) + tuple(theta_c)
    comarks = [Fraction(1)] + [m * d[i] for i, m in enumerate(theta_c)]
    if any(c.denominator != 1 for c in comarks):
        raise AssertionError("comarks must be integers")
    comarks = tuple(int(c) for c in comarks)
    hvee = sum(comarks)
    # form on fundamental weights: sum_{alpha > 0} (lam, alpha)(mu, alpha)
    # = hvee (lam, mu) and (omega_i, alpha) = c_i(alpha) d_i, summed in
    # integers with d scaled by den, the lcm of its denominators; the norm
    # of theta cross-checks the identity
    den = lcm(*(x.denominator for x in d))
    cols = [[c * int(x * den) for c in col] for col, x in zip(zip(*pos_c), d)]
    form = tuple(tuple(Fraction(sum(map(mul, ci, cj)), hvee * den * den) for cj in cols)
                 for ci in cols)
    if sum(theta[i] * form[i][j] * theta[j] for i in range(n) for j in range(n)) != 2:
        raise AssertionError("highest-root normalization failed")
    return RootSystem(
        lie_type=t,
        simple_roots=tuple(tuple(row) for row in cartan),
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


def build_root_system(t) -> RootSystem:
    """Construct (or fetch the cached) root system for a Lie type.

    Accepts a LieType or a string like "G2".  Raises InputError when the
    rank is invalid for the series.
    """
    if isinstance(t, str):
        t = LieType.parse(t)
    return _build(t.series, t.rank)


def _check_weight(rs: RootSystem, w):
    """The weight as a tuple of ints: an InputError unless it has one
    integral coordinate per simple root."""
    if len(w) != rs.rank:
        raise InputError(f"weight length {len(w)} does not match rank {rs.rank}")
    try:
        return tuple(map(index, w))
    except TypeError:
        raise InputError(f"weight {tuple(w)} has a non-integral coordinate") from None


def _check_level(k):
    """The level as an int: an InputError unless it is a nonnegative integer."""
    k = _integer(k, "level")
    if k < 0:
        raise InputError("level must be nonnegative")
    return k


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


def _node_root(rs: RootSystem, i: int):
    """The root of affine Dynkin node i; node 0 carries -theta."""
    return rs.affine_root if i == 0 else rs.simple_roots[i - 1]


def _node_pairings(rs: RootSystem, beta, nodes) -> tuple:
    """The pairings of beta with the coroots of affine Dynkin nodes; the
    coroot of node 0 is -theta^vee, so beta pairs with it to -level(beta)."""
    return tuple(-rs.level(beta) if j == 0 else beta[j - 1] for j in nodes)


@lru_cache(maxsize=None)
def subsystem_positive_roots(rs: RootSystem, subset: tuple) -> tuple:
    """Positive roots of the subsystem on a set of affine Dynkin nodes, in
    its own simple system, sorted."""
    simples = [_node_root(rs, i) for i in subset]
    system = _positive_system(simples, lambda beta: _node_pairings(rs, beta, subset))
    return tuple(sorted(root for root, _ in system))


ChamberWalk = namedtuple("ChamberWalk", "walk signed_sum")


def _times(k, x: str) -> str:
    return x if k == 1 else f"{k} * {x}"


def _walk_source(rs, walls, shift2, level2, base, weights, den) -> str:
    """Source of the walk of chamber_walk, unrolled over its constants:
    b0 .. b{n-1} hold beta, and pass n of the loop has made n reflections."""
    b = [f"b{j}" for j in range(rs.rank)]
    beta = [f"2 * (w{j} + u{j})" + (f" + {s}" if s else "") for j, s in enumerate(shift2)]

    def shear(c, vec):   # b += c vec on the nonzero entries of vec
        return [f"    {x} += {_times(v, c)}" for x, v in zip(b, vec) if v]

    body, nulls = [], [f"not b{i}" for i in walls]
    for i in walls:      # b -= b_i alpha_i; off the diagonal, Cartan entries are <= 0
        root = [0 if j == i else -x for j, x in enumerate(rs.simple_roots[i])]
        body += [f"{'el' if body else ''}if b{i} < 0:", *shear(b[i], root), f"    b{i} = -b{i}"]
    inside = []          # no linear wall is crossed: the affine wall, then the label
    if level2 is not None:
        inside += [f"lev = {' + '.join(map(_times, rs.comarks[1:], b))}", f"if lev > {level2}:",
                   f"    c = {level2} - lev", *shear("c", rs.highest_root), "    continue"]
        nulls.insert(0, f"lev == {level2}")
    if nulls:
        inside += [f"if {' or '.join(nulls)}:", "    return None"]
    # b - s is odd where b is odd and s even, or b (so ~b) even and s odd
    odd = " | ".join(f"~b{j}" if s & 1 else f"b{j}" for j, s in enumerate(shift2))
    label = ", ".join(f"(b{j} - {s}) >> 1" if s else f"b{j} >> 1" for j, s in enumerate(shift2))
    inside += [f"if ({odd}) & 1:", '    raise AssertionError("label is not an integral weight")',
               f"return ({label},), -1 if n & 1 else 1"]
    body = [*body, "else:", *("    " + x for x in inside)] if body else inside
    lines = ["def walk(w, nu=zero):", f"    {''.join(f'w{j}, ' for j in range(rs.rank))}= w",
             f"    {''.join(f'u{j}, ' for j in range(rs.rank))}= nu",
             *(f"    b{j} = {x}" for j, x in enumerate(beta)),
             f"    for n in range({base + 1}):", *("        " + x for x in body)]
    if weights is None:
        lines.append(f"    cap = {base}")
    else:      # the derived cap, read off the original beta once past base
        terms = " + ".join(f"{c} * abs({x})" for c, x in zip(weights, beta))
        lines += [f"    cap = {base} + ({terms}) // {den}",
                  f"    for n in range({base + 1}, cap + 1):", *("        " + x for x in body)]
    lines.append(f'    raise AssertionError(f"chamber walk of {{tuple(map(add, w, nu))}} '
                 f'exceeded its derived cap of {{cap}} reflections '
                 f'(walls {walls}, doubled level {level2})")')
    return "\n".join(lines) + "\n"


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

    walk is generated Python (_walk_source), compiled once per kernel under
    a filename naming its group, walls, shift and doubled level, so
    profiles and tracebacks tell kernels apart.  It holds beta in one local
    per coordinate, tries the walls in order, writes each reflection out
    over the nonzero entries of its root and inlines the level, the label
    and the parity check.  The cap is still checked: the cap of an affine
    walk is read off w + nu only after |Phi+| reflections.  The tests
    check every kernel against an interpreted walk (conftest.reference_walk).
    """
    affine = level2 is not None
    if affine and len(walls) == rs.rank:
        two_rho = [2 * sum(row) for row in rs.form]   # (omega_i, 2 rho)
        common = lcm(*(x.denominator for x in two_rho))
        weights = tuple(int(x * common) for x in two_rho)
        den = common * level2
        base = len(rs.positive_roots)
    else:
        weights = den = None
        nodes = ((0,) if affine else ()) + tuple(i + 1 for i in walls)
        base = len(subsystem_positive_roots(rs, nodes))
    zero = (0,) * rs.rank
    name = f"<chamber_walk {rs.lie_type} walls={walls} shift2={shift2} level2={level2}>"
    source = _walk_source(rs, walls, shift2, level2, base, weights, den)
    linecache.cache[name] = (len(source), None, source.splitlines(True), name)
    namespace = {"zero": zero, "add": add}
    exec(compile(source, name, "exec"), namespace)
    walk = namespace["walk"]

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
    k = _check_level(k)
    return sorted(_lattice_points(rs.comarks[1:], [0] * rs.rank, k, range(k + 1)))


def _lattice_points(comarks, low, bound, levels) -> list:
    """Integer points x with low[i] <= x[i] <= bound whose level
    comarks . x lies in levels, by level, then lexicographically.

    Each level is filled coordinate by coordinate, in ranges cut by the
    bounds and the levels later coordinates can reach; the level fixes the
    last coordinate.
    """
    n = len(comarks)
    least = [sum(map(mul, comarks[j:], low[j:])) for j in range(n)]
    most = [bound * sum(comarks[j:]) for j in range(n)]
    out = []

    def fill(prefix, rest):
        j = len(prefix)
        if j == n - 1:
            x, r = divmod(rest, comarks[j])
            if not r and low[j] <= x <= bound:
                out.append((*prefix, x))
            return
        c = comarks[j]
        for x in range(max(low[j], (rest - most[j + 1] + c - 1) // c),
                       min(bound, (rest - least[j + 1]) // c) + 1):
            fill((*prefix, x), rest - c * x)

    for lev in levels:
        fill((), lev)
    return out


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

    The dominant mu <= lam are those reached from lam by subtracting
    positive roots while the result stays dominant (Stembridge, "The
    partial order of dominant weights", Adv. Math. 136, 1998); they are
    taken in increasing height of lam - mu.
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

    # the dominant mu <= lam, each with the height of lam - mu
    steps = [(alpha, sum(c)) for alpha, c in zip(rs.positive_roots, rs.positive_root_coords)]
    heights, stack = {lam: 0}, [lam]
    while stack:
        mu = stack.pop()
        for alpha, height in steps:
            nu = tuple(map(sub, mu, alpha))
            if min(nu) >= 0 and nu not in heights:
                heights[nu] = heights[mu] + height
                stack.append(nu)
    candidates = sorted((height, mu) for mu, height in heights.items())
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
