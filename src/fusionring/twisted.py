"""Affine-Weyl invariant modules attached to faces of the level-k alcove.

A face is a proper subset S of the affine Dynkin nodes {0, 1, ..., n}.  Its
reflection group at level k is generated by the simple reflections for the
nonaffine nodes of S and, when 0 lies in S, the reflection in the wall
where the pairing with the highest coroot equals k.  The module is spanned
by labels mu whose shift mu + rho_S lands strictly inside the fundamental
chamber, rho_S being the half sum of the positive roots of the face
subsystem.  rho_S can be half-integral (single short-root faces), so all
chamber walks run on doubled integer coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd, prod
from operator import add, mul, sub

from .errors import InputError, InternalLimitError, _integer
from .intlinalg import ZEchelon
from .rootdata import (RootSystem, _check_level, _check_weight, _integer_form,
                       _lattice_points, _node_pairings, _node_root, alcove_weights,
                       chamber_walk, connected_type, subsystem_positive_roots, weyl_orbit,
                       weyl_order_of_type)
from .sparse import Report


def face_subset(rs: RootSystem, nodes) -> tuple:
    """Validate and canonicalize a subset of the affine Dynkin nodes."""
    nodes = tuple(sorted({_integer(x, "node") for x in nodes}))
    for x in nodes:
        if not 0 <= x <= rs.rank:
            raise InputError(f"node {x} outside 0..{rs.rank}")
    if len(nodes) == rs.rank + 1:
        raise InputError("the full affine diagram is not a face")
    return nodes


@lru_cache(maxsize=None)
def rho2(rs: RootSystem, subset: tuple) -> tuple:
    """Twice the half sum of the face subsystem's positive roots (integral)."""
    return tuple(map(sum, zip(*subsystem_positive_roots(rs, subset)))) or (0,) * rs.rank


def twist_order(rs: RootSystem, subset) -> int:
    """gcd of the comarks over the complement of the face subset."""
    subset = face_subset(rs, subset)
    return gcd(*(rs.comarks[i] for i in range(rs.rank + 1) if i not in subset))


def classify_centralizer(rs: RootSystem, subset) -> tuple:
    """Irreducible component types of the face subsystem, largest first.

    Nodes with a nonzero pairing share a component; each component is
    typed by its node, positive-root and short-node counts
    (rootdata.connected_type).  Node 0 carries a long root."""
    subset = face_subset(rs, subset)
    comps = []
    for i in subset:
        linked = [c for c in comps if any(_node_pairings(rs, _node_root(rs, i), c))]
        comps = [c for c in comps if c not in linked] + [tuple(sorted(sum(linked, (i,))))]
    length = {0: 1, **dict(enumerate(rs.root_lengths, 1))}
    types = []
    for comp in comps:
        longest = max(length[i] for i in comp)
        shorts = sum(length[i] < longest for i in comp)
        types.append(connected_type(len(comp), len(subsystem_positive_roots(rs, comp)), shorts))
    return tuple(sorted(types, key=lambda t: (-t[1], t[0])))


@dataclass(frozen=True)
class CentralizerInfo(Report):
    subset: tuple
    centralizer_type: str
    weyl_order: int
    module_rank: int
    twist_order: int


def centralizer_info(rs: RootSystem, subset) -> CentralizerInfo:
    subset = face_subset(rs, subset)
    types = classify_centralizer(rs, subset)
    worder = prod(weyl_order_of_type(s, r) for s, r in types)
    if rs.weyl_order % worder:
        raise AssertionError("centralizer Weyl order must divide the full order")
    return CentralizerInfo(subset=subset,
                           centralizer_type="+".join(f"{s}{r}" for s, r in types) or "T",
                           weyl_order=worder,
                           module_rank=rs.weyl_order // worder,
                           twist_order=twist_order(rs, subset))


def census(rs: RootSystem) -> list:
    """Every proper face whose representation module is genuinely twisted.

    One entry per subset; the twist order is the gcd of the complementary
    comarks, and entries exist exactly when that gcd exceeds 1.
    """
    n = rs.rank
    faces = (tuple(i for i in range(n + 1) if mask >> i & 1) for mask in range(2 ** (n + 1) - 1))
    out = [centralizer_info(rs, s) for s in faces if twist_order(rs, s) > 1]
    out.sort(key=lambda e: (-e.twist_order, len(e.subset), e.subset))
    return out


# ---------------------------------------------------------------------------
# chamber reduction on doubled coordinates

def _beta2(rs, subset, w):
    r2 = rho2(rs, subset)
    return tuple(2 * x + y for x, y in zip(w, r2))


def _face_walk(rs: RootSystem, subset: tuple, k: int):
    """The chamber-walk kernel (rootdata.chamber_walk) of a validated face
    at level k: the face's linear walls, the shift 2 rho_S, and the affine
    wall at level k when the face holds node 0.  A level that is not a
    nonnegative integer is an InputError."""
    k = _check_level(k)
    return chamber_walk(rs, tuple(i - 1 for i in subset if i), rho2(rs, subset),
                        2 * k if 0 in subset else None)


def is_valid_label(rs: RootSystem, subset, k: int, mu) -> bool:
    """Whether mu + rho_S lies strictly inside the chamber of the face
    group at level k: whether the face's walk fixes mu."""
    walk = _face_walk(rs, face_subset(rs, subset), k).walk
    mu = _check_weight(rs, mu)
    return walk(mu) == (mu, 1)


def _bounds(rs, k, level_bound=None, lambda_bound=None):
    """Check the level and the truncation bounds and fill in their defaults.

    The level must be a nonnegative integer, an explicit level_bound an
    integer at least the level and an explicit lambda_bound a nonnegative
    integer.  By default level_bound = k + 2 h^vee and lambda_bound =
    level_bound + h^vee + k, k the base level when a search calls.  Returns
    (k, level_bound, lambda_bound) as ints."""
    k = _check_level(k)
    level_bound = (k + 2 * rs.dual_coxeter if level_bound is None
                   else _integer(level_bound, "level_bound"))
    if level_bound < k:
        raise InputError("level_bound must be at least the level")
    lambda_bound = (level_bound + rs.dual_coxeter + k if lambda_bound is None
                    else _integer(lambda_bound, "lambda_bound"))
    if lambda_bound < 0:
        raise InputError("lambda_bound must be nonnegative")
    return k, level_bound, lambda_bound


def enumerate_labels(rs: RootSystem, subset, k: int, bound: int) -> list:
    """Truncated label window for one face module, by level, then label.

    Coordinates are capped at the bound.  Faces containing the affine node
    have labels bounded above in level, so the window keeps the slab of
    depth bound below the top; for the other faces the window is the
    symmetric level band.  The walls give each coordinate its lower end.
    """
    subset = face_subset(rs, subset)
    k = _check_level(k)
    n, r2, comarks = rs.rank, rho2(rs, subset), rs.comarks[1:]
    lo, hi = -bound, bound
    if 0 in subset:   # strictly below the affine wall: 2 level(mu) + level(r2) < 2k
        lo, hi = k - bound, min(k, (2 * k - rs.level(r2) - 1) // 2)
    # strictly inside the linear walls: 2 mu_i + r2_i > 0
    low = [max(-bound, -r2[i] // 2 + 1) if i + 1 in subset else -bound for i in range(n)]
    return _lattice_points(comarks, low, bound, range(lo, hi + 1))


# A label's code is its level above one _WIDTH-bit field per coordinate,
# each holding the coordinate plus _HALF: int order is (level, label) order.
# A row label of a search stays below h^vee (k + |c| + lambda_bound +
# |2 rho_S|) (tests: test_label_code_reach_bounds_every_row_label), far
# inside 2^31 for any window or orbit list that can be built.
_WIDTH = 32
_HALF = 1 << (_WIDTH - 1)


class _LabelKeys(dict):
    """The code of each label, made on first lookup; a coordinate that
    would wrap into the next field raises InputError naming the label."""

    def __init__(self, rs):
        super().__init__()
        self.comarks = rs.comarks[1:]

    def __missing__(self, mu):
        code = sum(map(mul, self.comarks, mu))
        for x in mu:
            if not -_HALF < x < _HALF:
                raise InputError(f"label {mu} overflows its {_WIDTH}-bit code fields")
            code = (code << _WIDTH) + x + _HALF
        self[mu] = code
        return code


def _label_key(rs):
    # a bound dict lookup: no Python frame once a label has been seen
    return _LabelKeys(rs).__getitem__


def _orbit_sums(rs, bound):
    """(lam, m(lam)) for each dominant lam of level at most bound, the
    Weyl orbit sum m(lam) as {weight: 1}.

    The orbit sums and the irreducible characters of these weights are two
    Z-bases of one part of R(G): irrep(lam) is m(lam) plus a combination of
    m(mu), mu < lam dominant, and such a mu has level at most level(lam)
    (Humphreys, Introduction to Lie Algebras, section 22.5).  So the rows
    m(lam) * c span the lattice of the rows irrep(lam) * c, and each expands
    at most |W| weights and no weight system."""
    return [(lam, dict.fromkeys(weyl_orbit(rs, lam), 1)) for lam in alcove_weights(rs, bound)]


def _candidate_rows(rs, subset, k, c, orbits, key):
    """The nonzero product rows m(lam) * c, over the (lam, m(lam)) of
    orbits (_orbit_sums), on the codes of key (a _label_key), as
    (lam, row), ascending by leading code: inserted in that order, most
    rows reach a free pivot in a few row operations.  The orbits of
    distinct dominant weights are disjoint, so each c + nu is walked once."""
    signed_sum = _face_walk(rs, subset, k).signed_sum
    rows = []
    for lam, orbit in orbits:
        vec = {key(mu): x for mu, x in signed_sum(orbit, c).items()}
        if vec:
            rows.append((max(vec), lam, vec))
    rows.sort(key=lambda r: r[0])
    return [(lam, vec) for _, lam, vec in rows]


def _product_echelon(rs, subset, k, candidates, lambda_bound, key):
    ech = ZEchelon()
    orbits = _orbit_sums(rs, lambda_bound)
    for c in candidates:
        for _, vec in _candidate_rows(rs, subset, k, c, orbits, key):
            ech.insert(vec)
    return ech


def _certify_spanning(ech, window, key):
    """Check that every window label, coded by key, lies in the lattice of
    ech, the character multiples of the candidates; ech stays as it is.

    Labels are tested from the top of the ordering downward.  Membership
    does not depend on the order the rows went in.  Returns the first
    unreached label, or None.
    """
    for mu in sorted(window, key=key, reverse=True):
        if not ech.contains({key(mu): 1}):
            return mu
    return None


@dataclass
class BasisReport(Report):
    group: str
    subset: tuple
    level: int
    candidates: tuple
    module_rank: int
    level_bound: int
    lambda_bound: int
    passed: bool
    failure: str = ""
    labels_checked: int = 0


def verify_module_basis(rs: RootSystem, subset, k: int, candidates,
                        level_bound: int | None = None,
                        lambda_bound: int | None = None) -> BasisReport:
    """Certify, up to the stated bounds, that candidate labels span the module.

    Every window label must be an integer combination of character multiples
    of the candidates; together with the rank count this certifies a basis
    at desk scale.  A pass only covers labels inside the window, which the
    report records.  The product rows are built from scratch here, so this
    stays independent of the echelon find_module_basis certifies with.
    """
    subset = face_subset(rs, subset)
    candidates = tuple(tuple(c) for c in candidates)
    k, level_bound, lambda_bound = _bounds(rs, k, level_bound, lambda_bound)
    info = centralizer_info(rs, subset)
    report = BasisReport(group=str(rs.lie_type), subset=subset, level=k,
                         candidates=candidates, module_rank=info.module_rank,
                         level_bound=level_bound, lambda_bound=lambda_bound,
                         passed=False)
    if len(candidates) != info.module_rank:
        report.failure = (f"candidate count {len(candidates)} differs from "
                          f"module rank {info.module_rank}")
        return report
    for c in candidates:
        if not is_valid_label(rs, subset, k, c):
            report.failure = f"{c} is not a chamber label"
            return report
    window = enumerate_labels(rs, subset, k, level_bound)
    report.labels_checked = len(window)
    key = _label_key(rs)
    missed = _certify_spanning(
        _product_echelon(rs, subset, k, candidates, lambda_bound, key), window, key)
    if missed is not None:
        report.failure = f"label {missed} is not reached by the candidates"
        return report
    report.passed = True
    return report


@lru_cache(maxsize=None)
def translation_weight(rs: RootSystem, subset: tuple) -> tuple:
    """Integral weight normal to a face through the affine node: zero on
    the linear walls of S, level equal to the twist order.  Translation by
    it identifies the modules at levels k and k + twist_order.

    The search grows a box over the free coordinates and keeps the
    smallest weight (L1 norm, then lexicographic) of the first radius that
    holds one.  The twist order is the gcd of the free comarks, and the
    box of radius max comark holds a solution on every face measured (all
    of A1-A4, B2-B4, C2-C4, D4, D5, G2, F4 and E6-E8); a search past it is
    a bug and raises AssertionError.
    """
    subset = face_subset(rs, subset)
    if 0 not in subset:
        raise InputError(f"face {subset} does not hold the affine node 0: "
                         "its module does not depend on the level")
    d = twist_order(rs, subset)
    free = [j for j in range(rs.rank) if j + 1 not in subset]
    comarks = [rs.comarks[j + 1] for j in free]
    cap = max(comarks)
    for radius in range(1, cap + 1):
        found = [v for v in product(range(-radius, radius + 1), repeat=len(free))
                 if sum(map(mul, comarks, v)) == d]
        if found:
            best = min(found, key=lambda v: (sum(map(abs, v)), v))
            vec = [0] * rs.rank
            for j, x in zip(free, best):
                vec[j] = x
            return tuple(vec)
    raise AssertionError(
        f"no translation weight within radius {cap} for face {subset}")


def find_module_basis(rs: RootSystem, subset, k: int, seeds=(),
                      level_bound: int | None = None,
                      lambda_bound: int | None = None) -> list:
    """Deterministic basis search for one invariant module.

    For faces containing the affine node the level is first reduced modulo
    the twist order via the translation isomorphism.  Candidates are
    scanned by distance from the seed labels (chamber corner when no seeds)
    and added greedily while independent; the window is then certified on
    the echelon of the chosen candidates' product rows, the same lattice
    verify_module_basis rebuilds from scratch.
    """
    subset = face_subset(rs, subset)
    seeds = [tuple(s) for s in seeds]
    for s in seeds:
        if not is_valid_label(rs, subset, k, s):
            raise InputError(f"seed {s} is not a chamber label for face {subset}")
    return _search_basis(rs, subset, k, seeds, level_bound, lambda_bound, tagged=False)[0]


def _window_order(rs, subset, window, seeds):
    """The window sorted by the distance of beta2(mu) from the mean of the
    seeds' beta2 (from 0 with no seeds), then by level and label.  With
    n = max(len(seeds), 1) the key pairs n beta2(mu) - sum beta2(seeds)
    with itself through _integer_form: n^2 D times the squared distance,
    an integer with the same order and ties."""
    gram, _ = _integer_form(rs)
    n = max(len(seeds), 1)
    total = [sum(c) for c in zip(*(_beta2(rs, subset, s) for s in seeds))] or [0] * rs.rank

    def key(mu):
        diff = [n * b - t for b, t in zip(_beta2(rs, subset, mu), total)]
        dist = sum(x * sum(map(mul, row, diff)) for x, row in zip(diff, gram) if x)
        return dist, rs.level(mu), mu

    return sorted(window, key=key)


def _search_basis(rs, subset, k, seeds, level_bound, lambda_bound, *, tagged):
    """The search of find_module_basis on a validated face: (basis, solve).

    A face through the affine node is searched at its base level
    k0 = k mod twist order, which translation by shift identifies with
    level k; shift is zero on the other faces.  The echelon holds the rows
    m(lam) * (basis - shift) at level k0 on label codes (_label_key): the
    translation fixes the linear walls, moves the affine wall by k - k0
    and keeps the column order, so these are the level-k rows translated.
    Tagged, the row of m(lam) times basis[i] carries {(i, lam): 1}, and
    solve(mu) writes d1(mu), the signed walk of mu at level k (of mu - shift
    at k0), as the triples (i, m(lam), c) of sum c m(lam) * basis[i], by
    running the echelon's row-operation log backwards to the tags.  Only a
    tagged echelon keeps that log, so only a caller that reads solutions
    asks for tags; untagged, the echelon logs nothing and solve is None."""
    k = _check_level(k)
    d = twist_order(rs, subset) if 0 in subset else 0
    k0 = k % d if d else k
    _, level_bound, lambda_bound = _bounds(rs, k0, level_bound, lambda_bound)
    shift = (0,) * rs.rank
    where = f"face {subset} at level {k0}"
    if k != k0:
        shift = tuple((k - k0) // d * t for t in translation_weight(rs, subset))
        seeds = [tuple(map(sub, s, shift)) for s in seeds]
        where += f" (translated from requested level {k})"
    bounds = f"level_bound={level_bound}, lambda_bound={lambda_bound}"
    rank = centralizer_info(rs, subset).module_rank
    window = enumerate_labels(rs, subset, k0, level_bound)
    ordered = _window_order(rs, subset, window, seeds)
    chosen = []
    key = _label_key(rs)
    ech = ZEchelon()
    orbits = dict(_orbit_sums(rs, lambda_bound))

    def take(c):
        idx = len(chosen)
        chosen.append(c)
        for lam, vec in _candidate_rows(rs, subset, k0, c, orbits.items(), key):
            ech.insert(vec, {(idx, lam): 1} if tagged else None)

    for s in seeds:
        if ech.contains({key(s): 1}):
            raise InputError(f"seed label {s} is dependent on earlier seeds for {where}")
        take(s)
    for cand in ordered:
        if len(chosen) == rank:
            break
        if cand in chosen or ech.contains({key(cand): 1}):
            continue
        take(cand)
    if len(chosen) != rank:
        raise InternalLimitError(
            f"found only {len(chosen)} of {rank} generators for {where}: "
            f"the label window is too small, raise level_bound ({bounds})")
    missed = _certify_spanning(ech, window, key)
    if missed is not None:
        raise InternalLimitError(
            f"candidate set {chosen} fails to span label {missed} on {where}: "
            f"too few character multiples, raise lambda_bound ({bounds})")
    basis = [tuple(map(add, c, shift)) for c in chosen]
    walk = _face_walk(rs, subset, k0).walk

    def solve(mu):
        red = walk(tuple(map(sub, mu, shift)))
        target = {} if red is None else {key(red[0]): red[1]}
        residual, combo = ech.reduce(target, want_combination=True)
        if residual:
            raise InternalLimitError(
                f"cannot express d1({mu}) over the vertex basis of {subset} "
                f"at level {k}: raise lambda_bound ({bounds})")
        return [(i, orbits[lam], c) for (i, lam), c in combo.items()]

    return basis, solve if tagged else None
