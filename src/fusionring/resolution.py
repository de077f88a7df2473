"""The invariant-module complex resolving the fusion ring.

Degree p collects the faces with n - p nodes; the differential component
from a face S into S plus one node j carries the sign (-1)^s, where s is
the position of j in the ordered complement of S (affine node first).  The
degree-zero cohomology is the level-k fusion ring, which the oracle checks
label by label.  Presentations of the fusion ideal are extracted edge by
edge from lifts of vertex-module bases and verified by exact membership
plus quotient codimensions over Q and prime fields.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import InputError
from .fusion import _fold_kernel, in_fusion_ideal
from .groebner import check_primes, prime_codimensions, quotient_codimension
from .repring import VirtualCharacter, to_polynomial
from .rootdata import RootSystem, _WalkTable, _check_level, alcove_weights, rho_walk
from .sparse import Report, addmul
from .twisted import (_bounds, _face_walk, _search_basis, centralizer_info, enumerate_labels,
                      face_subset, find_module_basis, is_valid_label)

DEFAULT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@dataclass
class ComplexSpec(Report):
    group: str
    level: int
    degrees: tuple          # degrees[p] = faces with n - p nodes
    ranks: tuple            # free rank contributed by each degree

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * r for p, r in enumerate(self.ranks))

    def to_json_dict(self):
        return {**super().to_json_dict(), "euler_characteristic": self.euler_characteristic()}


def build_complex(rs: RootSystem, k: int) -> ComplexSpec:
    """Enumerate the faces by degree with their free module ranks."""
    k = _check_level(k)
    n = rs.rank
    degrees = []
    ranks = []
    for p in range(n + 1):
        faces = tuple(sorted(tuple(sorted(c)) for c in combinations(range(n + 1), n - p)))
        degrees.append(faces)
        ranks.append(sum(centralizer_info(rs, f).module_rank for f in faces))
    spec = ComplexSpec(group=str(rs.lie_type), level=k, degrees=tuple(degrees),
                       ranks=tuple(ranks))
    if spec.euler_characteristic() != 0:
        raise AssertionError("free resolution must have zero Euler characteristic")
    return spec


def _cofaces(rs, subset, k) -> tuple:
    """(target face, walk kernel, simplicial sign) for each coface of a
    validated face; the vertex faces have none."""
    if len(subset) == rs.rank:
        return ()
    complement = [j for j in range(rs.rank + 1) if j not in subset]
    targets = [tuple(sorted(subset + (j,))) for j in complement]
    return tuple((t, _face_walk(rs, t, k), (-1) ** s) for s, t in enumerate(targets))


@dataclass
class D2Report(Report):
    group: str
    level: int
    level_bound: int
    modules_checked: int
    labels_checked: int
    passed: bool
    violations: list = field(default_factory=list)

    def to_json_dict(self):
        return {**super().to_json_dict(), "violations": list(map(str, self.violations))}


def d_squared_check(rs: RootSystem, k: int, level_bound: int | None = None) -> D2Report:
    """Exhaust d o d = 0 over the truncated bases of all degree-2 faces.

    The first step walks each label directly.  The images of the first step
    overlap, so the second step reads one walk table per vertex face,
    shared by every degree-2 face and dropped when the check returns.

    Each vertex face S + {a, b} of a degree-2 face S is reached through
    exactly two cofaces, S + {a} and S + {b}, and each path gives one
    label with a sign, or nothing.  A label passes when every pair of paths
    cancels; a label that fails is walked again through _d_squared_total,
    which gives its violation entry.
    """
    k, level_bound, _ = _bounds(rs, k, level_bound)
    n = rs.rank
    report = D2Report(group=str(rs.lie_type), level=k, level_bound=level_bound,
                      modules_checked=0, labels_checked=0, passed=True)
    if n < 2:
        return report
    zero = (0,) * n
    tables = {}     # vertex face -> walk table of its kernel
    second = {}     # edge face -> [(vertex face, walk table, sign), ...]
    for face in combinations(range(n + 1), n - 2):
        face = face_subset(rs, face)
        report.modules_checked += 1
        first = _cofaces(rs, face, k)
        for target, _, _ in first:
            if target not in second:
                second[target] = []
                for dest, kernel, sign in _cofaces(rs, target, k):
                    if dest not in tables:
                        tables[dest] = _WalkTable(kernel.walk, zero)
                    second[target].append((dest, tables[dest], sign))
        # the two paths into the m-th vertex face write slots 2m and 2m + 1,
        # the second negated, so the paths cancel when the slots are equal
        slot = {}
        paths = []
        for target, kernel, sign in first:
            steps = []
            for dest, table, sign2 in second[target]:
                if dest in slot:
                    steps.append((slot[dest] + 1, table, -sign * sign2))
                else:
                    slot[dest] = 2 * len(slot)
                    steps.append((slot[dest], table, sign * sign2))
            paths.append((kernel.walk, steps))
        blank = [None] * (2 * len(slot))
        labels = enumerate_labels(rs, face, k, level_bound)
        report.labels_checked += len(labels)
        for mu in labels:
            ends = blank.copy()
            for walk, steps in paths:
                red = walk(mu)
                if red is None:
                    continue
                label, c = red
                for i, table, sign in steps:
                    red = table[label]
                    if red is not None:
                        ends[i] = (red[0], red[1] * sign * c)
            if ends[::2] != ends[1::2]:
                report.passed = False
                report.violations.append((face, mu, _d_squared_total(first, second, mu)))
    return report


def _d_squared_total(first, second, mu) -> dict:
    """d o d of one label, vertex face to {label: coefficient}, with an
    entry, empty or not, for every vertex face that a nonzero first image
    reaches."""
    total = {}
    for target, kernel, sign in first:
        red = kernel.walk(mu)
        if red is None:
            continue
        label, c = red[0], red[1] * sign
        for dest, table, sign2 in second[target]:
            bucket = total.setdefault(dest, {})
            red = table[label]
            if red is not None:
                addmul(bucket, {red[0]: red[1] * sign2 * c})
    return total


@dataclass
class CokernelReport(Report):
    group: str
    level: int
    level_bound: int
    fusion_rank: int
    edge_labels_checked: int
    vertex_labels_checked: int
    edge_images_vanish: bool
    spans_fusion_ring: bool
    passed: bool
    first_failure: str = ""


def cokernel_vs_oracle(rs: RootSystem, k: int, level_bound: int | None = None) -> CokernelReport:
    """Check the degree-zero homology against the Kac-Walton oracle.

    Vertex labels map to the fusion ring by folding; differential images
    must fold to zero and the vertex images must cover the whole alcove.
    One fold table, dropped when the check returns, serves the vertex
    labels and the edge images; the edge-to-vertex step walks directly.
    """
    k, level_bound, _ = _bounds(rs, k, level_bound)
    n = rs.rank
    alcove = set(alcove_weights(rs, k))
    fold = _WalkTable(_fold_kernel(rs, k).walk, (0,) * n)
    hit = set()
    edge_ok = True
    first_failure = ""
    vertex_count = edge_count = 0
    for face in combinations(range(n + 1), n):
        face = face_subset(rs, face)
        for mu in enumerate_labels(rs, face, k, level_bound):
            vertex_count += 1
            red = fold[mu]
            if red is not None:
                hit.add(red[0])
    for face in combinations(range(n + 1), n - 1):
        face = face_subset(rs, face)
        cofaces = _cofaces(rs, face, k)
        for mu in enumerate_labels(rs, face, k, level_bound):
            edge_count += 1
            total = {}
            for _, kernel, sign in cofaces:
                red = kernel.walk(mu)
                if red is None:
                    continue
                folded = fold[red[0]]
                if folded is not None:
                    addmul(total, {folded[0]: folded[1] * red[1] * sign})
            if total and edge_ok:
                edge_ok = False
                first_failure = f"edge {face} label {mu} folds to {total}"
    spans = hit == alcove
    if not spans and not first_failure:
        first_failure = f"alcove weights {sorted(alcove - hit)} were never reached"
    return CokernelReport(group=str(rs.lie_type), level=k, level_bound=level_bound,
                          fusion_rank=len(alcove), edge_labels_checked=edge_count,
                          vertex_labels_checked=vertex_count,
                          edge_images_vanish=edge_ok, spans_fusion_ring=spans,
                          passed=edge_ok and spans, first_failure=first_failure)


@dataclass
class ExtractionReport(Report):
    group: str
    level: int
    generators: list
    per_edge_counts: dict
    generator_bound: int
    level_bound: int
    lambda_bound: int


def extract_presentation(rs: RootSystem, k: int,
                         level_bound: int | None = None,
                         lambda_bound: int | None = None) -> ExtractionReport:
    """Produce fusion-ideal generators from the edges through the affine node.

    For each nonaffine node j, a basis of the vertex module omitting j is
    lifted to the edge module omitting 0 and j (vertex labels are already
    edge labels), the lift set is extended to an edge basis, and each
    extension element g contributes the generator: its full-group induction
    minus the inductions of the lifts weighted by the solution of
    d1(g) = sum c_s d1(lift_s) over the vertex basis, which the vertex
    search solves (twisted._search_basis) on the echelon it built and
    certified.  Each term c m(lam) x ind(lift), m(lam) the Weyl orbit sum
    of the search's rows, is one Brauer-Klimyk sum over the orbit added
    into the generator, so no weight system is expanded.
    """
    k, level_bound, lambda_bound = _bounds(rs, k, level_bound, lambda_bound)
    n = rs.rank
    induce = rho_walk(rs).signed_sum
    gens: list[VirtualCharacter] = []
    per_edge = {}
    bound = 0
    for j in range(1, n + 1):
        vertex = face_subset(rs, tuple(i for i in range(n + 1) if i != j))
        edge = face_subset(rs, tuple(i for i in vertex if i != 0))
        bound += centralizer_info(rs, edge).module_rank
        vertex_basis, solve = _search_basis(rs, vertex, k, (), level_bound, lambda_bound,
                                            tagged=True)
        # a vertex label is an edge label: the edge has no affine wall, and
        # rho_vertex and rho_edge both pair to 1 with each simple coroot of it
        for b in vertex_basis:
            if not is_valid_label(rs, edge, k, b):
                raise AssertionError(f"vertex basis label {b} is not a label of {edge}")
        edge_basis = find_module_basis(rs, edge, k, seeds=vertex_basis,
                                       level_bound=level_bound,
                                       lambda_bound=lambda_bound)
        inductions = [induce({b: 1}) for b in vertex_basis]
        emitted = 0
        for g in edge_basis:
            if g in vertex_basis:
                continue
            gen = induce({g: 1})
            for idx, orbit, c in solve(g):
                for w, sign in inductions[idx].items():
                    induce(orbit, w, -c * sign, gen)
            if gen:
                gens.append(VirtualCharacter(gen))
                emitted += 1
        per_edge[edge] = emitted
    return ExtractionReport(group=str(rs.lie_type), level=k, generators=gens,
                            per_edge_counts=per_edge, generator_bound=bound,
                            level_bound=level_bound, lambda_bound=lambda_bound)


def g2_fusion_ideal_generators(k: int) -> list:
    """The four level-k fusion-ideal generators for G2, by level parity."""
    k = _check_level(k)
    if k <= 0:
        raise InputError("the generator list requires a positive level")
    irr = VirtualCharacter.irrep
    if k % 2 == 0:
        h = k // 2
        return [irr((1, h)),
                irr((0, h)) + irr((0, h + 1)),
                irr((1, h - 1)) + irr((1, h + 1)),
                irr((k + 2, 0))]
    h = (k - 1) // 2
    return [irr((0, h + 1)),
            irr((1, h)) + irr((1, h + 1)),
            irr((0, h)) + irr((0, h + 2)),
            irr((k + 2, 0))]


@dataclass
class PresentationReport(Report):
    group: str
    level: int
    generators: list
    membership: list
    # codim_q is INFINITE, or None when membership failed
    codim_q: int | str | None = field(metadata={"json": "codim_Q"})
    codim_fp: dict = field(metadata={"json": "codim_Fp"})
    alcove_count: int
    primes: tuple
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def verify_presentation(rs: RootSystem, k: int, gens,
                        primes=DEFAULT_PRIMES) -> PresentationReport:
    """Certify a generator list against the oracle and by quotient codimension.

    Membership is exact integer folding.  The codimension of the quotient
    by the generated ideal is computed over Q, and over every prime field
    of the list in one run (groebner.prime_codimensions); the presentation
    passes when every generator folds to zero and every codimension equals
    the alcove count.  Primes outside the list are not certified, which
    callers should report alongside the verdict; a prime listed twice is an
    InputError.
    """
    gens, primes = list(gens), tuple(primes)
    if not gens:
        raise InputError("generator list must be nonempty")
    if not primes:
        raise InputError("prime list must be nonempty")
    check_primes(primes)
    k = _check_level(k)
    membership = [in_fusion_ideal(rs, g, k) for g in gens]
    alcove_count = len(alcove_weights(rs, k))
    codim_q, codim_fp = None, {}
    if all(membership):
        polys = [to_polynomial(rs, g) for g in gens]
        codim_q, codim_fp = quotient_codimension(polys), prime_codimensions(polys, primes)
    passed = all(membership) and {codim_q, *codim_fp.values()} == {alcove_count}
    return PresentationReport(group=str(rs.lie_type), level=k, generators=gens,
                              membership=membership, codim_q=codim_q,
                              codim_fp=codim_fp, alcove_count=alcove_count,
                              primes=primes, verdict="pass" if passed else "fail")
