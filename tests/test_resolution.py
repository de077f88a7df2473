from collections import Counter
from itertools import combinations, count
from operator import add

import pytest

from fusionring import (FieldPoly, InputError, InternalLimitError, VirtualCharacter,
                        build_complex, build_root_system, centralizer_info,
                        alcove_weights, cokernel_vs_oracle, d1_component,
                        d_squared_check, enumerate_labels, extract_presentation,
                        fold_weight, full_weights, g2_fusion_ideal_generators,
                        in_fusion_ideal, quotient_codimension, to_polynomial,
                        verify_presentation)
from fusionring import intlinalg, resolution, twisted
from fusionring.groebner import INFINITE, prime_codimensions
from fusionring.resolution import DEFAULT_PRIMES, CokernelReport, D2Report


def test_complex_ranks(a1, g2):
    spec = build_complex(a1, 2)
    assert spec.ranks == (2, 2)
    assert spec.euler_characteristic() == 0
    spec = build_complex(g2, 3)
    assert spec.ranks == (6, 18, 12)
    assert spec.euler_characteristic() == 0


RANK_SIX_TYPES = ([f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 7)]
                  + [f"C{n}" for n in range(2, 7)] + [f"D{n}" for n in range(3, 7)]
                  + ["E6", "F4", "G2"])


@pytest.mark.parametrize("name", RANK_SIX_TYPES)
def test_euler_characteristic_vanishes(name):
    spec = build_complex(build_root_system(name), 1)
    assert spec.euler_characteristic() == 0


def test_d1_even_level_displays(g2):
    # short-root edge into the orthogonal-pair vertex and the group vertex,
    # at an even level
    k = 2
    assert d1_component(g2, (1,), 0, k, (1, 1)) is None
    assert d1_component(g2, (1,), 2, k, (1, 1)) == ((1, 1), -1)
    assert d1_component(g2, (1,), 0, k, (0, 2)) == ((0, 1), 1 * -1)
    assert d1_component(g2, (1,), 2, k, (0, 2)) == ((0, 2), -1)
    assert d1_component(g2, (1,), 0, k, (1, 2)) == ((1, 0), -1)
    # the three lifted labels map across unchanged
    for mu in [(0, 1), (1, 0), (0, 0)]:
        assert d1_component(g2, (1,), 0, k, mu) == (mu, 1)


def test_d1_odd_level_displays(g2):
    k = 3
    assert d1_component(g2, (1,), 0, k, (0, 2)) is None
    assert d1_component(g2, (1,), 0, k, (1, 2)) == ((1, 1), -1)
    assert d1_component(g2, (1,), 0, k, (0, 3)) == ((0, 1), -1)


def test_d1_long_edge_display(g2):
    # the top extension label of the long edge dies in the rank-two vertex
    for k in (2, 4):
        assert d1_component(g2, (2,), 0, k, (k + 2, 0)) is None
        assert d1_component(g2, (2,), 1, k, (k + 2, 0)) == ((k + 2, 0), -1)


def test_d1_input_validation(g2):
    with pytest.raises(InputError):
        d1_component(g2, (1,), 1, 2, (0, 0))
    with pytest.raises(InputError):
        d1_component(g2, (1, 2), 0, 2, (0, 0))  # target is the full diagram


@pytest.mark.parametrize("name,k", [("A3", 1), ("G2", 2)])
def test_cofaces_match_d1_component(name, k):
    # each coface kernel's walk times its simplicial sign, against the
    # validated path
    rs = build_root_system(name)
    n = rs.rank
    for size in range(n + 1):
        for face in combinations(range(n + 1), size):
            for mu in enumerate_labels(rs, face, k, k + 2 * rs.dual_coxeter):
                expected = {}
                for j in range(n + 1):
                    if j in face or size == n:
                        continue
                    red = d1_component(rs, face, j, k, mu)
                    if red is not None:
                        expected[tuple(sorted(face + (j,)))] = red
                found = {}
                for target, kernel, sign in resolution._cofaces(rs, face, k):
                    red = kernel.walk(mu)
                    if red is not None:
                        found[target] = (red[0], red[1] * sign)
                assert found == expected, (face, mu)


def _image(rs, face, k, mu):
    # (coface, label, coefficient) of d1 on one label, through the
    # validated d1_component, cofaces in the order of the complement
    for j in range(rs.rank + 1):
        if j not in face:
            red = d1_component(rs, face, j, k, mu)
            if red is not None:
                yield tuple(sorted(face + (j,))), red[0], red[1]


def _add(out, label, c):
    out[label] = out.get(label, 0) + c
    if not out[label]:
        del out[label]


def _d_squared_by_components(rs, k, level_bound=None):
    # d o d label by label, every step through d1_component and no table
    if level_bound is None:
        level_bound = k + 2 * rs.dual_coxeter
    n = rs.rank
    report = D2Report(group=str(rs.lie_type), level=k, level_bound=level_bound,
                      modules_checked=0, labels_checked=0, passed=True)
    for face in combinations(range(n + 1), n - 2):
        report.modules_checked += 1
        for mu in enumerate_labels(rs, face, k, level_bound):
            report.labels_checked += 1
            total = {}
            for target, label, c in _image(rs, face, k, mu):
                for j in range(n + 1):
                    if j in target:
                        continue
                    dest = tuple(sorted(target + (j,)))
                    bucket = total.setdefault(dest, {})
                    red = d1_component(rs, target, j, k, label)
                    if red is not None:
                        _add(bucket, red[0], red[1] * c)
            if any(total.values()):
                report.passed = False
                report.violations.append((face, mu, total))
    return report


def _cokernel_by_components(rs, k, level_bound=None):
    # vertex labels and edge images folded one weight at a time through
    # fold_weight, the edge images through d1_component
    if level_bound is None:
        level_bound = k + 2 * rs.dual_coxeter
    n = rs.rank
    alcove = set(alcove_weights(rs, k))
    hit = set()
    vertex_count = edge_count = 0
    first_failure = ""
    for face in combinations(range(n + 1), n):
        for mu in enumerate_labels(rs, face, k, level_bound):
            vertex_count += 1
            red = fold_weight(rs, mu, k)
            if red is not None:
                hit.add(red[0])
    for face in combinations(range(n + 1), n - 1):
        for mu in enumerate_labels(rs, face, k, level_bound):
            edge_count += 1
            total = {}
            for _, label, c in _image(rs, face, k, mu):
                red = fold_weight(rs, label, k)
                if red is not None:
                    _add(total, red[0], red[1] * c)
            if total and not first_failure:
                first_failure = f"edge {face} label {mu} folds to {total}"
    edge_ok = not first_failure
    spans = hit == alcove
    if not spans and not first_failure:
        first_failure = f"alcove weights {sorted(alcove - hit)} were never reached"
    return CokernelReport(group=str(rs.lie_type), level=k, level_bound=level_bound,
                          fusion_rank=len(alcove), edge_labels_checked=edge_count,
                          vertex_labels_checked=vertex_count,
                          edge_images_vanish=edge_ok, spans_fusion_ring=spans,
                          passed=edge_ok and spans, first_failure=first_failure)


@pytest.mark.parametrize("name,k", [(name, k) for name in ("A2", "B2", "C2", "G2")
                                    for k in range(3)] + [("A3", 1), ("B3", 1)])
def test_complex_checks_match_component_path(name, k):
    # the walk tables of the two checks against the untabled slow path
    rs = build_root_system(name)
    assert d_squared_check(rs, k).to_json_dict() == \
        _d_squared_by_components(rs, k).to_json_dict()
    assert cokernel_vs_oracle(rs, k).to_json_dict() == \
        _cokernel_by_components(rs, k).to_json_dict()


def test_d_squared_reports_a_flipped_sign(monkeypatch):
    # one wrong simplicial sign on the edge (0, 2) of A3, read by the
    # second step through its walk tables, breaks d o d on the two
    # degree-2 faces inside that edge and nowhere else; the two paths then
    # reach one label with equal signs, and every violation entry matches
    # the component path's under the same fault
    rs = build_root_system("A3")
    cofaces = resolution._cofaces

    def flipped(rs_, subset, k):
        found = cofaces(rs_, subset, k)
        if subset != (0, 2):
            return found
        (target, kernel, sign), *rest = found
        return ((target, kernel, -sign), *rest)

    monkeypatch.setattr(resolution, "_cofaces", flipped)
    report = d_squared_check(rs, 1, level_bound=6)
    assert not report.passed
    assert {face for face, _, _ in report.violations} == {(0,), (2,)}
    assert report.to_json_dict() == _d_squared_by_components(rs, 1, 6).to_json_dict()


def test_d_squared_reports_a_dropped_image(monkeypatch):
    # the walk into the vertex face (0, 1, 2) of A3 loses the image of one
    # label of the edge (0, 2), so one path reaches a label that the other
    # path does not cancel; every violation entry matches the component
    # path's under the same fault
    rs = build_root_system("A3")
    cofaces = resolution._cofaces
    # a first image from the face (0,) with a nonzero second image
    reached = (d1_component(rs, (0,), 2, 1, mu) for mu in enumerate_labels(rs, (0,), 1, 6))
    victim = next(red[0] for red in reached
                  if red is not None and d1_component(rs, (0, 2), 1, 1, red[0]) is not None)

    def drop(kernel):
        def walk(w, nu=(0,) * rs.rank):
            return None if tuple(map(add, w, nu)) == victim else kernel.walk(w, nu)
        return kernel._replace(walk=walk)

    def dropped(rs_, subset, k):
        return tuple((target, drop(kernel) if target == (0, 1, 2) else kernel, sign)
                     for target, kernel, sign in cofaces(rs_, subset, k))

    monkeypatch.setattr(resolution, "_cofaces", dropped)
    report = d_squared_check(rs, 1, level_bound=6)
    assert not report.passed
    assert report.to_json_dict() == _d_squared_by_components(rs, 1, 6).to_json_dict()


# Walks of the two complex checks on G2 at level 2: the second step of
# d o d reads one walk table per vertex face and the cokernel one fold
# table, so each (vertex face, label) and each folded weight is walked
# once.  Walking every image afresh took 1 911 and 1 462.
G2_LEVEL_TWO_D_SQUARED_WALKS = 1_292
G2_LEVEL_TWO_COKERNEL_WALKS = 862


def test_complex_checks_walk_each_second_image_once(g2, monkeypatch):
    # every walk goes through a kernel resolution._face_walk (the coface
    # steps) or resolution._fold_kernel (the fold) returns
    walks = Counter()
    face_walk, fold_kernel = resolution._face_walk, resolution._fold_kernel

    def counted(kernel, key):
        def walk(w, nu=(0,) * g2.rank):
            walks[key, tuple(nu), tuple(w)] += 1
            return kernel.walk(w, nu)
        return kernel._replace(walk=walk)

    monkeypatch.setattr(resolution, "_face_walk",
                        lambda rs, subset, k: counted(face_walk(rs, subset, k), subset))
    monkeypatch.setattr(resolution, "_fold_kernel",
                        lambda rs, k: counted(fold_kernel(rs, k), "fold"))
    assert d_squared_check(g2, 2).passed
    assert max(n for (face, _, _), n in walks.items() if len(face) == g2.rank) == 1
    assert sum(walks.values()) == G2_LEVEL_TWO_D_SQUARED_WALKS
    walks.clear()
    assert cokernel_vs_oracle(g2, 2).passed
    assert max(n for (key, _, _), n in walks.items() if key == "fold") == 1
    assert sum(walks.values()) == G2_LEVEL_TWO_COKERNEL_WALKS


def test_d_squared_builds_one_walk_table_per_vertex_face(g2, monkeypatch):
    # each vertex face is reached from two edge faces; a table built for
    # every (edge, vertex) pair and then dropped made 6 tables for 3
    built = []
    walk_table = resolution._WalkTable

    def counted(*args):
        built.append(args)
        return walk_table(*args)

    monkeypatch.setattr(resolution, "_WalkTable", counted)
    assert d_squared_check(g2, 2).passed
    assert len(built) == 3


def test_complex_checks_reject_a_negative_level(a2):
    with pytest.raises(InputError, match="level must be nonnegative"):
        d_squared_check(a2, -1)


def test_build_complex_rejects_a_negative_level(a2):
    with pytest.raises(InputError, match="level must be nonnegative"):
        build_complex(a2, -2)


def test_d_squared_rejects_a_level_bound_below_the_level(a2):
    with pytest.raises(InputError, match="level_bound must be at least the level"):
        d_squared_check(a2, 2, level_bound=-5)


def test_cokernel_rejects_a_level_bound_below_the_level(a2):
    with pytest.raises(InputError, match="level_bound must be at least the level"):
        cokernel_vs_oracle(a2, 2, level_bound=1)


def test_extract_rejects_a_level_bound_below_the_level(a1):
    with pytest.raises(InputError, match="level_bound must be at least the level"):
        extract_presentation(a1, 2, level_bound=1)


@pytest.mark.parametrize("name,kmax", [("A1", 5), ("A2", 3), ("C2", 3), ("G2", 4)])
def test_d_squared_vanishes(name, kmax, request):
    rs = build_root_system(name)
    for k in range(kmax + 1):
        report = d_squared_check(rs, k)
        assert report.passed, report.violations[:1]


@pytest.mark.parametrize("name,kmax", [("A1", 5), ("G2", 4)])
def test_cokernel_matches_oracle(name, kmax):
    rs = build_root_system(name)
    for k in range(kmax + 1):
        report = cokernel_vs_oracle(rs, k)
        assert report.passed, report.first_failure
        assert report.fusion_rank == len(
            [w for w in __import__("fusionring").alcove_weights(rs, k)])


@pytest.mark.parametrize("name,k,rank", [("A3", 1, 4), ("A3", 2, 10),
                                         ("B3", 1, 3), ("C3", 1, 4)])
def test_rank_three_complex(name, k, rank):
    # degree 2 -> 1 -> 0 runs through genuinely mixed faces at rank three
    rs = build_root_system(name)
    d2 = d_squared_check(rs, k, level_bound=6)
    assert d2.passed, d2.violations[:1]
    cok = cokernel_vs_oracle(rs, k, level_bound=6)
    assert cok.passed, cok.first_failure
    assert cok.fusion_rank == rank


def test_g2_generator_lists():
    gens = g2_fusion_ideal_generators(1)
    irr = VirtualCharacter.irrep
    assert gens == [irr((0, 1)), irr((1, 0)) + irr((1, 1)),
                    irr((0, 0)) + irr((0, 2)), irr((3, 0))]
    gens = g2_fusion_ideal_generators(2)
    assert gens == [irr((1, 1)), irr((0, 1)) + irr((0, 2)),
                    irr((1, 0)) + irr((1, 2)), irr((4, 0))]
    gens = g2_fusion_ideal_generators(3)
    assert gens == [irr((0, 2)), irr((1, 1)) + irr((1, 2)),
                    irr((0, 1)) + irr((0, 3)), irr((5, 0))]
    with pytest.raises(InputError):
        g2_fusion_ideal_generators(0)


def test_verify_presentation_rejects_non_members(g2):
    report = verify_presentation(g2, 2, [VirtualCharacter.irrep((0, 0))])
    assert report.verdict == "fail"
    assert report.membership == [False]
    assert report.codim_q is None


def test_verify_presentation_detects_short_ideal(g2):
    # dropping the top-level generator of the even case keeps membership
    # but may change the codimension; dropping everything but it fails
    gens = [VirtualCharacter.irrep((4, 0))]
    report = verify_presentation(g2, 2, gens)
    assert report.membership == [True]
    assert report.verdict == "fail"
    assert report.codim_q is INFINITE or report.codim_q != report.alcove_count


def test_verify_presentation_reads_a_one_shot_prime_iterator(g2):
    # validating the primes once must not use them up before certifying
    report = verify_presentation(g2, 1, g2_fusion_ideal_generators(1), primes=iter([2, 3]))
    assert report.passed
    assert report.primes == (2, 3)
    assert report.codim_fp == {2: 2, 3: 2}


def test_verify_presentation_rejects_a_repeated_prime(g2):
    # a repeated prime would be certified twice and listed twice
    with pytest.raises(InputError, match="prime 3 is repeated"):
        verify_presentation(g2, 1, g2_fusion_ideal_generators(1), primes=(3, 2, 3))


def test_one_prime_disagrees_with_q(g2):
    # generators 0 and 4 of the G2 level-3 extraction cut out a quotient of
    # dimension 6 over Q and every default prime but 7, where it is
    # infinite: the one run over the primes' product splits off 7 and
    # answers for it alone, through verify_presentation and the engine
    pair = [extract_presentation(g2, 3).generators[i] for i in (0, 4)]
    expected = {p: INFINITE if p == 7 else 6 for p in DEFAULT_PRIMES}
    report = verify_presentation(g2, 3, pair)
    assert all(report.membership) and report.verdict == "fail"
    assert report.codim_q == 6 and report.codim_fp == expected
    polys = [FieldPoly(2, to_polynomial(g2, g).terms) for g in pair]
    assert prime_codimensions(polys, DEFAULT_PRIMES) == expected
    for p in DEFAULT_PRIMES:
        assert quotient_codimension([FieldPoly(2, f.terms, p) for f in polys]) == expected[p]


# (group, level) -> the size of the smallest certified subset of the
# extracted generators, and their count
MINIMAL_SUBSETS = {("A2", 1): (2, 4), ("A2", 2): (2, 4), ("A2", 3): (2, 4),
                   ("B2", 1): (2, 5), ("B2", 2): (2, 5),
                   ("C2", 1): (2, 5), ("C2", 2): (2, 5),
                   ("G2", 1): (2, 7), ("G2", 2): (2, 7), ("G2", 3): (3, 7), ("G2", 4): (3, 7)}


def test_minimal_certified_subsets():
    # exhaustive by size: no smaller subset passes over Q and every default
    # prime, and one of the pinned size does
    for (group, k), (size, count) in MINIMAL_SUBSETS.items():
        rs = build_root_system(group)
        gens = extract_presentation(rs, k).generators
        smallest = next(s for s in range(1, len(gens) + 1)
                        if any(verify_presentation(rs, k, sub).passed
                               for sub in combinations(gens, s)))
        assert (smallest, len(gens)) == (size, count), (group, k)


def test_exploratory_minimal_presentation(g2):
    # recorded outcome only: omit the top-level generator at an even level
    gens = g2_fusion_ideal_generators(2)[:-1]
    report = verify_presentation(g2, 2, gens)
    assert all(report.membership)
    # no assertion on the codimension outcome; it is recorded in the report
    assert report.codim_q is INFINITE or isinstance(report.codim_q, int)


def test_extract_presentation_a1(a1):
    for k in range(1, 11):
        result = extract_presentation(a1, k)
        assert result.generator_bound == 2
        assert len(result.generators) == 1
        gen = result.generators[0]
        assert gen == VirtualCharacter.irrep((k + 1,)).scale(-1)
        assert in_fusion_ideal(a1, gen, k)
        report = verify_presentation(a1, k, result.generators, primes=(2, 3, 5))
        assert report.passed
        assert report.codim_q == k + 1


def test_extract_presentation_g2_level_one(g2):
    result = extract_presentation(g2, 1)
    assert result.generator_bound == 12
    assert 1 <= len(result.generators) <= 12
    for gen in result.generators:
        assert in_fusion_ideal(g2, gen, 1)
    report = verify_presentation(g2, 1, result.generators, primes=(2, 3, 5))
    assert report.passed


# Walks of extract_presentation(G2, 1): 10 727 in the product rows and 7
# by the solves of the vertex searches, one per lift target.  Without the
# per-candidate walk table the product rows made 411 664; since the rows
# are Weyl orbit sums, whose orbits are disjoint, they walk each c + nu
# once with no table.
G2_LEVEL_ONE_WALKS = 10_734


def test_extract_walks_each_shifted_weight_once(g2, monkeypatch):
    # the product rows walk through the signed_sum, and the solves through
    # the walk, of the kernels twisted._face_walk returns; inside one call
    # of _candidate_rows no candidate c walks the same c + nu twice
    walks = Counter()
    targets = count()
    build = [None]
    builds = count()
    solving = [False]
    face_walk, candidate_rows = twisted._face_walk, twisted._candidate_rows
    search_basis = resolution._search_basis

    def counted_face_walk(rs, subset, k):
        kernel = face_walk(rs, subset, k)

        def signed_sum(terms, nu=(0,) * rs.rank, *args):
            for w in terms:
                walks[build[0], subset, k, tuple(nu), tuple(w)] += 1
            return kernel.signed_sum(terms, nu, *args)

        def walk(w, nu=(0,) * rs.rank):
            if solving[0]:
                next(targets)
            return kernel.walk(w, nu)
        return kernel._replace(signed_sum=signed_sum, walk=walk)

    def counted_rows(rs, subset, k, c, orbits, key):
        weights = [w for _, orbit in orbits for w in orbit]
        assert len(set(weights)) == len(weights)   # the orbits are disjoint
        build[0] = next(builds)
        try:
            return candidate_rows(rs, subset, k, c, orbits, key)
        finally:
            build[0] = None

    def counted_search(*args, **kwargs):
        basis, solve = search_basis(*args, **kwargs)

        def counted_solve(mu):
            solving[0] = True
            try:
                return solve(mu)
            finally:
                solving[0] = False
        return basis, counted_solve

    monkeypatch.setattr(twisted, "_face_walk", counted_face_walk)
    monkeypatch.setattr(twisted, "_candidate_rows", counted_rows)
    monkeypatch.setattr(resolution, "_search_basis", counted_search)
    extract_presentation(g2, 1)
    assert None not in {key[0] for key in walks}
    assert max(walks.values()) == 1
    assert sum(walks.values()) + next(targets) == G2_LEVEL_ONE_WALKS


@pytest.mark.parametrize("name, k", [("A1", 7), ("B2", 2), ("G2", 3)])
def test_extract_walks_faces_through_node_0_at_the_base_level(name, k, monkeypatch):
    # the vertex searches and their solves run at the base level
    # k mod twist order: no kernel of a face through node 0 is asked for
    # at the level of the extraction
    rs = build_root_system(name)
    asked = set()
    face_walk = twisted._face_walk

    def recorded(rs_, subset, level):
        asked.add((subset, level))
        return face_walk(rs_, subset, level)

    monkeypatch.setattr(twisted, "_face_walk", recorded)
    extract_presentation(rs, k)
    through_0 = {(subset, level) for subset, level in asked if 0 in subset}
    assert {subset for subset, _ in through_0} == \
        {tuple(i for i in range(rs.rank + 1) if i != j) for j in range(1, rs.rank + 1)}
    for subset, level in through_0:
        assert level == k % twisted.twist_order(rs, subset), (subset, level)


@pytest.mark.parametrize("name, k, builds", [("G2", 1, 17), ("A2", 3, 8)])
def test_extract_builds_each_candidate_once(name, k, builds, monkeypatch):
    # the lifts are solved on the echelons of the vertex searches, so the
    # rows of a chosen candidate are built once, by the search choosing it
    rs = build_root_system(name)
    n = rs.rank
    ranks = sum(centralizer_info(rs, [i for i in range(n + 1) if i != j]).module_rank
                + centralizer_info(rs, [i for i in range(1, n + 1) if i != j]).module_rank
                for j in range(1, n + 1))
    assert ranks == builds
    calls = []
    candidate_rows = twisted._candidate_rows

    def counted_rows(*args):
        calls.append(args)
        return candidate_rows(*args)

    monkeypatch.setattr(twisted, "_candidate_rows", counted_rows)
    extract_presentation(rs, k)
    assert len(calls) == builds


# (inserts, dependent inserts, addmul calls) of the echelons of
# extract_presentation: the row operations of the searches and the
# solves of the lifts.  The label codes keep the column order of the
# (level, label) tuple keys, so the elimination and these counts are
# those of the tuple keys.  The orbit-sum rows span the lattice of the
# irrep rows, so the insert counts are those of the irrep rows; the
# counts include the tail reductions of swapped rows.  Tags cost no row
# operation: a row operation is one addmul on the row, and a solve adds
# one addmul per inserted row its backward pass over the log reaches
# with a nonzero weight.
ECHELON_WORK = [("G2", 1, (1088, 0, 31814)), ("B2", 2, (1155, 0, 11186)),
                ("A2", 3, (1088, 0, 6099))]


@pytest.mark.parametrize("name, k, work", ECHELON_WORK)
def test_extract_echelon_work(name, k, work, monkeypatch):
    counts = Counter()
    insert, addmul = intlinalg.ZEchelon.insert, intlinalg.addmul

    def counted_insert(self, vec, meta=None):
        independent = insert(self, vec, meta)
        counts["inserts"] += 1
        counts["dependent"] += not independent
        return independent

    def counted_addmul(*args):
        counts["addmul"] += 1
        return addmul(*args)

    monkeypatch.setattr(intlinalg.ZEchelon, "insert", counted_insert)
    monkeypatch.setattr(intlinalg, "addmul", counted_addmul)
    extract_presentation(build_root_system(name), k)
    assert (counts["inserts"], counts["dependent"], counts["addmul"]) == work


@pytest.mark.parametrize("name, k", [("A1", 5), ("A2", 3), ("B2", 2), ("G2", 1)])
def test_extraction_expands_no_weight_system(name, k):
    # the rows and the generators are Brauer-Klimyk sums over Weyl orbit
    # sums: extraction runs no Freudenthal, so no weight system is cached
    full_weights.cache_clear()
    extract_presentation(build_root_system(name), k)
    assert full_weights.cache_info().currsize == 0


def test_limit_messages_name_the_bound(g2):
    # the failing vertex face (0, 2) is searched at its base level 0; the
    # message names the bound to raise and both levels
    with pytest.raises(InternalLimitError) as info:
        extract_presentation(g2, 1, lambda_bound=3)
    message = str(info.value)
    assert "raise lambda_bound" in message and "lambda_bound=3" in message
    assert "at level 0 (translated from requested level 1)" in message
