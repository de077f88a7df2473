"""Kac-Walton fusion oracle with a floating-point Verlinde cross-check.

Folding reduces lambda + rho under the shifted affine Weyl action at
k + h_vee: simple-wall reflections plus the reflection in the affine wall
where the pairing with the highest coroot equals k + h_vee.  Wall hits are
dropped, interior points contribute their alcove representative with the
determinant sign.  All fusion logic is exact over the integers; the
Verlinde evaluation is advisory only.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import mul

from .errors import InputError
from .repring import VirtualCharacter, fewer_weights_first
from .rootdata import (RootSystem, _WalkTable, _check_level, _check_weight, _integer_form,
                       alcove_weights, full_weights, rho_walk,
                       weyl_orbit_signed)
from .sparse import Report, Sparse


class FusionElement(Sparse):
    """Integer combination of level-k alcove weights."""

    __slots__ = ("level",)
    _fields = ("level",)
    _mismatch = "cannot add fusion elements at different levels"

    def __init__(self, level: int, terms=None):
        self.level = level
        super().__init__(terms)


def _fold_kernel(rs: RootSystem, k: int):
    """The kernel of the affine Weyl group at k + h_vee (rootdata.rho_walk),
    after checking the level: walk(w) is None when w + rho hits a wall,
    else (alcove weight, sign).  Its reflection cap is derived from the
    weight, so every input reduces; see rootdata.chamber_walk for the bound."""
    return rho_walk(rs, 2 * (_check_level(k) + rs.dual_coxeter))


def fold(rs: RootSystem, x: VirtualCharacter, k: int) -> FusionElement:
    """Linear extension of the alcove reduction to virtual characters."""
    k = _check_level(k)
    kernel = _fold_kernel(rs, k)
    for w in x.terms:
        _check_weight(rs, w)
    return FusionElement(k, kernel.signed_sum(x.terms))


def in_fusion_ideal(rs: RootSystem, x: VirtualCharacter, k: int) -> bool:
    """Exact membership test: true iff the character folds to zero."""
    return not fold(rs, x, k)


def fusion_product(rs: RootSystem, a, b, k: int) -> FusionElement:
    """Fusion product of two alcove weights at level k.

    Folding is invariant under the finite Weyl group, so the fold of
    V(a) x V(b) is the sum over the weights nu of the factor p with fewer
    weights of m_p(nu) * fold(s + nu), s the other factor: one affine walk
    per weight of p, with no tensor product in between.
    """
    k = _check_level(k)
    kernel = _fold_kernel(rs, k)
    a, b = _check_weight(rs, a), _check_weight(rs, b)
    for w in (a, b):
        if not rs.is_dominant(w) or rs.level(w) > k:
            raise InputError(f"weight {w} is outside the level-{k} alcove")
    p, s = sorted((a, b), key=fewer_weights_first(rs))
    return FusionElement(k, kernel.signed_sum(full_weights(rs, p), s))


def fusion_table(rs: RootSystem, k: int) -> dict:
    """All pairwise fusion products, keyed by ordered weight pairs.

    Each product s * p is fusion_product's sum over the weights of p with
    s shifted in, for p at or before s in the order of
    repring.fewer_weights_first.  The products with one shift s share a
    walk table (nu to the fold of s + nu), so each s + nu is walked once;
    the table is dropped when s is done.
    """
    k = _check_level(k)
    kernel = _fold_kernel(rs, k)
    basis = alcove_weights(rs, k)
    order = sorted(basis, key=fewer_weights_first(rs))
    products = {}
    for i, s in enumerate(order):
        table = _WalkTable(kernel.walk, s)
        for p in order[:i + 1]:
            products[p, s] = products[s, p] = FusionElement(
                k, kernel.signed_sum(full_weights(rs, p), table=table))
    return {(a, b): products[a, b] for a in basis for b in basis}


@dataclass
class VerlindeReport(Report):
    group: str
    level: int
    tol: float
    max_abs_deviation: float
    entries_checked: int
    passed: bool


def _s_matrix(rs: RootSystem, basis: list, k: int) -> list:
    """Unnormalized S-matrix rows over the basis: S_ab is the alternating
    exponential sum over the signed Weyl orbit of a + rho at b + rho.

    The pairings run on integers: with (G, D) from _integer_form, the phase
    (v, b + rho) / (k + h_vee) is the integer v . G (b + rho) truly divided
    by D (k + h_vee), the same correctly rounded double as the exact
    fraction's.
    """
    gram, den = _integer_form(rs)
    dm = den * (k + rs.dual_coxeter)
    cols = [[sum(map(mul, row, b)) + sum(row) for row in gram] for b in basis]

    def s_entry(orbit, col):
        total = 0j
        for v, sign in orbit:
            total += sign * cmath.exp(-2j * cmath.pi * (sum(map(mul, v, col)) / dm))
        return total

    rows = []
    for a in basis:
        orbit = weyl_orbit_signed(rs, tuple(x + 1 for x in a))
        rows.append([s_entry(orbit, col) for col in cols])
    return rows


def verlinde_numeric_check(rs: RootSystem, k: int, tol: float = 1e-6) -> VerlindeReport:
    """Compare exact fusion coefficients with the numeric Verlinde formula.

    The unnormalized S-matrix entries (_s_matrix) are alternating
    exponential sums over the Weyl orbit of lambda + rho evaluated at
    mu + rho over k + h_vee; the normalization is fixed by unitarity of the
    vacuum row.  Advisory only: no exact result depends on this check.

    Only the pairs a <= b are evaluated: complex products commute bit for
    bit and fusion_table keys (a, b) and (b, a) to one product, so the
    deviation at (b, a, c) is the float at (a, b, c).  entries_checked
    still counts every ordered triple.
    """
    if not 0 < tol < math.inf:
        raise InputError("tolerance must be positive and finite")
    k = _check_level(k)
    basis = alcove_weights(rs, k)
    smat = _s_matrix(rs, basis, k)
    vac = smat[basis.index((0,) * rs.rank)]
    norm = sum(abs(x) ** 2 for x in vac)
    conj = [[x.conjugate() for x in row] for row in smat]
    table = fusion_table(rs, k)
    max_dev = 0.0
    for i, (a, row_a) in enumerate(zip(basis, smat)):
        for b, row_b in zip(basis[i:], smat[i:]):
            exact = table[(a, b)].terms
            # S_as S_bs / S_0s does not depend on c
            ab = [x * y / z for x, y, z in zip(row_a, row_b, vac)]
            for c, row_c in zip(basis, conj):
                dev = abs(sum(map(mul, ab, row_c)) / norm - exact.get(c, 0))
                max_dev = max(max_dev, dev)
    return VerlindeReport(group=str(rs.lie_type), level=k, tol=tol,
                          max_abs_deviation=max_dev, entries_checked=len(basis) ** 3,
                          passed=max_dev < tol)
