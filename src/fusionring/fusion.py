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
from dataclasses import dataclass
from operator import mul

from .errors import InputError
from .repring import VirtualCharacter, tensor_product
from .rootdata import (RootSystem, _check_weight, alcove_weights, rho_walk,
                       weyl_orbit_signed)
from .sparse import Sparse, addmul


class FusionElement(Sparse):
    """Integer combination of level-k alcove weights."""

    __slots__ = ("level",)
    _fields = ("level",)
    _mismatch = "cannot add fusion elements at different levels"

    def __init__(self, level: int, terms=None):
        self.level = level
        super().__init__(terms)


def fold_weight(rs: RootSystem, w, k: int):
    """Reduce one weight to the level-k alcove under the shifted action.

    Returns None when w + rho hits a wall, else (alcove weight, sign).
    Validates the level and the weight, then runs the kernel of the affine
    Weyl group at k + h_vee (rootdata.rho_walk).  Its reflection cap is
    derived from the weight, so every input reduces; see
    rootdata.chamber_walk for the bound.
    """
    if k < 0:
        raise InputError("level must be nonnegative")
    return rho_walk(rs, 2 * (k + rs.dual_coxeter)).walk(_check_weight(rs, w))


def fold(rs: RootSystem, x: VirtualCharacter, k: int) -> FusionElement:
    """Linear extension of the alcove reduction to virtual characters."""
    if k < 0:
        raise InputError("level must be nonnegative")
    for w in x.terms:
        _check_weight(rs, w)
    return FusionElement(k, rho_walk(rs, 2 * (k + rs.dual_coxeter)).signed_sum(x.terms))


def in_fusion_ideal(rs: RootSystem, x: VirtualCharacter, k: int) -> bool:
    """Exact membership test: true iff the character folds to zero."""
    return not fold(rs, x, k)


def fusion_product(rs: RootSystem, a, b, k: int) -> FusionElement:
    """Fusion product of two alcove weights at level k."""
    a, b = tuple(a), tuple(b)
    for w in (a, b):
        if not rs.is_dominant(w) or rs.level(w) > k:
            raise InputError(f"weight {w} is outside the level-{k} alcove")
    tensor = tensor_product(rs, VirtualCharacter.irrep(a), VirtualCharacter.irrep(b))
    return fold(rs, tensor, k)


def fuse_elements(rs: RootSystem, x: FusionElement, y: FusionElement) -> FusionElement:
    """Bilinear extension of the fusion product."""
    if x.level != y.level:
        raise InputError("fusion elements live at different levels")
    out = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            addmul(out, fusion_product(rs, a, b, x.level).terms, ca * cb)
    return FusionElement(x.level, out)


def fusion_table(rs: RootSystem, k: int) -> dict:
    """All pairwise fusion products, keyed by ordered weight pairs."""
    basis = alcove_weights(rs, k)
    results = {(a, b): fusion_product(rs, a, b, k)
               for a in basis for b in basis if a <= b}
    table = {}
    for a in basis:
        for b in basis:
            table[(a, b)] = results[(a, b) if a <= b else (b, a)]
    return table


@dataclass
class VerlindeReport:
    group: str
    level: int
    tol: float
    max_abs_deviation: float
    entries_checked: int
    passed: bool

    def to_json_dict(self):
        return {"group": self.group, "level": self.level, "tol": self.tol,
                "max_abs_deviation": self.max_abs_deviation,
                "entries_checked": self.entries_checked, "passed": self.passed}


def verlinde_numeric_check(rs: RootSystem, k: int, tol: float = 1e-6) -> VerlindeReport:
    """Compare exact fusion coefficients with the numeric Verlinde formula.

    The unnormalized S-matrix entries are alternating exponential sums over
    the Weyl orbit of lambda + rho evaluated at mu + rho over k + h_vee; the
    normalization is fixed by unitarity of the vacuum row.  Advisory only:
    no exact result depends on this check.
    """
    if tol <= 0:
        raise InputError("tolerance must be positive")
    basis = alcove_weights(rs, k)
    m = k + rs.dual_coxeter
    orbits = {a: weyl_orbit_signed(rs, tuple(x + 1 for x in a)) for a in basis}

    def s_entry(a, b):
        b_rho = tuple(x + 1 for x in b)
        total = 0j
        for v, sign in orbits[a]:
            phase = rs.form_pair(v, b_rho) / m
            total += sign * cmath.exp(-2j * cmath.pi * float(phase))
        return total

    smat = [[s_entry(a, b) for b in basis] for a in basis]
    vac = smat[basis.index((0,) * rs.rank)]
    norm = sum(abs(x) ** 2 for x in vac)
    conj = [[x.conjugate() for x in row] for row in smat]
    table = fusion_table(rs, k)
    max_dev = 0.0
    checked = 0
    for a, row_a in zip(basis, smat):
        for b, row_b in zip(basis, smat):
            exact = table[(a, b)].terms
            # S_as S_bs / S_0s does not depend on c
            ab = [x * y / z for x, y, z in zip(row_a, row_b, vac)]
            for c, row_c in zip(basis, conj):
                dev = abs(sum(map(mul, ab, row_c)) / norm - exact.get(c, 0))
                max_dev = max(max_dev, dev)
                checked += 1
    return VerlindeReport(group=str(rs.lie_type), level=k, tol=tol,
                          max_abs_deviation=max_dev, entries_checked=checked,
                          passed=max_dev < tol)
