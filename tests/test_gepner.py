"""The type-A oracle: Gepner's presentation against the certificate path
and against extraction."""
import pytest

from fusionring import (FieldPoly, alcove_weights, build_root_system, buchberger,
                        extract_presentation, to_polynomial, verify_presentation)
from fusionring.resolution import DEFAULT_PRIMES

from conftest import gepner_generators

KNOWN = [("A1", k) for k in (1, 2, 5)] + [("A2", k) for k in (1, 2, 3)] \
    + [("A3", 1), ("A3", 2), ("A4", 1), ("A4", 2), ("A5", 1), ("A6", 2), ("A7", 2)]


@pytest.mark.parametrize("group, k", KNOWN)
def test_gepner_presentation_certifies(group, k):
    # the engine's only certificates in 4 to 7 variables
    rs = build_root_system(group)
    report = verify_presentation(rs, k, gepner_generators(rs.rank, k))
    count = len(alcove_weights(rs, k))
    assert report.passed and report.codim_q == count == report.alcove_count
    assert report.codim_fp == dict.fromkeys(DEFAULT_PRIMES, count)


@pytest.mark.parametrize("group, k", [("A1", k) for k in range(1, 11)]
                         + [("A2", k) for k in (1, 2, 3)])
def test_extracted_and_gepner_sets_have_one_reduced_basis(group, k):
    # both certify the fusion ideal, so over Q and every default prime the
    # reduced Groebner bases agree
    rs = build_root_system(group)
    extracted = [to_polynomial(rs, g).terms
                 for g in extract_presentation(rs, k).generators]
    gepner = [to_polynomial(rs, g).terms for g in gepner_generators(rs.rank, k)]
    for p in (None, *DEFAULT_PRIMES):
        assert buchberger([FieldPoly(rs.rank, g, p) for g in extracted]) == \
            buchberger([FieldPoly(rs.rank, g, p) for g in gepner])
