"""Sparse integer row echelon for lattice-membership and solving.

Rows are dicts mapping totally ordered hashable column keys (twisted
passes int label codes) to integers; each stored row owns the largest
column of its support as pivot, with a positive pivot entry.  All row operations
are unimodular, so the stored rows span exactly the lattice generated by
the inserted rows, and triangular back-reduction decides membership.

A row may carry a tag vector (meta) that follows every row operation, so
each stored meta records the stored row as a combination of the inserted
tags; reduce with want_combination solves over them.  Only insert changes
the stored rows: reduce and contains read them.
"""
from __future__ import annotations

from .sparse import addmul


class ZEchelon:
    """Online integer echelon with optional combination tracking."""

    def __init__(self):
        self.rows = {}  # pivot column -> (vector, meta)

    def insert(self, vec, meta=None) -> bool:
        """Add a row to the lattice.  Returns False if it was dependent."""
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
                # remainder is a smaller positive pivot: swap and keep going
                if vec[col] < 0:
                    vec = {k: -v for k, v in vec.items()}
                    meta = {k: -v for k, v in meta.items()}
                self._reduce_tail(vec, meta, col)
                self.rows[col] = (vec, meta)
                vec, meta = pvec, pmeta
        return False

    def _reduce_tail(self, vec, meta, col):
        """Bring each entry of vec below col at a stored pivot into
        [0, pivot), highest column first.  A row a swap stores is a
        Euclid combination of two rows; unreduced, its tail grows with
        each swap and passes the growth on to every row reduced against
        it, until the entries run to millions of bits."""
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

    def reduce(self, vec, want_combination=False):
        """Back-reduce a vector against the lattice.

        Returns the residual vector, or (residual, combination) when
        combination tracking is requested; combination c satisfies
        vec = residual + sum over stored-row metas of c.
        """
        vec = {k: v for k, v in vec.items() if v}
        combo = {}
        while vec:
            col = max(vec)
            row = self.rows.get(col)
            if row is None or vec[col] % row[0][col] != 0:
                break  # this column can never be cleared: not in the lattice
            q = vec[col] // row[0][col]
            addmul(vec, row[0], -q)
            if want_combination:
                addmul(combo, row[1], q)
        if want_combination:
            return vec, combo
        return vec

    def contains(self, vec) -> bool:
        return not self.reduce(vec)
