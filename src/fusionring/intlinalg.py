"""Sparse integer row echelon for lattice-membership and solving.

Rows are dicts mapping totally ordered hashable column keys (twisted
passes int label codes) to integers; each stored row owns the largest
column of its support as pivot, with a positive pivot entry.  All row operations
are unimodular, so the stored rows span exactly the lattice generated by
the inserted rows, and triangular back-reduction decides membership.

A row may carry a tag vector.  Tags do not follow the row operations:
each stored row names a node, a numbered row version, and every row
operation that involves a tagged row appends one entry node = a - q * b
to a log (a negation is node = 0 - 1 * a), so the log records each stored
row as a product of elementary operations on the inserted rows (the
product form of the inverse).  reduce with want_combination puts its
weights on the nodes of the stored rows and runs the log backwards once,
down to the tags of the inserted rows.  Untagged rows add nothing to a
combination, so an echelon that never received a tag keeps no log.  Only
insert changes the stored rows: reduce and contains read them.
"""
from __future__ import annotations

from .sparse import addmul


class ZEchelon:
    """Online integer echelon with optional combination tracking."""

    def __init__(self):
        self.rows = {}  # pivot column -> (vector, node); node None: no tag
        self.log = []   # node -> (a, b, q) of a - q*b, None at a tag
        self.tags = {}  # node of an inserted tagged row -> its tag

    def _node(self, a, b, q):
        """The node of a - q * b, where a node None is the zero
        combination; logs an entry only when the result is a new version
        of a tagged row."""
        if b is None or not q:
            return a
        self.log.append((a, b, q))
        return len(self.log) - 1

    def insert(self, vec, tag=None) -> bool:
        """Add a row to the lattice.  Returns False if it was dependent."""
        vec = {k: v for k, v in vec.items() if v}
        node = None
        if tag:
            node = len(self.log)
            self.log.append(None)
            self.tags[node] = dict(tag)
        rows = self.rows
        while vec:
            col = max(vec)
            if col not in rows:
                if vec[col] < 0:
                    vec = {k: -v for k, v in vec.items()}
                    node = self._node(None, node, 1)
                rows[col] = (vec, node)
                return True
            pvec, pnode = rows[col]
            q = vec[col] // pvec[col]
            addmul(vec, pvec, -q)
            node = self._node(node, pnode, q)
            if col in vec:
                # the remainder, in (0, pivot), is a smaller positive
                # pivot: swap and keep going
                rows[col] = (vec, self._reduce_tail(vec, node, col))
                vec, node = pvec, pnode
        return False

    def _reduce_tail(self, vec, node, col):
        """Bring each entry of vec below col at a stored pivot into
        [0, pivot), highest column first, and return the node of the
        result.  A row a swap stores is a Euclid combination of two rows;
        unreduced, its tail grows with each swap and passes the growth on
        to every row reduced against it, until the entries run to millions
        of bits."""
        rows = self.rows
        while True:
            col = max((c for c in vec if c < col and c in rows), default=None)
            if col is None:
                return node
            pvec, pnode = rows[col]
            q = vec[col] // pvec[col]
            if q:
                addmul(vec, pvec, -q)
                node = self._node(node, pnode, q)

    def reduce(self, vec, want_combination=False):
        """Back-reduce a vector against the lattice.

        Returns the residual vector, or (residual, combination) when
        combination tracking is requested; combination c satisfies
        vec = residual + sum over the inserted rows' tags of c.
        """
        vec = {k: v for k, v in vec.items() if v}
        weights = {}
        while vec:
            col = max(vec)
            row = self.rows.get(col)
            if row is None or vec[col] % row[0][col] != 0:
                break  # this column can never be cleared: not in the lattice
            q = vec[col] // row[0][col]
            addmul(vec, row[0], -q)
            if want_combination and row[1] is not None:
                weights[row[1]] = weights.get(row[1], 0) + q
        if want_combination:
            return vec, self._combination(weights)
        return vec

    def _combination(self, weights):
        """Run the log backwards from the weighted nodes: each entry
        node = a - q * b passes its weight w on as w to a and -q * w to b,
        and each tag collects its inserted row's weight."""
        w = [0] * (max(weights, default=-1) + 1)
        for node, x in weights.items():
            w[node] = x
        combo = {}
        for node in range(len(w) - 1, -1, -1):
            x = w[node]
            if x and self.log[node] is None:
                addmul(combo, self.tags[node], x)
            elif x:
                a, b, q = self.log[node]
                if a is not None:
                    w[a] += x
                w[b] -= q * x
        return combo

    def contains(self, vec) -> bool:
        return not self.reduce(vec)
