"""Sparse integer vectors: finitely supported maps {integer tuple: int}.

Characters in R(G), their images in the fusion ring, invariant-module
elements, polynomials in the fundamental characters and echelon rows are
all such maps.  ``addmul`` is the one add-and-prune loop; ``Sparse`` is the
immutable element type, tagged by the space it lives in.  Zero
coefficients are never stored.  ``to_json`` is the one JSON form of a
report and of everything a report holds.
"""
from __future__ import annotations

from dataclasses import fields

from .errors import InputError


def addmul(target: dict, source: dict, factor: int = 1) -> dict:
    """target += factor * source in place, dropping zeros; returns target."""
    if factor:
        get = target.get
        for k, v in source.items():
            nv = get(k, 0) + factor * v
            if nv:
                target[k] = nv
            else:
                target.pop(k, None)
    return target


class Sparse:
    """Immutable {integer tuple: nonzero int} map in one space.

    Keys are weights.  A subclass declares its space (``_fields``, the names
    of the attributes that tag it, set before ``Sparse.__init__`` runs), the
    message for adding across spaces (``_mismatch``) and, when keys must be
    nonnegative, the message rejecting one (``_negative``, formatted with
    the key).
    """

    __slots__ = ("terms",)
    _fields = ()
    _mismatch = "cannot add elements of different spaces"
    _negative = None

    def __init__(self, terms=None):
        terms = {w: c for w, c in dict(terms or {}).items() if c}
        if self._negative:
            for w in terms:
                if any(x < 0 for x in w):
                    raise InputError(self._negative.format(w))
        self.terms = terms

    def _space(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def _like(self, terms):
        """An element of this space holding terms, which are already clean."""
        out = object.__new__(type(self))
        for f in self._fields:
            setattr(out, f, getattr(self, f))
        out.terms = terms
        return out

    def _combine(self, other, sign):
        if type(other) is not type(self):
            return NotImplemented
        if other._space() != self._space():
            raise InputError(self._mismatch)
        return self._like(addmul(dict(self.terms), other.terms, sign))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, n: int):
        return self._like({w: n * c for w, c in self.terms.items()} if n else {})

    def __eq__(self, other):
        return (type(other) is type(self) and self._space() == other._space()
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self._space(), frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        space = "".join(f"{f}={v}, " for f, v in zip(self._fields, self._space()))
        bits = " + ".join(f"{c}*[{','.join(map(str, w))}]"
                          for w, c in sorted(self.terms.items())) or "0"
        return f"{type(self).__name__}({space}{bits})"

    def to_json_dict(self):
        out = {f: to_json(v) for f, v in zip(self._fields, self._space())}
        out["terms"] = [{"weight": list(w), "coeff": c}
                        for w, c in sorted(self.terms.items())]
        return out


def to_json(value):
    """The JSON form of a value: a report or a ``Sparse`` element gives its
    own (``to_json_dict``); tuples and lists become lists and dict keys
    strings."""
    if isinstance(value, (Report, Sparse)):
        return value.to_json_dict()
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {str(k): to_json(v) for k, v in value.items()}
    return value


class Report:
    """A report dataclass.  Its JSON form maps each field, under its name or
    its ``metadata["json"]``, to the form of its value."""

    def to_json_dict(self):
        return {f.metadata.get("json", f.name): to_json(getattr(self, f.name))
                for f in fields(self)}
