"""Traced runs: wrap fusionring's public kernels from outside the package.

Every target is rebound in each ``fusionring`` module that holds it, so calls
made inside a module are counted as well as calls through the package.  A
call stack gives self time: a call's duration minus the time its traced
callees took.

Two kinds of target exist.  A *span* target (an orchestration function)
opens a span record with its own id, parent and timestamps.  A *kernel*
target (a hot function, called up to millions of times) is only aggregated,
as calls, self time, inclusive time and a flag count, into the innermost
open span, so the trace stays small.  The benchmark opens one span per
operation with :meth:`Tracer.operation`; spans of one operation share its
id as their ``op``.
"""
from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (module, attribute path, kind, flag).  The flag names what the kernel's
# flag count records; see _FLAGS.
TARGETS = (
    ("rootdata", "full_weights", "kernel", "cache_hit"),
    ("rootdata", "shifted_dominant_reduce", "kernel", None),
    ("repring", "tensor_product", "kernel", None),
    ("repring", "to_polynomial", "kernel", None),
    ("fusion", "fold", "kernel", None),
    ("fusion", "fold_weight", "kernel", "is_none"),
    ("fusion", "fusion_table", "span", None),
    ("fusion", "verlinde_numeric_check", "span", None),
    ("twisted", "regularize_affine", "kernel", "is_none"),
    ("twisted", "find_module_basis", "span", None),
    ("twisted", "census", "span", None),
    ("intlinalg", "ZEchelon.insert", "kernel", "is_false"),
    ("intlinalg", "ZEchelon.reduce", "kernel", None),
    ("intlinalg", "ZEchelon.absorb_unit", "kernel", None),
    ("resolution", "build_complex", "span", None),
    ("resolution", "extract_presentation", "span", None),
    ("resolution", "verify_presentation", "span", None),
    ("resolution", "d_squared_check", "span", None),
    ("resolution", "cokernel_vs_oracle", "span", None),
    ("groebner", "quotient_codimension", "span", None),
    ("groebner", "buchberger", "span", None),
    ("groebner", "normal_form", "kernel", "is_zero"),
    ("groebner", "FieldPoly.leading", "kernel", None),
)


_FLAGS = {
    "is_none": lambda result: result is None,
    "is_false": lambda result: result is False,
    "is_zero": lambda result: result.is_zero(),
}


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "self_s", "kernels")

    def __init__(self, id_, parent, op, name, start):
        self.id = id_
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = None
        self.self_s = 0.0
        self.kernels = {}   # kernel name -> [calls, self_s, incl_s, flagged]

    def to_json_dict(self, origin):
        return {"id": self.id, "parent": self.parent, "op": self.op,
                "name": self.name, "start_s": self.start - origin,
                "end_s": self.end - origin, "self_s": self.self_s,
                "kernels": {k: {"calls": v[0], "self_s": v[1], "incl_s": v[2],
                                "flagged": v[3]} for k, v in self.kernels.items()}}


class Tracer:
    """Installs wrappers on a fusionring package and collects spans."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.root = Span(0, None, None, "root", self.origin)
        self.spans = [self.root]
        self.current = self.root
        # one frame per open traced call: [time covered by traced callees]
        self.stack = [[0.0]]
        self.patches = []
        self.missing = []

    # -- wrapping ---------------------------------------------------------

    def install(self, package_name="fusionring"):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package_name
                                         or n.startswith(package_name + "."))]
        for module_name, path, kind, flag in TARGETS:
            home = sys.modules.get(f"{package_name}.{module_name}")
            owner, attr = self._resolve(home, path)
            if owner is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            original = owner.__dict__[attr]
            name = f"{module_name}.{path}"
            if kind == "span":
                wrapper = self._span_wrapper(name, original)
            else:
                wrapper = self._kernel_wrapper(name, original, flag)
            if "." in path:      # a method: rebinding the class attribute is enough
                self._rebind(owner, attr, original, wrapper)
                continue
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._rebind(module, attr, original, wrapper)

    @staticmethod
    def _resolve(home, path):
        if home is None:
            return None, None
        parts = path.split(".")
        owner = home
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        if parts[-1] not in getattr(owner, "__dict__", {}):
            return None, None
        return owner, parts[-1]

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def _kernel_wrapper(self, name, fn, flag):
        stack = self.stack
        clock = time.perf_counter
        tracer = self
        if flag == "cache_hit":
            # an lru_cache reports its own hits; without one nothing is flagged
            info = getattr(fn, "cache_info", None)

            def call(*args, **kwargs):
                if info is None:
                    return fn(*args, **kwargs), False
                hits = info().hits
                return fn(*args, **kwargs), info().hits != hits
        elif flag is not None:
            test = _FLAGS[flag]

            def call(*args, **kwargs):
                result = fn(*args, **kwargs)
                return result, test(result)
        else:
            def call(*args, **kwargs):
                return fn(*args, **kwargs), False

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            flagged = False
            try:
                result, flagged = call(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                agg = tracer.current.kernels.get(name)
                if agg is None:
                    agg = tracer.current.kernels[name] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += elapsed - frame[0]
                agg[2] += elapsed
                if flagged:
                    agg[3] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _span_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name, op=None):
        parent = self.current
        span = Span(len(self.spans), parent.id, parent.op if op is None else op, name,
                    time.perf_counter())
        self.spans.append(span)
        self.current = span
        frame = [0.0]
        self.stack.append(frame)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            elapsed = span.end - span.start
            self.stack.pop()
            self.stack[-1][0] += elapsed
            span.self_s = elapsed - frame[0]
            self.current = parent

    def operation(self, op_id):
        """Span for one benchmark operation; nested spans inherit its id."""
        return self.span("op", op=op_id)

    # -- results ----------------------------------------------------------

    def totals(self):
        """Aggregate spans and kernels by name over every span but the root.

        Returns {name: [calls, self_s, incl_s, flagged]}.
        """
        out = {}
        for span in self.spans:
            if span is self.root:
                continue
            agg = out.setdefault(span.name, [0, 0.0, 0.0, 0])
            agg[0] += 1
            agg[1] += span.self_s
            agg[2] += span.end - span.start
            for kname, (calls, self_s, incl_s, flagged) in span.kernels.items():
                kagg = out.setdefault(kname, [0, 0.0, 0.0, 0])
                kagg[0] += calls
                kagg[1] += self_s
                kagg[2] += incl_s
                kagg[3] += flagged
        return out

    def to_json_dict(self):
        return {"missing_targets": self.missing,
                "spans": [s.to_json_dict(self.origin) for s in self.spans[1:]]}

