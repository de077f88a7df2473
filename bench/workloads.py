"""The benchmark's workloads: which operations each one runs, and how each
operation's output is reduced to a verdict and a digest.

The module imports nothing from fusionring; the child passes the imported
package in as ``api``, so that loading this file stays out of the set-up
time.  Only ``checks`` uses the seed: it draws the membership queries.
"""
from __future__ import annotations

import hashlib
import json
import random

# Root systems each workload builds during set-up.
ROOT_SYSTEMS = {
    "extract": ("A1", "A2", "B2", "G2"),
    "certify": ("G2",),
    "checks": ("G2", "A2", "A3", "B3", "E8"),
}

# Operation parameters per size.  "tiny" is what the self-test runs.
SIZES = {
    "full": {
        "extract": [("A1", k) for k in range(1, 11)] + [("A2", k) for k in range(1, 4)]
                   + [("B2", k) for k in range(1, 3)] + [("G2", 1)],
        "certify": list(range(1, 9)),
        "checks": {"fusion_table": [("G2", 10), ("A2", 10)],
                   "verlinde": [("G2", 10)],
                   "complex": [("A3", 3), ("B3", 2)],
                   "census": ["E8"],
                   "query_levels": range(1, 9), "queries_per_level": 6},
    },
    "tiny": {
        "extract": [("A1", 1), ("A1", 2)],
        "certify": [1, 2],
        "checks": {"fusion_table": [("G2", 2)],
                   "verlinde": [("G2", 2)],
                   "complex": [("A2", 1)],
                   "census": ["G2"],
                   "query_levels": range(1, 3), "queries_per_level": 2},
    },
}

# Highest coordinate of the random dominant weight a generator is multiplied by.
QUERY_WEIGHT_MAX = 4


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Op:
    """One operation: ``run()`` calls the program, ``judge(result)`` returns
    (verdict, payload to digest or None).  ``expect`` is set for operations
    whose answer is known by construction; the rest are checked against the
    golden corpus."""

    __slots__ = ("id", "run", "judge", "expect")

    def __init__(self, id_, run, judge, expect=None):
        self.id = id_
        self.run = run
        self.judge = judge
        self.expect = expect


def _report(report):
    return "ok", report.to_json_dict()


def _verified(report):
    return str(getattr(report, "verdict", report.passed)), report.to_json_dict()


def _advisory(report):
    # max_abs_deviation is a float and only advisory: gate on the flag alone
    return str(report.passed), None


def _table(table):
    return "ok", {"|".join(",".join(map(str, w)) for w in pair): elem.to_json_dict()
                  for pair, elem in table.items()}


def _census(entries):
    return "ok", [e.to_json_dict() for e in entries]


def _boolean(answer):
    return str(answer), None


def operations(api, workload, size="full", seed=0):
    """Yield the workload's operations in order.

    Later operations may depend on earlier results (``verify`` checks the
    generators ``extract`` produced), so the list is consumed lazily.
    """
    spec = SIZES[size][workload]
    rs = api.build_root_system
    if workload == "extract":
        for group, k in spec:
            out = {}

            def extract(group=group, k=k, out=out):
                out["report"] = api.extract_presentation(rs(group), k)
                return out["report"]

            yield Op(f"extract/{group}/{k}", extract, _report)
            if "report" in out:
                gens = out["report"].generators
                yield Op(f"verify/{group}/{k}",
                         lambda group=group, k=k, gens=gens:
                         api.verify_presentation(rs(group), k, gens,
                                                 primes=api.DEFAULT_PRIMES),
                         _verified)
    elif workload == "certify":
        for k in spec:
            yield Op(f"certify/G2/{k}",
                     lambda k=k: api.verify_presentation(
                         rs("G2"), k, api.g2_fusion_ideal_generators(k),
                         primes=api.DEFAULT_PRIMES),
                     _verified)
    elif workload == "checks":
        yield from _checks(api, spec, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _checks(api, spec, seed):
    rs = api.build_root_system
    for group, k in spec["fusion_table"]:
        yield Op(f"fusion_table/{group}/{k}",
                 lambda group=group, k=k: api.fusion_table(rs(group), k), _table)
    for group, k in spec["verlinde"]:
        yield Op(f"verlinde/{group}/{k}",
                 lambda group=group, k=k: api.verlinde_numeric_check(rs(group), k),
                 _advisory)
    for group, k in spec["complex"]:
        yield Op(f"complex/{group}/{k}",
                 lambda group=group, k=k: api.build_complex(rs(group), k), _report)
        yield Op(f"d_squared/{group}/{k}",
                 lambda group=group, k=k: api.d_squared_check(rs(group), k), _verified)
        yield Op(f"cokernel/{group}/{k}",
                 lambda group=group, k=k: api.cokernel_vs_oracle(rs(group), k),
                 _verified)
    for group in spec["census"]:
        yield Op(f"census/{group}", lambda group=group: api.census(rs(group)), _census)
    g2 = rs("G2")
    for n, (k, character, member) in enumerate(
            membership_queries(api, seed, spec["query_levels"],
                               spec["queries_per_level"])):
        yield Op(f"query/G2/{k}/{n}",
                 lambda k=k, c=character: api.in_fusion_ideal(g2, c, k),
                 _boolean, expect=str(member))


def membership_queries(api, seed, levels, per_level):
    """Seeded G2 membership queries whose answers are known by construction.

    Members are g * irrep(lam) for a fusion-ideal generator g and a random
    dominant lam: folding is a ring map, so they fold to zero.  Non-members
    are irreps of random alcove weights, which fold to themselves.
    """
    rng = random.Random(seed)
    g2 = api.build_root_system("G2")
    irrep = api.VirtualCharacter.irrep
    queries = []
    for k in levels:
        gens = api.g2_fusion_ideal_generators(k)
        alcove = api.alcove_weights(g2, k)
        for _ in range(per_level):
            lam = (rng.randint(0, QUERY_WEIGHT_MAX), rng.randint(0, QUERY_WEIGHT_MAX))
            queries.append((k, api.tensor_product(g2, rng.choice(gens), irrep(lam)), True))
        for _ in range(per_level):
            queries.append((k, irrep(rng.choice(alcove)), False))
    rng.shuffle(queries)
    return queries
