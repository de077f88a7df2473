"""Command-line reports for every capability of the package.

Exit codes: 0 success and all checks passed, 1 a verification check
failed, 2 invalid input, 3 an internal bound was exceeded.  JSON output is
byte-stable for a fixed configuration.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__
from .errors import InputError, InternalLimitError
from .fusion import fusion_table, verlinde_numeric_check
from .groebner import check_prime
from .resolution import (DEFAULT_PRIMES, build_complex, cokernel_vs_oracle,
                         d_squared_check, extract_presentation,
                         g2_fusion_ideal_generators, verify_presentation)
from .rootdata import alcove_weights, build_root_system
from .twisted import census, verify_module_basis

# the six module bases of the rank-two exceptional group, with face, level
# and expected rank; coordinate 1 is the short fundamental weight.  The two
# vertex modules through the affine node are verified at their base level;
# translation along the face normal gives the basis at any other level of
# the same parity class.
G2_MODULE_BASES = (
    ("R[T]", (), 0, ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
                     (2, -1), (2, 0), (2, 1), (3, -1), (3, 0), (3, 1)), 12),
    ("R[U(2)_short]", (1,), 0, ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)), 6),
    ("R[U(2)_long]", (2,), 0, ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (-2, 2)), 6),
    ("R[SU(3)]", (0, 2), 0, ((0, 0), (-1, 0)), 2),
    ("R[SO(4)] even level", (0, 1), 0, ((0, 0), (1, -1), (0, -1)), 3),
    ("R_1[SO(4)] odd level", (0, 1), 1, ((0, 0), (1, 0), (1, -1)), 3),
)


def _emit(args, payload: dict, **texts):
    """Write the JSON payload, or the text of the chosen format; a file
    that cannot be written is invalid input."""
    if args.format == "json":
        out = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        out = texts[args.format]
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(out)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(out)


def _base_payload(args, group: str, level=None) -> dict:
    cfg = {"group": group, "format": args.format}
    if level is not None:
        cfg["level"] = level
    if getattr(args, "primes", None):
        cfg["primes"] = list(args.primes)
    if getattr(args, "truncation", None) is not None:
        cfg["truncation"] = args.truncation
    return {"tool": "fusionring", "version": __version__, "config": cfg}


def _weight_str(w):
    return "(" + ",".join(map(str, w)) + ")"


def cmd_fusion(args) -> int:
    rs = build_root_system(args.group)
    table = fusion_table(rs, args.level)
    basis = alcove_weights(rs, args.level)
    names = [_weight_str(w) for w in basis]
    cells = {f"{a}*{b}": sorted([list(w), c] for w, c in table[(x, y)].terms.items())
             for x, a in zip(basis, names) for y, b in zip(basis, names)}
    payload = _base_payload(args, str(rs.lie_type), args.level)
    payload.update({"basis": [list(w) for w in basis], "table": cells})
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([""] + names)
    for a in names:
        writer.writerow([a] + [json.dumps(cells[f"{a}*{b}"]) for b in names])
    md = ["| * | " + " | ".join(names) + " |", "|" + "---|" * (len(names) + 1)]
    for a in names:
        row = [" + ".join(f"{c}{_weight_str(w)}" for w, c in cells[f"{a}*{b}"]) or "0"
               for b in names]
        md.append(f"| {a} | " + " | ".join(row) + " |")
    _emit(args, payload, csv=buf.getvalue(), md="\n".join(md) + "\n")
    return 0


def cmd_verify_g2(args) -> int:
    rs = build_root_system("G2")
    gens = g2_fusion_ideal_generators(args.level)
    report = verify_presentation(rs, args.level, gens, primes=args.primes)
    payload = _base_payload(args, "G2", args.level)
    payload["report"] = report.to_json_dict()
    text = (f"G2 level {args.level}: verdict {report.verdict}, "
            f"codim_Q={report.codim_q}, alcove={report.alcove_count}\n")
    _emit(args, payload, md=text)
    return 0 if report.passed else 1


def cmd_census(args) -> int:
    rs = build_root_system(args.group)
    entries = census(rs)
    orders = {}
    for e in entries:
        bucket = orders.setdefault(e.twist_order, {"total": 0, "beyond_vertices": 0})
        bucket["total"] += 1
        if len(e.subset) < rs.rank:
            bucket["beyond_vertices"] += 1
    payload = _base_payload(args, str(rs.lie_type))
    payload.update({"entries": [e.to_json_dict() for e in entries],
                    "counts_by_twist_order": {str(k): v for k, v in sorted(orders.items())}})
    lines = [f"twisted modules of {rs.lie_type}: {len(entries)}"]
    for e in entries:
        lines.append(f"  S={list(e.subset)} type={e.centralizer_type} "
                     f"twist={e.twist_order} rank={e.module_rank}")
    _emit(args, payload, md="\n".join(lines) + "\n")
    return 0


def cmd_complex(args) -> int:
    rs = build_root_system(args.group)
    spec = build_complex(rs, args.level)
    d2 = d_squared_check(rs, args.level, level_bound=args.truncation)
    cok = cokernel_vs_oracle(rs, args.level, level_bound=args.truncation)
    payload = _base_payload(args, str(rs.lie_type), args.level)
    payload.update({"complex": spec.to_json_dict(), "d_squared": d2.to_json_dict(),
                    "cokernel": cok.to_json_dict()})
    ok = d2.passed and cok.passed
    text = (f"{rs.lie_type} level {args.level}: ranks={list(spec.ranks)} "
            f"euler={spec.euler_characteristic()} d2={'ok' if d2.passed else 'FAIL'} "
            f"cokernel={'ok' if cok.passed else 'FAIL'} rank={cok.fusion_rank}\n")
    _emit(args, payload, md=text)
    return 0 if ok else 1


def cmd_presentation(args) -> int:
    rs = build_root_system(args.group)
    if rs.rank > 2:
        raise InputError("presentation extraction is desk-scale, rank 2 at most")
    extraction = extract_presentation(rs, args.level, level_bound=args.truncation)
    report = verify_presentation(rs, args.level, extraction.generators,
                                 primes=args.primes)
    payload = _base_payload(args, str(rs.lie_type), args.level)
    payload.update({"extraction": extraction.to_json_dict(),
                    "report": report.to_json_dict()})
    text = (f"{rs.lie_type} level {args.level}: {len(extraction.generators)} generators "
            f"(bound {extraction.generator_bound}), verdict {report.verdict}, "
            f"codim_Q={report.codim_q}\n")
    _emit(args, payload, md=text)
    return 0 if report.passed else 1


def cmd_bases_check(args) -> int:
    if args.group.upper() != "G2":
        raise InputError("the module-basis table is specific to G2")
    rs = build_root_system("G2")
    results = []
    ok = True
    for name, subset, level, labels, rank in G2_MODULE_BASES:
        rep = verify_module_basis(rs, subset, level, labels,
                                  level_bound=args.truncation)
        ok = ok and rep.passed and rep.module_rank == rank
        results.append((name, rep))
    payload = _base_payload(args, "G2")
    payload["checks"] = [{"name": name, **rep.to_json_dict()} for name, rep in results]
    lines = [f"{name}: rank {rep.module_rank} "
             f"{'pass' if rep.passed else 'FAIL ' + rep.failure}"
             for name, rep in results]
    _emit(args, payload, md="\n".join(lines) + "\n")
    return 0 if ok else 1


def cmd_verlinde(args) -> int:
    rs = build_root_system(args.group)
    report = verlinde_numeric_check(rs, args.level, tol=args.tol)
    payload = _base_payload(args, str(rs.lie_type), args.level)
    payload["report"] = report.to_json_dict()
    text = (f"{rs.lie_type} level {args.level}: max deviation "
            f"{report.max_abs_deviation:.3e} ({'pass' if report.passed else 'FAIL'})\n")
    _emit(args, payload, md=text)
    return 0 if report.passed else 1


def _prime_list(text: str):
    try:
        return tuple(check_prime(int(x)) for x in text.split(","))
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# every option a command can take, as passed to add_argument
OPTIONS = {
    "group": {"required": True, "help": "series plus rank, e.g. G2"},
    "level": {"type": int, "required": True},
    "primes": {"type": _prime_list, "default": DEFAULT_PRIMES},
    "truncation": {"type": int, "default": None,
                   "help": "level_bound of the truncated checks"},
    "tol": {"type": float, "default": 1e-6},
}

# command: (handler, help, the options it reads, its formats); every
# command also takes --format and --out
COMMANDS = {
    "fusion": (cmd_fusion, "full fusion table at one level",
               ("group", "level"), ("json", "csv", "md")),
    "verify-g2": (cmd_verify_g2, "verify the G2 fusion-ideal generators",
                  ("level", "primes"), ("json", "md")),
    "census": (cmd_census, "twisted representation-module census",
               ("group",), ("json", "md")),
    "complex": (cmd_complex, "resolution ranks, d^2 and cokernel checks",
                ("group", "level", "truncation"), ("json", "md")),
    "presentation": (cmd_presentation, "extract and verify a presentation",
                     ("group", "level", "primes", "truncation"), ("json", "md")),
    "bases-check": (cmd_bases_check, "verify the G2 module bases",
                    ("group", "truncation"), ("json", "md")),
    "verlinde": (cmd_verlinde, "numeric Verlinde cross-check",
                 ("group", "level", "tol"), ("json", "md")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionring",
        description="exact fusion rings of loop groups, with verification reports")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, options, formats) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options:
            p.add_argument("--" + option, **OPTIONS[option])
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", default=None)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalLimitError as exc:
        print(f"internal limit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
