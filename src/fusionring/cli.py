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
from .rootdata import LieType, alcove_weights, build_root_system
from .sparse import to_json
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


def _weight_str(w):
    return "(" + ",".join(map(str, w)) + ")"


# Each handler returns (passed, fields, texts): whether its checks passed,
# its payload entries with the reports as they are, and the text of each
# format besides JSON.  main writes the chosen format.

def cmd_fusion(args):
    rs = build_root_system(args.group)
    table = fusion_table(rs, args.level)
    basis = alcove_weights(rs, args.level)
    names = [_weight_str(w) for w in basis]
    cells = {f"{a}*{b}": sorted([list(w), c] for w, c in table[(x, y)].terms.items())
             for x, a in zip(basis, names) for y, b in zip(basis, names)}
    buf = io.StringIO()
    csv.writer(buf).writerows([[""] + names] + [
        [a] + [json.dumps(cells[f"{a}*{b}"]) for b in names] for a in names])
    md = ["| * | " + " | ".join(names) + " |", "|" + "---|" * (len(names) + 1)]
    for a in names:
        row = [" + ".join(f"{c}{_weight_str(w)}" for w, c in cells[f"{a}*{b}"]) or "0"
               for b in names]
        md.append(f"| {a} | " + " | ".join(row) + " |")
    return True, {"basis": basis, "table": cells}, {
        "csv": buf.getvalue(), "md": "\n".join(md) + "\n"}


def cmd_verify_g2(args):
    gens = g2_fusion_ideal_generators(args.level)
    report = verify_presentation(build_root_system("G2"), args.level, gens,
                                 primes=args.primes)
    text = (f"G2 level {args.level}: verdict {report.verdict}, "
            f"codim_Q={report.codim_q}, alcove={report.alcove_count}\n")
    return report.passed, {"report": report}, {"md": text}


def cmd_census(args):
    rs = build_root_system(args.group)
    entries = census(rs)
    orders = {}
    for e in entries:
        bucket = orders.setdefault(e.twist_order, {"total": 0, "beyond_vertices": 0})
        bucket["total"] += 1
        if len(e.subset) < rs.rank:
            bucket["beyond_vertices"] += 1
    text = "".join([f"twisted modules of {rs.lie_type}: {len(entries)}\n"] + [
        f"  S={list(e.subset)} type={e.centralizer_type} "
        f"twist={e.twist_order} rank={e.module_rank}\n" for e in entries])
    return True, {"entries": entries, "counts_by_twist_order": orders}, {"md": text}


def cmd_complex(args):
    rs = build_root_system(args.group)
    spec = build_complex(rs, args.level)
    d2 = d_squared_check(rs, args.level, level_bound=args.truncation)
    cok = cokernel_vs_oracle(rs, args.level, level_bound=args.truncation)
    text = (f"{rs.lie_type} level {args.level}: ranks={list(spec.ranks)} "
            f"euler={spec.euler_characteristic()} d2={'ok' if d2.passed else 'FAIL'} "
            f"cokernel={'ok' if cok.passed else 'FAIL'} rank={cok.fusion_rank}\n")
    return d2.passed and cok.passed, {"complex": spec, "d_squared": d2,
                                      "cokernel": cok}, {"md": text}


def cmd_presentation(args):
    rs = build_root_system(args.group)
    if rs.rank > 2:
        raise InputError("presentation extraction is desk-scale, rank 2 at most")
    extraction = extract_presentation(rs, args.level, level_bound=args.truncation)
    report = verify_presentation(rs, args.level, extraction.generators,
                                 primes=args.primes)
    text = (f"{rs.lie_type} level {args.level}: {len(extraction.generators)} generators "
            f"(bound {extraction.generator_bound}), verdict {report.verdict}, "
            f"codim_Q={report.codim_q}\n")
    return report.passed, {"extraction": extraction, "report": report}, {"md": text}


def cmd_bases_check(args):
    rs = build_root_system(args.group)
    if rs.lie_type != LieType("G", 2):
        raise InputError("the module-basis table is specific to G2")
    checks, lines, ok = [], [], True
    for name, subset, level, labels, rank in G2_MODULE_BASES:
        rep = verify_module_basis(rs, subset, level, labels,
                                  level_bound=args.truncation)
        ok = ok and rep.passed and rep.module_rank == rank
        checks.append({"name": name, **rep.to_json_dict()})
        lines.append(f"{name}: rank {rep.module_rank} "
                     f"{'pass' if rep.passed else 'FAIL ' + rep.failure}\n")
    return ok, {"checks": checks}, {"md": "".join(lines)}


def cmd_verlinde(args):
    rs = build_root_system(args.group)
    report = verlinde_numeric_check(rs, args.level, tol=args.tol)
    text = (f"{rs.lie_type} level {args.level}: max deviation "
            f"{report.max_abs_deviation:.3e} ({'pass' if report.passed else 'FAIL'})\n")
    return report.passed, {"report": report}, {"md": text}


def _write(args, fields: dict, texts: dict):
    """Write the JSON payload, or the text of the chosen format, to stdout
    or --out; a file that cannot be written is invalid input.  The config
    records the group (G2 for verify-g2, the one command without --group)
    and the options that select the computation."""
    if args.format == "json":
        config = {"group": str(LieType.parse(getattr(args, "group", "G2"))),
                  "format": args.format}
        for option in ("level", "primes", "truncation"):
            if getattr(args, option, None) is not None:
                config[option] = getattr(args, option)
        payload = {"tool": "fusionring", "version": __version__, "config": config, **fields}
        out = json.dumps(to_json(payload), sort_keys=True, indent=2) + "\n"
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
        passed, fields, texts = args.func(args)
        _write(args, fields, texts)
        return 0 if passed else 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalLimitError as exc:
        print(f"internal limit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
