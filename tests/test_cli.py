import ast
import hashlib
import json
from pathlib import Path

import fusionring
from fusionring.cli import main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fusion_table_g2_level_one(capsys, tmp_path):
    code, out, _ = run(capsys, ["fusion", "--group", "G2", "--level", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == [[0, 0], [1, 0]]
    assert payload["table"]["(1,0)*(1,0)"] == [[[0, 0], 1], [[1, 0], 1]]
    assert payload["version"]
    assert "csv" not in payload and "primes" not in payload["config"]
    # csv format: a header row, then one row per basis weight
    out_file = tmp_path / "table.csv"
    code = main(["fusion", "--group", "G2", "--level", "1", "--format", "csv",
                 "--out", str(out_file)])
    assert code == 0
    assert out_file.read_bytes() == (
        b',"(0,0)","(1,0)"\r\n'
        b'"(0,0)","[[[0, 0], 1]]","[[[1, 0], 1]]"\r\n'
        b'"(1,0)","[[[1, 0], 1]]","[[[0, 0], 1], [[1, 0], 1]]"\r\n')


def test_fusion_vacuum_table(capsys):
    code, out, _ = run(capsys, ["fusion", "--group", "A1", "--level", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == [[0]]
    assert payload["table"] == {"(0)*(0)": [[[0], 1]]}


def test_json_reports_are_byte_stable(capsys):
    code1, out1, _ = run(capsys, ["census", "--group", "F4"])
    code2, out2, _ = run(capsys, ["census", "--group", "F4"])
    assert code1 == code2 == 0
    assert out1 == out2
    code1, out1, _ = run(capsys, ["fusion", "--group", "G2", "--level", "2"])
    code2, out2, _ = run(capsys, ["fusion", "--group", "G2", "--level", "2"])
    assert out1 == out2
    payload = json.loads(out1)
    assert len(payload["basis"]) == 4 and len(payload["table"]) == 16


def test_json_does_not_depend_on_cpu_count(capsys, monkeypatch):
    import os
    outputs = []
    for cpus in (1, 8):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        code, out, _ = run(capsys, ["census", "--group", "G2"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert "threads" not in json.loads(outputs[0])["config"]


def test_verify_g2_exit_codes(capsys):
    code, out, _ = run(capsys, ["verify-g2", "--level", "1", "--primes", "2,3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["verdict"] == "pass"
    assert payload["config"]["primes"] == [2, 3]
    code, _, err = run(capsys, ["verify-g2", "--level", "0"])
    assert code == 2


def test_invalid_inputs_exit_two(capsys):
    assert run(capsys, ["fusion", "--group", "Z9", "--level", "1"])[0] == 2
    assert run(capsys, ["fusion", "--group", "E9", "--level", "1"])[0] == 2
    assert run(capsys, ["fusion", "--group", "G2", "--level", "-1"])[0] == 2
    assert run(capsys, ["complex", "--group", "G2", "--level", "3",
                        "--truncation", "1"])[0] == 2
    assert run(capsys, ["bases-check", "--group", "A2"])[0] == 2
    # a flag or format the command does not read is rejected, not ignored
    assert run(capsys, ["verify-g2", "--level", "2", "--truncation", "4"])[0] == 2
    assert run(capsys, ["census", "--group", "G2", "--format", "csv"])[0] == 2
    # a tolerance must be finite: nan would fail and inf pass any deviation,
    # and neither is JSON
    assert run(capsys, ["verlinde", "--group", "A1", "--level", "2", "--tol", "nan"])[0] == 2
    assert run(capsys, ["verlinde", "--group", "A1", "--level", "2", "--tol", "inf"])[0] == 2


def test_unwritable_out_exits_two(capsys, tmp_path):
    # an --out that cannot be opened for writing is invalid input (exit 2),
    # not a failed check (exit 1), and names the path
    for target in [tmp_path, tmp_path / "missing" / "report.json"]:
        code, out, err = run(capsys, ["census", "--group", "G2", "--out", str(target)])
        assert code == 2 and not out
        assert f"cannot write {target}" in err


def test_census_command(capsys):
    code, out, _ = run(capsys, ["census", "--group", "E7"])
    assert code == 0
    payload = json.loads(out)
    assert payload["counts_by_twist_order"]["2"]["total"] == 14
    code, out, _ = run(capsys, ["census", "--group", "A5"])
    payload = json.loads(out)
    assert payload["entries"] == []
    code, out, _ = run(capsys, ["census", "--group", "E8"])
    payload = json.loads(out)
    assert payload["counts_by_twist_order"]["2"]["beyond_vertices"] == 25


def test_complex_command(capsys):
    code, out, _ = run(capsys, ["complex", "--group", "G2", "--level", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["complex"]["ranks"] == [6, 18, 12]
    assert payload["complex"]["euler_characteristic"] == 0
    assert payload["d_squared"]["passed"]
    assert payload["cokernel"]["passed"]
    assert payload["cokernel"]["fusion_rank"] == 6
    assert "primes" not in payload["config"]


def test_presentation_command(capsys):
    code, out, _ = run(capsys, ["presentation", "--group", "A1", "--level", "7",
                                "--primes", "2,3,5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["codim_Q"] == 8
    assert payload["report"]["verdict"] == "pass"
    assert payload["config"]["primes"] == [2, 3, 5]


def test_codimension_sentinels(capsys, monkeypatch):
    # a codimension that was never computed is null; an infinite one is
    # "infinite" in the JSON and in the text
    import fusionring.cli as cli
    from fusionring.repring import VirtualCharacter
    for weight, codim in (((0, 0), None), ((4, 0), "infinite")):
        monkeypatch.setattr(cli, "g2_fusion_ideal_generators",
                            lambda k, weight=weight: [VirtualCharacter.irrep(weight)])
        code, out, _ = run(capsys, ["verify-g2", "--level", "2", "--primes", "2"])
        assert code == 1
        report = json.loads(out)["report"]
        assert report["codim_Q"] == codim
        assert report["codim_Fp"] == ({} if codim is None else {"2": codim})
        code, out, _ = run(capsys, ["verify-g2", "--level", "2", "--format", "md"])
        assert f"codim_Q={codim}," in out


def test_bases_check_command(capsys):
    code, out, _ = run(capsys, ["bases-check", "--group", "G2"])
    assert code == 0
    payload = json.loads(out)
    assert [c["module_rank"] for c in payload["checks"]] == [12, 6, 6, 2, 3, 3]
    assert all(c["passed"] for c in payload["checks"])


def test_verlinde_command(capsys):
    code, out, _ = run(capsys, ["verlinde", "--group", "A2", "--level", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["passed"]
    # no golden digest covers verlinde (its float depends on libm), so pin
    # the report's keys and the entry count: 6^3 for the 6 weights of A2 at level 2
    assert set(payload["report"]) == {"group", "level", "tol", "max_abs_deviation",
                                      "entries_checked", "passed"}
    assert payload["report"]["entries_checked"] == 216


def test_internal_limit_exits_three(capsys, monkeypatch):
    from fusionring.errors import InternalLimitError
    import fusionring.cli as cli

    def boom(*args, **kwargs):
        raise InternalLimitError("window too small")

    monkeypatch.setattr(cli, "extract_presentation", boom)
    code, _, err = run(capsys, ["presentation", "--group", "A1", "--level", "2"])
    assert code == 3
    assert "internal limit" in err


def test_internal_limit_messages_name_a_bound():
    # exit 3 means a configured limit was hit, so every message names the
    # bound to raise; anything else is an input error or a bug
    raised = 0
    for path in sorted(Path(fusionring.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) == "InternalLimitError":
                raised += 1
                message = " ".join(map(ast.unparse, node.args))
                assert "level_bound" in message or "lambda_bound" in message, \
                    f"{path.name}:{node.lineno}"
    assert raised


def test_commands_read_exactly_their_options():
    # each command's handler reads every option it declares and no other,
    # apart from --format and --out, which _emit reads; the parser offers
    # each command exactly its declared options and formats
    import inspect
    import fusionring.cli as cli
    parser = cli.build_parser()
    for name, (handler, _, options, formats) in cli.COMMANDS.items():
        nodes = list(ast.walk(ast.parse(inspect.getsource(handler))))
        read = {node.attr for node in nodes if isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "args"}
        assert set(options) <= read, name
        assert read - set(options) <= {"format", "out"}, name
        # the texts handed to _emit are exactly the formats besides JSON
        texts = {kw.arg for node in nodes if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "_emit" for kw in node.keywords}
        assert texts == set(formats) - {"json"}, name
        argv = [name]
        for option in options:
            if cli.OPTIONS[option].get("required"):
                argv += ["--" + option, "G2" if option == "group" else "1"]
        args = parser.parse_args(argv)
        assert set(vars(args)) == {"command", "func", "format", "out", *options}, name
        assert args.func is handler
        for fmt in ("json", "csv", "md"):
            try:
                accepted = parser.parse_args(argv + ["--format", fmt]).format == fmt
            except SystemExit:
                accepted = False
            assert accepted == (fmt in formats), (name, fmt)
    assert set().union(*(c[2] for c in cli.COMMANDS.values())) == set(cli.OPTIONS)


def test_characters_multiply_through_one_factor_rule():
    # outside repring, characters multiply by Klimyk sums, never through
    # tensor_product; the rule for the factor a product expands is one
    # function, and no other code sizes a weight system to choose
    rules = sizes = 0
    for path in sorted(Path(fusionring.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "fewer_weights_first":
                rules += 1
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if path.stem != "repring":
                assert name != "tensor_product", f"{path.name}:{node.lineno}"
            if name == "len" and node.args and isinstance(node.args[0], ast.Call) \
                    and getattr(node.args[0].func, "id", None) == "full_weights":
                sizes += 1
    assert (rules, sizes) == (1, 1)


def test_reports_share_one_serializer():
    # every report is a sparse.Report dataclass written by sparse.to_json;
    # only the mixin, Sparse and the two reports adding a value that no
    # field stores define to_json_dict
    owners = set()
    for path in sorted(Path(fusionring.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef) and item.name == "to_json_dict"
                    for item in node.body):
                owners.add(node.name)
    assert owners == {"Sparse", "Report", "ComplexSpec", "D2Report"}


def test_code_is_generated_only_for_walk_kernels():
    # rootdata.chamber_walk compiles each walk kernel from generated
    # source; nothing else in the package runs exec, eval or compile
    calls = set()
    for path in sorted(Path(fusionring.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) in {"exec", "eval", "compile"}:
                calls.add((path.stem, node.func.id))
    assert calls == {("rootdata", "exec"), ("rootdata", "compile")}


def test_label_codes_and_translation_stay_in_twisted():
    # the basis search owns the label codes, the orbit sums, the
    # translation to the base level and the solves over its tagged
    # echelon: no other module names them or asks reduce for a combination
    private = {"_label_key", "_LabelKeys", "_orbit_sums", "translation_weight"}
    found = set()
    for path in sorted(Path(fusionring.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = {getattr(node, attr, None) for attr in ("id", "attr", "name")}
            found |= {(path.stem, name) for name in names & private}
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "reduce" \
                    and (node.args[1:] or any(kw.arg == "want_combination"
                                              for kw in node.keywords)):
                found.add((path.stem, "reduce"))
    assert {stem for stem, _ in found} == {"twisted"}
    assert {name for _, name in found} == private | {"reduce"}


def test_packed_monomial_keys_stay_in_groebner():
    # the Groebner engine owns its packed monomial keys, their field layout
    # and their guard: no other module names the helpers or the constants
    private = {"_pack", "_unpack", "_guard", "_key_divides", "_key_lcm",
               "_FIELD", "_DEGREE_LIMIT"}
    found = set()
    for path in sorted(Path(fusionring.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = {getattr(node, attr, None) for attr in ("id", "attr", "name")}
            found |= {(path.stem, name) for name in names & private}
    assert {stem for stem, _ in found} == {"groebner"}
    assert {name for _, name in found} == private


def _call_name(node):
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def test_one_s_pair_loop_serves_every_prime():
    # groebner._minimal_bases is the one S-pair loop: it alone adds basis
    # elements, and it runs a whole prime list over the primes' product,
    # so no module forks a run per prime.  resolution asks for Q once and
    # for the prime list once, and builds no polynomial over a prime field
    updates = []
    for path in sorted(Path(fusionring.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                updates += [(path.stem, fn.name) for node in ast.walk(fn)
                            if isinstance(node, ast.Call) and _call_name(node) == "_update"]
    assert updates == [("groebner", "_minimal_bases")]
    path = Path(fusionring.__file__).parent / "resolution.py"
    tree = ast.parse(path.read_text(), str(path))
    engine = {"quotient_codimension", "prime_codimensions", "buchberger", "normal_form"}
    calls = [_call_name(node) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert sorted(name for name in calls if name in engine) == \
        ["prime_codimensions", "quotient_codimension"]
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    for loop in ast.walk(tree):
        if isinstance(loop, loops):
            for node in ast.walk(loop):
                if isinstance(node, ast.Call):
                    assert _call_name(node) not in engine, node.lineno
                    if _call_name(node) == "FieldPoly":
                        assert len(node.args) < 3 and not node.keywords, node.lineno


def test_the_row_operation_log_stays_in_intlinalg():
    # a stored row names a node of its echelon's row-operation log, and
    # only the echelon runs that log: no other module reads an echelon's
    # rows (and so their nodes), log or tags
    private = {"rows", "log", "tags", "_node", "_combination"}
    found = set()
    for path in sorted(Path(fusionring.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.add((path.stem, node.attr))
    assert {stem for stem, _ in found} == {"intlinalg"}
    assert {name for _, name in found} == private


def test_composite_primes_exit_two(capsys):
    for primes in ("4", "2,9", "2147483659"):
        code, _, err = run(capsys, ["verify-g2", "--level", "1", "--primes", primes])
        assert code == 2
        assert "prime" in err


def test_repeated_prime_exits_two(capsys):
    code, out, err = run(capsys, ["verify-g2", "--level", "1", "--primes", "3,2,3"])
    assert code == 2
    assert not out
    assert "prime 3 is repeated" in err


# SHA-256 of the stdout of each command.  The JSON reports are byte-stable,
# so a digest changes only when an output does.  verlinde is left out: its
# float max_abs_deviation depends on the platform's libm.
GOLDEN_CORPUS = (
    ("fusion --group G2 --level 3",
     "2aea47b9c8b43864fd0df0d646ff91f06c10f68c30fbf596c30e6c0a86da3cca"),
    ("census --group E8",
     "d7073a6eac36f85223bf85eaa9c4c481826f8b63d49767c1751584bdd80b1970"),
    ("complex --group A2 --level 2",
     "6c85cd3622d1ad12702cde3a6f503fe2fcdd900c847989a19f25690e50db1bda"),
    ("complex --group B3 --level 1",
     "5dde8b9916421fe2f74ec921224608efbc478d8b58ed6a3819d63a94ef864450"),
    ("presentation --group A1 --level 3",
     "9b2557fd805dfc3b3240653113c6837670798776ecc925c1b95ca959e345fb2f"),
    ("presentation --group B2 --level 1",
     "660c1590fc8809a919c5b197e9a2c080b779060367c5e51557cb342efca1c8a5"),
    ("verify-g2 --level 3",
     "72aac71a3dcd39730c9cd868ef07b66391611a3bca8804c043890a067c1bcb2f"),
    ("bases-check --group G2",
     "72de9f36ce2e0da8e482e960caf94db056c8906ef66490fa2c5df8b31b50cbbf"),
)


def test_golden_corpus(capsys):
    for line, digest in GOLDEN_CORPUS:
        code, out, _ = run(capsys, line.split())
        assert code == 0, line
        assert hashlib.sha256(out.encode()).hexdigest() == digest, line
