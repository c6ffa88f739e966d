import argparse
import ast
import json
import os
import pkgutil
import random
import stat
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import oidcheck
from oidcheck import cli, oid_equiv
from oidcheck.cli import main
from oidcheck.report import load_schema

FAMILY_RULE = "Family(c,f(x,y)) <- Mother(c,x), Father(c,y).\n"
FAMILY_RULE_G = "Family(c,g(x,y,x)) <- Mother(c,x), Father(c,y).\n"
PARENTS = (
    "Mother(beth,anne). Mother(ben,anne). Mother(eric,claire).\n"
    "Mother(emma,diana). Mother(dave,diana).\n"
    "Father(beth,adam). Father(ben,adam). Father(eric,carl). Father(emma,carl).\n"
)


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate_report(out: str) -> dict:
    report = json.loads(out)
    jsonschema.validate(report, load_schema())
    return report


def test_eval_family(files, capsys):
    rules = files("q.rules", FAMILY_RULE)
    facts = files("i.facts", PARENTS)
    code, out, _ = run(capsys, "eval", rules, facts)
    assert code == 0
    assert out == (
        "Family(ben,f(anne,adam)).\n"
        "Family(beth,f(anne,adam)).\n"
        "Family(emma,f(diana,carl)).\n"
        "Family(eric,f(claire,carl)).\n"
    )


def test_eval_json_schema(files, capsys):
    rules = files("q.rules", FAMILY_RULE)
    facts = files("i.facts", PARENTS)
    code, out, _ = run(capsys, "eval", rules, facts, "--json")
    assert code == 0
    report = validate_report(out)
    assert report["command"] == "eval"
    assert len(report["result"]) == 4


def test_eval_output_file(files, capsys, tmp_path):
    rules = files("q.rules", FAMILY_RULE)
    facts = files("i.facts", PARENTS)
    out_path = tmp_path / "out.xfacts"
    code, out, _ = run(capsys, "eval", rules, facts, "-o", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("Family(ben,f(anne,adam)).")


@pytest.mark.parametrize("command", ["eval", "chase", "flatten", "gen"])
def test_unwritable_output_is_input_error(files, capsys, tmp_path, command):
    rules = files("q.rules", FAMILY_RULE)
    facts = files("i.facts", PARENTS)
    inputs = {"eval": [rules, facts], "chase": [rules, facts], "flatten": [rules], "gen": ["ADD"]}
    (tmp_path / "taken").mkdir()
    for target in (tmp_path / "missing" / "out", tmp_path / "taken"):
        before = set(tmp_path.iterdir())
        code, out, err = run(capsys, command, *inputs[command], "-o", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert set(tmp_path.iterdir()) == before  # no stray temp file


def test_output_file_mode_follows_umask(files, capsys, tmp_path):
    rules = files("q.rules", FAMILY_RULE)
    facts = files("i.facts", PARENTS)
    out_path = tmp_path / "out.xfacts"
    previous = os.umask(0o022)
    try:
        code, _, _ = run(capsys, "eval", rules, facts, "-o", str(out_path))
    finally:
        os.umask(previous)
    assert code == 0
    assert stat.S_IMODE(out_path.stat().st_mode) == 0o644


def test_check_entails_has_no_both_option(files, capsys):
    left = files("q1.rules", FAMILY_RULE)
    right = files("q2.rules", FAMILY_RULE_G)
    with pytest.raises(SystemExit) as exc:
        main(["check", "entails", left, right, "--both"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --both" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["entails", "logical-equiv"])
def test_no_dual_check_is_documented(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "200")  # keep the help line unwrapped
    with pytest.raises(SystemExit):
        main(["check", command, "--help"])
    assert "skip the semantic cross-check" in capsys.readouterr().out


def test_check_oid_equiv_family(files, capsys):
    left = files("q1.rules", FAMILY_RULE)
    right = files("q2.rules", FAMILY_RULE_G)
    code, out, _ = run(capsys, "check", "oid-equiv", left, right, "--json")
    assert code == 0
    report = validate_report(out)
    assert report["verdict"] == "equivalent"
    assert report["witness"]["pi"] == {"x": "x", "y": "y"}


def test_check_oid_equiv_refutation(files, capsys):
    left = files("q1.rules", "T(x,f(y)) <- R(x,y,z).\n")
    right = files("q2.rules", "T(x,f(x,y)) <- R(x,y,z).\n")
    code, out, _ = run(capsys, "check", "oid-equiv", left, right, "--json")
    assert code == 1
    report = validate_report(out)
    assert report["refutation"]["stage"] == "DistinguishedCreation"
    assert report["refutation"]["counterexample"]


def test_check_oid_equiv_malformed_input(files, capsys):
    left = files("q1.rules", "T(x,f(y) <- R(x,y,z).\n")
    right = files("q2.rules", "T(x,f(x,y)) <- R(x,y,z).\n")
    code, _, err = run(capsys, "check", "oid-equiv", left, right)
    assert code == 2
    assert "error:" in err


def test_check_entails_directions(files, capsys):
    left = files("q1.rules", "T(x,f(y)) <- R(x,y,z).\n")
    right = files("q2.rules", "T(x,g(x,y)) <- R(x,y,z).\n")
    code, out, _ = run(capsys, "check", "entails", left, right, "--json")
    assert code == 0
    report = validate_report(out)
    assert report["verdict"] == "entails"
    assert report["witness"]["h"] == {"x": "x", "y": "y", "z": "z"}

    code, out, _ = run(capsys, "check", "entails", right, left, "--json")
    assert code == 1
    report = validate_report(out)
    assert report["counterexample"]["source"]
    assert report["counterexample"]["target"]


def test_check_logical_equiv_not_oid_equivalent(files, capsys):
    left = files("q1.rules", "T(x,f(x)) <- R(x,y,z).\n")
    right = files("q2.rules", "T(x,g(x,y,z)) <- R(x,y,z).\n")
    code, out, _ = run(capsys, "check", "logical-equiv", left, right, "--json")
    assert code == 0
    report = validate_report(out)
    assert report["logicallyEquivalent"] is True
    assert report["oidEquivalent"] is False

    code, out, _ = run(capsys, "check", "logical-equiv", left, right)
    assert "logicallyEquivalent: yes" in out
    assert "oidEquivalent: no" in out


def test_check_logical_equiv(files, capsys):
    left = files("q1.rules", "T(x,f(z1)) <- R(z1,x), R(z1,z2).\n")
    right = files("q2.rules", "T(x,g(z1,z2)) <- R(z1,x), R(z1,z2).\n")
    code, out, _ = run(capsys, "check", "logical-equiv", left, right, "--json")
    assert code == 0
    report = validate_report(out)
    assert report["logicallyEquivalent"] is True


def test_satisfies_exit_codes(files, capsys):
    rules = files("q.rules", FAMILY_RULE)
    source = files("i.facts", PARENTS)
    good = files(
        "j1.facts",
        "Family(beth,jones). Family(ben,jones). Family(eric,simpson). Family(emma,smith).\n",
    )
    bad = files(
        "j3.facts",
        "Family(beth,jones). Family(ben,murphy). Family(eric,simpson). Family(emma,smith).\n",
    )
    code, out, _ = run(capsys, "satisfies", rules, source, good, "--json")
    assert code == 0
    report = validate_report(out)
    assert report["witnessTable"]["anne,adam"] == "jones"

    code, out, _ = run(capsys, "satisfies", rules, source, bad, "--json")
    assert code == 1
    report = validate_report(out)
    assert report["violatingGroup"]["creation"] == ["anne", "adam"]


def test_chase_text_roundtrip(files, capsys):
    rules = files("q.rules", FAMILY_RULE)
    facts = files("i.facts", PARENTS)
    code, out, _ = run(capsys, "chase", rules, facts)
    assert code == 0
    assert "Family(ben,@1)." in out
    assert "% @1 = f(anne,adam)" in out
    # the fact lines plus comment lines still parse as an instance
    from oidcheck.parser import parse_instance

    parsed = parse_instance(out, allow_reserved=True)
    assert len(parsed) == 4


def test_chase_json(files, capsys):
    rules = files("q.rules", FAMILY_RULE)
    facts = files("i.facts", PARENTS)
    code, out, _ = run(capsys, "chase", rules, facts, "--json")
    report = validate_report(out)
    assert report["oidTable"]["@1"] == "f(anne,adam)"


def test_flatten(files, capsys):
    rules = files("q.rules", "T(x,f(y)) <- R(x,y,z).\n")
    code, out, _ = run(capsys, "flatten", rules)
    assert code == 0
    assert out == "T_hat(x,y) <- R(x,y,z).\n"


def test_parse_rules_roundtrip(files, capsys):
    rules = files("q.rules", "% comment\n" + FAMILY_RULE)
    code, out, _ = run(capsys, "parse", rules, "--json")
    assert code == 0
    report = validate_report(out)
    assert report["count"] == 1


def test_parse_bad_file(files, capsys):
    rules = files("q.rules", "T(x,f(y) <- R(x,y,z).\n")
    code, _, err = run(capsys, "parse", rules)
    assert code == 2


def test_gen_add(capsys):
    code, out, _ = run(capsys, "gen", "ADD")
    assert code == 0
    assert out == "T(x,y,f(x,y)) <- B(x,y).\n"


def test_gen_key(capsys):
    code, out, _ = run(capsys, "gen", "GAVBase", "key", "--key", "1")
    assert code == 0
    assert out == "T(x,y,f(x)) <- B(x,y,z,w).\n"


def test_gen_writes_rules_file(capsys, tmp_path):
    out_path = tmp_path / "add.rules"
    code, out, _ = run(capsys, "gen", "ADD", "-o", str(out_path))
    assert code == 0
    from oidcheck.parser import parse_rules

    assert len(parse_rules(out_path.read_text())) == 1


def test_oracle_oid(files, capsys):
    left = files("q1.rules", "T(x,f(y)) <- R(x,y,z).\n")
    right = files("q2.rules", "T(x,f(x,y)) <- R(x,y,z).\n")
    code, out, _ = run(capsys, "oracle", "oid", left, right, "--json")
    assert code == 0
    report = validate_report(out)
    assert report["found"] is True
    assert report["counterexample"]


def test_oracle_oid_not_found(files, capsys):
    left = files("q1.rules", FAMILY_RULE)
    right = files("q1b.rules", FAMILY_RULE)
    code, out, _ = run(capsys, "oracle", "oid", left, right, "--budget", "20", "--json")
    assert code == 1
    report = validate_report(out)
    assert report["found"] is False


def test_oracle_entail(files, capsys):
    left = files("q2.rules", "T(x,f(x,y)) <- R(x,y,z).\n")
    right = files("q1.rules", "T(x,g(y)) <- R(x,y,z).\n")
    code, out, _ = run(capsys, "oracle", "entail", left, right, "--json")
    assert code == 0
    report = validate_report(out)
    assert report["found"] is True


def test_byte_identical_reruns(files, capsys):
    left = files("q1.rules", "T(x,f(y)) <- R(x,y,z).\n")
    right = files("q2.rules", "T(x,f(x,y)) <- R(x,y,z).\n")
    _, out1, _ = run(capsys, "check", "oid-equiv", left, right, "--json")
    _, out2, _ = run(capsys, "check", "oid-equiv", left, right, "--json")
    assert out1 == out2


def test_env_seed_override(files, capsys, monkeypatch):
    monkeypatch.setenv("OIDCHECK_SEED", "7")
    left = files("q1.rules", "T(x,f(y)) <- R(x,y,z).\n")
    right = files("q2.rules", "T(x,f(x,y)) <- R(x,y,z).\n")
    code, out, _ = run(capsys, "check", "oid-equiv", left, right, "--json")
    assert code == 1

    monkeypatch.setenv("OIDCHECK_SEED", "notanumber")
    code, _, err = run(capsys, "check", "oid-equiv", left, right, "--json")
    assert code == 2


def test_seed_free_command_ignores_bad_env_seed(files, capsys, monkeypatch):
    monkeypatch.setenv("OIDCHECK_SEED", "x")
    rules = files("q.rules", FAMILY_RULE)
    facts = files("i.facts", PARENTS)
    code, _, err = run(capsys, "eval", rules, facts)
    assert code == 0
    assert err == ""


def test_routes_disagreeing_on_negative_is_internal_failure(files, capsys, monkeypatch):
    monkeypatch.setattr(oid_equiv, "equiv_via_permutation", lambda pair: ({}, {}, {}))
    left = files("q1.rules", "T(x,f(y)) <- R(x,y,y).\n")
    right = files("q2.rules", "T(x,g(y)) <- R(x,y,z).\n")
    code, out, err = run(capsys, "check", "oid-equiv", left, right)
    assert code == 3
    assert out == ""
    assert "routes disagree" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "eval", "/nonexistent.rules", "/nonexistent.facts")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "{bad}", "{facts}"),
        ("eval", "{rules}", "{bad}"),
        ("parse", "{bad}"),
        ("check", "oid-equiv", "{rules}", "{bad}"),
    ],
)
def test_non_utf8_file_is_input_error(files, capsys, tmp_path, argv):
    # the file that is not UTF-8 read as rules, as facts, and by parse
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"R(a).\xff\n")
    paths = {"rules": files("q.rules", FAMILY_RULE), "facts": files("p.facts", PARENTS), "bad": bad}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {bad}: ") and err.count("\n") == 1


def test_two_rules_in_decision_input(files, capsys):
    left = files("q1.rules", FAMILY_RULE + FAMILY_RULE_G)
    right = files("q2.rules", FAMILY_RULE_G)
    code, _, err = run(capsys, "check", "oid-equiv", left, right)
    assert code == 2


def test_parse_facts_and_xfacts_kinds(files, capsys):
    facts = files("i.facts", "R(b,a). R(a,b). R(a,b).")
    code, out, _ = run(capsys, "parse", facts, "--json")
    assert code == 0
    assert validate_report(out)["count"] == 2

    xfacts = files("j.xfacts", "T(a,f(b)). T(a,f(b)).")
    code, out, _ = run(capsys, "parse", xfacts, "--json")
    assert code == 0
    assert validate_report(out)["count"] == 1

    unknown = files("data.txt", "R(a).")
    code, _, err = run(capsys, "parse", unknown)
    assert code == 2
    code, out, _ = run(capsys, "parse", unknown, "--kind", "facts")
    assert code == 0


def test_cross_file_arity_clash_is_input_error(files, capsys):
    rules = files("q.rules", "T(x,f(y)) <- R(x,y).\n")
    facts = files("i.facts", "R(a,b,c).")
    code, _, err = run(capsys, "eval", rules, facts)
    assert code == 2
    assert "arity" in err


@pytest.mark.parametrize("command, instances", [
    (["eval", "q.rules", "i.facts"], 1),
    (["chase", "q.rules", "i.facts"], 1),
    (["satisfies", "q.rules", "i.facts", "t.facts"], 2),
])
def test_each_loaded_instance_is_scanned_once(files, capsys, monkeypatch, command, instances):
    # one pass per file builds the facts and the arity map; the source keeps
    # only the relations the rule reads, the target every fact
    from oidcheck import model, parser

    scanned, walked = [], []
    scan, walk = parser.parse_instance_arities, model.predicate_arities

    def counting_scan(*args, **kwargs):
        result = scan(*args, **kwargs)
        scanned.append(result[0])
        return result

    def counting_walk(items):
        items = list(items)
        if items and isinstance(items[0], model.Fact):
            walked.append(len(items))
        return walk(items)

    monkeypatch.setattr(parser, "parse_instance_arities", counting_scan)
    monkeypatch.setattr(parser, "predicate_arities", counting_walk)
    monkeypatch.setattr(model, "predicate_arities", counting_walk)
    paths = {
        "q.rules": files("q.rules", FAMILY_RULE),
        "i.facts": files("i.facts", f"Lives(beth,york). {PARENTS}Sibling(ben, beth).\n"),
        "t.facts": files("t.facts", "Family(beth,jones).\n"),
    }
    code, _, _ = run(capsys, *[paths.get(arg, arg) for arg in command])
    assert code in (0, 1)
    assert len(scanned) == instances
    assert walked == []
    assert {f.predicate for f in scanned[0]} == {"Mother", "Father"}
    if instances == 2:
        assert {f.predicate for f in scanned[1]} == {"Family"}


def _with_unread_facts(q, seed):
    """A seeded ``.facts`` text over the body's predicates and three it does
    not read (the head's among them), in shuffled order, with about a fifth
    of the facts written with spaces inside."""
    from oidcheck.model import body_arities
    from oidcheck.oracle import random_instances

    rng = random.Random(seed)
    schema = {**body_arities(q.body), "X": 2, "Y": 1, q.head_predicate: q.head_arity}
    (instance,) = random_instances(schema, 4, 40, count=1, seed=seed)
    facts = sorted(instance, key=lambda f: f.render())
    rng.shuffle(facts)
    lines = [f.render().replace(",", ", ") if rng.random() < 0.2 else f.render() for f in facts]
    return "".join(f"{line}.\n" for line in lines)


@pytest.mark.parametrize("seed", range(20))
def test_unread_facts_change_no_output(files, capsys, monkeypatch, seed):
    # eval, chase and satisfies keep only the relations the rule reads; each
    # output must equal the same command's on the whole instance
    from pairgen import gen_random_query

    from oidcheck import parser
    from oidcheck.evaluation import chase, eval_ocq
    from oidcheck.model import predicate_arities
    from oidcheck.oracle import satisfies_sotgd

    q = gen_random_query(seed, num_atoms=3, num_vars=4, max_arity=2)
    text = _with_unread_facts(q, seed)
    whole = parser.parse_instance(text)
    ground = parser.serialize_instance(chase(q, whole).instance).splitlines(keepends=True)
    target = "".join(ground[1:]).replace("@", "o")
    paths = [files("q.rules", q.render() + "\n"), files("i.facts", text), files("t.facts", target)]
    runs = [["eval", *paths[:2]], ["chase", *paths[:2]], ["satisfies", *paths, "--json"]]
    runs += [[*argv, "--json"] for argv in runs[:2]]
    filtered = [run(capsys, *argv) for argv in runs]

    def load_whole(path, q=None):
        instance = parser.parse_instance(Path(path).read_text(encoding="utf-8"))
        return instance, predicate_arities(instance)

    monkeypatch.setattr(cli, "_load_instance", load_whole)
    assert filtered == [run(capsys, *argv) for argv in runs]
    assert filtered[0][1] == parser.serialize_extended_instance(eval_ocq(q, whole))
    satisfied = satisfies_sotgd(whole, parser.parse_instance(target), q).satisfied
    assert filtered[2][0] == (0 if satisfied else 1)


def test_deep_rule_is_internal_failure_not_verdict(files, capsys, monkeypatch):
    # an exhausted recursion limit anywhere in a decision must not read as a
    # negative verdict; no input exhausts it, so the decider is made to raise it
    def exhausted(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(oid_equiv, "decide_oid_equiv", exhausted)
    left = files("q1.rules", FAMILY_RULE)
    right = files("q2.rules", FAMILY_RULE_G)
    code, out, err = run(capsys, "check", "oid-equiv", left, right)
    assert code == 3
    assert out == ""
    assert err == "error: internal: RecursionError: maximum recursion depth exceeded\n"


def _shuffled_path_pair(files, length):
    """Two rules over one path of ``length`` E atoms, differing only in the
    function symbol, with the variables renamed and the atoms listed in a
    seeded random order, so neither names nor text order follow the path."""
    rng = random.Random(length)
    names = [f"x{i}" for i in range(length + 1)]
    rng.shuffle(names)
    atoms = [f"E({names[i]},{names[i + 1]})" for i in range(length)]
    rng.shuffle(atoms)
    body = ", ".join(atoms)
    left = files("p1.rules", f"T({names[0]},f({names[1]})) <- {body}.\n")
    right = files("p2.rules", f"T({names[0]},g({names[1]})) <- {body}.\n")
    return left, right


# The dual check of ``check entails`` chases the 1,200-atom body with the
# matching engine, which does not end within two minutes there, so only the
# witness path of ``entails`` is timed here.
@pytest.mark.parametrize(
    "command,verdict",
    [(("oid-equiv",), "equivalent"), (("entails", "--no-dual-check"), "entails")],
)
def test_long_shuffled_path_ends_in_a_verdict(files, capsys, command, verdict):
    left, right = _shuffled_path_pair(files, 1200)
    start = time.perf_counter()
    code, out, err = run(capsys, "check", *command, left, right, "--json")
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == verdict
    assert elapsed < 10.0


@pytest.mark.parametrize("length", [40, 200])
def test_long_path_creation_cardinality_ends_in_a_refutation(files, capsys, length):
    # the golden path-10 pair made longer: f over the odd path variables
    # against g(x1), whose per-tuple oid counts on the diagonal instance are
    # 2 ** (length / 2) and 2; only the smaller is counted in full
    body = ", ".join(f"E(x{i},x{i + 1})" for i in range(length))
    creation = ",".join(f"x{i}" for i in range(1, length, 2))
    left = files("p1.rules", f"T(x0,f({creation})) <- {body}.\n")
    right = files("p2.rules", f"T(x0,g(x1)) <- {body}.\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "oid-equiv", left, right, "--json")
    elapsed = time.perf_counter() - start
    assert (code, err) == (1, "")
    refutation = json.loads(out)["refutation"]
    assert refutation["stage"] == "CreationCardinality"
    assert len(refutation["counterexample"]) == 2 * length
    assert elapsed < 5.0


def test_deeply_nested_head_term_is_input_error(files, capsys):
    depth = 5000
    rule = files("deep.rules", f"T(x,{'f(' * depth}x{')' * depth}) <- R(x).\n")
    other = files("q.rules", "T(x,f(x)) <- R(x).\n")
    nested = "f(" * (depth - 1) + "x" + ")" * (depth - 1)
    message = f"error: 1:1: nested function term {nested} inside f(...)\n"
    for argv in (("parse", rule), ("check", "oid-equiv", rule, other)):
        assert run(capsys, *argv) == (2, "", message)


def test_failed_internal_check_is_internal_failure(files, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("internal check failed: routes disagree")

    monkeypatch.setattr(oid_equiv, "decide_oid_equiv", broken)
    left = files("q1.rules", FAMILY_RULE)
    right = files("q2.rules", FAMILY_RULE_G)
    code, out, err = run(capsys, "check", "oid-equiv", left, right, "--json")
    assert code == 3
    assert out == ""
    assert err == "error: internal: AssertionError: internal check failed: routes disagree\n"


def _child(args, preexec_fn=None, **env):
    """Run ``python args`` in a fresh interpreter that imports the same oidcheck
    the suite imported, whether it came from an install or from PYTHONPATH;
    nothing else of the parent environment (OIDCHECK_SEED, PYTHONHASHSEED,
    COLUMNS) reaches it but ``env``. It writes no bytecode cache into the
    sources. ``preexec_fn`` runs in the child before Python starts."""
    import_root = str(Path(oidcheck.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        preexec_fn=preexec_fn,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": import_root,
            "PYTHONDONTWRITEBYTECODE": "1",
            **env,
        },
    )


def test_byte_identical_across_processes(files, tmp_path):
    # hash randomization must not leak into reports
    left = files("q1.rules", "T(x,f(u,v)) <- R(x,u,v), R(x,v,u), S(u,w).\n")
    right = files("q2.rules", "T(x,g(a,b)) <- R(x,a,b), R(x,b,a), S(a,c).\n")
    outputs = []
    for seed in ("1", "4242"):
        proc = _child(
            ["-m", "oidcheck.cli", "check", "oid-equiv", left, right, "--json"],
            PYTHONHASHSEED=seed,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# the sets a clash is found in iterate in an order that depends on the hash seed
ARITY_CLASHES = [
    (
        {"q.rules": "T(x,f(y)) <- R(x,y).\n", "i.facts": "R(a4,b).\nR(c4).\n"},
        ["eval", "q.rules", "i.facts"],
        "error: predicate R used with arity 2 and 1\n",
    ),
    (
        {"q.rules": "T(x,f(y)) <- R(x,y), R(y).\n"},
        ["flatten", "q.rules"],
        "error: 1:1: predicate R used with arity 2 and 1\n",
    ),
    (
        {
            "q1.rules": "T(x,f(y)) <- R(x,y), S(y,x), U(x).\n",
            "q2.rules": "T(x,f(y)) <- R(x), S(y), U(x,y).\n",
        },
        ["check", "oid-equiv", "q1.rules", "q2.rules"],
        "error: predicate R used with arity 2 and 1\n",
    ),
    (
        {"q.rules": "T(x,f(y)) <- R(x,y).\n", "i.facts": "S(a4,b).\nR(a,b).\nS(c4).\n"},
        ["chase", "q.rules", "i.facts"],
        "error: predicate S used with arity 2 and 1\n",
    ),
    # of the target facts that do not fit the head, the first in canonical
    # order is named
    (
        {
            "q.rules": "T(x,f(y)) <- R(x,y).\n",
            "s.facts": "R(a,b).\n",
            "t.facts": "U(a,b). V(a,b). W(c,d). X(e,f). T(a,b).\n",
        },
        ["satisfies", "q.rules", "s.facts", "t.facts"],
        "error: target fact U(a,b) does not match head T/2\n",
    ),
]


@pytest.mark.parametrize("inputs, argv, message", ARITY_CLASHES)
def test_arity_clash_error_is_the_same_under_every_hash_seed(files, inputs, argv, message):
    paths = {name: files(name, text) for name, text in inputs.items()}
    argv = [paths.get(arg, arg) for arg in argv]
    for seed in range(8):
        proc = _child(["-m", "oidcheck.cli", *argv], PYTHONHASHSEED=str(seed))
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


@pytest.mark.parametrize("build", [
    "ConjunctiveQuery(Atom('H', (x,)), frozenset(body))",
    "SkolemQuery('H', (x,), 'f', (y,), frozenset(body), 1)",
], ids=["ConjunctiveQuery", "SkolemQuery"])
def test_conjunctive_query_arity_clash_is_the_same_under_every_hash_seed(build):
    # the body is a set; its clash is named in canonical atom order
    code = (
        "from oidcheck.model import Atom, ConjunctiveQuery, SkolemQuery, Variable\n"
        "x, y, z = map(Variable, 'xyz')\n"
        "body = {Atom('R', (x,)), Atom('R', (x, y)), Atom('S', (y, z)), Atom('S', (z,))}\n"
        "try:\n"
        f"    {build}\n"
        "except Exception as err:\n"
        "    print(type(err).__name__, err)\n"
    )
    for seed in range(8):
        proc = _child(["-c", code], PYTHONHASHSEED=str(seed))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "ArityClashError predicate R used with arity 1 and 2\n"


@pytest.mark.parametrize("argv, message", [
    (["oracle", "oid", "q1", "q2", "--max-domain", "0"], "--max-domain must be at least 1, got 0"),
    (["oracle", "entail", "q1", "q2", "--max-domain", "0"], "--max-domain must be at least 1, got 0"),
    (["check", "oid-equiv", "q1", "q2", "--max-domain", "0"], "--max-domain must be at least 1, got 0"),
    (["check", "oid-equiv", "q1", "q2", "--budget", "-1"], "--budget must be at least 0, got -1"),
    (["oracle", "entail", "q1", "q2", "--budget", "-5"], "--budget must be at least 0, got -5"),
    (["gen", "MA", "--arities", "0,2"], "MA takes 2 source arities of at least 1, got 0,2"),
    (["gen", "ADD", "--arities", "-1"], "ADD takes 1 source arity of at least 1, got -1"),
    (["gen", "ADD", "--arities", "0"], "ADD takes 1 source arity of at least 1, got 0"),
    (["gen", "MA", "--arities", "2"], "MA takes 2 source arities of at least 1, got 2"),
    (["gen", "ADD", "key", "--key", "9"], "key index 9 outside source arity 2"),
    (["gen", "ADD", "all", "--key", "9"], "key indices need the key strategy, not all"),
    (["gen", "ADD", "random", "--key", "1"], "key indices need the key strategy, not random"),
])
def test_out_of_range_number_is_input_error(files, capsys, argv, message):
    paths = {"q1": files("q1.rules", FAMILY_RULE), "q2": files("q2.rules", FAMILY_RULE_G)}
    code, out, err = run(capsys, *[paths.get(arg, arg) for arg in argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_parser_is_built_once_per_process(files, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    rules = files("q.rules", FAMILY_RULE)
    facts = files("i.facts", PARENTS)
    counts = []
    for argv in (["eval", rules, facts], ["check"], ["flatten", rules], ["eval", rules, facts]):
        run(capsys, *argv)
        counts.append(len(built))
    assert counts[0] > 0
    assert counts == counts[:1] * 4


def test_errors_and_help_leave_later_calls_as_in_a_fresh_process(files, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    left = files("q1.rules", FAMILY_RULE)
    right = files("q2.rules", FAMILY_RULE_G)
    facts = files("i.facts", PARENTS)
    for argv in (
        ["check", "entails", left, right, "--json"],
        ["check"],
        ["check", "logical-equiv", "--help"],
        ["eval", left, facts, "--frobnicate"],
        ["eval", left, facts],
    ):
        assert run(capsys, "check")[0] == 2
        assert run(capsys, "check", "entails", "--help")[0] == 0
        fresh = _child(["-m", "oidcheck.cli", *argv], COLUMNS="80")
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_command_replaced_after_first_call_is_the_one_run(files, capsys, monkeypatch):
    left = files("q1.rules", FAMILY_RULE)
    right = files("q2.rules", FAMILY_RULE_G)
    assert main(["check", "entails", left, right]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_check_entails", lambda args: seen.append(args.left) or 7)
    assert main(["check", "entails", left, right]) == 7
    assert seen == [left]


def test_import_builds_no_parser():
    child = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import oidcheck.cli\n"
        "print(len(built))\n"
        "oidcheck.cli.build_parser()\n"
        "print(len(built))\n"
    )
    proc = _child(["-c", child])
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert before == "0"
    assert int(after) > 0


def _command_parsers(parser, path=()):
    """(path, parser) of every command below ``parser``, in help order."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _command_parsers(sub, (*path, name))
            return
    yield path, parser


def test_command_table_and_handlers_agree():
    parsers = dict(_command_parsers(cli.build_parser()))
    assert list(parsers) == [path for path, _, _ in cli.COMMANDS]
    named = [p.get_default("func") for p in parsers.values()]
    assert all(name == "cmd_" + "_".join(path).replace("-", "_")
               for path, name in zip(parsers, named))
    handlers = [name for name, obj in vars(cli).items() if name.startswith("cmd_") and callable(obj)]
    # each path names an existing handler, and each handler exactly one path
    assert sorted(named) == sorted(handlers)


def _limit_address_space_to_1_gb():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_large_max_domain_is_no_crash(files):
    # random instances draw constants from a range; building every constant
    # up to --max-domain ran out of memory. The limit makes a regression fail
    # fast instead of filling the machine's memory.
    rules = files("a.rules", "T(x,f(y)) <- R(x,y).\n")
    argv = ["oracle", "oid", rules, rules, "--max-domain", "100000000", "--budget", "3"]
    proc = _child(["-m", "oidcheck.cli", *argv], preexec_fn=_limit_address_space_to_1_gb)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (1, "")
    assert "found: no" in proc.stdout


def _modules_added(script: str) -> set:
    """The modules that running ``script`` in a fresh interpreter adds to those
    a bare interpreter, started the same way, has loaded; the host's site
    hooks may preload some modules into both."""
    report = "\nimport sys\nprint(sorted(sys.modules))\n"
    bare, loaded = _child(["-c", report]), _child(["-c", script + report])
    assert bare.returncode == 0 and loaded.returncode == 0, loaded.stderr
    bare_modules, loaded_modules = (
        set(ast.literal_eval(proc.stdout.splitlines()[-1])) for proc in (bare, loaded)
    )
    return loaded_modules - bare_modules


DECIDERS = {f"oidcheck.{name}" for name in ("entail", "oid_equiv", "normalize", "oracle")}


def test_import_loads_no_decider_and_no_dataclasses():
    added = _modules_added("import oidcheck.cli")
    assert "oidcheck.cli" in added
    unused = {f"oidcheck.{m}" for m in ("report", "fixtures", "evaluation", "hom")}
    assert not added & (DECIDERS | unused | {"dataclasses"})
    modules = [m.name for m in pkgutil.iter_modules(oidcheck.__path__)]
    added = _modules_added("".join(f"import oidcheck.{name}\n" for name in modules))
    assert DECIDERS <= added
    assert "dataclasses" not in added


def test_eval_loads_no_decider(files):
    rules = files("q.rules", FAMILY_RULE)
    facts = files("i.facts", PARENTS)
    added = _modules_added(f"from oidcheck import cli\ncli.main(['eval', {rules!r}, {facts!r}])")
    assert "oidcheck.evaluation" in added
    assert not added & DECIDERS


def test_entailment_and_satisfaction_load_no_normalization(files):
    # the counterexample builders and the head check live in oracle and model
    left = files("q1.rules", FAMILY_RULE)
    right = files("q2.rules", FAMILY_RULE_G)
    facts = files("i.facts", PARENTS)
    target = files("t.facts", "Family(beth,jones).\n")
    runs = {
        "check entails": ["check", "entails", left, right],
        "satisfies": ["satisfies", left, facts, target],
        "oracle entail": ["oracle", "entail", left, right, "--budget", "20"],
    }
    for name, argv in runs.items():
        added = _modules_added(f"from oidcheck import cli\ncli.main({argv!r})")
        assert "oidcheck.oracle" in added, name
        assert "oidcheck.normalize" not in added, name
        if name == "oracle entail":
            assert "oidcheck.entail" not in added


def test_oracle_loads_no_decider():
    added = _modules_added("import oidcheck.oracle")
    assert "oidcheck.oracle" in added
    assert not added & (DECIDERS - {"oidcheck.oracle"})


def _package_nodes():
    """``(file name, node)`` for every syntax node of the package's modules."""
    for path in sorted(Path(oidcheck.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_no_relative_import_names_a_private_name():
    # each module reaches another only through its public names, and oracle,
    # the independent check, imports no decider
    deciders = {"normalize", "entail", "oid_equiv"}
    for name, node in _package_nodes():
        if not isinstance(node, ast.ImportFrom) or not node.level:
            continue
        names = [alias.name for alias in node.names]
        assert not [n for n in names if n.startswith("_")], (name, node.lineno)
        if name == "oracle.py":
            assert node.module not in deciders and not deciders & set(names)


def test_no_invariant_is_an_assert_statement():
    # ``python -O`` strips assert statements; an invariant raises instead
    found = [(name, node.lineno) for name, node in _package_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_text_report_loads_no_json(files):
    left = files("q1.rules", FAMILY_RULE)
    right = files("q2.rules", FAMILY_RULE_G)
    added = _modules_added(f"from oidcheck import cli\ncli.main(['check', 'entails', {left!r}, {right!r}])")
    assert "oidcheck.report" in added
    assert "json" not in added


# the names ``oidcheck/__init__.py`` imported from its modules before they
# were loaded on first use
PACKAGE_NAMES = {
    "entail": "EntailDecision EntailWitness LogicalEquivalence canonical_colored_instance "
    "check_jd_implication decide_entails decide_entails_semantic decide_logical_equiv",
    "errors": "ArityClashError ArityMismatchError HeadMismatchError InvalidKeyIndexError "
    "OidcheckError ParseError RuleValidationError",
    "evaluation": "MVQuery chase eval_cq eval_mv eval_ocq matchings oid_count",
    "hom": "HomConstraint cq_contained cq_equivalent find_homomorphism mv_homomorphism",
    "model": "Atom ConjunctiveQuery Constant ExtendedFact Fact FuncTerm SkolemQuery Variable "
    "flatten_query freeze_body validate_rule",
    "normalize": "NormalizedPair NormalizeRefutation align_creation align_distinguished "
    "check_creation_profile dedupe_creation_vars normalize_pair",
    "oid_equiv": "EquivDecision EquivWitness decide_oid_equiv equiv_via_mv equiv_via_permutation",
    "oracle": "SatisfactionReport instance_enumerator oid_isomorphic satisfies_sotgd "
    "search_counterexample_entail search_counterexample_oid",
    "parser": "parse_extended_instance parse_instance parse_rule parse_rules "
    "serialize_extended_instance serialize_instance",
}


def test_package_names_resolve_in_a_fresh_interpreter():
    checks = "import importlib, oidcheck\n"
    for module, names in PACKAGE_NAMES.items():
        for name in names.split():
            checks += (
                f"from oidcheck import {name}\n"
                f"assert {name} is oidcheck.{name} is getattr("
                f"importlib.import_module('oidcheck.{module}'), {name!r})\n"
                f"assert {name!r} in dir(oidcheck)\n"
            )
    checks += "assert not hasattr(oidcheck, 'no_such_name')\nprint('ok')\n"
    proc = _child(["-c", checks])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_gen_choices_are_the_fixture_kinds():
    from oidcheck.fixtures import KINDS

    assert cli.PRIMITIVES == KINDS
