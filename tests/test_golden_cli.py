"""Golden CLI output: for a fixed corpus of rule pairs and commands, the
sha256 of each run's exit code, stdout and stderr must match
``golden_cli.txt``.

Regenerate the file with ``python tests/test_golden_cli.py`` from the
repository root (``PYTHONPATH=src`` when the package is not installed).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import FAMILY_NAMES, PARENTS, WORKED_EXAMPLES
from oidcheck.cli import main
from oidcheck.fixtures import KINDS
from pairgen import random_entail_pair, random_equivalent_pair

GOLDEN = Path(__file__).with_name("golden_cli.txt")

_PATH_BODY = ", ".join(f"E(x{i},x{i + 1})" for i in range(10))


def _pairs() -> dict[str, tuple[str, str]]:
    pairs = {f"worked-{name}": texts for name, texts in WORKED_EXAMPLES.items()}
    for seed in range(10):
        pairs[f"entail-pair-{seed}"] = tuple(q.render() for q in random_entail_pair(seed))
        pairs[f"equiv-pair-{seed}"] = tuple(q.render() for q in random_equivalent_pair(seed))
    pairs["path-10"] = (
        f"T(x0,f(x1,x3,x5,x7,x9)) <- {_PATH_BODY}.",
        f"T(x0,g(x1)) <- {_PATH_BODY}.",
    )
    # the oracle's counterexample for this pair is a multiplication instance
    pairs["multiplication"] = (
        "T(v1,f(v3,v2,v1)) <- U(v4,v1,v2), R(v0,v3).",
        "T(u3,g(u3,u4)) <- U(u2,u3,u1), R(u0,u4).",
    )
    return pairs


# every command path, for the help and the usage errors of the CLI surface
COMMAND_PATHS = (
    ("parse",), ("eval",), ("flatten",), ("chase",), ("satisfies",),
    ("check", "oid-equiv"), ("check", "entails"), ("check", "logical-equiv"),
    ("oracle", "oid"), ("oracle", "entail"), ("gen",),
)

_XFACTS = "Family(beth,f(anne,adam)). Family(ben,f(anne,adam)). Family(eric,g(claire))."

# Facts of predicates the family rules do not read, around ``PARENTS``. The
# spaced fact stops the plain-fact scan, so the token parser reads the rest,
# a read fact included.
_UNREAD = (
    "Lives(beth,york). Sibling(beth,ben). Born(ben).\n"
    f"{PARENTS}"
    "Sibling(eric, emma). % spaced\n"
    "Lives(ben,york). Born(dave). Father(dave,bob). Lives(emma,leeds).\n"
)
# Input errors inside unread facts: an arity clash across the two scans, a
# syntax error after such a clash, and a reserved form.
_UNREAD_ERRORS = {
    "clash.facts": f"{PARENTS}Lives(beth,york). Sibling(eric, emma). Lives(ben).",
    "clash-then-syntax.facts": f"{PARENTS}Lives(beth,york). Lives(ben). Born(dave,,x).",
    "reserved.facts": f"{PARENTS}Lives(@1,york).",
}

# Extended facts whose canonical order compares rendered arguments: zero-arity
# facts and terms, a constant beside a function term of the same name, and
# names that share a prefix. The format rejects nested terms and one function
# symbol at two arities, so those shapes are error files.
_XFACTS_ORDER = {
    "order.txt": (
        "R(). Q(). T(f(),a). T(f,a). T(g(a),b). T(g,b). T(g(a1),b). T(g_(a,b),b).\n"
        "T(g1(a),b). T(a,a1). T(a1,a). T(a_,a). T(A,a). T(a,a). T(a,A). T(h(a,b),g(A)).\n"
        "T(h(a1,b),c). T(h(a,b1),c). T(h(A,b),c). T(h(a_,b),c). T(h(a,b),g)."
    ),
    "clash.txt": "T(g(a),b). T(g(a,b),b).",
    "nested.txt": "T(f(g(a),b),c).",
}

# Twelve or more created terms over names that share a prefix, so the chase
# numbers past ``@9`` and lists ``@10`` before ``@2``; and a created term whose
# distinguished tuples find no target value, one value and two values.
_CHASE_ORDER = {
    "q.rules": "T(x,f(y)) <- R(x,y).",
    "first.rules": "T(f(y,x)) <- R(x,y).",
    "names.facts": (
        "R(k,a). R(k,a1). R(k,a_). R(k,A). R(k,A1). R(k,a10). R(k,a2). R(k,aa).\n"
        "R(k,b). R(k,B). R(k,a_1). R(k,b1). R(m,a)."
    ),
    "group.facts": "R(k,a). R(m,a). R(n,a). R(k,b).",
    "violated.facts": "T(k,c1). T(k,c2). T(m,c1).",
    "satisfied.facts": "T(k,c1). T(k,c2). T(m,c1). T(m,c2). T(n,c2).",
}

PAIR_COMMANDS = (
    ("check", "oid-equiv", "--json"),
    ("check", "entails", "--json"),
    ("check", "logical-equiv", "--json"),
    ("oracle", "oid", "--json", "--budget", "100"),
    ("oracle", "entail", "--json", "--budget", "100"),
)

# One rule against rules whose heads differ from it: in the predicate, and in
# the arity.
_HEAD_MISMATCH = {
    "q.rules": "T(x,f(y)) <- R(x,y).",
    "other-predicate.rules": "S(x,f(y)) <- R(x,y).",
    "other-arity.rules": "T(x,z,f(y)) <- R(x,y), R(y,z).",
}


def _runs(case: str) -> tuple[dict[str, str], list[list[str]]]:
    """The input files of a case and the argument lists run on them."""
    if case == "cli-surface":
        q1, q2 = WORKED_EXAMPLES["family"]
        files = {"both.rules": f"{q1}\n{q2}", "parents.facts": PARENTS, "family.xfacts": _XFACTS}
        runs = [["--help"], ["check", "--help"], ["oracle", "--help"]]
        runs += [[*path, "--help"] for path in COMMAND_PATHS]
        runs += [["check"], ["oracle"], [], ["frobnicate"], ["eval"], ["gen"]]
        for name in files:
            runs += [["parse", name], ["parse", name, "--json"]]
        runs += [["gen", kind] for kind in KINDS]
        runs += [
            ["gen", "ADL", "key", "--key", "1"],
            ["gen", "MA", "random", "--arities", "3,2", "--seed", "5", "--json"],
            ["gen", "ADD", "--key", "1,x"],
            ["gen", "ADD", "--arities", "two"],
        ]
        return files, runs
    if case == "family-eval":
        q1, q2 = WORKED_EXAMPLES["family"]
        files = {"q1.rules": q1, "q2.rules": q2, "parents.facts": PARENTS}
        files.update({f"{name}.facts": text for name, text in FAMILY_NAMES.items()})
        runs = []
        for rules in ("q1.rules", "q2.rules"):
            for flags in ([], ["--json"]):
                runs.append(["eval", rules, "parents.facts", *flags])
                runs.append(["chase", rules, "parents.facts", *flags])
            for name in FAMILY_NAMES:
                runs.append(["satisfies", rules, "parents.facts", f"{name}.facts", "--json"])
        return files, runs
    if case == "family-unread":
        q1, q2 = WORKED_EXAMPLES["family"]
        files = {"q1.rules": q1, "q2.rules": q2, "unread.facts": _UNREAD, **_UNREAD_ERRORS}
        files.update({f"{name}.facts": text for name, text in FAMILY_NAMES.items()})
        runs = [["parse", "unread.facts"], ["parse", "unread.facts", "--json"]]
        for rules in ("q1.rules", "q2.rules"):
            for flags in ([], ["--json"]):
                runs.append(["eval", rules, "unread.facts", *flags])
                runs.append(["chase", rules, "unread.facts", *flags])
            for name in FAMILY_NAMES:
                runs.append(["satisfies", rules, "unread.facts", f"{name}.facts", "--json"])
        for name in _UNREAD_ERRORS:
            runs.append(["eval", "q1.rules", name])
            runs.append(["chase", "q1.rules", name, "--json"])
            runs.append(["satisfies", "q1.rules", name, "varied.facts"])
            runs.append(["satisfies", "q1.rules", "unread.facts", name])
        return files, runs
    if case == "xfacts-order":
        runs = [["parse", "--kind", "xfacts", name, *flags]
                for name in _XFACTS_ORDER for flags in ([], ["--json"])]
        return dict(_XFACTS_ORDER), runs
    if case == "head-mismatch":
        runs = []
        for other in ("other-predicate.rules", "other-arity.rules"):
            for first, second in (("q.rules", other), (other, "q.rules")):
                for command in PAIR_COMMANDS:
                    for flags in (command[2:], [f for f in command[2:] if f != "--json"]):
                        runs.append([*command[:2], first, second, *flags])
        return dict(_HEAD_MISMATCH), runs
    if case == "chase-order":
        runs = []
        for rules in ("q.rules", "first.rules"):
            for facts in ("names.facts", "group.facts"):
                for flags in ([], ["--json"]):
                    runs.append(["eval", rules, facts, *flags])
                    runs.append(["chase", rules, facts, *flags])
        for target in ("violated.facts", "satisfied.facts"):
            for flags in ([], ["--json"]):
                runs.append(["satisfies", "q.rules", "group.facts", target, *flags])
        runs.append(["satisfies", "q.rules", "names.facts", "satisfied.facts", "--json"])
        return dict(_CHASE_ORDER), runs
    left, right = _pairs()[case]
    files = {"q1.rules": left, "q2.rules": right}
    runs = [["flatten", "q1.rules"], ["flatten", "q2.rules"]]
    for first, second in (("q1.rules", "q2.rules"), ("q2.rules", "q1.rules")):
        for command in PAIR_COMMANDS:
            runs.append([*command[:2], first, second, *command[2:]])
    return files, runs


CASES = [
    *_pairs(), "family-eval", "family-unread", "xfacts-order", "head-mismatch", "chase-order",
    "cli-surface",
]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:  # --help and argparse usage errors
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def _digest(code: int, out: str, err: str) -> str:
    h = hashlib.sha256()
    for part in (str(code), out, err):
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def actual_outputs(case: str) -> dict[str, tuple[int, str, str]]:
    """``case<TAB>argv`` -> (exit code, stdout, stderr), run in a fresh
    directory on relative file names, with the default seed and help text
    wrapped at 80 columns."""
    files, runs = _runs(case)
    here = os.getcwd()
    seed = os.environ.pop("OIDCHECK_SEED", None)
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            for name, text in files.items():
                Path(name).write_text(text + "\n", encoding="utf-8")
            return {f"{case}\t{' '.join(argv)}": _run(argv) for argv in runs}
    finally:
        os.chdir(here)
        if seed is not None:
            os.environ["OIDCHECK_SEED"] = seed
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def _golden() -> dict[str, str]:
    entries = {}
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        key, digest = line.rsplit("\t", 1)
        entries[key] = digest
    return entries


@pytest.mark.parametrize("case", CASES)
def test_golden_cli(case):
    expected = {k: v for k, v in _golden().items() if k.split("\t", 1)[0] == case}
    outputs = actual_outputs(case)
    actual = {key: _digest(*result) for key, result in outputs.items()}
    assert actual.keys() == expected.keys()
    wrong = [key for key in actual if actual[key] != expected[key]]
    for key in wrong:
        code, out, err = outputs[key]
        print(f"== {key}\nexit {code}\n-- stdout\n{out}-- stderr\n{err}")
    assert not wrong, f"output differs from {GOLDEN.name}: {wrong}"


# Interns the (class, name) pairs read from stdin in the given order, with an
# allocation of a term's size between terms, then prints the golden digest
# line of every run of the corpus.
_INTERN_THEN_RUN = """
import json, sys
from oidcheck.model import Constant, Variable
spacers = []
for kind, name in json.load(sys.stdin):
    (Variable if kind == "v" else Constant)(name)
    spacers.append((name,))
import test_golden_cli as golden
for case in golden.CASES:
    for key, result in golden.actual_outputs(case).items():
        print(f"{key}\t{golden._digest(*result)}")
"""


def _corpus_terms() -> list[tuple[str, str]]:
    """Every identifier of the corpus files and the names ``x``, ``d``, ``v``
    and ``@`` numbered 0-40, with the forms the deciders derive from a name,
    as (kind, name) pairs in reverse name order."""
    names = {f"{p}{i}" for p in "xdv@" for i in range(41)}
    for case in CASES:
        for text in _runs(case)[0].values():
            names.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
    terms = set()
    for n in names:
        for form in (n, f"{n}_1", f"{n}_2", f"{n}^0", f"{n}^1"):
            terms.update({("v", form), ("c", form)})
        terms.update({("c", f"frz:{n}"), ("c", f"{n}#0"), ("c", f"{n}#1")})
    return sorted(terms, key=lambda t: (t[1], t[0]), reverse=True)


def test_golden_cli_after_interning_in_reverse_order():
    # Terms hash by address, so set order follows the order in which a process
    # first built each name. A rerun in one process reuses the same objects;
    # this child builds every name of the corpus first, in reverse name order.
    import oidcheck

    import_root = Path(oidcheck.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _INTERN_THEN_RUN],
        input=json.dumps(_corpus_terms()),
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": os.pathsep.join([str(import_root), str(GOLDEN.parent)]),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    actual = dict(line.rsplit("\t", 1) for line in proc.stdout.splitlines())
    expected = _golden()
    assert actual.keys() == expected.keys()
    assert [key for key in actual if actual[key] != expected[key]] == []


if __name__ == "__main__":
    lines = []
    for case in CASES:
        for key, result in actual_outputs(case).items():
            lines.append(f"{key}\t{_digest(*result)}\n")
    GOLDEN.write_text("".join(lines), encoding="utf-8")
    print(f"wrote {len(lines)} entries to {GOLDEN}")
