"""The three workloads as streams of cycles of ops, each op with its check.

An op's ``run`` is the timed call into the package; its ``check`` runs
afterwards, untimed, and compares the outputs with the answer the generator
fixed. Calls go through module attributes (``cli.main``, not a name bound
here), so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

from oidcheck import cli, entail, oid_equiv, parser, report

import gen

@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, bool]]  # (verdict, correct)


# -- decide-mix ------------------------------------------------------------------


def _decide(pair: gen.DecidePair):
    q = parser.parse_rule(pair.left)
    q_prime = parser.parse_rule(pair.right)
    equiv = oid_equiv.decide_oid_equiv(q, q_prime)
    texts = [report.render_json(report.equiv_report(equiv))]
    entails = None
    if pair.same_func_pos:
        entails = entail.decide_entails(q, q_prime)
        texts.append(report.render_json(report.entail_report(entails)))
    return equiv.equivalent, None if entails is None else entails.entails, texts


def _check_decide(pair: gen.DecidePair, result) -> tuple[str, bool]:
    equivalent, entails, texts = result
    verdicts = [json.loads(t)["verdict"] for t in texts]
    ok = verdicts[0] == ("equivalent" if equivalent else "not-equivalent")
    if entails is not None:
        ok &= verdicts[1] == ("entails" if entails else "not-entails")
    if pair.rewrite:
        ok &= equivalent and entails is not False
    elif not pair.same_predicates:
        # on the frozen body of the rule lacking a predicate, the other is empty
        ok &= not equivalent
    if equivalent and entails is False:
        ok = False  # oid-equivalence implies entailment
    return "/".join(verdicts), ok


def decide_cycles(seed: int, workdir: Path) -> Iterator[list[Op]]:
    for i in itertools.count():
        pair = gen.decide_pair(seed, i)
        yield [Op("decide", partial(_decide, pair), partial(_check_decide, pair))]


# -- CLI ops -----------------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:  # argparse usage errors
            code = exit_.code
    return code, out.getvalue()


def _check_exit(expected: int, result) -> tuple[str, bool]:
    code, _ = result
    return f"exit {code}", code == expected


def _check_text(expected: str, result) -> tuple[str, bool]:
    code, out = result
    return f"exit {code}", code == 0 and out == expected


def _check_verdict(expected: int, result) -> tuple[str, bool]:
    code, out = result
    if code not in (0, 1):
        return f"exit {code}", False
    verdict = json.loads(out)["verdict"]
    positive = verdict in ("equivalent", "entails")
    return verdict, code == expected and positive == (expected == 0)


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def join_cycles(seed: int, workdir: Path) -> Iterator[list[Op]]:
    for i in itertools.count():
        ops = []
        # one family case and two cross cases, whose ops are cheaper: with
        # equal shares the median would sit on the edge between the shapes
        for j in range(3 * i, 3 * i + 3):
            case = gen.join_case(seed, j)
            rule = _write(workdir / f"case{j % 3}.rules", case.rule)
            facts = _write(workdir / f"case{j % 3}.facts", case.facts)
            ok = _write(workdir / f"case{j % 3}_target_ok.facts", case.target_ok)
            bad = _write(workdir / f"case{j % 3}_target_bad.facts", case.target_bad)
            ops += [
                Op("eval", partial(_cli, ["eval", rule, facts]), partial(_check_text, case.eval_out)),
                Op("chase", partial(_cli, ["chase", rule, facts]),
                   partial(_check_text, case.chase_out)),
                Op("satisfies", partial(_cli, ["satisfies", rule, facts, ok]),
                   partial(_check_exit, 0)),
                Op("satisfies", partial(_cli, ["satisfies", rule, facts, bad]),
                   partial(_check_exit, 1)),
            ]
        yield ops


def search_cycles(seed: int, workdir: Path) -> Iterator[list[Op]]:
    for i in itertools.count():
        ops = []
        for j, pair in enumerate(gen.search_cycle(seed, i)):
            left = _write(workdir / f"pair{j}_left.rules", pair.left)
            right = _write(workdir / f"pair{j}_right.rules", pair.right)
            for command, positive in (("oid-equiv", pair.oid_equiv), ("entails", pair.entails)):
                ops.append(Op(
                    f"{pair.family} {command}",
                    partial(_cli, ["check", command, left, right, "--json"]),
                    partial(_check_verdict, 0 if positive else 1),
                ))
        yield ops


CYCLES = {"decide-mix": decide_cycles, "eval-join": join_cycles, "search-hard": search_cycles}
