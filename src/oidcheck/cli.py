"""Batch command-line interface.

Exit codes: 0 for a positive verdict (or plain success), 1 for a negative
verdict, 2 for any input or usage error, 3 for an internal failure (a failed
internal check or an exhausted recursion limit). Identical inputs and seed
produce byte-identical output. ``OIDCHECK_SEED`` overrides the default of
``--seed``. Commands are declared in ``COMMANDS``; the command at path
``check oid-equiv`` runs as ``cmd_check_oid_equiv``.

Importing this module loads no other module of the package but ``errors``:
each command imports what it runs when it runs, so a process pays only for
the deciders its command uses.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import OidcheckError

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


def _default_seed() -> int:
    env = os.environ.get("OIDCHECK_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise OidcheckError(f"OIDCHECK_SEED must be an integer, got {env!r}")
    return 0


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise OidcheckError(f"cannot read {path}: {err.strerror}")
    except UnicodeDecodeError as err:
        raise OidcheckError(f"cannot read {path}: {err}")


def _load_rule(path: str):
    from .parser import parse_rule
    return parse_rule(_read(path))


def _load_instance(path: str, q=None):
    """The instance in ``path`` and its arity map. Given a rule ``q``, the
    instance holds only the facts of the predicates its body reads; every
    fact is still checked."""
    from .parser import parse_instance_arities
    keep = None if q is None else {a.predicate for a in q.body}
    return parse_instance_arities(_read(path), keep=keep)


def _check_arities(q, arities) -> None:
    """Raise if the rule's body uses a predicate with another arity than
    ``arities``; the body is taken in canonical order, so the error names the
    same predicate in every run."""
    from .model import body_arities, merge_arities
    merge_arities(body_arities(q.body), arities)


def _load_pair(args):
    from .model import body_arities
    q, q_prime = _load_rule(args.left), _load_rule(args.right)
    _check_arities(q, body_arities(q_prime.body))
    return q, q_prime


def _search_options(args) -> dict:
    """``--max-domain``, ``--budget`` and the seed as keyword arguments."""
    if args.max_domain < 1:
        raise OidcheckError(f"--max-domain must be at least 1, got {args.max_domain}")
    if args.budget < 0:
        raise OidcheckError(f"--budget must be at least 0, got {args.budget}")
    return {"max_domain": args.max_domain, "budget": args.budget, "seed": args.seed}


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    import contextlib
    import tempfile
    # write once, atomically, with the mode a plain open would give
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.realpath(out)))
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, out)
    except OSError as err:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise OidcheckError(f"cannot write {out}: {err.strerror}")


def _emit(rep: dict, args, out: str | None = None) -> None:
    from . import report
    text = report.render_json(rep) if args.json else report.render_text(rep)
    _write_output(text, out)


# -- subcommand implementations ------------------------------------------------


def cmd_parse(args) -> int:
    from . import parser, report
    text = _read(args.file)
    kind = args.kind or os.path.splitext(args.file)[1].lstrip(".")
    if kind == parser.RULE_EXTENSION.lstrip("."):
        rules = parser.parse_rules(text)
        canonical = [q.render() for q in rules]
    elif kind == parser.FACT_EXTENSION.lstrip("."):
        instance = parser.parse_instance(text)
        canonical = parser.serialize_instance(instance).splitlines()
    elif kind == parser.XFACT_EXTENSION.lstrip("."):
        instance = parser.parse_extended_instance(text)
        canonical = parser.serialize_extended_instance(instance).splitlines()
    else:
        raise OidcheckError(f"cannot infer input kind of {args.file}; pass --kind")
    rep = report.artifact_report("parse", kind=kind, count=len(canonical), canonical=canonical)
    _emit(rep, args)
    return EXIT_POSITIVE


def cmd_eval(args) -> int:
    from .evaluation import eval_ocq
    from .parser import serialize_extended_instance
    q = _load_rule(args.rules)
    instance, arities = _load_instance(args.facts, q)
    _check_arities(q, arities)
    result = eval_ocq(q, instance)
    if args.json:
        from . import report
        rep = report.artifact_report("eval", result=report.instance_lines(result))
        _emit(rep, args, args.output)
    else:
        _write_output(serialize_extended_instance(result), args.output)
    return EXIT_POSITIVE


def cmd_flatten(args) -> int:
    from .model import flatten_query
    q = _load_rule(args.rules)
    flat = flatten_query(q)
    if args.json:
        from . import report
        rep = report.artifact_report("flatten", rules=[flat.render()])
        _emit(rep, args, args.output)
    else:
        _write_output(flat.render() + "\n", args.output)
    return EXIT_POSITIVE


def cmd_chase(args) -> int:
    from .evaluation import chase
    from .model import render_term
    from .parser import serialize_instance
    q = _load_rule(args.rules)
    instance, arities = _load_instance(args.facts, q)
    _check_arities(q, arities)
    result = chase(q, instance)
    ordered = sorted(result.oid_table.items(), key=lambda kv: kv[1].name)
    if args.json:
        from . import report
        rep = report.artifact_report(
            "chase",
            result=report.instance_lines(result.instance),
            oidTable={c.name: render_term(oid) for oid, c in ordered},
        )
        _emit(rep, args, args.output)
    else:
        lines = serialize_instance(result.instance)
        notes = "".join(f"% {c.name} = {render_term(oid)}\n" for oid, c in ordered)
        _write_output(lines + notes, args.output)
    return EXIT_POSITIVE


def cmd_satisfies(args) -> int:
    from . import oracle, report
    q = _load_rule(args.rules)
    source, arities = _load_instance(args.source, q)
    target, _ = _load_instance(args.target)
    _check_arities(q, arities)
    result = oracle.satisfies_sotgd(source, target, q)
    _emit(report.satisfies_report(result), args)
    return EXIT_POSITIVE if result.satisfied else EXIT_NEGATIVE


def cmd_check_oid_equiv(args) -> int:
    from . import report
    from .oid_equiv import decide_oid_equiv
    q, q_prime = _load_pair(args)
    decision = decide_oid_equiv(q, q_prime, **_search_options(args))
    _emit(report.equiv_report(decision), args)
    return EXIT_POSITIVE if decision.equivalent else EXIT_NEGATIVE


def cmd_check_entails(args) -> int:
    from . import report
    from .entail import decide_entails
    q, q_prime = _load_pair(args)
    decision = decide_entails(q, q_prime, dual_check=not args.no_dual_check)
    _emit(report.entail_report(decision), args)
    return EXIT_POSITIVE if decision.entails else EXIT_NEGATIVE


def cmd_check_logical_equiv(args) -> int:
    from . import report
    from .entail import decide_logical_equiv
    from .oid_equiv import decide_oid_equiv
    q, q_prime = _load_pair(args)
    both = decide_logical_equiv(q, q_prime, dual_check=not args.no_dual_check)
    oid_equivalent = decide_oid_equiv(q, q_prime, search_counterexamples=False).equivalent
    _emit(report.logical_equiv_report(both, oid_equivalent), args)
    return EXIT_POSITIVE if both.equivalent else EXIT_NEGATIVE


def cmd_oracle_oid(args) -> int:
    from . import oracle, report
    q, q_prime = _load_pair(args)
    found = oracle.search_counterexample_oid(q, q_prime, **_search_options(args))
    rep = report.artifact_report(
        "oracle-oid",
        found=found is not None,
        counterexample=report.instance_lines(found) if found is not None else None,
    )
    _emit(rep, args)
    return EXIT_POSITIVE if found is not None else EXIT_NEGATIVE


def cmd_oracle_entail(args) -> int:
    from . import oracle, report
    q, q_prime = _load_pair(args)
    found = oracle.search_counterexample_entail(q, q_prime, **_search_options(args))
    if found is not None:
        source, target = found
        rep = report.artifact_report(
            "oracle-entail",
            found=True,
            source=report.instance_lines(source),
            target=report.instance_lines(target),
        )
    else:
        rep = report.artifact_report("oracle-entail", found=False)
    _emit(rep, args)
    return EXIT_POSITIVE if found is not None else EXIT_NEGATIVE


def _int_list(args, option: str) -> tuple[int, ...]:
    """The comma-separated integers given to ``--<option>``, if any."""
    text = getattr(args, option)
    if not text:
        return ()
    try:
        return tuple(int(a) for a in text.split(","))
    except ValueError:
        raise OidcheckError(f"bad --{option} value {text!r}")


def cmd_gen(args) -> int:
    from . import fixtures
    spec = fixtures.PrimitiveSpec(
        kind=args.primitive,
        skolem=args.skolem,
        arities=_int_list(args, "arities"),  # read first, so its error comes first
        key_indices=_int_list(args, "key"),
        seed=args.seed,
    )
    rule = fixtures.gen_primitive(spec)
    if args.json:
        from . import report
        _emit(report.artifact_report("gen", rule=rule.render()), args, args.output)
    else:
        _write_output(rule.render() + "\n", args.output)
    return EXIT_POSITIVE


# -- argument parsing -----------------------------------------------------------


def _arg(*flags, **options) -> tuple:
    """The arguments of one ``add_argument`` call."""
    return flags, options


# ``fixtures.KINDS``, named here so that building the parser imports no fixtures
PRIMITIVES = ("GAVBase", "ADD", "ADL", "MA")

JSON = _arg("--json", action="store_true", help="emit a JSON report")
OUTPUT = _arg("-o", "--output")
PAIR = (
    _arg("left", help="rule file with exactly one rule"),
    _arg("right", help="rule file with exactly one rule"),
)
DUAL_CHECK = _arg("--no-dual-check", action="store_true",
                  help="skip the semantic cross-check of a positive verdict")
SEARCH = (
    _arg("--seed", type=int, help="seed for randomized search (default 0 or OIDCHECK_SEED)"),
    _arg("--max-domain", type=int, default=4, help="largest domain for counterexample search"),
    _arg("--budget", type=int, default=2000, help="number of random instances tried"),
)

# (path, help, arguments) of every command, in help order
COMMANDS = (
    (("parse",), "validate a file and echo its canonical form",
     (_arg("file"), _arg("--kind", choices=["rules", "facts", "xfacts"]), JSON)),
    (("eval",), "evaluate a rule over an instance", (_arg("rules"), _arg("facts"), OUTPUT, JSON)),
    (("flatten",), "print the flattened classical query", (_arg("rules"), OUTPUT, JSON)),
    (("chase",), "evaluate and ground created terms to fresh constants",
     (_arg("rules"), _arg("facts"), OUTPUT, JSON)),
    (("satisfies",), "does (source, target) satisfy the rule as a mapping?",
     (_arg("rules"), _arg("source"), _arg("target"), JSON)),
    (("check", "oid-equiv"), "decide oid-equivalence", (*PAIR, *SEARCH, JSON)),
    (("check", "entails"), "decide logical entailment", (*PAIR, DUAL_CHECK, JSON)),
    (("check", "logical-equiv"), "decide entailment in both directions",
     (*PAIR, DUAL_CHECK, JSON)),
    (("oracle", "oid"), "search an instance separating two queries", (*PAIR, *SEARCH, JSON)),
    (("oracle", "entail"), "search a pair satisfying one query but not the other",
     (*PAIR, *SEARCH, JSON)),
    (("gen",), "emit a benchmark-primitive rule", (
        _arg("primitive", choices=PRIMITIVES),
        _arg("skolem", nargs="?", default="all", choices=["all", "key", "random"]),
        _arg("--key", help="comma-separated 1-based key positions"),
        _arg("--arities", help="comma-separated source arities"),
        _arg("--seed", type=int), OUTPUT, JSON)),
)

GROUP_HELP = {"check": "decision procedures", "oracle": "brute-force counterexample search"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once, on first use. ``main`` dispatches by the name of the
    ``cmd_*`` function, so one replaced on the module later still runs."""
    top = argparse.ArgumentParser(
        prog="oidcheck",
        description="decide oid-equivalence and logical entailment of "
        "object-creating conjunctive queries",
    )
    subparsers = {(): top.add_subparsers(dest="command", required=True)}
    for path, help_text, arguments in COMMANDS:
        group = path[:-1]
        if group not in subparsers:
            (name,) = group
            subparsers[group] = subparsers[()].add_parser(
                name, help=GROUP_HELP[name]
            ).add_subparsers(dest=f"{name}_command", required=True)
        p = subparsers[group].add_parser(path[-1], help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func="cmd_" + "_".join(path).replace("-", "_"))
    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # read the environment only for commands that take a seed
        if "seed" in vars(args) and args.seed is None:
            args.seed = _default_seed()
        return globals()[args.func](args)
    except OidcheckError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    # only these two: anything else, such as a caller's alarm, passes through
    except (AssertionError, RecursionError) as err:
        print(f"error: internal: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
