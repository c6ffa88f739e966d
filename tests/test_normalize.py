import pytest

from conftest import brute_oid_isomorphic
from oidcheck.errors import HeadMismatchError
from oidcheck.evaluation import eval_ocq, oid_count
from oidcheck.model import Variable, frozen_constant, predicate_arities
from oidcheck.normalize import (
    CREATION_CARDINALITY,
    DISTINGUISHED_CREATION,
    DISTINGUISHED_PATTERN,
    FUNCTION_POSITION,
    NormalizedPair,
    NormalizeRefutation,
    align_creation,
    align_distinguished,
    check_creation_profile,
    dedupe_creation_vars,
    normalize_pair,
)
from oidcheck.oracle import oid_isomorphic, random_instances
from oidcheck.parser import parse_rule


def test_dedupe_triple_to_pair(family_q_prime):
    deduped = dedupe_creation_vars(family_q_prime)
    assert [v.name for v in deduped.creation] == ["x", "y"]
    assert deduped.func_symbol != family_q_prime.func_symbol
    assert deduped.body == family_q_prime.body


def test_dedupe_noop(family_q):
    assert dedupe_creation_vars(family_q) is family_q


def test_dedupe_all_same():
    q = parse_rule("T(x,f(z,z,z)) <- R(x,z).")
    deduped = dedupe_creation_vars(q)
    assert [v.name for v in deduped.creation] == ["z"]


def test_dedupe_preserves_oid_equivalence(family_q_prime, parents):
    deduped = dedupe_creation_vars(family_q_prime)
    before = eval_ocq(family_q_prime, parents)
    after = eval_ocq(deduped, parents)
    assert oid_isomorphic(before, after) is not None
    assert brute_oid_isomorphic(before, after)


def test_align_distinguished_identity(family_q, family_q_prime):
    aligned = align_distinguished(family_q, family_q_prime)
    assert aligned.distinguished == family_q.distinguished
    # c maps to c: it stays at the head of every body atom
    assert {a.args[0] for a in aligned.body} == {Variable("c")}


def test_align_distinguished_refutes_non_function():
    q = parse_rule("T(x,x,f(y)) <- R(x,y).")
    q_prime = parse_rule("T(x,y,f(y)) <- R(x,y).")
    outcome = align_distinguished(q, q_prime)
    assert isinstance(outcome, NormalizeRefutation)
    assert outcome.stage == DISTINGUISHED_PATTERN


def test_align_distinguished_refutes_non_injective():
    q = parse_rule("T(x,y,f(y)) <- R(x,y).")
    q_prime = parse_rule("T(x,x,f(y)) <- R(x,y).")
    outcome = align_distinguished(q, q_prime)
    assert isinstance(outcome, NormalizeRefutation)
    assert outcome.stage == DISTINGUISHED_PATTERN


def test_align_distinguished_plain_renaming():
    q = parse_rule("T(u,v,f(u)) <- R(u,v).")
    q_prime = parse_rule("T(p,q,g(p)) <- R(p,q).")
    aligned = align_distinguished(q, q_prime)
    assert aligned.distinguished == (Variable("u"), Variable("v"))
    # p and q are renamed onto u and v
    assert aligned.body == q.body


def test_align_distinguished_avoids_capture():
    # q_prime reuses the name x for a non-distinguished variable
    q = parse_rule("T(x,f(y)) <- R(x,y).")
    q_prime = parse_rule("T(u,g(x)) <- R(u,x).")
    aligned = align_distinguished(q, q_prime)
    assert aligned.distinguished == (Variable("x"),)
    # the old x of q_prime was freshened away, not captured
    assert len(aligned.variables) == 2
    assert Variable("x") in aligned.variables


def test_align_distinguished_head_mismatch():
    q = parse_rule("T(x,f(y)) <- R(x,y).")
    q_prime = parse_rule("T(x,u,f(y)) <- R(x,y), R(u,y).")
    with pytest.raises(HeadMismatchError):
        align_distinguished(q, q_prime)


def test_creation_profile_distinguished_mismatch(abstract_q, abstract_q_prime):
    outcome = check_creation_profile(abstract_q, abstract_q_prime)
    assert outcome is not None
    assert outcome.stage == DISTINGUISHED_CREATION
    instance = outcome.counterexample
    assert instance is not None
    left = eval_ocq(abstract_q, instance)
    right = eval_ocq(abstract_q_prime, instance)
    assert oid_isomorphic(left, right) is None
    assert not brute_oid_isomorphic(left, right)
    # the separation is one shared oid vs two
    from oidcheck.model import oids

    assert {len(oids(left)), len(oids(right))} == {1, 2}


def test_creation_profile_cardinality_mismatch(keyed_q, keyed_q_prime):
    outcome = check_creation_profile(keyed_q, keyed_q_prime)
    assert outcome is not None
    assert outcome.stage == CREATION_CARDINALITY
    instance = outcome.counterexample
    assert instance is not None
    frozen = (frozen_constant(Variable("x")),)
    counts = {
        oid_count(keyed_q, instance, frozen),
        oid_count(keyed_q_prime, instance, frozen),
    }
    assert counts == {1, 2}
    assert oid_isomorphic(eval_ocq(keyed_q, instance), eval_ocq(keyed_q_prime, instance)) is None


def test_creation_profile_ok(family_q, family_q_prime):
    deduped = dedupe_creation_vars(family_q_prime)
    assert check_creation_profile(family_q, deduped) is None


def test_align_creation_reorders_and_renames():
    q = parse_rule("T(x,f(u,x)) <- R(x,u).")
    q_prime = parse_rule("T(x,g(x,w)) <- R(x,w).")
    assert check_creation_profile(q, q_prime) is None
    aligned = align_creation(q, q_prime)
    assert aligned.creation == q.creation
    assert aligned.distinguished == q.distinguished
    # alignment preserves oid-equivalence of the rewritten query
    for instance in random_instances({"R": 2}, 3, 4, count=20, seed=11):
        assert oid_isomorphic(eval_ocq(q_prime, instance), eval_ocq(aligned, instance)) is not None


def test_align_creation_freshens_colliding_names():
    # q_prime's body uses the name u elsewhere, which is a creation name in q
    q = parse_rule("T(x,f(u)) <- R(x,u).")
    q_prime = parse_rule("T(x,g(w)) <- R(x,w), S(w,u).")
    aligned = align_creation(q, q_prime)
    assert aligned.creation == (Variable("u"),)
    arities = predicate_arities(aligned.body)
    assert arities == {"R": 2, "S": 2}
    # exactly one body variable named u (the creation one)
    assert sum(1 for v in aligned.variables if v.name == "u") == 1


def test_align_creation_renames_apart_only_captured_names():
    # w takes q's creation name u, so q_prime's own u is renamed apart; v and
    # x keep their names
    q = parse_rule("T(x,f(u)) <- R(x,u).")
    q_prime = parse_rule("T(x,g(w)) <- R(x,w), S(w,u), S(u,v).")
    aligned = align_creation(q, q_prime)
    assert aligned.render() == "T(x,g_r(u)) <- R(x,u), S(u,u_1), S(u_1,v)."
    for instance in random_instances({"R": 2, "S": 2}, 3, 6, count=40, seed=5):
        assert oid_isomorphic(eval_ocq(q_prime, instance), eval_ocq(aligned, instance)) is not None


def test_normalize_pair_family(family_q, family_q_prime):
    pair = normalize_pair(family_q, family_q_prime)
    assert isinstance(pair, NormalizedPair)
    assert pair.q.creation == pair.q_prime.creation
    assert pair.q.distinguished == pair.q_prime.distinguished
    assert pair.q is not family_q or pair.q == family_q


def test_normalize_pair_never_rewrites_left(family_q, family_q_prime):
    pair = normalize_pair(family_q, family_q_prime)
    assert pair.q == family_q  # left side had no duplicates to remove


def test_normalize_refutes_function_position():
    q = parse_rule("T(x,f(y)) <- R(x,y).")
    q_prime = parse_rule("T(f(y),x) <- R(x,y).")
    outcome = normalize_pair(q, q_prime)
    assert isinstance(outcome, NormalizeRefutation)
    assert outcome.stage == FUNCTION_POSITION
    instance = outcome.counterexample
    assert instance is not None
    assert oid_isomorphic(eval_ocq(q, instance), eval_ocq(q_prime, instance)) is None


def test_normalized_rewrite_is_oid_equivalent_to_original():
    q = parse_rule("T(x,f(u,x)) <- R(x,u), R(u,u).")
    q_prime = parse_rule("T(y,g(y,v)) <- R(y,v), R(v,v).")
    pair = normalize_pair(q, q_prime)
    assert isinstance(pair, NormalizedPair)
    for instance in random_instances({"R": 2}, 3, 4, count=20, seed=23):
        assert (
            oid_isomorphic(eval_ocq(q_prime, instance), eval_ocq(pair.q_prime, instance))
            is not None
        )


def test_internal_checks_survive_optimized_mode():
    # python -O strips assert statements; the invariants must raise anyway
    import subprocess
    import sys
    from pathlib import Path

    import oidcheck

    import_root = str(Path(oidcheck.__file__).resolve().parents[1])
    child = "\n".join(
        [
            "from oidcheck.normalize import NormalizedPair, align_creation,"
            " check_creation_profile",
            "from oidcheck.parser import parse_rule",
            "assert False, 'assert statements must be stripped in this child'",
            "q = parse_rule('T(x,f(y)) <- R(x,y).')",
            "swapped = parse_rule('T(y,f(x)) <- R(x,y).')",
            "creates_x = parse_rule('T(x,f(x,y)) <- R(x,y).')",
            "calls = [",
            "    lambda: NormalizedPair(q, swapped, frozenset(), frozenset()),",
            "    lambda: check_creation_profile(q, swapped),",
            "    lambda: align_creation(creates_x, q),",
            "]",
            "for call in calls:",
            "    try:",
            "        call()",
            "    except AssertionError as exc:",
            "        print(exc)",
            "    else:",
            "        print('no raise')",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": import_root, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("internal check failed: ") for line in lines), lines
