"""Corner cases around alignment, constraint interaction, and file mixing."""

import pytest

from oidcheck import oid_equiv
from oidcheck.entail import decide_entails, decide_entails_semantic
from oidcheck.errors import ArityClashError
from oidcheck.evaluation import eval_ocq
from oidcheck.model import Variable, merge_arities, predicate_arities
from oidcheck.normalize import normalize_pair, NormalizedPair
from oidcheck.oid_equiv import decide_oid_equiv
from oidcheck.oracle import oid_isomorphic, random_instances
from oidcheck.parser import parse_rule


def test_swapped_distinguished_tuple_aligns():
    q = parse_rule("T(x,y,f(u)) <- R(x,y,u).")
    q_prime = parse_rule("T(y,x,g(v)) <- R(y,x,v).")
    pair = normalize_pair(q, q_prime)
    assert isinstance(pair, NormalizedPair)
    assert pair.q_prime.distinguished == (Variable("x"), Variable("y"))
    decision = decide_oid_equiv(q, q_prime)
    assert decision.equivalent
    for instance in random_instances({"R": 3}, 3, 4, count=10, seed=5):
        assert oid_isomorphic(eval_ocq(q, instance), eval_ocq(q_prime, instance)) is not None


def test_swapped_distinguished_not_equivalent_when_bodies_differ():
    q = parse_rule("T(x,y,f(u)) <- R(x,y,u).")
    q_prime = parse_rule("T(y,x,g(v)) <- R(x,y,v).")
    decision = decide_oid_equiv(q, q_prime)
    # columns swapped in the head but not the body: separable
    assert not decision.equivalent
    instance = decision.refutation.counterexample
    assert instance is not None
    assert oid_isomorphic(eval_ocq(q, instance), eval_ocq(q_prime, instance)) is None


def test_entails_blocked_by_creation_image_constraint():
    # the distinguished variable is also a creation variable on the left, but
    # its forced image is not a creation variable on the right
    q = parse_rule("T(x,f(x)) <- R(x,y).")
    q_prime = parse_rule("T(u,g(y)) <- R(u,y).")
    decision = decide_entails(q, q_prime)
    assert decision.entails == decide_entails_semantic(q, q_prime)
    assert not decision.entails
    source, target = decision.counterexample
    from oidcheck.oracle import satisfies_sotgd

    assert satisfies_sotgd(source, target, q).satisfied
    assert not satisfies_sotgd(source, target, q_prime).satisfied


def test_entails_repeated_distinguished_positions_conflict():
    q = parse_rule("T(x,x,f(y)) <- R(x,y).")
    q_prime = parse_rule("T(u,v,g(w)) <- R(u,w), R(v,w).")
    decision = decide_entails(q, q_prime)
    assert decision.entails == decide_entails_semantic(q, q_prime)


def test_cross_file_arity_clash_detected():
    q = parse_rule("T(x,f(y)) <- R(x,y).")
    q_prime = parse_rule("T(x,g(y)) <- R(x,y,z).")
    with pytest.raises(ArityClashError):
        merge_arities(predicate_arities(q.body), predicate_arities(q_prime.body))


def test_deep_creation_tuple_beyond_permutation_cap(monkeypatch):
    body = "R(a,b), S(b,c), S(c,d)"
    q = parse_rule(f"T(a,f(b,c,d)) <- {body}.")
    q_prime = parse_rule(f"T(a,g(d,c,b)) <- {body}.")
    uncapped = decide_oid_equiv(q, q_prime)
    monkeypatch.setattr(oid_equiv, "MAX_PERMUTATION_VARS", 0)
    capped = decide_oid_equiv(q, q_prime)
    assert capped.equivalent == uncapped.equivalent == True  # noqa: E712
    # capped decision still reports a permutation, rebuilt from the multiset
    # homomorphism
    assert set(capped.witness.pi) == {Variable("b"), Variable("c"), Variable("d")}
