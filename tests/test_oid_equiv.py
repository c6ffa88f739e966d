import pytest

from oidcheck import oid_equiv
from oidcheck.errors import HeadMismatchError
from oidcheck.evaluation import eval_ocq
from oidcheck.model import Variable, oids
from oidcheck.normalize import (
    CREATION_CARDINALITY,
    DISTINGUISHED_CREATION,
    normalize_pair,
)
from oidcheck.oid_equiv import (
    CHARACTERIZATION_STAGE,
    decide_oid_equiv,
    equiv_via_mv,
    equiv_via_permutation,
)
from oidcheck.oracle import oid_isomorphic
from oidcheck.parser import parse_rule

u, v, x, y = (Variable(n) for n in "uvxy")


def test_family_pair_equivalent(family_q, family_q_prime):
    decision = decide_oid_equiv(family_q, family_q_prime)
    assert decision.equivalent
    w = decision.witness
    assert w.pi == {x: x, y: y}
    assert w.mv_forward == {Variable("c"): Variable("c"), x: x, y: y}


def test_family_witness_consistency(family_q, family_q_prime):
    decision = decide_oid_equiv(family_q, family_q_prime)
    w = decision.witness
    base = decision.normalized.z_set - decision.normalized.x_set
    assert {w.mv_forward[z]: z for z in base} == w.pi


def test_distinguished_creation_refutation(abstract_q, abstract_q_prime):
    decision = decide_oid_equiv(abstract_q, abstract_q_prime)
    assert not decision.equivalent
    assert decision.refutation.stage == DISTINGUISHED_CREATION
    instance = decision.refutation.counterexample
    left, right = eval_ocq(abstract_q, instance), eval_ocq(abstract_q_prime, instance)
    assert {len(oids(left)), len(oids(right))} == {1, 2}


def test_creation_cardinality_refutation(keyed_q, keyed_q_prime):
    decision = decide_oid_equiv(keyed_q, keyed_q_prime)
    assert not decision.equivalent
    assert decision.refutation.stage == CREATION_CARDINALITY
    instance = decision.refutation.counterexample
    left, right = eval_ocq(keyed_q, instance), eval_ocq(keyed_q_prime, instance)
    assert {len(oids(left)), len(oids(right))} == {1, 2}


def test_refutation_stage_is_pinned_before_characterization(keyed_q, keyed_q_prime):
    # the pipeline refutes at the cardinality stage, never reaching the
    # two-route characterization
    decision = decide_oid_equiv(keyed_q, keyed_q_prime)
    assert decision.refutation.stage != CHARACTERIZATION_STAGE
    assert decision.normalized is None


def test_equiv_via_permutation_identity(family_q, family_q_prime):
    pair = normalize_pair(family_q, family_q_prime)
    found = equiv_via_permutation(pair)
    assert found is not None
    pi, h_fwd, h_bwd = found
    assert pi == {x: x, y: y}


def test_equiv_via_permutation_self(family_q):
    pair = normalize_pair(family_q, family_q)
    pi, h_fwd, h_bwd = equiv_via_permutation(pair)
    assert all(k == v for k, v in pi.items())


def test_equiv_via_permutation_swap():
    q = parse_rule("T(x,f(u,v)) <- R(x,u,v), R(x,v,u).")
    q_prime = parse_rule("T(x,g(v,u)) <- R(x,u,v), R(x,v,u).")
    pair = normalize_pair(q, q_prime)
    found = equiv_via_permutation(pair)
    assert found is not None
    decision = decide_oid_equiv(q, q_prime)
    assert decision.equivalent


def test_equiv_via_mv_family(family_q, family_q_prime):
    pair = normalize_pair(family_q, family_q_prime)
    found = equiv_via_mv(pair)
    assert found is not None
    forward, backward = found
    assert forward == {Variable("c"): Variable("c"), x: x, y: y}
    assert backward == forward


def test_equiv_via_mv_self(family_q):
    pair = normalize_pair(family_q, family_q)
    forward, backward = equiv_via_mv(pair)
    assert all(k == v for k, v in forward.items())


def test_decision_reflexive(family_q, abstract_q, keyed_q, merge_q):
    for q in (family_q, abstract_q, keyed_q, merge_q):
        assert decide_oid_equiv(q, q).equivalent


def test_decision_symmetric(family_q, family_q_prime, abstract_q, abstract_q_prime):
    assert (
        decide_oid_equiv(family_q, family_q_prime).equivalent
        == decide_oid_equiv(family_q_prime, family_q).equivalent
    )
    assert (
        decide_oid_equiv(abstract_q, abstract_q_prime).equivalent
        == decide_oid_equiv(abstract_q_prime, abstract_q).equivalent
    )


def test_decision_transitive_on_family_chain(family_q, family_q_prime):
    third = parse_rule("Family(c,h(y,x)) <- Mother(c,x), Father(c,y).")
    ab = decide_oid_equiv(family_q, family_q_prime).equivalent
    bc = decide_oid_equiv(family_q_prime, third).equivalent
    ac = decide_oid_equiv(family_q, third).equivalent
    assert ab and bc and ac


def test_head_mismatch(family_q, abstract_q):
    with pytest.raises(HeadMismatchError):
        decide_oid_equiv(family_q, abstract_q)


def test_characterization_stage_with_counterexample():
    # same profile everywhere, but bodies are not equivalent up to permutation
    q = parse_rule("T(x,f(y)) <- R(x,y,y).")
    q_prime = parse_rule("T(x,g(y)) <- R(x,y,z).")
    decision = decide_oid_equiv(q, q_prime)
    assert not decision.equivalent
    assert decision.refutation.stage == CHARACTERIZATION_STAGE
    instance = decision.refutation.counterexample
    assert instance is not None
    assert oid_isomorphic(eval_ocq(q, instance), eval_ocq(q_prime, instance)) is None


def test_soundness_of_positive_verdicts(family_q, family_q_prime, parents):
    decision = decide_oid_equiv(family_q, family_q_prime)
    assert decision.equivalent
    assert (
        oid_isomorphic(eval_ocq(family_q, parents), eval_ocq(family_q_prime, parents))
        is not None
    )


def test_permutation_cap_falls_back_to_mv(family_q, family_q_prime, monkeypatch):
    monkeypatch.setattr(oid_equiv, "MAX_PERMUTATION_VARS", 0)
    decision = decide_oid_equiv(family_q, family_q_prime)
    assert decision.equivalent
    assert decision.witness.pi == {x: x, y: y}


def _count_enumerations(monkeypatch) -> list:
    calls = []

    def counted(pair):
        calls.append(pair)
        return equiv_via_permutation(pair)

    monkeypatch.setattr(oid_equiv, "equiv_via_permutation", counted)
    return calls


def test_positive_verdict_skips_enumeration(family_q, family_q_prime, monkeypatch):
    def refuse(pair):
        raise AssertionError("enumeration must not run on a positive verdict")

    monkeypatch.setattr(oid_equiv, "equiv_via_permutation", refuse)
    decision = decide_oid_equiv(family_q, family_q_prime)
    assert decision.equivalent
    assert decision.witness.pi == {x: x, y: y}


CHARACTERIZATION_PAIR = ("T(x,f(y)) <- R(x,y,y).", "T(x,g(y)) <- R(x,y,z).")


def test_negative_verdict_enumerates_once(monkeypatch):
    calls = _count_enumerations(monkeypatch)
    decision = decide_oid_equiv(*map(parse_rule, CHARACTERIZATION_PAIR))
    assert decision.refutation.stage == CHARACTERIZATION_STAGE
    assert len(calls) == 1


def test_negative_verdict_above_cap_skips_enumeration(monkeypatch):
    calls = _count_enumerations(monkeypatch)
    monkeypatch.setattr(oid_equiv, "MAX_PERMUTATION_VARS", 0)
    decision = decide_oid_equiv(*map(parse_rule, CHARACTERIZATION_PAIR))
    assert decision.refutation.stage == CHARACTERIZATION_STAGE
    assert calls == []


def test_equivalent_pairs_have_equal_multiset_results(family_q, family_q_prime, parents):
    # positive verdicts force equal combined-semantics results, multiplicities
    # included
    from oidcheck.evaluation import MVQuery, eval_mv
    from oidcheck.model import Atom, ConjunctiveQuery, predicate_arities
    from oidcheck.oracle import random_instances

    assert decide_oid_equiv(family_q, family_q_prime).equivalent

    def mv_of(q):
        core = ConjunctiveQuery(Atom("T0", tuple(q.distinguished)), q.body)
        return MVQuery(core, frozenset(q.creation) - frozenset(q.distinguished))

    instances = [parents] + list(
        random_instances(predicate_arities(family_q.body), 3, 5, count=20, seed=2)
    )
    for instance in instances:
        assert eval_mv(mv_of(family_q), instance) == eval_mv(mv_of(family_q_prime), instance)


def test_nullary_creation_functions():
    q = parse_rule("T(x,f()) <- R(x).")
    q_same = parse_rule("T(x,g()) <- R(x), R(y).")
    assert decide_oid_equiv(q, q_same).equivalent
    q_other = parse_rule("T(x,g()) <- S(x,y).")
    decision = decide_oid_equiv(q, q_other)
    assert not decision.equivalent
    assert decision.refutation.counterexample is not None


def test_creation_only_heads():
    q = parse_rule("T(f(x)) <- R(x).")
    q_prime = parse_rule("T(g(u)) <- R(u).")
    assert decide_oid_equiv(q, q_prime).equivalent
