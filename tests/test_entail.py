import pytest

from conftest import TableauQuery, eval_tableau, satisfies_jd
from oidcheck import entail
from oidcheck.entail import (
    canonical_colored_instance,
    check_jd_implication,
    decide_entails,
    decide_entails_semantic,
    decide_logical_equiv,
    two_copy_body,
)
from oidcheck.errors import HeadMismatchError
from oidcheck.evaluation import JoinDependency, chase
from oidcheck.hom import HomConstraint, find_homomorphism
from oidcheck.model import Atom, Variable, body_variables
from oidcheck.oid_equiv import decide_oid_equiv
from oidcheck.oracle import satisfies_sotgd
from oidcheck.parser import parse_instance, parse_rule

x, y, z = Variable("x"), Variable("y"), Variable("z")
R_xyz = frozenset([Atom("R", (x, y, z))])


def test_entails_forward(abstract_q, abstract_q_prime):
    decision = decide_entails(abstract_q, abstract_q_prime)
    assert decision.entails
    w = decision.witness
    assert w.h == {x: x, y: y, z: z}
    assert w.y_h == {x, y}
    # overlap swallows the right side: trivially implied dependency
    assert w.jd.right <= w.jd.left


def test_entails_backward_fails_with_counterexample(abstract_q, abstract_q_prime):
    decision = decide_entails(abstract_q_prime, abstract_q)
    assert not decision.entails
    source, target = decision.counterexample
    assert satisfies_sotgd(source, target, abstract_q_prime).satisfied
    assert not satisfies_sotgd(source, target, abstract_q).satisfied
    # the separation shape: two bindings sharing the creation argument of the
    # entailed query but differing on its distinguished variable
    report = satisfies_sotgd(source, target, abstract_q)
    key, requirements = report.violating_group
    assert len(requirements) >= 2


def test_logical_equivalence_without_oid_equivalence(keyed_q, keyed_q_prime):
    both = decide_logical_equiv(keyed_q, keyed_q_prime)
    assert both.equivalent
    assert not decide_oid_equiv(keyed_q, keyed_q_prime).equivalent


def test_merge_pair_mutual_entailment(merge_q, merge_q_prime):
    both = decide_logical_equiv(merge_q, merge_q_prime)
    assert both.forward.entails and both.backward.entails


def test_self_entailment(family_q, abstract_q, merge_q):
    for q in (family_q, abstract_q, merge_q):
        decision = decide_entails(q, q)
        assert decision.entails


def test_jd_implication_trivial_overlap():
    h = check_jd_implication(R_xyz, frozenset({x}), frozenset({x, y}), frozenset({y}))
    assert h is not None


def test_jd_implication_fails_without_overlap():
    h = check_jd_implication(R_xyz, frozenset({x}), frozenset(), frozenset({y}))
    assert h is None
    # brute relation check on a two-fact instance
    instance = parse_instance("R(a,b,c). R(d,e,f).")
    rel = eval_tableau(TableauQuery(R_xyz, frozenset({x, y})), instance)
    assert not satisfies_jd(rel, JoinDependency(frozenset({x}), frozenset({y})))


def test_jd_implication_merge_shape(merge_q, merge_q_prime):
    body = merge_q.body
    z1, z2 = Variable("z1"), Variable("z2")
    h = check_jd_implication(body, frozenset({x}), frozenset({z1, z2}), frozenset({z1, z2}))
    assert h is not None


def test_jd_certificate_maps_into_two_copy_body():
    body = R_xyz
    x_set, y_set, z_set = frozenset({x}), frozenset({x, y}), frozenset({y})
    union = two_copy_body(body, y_set)
    h = check_jd_implication(body, x_set, y_set, z_set)
    mapped = {Atom(a.predicate, tuple(h[v] for v in a.args)) for a in body}
    assert mapped <= union


def test_two_copy_body_shares_only_overlap():
    body = frozenset([Atom("R", (x, y)), Atom("S", (y, z))])
    union = two_copy_body(body, frozenset({y}))
    # each atom of the union lies in exactly one copy
    b0, b1 = (
        frozenset(a for a in union if any(v.name.endswith(suffix) for v in a.args))
        for suffix in ("^0", "^1")
    )
    assert b0 | b1 == union and len(b0) == len(b1) == len(body)
    assert b0 & b1 == frozenset()
    shared_vars = body_variables(b0) & body_variables(b1)
    assert shared_vars == {y}


def test_colored_instance_one_color_per_noncreation_variable(abstract_q_prime):
    colored = canonical_colored_instance(abstract_q_prime, 1)
    # x,y are creation variables of the target query: white; z gets 2 colors
    names = {c.name for f in colored.instance for c in f.args}
    assert names == {"frz:x", "frz:y", "z#0", "z#1"}
    assert len(colored.instance) == 2


def test_colored_instance_reversed_direction(abstract_q):
    colored = canonical_colored_instance(abstract_q, 2)
    names = {c.name for f in colored.instance for c in f.args}
    assert names == {"frz:y", "x#0", "x#1", "x#2", "z#0", "z#1", "z#2"}
    assert len(colored.instance) == 3


def test_colored_instance_zero_colors(abstract_q):
    colored = canonical_colored_instance(abstract_q, 0)
    assert len(colored.instance) == 1


def test_semantic_path_examples(abstract_q, abstract_q_prime, merge_q, merge_q_prime):
    assert decide_entails_semantic(abstract_q, abstract_q_prime)
    assert not decide_entails_semantic(abstract_q_prime, abstract_q)
    assert decide_entails_semantic(merge_q, merge_q_prime)
    assert decide_entails_semantic(merge_q_prime, merge_q)


def test_position_mismatch_not_entails():
    q = parse_rule("T(x,f(y)) <- R(x,y).")
    q_prime = parse_rule("T(f(y),x) <- R(x,y).")
    decision = decide_entails(q, q_prime)
    assert not decision.entails
    assert decision.note
    source, target = decision.counterexample
    assert satisfies_sotgd(source, target, q).satisfied
    assert not satisfies_sotgd(source, target, q_prime).satisfied


def test_head_mismatch_raises(family_q, abstract_q):
    with pytest.raises(HeadMismatchError):
        decide_entails(family_q, abstract_q)


def test_dual_check_flag_runs_without_assertion(abstract_q, abstract_q_prime):
    a = decide_entails(abstract_q, abstract_q_prime, dual_check=False)
    b = decide_entails(abstract_q, abstract_q_prime, dual_check=True)
    assert a.entails == b.entails


@pytest.mark.parametrize("dual_check", [True, False])
def test_negative_verdict_chases_once(abstract_q, abstract_q_prime, monkeypatch, dual_check):
    calls = []

    def counted(q, instance):
        calls.append(q)
        return chase(q, instance)

    monkeypatch.setattr(entail, "chase", counted)
    decision = decide_entails(abstract_q_prime, abstract_q, dual_check=dual_check)
    assert not decision.entails
    assert calls == [abstract_q_prime]


def test_oid_equivalence_implies_mutual_entailment(family_q, family_q_prime):
    assert decide_oid_equiv(family_q, family_q_prime).equivalent
    both = decide_logical_equiv(family_q, family_q_prime)
    assert both.equivalent


def test_repeated_distinguished_variable_entailment():
    q = parse_rule("T(x,x,f(y)) <- R(x,y).")
    q_prime = parse_rule("T(u,v,g(u,w)) <- R(u,w), R(v,w).")
    decision = decide_entails(q, q_prime)
    # verdict checked against the semantic path either way
    assert decision.entails == decide_entails_semantic(q, q_prime)


def test_entailment_needs_later_homomorphism():
    # the first candidate homomorphism (z -> w, lexicographically first
    # image) fails the dependency check; the verdict needs the later z -> z
    q = parse_rule("T(x,f(z)) <- R(x,z).")
    q_prime = parse_rule("T(x,g(z)) <- R(x,z), R(x,w).")
    first = find_homomorphism(
        q.body, q_prime.body, HomConstraint(fixed={Variable("x"): Variable("x")})
    )
    assert first == {Variable("x"): Variable("x"), Variable("z"): Variable("w")}
    assert check_jd_implication(
        q.body, frozenset({Variable("x")}), frozenset(), frozenset({Variable("z")})
    ) is None
    decision = decide_entails(q, q_prime)
    assert decision.entails
    assert decision.witness.h[Variable("z")] == Variable("z")
