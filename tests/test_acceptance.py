"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print. Verdict criteria are exact; the randomized suites are seeded and admit
zero disagreements.
"""

from __future__ import annotations

import functools

from pairgen import (
    gen_random_query,
    random_entail_pair,
    random_equivalent_pair,
    random_normalized_pair,
)

from oidcheck.entail import decide_entails, decide_entails_semantic, decide_logical_equiv
from oidcheck.evaluation import (
    MVQuery,
    chase,
    eval_cq,
    eval_mv,
    eval_ocq,
    oid_count,
)
from oidcheck.model import (
    Atom,
    ConjunctiveQuery,
    Constant,
    ExtendedFact,
    Fact,
    FuncTerm,
    flatten_query,
    merge_arities,
    oids,
    predicate_arities,
)
from oidcheck.oid_equiv import decide_oid_equiv, equiv_via_mv, equiv_via_permutation
from oidcheck.oracle import (
    instance_enumerator,
    oid_isomorphic,
    random_instances,
    satisfies_sotgd,
)
from oidcheck.parser import parse_extended_instance, parse_instance, parse_rule

PARENTS = parse_instance(
    """
    Mother(beth,anne). Mother(ben,anne). Mother(eric,claire).
    Mother(emma,diana). Mother(dave,diana).
    Father(beth,adam). Father(ben,adam). Father(eric,carl). Father(emma,carl).
    """
)
FAMILY_Q = parse_rule("Family(c,f(x,y)) <- Mother(c,x), Father(c,y).")
FAMILY_Q_PRIME = parse_rule("Family(c,g(x,y,x)) <- Mother(c,x), Father(c,y).")
ABSTRACT_Q = parse_rule("T(x,f(y)) <- R(x,y,z).")
ABSTRACT_Q_PRIME = parse_rule("T(x,f(x,y)) <- R(x,y,z).")
KEYED_Q = parse_rule("T(x,f(x)) <- R(x,y,z).")
KEYED_Q_PRIME = parse_rule("T(x,f(x,y,z)) <- R(x,y,z).")
MERGE_Q = parse_rule("T(x,f(z1)) <- R(z1,x), R(z1,z2).")
MERGE_Q_PRIME = parse_rule("T(x,g(z1,z2)) <- R(z1,x), R(z1,z2).")


def criterion(num: int, description: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num}: {description}")
                raise
            print(f"[PASS] criterion {num}: {description}")

        return inner

    return wrap


@criterion(1, "family query reproduces the worked four-fact result")
def test_criterion_1_family_reproduction():
    expected = parse_extended_instance(
        """
        Family(beth,f(anne,adam)). Family(ben,f(anne,adam)).
        Family(eric,f(claire,carl)). Family(emma,f(diana,carl)).
        """
    )
    assert eval_ocq(FAMILY_Q, PARENTS) == expected


@criterion(2, "abstract query reproduces the three-fact result")
def test_criterion_2_abstract_reproduction():
    instance = parse_instance("R(a,b,c). R(a,b,d). R(c,b,d). R(d,c,a).")
    expected = parse_extended_instance("T(a,f(b)). T(c,f(b)). T(d,f(c)).")
    assert eval_ocq(ABSTRACT_Q, instance) == expected


@criterion(3, "family pair equivalent with the exact instance-level mapping")
def test_criterion_3_oid_equivalence_positive():
    decision = decide_oid_equiv(FAMILY_Q, FAMILY_Q_PRIME)
    assert decision.equivalent

    mapping = oid_isomorphic(
        eval_ocq(FAMILY_Q, PARENTS), eval_ocq(FAMILY_Q_PRIME, PARENTS)
    )
    assert mapping is not None

    def f(*names):
        return FuncTerm("f", tuple(Constant(n) for n in names))

    def g(*names):
        return FuncTerm("g", tuple(Constant(n) for n in names))

    assert mapping == {
        f("anne", "adam"): g("anne", "adam", "anne"),
        f("claire", "carl"): g("claire", "carl", "claire"),
        f("diana", "carl"): g("diana", "carl", "diana"),
    }


@criterion(4, "both negative pairs refute with verified 1-vs-2 counterexamples")
def test_criterion_4_oid_equivalence_negatives():
    decision = decide_oid_equiv(ABSTRACT_Q, ABSTRACT_Q_PRIME)
    assert not decision.equivalent
    assert decision.refutation.stage == "DistinguishedCreation"
    instance = decision.refutation.counterexample
    left = eval_ocq(ABSTRACT_Q, instance)
    right = eval_ocq(ABSTRACT_Q_PRIME, instance)
    assert oid_isomorphic(left, right) is None  # oracle-verified
    assert {len(oids(left)), len(oids(right))} == {1, 2}

    decision = decide_oid_equiv(KEYED_Q, KEYED_Q_PRIME)
    assert not decision.equivalent
    assert decision.refutation.stage == "CreationCardinality"
    instance = decision.refutation.counterexample
    left = eval_ocq(KEYED_Q, instance)
    right = eval_ocq(KEYED_Q_PRIME, instance)
    assert oid_isomorphic(left, right) is None
    assert {len(oids(left)), len(oids(right))} == {1, 2}


@criterion(5, "satisfaction oracle matches the worked target instances")
def test_criterion_5_satisfaction():
    j1 = parse_instance(
        "Family(beth,jones). Family(ben,jones). Family(eric,simpson). Family(emma,smith)."
    )
    j2 = parse_instance(
        "Family(beth,jones). Family(ben,jones). Family(eric,jones). Family(emma,jones)."
    )
    j3 = parse_instance(
        "Family(beth,jones). Family(ben,murphy). Family(eric,simpson). Family(emma,smith)."
    )
    report = satisfies_sotgd(PARENTS, j1, FAMILY_Q)
    assert report.satisfied
    table = {
        tuple(c.name for c in key): value.name
        for key, value in report.witness_table.items()
    }
    assert table == {
        ("anne", "adam"): "jones",
        ("claire", "carl"): "simpson",
        ("diana", "carl"): "smith",
    }

    assert satisfies_sotgd(PARENTS, j2, FAMILY_Q).satisfied

    report = satisfies_sotgd(PARENTS, j3, FAMILY_Q)
    assert not report.satisfied
    key, _ = report.violating_group
    assert tuple(c.name for c in key) == ("anne", "adam")


@criterion(6, "entailment verdicts on the three worked pairs are exact")
def test_criterion_6_entailment():
    forward = decide_entails(ABSTRACT_Q, ABSTRACT_Q_PRIME)
    assert forward.entails
    assert all(k == v for k, v in forward.witness.h.items())  # h = identity
    assert forward.witness.jd.right <= forward.witness.jd.left  # trivial dependency

    backward = decide_entails(ABSTRACT_Q_PRIME, ABSTRACT_Q)
    assert not backward.entails
    source, target = backward.counterexample
    assert satisfies_sotgd(source, target, ABSTRACT_Q_PRIME).satisfied
    report = satisfies_sotgd(source, target, ABSTRACT_Q)
    assert not report.satisfied
    # separation pattern: bindings sharing the creation value but forced to
    # different target values
    _, requirements = report.violating_group
    assert len(requirements) >= 2
    assert len({values for _, values in requirements}) >= 2

    both = decide_logical_equiv(KEYED_Q, KEYED_Q_PRIME)
    assert both.equivalent
    assert not decide_oid_equiv(KEYED_Q, KEYED_Q_PRIME).equivalent

    both = decide_logical_equiv(MERGE_Q, MERGE_Q_PRIME)
    assert both.equivalent


@criterion(7, "multiset and permutation routes agree on 500 seeded pairs")
def test_criterion_7_equivalence_path_agreement():
    positives = 0
    for seed in range(500):
        pair = random_normalized_pair(seed)
        mv = equiv_via_mv(pair)
        perm = equiv_via_permutation(pair)
        assert (mv is None) == (perm is None), f"disagreement at seed {seed}"
        positives += mv is not None
    assert 0 < positives < 500  # both outcomes are exercised


@criterion(8, "witness and semantic entailment paths agree on 500 seeded pairs")
def test_criterion_8_entailment_path_agreement():
    positives = 0
    for seed in range(500):
        q, q_prime = random_entail_pair(seed)
        via_witness = decide_entails(q, q_prime, dual_check=False).entails
        via_semantics = decide_entails_semantic(q, q_prime)
        assert via_witness == via_semantics, f"disagreement at seed {seed}"
        positives += via_witness
    assert 0 < positives < 500


@criterion(9, "200 equivalent-by-construction pairs entail in both directions")
def test_criterion_9_equivalence_implies_entailment():
    for seed in range(200):
        q, q_prime = random_equivalent_pair(seed)
        assert decide_oid_equiv(q, q_prime, search_counterexamples=False).equivalent, seed
        assert decide_entails(q, q_prime).entails, seed
        assert decide_entails(q_prime, q).entails, seed


@criterion(10, "oracle finds no violation of any verdict on small instances")
def test_criterion_10_oracle_consistency():
    for seed in range(200):
        q, q_prime = random_equivalent_pair(seed, max_arity=2)
        assert decide_oid_equiv(q, q_prime, search_counterexamples=False).equivalent
        schema = merge_arities(predicate_arities(q.body), predicate_arities(q_prime.body))
        for instance in instance_enumerator(schema, 2, 4):
            assert (
                oid_isomorphic(eval_ocq(q, instance), eval_ocq(q_prime, instance))
                is not None
            ), (seed, instance)
        for instance in random_instances(schema, 4, 6, count=100, seed=seed):
            assert (
                oid_isomorphic(eval_ocq(q, instance), eval_ocq(q_prime, instance))
                is not None
            ), (seed, instance)

    profile_stages = {"DistinguishedCreation", "CreationCardinality"}
    seen = set()
    for seed in range(400):
        q, q_prime = random_entail_pair(seed + 10_000)
        decision = decide_oid_equiv(q, q_prime, search_counterexamples=False)
        if decision.equivalent or decision.refutation.stage not in profile_stages:
            continue
        seen.add(decision.refutation.stage)
        counterexample = decision.refutation.counterexample
        assert counterexample is not None, seed
        assert (
            oid_isomorphic(
                eval_ocq(q, counterexample), eval_ocq(q_prime, counterexample)
            )
            is None
        ), seed
    assert seen == profile_stages  # both refutation shapes were exercised


@criterion(11, "semantics invariants hold on 1000 randomized cases each")
def test_criterion_11_semantics_invariants():
    cases = 0
    for seed in range(250):
        q = gen_random_query(seed, num_atoms=2, num_vars=3, max_arity=2)
        schema = predicate_arities(q.body)
        flat = flatten_query(q)
        core = ConjunctiveQuery(Atom("T0", tuple(q.distinguished)), q.body)
        mv = MVQuery(core, frozenset(q.creation) - frozenset(q.distinguished))
        for instance in random_instances(schema, 3, 5, count=4, seed=seed):
            cases += 1
            # flattening correspondence
            via_flat = set()
            for fact in eval_cq(flat, instance):
                args = list(fact.args[: len(q.distinguished)])
                args.insert(
                    q.func_pos,
                    FuncTerm(q.func_symbol, tuple(fact.args[len(q.distinguished) :])),
                )
                via_flat.add(ExtendedFact(q.head_predicate, tuple(args)))
            assert via_flat == eval_ocq(q, instance)

            # combined-semantics multiplicity equals the per-tuple oid count
            for fact, multiplicity in eval_mv(mv, instance).items():
                assert oid_count(q, instance, fact.args) == multiplicity

            # the chased pair satisfies its own query
            ground, _ = chase(q, instance)
            assert satisfies_sotgd(instance, ground, q).satisfied

            # satisfaction is monotone under target extension
            extra = Fact(
                q.head_predicate, tuple(Constant(f"m{i}") for i in range(q.head_arity))
            )
            assert satisfies_sotgd(instance, ground | {extra}, q).satisfied
    assert cases >= 1000
