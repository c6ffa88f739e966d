import random

import pytest

from conftest import (
    TableauQuery,
    brute_matchings,
    eval_tableau,
    reference_matchings,
    reference_oid_count,
    satisfies_jd,
)
from pairgen import gen_random_query
from oidcheck.evaluation import (
    JoinDependency,
    MVQuery,
    _facts_by_predicate,
    _most_constrained,
    _position_index,
    chase,
    created_groups,
    eval_cq,
    eval_mv,
    eval_ocq,
    matchings,
    oid_count,
)
from oidcheck.model import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Fact,
    FuncTerm,
    Variable,
    flatten_query,
)
from oidcheck.oracle import random_instances
from oidcheck.parser import parse_extended_instance, parse_instance, parse_rule

x, y, z = Variable("x"), Variable("y"), Variable("z")
R_xyz = frozenset([Atom("R", (x, y, z))])


def as_sets(valuations):
    return {frozenset(v.items()) for v in valuations}


def test_matchings_shared_middle(shared_middle):
    found = matchings(R_xyz, shared_middle)
    expected = {
        frozenset({(x, Constant("a")), (y, Constant("b")), (z, Constant("c"))}),
        frozenset({(x, Constant("d")), (y, Constant("b")), (z, Constant("e"))}),
    }
    assert as_sets(found) == expected
    assert as_sets(found) == as_sets(brute_matchings(R_xyz, shared_middle))


def test_matchings_empty_instance():
    assert matchings(R_xyz, frozenset()) == []


def test_matchings_family(parents):
    body = frozenset(
        [Atom("Mother", (Variable("c"), x)), Atom("Father", (Variable("c"), y))]
    )
    found = matchings(body, parents)
    assert len(found) == 4
    children = {m[Variable("c")].name for m in found}
    assert children == {"beth", "ben", "eric", "emma"}  # dave has no Father fact
    assert as_sets(found) == as_sets(brute_matchings(body, parents))


def test_matchings_deep_path_body():
    # one search level per atom: a recursive search exceeds the interpreter's
    # recursion limit on this body
    xs = [Variable(f"x{i}") for i in range(1201)]
    body = [Atom("E", (xs[i], xs[i + 1])) for i in range(1200)]
    a, b = Constant("a"), Constant("b")
    found = matchings(body, frozenset([Fact("E", (a, a)), Fact("E", (a, b))]))
    assert len(found) == 2
    assert {m[xs[-1]] for m in found} == {a, b}
    assert all(m[v] == a for m in found for v in xs[:-1])


def _cycle(length: int) -> list[Atom]:
    xs = [Variable(f"x{i}") for i in range(length)]
    return [Atom("E", (xs[i], xs[(i + 1) % length])) for i in range(length)]


# A(u,w) beside a symmetric bipartite E over l0, l1 and r0, r1, r2, with one
# edge missing; the E atoms of a cycle bind no variable a (u,w) projection reads
_u, _w = Variable("u"), Variable("w")
_A_FACTS = {Fact("A", (Constant("a"), Constant("b"))), Fact("A", (Constant("c"), Constant("b")))}
_BIPARTITE = frozenset(
    _A_FACTS
    | {
        Fact("E", pair)
        for i in range(2)
        for j in range(3)
        if (i, j) != (1, 2)
        for pair in ((Constant(f"l{i}"), Constant(f"r{j}")), (Constant(f"r{j}"), Constant(f"l{i}")))
    }
)


def _projected(found) -> set:
    return {(m[_u], m[_w]) for m in found}


def test_matchings_read_free_odd_cycle_into_bipartite_is_empty():
    assert brute_matchings(_cycle(5), _BIPARTITE) == []
    assert matchings([Atom("A", (_u, _w)), *_cycle(5)], _BIPARTITE, (_u, _w)) == []


def test_matchings_read_free_even_cycle_keeps_the_kept_rows():
    assert brute_matchings(_cycle(4), _BIPARTITE)
    found = matchings([Atom("A", (_u, _w)), *_cycle(4)], _BIPARTITE, (_u, _w))
    assert all(m.keys() == {_u, _w} for m in found)
    assert len(found) == 2 and _projected(found) == {f.args for f in _A_FACTS}


def test_matchings_read_free_nullary_atom():
    body = [Atom("A", (_u, _w)), Atom("P", ())]
    assert matchings(body, _BIPARTITE, (_u, _w)) == []
    present = _BIPARTITE | {Fact("P", ())}
    found = matchings(body, present, (_u, _w))
    assert len(found) == 2 and _projected(found) == {f.args for f in _A_FACTS}


def test_matchings_one_candidate_atom_before_a_dead_atom():
    # under x=a, B(x,y) has one candidate and sorts before C(x), whose bound
    # position has no posting: the scan stops at B, and C ends that branch
    # one level down instead of at once; under x=d both atoms match
    a, b, d, e = (Constant(c) for c in "abde")
    body = [Atom("A", (x,)), Atom("B", (x, y)), Atom("C", (x,))]
    instance = frozenset([
        Fact("A", (a,)), Fact("A", (d,)), Fact("B", (a, b)), Fact("B", (d, e)), Fact("C", (d,)),
    ])
    by_pred = _facts_by_predicate(instance, {"A", "B", "C"})
    index = _position_index(by_pred)
    assert _most_constrained(body[1:], {x: a}, by_pred, index) == (
        body[1], [Fact("B", (a, b))], [body[2]]
    )
    assert brute_matchings(body, instance) == [{x: d, y: e}]
    for out in (None, (y,), (x,), (y, x)):
        found = matchings(body, instance, out)
        assert found == reference_matchings(body, instance, out)
        keys = (x, y) if out is None else out
        assert found == [{v: {x: d, y: e}[v] for v in keys}]


def test_matchings_projection_rejects_foreign_variable(shared_middle):
    with pytest.raises(ValueError):
        matchings(R_xyz, shared_middle, [x, Variable("w")])


def test_eval_cq_projection(shared_middle):
    q = ConjunctiveQuery(Atom("T0", (x,)), R_xyz)
    assert eval_cq(q, shared_middle) == {
        Fact("T0", (Constant("a"),)),
        Fact("T0", (Constant("d"),)),
    }


def test_eval_cq_empty():
    q = ConjunctiveQuery(Atom("T0", (x,)), R_xyz)
    assert eval_cq(q, frozenset()) == frozenset()


def test_eval_cq_flattened(four_rows):
    q = ConjunctiveQuery(Atom("T_hat", (x, y)), R_xyz)
    assert eval_cq(q, four_rows) == {
        Fact("T_hat", (Constant("a"), Constant("b"))),
        Fact("T_hat", (Constant("c"), Constant("b"))),
        Fact("T_hat", (Constant("d"), Constant("c"))),
    }


@pytest.mark.parametrize("rule, groups", [
    # f(a) pairs with k and m, f(b) with k alone; c has no S fact
    ("T(x,f(y)) <- R(x,y), S(y).", {("a",): [("k",), ("m",)], ("b",): [("k",)]}),
    # a nullary term is one group of every distinguished tuple
    ("T(x,f()) <- R(x,y).", {(): [("k",), ("m",), ("n",)]}),
    # a repeated distinguished variable, the function term first
    ("T(f(y,x),x,x) <- R(x,y).", {(b, k): [(k, k)] for b, k in ("ak", "am", "bk", "cn")}),
])
def test_created_groups_pair_each_creation_tuple_with_its_distinguished_tuples(rule, groups):
    q = parse_rule(rule)
    instance = parse_instance("R(k,a). R(m,a). R(k,b). R(n,c). S(a). S(b).")
    found = created_groups(q, instance)
    # distinct keys and distinct tuples per key, both in the order of matchings
    order = [
        (tuple(m[v] for v in q.creation), tuple(m[v] for v in q.distinguished))
        for m in matchings(q.body, instance, q.creation + q.distinguished)
    ]
    assert list(found) == list(dict.fromkeys(key for key, _ in order))
    assert all(dists == [d for k, d in order if k == key] for key, dists in found.items())
    names = {tuple(c.name for c in key): [tuple(c.name for c in d) for d in dists]
             for key, dists in found.items()}
    assert {key: sorted(dists) for key, dists in names.items()} == groups
    assert created_groups(q, frozenset()) == {}


def test_eval_ocq_family(family_q, parents, family_result):
    assert eval_ocq(family_q, parents) == family_result


def test_eval_ocq_four_rows(abstract_q, four_rows):
    assert eval_ocq(abstract_q, four_rows) == parse_extended_instance(
        "T(a,f(b)). T(c,f(b)). T(d,f(c))."
    )


def test_eval_ocq_family_triple(family_q_prime, parents, family_result_g):
    assert eval_ocq(family_q_prime, parents) == family_result_g


def test_eval_mv_counts_restrictions(shared_first):
    core = ConjunctiveQuery(Atom("T0", (x,)), R_xyz)
    result = eval_mv(MVQuery(core, frozenset({y, z})), shared_first)
    assert result == {Fact("T0", (Constant("a"),)): 2}


def test_eval_mv_empty_multiset_vars(shared_first):
    core = ConjunctiveQuery(Atom("T0", (x,)), R_xyz)
    result = eval_mv(MVQuery(core, frozenset()), shared_first)
    assert result == {Fact("T0", (Constant("a"),)): 1}


def test_eval_mv_single_var(shared_middle):
    core = ConjunctiveQuery(Atom("T0", (x,)), R_xyz)
    result = eval_mv(MVQuery(core, frozenset({y})), shared_middle)
    assert result == {
        Fact("T0", (Constant("a"),)): 1,
        Fact("T0", (Constant("d"),)): 1,
    }


def test_oid_count_keyed(keyed_q, keyed_q_prime, shared_first):
    assert oid_count(keyed_q, shared_first, (Constant("a"),)) == 1
    assert oid_count(keyed_q_prime, shared_first, (Constant("a"),)) == 2
    assert oid_count(keyed_q, shared_first, (Constant("zz"),)) == 0


# the square n1-n2-n3-n4 is bipartite; the triangle n1-n2-n3 is not
_SQUARE = "E(n1,n2). E(n2,n3). E(n3,n4). E(n4,n1)."
_TRIANGLE = "E(n1,n2). E(n2,n3). E(n3,n1)."


@pytest.mark.parametrize(
    "rule,facts,values,count",
    [
        # a repeated distinguished variable: unequal values pair with nothing
        ("T(x,x,f(y)) <- R(x,y).", "R(a,b). R(a,c). R(b,a).", ("a", "b"), 0),
        ("T(x,x,f(y)) <- R(x,y).", "R(a,b). R(a,c). R(b,a).", ("a", "a"), 2),
        # values absent from the instance, or from the column they bind
        ("T(x,x,f(y)) <- R(x,y).", "R(a,b). R(a,c). R(b,a).", ("c", "c"), 0),
        ("T(x,f(y)) <- R(x,y).", "R(a,b).", ("zz",), 0),
        # every creation variable distinguished: one oid or none
        ("T(x,f(x)) <- R(x,y).", "R(a,b). R(a,c).", ("a",), 1),
        ("T(x,y,f(y,x)) <- R(x,y).", "R(a,b). R(a,c).", ("a", "c"), 1),
        ("T(x,y,f(y,x)) <- R(x,y).", "R(a,b). R(a,c).", ("c", "a"), 0),
        # a read-free odd cycle beside the read atoms
        ("T(x,f(y)) <- R(x,y), E(u,v), E(v,w), E(w,u).", f"R(a,b). R(a,c). {_SQUARE}", ("a",), 0),
        ("T(x,f(y)) <- R(x,y), E(u,v), E(v,w), E(w,u).", f"R(a,b). R(a,c). {_TRIANGLE}", ("a",), 2),
        # an odd cycle through the bound variable, which reads no creation variable
        ("T(x,f(y)) <- R(y,z), E(x,v), E(v,w), E(w,x).", f"R(a,b). R(c,b). {_SQUARE}", ("n1",), 0),
        ("T(x,f(y)) <- R(y,z), E(x,v), E(v,w), E(w,x).", f"R(a,b). R(c,b). {_TRIANGLE}", ("n1",), 2),
        ("T(x,f(y)) <- R(y,z), E(x,v), E(v,w), E(w,x).", f"R(a,b). R(c,b). {_TRIANGLE}", ("n4",), 0),
    ],
)
def test_oid_count_starts_from_the_distinguished_values(rule, facts, values, count):
    q, instance = parse_rule(rule), parse_instance(facts)
    values = tuple(Constant(c) for c in values)
    assert reference_oid_count(q, instance, values) == count
    assert oid_count(q, instance, values) == count
    for limit in range(1, count + 2):
        assert oid_count(q, instance, values, limit=limit) == min(count, limit)


def test_eval_tableau_projection(shared_middle):
    rel = eval_tableau(TableauQuery(R_xyz, frozenset({x})), shared_middle)
    assert rel == {
        frozenset({(x, Constant("a"))}),
        frozenset({(x, Constant("d"))}),
    }


def test_eval_tableau_full(four_rows):
    rel = eval_tableau(TableauQuery(R_xyz, frozenset({x, y, z})), four_rows)
    assert len(rel) == 4


def test_eval_tableau_nullary(shared_middle):
    rel = eval_tableau(TableauQuery(R_xyz, frozenset()), shared_middle)
    assert rel == {frozenset()}
    assert eval_tableau(TableauQuery(R_xyz, frozenset()), frozenset()) == frozenset()


def test_jd_fails_without_overlap(shared_middle):
    rel = eval_tableau(
        TableauQuery(R_xyz, frozenset({x, y})), parse_instance("R(a,b,c). R(d,e,f).")
    )
    assert not satisfies_jd(rel, JoinDependency(frozenset({x}), frozenset({y})))
    assert satisfies_jd(rel, JoinDependency(frozenset({x, y}), frozenset({y})))


def test_chase_family(family_q, parents):
    ground, table = chase(family_q, parents)
    f = lambda *names: FuncTerm("f", tuple(Constant(n) for n in names))
    assert table == {
        f("anne", "adam"): Constant("@1"),
        f("claire", "carl"): Constant("@2"),
        f("diana", "carl"): Constant("@3"),
    }
    assert Fact("Family", (Constant("beth"), Constant("@1"))) in ground
    assert Fact("Family", (Constant("ben"), Constant("@1"))) in ground
    assert len(ground) == 4


def test_chase_empty(family_q):
    ground, table = chase(family_q, frozenset())
    assert ground == frozenset() and table == {}


def test_chase_four_rows(abstract_q, four_rows):
    ground, table = chase(abstract_q, four_rows)
    assert len(table) == 2
    assert {c.name for c in table.values()} == {"@1", "@2"}


def test_chase_avoids_domain_collision(abstract_q):
    instance = parse_instance("R(a,b,c).", allow_reserved=False) | frozenset(
        [Fact("R", (Constant("@1"), Constant("b"), Constant("c")))]
    )
    ground, table = chase(abstract_q, instance)
    assert Constant("@1") not in set(table.values())


def test_flattening_correspondence_random():
    from oidcheck.model import ExtendedFact, predicate_arities

    rng = random.Random(7)
    for i in range(60):
        q = gen_random_query(seed=i, num_atoms=2, num_vars=3, max_arity=2)
        schema = predicate_arities(q.body)
        flat = flatten_query(q)
        for instance in random_instances(schema, 3, 5, count=3, seed=rng.randint(0, 10**6)):
            via_flat = {
                ExtendedFact(
                    q.head_predicate,
                    _insert(
                        tuple(f.args[: len(q.distinguished)]),
                        FuncTerm(q.func_symbol, tuple(f.args[len(q.distinguished):])),
                        q.func_pos,
                    ),
                )
                for f in eval_cq(flat, instance)
            }
            assert via_flat == eval_ocq(q, instance)


def _insert(args, item, pos):
    out = list(args)
    out.insert(pos, item)
    return tuple(out)


def test_mv_multiplicity_equals_oid_count():
    from oidcheck.model import predicate_arities

    for i in range(60):
        q = gen_random_query(seed=1000 + i, num_atoms=2, num_vars=3, max_arity=2)
        schema = predicate_arities(q.body)
        core = ConjunctiveQuery(Atom("T0", tuple(q.distinguished)), q.body)
        mv = MVQuery(core, frozenset(q.creation) - frozenset(q.distinguished))
        for instance in random_instances(schema, 3, 5, count=3, seed=i):
            table = eval_mv(mv, instance)
            for fact, multiplicity in table.items():
                assert oid_count(q, instance, fact.args) == multiplicity
            # zero outside the result
            assert all(
                oid_count(q, instance, f.args) > 0 for f in table
            )


def test_mv_ground_set_is_classical_result():
    from oidcheck.model import predicate_arities

    q = gen_random_query(seed=5, num_atoms=2, num_vars=3, max_arity=2)
    core = ConjunctiveQuery(Atom("T0", tuple(q.distinguished)), q.body)
    mv = MVQuery(core, frozenset(q.creation) - frozenset(q.distinguished))
    for instance in random_instances(predicate_arities(q.body), 3, 5, count=10, seed=3):
        assert set(eval_mv(mv, instance)) == set(eval_cq(core, instance))
