"""Cross-cutting properties: metamorphic laws of the deciders, algebra of the
oracle, and agreement between the implementation and brute-force semantics."""

import json
import random
import time
from itertools import islice

from hypothesis import example, given, settings, strategies as st

from conftest import (
    _facts_by_predicate,
    _position_index,
    _reference_search,
    brute_matchings,
    brute_oid_isomorphic,
    reference_align_creation,
    reference_align_distinguished,
    reference_chase,
    reference_dedupe_creation_vars,
    reference_disjoint_frozen_union,
    reference_equiv_via_mv,
    reference_equiv_via_permutation,
    reference_eval_ocq,
    reference_flattened,
    reference_homomorphisms,
    reference_matchings,
    reference_oid_count,
    reference_oid_isomorphic,
    reference_rename_query,
    reference_satisfies_sotgd,
    reference_witness_from_mv,
)
from pairgen import (
    gen_random_query,
    random_entail_pair,
    random_equivalent_pair,
    random_normalized_pair,
    random_variable_bijection,
)

from oidcheck.cli import main
from oidcheck.entail import decide_entails
from oidcheck.errors import OidcheckError
from oidcheck.evaluation import (
    _join,
    chase,
    eval_ocq,
    matchings,
    oid_count,
)
from oidcheck.hom import HomConstraint, iter_homomorphisms
from oidcheck.model import (
    Atom,
    Constant,
    ExtendedFact,
    Fact,
    FuncTerm,
    RawRule,
    Record,
    SkolemQuery,
    Variable,
    adom,
    body_variables,
    canonical_atoms,
    flatten_query,
    frozen_constant,
    predicate_arities,
    rename_atoms,
    rename_query,
    validate_rule,
)
from oidcheck.normalize import (
    NormalizedPair,
    align_creation,
    align_distinguished,
    check_creation_profile,
    dedupe_creation_vars,
    normalize_pair,
)
from oidcheck.oid_equiv import (
    _witness_from_mv,
    decide_oid_equiv,
    equiv_via_mv,
    equiv_via_permutation,
)
from oidcheck.oracle import (
    disjoint_frozen_union,
    multiplication_instance,
    oid_isomorphic,
    random_instances,
    satisfies_sotgd,
)
from oidcheck.parser import parse_instance, parse_rule


@st.composite
def small_instances(draw):
    n = draw(st.integers(0, 6))
    constants = [Constant(c) for c in "abcd"]
    facts = set()
    for _ in range(n):
        arity = draw(st.integers(1, 3))
        facts.add(
            Fact(
                f"R{arity}",
                tuple(draw(st.sampled_from(constants)) for _ in range(arity)),
            )
        )
    return frozenset(facts)


@st.composite
def small_bodies(draw):
    # up to four atoms, so the join order matters; variables may repeat, Q
    # never occurs in an instance, and an atom R{j} of arity other than j
    # meets only facts of arity j, which the arity check must reject
    variables = [Variable(v) for v in "xyzw"]
    n = draw(st.integers(1, 4))
    atoms = set()
    for _ in range(n):
        arity = draw(st.integers(1, 3))
        predicate = draw(st.sampled_from([f"R{arity}"] * 3 + ["Q", f"R{arity % 3 + 1}"]))
        atoms.add(
            Atom(
                predicate,
                tuple(draw(st.sampled_from(variables)) for _ in range(arity)),
            )
        )
    return frozenset(atoms)


@given(small_bodies(), small_instances())
@settings(max_examples=300, deadline=None)
def test_matchings_agree_with_brute_force(body, instance):
    result = matchings(body, instance)
    fast = {frozenset(m.items()) for m in result}
    assert len(result) == len(fast)  # no valuation twice
    brute = {frozenset(m.items()) for m in brute_matchings(body, instance)}
    assert fast == brute


@st.composite
def projection_cases(draw):
    # bodies of 1-5 atoms over six variables are often disconnected; N is
    # nullary, Q never occurs in an instance, and N() is in half the instances
    variables = [Variable(v) for v in "uvwxyz"]
    atoms = set()
    for _ in range(draw(st.integers(1, 5))):
        predicate = draw(st.sampled_from(["R1", "R2", "R2", "R3", "N", "Q"]))
        arity = 0 if predicate == "N" else 2 if predicate == "Q" else int(predicate[1])
        atoms.add(Atom(predicate, tuple(draw(st.sampled_from(variables)) for _ in range(arity))))
    instance = draw(small_instances())
    if draw(st.booleans()):
        instance |= {Fact("N", ())}
    present = sorted({v for a in atoms for v in a.args})
    kind = draw(st.sampled_from(["empty", "partial", "full"]))
    if kind == "empty" or not present:
        out = []
    elif kind == "full":
        out = draw(st.permutations(present))
    else:
        out = draw(st.lists(st.sampled_from(present), min_size=1, max_size=len(present)))
    return frozenset(atoms), instance, out


@given(projection_cases())
@settings(max_examples=300, deadline=None)
def test_matchings_projection_agrees_with_brute_force(case):
    body, instance, out = case
    rows = matchings(body, instance, out)
    assert all(row.keys() == set(out) for row in rows)
    projected = {frozenset(row.items()) for row in rows}
    assert len(rows) == len(projected)  # no projection twice
    brute = {
        frozenset((v, m[v]) for v in out) for m in brute_matchings(body, instance)
    }
    assert projected == brute


@st.composite
def unrelated_facts(draw):
    # facts over predicates no generated body names, on the instances'
    # constants and on their own
    constants = [Constant(c) for c in ("a", "b", "n1", "n2")]
    facts = set()
    for _ in range(draw(st.integers(0, 8))):
        predicate, arity = draw(st.sampled_from([("Born", 1), ("Lives", 2), ("Sibling", 3)]))
        facts.add(Fact(predicate, tuple(draw(st.sampled_from(constants)) for _ in range(arity))))
    return frozenset(facts)


@given(projection_cases(), unrelated_facts())
@settings(max_examples=300, deadline=None)
def test_matchings_ignore_predicates_the_body_does_not_name(case, noise):
    body, instance, out = case
    for keep in (out, None):
        rows = matchings(body, instance | noise, keep)
        assert rows == matchings(body, instance, keep)  # same rows, same order
        variables = out if keep is not None else sorted(body_variables(body))
        assert {frozenset(row.items()) for row in rows} == {
            frozenset((v, m[v]) for v in variables)
            for m in brute_matchings(body, instance | noise)
        }


@given(projection_cases())
@settings(max_examples=100, deadline=None)
def test_matchings_read_a_one_shot_instance(case):
    # the instance is read once, so a generator gives what the set gives
    body, instance, out = case
    assert matchings(body, (f for f in instance), out) == matchings(body, instance, out)


def _as_rows(rows):
    """The rows as a sorted list, so that a row found twice still counts twice."""
    return sorted(sorted((v.name, c.name) for v, c in row.items()) for row in rows)


def _agree_with_reference(body, instance, out):
    """``matchings`` gives the reference's rows, each with its keys in ``out``
    order (by name for the whole valuations), and the same sequence twice."""
    rows = matchings(body, instance, out)
    keys = list(dict.fromkeys(out)) if out is not None else sorted(body_variables(body))
    assert all(list(row) == keys for row in rows)
    assert _as_rows(rows) == _as_rows(reference_matchings(body, instance, out))
    assert matchings(body, instance, out) == rows


@given(projection_cases(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_matchings_agree_with_reference_in_order(case, whole):
    # for a projection onto out and for the whole valuations; the order of
    # the rows is unspecified, the order of each row's keys is not
    body, instance, out = case
    _agree_with_reference(body, instance, None if whole else out)


# predicate -> arity; N is nullary, so a body may hold N() on either side
_HOM_SCHEMA = {"N": 0, "P": 1, "R": 2, "S": 2, "U": 3}


@st.composite
def _hom_body(draw, names, max_atoms):
    variables = [Variable(n) for n in names]
    atoms = set()
    for _ in range(draw(st.integers(0, max_atoms))):
        predicate = draw(st.sampled_from(sorted(_HOM_SCHEMA)))
        args = tuple(draw(st.sampled_from(variables)) for _ in range(_HOM_SCHEMA[predicate]))
        atoms.add(Atom(predicate, args))
    return frozenset(atoms)


@st.composite
def hom_cases(draw):
    # the target holds most of the image of the source under a drawn map, so
    # many cases have homomorphisms, plus other atoms, so many have several;
    # the bodies share the names x and y, and a constraint may name variables
    # of neither body
    src = draw(_hom_body("xyzw", 4))
    dst_pool = [Variable(n) for n in "xyab"]
    image = {v: draw(st.sampled_from(dst_pool)) for v in sorted(body_variables(src))}
    planted = sorted(rename_atoms(src, image), key=lambda a: (a.predicate, a.args))
    dst = frozenset(a for a in planted if draw(st.integers(0, 4))) | draw(_hom_body("xyab", 6))
    src_pool = [Variable(n) for n in "xyzwv"]
    dst_pool.append(Variable("c"))
    subsets = st.lists(st.sampled_from(dst_pool), min_size=2, unique=True).map(frozenset)
    fixed = draw(st.dictionaries(st.sampled_from(src_pool), st.sampled_from(dst_pool), max_size=3))
    injective_on = draw(st.lists(st.sampled_from(src_pool), unique=True).map(frozenset))
    image_in = draw(st.dictionaries(st.sampled_from(src_pool), subsets, max_size=2))
    return src, dst, HomConstraint(fixed, injective_on, image_in)


_x, _y, _a, _b = (Variable(n) for n in "xyab")
_v0, _v1, _v2, _u0, _u1, _u2 = (Variable(n) for n in ("v0", "v1", "v2", "u0", "u1", "u2"))
_v3, _v4, _w0, _w1, _w2, _w3, _w4 = (Variable(n) for n in ("v3", "v4", "w0", "w1", "w2", "w3", "w4"))


@given(hom_cases())
# image_in moves y ahead of x in the static order, which changes the sequence
@example((
    frozenset({Atom("R", (_x, _y)), Atom("P", (_x,))}),
    frozenset({Atom("R", (_a, _a)), Atom("R", (_a, _b)), Atom("R", (_b, _a)),
               Atom("P", (_a,)), Atom("P", (_b,))}),
    HomConstraint(image_in={_y: frozenset({_a, _b})}),
))
# no target U atom has equal first and second arguments, so U(v1,v1,v2) has
# no image and nothing is yielded; an engine that checks a repeated variable
# only position by position can miss that
@example((
    frozenset({Atom("U", (_v1, _v1, _v2)), Atom("U", (_v0, _v1, _v0))}),
    frozenset({Atom("U", (_u2, _u0, _u0)), Atom("S", (_u1, _u0)), Atom("V", (_u1,)),
               Atom("U", (_u1, _u0, _u0))}),
    HomConstraint(fixed={_v2: _u0}, image_in={_v2: frozenset({_u0, _u2})}),
))
# shaped like cq_contained: both head variables fixed, so the root
# propagation starts from two variables and leaves v1 two images
@example((
    frozenset({Atom("R", (_v0, _v1)), Atom("S", (_v1, _v2)), Atom("U", (_v2, _v3, _v1))}),
    frozenset({Atom("R", (_w0, _w1)), Atom("R", (_w0, _w2)), Atom("S", (_w1, _w4)),
               Atom("S", (_w2, _w4)), Atom("U", (_w4, _w3, _w1)), Atom("U", (_w4, _w3, _w2)),
               Atom("V", (_w3,))}),
    HomConstraint(fixed={_v0: _w0, _v3: _w3}),
))
# shaped like mv_homomorphism: head variables fixed, the multiset variables
# injective and mapped into the target's, which they may swap
@example((
    frozenset({Atom("S", (_v0, _v1)), Atom("S", (_v0, _v2)), Atom("V", (_v3,))}),
    frozenset({Atom("S", (_v0, _v1)), Atom("S", (_v0, _v2)), Atom("S", (_v0, _v4)),
               Atom("V", (_v3,))}),
    HomConstraint(fixed={_v0: _v0, _v3: _v3}, injective_on=frozenset({_v1, _v2}),
                  image_in=dict.fromkeys((_v1, _v2), frozenset({_v1, _v2}))),
))
@settings(max_examples=400, deadline=None)
def test_homomorphisms_agree_with_reference_in_order(case):
    src, dst, constraint = case
    expected = list(reference_homomorphisms(src, dst, constraint))
    assert list(iter_homomorphisms(src, dst, constraint)) == expected
    assert list(iter_homomorphisms(src, dst)) == list(reference_homomorphisms(src, dst))


@given(hom_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_homomorphisms_do_not_depend_on_the_order_of_source_atoms(case, data):
    # the static variable order, the arc-consistent fixpoint and the order of
    # candidate images are each the same in whatever order the atoms come
    src, dst, constraint = case
    atoms = canonical_atoms(src)
    expected = list(iter_homomorphisms(atoms, dst, constraint))
    for order in (atoms[::-1], data.draw(st.permutations(atoms))):
        assert list(iter_homomorphisms(order, dst, constraint)) == expected


@given(hom_cases())
@settings(max_examples=200, deadline=None)
def test_homomorphisms_read_one_shot_iterables(case):
    # each body is read once, so generators give what lists give
    src, dst, constraint = case
    expected = list(iter_homomorphisms(list(src), list(dst), constraint))
    assert list(iter_homomorphisms((a for a in src), (a for a in dst), constraint)) == expected


def _as_facts(atoms):
    """``atoms`` as ground facts, each variable read as the constant of its name."""
    return frozenset(Fact(a.predicate, tuple(Constant(v.name) for v in a.args)) for a in atoms)


@given(hom_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_homomorphisms_keep_yields_each_restriction_once(case, data):
    # keep mode yields each distinct restriction of the reference's
    # homomorphisms to keep exactly once, its keys in keep order: under the
    # drawn constraint, under its fixed part alone with keep outside it (the
    # shape of oid_count's start), and with none; on variable targets and on
    # facts as targets; and a bounded read is a prefix of the whole
    src, dst, constraint = case
    present = sorted(body_variables(src))
    if not present:
        return
    keep = tuple(data.draw(st.lists(st.sampled_from(present), min_size=1, unique=True)))
    fixed = {v: w for v, w in constraint.fixed.items() if v not in keep}
    to_constant = {w: Constant(w.name) for w in [*body_variables(dst), *constraint.fixed.values()]}
    for c in (constraint, HomConstraint(fixed=fixed), None):
        expected = {tuple(h[v].name for v in keep) for h in reference_homomorphisms(src, dst, c)}
        ground = c and HomConstraint(fixed={v: to_constant[w] for v, w in c.fixed.items()},
                                     injective_on=c.injective_on,
                                     image_in={v: frozenset(Constant(w.name) for w in ws)
                                               for v, ws in c.image_in.items()})
        for target, bound in ((dst, c), (_as_facts(dst), ground)):
            rows = list(iter_homomorphisms(src, target, bound, keep))
            assert all(tuple(row) == keep for row in rows)
            found = [tuple(row[v].name for v in keep) for row in rows]
            assert len(found) == len(set(found)) and set(found) == expected
            for k in {1, 2, len(rows) // 2, len(rows)} - {0}:
                assert list(islice(iter_homomorphisms(src, target, bound, keep), k)) == rows[:k]


def _random_body(rng, variables, size):
    atoms = set()
    while len(atoms) < size:
        predicate = rng.choice(sorted(_HOM_SCHEMA))
        atoms.add(Atom(predicate, tuple(rng.choice(variables) for _ in range(_HOM_SCHEMA[predicate]))))
    return frozenset(atoms)


def test_homomorphisms_agree_with_reference_on_larger_bodies():
    # bodies of 8-12 atoms over 6-8 variables, where propagation runs through
    # several atoms per assignment and ternary atoms repeat variables; the
    # target holds most of the image of the source under a drawn map, so most
    # cases have homomorphisms, and the constraint names source variables; the
    # source atoms come in canonical and in shuffled order
    for seed in range(300):
        rng = random.Random(seed)
        src_vars = [Variable(f"v{i}") for i in range(rng.randint(6, 8))]
        src = _random_body(rng, src_vars, rng.randint(8, 12))
        dst_vars = [Variable(f"u{i}") for i in range(5)]
        image = {v: rng.choice(dst_vars) for v in src_vars}
        planted = sorted(rename_atoms(src, image), key=lambda a: (a.predicate, a.args))
        dst = frozenset(a for a in planted if rng.random() < 0.95)
        dst |= _random_body(rng, dst_vars, rng.randint(2, 8))
        fixed = {v: image[v] for v in rng.sample(src_vars, rng.randint(0, 1))}
        injective_on = frozenset(rng.sample(src_vars, rng.randint(0, 3)))
        image_in = {
            v: frozenset({image[v], *rng.sample(dst_vars, rng.randint(0, 3))})
            for v in rng.sample(src_vars, rng.randint(0, 3))
        }
        for constraint in (HomConstraint(fixed, injective_on, image_in), None):
            expected = list(reference_homomorphisms(src, dst, constraint))
            assert list(iter_homomorphisms(src, dst, constraint)) == expected, seed
            shuffled = rng.sample(canonical_atoms(src), len(src))
            assert list(iter_homomorphisms(shuffled, dst, constraint)) == expected, seed


_CONSTANTS = [Constant(c) for c in "abcd"]


def _planted_join_case(seed):
    """A body of 4-9 atoms over 4-6 variables, the image of each variable
    under a drawn map, and an instance of most of the body's image plus noise
    over four constants; with the generator, for further draws."""
    rng = random.Random(seed)
    variables = [Variable(f"v{i}") for i in range(rng.randint(4, 6))]
    body = _random_body(rng, variables, rng.randint(4, 9))
    image = {v: rng.choice(_CONSTANTS) for v in variables}
    instance = {
        Fact(a.predicate, tuple(image[v] for v in a.args))
        for a in sorted(body, key=lambda a: (a.predicate, a.args))
        if rng.random() < 0.9
    }
    for _ in range(rng.randint(4, 24)):
        predicate = rng.choice(sorted(_HOM_SCHEMA))
        instance.add(Fact(predicate, tuple(rng.choice(_CONSTANTS) for _ in range(_HOM_SCHEMA[predicate]))))
    return rng, body, image, instance


def test_matchings_agree_with_reference_on_larger_bodies():
    # planted cases, so that atoms with one candidate and atoms with none
    # under the bound variables meet at many nodes
    for seed in range(400):
        rng, body, _, instance = _planted_join_case(seed)
        present = sorted(body_variables(body))
        for out in (None, rng.sample(present, rng.randint(0, len(present)))):
            _agree_with_reference(body, instance, out)


def test_bounded_search_returns_a_prefix_of_the_unbounded_one():
    # on planted cases, from an empty and from a bound starting valuation (the
    # shape of oid_count's start), for whole valuations and for projections:
    # the first k items of the unbounded search, in the same order
    for seed in range(300):
        rng, body, image, instance = _planted_join_case(seed)
        atoms = canonical_atoms(body)
        by_pred = _facts_by_predicate(instance, {a.predicate for a in atoms})
        index = _position_index(by_pred)
        present = sorted(body_variables(body))
        val = {v: rng.choice([image[v], *_CONSTANTS]) for v in rng.sample(present, rng.randint(0, 1))}
        unbound = [v for v in present if v not in val]
        for keep in (tuple(unbound), tuple(rng.sample(unbound, rng.randint(1, len(unbound))))):
            whole = _join(atoms, instance, val, keep)
            expected = _reference_search(atoms, val, by_pred, index, keep)
            assert _as_rows(whole) == _as_rows(expected), seed
            for k in sorted({1, 2, 3, len(whole) // 2 or 1, len(whole), len(whole) + 1} - {0}):
                assert _join(atoms, instance, val, keep, k) == whole[:k], seed


@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 5))
@settings(max_examples=300, deadline=None)
def test_oid_count_agrees_with_reference(seed, num_atoms, num_vars):
    # pairgen rules, whose distinguished tuple may repeat a variable and whose
    # creation variables may all be distinguished, over random instances and
    # over the multiplication instances normalize builds from the body; the
    # values are each distinguished tuple of the result, a draw from the
    # active domain beside a constant it lacks, and the frozen variables
    q = gen_random_query(seed, num_atoms, num_vars, max_arity=3)
    rng = random.Random(seed)
    instances = list(random_instances(predicate_arities(q.body), 3, 8, count=3, seed=seed))
    multiplied = q.z_set - q.x_set
    for copies, diagonal in ((2, True), (2, False), (3, False)):
        instances.append(multiplication_instance(q.body, multiplied, copies, diagonal, set()))
    for instance in instances:
        domain = sorted(adom(instance), key=lambda c: c.name) + [Constant("absent")]
        candidates = {
            f.args[: q.func_pos] + f.args[q.func_pos + 1 :] for f in eval_ocq(q, instance)
        }
        candidates.add(tuple(rng.choice(domain) for _ in q.distinguished))
        candidates.add(tuple(frozen_constant(v) for v in q.distinguished))
        for values in sorted(candidates, key=lambda t: [c.name for c in t]):
            expected = reference_oid_count(q, instance, values)
            assert oid_count(q, instance, values) == expected
            for limit in range(1, expected + 2):
                assert oid_count(q, instance, values, limit=limit) == min(expected, limit)


@given(st.integers(0, 300))
@settings(max_examples=80, deadline=None)
def test_oid_isomorphic_agrees_with_brute_force(seed):
    q = gen_random_query(seed, num_atoms=2, num_vars=3, max_arity=2)
    q_prime = gen_random_query(seed + 1, num_atoms=2, num_vars=3, max_arity=2)
    schema = dict(predicate_arities(q.body))
    for pred, arity in predicate_arities(q_prime.body).items():
        if schema.setdefault(pred, arity) != arity:
            return  # incompatible random schemas; skip
    for instance in random_instances(schema, 3, 4, count=3, seed=seed):
        left, right = eval_ocq(q, instance), eval_ocq(q_prime, instance)
        assert (oid_isomorphic(left, right) is not None) == brute_oid_isomorphic(
            left, right
        )


@st.composite
def extended_pairs(draw):
    # up to six created terms, all in T's second column or anywhere in the
    # two columns of E, where one fact may hold two; the second instance
    # renames the created terms of the first, and may have one fact changed
    columns = draw(st.integers(1, 2))
    n = draw(st.integers(0, 6))
    constants = [Constant(c) for c in "abc"]
    created = [FuncTerm("f", (Constant(f"k{i}"),)) for i in range(n)]
    renamed = [FuncTerm("g", (Constant(f"k{i}"),)) for i in range(n)]

    def fact(oids):
        if columns == 1:
            pair = (draw(st.sampled_from(constants)), draw(st.sampled_from(oids or constants)))
            return ExtendedFact("T", pair)
        terms = constants + oids
        return ExtendedFact("E", (draw(st.sampled_from(terms)), draw(st.sampled_from(terms))))

    j1 = frozenset(fact(created) for _ in range(draw(st.integers(0, 8))))
    image = dict(zip(created, draw(st.permutations(renamed))))
    j2 = {ExtendedFact(f.predicate, tuple(image.get(a, a) for a in f.args)) for f in j1}
    if j2 and draw(st.booleans()):
        j2.remove(draw(st.sampled_from(sorted(j2, key=lambda f: f.render()))))
        j2.add(fact(renamed))
    return columns, j1, frozenset(j2)


@given(extended_pairs())
@settings(max_examples=400, deadline=None)
def test_oid_isomorphic_agrees_with_reference(case):
    columns, j1, j2 = case
    expected = reference_oid_isomorphic(j1, j2)
    mapping = oid_isomorphic(j1, j2)
    assert (mapping is None) == (expected is None)
    if columns == 1:
        assert mapping == expected
    elif mapping is not None:
        assert frozenset(
            ExtendedFact(f.predicate, tuple(mapping.get(a, a) for a in f.args)) for f in j1
        ) == j2


@given(st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_equivalence_decision_is_symmetric(seed):
    q, q_prime = random_entail_pair(seed)
    forward = decide_oid_equiv(q, q_prime, search_counterexamples=False)
    backward = decide_oid_equiv(q_prime, q, search_counterexamples=False)
    assert forward.equivalent == backward.equivalent


@given(st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_equivalence_transitive_along_rewrites(seed):
    q, q_prime = random_equivalent_pair(seed)
    _, q_third = random_equivalent_pair(seed)  # same chain, second rewrite
    assert decide_oid_equiv(q, q_prime, search_counterexamples=False).equivalent
    assert decide_oid_equiv(q_prime, q_third, search_counterexamples=False).equivalent
    assert decide_oid_equiv(q, q_third, search_counterexamples=False).equivalent


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_entailment_reflexive(seed):
    q = gen_random_query(seed, num_atoms=2, num_vars=3, max_arity=2)
    assert decide_entails(q, q).entails


@given(st.integers(0, 10_000), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_satisfaction_monotone_under_random_supersets(seed, extra):
    q = gen_random_query(seed, num_atoms=2, num_vars=3, max_arity=2)
    schema = predicate_arities(q.body)
    for instance in random_instances(schema, 3, 4, count=2, seed=seed):
        from oidcheck.evaluation import chase

        ground, _ = chase(q, instance)
        addition = frozenset(
            Fact(q.head_predicate, tuple(Constant(f"e{i}_{j}") for j in range(q.head_arity)))
            for i in range(extra)
        )
        assert satisfies_sotgd(instance, ground | addition, q).satisfied


# names whose renderings and tuples sort apart, reserved forms among them,
# and the chase's own ``@k`` names
_GROUP_NAMES = ("a", "a1", "a_", "A", "b", "b#0", "frz:a", "@1", "@2")


@st.composite
def grouping_cases(draw):
    # a rule whose function term sits first, in the middle or last, may be
    # nullary and may repeat a distinguished variable; a source, loaded with
    # its reserved names, that holds the body under a few valuations and a
    # few other facts; and a target over the head
    variables = [Variable(v) for v in "xyzw"]
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        arity = draw(st.integers(1, 3))
        atoms.append(Atom(f"R{arity}", tuple(draw(st.sampled_from(variables)) for _ in range(arity))))
    in_body = sorted(body_variables(atoms))
    distinguished = draw(st.lists(st.sampled_from(in_body), max_size=3))
    creation = draw(st.lists(st.sampled_from(in_body), max_size=2))
    head_args = list(distinguished)
    head_args.insert(draw(st.integers(0, len(distinguished))), FuncTerm("f", tuple(creation)))
    q = validate_rule(RawRule("T", tuple(head_args), tuple(atoms)))
    names = st.sampled_from(_GROUP_NAMES)
    text = ""
    for _ in range(draw(st.integers(0, 4))):
        valuation = {v: draw(names) for v in in_body}
        text += "".join(f"{a.predicate}({','.join(valuation[v] for v in a.args)}). " for a in atoms)
    for _ in range(draw(st.integers(0, 6))):
        arity = draw(st.integers(1, 3))
        text += f"R{arity}({','.join(draw(names) for _ in range(arity))}). "
    target = frozenset(
        Fact("T", tuple(Constant(draw(names)) for _ in range(q.head_arity)))
        for _ in range(draw(st.integers(0, 6)))
    )
    return q, parse_instance(text, allow_reserved=True), target


@given(grouping_cases())
@example((
    parse_rule("T(x,f(y)) <- R(x,y)."),
    parse_instance("R(a,b). R(a,b#0).", allow_reserved=True),
    frozenset(),
))
@example((
    parse_rule("T(f(y),x,x) <- R(x,y)."),
    parse_instance("R(@1,b). R(a,@2). R(a,b).", allow_reserved=True),
    frozenset(),
))
@settings(max_examples=300, deadline=None)
def test_grouping_by_created_term_agrees_with_reference(case):
    # the result, the chase with its @k numbering, and the satisfaction report
    # on a random target, on the chase (satisfied) and on the chase less each
    # of its facts
    q, source, target = case
    assert eval_ocq(q, source) == reference_eval_ocq(q, source)
    result, expected = chase(q, source), reference_chase(q, source)
    assert result.instance == expected.instance
    assert list(result.oid_table.items()) == list(expected.oid_table.items())
    targets = [target, expected.instance, *(expected.instance - {f} for f in expected.instance)]
    for t in targets:
        assert satisfies_sotgd(source, t, q) == reference_satisfies_sotgd(source, t, q)


# names that collide with the fresh names ``<v>_<k>`` drawn for v1, v2 and a
_RENAME_POOL = tuple(
    Variable(n) for n in ("v1", "v2", "v3", "v1_1", "v1_2", "v2_1", "a", "a_1", "w")
)


def _normalized_pair_sides(seed: int) -> tuple[SkolemQuery, SkolemQuery]:
    pair = random_normalized_pair(seed)
    return pair.q, pair.q_prime


@st.composite
def derived_query_cases(draw):
    # a pairgen pair, its sides maybe swapped, with q_prime as drawn, renamed
    # injectively onto names the fresh-name rule draws too, or permuted onto
    # its own variables
    makers = [random_entail_pair, random_equivalent_pair, _normalized_pair_sides]
    make = draw(st.sampled_from(makers))
    q, q_prime = make(draw(st.integers(0, 10_000)))
    if draw(st.booleans()):
        q, q_prime = q_prime, q
    copy = draw(st.sampled_from(["drawn", "renamed", "permuted"]))
    if copy == "renamed":
        source = sorted(q_prime.variables)
        image = draw(st.permutations(_RENAME_POOL))
        q_prime = reference_rename_query(q_prime, dict(zip(source, image)))
    elif copy == "permuted":
        q_prime = random_variable_bijection(q_prime, draw(st.integers(0, 10_000)))
    return q, q_prime


def _ordered(value):
    """``value`` with each dict as its list of items and each record as its
    class and fields, so that equal results also agree in key order."""
    if isinstance(value, dict):
        return [(k, _ordered(v)) for k, v in value.items()]
    if isinstance(value, (tuple, list)):
        return [_ordered(v) for v in value]
    if isinstance(value, Record):
        return [type(value).__name__, *(_ordered(getattr(value, f)) for f in value._fields)]
    return value


@given(derived_query_cases())
# align_creation renames w onto y and must rename q_prime's own y apart, to a
# name that skips y_1, which q_prime already uses
@example((
    parse_rule("T(x,f(y)) <- R(x,y)."),
    parse_rule("T(x,f(w)) <- R(x,w), S(y,y_1)."),
))
# the flattened head predicate is named apart from the bodies of both queries
@example((parse_rule("T(x,f(y)) <- R(x,y), T_hat(y)."), parse_rule("T(x,f(y)) <- R(x,y).")))
@settings(max_examples=300, deadline=None)
def test_derived_queries_agree_with_reference(case):
    # the renaming, the normalization rewrites, the frozen union and both
    # oid-equivalence routes with the witness rebuilt from the multiset one
    q, q_prime = case
    mapping = dict(zip(sorted(q_prime.variables), sorted(q.variables)))
    assert _ordered(rename_query(q_prime, mapping)) == _ordered(
        reference_rename_query(q_prime, mapping))
    assert disjoint_frozen_union(q, q_prime) == reference_disjoint_frozen_union(q, q_prime)
    left, right = dedupe_creation_vars(q), dedupe_creation_vars(q_prime)
    assert _ordered((left, right)) == _ordered(
        (reference_dedupe_creation_vars(q), reference_dedupe_creation_vars(q_prime)))
    if q.func_pos != q_prime.func_pos:
        return
    aligned = align_distinguished(left, right)
    assert _ordered(aligned) == _ordered(reference_align_distinguished(left, right))
    # q_prime as aligned, and as drawn where its distinguished tuple is q's,
    # so that a creation name can capture one of its variables
    for other in (aligned, right):
        if (isinstance(other, SkolemQuery) and other.distinguished == left.distinguished
                and check_creation_profile(left, other) is None):
            assert _ordered(align_creation(left, other)) == _ordered(
                reference_align_creation(left, other))
    pair = normalize_pair(q, q_prime)
    if not isinstance(pair, NormalizedPair):
        return
    taken = {a.predicate for a in pair.q.body | pair.q_prime.body}
    flattened = flatten_query(pair.q, taken=taken), flatten_query(pair.q_prime, taken=taken)
    assert flattened == reference_flattened(pair)
    mv = equiv_via_mv(pair)
    assert _ordered(mv) == _ordered(reference_equiv_via_mv(pair))
    assert _ordered(equiv_via_permutation(pair)) == _ordered(reference_equiv_via_permutation(pair))
    if mv is not None:
        assert _ordered(_witness_from_mv(pair, *mv)) == _ordered(
            reference_witness_from_mv(pair, *mv))


@st.composite
def rule_parts(draw):
    # a rule's parts as built in code: its head predicate may stand in the
    # body, a predicate may take two arities, a head variable may be missing
    variables = st.sampled_from([Variable(v) for v in "xyzw"])
    body = draw(st.lists(
        st.builds(Atom, st.sampled_from("RSTU"), st.lists(variables, max_size=3).map(tuple)),
        min_size=1, max_size=3,
    ))
    distinguished = tuple(draw(st.lists(variables, max_size=2)))
    creation = tuple(draw(st.lists(variables, max_size=2)))
    return distinguished, creation, body, draw(st.integers(0, len(distinguished)))


def _outcome(build):
    """``(None, result)`` when ``build()`` returns, and ``(class, None)`` when
    it raises an ``OidcheckError`` of that class."""
    try:
        return None, build()
    except OidcheckError as err:
        return type(err), None


@given(rule_parts())
# T(x,f(y)) <- T(x,y). and T(x,f(z)) <- R(x,y).
@example(((_x,), (_y,), [Atom("T", (_x, _y))], 1))
@example(((_x,), (Variable("z"),), [Atom("R", (_x, _y))], 1))
@settings(max_examples=300, deadline=None)
def test_built_rule_raises_as_its_text_does(parts):
    distinguished, creation, body, func_pos = parts
    head = [v.name for v in distinguished]
    head.insert(func_pos, f"f({','.join(v.name for v in creation)})")
    text = f"T({','.join(head)}) <- {', '.join(a.render() for a in body)}."
    built = _outcome(
        lambda: SkolemQuery("T", distinguished, "f", creation, frozenset(body), func_pos))
    assert built == _outcome(lambda: parse_rule(text))


def test_worst_case_stress_with_time_guard():
    # the decision problems are exponential in the worst case; this fixture
    # pins a moderately hard shape under a wall-clock guard so regressions in
    # the search heuristics show up as a slow test rather than a hang
    body_atoms = ", ".join(f"E(x{i},x{(i + 1) % 7})" for i in range(7))
    q = parse_rule(f"T(x0,f(x1)) <- {body_atoms}.")
    body_atoms_rev = ", ".join(f"E(x{(i + 1) % 7},x{i})" for i in range(7))
    q_prime = parse_rule(f"T(x0,g(x1)) <- {body_atoms_rev}.")
    started = time.monotonic()
    decision = decide_oid_equiv(q, q_prime, budget=200)
    elapsed = time.monotonic() - started
    assert elapsed < 20.0
    # a 7-cycle and its reversal are homomorphically equivalent as graphs,
    # but the pinned head variables decide the verdict either way; we only
    # require termination and path agreement here
    assert decision.equivalent in (True, False)


def _check_cycle_against_bipartite(tmp_path, capsys, length, side, edge_count, seed):
    """Both ``check`` commands, both ways, on a directed cycle of ``length``
    (odd) against a seeded symmetric bipartite body (``side``+``side``
    variables, ``edge_count`` edges): every verdict is negative, exit 1.
    Returns the elapsed seconds."""
    cycle = ", ".join(f"E(x{i},x{(i + 1) % length})" for i in range(length))
    rng = random.Random(seed)
    edges = set()
    while len(edges) < edge_count:
        edges.add((rng.randrange(side), rng.randrange(side)))
    bipartite = ", ".join(f"E(l{i},r{j}), E(r{j},l{i})" for i, j in sorted(edges))
    left = tmp_path / "cycle.rules"
    left.write_text(f"T(u,f(w)) <- A(u,w), {cycle}.\n", encoding="utf-8")
    right = tmp_path / "bipartite.rules"
    right.write_text(f"T(u,g(w)) <- A(u,w), {bipartite}.\n", encoding="utf-8")
    started = time.monotonic()
    for command, verdict in (("oid-equiv", "not-equivalent"), ("entails", "not-entails")):
        for first, second in ((left, right), (right, left)):
            code = main(["check", command, str(first), str(second), "--json"])
            assert code == 1, capsys.readouterr().err
            assert json.loads(capsys.readouterr().out)["verdict"] == verdict
    return time.monotonic() - started


def test_cycle_against_bipartite_with_time_guard(tmp_path, capsys):
    # a directed 5-cycle against a seeded symmetric bipartite body (10+10
    # variables, 30 edges): no homomorphism either way, so every check is
    # negative. The bipartite body's matchings into the colored copies of
    # itself are too many to enumerate; only their projection onto the head
    # variables, with one witness for the rest, is small
    assert _check_cycle_against_bipartite(tmp_path, capsys, 5, 10, 30, 1977) < 20.0


def test_larger_odd_cycle_against_bipartite_with_time_guard(tmp_path, capsys):
    # a 9-cycle against 30+30 variables and 120 edges. The cycle's body
    # component binds no variable the checks read, so only whether it has a
    # match into the colored bipartite instance matters: arc consistency
    # refutes that once one variable is assigned, while enumerating the
    # cycle's partial matches there takes minutes
    assert _check_cycle_against_bipartite(tmp_path, capsys, 9, 30, 120, 1977) < 5.0


def test_chain_join_with_time_guard():
    # T(x,f(y,z)) <- R(x,y), R(y,z), S(z) over about 1,000 R facts: a join order
    # fixed before any variable is bound makes this cubic (minutes); the
    # result must equal a hash join and arrive well within the guard
    rng = random.Random(2012)
    constants = [Constant(f"c{i}") for i in range(250)]
    r_facts = {(rng.choice(constants), rng.choice(constants)) for _ in range(1000)}
    s_facts = {rng.choice(constants) for _ in range(100)}
    instance = frozenset(
        [Fact("R", pair) for pair in r_facts] + [Fact("S", (c,)) for c in s_facts]
    )
    successors: dict = {}
    for y, z in r_facts:
        successors.setdefault(y, []).append(z)
    expected = frozenset(
        ExtendedFact("T", (x, FuncTerm("f", (y, z))))
        for x, y in r_facts
        for z in successors.get(y, ())
        if z in s_facts
    )
    q = parse_rule("T(x,f(y,z)) <- R(x,y), R(y,z), S(z).")
    started = time.monotonic()
    result = eval_ocq(q, instance)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    assert expected and result == expected
