import contextlib
import random
import signal
import time

import pytest

from conftest import brute_oid_isomorphic, reference_multiplication_instance
from pairgen import random_entail_pair
from oidcheck.errors import ArityMismatchError, HeadMismatchError
from oidcheck.evaluation import chase, eval_ocq
from oidcheck.model import (
    Atom,
    Constant,
    ExtendedFact,
    Fact,
    FuncTerm,
    Variable,
    frozen_constant,
    names_in_use,
    oids,
)
from oidcheck.oracle import (
    _multiplication_candidates,
    instance_enumerator,
    multiplication_instance,
    oid_isomorphic,
    random_instances,
    satisfies_sotgd,
    search_counterexample_entail,
    search_counterexample_oid,
)
from oidcheck.parser import parse_extended_instance, parse_instance, parse_rule


def cnst(name):
    return Constant(name)


def test_oid_isomorphic_family_pair(family_result, family_result_g):
    mapping = oid_isomorphic(family_result, family_result_g)
    assert mapping is not None

    def f(*names):
        return FuncTerm("f", tuple(cnst(n) for n in names))

    def g(*names):
        return FuncTerm("g", tuple(cnst(n) for n in names))

    assert mapping == {
        f("anne", "adam"): g("anne", "adam", "anne"),
        f("claire", "carl"): g("claire", "carl", "claire"),
        f("diana", "carl"): g("diana", "carl", "diana"),
    }


def test_oid_isomorphic_count_separation(abstract_q, abstract_q_prime, shared_middle):
    left = eval_ocq(abstract_q, shared_middle)
    right = eval_ocq(abstract_q_prime, shared_middle)
    assert len(oids(left)) == 1 and len(oids(right)) == 2
    assert oid_isomorphic(left, right) is None
    assert not brute_oid_isomorphic(left, right)


def test_oid_isomorphic_identity(family_result):
    mapping = oid_isomorphic(family_result, family_result)
    assert mapping is not None
    assert all(k == v for k, v in mapping.items())


def test_oid_isomorphic_requires_same_constants():
    j1 = parse_extended_instance("T(a,f(b)).")
    j2 = parse_extended_instance("T(c,f(b)).")
    assert oid_isomorphic(j1, j2) is None


def test_oid_isomorphic_symmetric_and_transitive(family_result, family_result_g):
    forward = oid_isomorphic(family_result, family_result_g)
    backward = oid_isomorphic(family_result_g, family_result)
    assert {v: k for k, v in forward.items()} == backward


def test_oid_isomorphic_with_created_terms_in_two_columns():
    # multi-column occurrences force the general search
    j1 = parse_extended_instance("T(a,f(b)). U(f(b),a).")
    j2 = parse_extended_instance("T(a,g(c)). U(g(c),a).")
    mapping = oid_isomorphic(j1, j2)
    assert mapping is not None
    assert not brute_oid_isomorphic(j1, parse_extended_instance("T(a,g(c)). U(g(d),a)."))
    assert oid_isomorphic(j1, parse_extended_instance("T(a,g(c)). U(g(d),a).")) is None


def test_oid_isomorphic_multiset_of_companions():
    # same companion sets but different multiplicities must fail
    j1 = parse_extended_instance("T(a,f(b)). T(a,f(c)). T(d,f(c)).")
    j2 = parse_extended_instance("T(a,g(b)). T(d,g(b)). T(a,g(c)).")
    assert (oid_isomorphic(j1, j2) is None) == (not brute_oid_isomorphic(j1, j2))


@contextlib.contextmanager
def _within(seconds):
    """Raise TimeoutError in the block once it has run ``seconds`` of wall
    time, so that a search that does not end fails instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _carries(mapping, j1, j2) -> bool:
    return sorted(mapping.values(), key=repr) == sorted(oids(j2), key=repr) and frozenset(
        ExtendedFact(f.predicate, tuple(mapping.get(a, a) for a in f.args)) for f in j1
    ) == j2


def _created(symbol, i):
    return FuncTerm(symbol, (cnst(f"c{i}"),))


def _cycles(symbol, lengths, rng=None):
    """Directed cycles of the given lengths over fresh created terms, their
    nodes numbered in a seeded random order when ``rng`` is given."""
    nodes = list(range(sum(lengths)))
    if rng is not None:
        rng.shuffle(nodes)
    facts, start = set(), 0
    for length in lengths:
        ring = nodes[start:start + length]
        for i, node in enumerate(ring):
            successor = ring[(i + 1) % length]
            facts.add(ExtendedFact("E", (_created(symbol, node), _created(symbol, successor))))
        start += length
    return frozenset(facts)


def test_oid_isomorphic_many_pairs_in_two_columns():
    # one created term per column in each of 1,500 facts: a search that
    # recurses once per created term reaches the recursion limit here
    j1 = frozenset(ExtendedFact("T", (_created("f", i), _created("g", i))) for i in range(1500))
    j2 = frozenset(ExtendedFact("T", (_created("h", i), _created("k", i))) for i in range(1500))
    with _within(10):
        mapping = oid_isomorphic(j1, j2)
    assert mapping is not None and _carries(mapping, j1, j2)


def test_oid_isomorphic_long_cycle_against_a_shuffled_renaming():
    # every term has the same signature, so only the checks on facts with
    # two created terms tell the candidates apart
    j1 = _cycles("f", [200])
    j2 = _cycles("g", [200], random.Random(200))
    with _within(10):
        mapping = oid_isomorphic(j1, j2)
    assert mapping is not None and _carries(mapping, j1, j2)


def test_oid_isomorphic_cycle_against_two_half_cycles():
    # the same facts, terms and signatures, and no bijection
    j1 = _cycles("f", [40])
    j2 = _cycles("g", [20, 20], random.Random(40))
    with _within(10):
        assert oid_isomorphic(j1, j2) is None


def test_satisfies_varied_names(family_q, parents, family_names_varied):
    report = satisfies_sotgd(parents, family_names_varied, family_q)
    assert report.satisfied
    table = {tuple(c.name for c in k): v.name for k, v in report.witness_table.items()}
    assert table == {
        ("anne", "adam"): "jones",
        ("claire", "carl"): "simpson",
        ("diana", "carl"): "smith",
    }


def test_satisfies_constant_function(family_q, parents, family_names_constant):
    report = satisfies_sotgd(parents, family_names_constant, family_q)
    assert report.satisfied
    assert all(v.name == "jones" for v in report.witness_table.values())


def test_satisfies_violating_group(family_q, parents, family_names_split):
    report = satisfies_sotgd(parents, family_names_split, family_q)
    assert not report.satisfied
    key, requirements = report.violating_group
    assert tuple(c.name for c in key) == ("anne", "adam")
    required = {tuple(c.name for c in dist): {v.name for v in values} for dist, values in requirements}
    assert required == {("beth",): {"jones"}, ("ben",): {"murphy"}}


def test_satisfies_arity_mismatch(family_q, parents):
    bad = parse_instance("Family(a,b,c).")
    with pytest.raises(ArityMismatchError):
        satisfies_sotgd(parents, bad, family_q)


def test_satisfies_monotone_under_target_extension(family_q, parents, family_names_varied):
    extended = family_names_varied | parse_instance("Family(dave,poe).")
    assert satisfies_sotgd(parents, extended, family_q).satisfied


def test_chase_satisfies_own_query(family_q, parents):
    ground, _ = chase(family_q, parents)
    assert satisfies_sotgd(parents, ground, family_q).satisfied


def test_search_counterexample_oid_finds_separations(
    abstract_q, abstract_q_prime, keyed_q, keyed_q_prime
):
    found = search_counterexample_oid(abstract_q, abstract_q_prime)
    assert found is not None
    assert oid_isomorphic(eval_ocq(abstract_q, found), eval_ocq(abstract_q_prime, found)) is None

    found = search_counterexample_oid(keyed_q, keyed_q_prime)
    assert found is not None
    left, right = eval_ocq(keyed_q, found), eval_ocq(keyed_q_prime, found)
    assert oid_isomorphic(left, right) is None


def test_search_counterexample_oid_none_for_self(family_q):
    assert search_counterexample_oid(family_q, family_q, budget=50) is None


def test_search_counterexample_entail(abstract_q, abstract_q_prime):
    # the coarser query does not entail the finer one
    found = search_counterexample_entail(abstract_q_prime, abstract_q)
    assert found is not None
    source, target = found
    assert satisfies_sotgd(source, target, abstract_q_prime).satisfied
    assert not satisfies_sotgd(source, target, abstract_q).satisfied
    # while the converse direction has no counterexample
    assert search_counterexample_entail(abstract_q, abstract_q_prime, budget=60) is None


def test_search_counterexample_entail_self(family_q):
    assert search_counterexample_entail(family_q, family_q, budget=50) is None


@pytest.mark.parametrize("other", ["S(x,f(y)) <- R(x,y).", "T(x,z,f(y)) <- R(x,y), R(y,z)."])
def test_search_counterexample_entail_rejects_different_heads(other):
    # named by the heads the user wrote, not by a fact the chase generated
    q, q_other = parse_rule("T(x,f(y)) <- R(x,y)."), parse_rule(other)
    for left, right in ((q, q_other), (q_other, q)):
        expected = (
            f"heads differ: {left.head_predicate}/{left.head_arity} vs "
            f"{right.head_predicate}/{right.head_arity}"
        )
        with pytest.raises(HeadMismatchError, match=f"^{expected}$"):
            search_counterexample_entail(left, right)
    # a different head always separates the results
    assert search_counterexample_oid(q, q_other) == frozenset({
        Fact("R", (frozen_constant(Variable("x")), frozen_constant(Variable("y"))))
    })


@pytest.mark.parametrize("taken", ["z_cp1", "z_1"])
def test_multiplication_copies_are_named_apart_from_body_variables(taken):
    # the body already has a variable named like a copy of z
    q = parse_rule(f"T(x,f(z)) <- R(x,z), S(x,{taken}).")
    first = next(_multiplication_candidates(q, q))
    copies = {f.args[1] for f in first if f.predicate == "R"}
    assert len(copies) == 2
    assert copies.isdisjoint(frozen_constant(v) for v in q.variables)


@pytest.mark.parametrize("copies,diagonal", [(2, True), (2, False), (3, False)])
def test_multiplication_instance_agrees_with_reference(copies, diagonal):
    # the per-atom builder against a copy of the one that renamed whole bodies,
    # on the multiplied creation variables of each side and on every variable
    for seed in range(300):
        pair = random_entail_pair(seed)
        taken = names_in_use(*pair)
        for q in pair:
            for multiplied in (q.z_set - q.x_set, q.variables):
                args = (q.body, multiplied, copies, diagonal, taken)
                assert multiplication_instance(*args) == reference_multiplication_instance(*args)


def test_multiplication_instance_builds_a_long_product_per_atom():
    # 16 odd path variables multiplied independently: renaming whole bodies
    # would build 2 ** 16 copies of the 32 atoms, each atom has two images
    body = frozenset(Atom("E", (Variable(f"x{i}"), Variable(f"x{i + 1}"))) for i in range(32))
    odd = frozenset(Variable(f"x{i}") for i in range(1, 32, 2))
    started = time.perf_counter()
    instance = multiplication_instance(body, odd, 2, False, set())
    elapsed = time.perf_counter() - started
    assert len(instance) == 64
    assert elapsed < 2.0


def test_instance_enumerator_unary():
    out = list(instance_enumerator({"R": 1}, 1, 1))
    assert out == [frozenset(), frozenset({Fact("R", (cnst("d1"),))})]


def test_instance_enumerator_binary_counts():
    out = list(instance_enumerator({"R": 2}, 2, 4))
    assert len(out) == 16
    assert len(set(out)) == 16


def test_instance_enumerator_zero_budget():
    assert list(instance_enumerator({"R": 2}, 2, 0)) == [frozenset()]


def test_random_instances_deterministic():
    a = list(random_instances({"R": 2}, 3, 4, count=5, seed=9))
    b = list(random_instances({"R": 2}, 3, 4, count=5, seed=9))
    assert a == b


def test_isomorphic_results_force_equal_oid_counts(family_q, family_q_prime, parents):
    # whenever the bijection exists, per-tuple created-term counts coincide
    from itertools import product

    from oidcheck.evaluation import oid_count
    from oidcheck.model import adom

    left = eval_ocq(family_q, parents)
    right = eval_ocq(family_q_prime, parents)
    assert oid_isomorphic(left, right) is not None
    for values in product(sorted(adom(parents)), repeat=1):
        assert oid_count(family_q, parents, values) == oid_count(
            family_q_prime, parents, values
        )
