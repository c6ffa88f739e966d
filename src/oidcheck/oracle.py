"""Independent brute-force semantics: oid-isomorphism of results, direct
satisfaction of a query read as a mapping, instance enumeration, and bounded
counterexample search.

Nothing here reuses the decision procedures; this module exists so their
verdicts can be validated against first principles and so refutations come
with concrete, checkable instances.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import ArityMismatchError
from .evaluation import chase, eval_ocq, matchings
from .model import (
    Constant,
    Fact,
    FuncTerm,
    SkolemQuery,
    consts,
    freeze_body,
    merge_arities,
    oids,
    predicate_arities,
    render_term,
)
from .normalize import (
    FreshNames,
    _duplication_instance,
    _multiplication_instance,
    _names_in_use,
    disjoint_frozen_union,
)


# -- oid-isomorphism ----------------------------------------------------------


def _apply(mapping: Mapping, extended) -> frozenset:
    return frozenset(
        type(f)(f.predicate, tuple(mapping.get(a, a) for a in f.args)) for f in extended
    )


def _oid_columns(extended) -> frozenset:
    return frozenset(
        (f.predicate, i)
        for f in extended
        for i, a in enumerate(f.args)
        if isinstance(a, FuncTerm)
    )


def _signature(extended) -> dict:
    """Occurrence profile of each oid: counts per (predicate, position)."""
    sig: dict[FuncTerm, dict] = {}
    for f in extended:
        for i, a in enumerate(f.args):
            if isinstance(a, FuncTerm):
                slot = sig.setdefault(a, {})
                slot[(f.predicate, i)] = slot.get((f.predicate, i), 0) + 1
    return sig


def _fast_path(j1, j2, column) -> dict | None:
    pred, pos = column

    def ground(j) -> frozenset:
        return frozenset(
            f for f in j if f.predicate != pred or not isinstance(f.args[pos], FuncTerm)
        )

    if ground(j1) != ground(j2):
        return None

    def companions(j) -> dict:
        out: dict[FuncTerm, set] = {}
        for f in j:
            if f.predicate == pred and isinstance(f.args[pos], FuncTerm):
                rest = tuple(a for i, a in enumerate(f.args) if i != pos)
                out.setdefault(f.args[pos], set()).add(rest)
        return {o: frozenset(s) for o, s in out.items()}

    comp1, comp2 = companions(j1), companions(j2)
    buckets: dict[frozenset, list] = {}
    for o in sorted(comp2, key=render_term):
        buckets.setdefault(comp2[o], []).append(o)
    mapping: dict[FuncTerm, FuncTerm] = {}
    for o in sorted(comp1, key=render_term):
        bucket = buckets.get(comp1[o])
        if not bucket:
            return None
        mapping[o] = bucket.pop(0)
    if any(bucket for bucket in buckets.values()):
        return None
    return mapping if _apply(mapping, j1) == j2 else None


def _general_path(j1, j2) -> dict | None:
    sig1, sig2 = _signature(j1), _signature(j2)
    source = sorted(sig1, key=render_term)
    targets = sorted(sig2, key=render_term)

    def search(i: int, mapping: dict, used: set) -> dict | None:
        if i == len(source):
            return dict(mapping) if _apply(mapping, j1) == j2 else None
        o = source[i]
        for t in targets:
            if t in used or sig2[t] != sig1[o]:
                continue
            mapping[o] = t
            used.add(t)
            found = search(i + 1, mapping, used)
            if found is not None:
                return found
            used.discard(t)
            del mapping[o]
        return None

    return search(0, {}, set())


def oid_isomorphic(j1, j2) -> dict | None:
    """A bijection between the created terms of two extended instances that
    carries one onto the other (identity on constants), or None.

    When every created term occupies a single fixed column the instances are
    compared through per-oid companion-tuple sets; otherwise a backtracking
    bijection search runs.
    """
    if len(j1) != len(j2):
        return None
    if consts(j1) != consts(j2):
        return None
    oids1, oids2 = oids(j1), oids(j2)
    if len(oids1) != len(oids2):
        return None
    if not oids1:
        return {} if j1 == j2 else None
    columns = _oid_columns(j1) | _oid_columns(j2)
    if len(columns) == 1:
        return _fast_path(j1, j2, next(iter(columns)))
    return _general_path(j1, j2)


# -- satisfaction of a query read as a mapping --------------------------------


@dataclass(frozen=True)
class SatisfactionReport:
    satisfied: bool
    # creation-tuple -> chosen value, defined on every matched creation tuple
    witness_table: dict | None = None
    # (creation-tuple, required head groups): each group is a distinguished
    # tuple together with the values the target would allow for it
    violating_group: tuple | None = None


def satisfies_sotgd(instance, target, q: SkolemQuery) -> SatisfactionReport:
    """Does (instance, target) satisfy the query as an implication with an
    existentially chosen function?

    The matchings of the body, projected onto the creation and distinguished
    variables, are grouped by their creation-tuple image; every group must be
    able to agree on one target value. The witness table picks the
    lexicographically least value per group.
    """
    for f in target:
        if f.predicate != q.head_predicate or f.arity != q.head_arity:
            raise ArityMismatchError(
                f"target fact {f.render()} does not match head "
                f"{q.head_predicate}/{q.head_arity}"
            )
    by_distinguished: dict[tuple, set] = {}
    for f in target:
        args = list(f.args)
        value = args.pop(q.func_pos)
        by_distinguished.setdefault(tuple(args), set()).add(value)

    groups: dict[tuple, set | None] = {}
    requirements: dict[tuple, dict] = {}
    for m in matchings(q.body, instance, q.creation + q.distinguished):
        key = tuple(m[v] for v in q.creation)
        dist = tuple(m[v] for v in q.distinguished)
        allowed = by_distinguished.get(dist, set())
        requirements.setdefault(key, {})[dist] = allowed
        current = groups.get(key)
        groups[key] = set(allowed) if current is None else current & allowed

    def render_key(key: tuple) -> tuple:
        return tuple(c.name for c in key)

    for key in sorted(groups, key=render_key):
        if not groups[key]:
            needed = tuple(
                (dist, tuple(sorted(values, key=lambda c: c.name)))
                for dist, values in sorted(
                    requirements[key].items(), key=lambda kv: render_key(kv[0])
                )
            )
            return SatisfactionReport(False, violating_group=(key, needed))

    table = {key: min(values, key=lambda c: c.name) for key, values in groups.items()}
    return SatisfactionReport(True, witness_table=table)


# -- instance generation -------------------------------------------------------


def instance_enumerator(
    arities: Mapping[str, int], domain_size: int, max_facts: int
) -> Iterator[frozenset]:
    """All instances over the schema with at most ``max_facts`` facts over
    ``domain_size`` constants, smallest first; no duplicates."""
    constants = [Constant(f"d{i}") for i in range(1, domain_size + 1)]
    all_facts = [
        Fact(pred, args)
        for pred in sorted(arities)
        for args in itertools.product(constants, repeat=arities[pred])
    ]
    for size in range(min(max_facts, len(all_facts)) + 1):
        for combo in itertools.combinations(all_facts, size):
            yield frozenset(combo)


def random_instances(
    arities: Mapping[str, int],
    domain_size: int,
    max_facts: int,
    count: int,
    seed: int,
) -> Iterator[frozenset]:
    """Seeded stream of random instances over the schema."""
    rng = random.Random(seed)
    preds = sorted(arities)
    for _ in range(count):
        # a range, not the constants: the draws are the same, and a size of
        # millions builds only the constants drawn
        numbers = range(1, rng.randint(1, domain_size) + 1)
        n = rng.randint(1, max_facts)
        facts = set()
        for _ in range(n):
            pred = rng.choice(preds)
            args = (Constant(f"d{rng.choice(numbers)}") for _ in range(arities[pred]))
            facts.add(Fact(pred, tuple(args)))
        yield frozenset(facts)


# -- bounded counterexample search ---------------------------------------------


def _duplication_candidates(q: SkolemQuery, q_prime: SkolemQuery) -> Iterator[frozenset]:
    distinguished = frozenset(q.distinguished) | frozenset(q_prime.distinguished)
    for base in (q, q_prime):
        namer = FreshNames(_names_in_use(q, q_prime))
        for x in sorted(distinguished & base.variables):
            yield _duplication_instance(base.body, x, namer)


def _multiplication_candidates(q: SkolemQuery, q_prime: SkolemQuery) -> Iterator[frozenset]:
    names = _names_in_use(q, q_prime)
    for base in (q, q_prime):
        multiplied = base.z_set - base.x_set
        if not multiplied:
            continue
        # joint duplication first (smallest separating shape), then the
        # independent products
        for copies, diagonal in ((2, True), (2, False), (3, False)):
            yield _multiplication_instance(base.body, multiplied, copies, diagonal, names)


def _candidates(
    q: SkolemQuery, q_prime: SkolemQuery, max_domain: int, budget: int, seed: int,
    extra: Iterable[frozenset] = (),
) -> Iterator[frozenset]:
    """Frozen bodies, then ``extra``, then proof-shaped duplication and
    multiplication instances, then seeded random ones."""
    yield freeze_body(q.body)
    yield freeze_body(q_prime.body)
    yield from extra
    yield from _duplication_candidates(q, q_prime)
    yield from _multiplication_candidates(q, q_prime)
    schema = merge_arities(predicate_arities(q.body), predicate_arities(q_prime.body))
    yield from random_instances(schema, max_domain, max(4, 2 * len(schema)), budget, seed)


def search_counterexample_oid(
    q: SkolemQuery,
    q_prime: SkolemQuery,
    max_domain: int = 4,
    budget: int = 2000,
    seed: int = 0,
) -> frozenset | None:
    """First instance on which the two query results are not oid-isomorphic:
    frozen bodies, then proof-shaped duplication/multiplication instances,
    then seeded random search."""
    for candidate in _candidates(q, q_prime, max_domain, budget, seed):
        if oid_isomorphic(eval_ocq(q, candidate), eval_ocq(q_prime, candidate)) is None:
            return candidate
    return None


def search_counterexample_entail(
    q: SkolemQuery,
    q_prime: SkolemQuery,
    max_domain: int = 4,
    budget: int = 2000,
    seed: int = 0,
) -> tuple | None:
    """First (source, target) pair that satisfies q but not q_prime, built by
    chasing q over candidate sources. The disjoint frozen union and the colored
    canonical instance are tried right after the frozen bodies."""
    from .entail import canonical_colored_instance

    def shaped() -> Iterator[frozenset]:
        yield disjoint_frozen_union(q, q_prime)
        yield canonical_colored_instance(q_prime, q.func_arity).instance

    for source in _candidates(q, q_prime, max_domain, budget, seed, shaped()):
        target, _ = chase(q, source)
        if not satisfies_sotgd(source, target, q_prime).satisfied:
            return source, target
    return None
