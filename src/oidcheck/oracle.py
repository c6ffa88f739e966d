"""Independent semantics: an exact oid-isomorphism search over results,
direct satisfaction of a query read as a mapping, instance enumeration, the
counterexample-instance builders, and bounded counterexample search.

The builders are the instances of the paper's refutations: the disjoint
frozen union of two bodies, the duplication and multiplication instances of
the normal form for oid-equivalence, and the colored canonical instance for
entailment. ``normalize`` and ``entail`` build their counterexamples here, and
the bounded search tries the same shapes first.

Nothing here reuses the decision procedures, and this module imports none of
them; it takes the query semantics, the grouping by created term included,
from ``evaluation``. It exists so the verdicts can be validated against first
principles and so refutations come with concrete, checkable instances.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping

from .errors import ArityMismatchError
from .evaluation import chase, created_groups, eval_ocq
from .model import (
    FROZEN_PREFIX,
    Constant,
    Fact,
    FreshNames,
    FuncTerm,
    Record,
    SkolemQuery,
    Variable,
    body_arities,
    canonical_atoms,
    check_heads,
    freeze_body,
    fresh_name,
    frozen_constant,
    instance_lines,
    merge_arities,
    names_in_use,
    oids,
    render_term,
    rename_apart,
    rename_atoms,
)


# -- oid-isomorphism ----------------------------------------------------------

# stand-ins in a signature entry for the term's own positions and for any
# other created term
_OWN, _OTHER = "=", "*"


def _profile(extended) -> tuple[dict, list, set]:
    """Each created term's signature, the facts that hold two or more created
    terms (with those terms), and the facts that hold none."""
    entries: dict[FuncTerm, set] = {}
    shared, ground = [], set()
    for f in extended:
        held = {a for a in f.args if a.__class__ is FuncTerm}
        if not held:
            ground.add(f)
        elif len(held) > 1:
            shared.append((f, held))
        for o in held:
            entry = (f.predicate, *[
                a if a.__class__ is not FuncTerm else _OWN if a is o or a == o else _OTHER
                for a in f.args
            ])
            # a multiset as a set: the k-th copy of an entry is (entry, k)
            slot, key, k = entries.setdefault(o, set()), entry, 1
            while key in slot:
                k += 1
                key = (entry, k)
            slot.add(key)
    return {o: frozenset(s) for o, s in entries.items()}, shared, ground


def oid_isomorphic(j1, j2) -> dict | None:
    """A bijection between the created terms of two extended instances that
    carries one onto the other (identity on constants), or None.

    A created term's signature is the multiset of its facts with its own
    positions marked and every created term blanked; a bijection preserves
    it, so each term of ``j1`` tries only the unused terms of ``j2`` with its
    signature, in rendering order. Terms are taken in rendering order, except
    that a term sharing a fact with an earlier one follows it breadth first,
    and a fact is checked as soon as its last created term is mapped. A fact
    with one created term is settled by the signature, so when every created
    term sits in one column the search never backtracks. The work is kept on
    an explicit stack.
    """
    if len(j1) != len(j2) or len(oids(j1)) != len(oids(j2)):
        return None
    sig1, shared, ground1 = _profile(j1)
    sig2, _, ground2 = _profile(j2)
    if Counter(sig1.values()) != Counter(sig2.values()) or ground1 != ground2:
        return None
    buckets: dict[frozenset, list] = {}
    for t in sorted(sig2, key=render_term):
        buckets.setdefault(sig2[t], []).append(t)
    neighbours: dict[FuncTerm, set] = {}
    for _, held in shared:
        for o in held:
            neighbours.setdefault(o, set()).update(held)
    position: dict[FuncTerm, int] = {}
    for root in sorted(sig1, key=render_term):
        queue = [root]
        for o in queue:  # the queue grows as it is read: breadth first
            if o not in position:
                position[o] = len(position)
                queue += sorted(neighbours.get(o, ()), key=render_term)
    order = list(position)
    due: dict[FuncTerm, list] = {}
    for f, held in shared:
        due.setdefault(max(held, key=position.__getitem__), []).append(f)

    image: dict[FuncTerm, FuncTerm] = {}
    chosen: list[tuple[int, FuncTerm]] = []  # (bucket position, target) per mapped term
    p = 0
    while len(chosen) < len(order):
        o = order[len(chosen)]
        bucket = buckets[sig1[o]]
        for p in range(p, len(bucket)):
            image[o] = bucket[p]
            if all(
                type(f)(f.predicate, tuple(image.get(a, a) for a in f.args)) in j2
                for f in due.get(o, ())
            ):
                chosen.append((p, bucket.pop(p)))
                p = 0
                break
        else:
            if not chosen:
                return None
            p, t = chosen.pop()
            buckets[sig1[order[len(chosen)]]].insert(p, t)
            p += 1
    return image


# -- satisfaction of a query read as a mapping --------------------------------


class SatisfactionReport(Record):
    """``witness_table`` maps every matched creation tuple to its chosen
    value. ``violating_group`` is (creation tuple, required head groups):
    each group is a distinguished tuple with the values the target would
    allow for it."""

    __slots__ = ("satisfied", "witness_table", "violating_group")
    _defaults = {"witness_table": None, "violating_group": None}


def satisfies_sotgd(instance, target, q: SkolemQuery) -> SatisfactionReport:
    """Does (instance, target) satisfy the query as an implication with an
    existentially chosen function?

    Each group of ``evaluation.created_groups``, a creation tuple with its
    distinguished tuples, must be able to agree on one target value, and the
    violating group reported is the least by name. The witness table picks the
    lexicographically least value per group. A target fact that does not fit
    the head raises ``ArityMismatchError``, naming the first such fact in
    canonical fact order.
    """
    misfits = [f for f in target if f.predicate != q.head_predicate or f.arity != q.head_arity]
    if misfits:
        first = instance_lines(misfits)[0].removesuffix(".")
        raise ArityMismatchError(
            f"target fact {first} does not match head {q.head_predicate}/{q.head_arity}"
        )
    by_distinguished: dict[tuple, set] = {}
    for f in target:
        args = list(f.args)
        value = args.pop(q.func_pos)
        by_distinguished.setdefault(tuple(args), set()).add(value)

    groups = created_groups(q, instance)
    allowed = {
        key: set.intersection(*[by_distinguished.get(dist, set()) for dist in dists])
        for key, dists in groups.items()
    }
    # constants order by name, and so do tuples of them
    empty = [key for key, values in allowed.items() if not values]
    if empty:
        key = min(empty)
        needed = tuple(
            (dist, tuple(sorted(by_distinguished.get(dist, ())))) for dist in sorted(groups[key])
        )
        return SatisfactionReport(False, violating_group=(key, needed))

    table = {key: min(values) for key, values in allowed.items()}
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


# -- counterexample instances ---------------------------------------------------


def disjoint_frozen_union(q: SkolemQuery, q_prime: SkolemQuery) -> frozenset:
    """Both bodies frozen into one instance, q_prime's variables renamed
    apart first so the two parts share no elements."""
    return freeze_body(q.body) | freeze_body(rename_apart(q, q_prime).body)


def duplication_instance(body, x: Variable, namer: FreshNames) -> frozenset:
    """Frozen body plus a copy with one variable duplicated to a new element."""
    duplicate = namer.fresh_variable(x)
    copy = rename_atoms(body, {x: duplicate})
    return freeze_body(body) | freeze_body(copy)


def multiplication_instance(body, multiplied, copies: int, diagonal: bool,
                            taken: set[str]) -> frozenset:
    """Frozen body with the given variables multiplied into fresh copies
    ``<v>_<i>``, named apart from ``taken``; either jointly (diagonal) or
    independently (all combinations). Each atom ranges over the copies of its
    own multiplied variables only, so a fact is built once per combination of
    those, not once per combination of every multiplied variable."""
    used = set(taken)
    copy_constants: dict[Variable, list[Constant]] = {}
    for v in sorted(multiplied):
        names = copy_constants[v] = []
        for i in range(1, copies + 1):
            name = fresh_name(f"{v.name}_{i}", used)
            used.add(name)
            names.append(Constant(FROZEN_PREFIX + name))
    facts: set[Fact] = set()
    for atom in body:
        own = [v for v in dict.fromkeys(atom.args) if v in copy_constants]
        if diagonal:
            picks = [(i,) * len(own) for i in range(copies)]
        else:
            picks = itertools.product(range(copies), repeat=len(own))
        for pick in picks:
            image = dict(zip(own, pick))
            facts.add(Fact(atom.predicate, tuple([
                copy_constants[v][image[v]] if v in image else frozen_constant(v)
                for v in atom.args
            ])))
    return frozenset(facts)


def colored_instance(q_prime: SkolemQuery, colors: int) -> frozenset:
    """``colors + 1`` copies of the body, colored 0..colors: creation
    variables stay white (frozen), every other variable gets a constant per
    color."""
    white, atoms = q_prime.z_set, canonical_atoms(q_prime.body)
    return frozenset(
        Fact(atom.predicate, tuple([
            frozen_constant(v) if v in white else Constant(f"{v.name}#{level}") for v in atom.args
        ]))
        for level in range(colors + 1) for atom in atoms
    )


# -- bounded counterexample search ---------------------------------------------


def _duplication_candidates(q: SkolemQuery, q_prime: SkolemQuery) -> Iterator[frozenset]:
    distinguished = frozenset(q.distinguished) | frozenset(q_prime.distinguished)
    for base in (q, q_prime):
        namer = FreshNames(names_in_use(q, q_prime))
        for x in sorted(distinguished & base.variables):
            yield duplication_instance(base.body, x, namer)


def _multiplication_candidates(q: SkolemQuery, q_prime: SkolemQuery) -> Iterator[frozenset]:
    names = names_in_use(q, q_prime)
    for base in (q, q_prime):
        multiplied = base.z_set - base.x_set
        if not multiplied:
            continue
        # joint duplication first (smallest separating shape), then the
        # independent products
        for copies, diagonal in ((2, True), (2, False), (3, False)):
            yield multiplication_instance(base.body, multiplied, copies, diagonal, names)


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
    schema = merge_arities(body_arities(q.body), body_arities(q_prime.body))
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
    canonical instance are tried right after the frozen bodies. Raises
    ``HeadMismatchError`` when the heads differ."""
    check_heads(q.head_predicate, q.head_arity, q_prime.head_predicate, q_prime.head_arity)

    def shaped() -> Iterator[frozenset]:
        yield disjoint_frozen_union(q, q_prime)
        yield colored_instance(q_prime, q.func_arity)

    for source in _candidates(q, q_prime, max_domain, budget, seed, shaped()):
        target, _ = chase(q, source)
        if not satisfies_sotgd(source, target, q_prime).satisfied:
            return source, target
    return None
