"""Reference semantics: matchings, query evaluation, multiset (combined)
semantics, oid counts, and the chase. ``created_groups`` groups the matchings
by created term for the query result, the chase and ``oracle``'s satisfaction.

Every routine here runs on ``matchings``, the distinct restrictions of the
body's valuations to the variables its caller reads: the head arguments, the
creation and distinguished variables, or the multiset variables as well.
Evaluating a body over an instance is a homomorphism search with the facts as
its target (Chandra and Merlin, STOC 1977), so ``matchings`` has no engine of
its own: it splits the body into connected components by shared variables and
runs ``hom.iter_homomorphisms`` on each, projected onto the variables read;
``oid_count`` starts it from the distinguished variables fixed to the values
it is given, and may stop it after a number of results. Everything is
deterministic: atoms, candidate images, and created constants are processed
in a canonical sorted order, so the order of matchings is fixed for a given
input, though not specified; the routines built on them return sets, counts,
or sorted results.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import count, islice

from .hom import HomConstraint, find_homomorphism, iter_homomorphisms
from .model import (
    Atom,
    ConjunctiveQuery,
    Constant,
    ExtendedFact,
    Fact,
    FuncTerm,
    Record,
    SkolemQuery,
    Variable,
    adom,
    body_variables,
    canonical_atoms,
    render_term,
)


def _components(atoms: list[Atom]) -> list[list[Atom]]:
    """``atoms`` split into connected components by shared variables, each in
    the order of ``atoms`` and ordered by its first atom."""
    # union-find over atom positions
    parent = list(range(len(atoms)))
    first: dict[Variable, int] = {}
    for i, atom in enumerate(atoms):
        for v in atom.args:
            a, b = first.setdefault(v, i), i
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
    groups: dict[int, list[Atom]] = {}
    for i, atom in enumerate(atoms):
        while parent[i] != i:
            i = parent[i]
        groups.setdefault(i, []).append(atom)
    return list(groups.values())


def matchings(
    body: Iterable[Atom], instance, out: Iterable[Variable] | None = None
) -> list[dict]:
    """The distinct restrictions to ``out`` of the valuations sending every
    body atom into the instance.

    Returns plain dicts Variable -> Constant whose keys are exactly ``out``,
    in ``out`` order, which must be body variables; the default, every body
    variable by name, gives one dict per valuation. The body is split into
    connected components by shared variables, and the result is the cross
    product of their projections, each found by the homomorphism search with
    the instance as its target. A component without an ``out`` variable needs
    one match, and the result is empty when it has none. The order of the
    result is deterministic but otherwise unspecified.
    """
    atoms = canonical_atoms(set(body))
    variables = {v for a in atoms for v in a.args}
    keep = tuple(sorted(variables) if out is None else dict.fromkeys(out))
    if not variables.issuperset(keep):
        raise ValueError("projection variables must occur in the body")
    return _join(atoms, instance, {}, keep)


def _join(
    atoms: list[Atom], instance, val: dict, keep: tuple, limit: int | None = None
) -> list[dict]:
    """``matchings`` of ``atoms`` (canonically ordered) that extend ``val``,
    onto ``keep`` (no variable of ``val``), or the first ``limit`` of them."""
    predicates = {a.predicate for a in atoms}
    facts = [f for f in instance if f.predicate in predicates]
    if len({f.predicate for f in facts}) < len(predicates):
        return []
    rows = None
    parts = 0
    for component in _components(atoms) if len(atoms) > 1 else [atoms]:
        component_vars = {v for a in component for v in a.args}
        component_keep = tuple(v for v in keep if v in component_vars)
        fixed = val and {v: val[v] for v in component_vars if v in val}
        constraint = HomConstraint(fixed=fixed) if fixed else None
        if not component_keep:
            if find_homomorphism(component, facts, constraint) is None:
                return []
            continue
        found = list(islice(iter_homomorphisms(component, facts, constraint, component_keep), limit))
        if not found:
            return []
        rows = found if rows is None else [r | f for r in rows for f in found][:limit]
        parts += 1
    if parts > 1:  # keys in ``keep`` order, not by component
        rows = [{v: r[v] for v in keep} for r in rows]
    return [{}] if rows is None else rows


def eval_cq(q: ConjunctiveQuery, instance) -> frozenset:
    """Classical conjunctive-query result: one head fact per matching."""
    return frozenset(
        Fact(q.head.predicate, tuple(m[v] for v in q.head.args))
        for m in matchings(q.body, instance, q.head.args)
    )


def created_groups(q: SkolemQuery, instance) -> dict[tuple, list[tuple]]:
    """Each distinct creation tuple of the body's matchings mapped to the
    distinct distinguished tuples it pairs with, both in the order of
    ``matchings``: the one function term makes each tuple one created value."""
    out = q.creation + q.distinguished
    n = len(q.creation)
    groups: dict[tuple, list[tuple]] = {}
    for m in matchings(q.body, instance, out):
        row = tuple([m[v] for v in out])
        groups.setdefault(row[:n], []).append(row[n:])
    return groups


def eval_ocq(q: SkolemQuery, instance) -> frozenset:
    """Object-creating result: the head's function term is instantiated into
    a data term, one extended fact per matching."""
    pos = q.func_pos
    facts = []
    for key, dists in created_groups(q, instance).items():
        oid = (FuncTerm(q.func_symbol, key),)
        facts += [ExtendedFact(q.head_predicate, d[:pos] + oid + d[pos:]) for d in dists]
    return frozenset(facts)


class MVQuery(Record):
    """A conjunctive query paired with multiset variables, evaluated under
    combined bag-set semantics: each answer carries the number of distinct
    restrictions of its matchings to the multiset variables."""

    __slots__ = ("core", "multiset_vars")  # a ConjunctiveQuery, a frozenset of Variables

    def __post_init__(self):
        head_vars = self.core.head.variables
        if self.multiset_vars & head_vars:
            raise ValueError("multiset variables must not occur in the head")
        if not self.multiset_vars <= body_variables(self.core.body):
            raise ValueError("multiset variables must occur in the body")


def eval_mv(q: MVQuery, instance) -> dict[Fact, int]:
    """Combined-semantics result: answer fact -> multiplicity."""
    groups: dict[Fact, set] = {}
    mvars = sorted(q.multiset_vars)
    for m in matchings(q.core.body, instance, (*q.core.head.args, *mvars)):
        fact = Fact(q.core.head.predicate, tuple(m[v] for v in q.core.head.args))
        restriction = tuple(m[v] for v in mvars)
        groups.setdefault(fact, set()).add(restriction)
    return {fact: len(restrictions) for fact, restrictions in groups.items()}


def oid_count(
    q: SkolemQuery, instance, values: tuple[Constant, ...], *, limit: int | None = None
) -> int:
    """Number of distinct created terms paired with the given distinguished
    values in the query result, or with ``limit`` the least of it and
    ``limit``: the search that starts from the distinguished variables fixed
    to ``values`` counts the creation tuples it reaches."""
    if len(values) != len(q.distinguished):
        raise ValueError(
            f"expected {len(q.distinguished)} distinguished values, got {len(values)}"
        )
    val: dict = {}
    for x, c in zip(q.distinguished, values):
        if val.setdefault(x, c) != c:
            return 0
    keep = tuple(dict.fromkeys(z for z in q.creation if z not in val))
    return len(_join(canonical_atoms(q.body), instance, val, keep, limit))


# -- join dependencies ---------------------------------------------------------


class JoinDependency(Record):
    __slots__ = ("left", "right")  # frozensets of Variables


# -- the chase ----------------------------------------------------------------


class ChaseResult(Record):
    """``instance`` holds the ground facts over the head predicate;
    ``oid_table`` maps each FuncTerm to its fresh Constant."""

    __slots__ = ("instance", "oid_table")

    def __iter__(self) -> Iterator:
        return iter((self.instance, self.oid_table))


def chase(q: SkolemQuery, instance) -> ChaseResult:
    """Evaluate the query and replace each distinct created term by a fresh
    constant ``@k``, assigned in lexicographic order of the terms' renderings
    and kept disjoint from the input's active domain; a term's ground facts
    are built as its constant is assigned."""
    created = [(FuncTerm(q.func_symbol, key), d) for key, d in created_groups(q, instance).items()]
    created.sort(key=lambda pair: render_term(pair[0]))
    taken = {c.name for c in adom(instance)}
    free = (Constant(f"@{k}") for k in count(1) if f"@{k}" not in taken)
    table: dict[FuncTerm, Constant] = {}
    ground = []
    for (term, dists), c in zip(created, free):
        table[term] = c
        ground += [Fact(q.head_predicate, d[:q.func_pos] + (c,) + d[q.func_pos:]) for d in dists]
    return ChaseResult(frozenset(ground), table)
