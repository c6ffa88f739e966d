"""Reference semantics: matchings, query evaluation, multiset (combined)
semantics, oid counts, and the chase. ``created_groups`` groups the matchings
by created term for the query result, the chase and ``oracle``'s satisfaction.

Every routine here runs on ``matchings``, an indexed join that returns the
distinct restrictions of the body's valuations to the variables its caller
reads: the head arguments, the creation and distinguished variables, or the
multiset variables as well; ``oid_count`` runs it from the distinguished
variables already bound to the values it is given. It indexes the instance by
(predicate, position, constant) and extends each partial valuation by the body
atom with the fewest candidate facts given the variables bound so far, on an
explicit stack rather than by recursion. The body is split into connected
components by shared variables. A component that binds none of the variables
read asks only whether any match exists; ``hom.find_homomorphism`` answers
that, since its arc consistency refutes what this join would enumerate partial
match by partial match (an odd cycle into a bipartite instance). The join
finds every match or projection, or as many as its caller asks for, and a
branch whose read variables are all bound needs only one completion of its
remaining atoms. Everything is deterministic: atoms, facts, and created
constants are processed in a canonical sorted order, so the order of matchings
is fixed for a given input, though not specified; the routines built on them
return sets, counts, or sorted results.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain, count

from .hom import find_homomorphism
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


def _facts_by_predicate(instance, predicates) -> dict[str, list[Fact]]:
    # only the predicates a body names: a search never reads the others
    by_pred: dict[str, list[Fact]] = {}
    for f in instance:
        if f.predicate in predicates:
            by_pred.setdefault(f.predicate, []).append(f)
    for facts in by_pred.values():
        facts.sort(key=lambda f: [c.name for c in f.args])
    return by_pred


def _position_index(by_pred: dict[str, list[Fact]]) -> dict[tuple, list[Fact]]:
    # (predicate, position, constant) -> facts, each list in by_pred's order
    index: dict[tuple, list[Fact]] = {}
    for pred, facts in by_pred.items():
        for f in facts:
            for i, c in enumerate(f.args):
                index.setdefault((pred, i, c), []).append(f)
    return index


def _match_atom(atom: Atom, fact: Fact, val: dict) -> dict | None:
    if len(atom.args) != len(fact.args):
        return None
    new = val
    for v, c in zip(atom.args, fact.args):
        bound = new.get(v)
        if bound is None:
            if new is val:
                new = dict(val)
            new[v] = c
        elif bound != c:
            return None
    # copies are made only on first write, so sharing the input dict is safe
    return new


def _most_constrained(atoms: list[Atom], val: dict, by_pred, index):
    """The atom of ``atoms`` with the fewest candidate facts under ``val``, its
    candidates, and the other atoms. An atom's candidates are the shortest
    posting list over its bound positions, or every fact of its predicate when
    none is bound. Ties go to the earlier atom, so callers pass ``atoms`` in
    (predicate, args) order. Returns None when an atom scanned has no
    candidate. The scan stops at the first atom with one candidate, which no
    live atom beats; an atom with none after it then stays among the others
    and ends the branch one level further down."""
    best = best_facts = None
    for k, atom in enumerate(atoms):
        facts = None
        pred = atom.predicate
        for i, v in enumerate(atom.args):
            c = val.get(v)
            if c is not None:
                posting = index.get((pred, i, c))
                if posting is None:
                    return None
                if facts is None or len(posting) < len(facts):
                    facts = posting
        if facts is None:
            facts = by_pred.get(pred)
            if facts is None:
                return None
        if best is None or len(facts) < len(best_facts):
            best, best_facts = k, facts
            if len(facts) == 1:
                break
    return atoms[best], best_facts, atoms[:best] + atoms[best + 1:]


def _search(
    atoms: list[Atom], val: dict, by_pred, index, keep: tuple = (), limit: int | None = None
) -> list[dict]:
    """Every extension of ``val`` that sends ``atoms`` into the instance, or
    the first ``limit`` of them: a depth-first search that takes next the
    most constrained atom and keeps its frontier on an explicit stack.

    With ``keep``, a tuple of variables that ``atoms`` bind, it returns
    instead the distinct restrictions of those extensions to ``keep``: a
    branch stops as soon as ``keep`` is bound, and its projection is kept if
    it is new and one completion of the remaining atoms exists."""
    keep_set = frozenset(keep)
    seen: set[tuple] = set()
    found: list[dict] = []
    stack: list[tuple[dict, list[Atom]]] = [(val, atoms)]
    while stack:
        val, remaining = stack.pop()
        step = _most_constrained(remaining, val, by_pred, index)
        if step is None:
            continue
        atom, facts, rest = step
        children = []
        for fact in facts:
            new = _match_atom(atom, fact, val)
            if new is not None:
                children.append(new)
        # the children of one node bind the same variables
        if keep and children and keep_set <= children[0].keys():
            for new in children:
                key = tuple([new[v] for v in keep])
                if key not in seen and (
                    not rest or _search(rest, new, by_pred, index, limit=1)
                ):
                    seen.add(key)
                    found.append(dict(zip(keep, key)))
                    if len(found) == limit:
                        return found
        elif rest:
            if len(children) == 1:
                stack.append((children[0], rest))
            else:
                # reversed, so that the first candidate's subtree is searched first
                stack.extend([(new, rest) for new in reversed(children)])
        elif children:
            found.extend(children)
            if limit is not None and len(found) >= limit:
                return found[:limit]
    return found


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
    which must be body variables; the default, every body variable, gives one
    dict per valuation. The body is split into connected components by shared
    variables, and the result is the cross product of their projections. A
    component without an ``out`` variable goes to the arc-consistent
    homomorphism search for one match, and the result is empty when it has
    none. Elsewhere the join runs, and a branch stops as soon as its ``out``
    variables are bound: a new projection is kept when one completion of the
    remaining atoms exists. The order of the result is deterministic but
    otherwise unspecified.
    """
    atoms = canonical_atoms(set(body))
    keep = None
    if out is not None:
        keep = tuple(dict.fromkeys(out))
        variables = {v for a in atoms for v in a.args}
        if not variables.issuperset(keep):
            raise ValueError("projection variables must occur in the body")
        if len(keep) == len(variables):
            keep = None
    return _join(atoms, instance, {}, keep)


def _join(
    atoms: list[Atom], instance, val: dict, keep: tuple | None, limit: int | None = None
) -> list[dict]:
    """``matchings`` of ``atoms`` (canonically ordered) that extend ``val``,
    onto ``keep`` (no variable of ``val``), or the first ``limit`` of them. A
    component binding no ``keep`` variable needs just one match: the
    homomorphism search finds it when ``val`` binds none of its variables."""
    if not atoms:
        return [{}]
    by_pred = _facts_by_predicate(instance, {a.predicate for a in atoms})
    for atom in atoms:
        if atom.predicate not in by_pred:
            return []
    index = _position_index(by_pred)
    if keep is None:
        return _search(atoms, val, by_pred, index, limit=limit)
    rows = None
    for component in _components(atoms) if len(atoms) > 1 else [atoms]:
        component_vars = {v for a in component for v in a.args}
        component_keep = tuple(v for v in keep if v in component_vars)
        if not component_keep and component_vars.isdisjoint(val):
            facts = chain.from_iterable(by_pred[p] for p in {a.predicate for a in component})
            found = find_homomorphism(component, facts) is not None
        elif len(component_keep) == len(component_vars):
            found = _search(component, val, by_pred, index, limit=limit)
        else:
            found = _search(component, val, by_pred, index, component_keep, limit if component_keep else 1)
        if not found:
            return []
        if component_keep:
            rows = found if rows is None else [r | f for r in rows for f in found][:limit]
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
    ``limit``: a join that starts from the distinguished variables bound to
    ``values`` counts the creation tuples it reaches."""
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
