"""Constrained homomorphism search between atom sets.

One backtracking engine drives classical containment/equivalence checks,
multiset homomorphisms, and the entailment test. It also decides whether a
body component that binds no variable read has any match in an instance:
``evaluation.matchings`` passes the instance's facts as the target, their
constants standing for variables. Searches are deterministic, in whatever
order the source atoms come: source variables in a static order (fixed, then
restricted, then most occurrences, then name), candidate images by name; the
first solution in that order is returned.

The search keeps the source atoms arc consistent (AC-3, Mackworth 1977) after
each assignment (MAC, Sabin and Freuder 1994). A variable's domain is
unrestricted or starts as its fixed image or allowed set. Revising an atom
scans the target tuples through an index by (relation, position, variable) at
its position with the smallest domain, keeps those that agree with every
domain and repeat each repeated variable, and shrinks each domain to what
they support. A FIFO queue revises the atoms of each shrunk variable to a
fixpoint, at the root from the constrained variables, then from each assigned
one. The sorted list of the target terms in the source's relations is built
only when an unrestricted domain's candidates are enumerated, and fixed or
allowed images are taken as given: propagation drops those no target atom
supports. Domains are copied only when one shrinks; the frontier is an
explicit stack, so no body reaches the recursion limit. Propagation drops
only images in no homomorphism and keeps both orders, so homomorphisms and
witnesses come in the sequence plain backtracking gives. Injectivity is
checked at assignment, not propagated.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import attrgetter
from types import MappingProxyType

from .model import Atom, ConjunctiveQuery, Record, Variable, check_heads

# ``MVQuery`` in annotations is ``evaluation.MVQuery``; evaluation imports
# this module, so the name is not imported here.

_name = attrgetter("name")  # orders Variables as their __lt__ does, in C


class HomConstraint(Record):
    """Restrictions on the mapping: preassigned images (``fixed``, a Variable
    mapping), injectivity on a variable set, and per-variable allowed image
    sets (``image_in``)."""

    __slots__ = ("fixed", "injective_on", "image_in")
    _defaults = {"fixed": MappingProxyType({}), "injective_on": frozenset(),
                 "image_in": MappingProxyType({})}


_UNCONSTRAINED = HomConstraint()


def fixed_from_heads(head_args: tuple, target_args: tuple) -> dict | None:
    """Positional head matching; None when one variable would need two images."""
    fixed: dict[Variable, Variable] = {}
    for v, w in zip(head_args, target_args):
        if fixed.setdefault(v, w) != w:
            return None
    return fixed


def _index(dst_body: Iterable[Atom], keys: set) -> dict:
    """(predicate, arity) in ``keys`` -> per argument position, the argument
    tuples of the target atoms of that relation by their variable there."""
    index: dict = {}
    for atom in dst_body:
        args = atom.args
        key = (atom.predicate, len(args))
        if (slots := index.get(key)) is None:
            if key not in keys:
                continue
            slots = index[key] = [{} for _ in args]
        for slot, w in zip(slots, args):
            if (tuples := slot.get(w)) is None:
                slot[w] = [args]
            else:
                tuples.append(args)
    return index


def _source_atom(atom: Atom, position: dict) -> tuple:
    """(relation key, (argument position, variable) at each variable's first
    position, (argument position, first position) at each repeat)."""
    first: dict[int, int] = {}
    for j, v in enumerate(atom.args):
        first.setdefault(position[v], j)
    repeats = [(j, first[position[v]]) for j, v in enumerate(atom.args) if first[position[v]] != j]
    return (atom.predicate, len(atom.args)), [(j, x) for x, j in first.items()], repeats


def iter_homomorphisms(
    src_body: Iterable[Atom],
    dst_body: Iterable[Atom],
    constraint: HomConstraint | None = None,
) -> Iterator[dict]:
    """Yield every variable mapping h with h(src_body) <= dst_body that meets
    the constraint, in canonical search order. ``dst_body`` is read once; its
    atoms may be ground facts, whose constants then stand for variables."""
    constraint = constraint or _UNCONSTRAINED
    fixed, image_in = constraint.fixed, constraint.image_in
    for v, w in fixed.items():
        allowed = image_in.get(v)
        if allowed is not None and w not in allowed:
            return
    src_atoms = list(src_body)
    keys = {(a.predicate, len(a.args)) for a in src_atoms}
    index = _index(dst_body, keys)
    if len(index) < len(keys):  # a source relation, nullary ones too, has no target atom
        return

    occurrences: dict[Variable, int] = {}
    for atom in src_atoms:
        for v in atom.args:
            occurrences[v] = occurrences.get(v, 0) + 1

    def rank(v: Variable) -> tuple:
        constrained = 0 if v in fixed else (1 if v in image_in else 2)
        return (constrained, -occurrences[v], v.name)

    order = sorted(occurrences, key=rank)
    if not order:
        yield {}
        return
    position = {v: i for i, v in enumerate(order)}
    atoms = [_source_atom(a, position) for a in src_atoms if a.args]
    var_atoms: list[list[int]] = [[] for _ in order]
    for k, (_, firsts, _) in enumerate(atoms):
        for _, x in firsts:
            var_atoms[x].append(k)

    def propagate(domains: list, start: list[int]) -> bool:
        """AC-3 from ``start``, atoms with a restricted variable, shrinking
        ``domains`` in place; False as soon as a domain empties."""
        queue, queued = list(start), set(start)
        for k in queue:  # a FIFO queue: the loop reaches what is appended
            queued.discard(k)
            key, firsts, repeats = atoms[k]
            scan, scan_d = -1, None  # the position with the smallest domain
            for j, x in firsts:
                d = domains[x]
                if d is not None and (scan_d is None or len(d) < len(scan_d)):
                    scan, scan_d = j, d
            slot = index[key][scan]
            tuples = [t for w in scan_d for t in slot.get(w, ())]
            for j, j0 in repeats:
                tuples = [t for t in tuples if t[j] == t[j0]]
            for j, x in firsts:
                d = domains[x]
                if d is not None and j != scan:
                    tuples = [t for t in tuples if t[j] in d]
            if not tuples:
                return False
            for j, x in firsts:
                supported = {t[j] for t in tuples}
                d = domains[x]
                if d is None or len(supported) < len(d):
                    domains[x] = supported  # a new set: ancestors share the old one
                    new = [o for o in var_atoms[x] if o != k and o not in queued]
                    queue.extend(new)
                    queued.update(new)
        return True

    # the initial domains; None stands for every term of the indexed target
    # relations. Fixed or allowed images outside them have no support, so the
    # root propagation drops them.
    domains = [{fixed[v]} if v in fixed else image_in.get(v) for v in order]
    start = list(dict.fromkeys(
        k for x, d in enumerate(domains) if d is not None for k in var_atoms[x]))
    if set() in domains or (start and not propagate(domains, start)):
        return

    def assign(domains: list, x: int, w: Variable) -> list | None:
        """The domains after x := w, or None when one empties."""
        d = domains[x]
        if d is not None and len(d) == 1:  # already {w}, and arc consistent
            return domains
        domains = domains.copy()
        domains[x] = {w}
        return domains if propagate(domains, var_atoms[x]) else None

    dst_vars: list[Variable] = []  # every term of the indexed relations, sorted on first use

    def candidates(domains: list, x: int) -> Iterator[Variable]:
        d = domains[x]
        if d is not None:
            return iter(sorted(d, key=_name))
        if not dst_vars:
            dst_vars.extend(sorted(
                {w for slots in index.values() for slot in slots for w in slot}, key=_name))
        return iter(dst_vars)

    # stack: per level, its domains and candidates left; images: chosen images
    inject = [v in constraint.injective_on for v in order]
    used: set[Variable] = set()
    images: list[Variable] = []
    stack = [(domains, candidates(domains, 0))]
    while stack:
        x = len(stack) - 1
        domains, cands = stack[-1]
        if len(images) > x:  # back from level x + 1: retract x's image
            w = images.pop()
            if inject[x]:
                used.discard(w)
        for w in cands:
            if inject[x] and w in used:
                continue
            child = assign(domains, x, w)
            if child is None:
                continue
            if x + 1 == len(order):
                yield dict(zip(order, (*images, w)))
                continue
            images.append(w)
            if inject[x]:
                used.add(w)
            stack.append((child, candidates(child, x + 1)))
            break
        else:
            stack.pop()


def find_homomorphism(
    src_body: Iterable[Atom],
    dst_body: Iterable[Atom],
    constraint: HomConstraint | None = None,
) -> dict | None:
    """First homomorphism in canonical order, or None."""
    return next(iter_homomorphisms(src_body, dst_body, constraint), None)


def cq_contained(qa: ConjunctiveQuery, qb: ConjunctiveQuery) -> dict | None:
    """Witness that qb's results are always contained in qa's: a homomorphism
    from qa to qb matching the heads, or None."""
    check_heads(qa.head.predicate, qa.head.arity, qb.head.predicate, qb.head.arity)
    fixed = fixed_from_heads(qa.head.args, qb.head.args)
    if fixed is None:
        return None
    return find_homomorphism(qa.body, qb.body, HomConstraint(fixed=fixed))


def cq_equivalent(qa: ConjunctiveQuery, qb: ConjunctiveQuery) -> tuple[dict, dict] | None:
    """Homomorphisms in both directions, or None."""
    forward = cq_contained(qa, qb)
    if forward is None:
        return None
    backward = cq_contained(qb, qa)
    if backward is None:
        return None
    return forward, backward


def mv_homomorphism(qa: MVQuery, qb: MVQuery) -> dict | None:
    """Homomorphism between the cores that matches heads, is injective on the
    source's multiset variables, and maps them into the target's."""
    head, other = qa.core.head, qb.core.head
    check_heads(head.predicate, head.arity, other.predicate, other.arity)
    fixed = fixed_from_heads(head.args, other.args)
    if fixed is None:
        return None
    constraint = HomConstraint(
        fixed=fixed,
        injective_on=frozenset(qa.multiset_vars),
        image_in={v: frozenset(qb.multiset_vars) for v in qa.multiset_vars},
    )
    return find_homomorphism(qa.core.body, qb.core.body, constraint)
