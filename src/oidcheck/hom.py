"""Constrained homomorphism search between atom sets.

One backtracking engine drives classical containment/equivalence checks,
multiset homomorphisms, and the entailment test. It also decides whether a
body component that binds no variable read has any match in an instance:
``evaluation.matchings`` passes the instance's facts as the target, their
constants standing for variables. Searches are deterministic, in whatever
order the source atoms come: source variables in a static order (fixed, then
restricted, then most occurrences, then name), candidate images by name; the
first solution in that order is returned.

Per call, one pass over the source finds each variable's atoms and each
atom's relation, first positions and repeats, and one pass over the target
keeps the tuples of the source's relations. A relation's index by the term
at a position is built on its first read. No copy of the target, no list of
every target term and nothing that outlives the call is built.

The search keeps the source atoms arc consistent (AC-3, Mackworth 1977) after
each assignment (MAC, Sabin and Freuder 1994). A variable's domain is
unrestricted or starts as its fixed image or allowed set. Revising an atom
scans the target tuples through the index at its position with the smallest
domain, keeps those that agree with every domain and repeat each repeated
variable, and shrinks each domain to what they support. A FIFO queue revises
the atoms of each shrunk variable to a fixpoint, at the root from those of
the constrained variables, which lead the order, then from each assigned one.
An unrestricted variable's candidates are the terms at its first position,
the only ones with support; fixed or allowed images are taken as given:
propagation drops those no target atom supports. Domains are copied only when
one shrinks; the frontier is an explicit stack, so no body reaches the
recursion limit. Propagation drops only images in no homomorphism and keeps
both orders, so homomorphisms and witnesses come in the sequence plain
backtracking gives. Injectivity is checked at assignment, not propagated.
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


def _by_term(tuples: list, j: int) -> dict:
    """The argument tuples of one target relation by their term at ``j``."""
    slot: dict = {}
    for t in tuples:
        if (same := slot.get(t[j])) is None:
            slot[t[j]] = [t]
        else:
            same.append(t)
    return slot


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
    for v in fixed.keys() & image_in.keys():
        if fixed[v] not in image_in[v]:
            return

    # one pass over the source. relations: per (predicate, arity), the target's
    # argument tuples and per position their _by_term, built on first read;
    # atoms: per atom, its relation, (variable, position) at each variable's
    # first position and (position, first position) at each repeat;
    # var_atoms: per variable, its atom at each of its occurrences
    relations: dict[tuple, tuple[list, list]] = {}
    var_atoms: dict[Variable, list[int]] = {}
    atoms: list[tuple] = []
    for k, atom in enumerate(src_body):
        args = atom.args
        key = (atom.predicate, len(args))
        if (relation := relations.get(key)) is None:
            relation = relations[key] = ([], [None] * len(args))
        first: dict[Variable, int] = {}
        for j, v in enumerate(args):
            first.setdefault(v, j)
            var_atoms.setdefault(v, []).append(k)
        repeats = [(j, first[v]) for j, v in enumerate(args) if first[v] != j] \
            if len(first) < len(args) else ()
        atoms.append((relation, tuple(first.items()), repeats))

    filled = 0
    for atom in dst_body:
        if (relation := relations.get((atom.predicate, len(atom.args)))) is not None:
            filled += not relation[0]
            relation[0].append(atom.args)
    if filled < len(relations):  # a source relation, nullary ones too, has no target atom
        return
    if not var_atoms:
        yield {}
        return
    order = sorted(var_atoms, key=lambda v: (
        0 if v in fixed else (1 if v in image_in else 2), -len(var_atoms[v]), v.name))

    def propagate(domains: dict, queue: list[int]) -> bool:
        """AC-3 from the atoms in ``queue``, shrinking ``domains`` in place;
        False as soon as a domain empties."""
        queued = set(queue)
        for k in queue:  # a FIFO queue: the loop reaches what is appended
            if k not in queued:  # listed twice, and revised since
                continue
            queued.remove(k)
            (target, slots), firsts, repeats = atoms[k]
            scan, scan_d = -1, None  # the position with the smallest domain
            for v, j in firsts:
                d = domains[v]
                if d is not None and (scan_d is None or len(d) < len(scan_d)):
                    scan, scan_d = j, d
                    if len(d) == 1:
                        break
            if (slot := slots[scan]) is None:
                slot = slots[scan] = _by_term(target, scan)
            if len(scan_d) == 1:
                [w] = scan_d
                tuples = slot.get(w, ())
            else:
                tuples = [t for w in scan_d for t in slot.get(w, ())]
            for j, j0 in repeats:
                tuples = [t for t in tuples if t[j] == t[j0]]
            for v, j in firsts:
                d = domains[v]
                if d is not None and j != scan:
                    tuples = [t for t in tuples if t[j] in d]
            if not tuples:
                return False
            for v, j in firsts:
                d = domains[v]
                if d is not None and len(d) == 1:  # {w}, which every tuple holds
                    continue
                supported = {t[j] for t in tuples}
                if d is None or len(supported) < len(d):
                    domains[v] = supported  # a new set: ancestors share the old one
                    for o in var_atoms[v]:
                        if o != k and o not in queued:
                            queue.append(o)
                            queued.add(o)
        return True

    # the initial domains; None stands for every term of the target relations.
    # The constrained variables come first in the order; fixed or allowed
    # images outside the relations have no support, so propagation drops them.
    domains = dict.fromkeys(order)
    start: list[int] = []
    for v in order:
        if v in fixed:
            domains[v] = {fixed[v]}
        elif (d := image_in.get(v)) is not None:
            if not d:
                return
            domains[v] = d
        else:
            break
        start += var_atoms[v]
    if start and not propagate(domains, start):
        return

    def candidates(domains: dict, v: Variable) -> Iterator[Variable]:
        """``v``'s domain by name; if unrestricted, the terms at its first position."""
        d = domains[v]
        if d is None:
            (target, slots), firsts, _ = atoms[var_atoms[v][0]]
            j = dict(firsts)[v]
            if (d := slots[j]) is None:
                d = slots[j] = _by_term(target, j)
        return iter(d if len(d) == 1 else sorted(d, key=_name))

    # stack: per level, its domains and candidates left; images: chosen images
    injective = constraint.injective_on
    used: set[Variable] = set()
    images: list[Variable] = []
    stack = [(domains, candidates(domains, order[0]))]
    while stack:
        x = len(stack) - 1
        domains, cands = stack[-1]
        v = order[x]
        if len(images) > x:  # back from level x + 1: retract x's image
            w = images.pop()
            if v in injective:
                used.discard(w)
        d = domains[v]
        for w in cands:
            if w in used and v in injective:
                continue
            if d is not None and len(d) == 1:  # already {w}, and arc consistent
                child = domains
            else:
                child = domains.copy()
                child[v] = {w}
                if not propagate(child, list(var_atoms[v])):
                    continue
            if x + 1 == len(order):
                yield dict(zip(order, (*images, w)))
                continue
            images.append(w)
            if v in injective:
                used.add(w)
            stack.append((child, candidates(child, order[x + 1])))
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
        image_in=dict.fromkeys(qa.multiset_vars, frozenset(qb.multiset_vars)),
    )
    return find_homomorphism(qa.core.body, qb.core.body, constraint)
