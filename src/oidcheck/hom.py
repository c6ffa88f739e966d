"""Constrained homomorphism search between atom sets.

One backtracking engine drives classical containment/equivalence checks,
multiset homomorphisms, and the entailment test. Searches are deterministic:
source variables are ordered most-constrained first, candidate images
lexicographically, and the first solution in that order is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .errors import HeadMismatchError
from .model import Atom, ConjunctiveQuery, Variable, body_variables, canonical_atoms
from .evaluation import MVQuery


@dataclass(frozen=True)
class HomConstraint:
    """Restrictions on the mapping: preassigned images, injectivity on a
    variable set, and per-variable allowed image sets."""

    fixed: Mapping[Variable, Variable] = field(default_factory=dict)
    injective_on: frozenset[Variable] = frozenset()
    image_in: Mapping[Variable, frozenset[Variable]] = field(default_factory=dict)


def _fixed_from_heads(head_args: tuple, target_args: tuple) -> dict | None:
    """Positional head matching; None when one variable would need two images."""
    fixed: dict[Variable, Variable] = {}
    for v, w in zip(head_args, target_args):
        if fixed.setdefault(v, w) != w:
            return None
    return fixed


def iter_homomorphisms(
    src_body: frozenset[Atom],
    dst_body: frozenset[Atom],
    constraint: HomConstraint | None = None,
) -> Iterator[dict]:
    """Yield every variable mapping h with h(src_body) <= dst_body that meets
    the constraint, in canonical search order."""
    constraint = constraint or HomConstraint()
    src_atoms = canonical_atoms(src_body)
    src_vars = sorted(body_variables(src_body))
    dst_vars = sorted(body_variables(dst_body))
    # (predicate, args) tuples hash in C, an Atom in Python
    dst_atoms = frozenset((a.predicate, a.args) for a in dst_body)

    for v, w in constraint.fixed.items():
        allowed = constraint.image_in.get(v)
        if allowed is not None and w not in allowed:
            return

    occurrences: dict[Variable, int] = {v: 0 for v in src_vars}
    for atom in src_atoms:
        for v in atom.args:
            occurrences[v] += 1

    def rank(v: Variable) -> tuple:
        constrained = 0 if v in constraint.fixed else (1 if v in constraint.image_in else 2)
        return (constrained, -occurrences[v], v.name)

    order = sorted(src_vars, key=rank)
    position = {v: i for i, v in enumerate(order)}

    # atoms become checkable once their last variable (in search order) is set
    atoms_ready: list[list[Atom]] = [[] for _ in order]
    for atom in src_atoms:
        last = max(position[v] for v in atom.args) if atom.args else -1
        if last >= 0:
            atoms_ready[last].append(atom)
    nullary = [a for a in src_atoms if not a.args]

    def candidates(v: Variable) -> list[Variable]:
        if v in constraint.fixed:
            cands = [constraint.fixed[v]]
        else:
            cands = dst_vars
        allowed = constraint.image_in.get(v)
        if allowed is not None:
            cands = [w for w in cands if w in allowed]
        return cands

    def atom_ok(atom: Atom, assignment: dict) -> bool:
        return (atom.predicate, tuple([assignment[v] for v in atom.args])) in dst_atoms

    if any((a.predicate, ()) not in dst_atoms for a in nullary):
        return

    used_injective: set[Variable] = set()

    def search(i: int, assignment: dict) -> Iterator[dict]:
        if i == len(order):
            yield dict(assignment)
            return
        v = order[i]
        inject = v in constraint.injective_on
        for w in candidates(v):
            if inject and w in used_injective:
                continue
            assignment[v] = w
            if all(atom_ok(a, assignment) for a in atoms_ready[i]):
                if inject:
                    used_injective.add(w)
                yield from search(i + 1, assignment)
                if inject:
                    used_injective.discard(w)
            del assignment[v]

    yield from search(0, {})


def find_homomorphism(
    src_body: frozenset[Atom],
    dst_body: frozenset[Atom],
    constraint: HomConstraint | None = None,
) -> dict | None:
    """First homomorphism in canonical order, or None."""
    return next(iter_homomorphisms(src_body, dst_body, constraint), None)


def _check_heads(qa: ConjunctiveQuery, qb: ConjunctiveQuery) -> None:
    if qa.head.predicate != qb.head.predicate or qa.head.arity != qb.head.arity:
        raise HeadMismatchError(
            f"heads differ: {qa.head.render()} vs {qb.head.render()}"
        )


def cq_contained(qa: ConjunctiveQuery, qb: ConjunctiveQuery) -> dict | None:
    """Witness that qb's results are always contained in qa's: a homomorphism
    from qa to qb matching the heads, or None."""
    _check_heads(qa, qb)
    fixed = _fixed_from_heads(qa.head.args, qb.head.args)
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
    _check_heads(qa.core, qb.core)
    fixed = _fixed_from_heads(qa.core.head.args, qb.core.head.args)
    if fixed is None:
        return None
    constraint = HomConstraint(
        fixed=fixed,
        injective_on=frozenset(qa.multiset_vars),
        image_in={v: frozenset(qb.multiset_vars) for v in qa.multiset_vars},
    )
    return find_homomorphism(qa.core.body, qb.core.body, constraint)
