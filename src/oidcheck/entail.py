"""Decide logical entailment between two queries read as schema mappings
(existentially quantified function, universally quantified body variables).

Two independent decision paths check each other:

* witness path: search for a homomorphism h from the entailing body into the
  entailed one that matches the distinguished tuples, sends distinguished
  creation variables into the target's creation variables, and whose
  preimage of the target creation variables induces a join dependency that
  the body implies (checked with a two-copy chase body);
* semantic path: build the colored canonical instance of the entailed query
  (one copy of its body per color, creation variables kept white), chase the
  entailing query over it, and test whether the resulting source/target pair
  satisfies the entailed mapping. A failure here is a genuine counterexample
  pair, since the chased pair always satisfies the entailing mapping.

The witness path decides. With the dual check on, the semantic path confirms
a positive verdict. A negative verdict carries the semantic path's pair as
its counterexample, checked to satisfy the entailing mapping and to violate
the entailed one; that check is the semantic path's own verdict, so the path
runs once either way.

The colored canonical instance and the disjoint frozen union of two bodies
come from the builders in ``oracle``, whose ``satisfies_sotgd`` checks each
counterexample pair; this module imports no other decider.
"""

from __future__ import annotations

from .evaluation import JoinDependency, chase
from .hom import HomConstraint, find_homomorphism, fixed_from_heads, iter_homomorphisms
from .model import (
    Atom,
    Record,
    SkolemQuery,
    Variable,
    body_variables,
    check_heads,
    rename_atoms,
)
from . import oracle

COPY_SUFFIXES = ("^0", "^1")


def two_copy_body(body: frozenset[Atom], shared: frozenset[Variable]) -> frozenset[Atom]:
    """Union of two copies of a body sharing exactly the given variables;
    expresses the join of the body's projections for the dependency test."""
    copies: frozenset[Atom] = frozenset()
    for suffix in COPY_SUFFIXES:
        mapping = {
            v: Variable(v.name + suffix) for v in body_variables(body) if v not in shared
        }
        copies |= rename_atoms(body, mapping)
    return copies


def check_jd_implication(
    body: frozenset[Atom],
    x_set: frozenset[Variable],
    y_set: frozenset[Variable],
    z_set: frozenset[Variable],
) -> dict | None:
    """Does the body, projected onto x+y+z, imply the join dependency
    (x+y) join (y+z)? Returns the certifying homomorphism into the two-copy
    body, or None."""
    if not (x_set & z_set) <= y_set:
        raise ValueError("shared x/z variables must be part of the overlap")
    fixed: dict[Variable, Variable] = {}
    for v in body_variables(body):
        if v in y_set:
            fixed[v] = v
        elif v in x_set:
            fixed[v] = Variable(v.name + COPY_SUFFIXES[0])
        elif v in z_set:
            fixed[v] = Variable(v.name + COPY_SUFFIXES[1])
    return find_homomorphism(body, two_copy_body(body, y_set), HomConstraint(fixed=fixed))


class ColoredInstance(Record):
    """One copy of a body per color; creation variables stay white (frozen),
    all others get per-color constants."""

    __slots__ = ("instance",)  # frozenset of Facts


def canonical_colored_instance(q_prime: SkolemQuery, colors: int) -> ColoredInstance:
    """Instance with ``colors + 1`` copies of the body, colored 0..colors."""
    return ColoredInstance(oracle.colored_instance(q_prime, colors))


class EntailWitness(Record):
    """``h`` is the body-to-body homomorphism, ``y_h`` the preimage of the
    target creation variables, and ``jd_certificate`` the homomorphism into
    the two-copy body that proves the JoinDependency ``jd``."""

    __slots__ = ("h", "y_h", "jd", "jd_certificate")


class EntailDecision(Record):
    """``counterexample`` is a (source Instance, target Instance) pair."""

    __slots__ = ("entails", "witness", "counterexample", "note")
    _defaults = {"witness": None, "counterexample": None, "note": ""}


def decide_entails_semantic(q: SkolemQuery, q_prime: SkolemQuery) -> bool:
    """Entailment via the colored canonical instance; assumes the function
    terms sit at the same head position."""
    colored = canonical_colored_instance(q_prime, q.func_arity)
    ground, _ = chase(q, colored.instance)
    return oracle.satisfies_sotgd(colored.instance, ground, q_prime).satisfied


def _checked_counterexample(q: SkolemQuery, q_prime: SkolemQuery, source) -> tuple:
    ground, _ = chase(q, source)
    if not oracle.satisfies_sotgd(source, ground, q).satisfied:
        raise AssertionError("internal check failed: chased pair must satisfy the query")
    if oracle.satisfies_sotgd(source, ground, q_prime).satisfied:
        raise AssertionError(
            "internal check failed: constructed pair fails to separate the queries"
        )
    return source, ground


def decide_entails(
    q: SkolemQuery, q_prime: SkolemQuery, *, dual_check: bool = True
) -> EntailDecision:
    """Does every source/target pair satisfying q also satisfy q_prime?

    All candidate homomorphisms meeting the head conditions are tried, since
    the dependency condition depends on the individual homomorphism. With
    ``dual_check`` a positive verdict is asserted against the semantic path;
    a negative one is always checked on its counterexample, which runs the
    semantic path once.
    """
    check_heads(q.head_predicate, q.head_arity, q_prime.head_predicate, q_prime.head_arity)
    if q.func_pos != q_prime.func_pos:
        source = oracle.disjoint_frozen_union(q, q_prime)
        counterexample = _checked_counterexample(q, q_prime, source)
        return EntailDecision(
            entails=False,
            counterexample=counterexample,
            note=f"function term at head position {q.func_pos} vs {q_prime.func_pos}",
        )

    witness = None
    # None when one variable would have to match two distinguished positions
    fixed = fixed_from_heads(q.distinguished, q_prime.distinguished)
    if fixed is not None:
        constraint = HomConstraint(
            fixed=fixed,
            image_in={v: frozenset(q_prime.z_set) for v in q.x_set & q.z_set},
        )
        for h in iter_homomorphisms(q.body, q_prime.body, constraint):
            y_h = frozenset(v for v in body_variables(q.body) if h[v] in q_prime.z_set)
            certificate = check_jd_implication(q.body, q.x_set, y_h, q.z_set)
            if certificate is not None:
                witness = EntailWitness(
                    h=h,
                    y_h=y_h,
                    jd=JoinDependency(q.x_set | y_h, y_h | q.z_set),
                    jd_certificate=certificate,
                )
                break

    if witness is not None:
        if dual_check and not decide_entails_semantic(q, q_prime):
            raise AssertionError(
                "internal check failed: witness and semantic entailment paths disagree"
            )
        return EntailDecision(entails=True, witness=witness)

    colored = canonical_colored_instance(q_prime, q.func_arity)
    counterexample = _checked_counterexample(q, q_prime, colored.instance)
    return EntailDecision(entails=False, counterexample=counterexample)


class LogicalEquivalence(Record):
    __slots__ = ("forward", "backward")  # EntailDecisions

    @property
    def equivalent(self) -> bool:
        return self.forward.entails and self.backward.entails


def decide_logical_equiv(
    q: SkolemQuery, q_prime: SkolemQuery, *, dual_check: bool = True
) -> LogicalEquivalence:
    """Entailment in both directions."""
    return LogicalEquivalence(
        forward=decide_entails(q, q_prime, dual_check=dual_check),
        backward=decide_entails(q_prime, q, dual_check=dual_check),
    )
