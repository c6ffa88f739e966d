"""Decide whether two object-creating queries produce identical results on
every input, up to a renaming of the created identifiers.

After normalization the multiset route decides: homomorphisms between the
flattenings with no creation variables (``model.flatten_query``) read under
combined bag-set semantics, injective on the non-distinguished creation
variables in both directions. The permutation route (a permutation of those
variables under which the flattened queries, over one head predicate, are
classically equivalent) checks each verdict independently:

* a positive decision rebuilds the permutation as the inverse of the
  multiset homomorphism's action on the creation variables and proves the
  permuted flattenings equivalent, so it carries both witness families;
* a negative decision enumerates the permutations, up to
  ``MAX_PERMUTATION_VARS`` variables, and must find none. It carries the
  refutation stage and, when bounded search finds one, a separating
  instance.
"""

from __future__ import annotations

import itertools

from .evaluation import MVQuery
from .hom import cq_equivalent, mv_homomorphism
from .model import Record, SkolemQuery, flatten_query
from .normalize import NormalizedPair, NormalizeRefutation, normalize_pair
from . import oracle

CHARACTERIZATION_STAGE = "CharacterizationFailed"
_NOT_FOUND = "no small counterexample found within the search budget"

# largest number of non-distinguished creation variables whose permutations
# are enumerated to confirm a negative verdict
MAX_PERMUTATION_VARS = 8


class EquivWitness(Record):
    """``pi`` permutes the non-distinguished creation variables."""

    __slots__ = ("pi", "h_forward", "h_backward", "mv_forward", "mv_backward")


class EquivDecision(Record):
    __slots__ = ("equivalent", "witness", "refutation", "normalized")
    _defaults = {"witness": None, "refutation": None, "normalized": None}


def equiv_via_permutation(pair: NormalizedPair):
    """First permutation (in lexicographic order) of the non-distinguished
    creation variables making the flattened queries equivalent, with the two
    homomorphisms; None when no permutation works."""
    base = sorted(pair.z_set - pair.x_set)
    taken = {a.predicate for a in pair.q.body | pair.q_prime.body}
    right = flatten_query(pair.q_prime, taken=taken)
    for image in itertools.permutations(base):
        pi = dict(zip(base, image))
        left = flatten_query(pair.q, tuple(pi.get(z, z) for z in pair.q.creation), taken)
        homs = cq_equivalent(left, right)
        if homs is not None:
            return pi, homs[0], homs[1]
    return None


def equiv_via_mv(pair: NormalizedPair):
    """Multiset homomorphisms in both directions, or None."""
    taken = {a.predicate for a in pair.q.body | pair.q_prime.body}
    multiset = pair.z_set - pair.x_set
    left = MVQuery(flatten_query(pair.q, (), taken), multiset)
    right = MVQuery(flatten_query(pair.q_prime, (), taken), multiset)
    forward = mv_homomorphism(left, right)
    if forward is None:
        return None
    backward = mv_homomorphism(right, left)
    if backward is None:
        return None
    return forward, backward


def _witness_from_mv(pair: NormalizedPair, mv_forward: dict, mv_backward: dict) -> EquivWitness:
    """Build the permutation-route witnesses consistently with the multiset
    ones: pi is the inverse of mv_forward on the creation variables."""
    base = sorted(pair.z_set - pair.x_set)
    pi = {mv_forward[z]: z for z in base}
    taken = {a.predicate for a in pair.q.body | pair.q_prime.body}
    left = flatten_query(pair.q, tuple(pi.get(z, z) for z in pair.q.creation), taken)
    homs = cq_equivalent(left, flatten_query(pair.q_prime, taken=taken))
    if homs is None:
        raise AssertionError(
            "internal check failed: multiset witnesses exist but the permuted "
            "flattenings are not equivalent"
        )
    return EquivWitness(
        pi=pi,
        h_forward=homs[0],
        h_backward=homs[1],
        mv_forward=mv_forward,
        mv_backward=mv_backward,
    )


def decide_oid_equiv(
    q: SkolemQuery,
    q_prime: SkolemQuery,
    *,
    search_counterexamples: bool = True,
    max_domain: int = 4,
    budget: int = 2000,
    seed: int = 0,
) -> EquivDecision:
    """Decide oid-equivalence, with witnesses or a refutation.

    Normalization failures refute directly. Otherwise the multiset route
    decides. A positive verdict is confirmed by the permutation rebuilt from
    its witness; a negative one by enumerating every permutation (skipped
    above ``MAX_PERMUTATION_VARS`` non-distinguished creation variables).
    Refutations without a constructed instance get a bounded counterexample
    search; a characterization refutation that still has none says so in its
    detail.
    """
    outcome = normalize_pair(q, q_prime)
    if isinstance(outcome, NormalizeRefutation):
        refutation, pair = outcome, None
    else:
        pair = outcome
        mv = equiv_via_mv(pair)
        if mv is not None:
            witness = _witness_from_mv(pair, *mv)
            return EquivDecision(equivalent=True, witness=witness, normalized=pair)
        if (
            len(pair.z_set - pair.x_set) <= MAX_PERMUTATION_VARS
            and equiv_via_permutation(pair) is not None
        ):
            raise AssertionError(
                "internal check failed: multiset and permutation routes disagree"
            )
        refutation = NormalizeRefutation(CHARACTERIZATION_STAGE, None)
    if refutation.counterexample is None and search_counterexamples:
        found = oracle.search_counterexample_oid(
            q, q_prime, max_domain=max_domain, budget=budget, seed=seed
        )
        refutation = NormalizeRefutation(refutation.stage, found, refutation.detail)
    if refutation.counterexample is None and refutation.stage == CHARACTERIZATION_STAGE:
        refutation = NormalizeRefutation(CHARACTERIZATION_STAGE, None, _NOT_FOUND)
    return EquivDecision(equivalent=False, refutation=refutation, normalized=pair)
