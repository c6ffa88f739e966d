"""Reduction of a query pair to the aligned normal form.

Two queries with the same head predicate are rewritten (only the second one
is ever touched: renamed apart from the first by ``model.rename_apart`` and
copied by ``Record.replace``) until they share identical distinguished and
creation tuples, with a duplicate-free creation tuple. Each rewrite preserves
oid-equivalence; when alignment is impossible the pair is refuted outright,
where possible with a concrete separating instance:

* function terms sitting at different head positions (refuted by convention,
  with a frozen-bodies counterexample);
* distinguished tuples that do not match under any variable bijection;
* different sets of distinguished variables inside the creation tuple
  (refuted with a duplication instance);
* different numbers of non-distinguished creation variables (refuted with a
  multiplication instance on which the per-tuple oid counts separate; the
  side with fewer such variables is counted exactly, the other only up to one
  past that count).

The separating instances come from the builders in ``oracle``.
"""

from __future__ import annotations

from .evaluation import oid_count
from .model import (
    FreshNames,
    Record,
    SkolemQuery,
    Variable,
    check_heads,
    frozen_constant,
    names_in_use,
    rename_apart,
    rename_query,
)
from .oracle import disjoint_frozen_union, duplication_instance, multiplication_instance

FUNCTION_POSITION = "FunctionPosition"
DISTINGUISHED_PATTERN = "DistinguishedPattern"
DISTINGUISHED_CREATION = "DistinguishedCreation"
CREATION_CARDINALITY = "CreationCardinality"

# largest multiplication factor tried when building an explanatory instance
# for a creation-cardinality refutation
MAX_MULTIPLICATION = 6


class NormalizedPair(Record):
    __slots__ = ("q", "q_prime", "x_set", "z_set")

    def __post_init__(self):
        if self.q.distinguished != self.q_prime.distinguished:
            raise AssertionError(
                "internal check failed: normalized pair has unequal distinguished tuples"
            )
        if self.q.creation != self.q_prime.creation:
            raise AssertionError(
                "internal check failed: normalized pair has unequal creation tuples"
            )
        if len(set(self.q.creation)) != len(self.q.creation):
            raise AssertionError(
                "internal check failed: normalized creation tuple repeats a variable"
            )


class NormalizeRefutation(Record):
    """``counterexample`` is an Instance when one was constructed, else None."""

    __slots__ = ("stage", "counterexample", "detail")
    _defaults = {"detail": ""}


def dedupe_creation_vars(q: SkolemQuery) -> SkolemQuery:
    """Drop repeated creation variables (first occurrence kept) and switch to
    a fresh function symbol of the reduced arity. No-op when duplicate-free."""
    seen: list[Variable] = []
    for v in q.creation:
        if v not in seen:
            seen.append(v)
    if len(seen) == len(q.creation):
        return q
    return q.replace(func_symbol=q.func_symbol + "_d", creation=tuple(seen))


def align_distinguished(q: SkolemQuery, q_prime: SkolemQuery):
    """Match the distinguished tuples positionally.

    Returns the rewritten q_prime on success, which renames q_prime's
    distinguished variables onto q's and all its other variables apart
    (``model.rename_apart``), so nothing is captured, or a refutation when
    the positional map is not a well-defined bijection.
    """
    check_heads(q.head_predicate, q.head_arity, q_prime.head_predicate, q_prime.head_arity)
    if q.func_pos != q_prime.func_pos:
        raise ValueError("function positions must be checked before alignment")

    sigma: dict[Variable, Variable] = {}
    for x, x_prime in zip(q.distinguished, q_prime.distinguished):
        if sigma.setdefault(x, x_prime) != x_prime:
            return NormalizeRefutation(
                DISTINGUISHED_PATTERN,
                None,
                f"{x.name} would map to both {sigma[x].name} and {x_prime.name}",
            )
    if len(set(sigma.values())) != len(sigma):
        return NormalizeRefutation(
            DISTINGUISHED_PATTERN,
            None,
            "positional distinguished-variable map is not injective",
        )

    return rename_apart(q, q_prime, {x_prime: x for x, x_prime in sigma.items()})


def check_creation_profile(q: SkolemQuery, q_prime: SkolemQuery):
    """With distinguished tuples already aligned, require the same
    distinguished-creation variables and the same number of non-distinguished
    creation variables. Returns None when fine, a refutation otherwise."""
    if q.distinguished != q_prime.distinguished:
        raise AssertionError("internal check failed: distinguished tuples are not aligned")
    x_set = q.x_set
    in_creation = x_set & q.z_set
    in_creation_prime = x_set & q_prime.z_set

    if in_creation != in_creation_prime:
        offending = sorted(in_creation ^ in_creation_prime)[0]
        namer = FreshNames(names_in_use(q, q_prime))
        # duplicate in the body of the query that does NOT create on the
        # offending variable: that side can share an oid across the duplicate,
        # the other side cannot
        base = q_prime if offending in in_creation else q
        instance = duplication_instance(base.body, offending, namer)
        return NormalizeRefutation(
            DISTINGUISHED_CREATION,
            instance,
            f"distinguished variable {offending.name} is a creation variable "
            "on one side only",
        )

    k = len(q.z_set - x_set)
    k_prime = len(q_prime.z_set - x_set)
    if k != k_prime:
        big, small = (q, q_prime) if k > k_prime else (q_prime, q)
        frozen_dist = tuple(frozen_constant(v) for v in q.distinguished)
        names = names_in_use(q, q_prime)
        instance = None
        candidates = [(2, True)] + [(n, False) for n in range(2, MAX_MULTIPLICATION + 1)]
        for copies, diagonal in candidates:
            trial = multiplication_instance(big.body, big.z_set - x_set, copies, diagonal, names)
            count = oid_count(small, trial, frozen_dist)
            if oid_count(big, trial, frozen_dist, limit=count + 1) != count:
                instance = trial
                break
        return NormalizeRefutation(
            CREATION_CARDINALITY,
            instance,
            f"{k} vs {k_prime} non-distinguished creation variables",
        )
    return None


def align_creation(q: SkolemQuery, q_prime: SkolemQuery):
    """Reorder and rename q_prime's creation tuple onto q's.

    Precondition: profiles already checked. The non-distinguished creation
    variables of q_prime are renamed positionally onto q's, and any other
    variable of q_prime that one of those names would capture is renamed
    apart. Returns the rewritten q_prime.
    """
    x_set = q.x_set
    if x_set & q.z_set != x_set & q_prime.z_set:
        raise AssertionError("internal check failed: distinguished creation variables differ")
    if len(q.z_set - x_set) != len(q_prime.z_set - x_set):
        raise AssertionError(
            "internal check failed: non-distinguished creation variable counts differ"
        )

    spare = [v for v in q_prime.creation if v not in x_set]
    rename: dict[Variable, Variable] = {}
    for z in q.creation:
        if z not in x_set:
            rename[spare.pop(0)] = z
    captured = set(rename.values()).intersection(q_prime.variables).difference(rename)
    if captured:
        namer = FreshNames(names_in_use(q, q_prime))
        rename.update({v: namer.fresh_variable(v) for v in sorted(captured)})
    aligned = rename_query(q_prime, rename)
    return aligned.replace(func_symbol=q_prime.func_symbol + "_r", creation=q.creation)


def normalize_pair(q: SkolemQuery, q_prime: SkolemQuery):
    """Full pipeline; returns a NormalizedPair or a NormalizeRefutation.

    Only q_prime is rewritten; q keeps its variables (its creation tuple is
    merely deduplicated)."""
    check_heads(q.head_predicate, q.head_arity, q_prime.head_predicate, q_prime.head_arity)
    if q.func_pos != q_prime.func_pos:
        return NormalizeRefutation(
            FUNCTION_POSITION,
            disjoint_frozen_union(q, q_prime),
            f"function term at head position {q.func_pos} vs {q_prime.func_pos}",
        )

    left = dedupe_creation_vars(q)
    right = align_distinguished(left, dedupe_creation_vars(q_prime))
    if isinstance(right, NormalizeRefutation):
        return right

    refutation = check_creation_profile(left, right)
    if refutation is not None:
        return refutation

    # alignment renamed q_prime's other variables apart: no creation name captures one
    right = align_creation(left, right)
    return NormalizedPair(
        q=left, q_prime=right, x_set=left.x_set, z_set=frozenset(left.creation)
    )
