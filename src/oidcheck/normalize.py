"""Reduction of a query pair to the aligned normal form.

Two queries with the same head predicate are rewritten (only the second one
is ever touched) until they share identical distinguished and creation
tuples, with a duplicate-free creation tuple. Each rewrite preserves
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
"""

from __future__ import annotations

import itertools

from .errors import HeadMismatchError
from .evaluation import _oid_count
from .model import (
    Fact,
    Record,
    SkolemQuery,
    Variable,
    freeze_body,
    fresh_name,
    frozen_constant,
    rename_atoms,
    rename_query,
)

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


class FreshNames:
    """Suffix-based fresh-name supply with one counter per normalization run."""

    def __init__(self, used):
        self.used = set(used)
        self.counter = 0

    def fresh(self, base: str) -> str:
        while True:
            self.counter += 1
            candidate = f"{base}_{self.counter}"
            if candidate not in self.used:
                self.used.add(candidate)
                return candidate

    def fresh_variable(self, v: Variable) -> Variable:
        return Variable(self.fresh(v.name))


def _names_in_use(*queries: SkolemQuery) -> set[str]:
    return {v.name for q in queries for v in q.variables}


def _check_heads(q: SkolemQuery, q_prime: SkolemQuery) -> None:
    if q.head_predicate != q_prime.head_predicate or q.head_arity != q_prime.head_arity:
        raise HeadMismatchError(
            f"heads differ: {q.head_predicate}/{q.head_arity} vs "
            f"{q_prime.head_predicate}/{q_prime.head_arity}"
        )


def dedupe_creation_vars(q: SkolemQuery) -> SkolemQuery:
    """Drop repeated creation variables (first occurrence kept) and switch to
    a fresh function symbol of the reduced arity. No-op when duplicate-free."""
    seen: list[Variable] = []
    for v in q.creation:
        if v not in seen:
            seen.append(v)
    if len(seen) == len(q.creation):
        return q
    return SkolemQuery(
        head_predicate=q.head_predicate,
        distinguished=q.distinguished,
        func_symbol=q.func_symbol + "_d",
        creation=tuple(seen),
        body=q.body,
        func_pos=q.func_pos,
    )


def align_distinguished(
    q: SkolemQuery, q_prime: SkolemQuery, namer: FreshNames | None = None
):
    """Match the distinguished tuples positionally.

    Returns the rewritten q_prime on success, which renames q_prime's
    distinguished variables onto q's (all of q_prime's other variables are
    freshened first, so nothing is captured), or a refutation when the
    positional map is not a well-defined bijection.
    """
    _check_heads(q, q_prime)
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

    namer = namer or FreshNames(_names_in_use(q, q_prime))
    inverse = {x_prime: x for x, x_prime in sigma.items()}
    mapping: dict[Variable, Variable] = {}
    for v in sorted(q_prime.variables):
        if v in inverse:
            mapping[v] = inverse[v]
        else:
            mapping[v] = namer.fresh_variable(v)
    return rename_query(q_prime, mapping)


def _duplication_instance(body, x: Variable, namer: FreshNames) -> frozenset:
    """Frozen body plus a copy with one variable duplicated to a new element."""
    duplicate = namer.fresh_variable(x)
    copy = rename_atoms(body, {x: duplicate})
    return freeze_body(body) | freeze_body(copy)


def _multiplication_instance(body, multiplied, copies: int, diagonal: bool,
                             namer_base: set[str]) -> frozenset:
    """Frozen body with the given variables multiplied into fresh copies
    ``<v>_<i>``, named apart from ``namer_base``; either jointly (diagonal) or
    independently (all combinations)."""
    multiplied = sorted(multiplied)
    copy_names: dict[tuple[Variable, int], Variable] = {}
    used = set(namer_base)
    for v in multiplied:
        for i in range(1, copies + 1):
            name = fresh_name(f"{v.name}_{i}", used)
            used.add(name)
            copy_names[(v, i)] = Variable(name)
    facts: set[Fact] = set()
    if diagonal:
        assignments = [{v: copy_names[(v, i)] for v in multiplied} for i in range(1, copies + 1)]
    else:
        assignments = [
            {v: copy_names[(v, choice[j])] for j, v in enumerate(multiplied)}
            for choice in itertools.product(range(1, copies + 1), repeat=len(multiplied))
        ]
    for assignment in assignments:
        facts |= freeze_body(rename_atoms(body, assignment))
    return frozenset(facts)


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
        namer = FreshNames(_names_in_use(q, q_prime))
        # duplicate in the body of the query that does NOT create on the
        # offending variable: that side can share an oid across the duplicate,
        # the other side cannot
        base = q_prime if offending in in_creation else q
        instance = _duplication_instance(base.body, offending, namer)
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
        names = _names_in_use(q, q_prime)
        instance = None
        candidates = [(2, True)] + [(n, False) for n in range(2, MAX_MULTIPLICATION + 1)]
        for copies, diagonal in candidates:
            trial = _multiplication_instance(
                big.body, big.z_set - x_set, copies, diagonal, names
            )
            count = _oid_count(small, trial, frozen_dist)
            if _oid_count(big, trial, frozen_dist, count + 1) != count:
                instance = trial
                break
        return NormalizeRefutation(
            CREATION_CARDINALITY,
            instance,
            f"{k} vs {k_prime} non-distinguished creation variables",
        )
    return None


def align_creation(q: SkolemQuery, q_prime: SkolemQuery,
                   namer: FreshNames | None = None, freshen: bool = True):
    """Reorder and rename q_prime's creation tuple onto q's.

    Precondition: profiles already checked. All non-distinguished variables
    of q_prime are freshened first (skippable when the caller just did so),
    then its non-distinguished creation variables are renamed positionally
    onto q's. Returns the rewritten q_prime.
    """
    x_set = q.x_set
    if x_set & q.z_set != x_set & q_prime.z_set:
        raise AssertionError("internal check failed: distinguished creation variables differ")
    if len(q.z_set - x_set) != len(q_prime.z_set - x_set):
        raise AssertionError(
            "internal check failed: non-distinguished creation variable counts differ"
        )

    namer = namer or FreshNames(_names_in_use(q, q_prime))
    freshening: dict[Variable, Variable] = {}
    if freshen:
        for v in sorted(q_prime.variables):
            if v not in x_set:
                freshening[v] = namer.fresh_variable(v)
    freshened = rename_query(q_prime, freshening)

    spare = [v for v in freshened.creation if v not in x_set]
    rename: dict[Variable, Variable] = {}
    for z in q.creation:
        if z not in x_set:
            rename[spare.pop(0)] = z
    aligned = rename_query(freshened, rename, func_symbol=freshened.func_symbol + "_r")
    return SkolemQuery(
        head_predicate=aligned.head_predicate,
        distinguished=aligned.distinguished,
        func_symbol=aligned.func_symbol,
        creation=q.creation,
        body=aligned.body,
        func_pos=aligned.func_pos,
    )


def disjoint_frozen_union(q: SkolemQuery, q_prime: SkolemQuery) -> frozenset:
    """Both bodies frozen into one instance, q_prime's variables renamed
    apart first so the two parts share no elements."""
    namer = FreshNames(_names_in_use(q, q_prime))
    mapping = {v: namer.fresh_variable(v) for v in sorted(q_prime.variables)}
    return freeze_body(q.body) | freeze_body(rename_atoms(q_prime.body, mapping))


def normalize_pair(q: SkolemQuery, q_prime: SkolemQuery):
    """Full pipeline; returns a NormalizedPair or a NormalizeRefutation.

    Only q_prime is rewritten; q keeps its variables (its creation tuple is
    merely deduplicated)."""
    _check_heads(q, q_prime)
    if q.func_pos != q_prime.func_pos:
        return NormalizeRefutation(
            FUNCTION_POSITION,
            disjoint_frozen_union(q, q_prime),
            f"function term at head position {q.func_pos} vs {q_prime.func_pos}",
        )

    namer = FreshNames(_names_in_use(q, q_prime))
    left = dedupe_creation_vars(q)
    right = align_distinguished(left, dedupe_creation_vars(q_prime), namer)
    if isinstance(right, NormalizeRefutation):
        return right

    refutation = check_creation_profile(left, right)
    if refutation is not None:
        return refutation

    # non-distinguished variables were already freshened during alignment
    right = align_creation(left, right, namer, freshen=False)
    return NormalizedPair(
        q=left, q_prime=right, x_set=left.x_set, z_set=frozenset(left.creation)
    )
