"""Benchmark-style query generators.

The primitives mirror common schema-mapping benchmark shapes: copying a
relation while adding an invented attribute (ADD), copying while dropping the
last attribute (ADL), merging two relations on a shared attribute (MA), and a
plain global-as-view rule with an invented column (GAVBase). The invented
value's arguments follow one of three strategies: every body variable, the
key positions of the first source relation, or a seeded random nonempty
subset.
"""

from __future__ import annotations

import random

from .errors import InvalidKeyIndexError, OidcheckError
from .model import Atom, FuncTerm, RawRule, Record, SkolemQuery, Variable, validate_rule

KINDS = ("GAVBase", "ADD", "ADL", "MA")
SKOLEM_ALL = "all"
SKOLEM_KEY = "key"
SKOLEM_RANDOM = "random"

DEFAULT_ARITIES = {"GAVBase": (4,), "ADD": (2,), "ADL": (2,), "MA": (2, 2)}

_VAR_POOL = ("x", "y", "z", "w")


def _var(i: int) -> Variable:
    if i < len(_VAR_POOL):
        return Variable(_VAR_POOL[i])
    return Variable(f"v{i + 1}")


class PrimitiveSpec(Record):
    __slots__ = ("kind", "skolem", "key_indices", "seed", "arities")
    _defaults = {"skolem": SKOLEM_ALL, "key_indices": (), "seed": 0, "arities": ()}

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown primitive kind {self.kind!r}")
        if self.skolem not in (SKOLEM_ALL, SKOLEM_KEY, SKOLEM_RANDOM):
            raise ValueError(f"unknown skolemization strategy {self.skolem!r}")
        if not self.arities:
            object.__setattr__(self, "arities", DEFAULT_ARITIES[self.kind])
        count = len(DEFAULT_ARITIES[self.kind])
        if len(self.arities) != count or min(self.arities) < 1:
            raise OidcheckError(
                f"{self.kind} takes {count} source arit{'y' if count == 1 else 'ies'}"
                f" of at least 1, got {','.join(map(str, self.arities))}"
            )
        if self.key_indices and self.skolem != SKOLEM_KEY:
            raise InvalidKeyIndexError(f"key indices need the key strategy, not {self.skolem}")


def _primitive_body(spec: PrimitiveSpec):
    """Body atoms, the ordered distinct body variables, and the first source
    relation's variables."""
    if spec.kind == "MA":
        a, b = spec.arities
        first = [_var(i) for i in range(a)]
        # merged relations share one attribute: last of the first relation
        second = [first[-1]] + [_var(a + i) for i in range(b - 1)]
        atoms = [Atom("B", tuple(first)), Atom("T_src", tuple(second))]
        ordered = list(dict.fromkeys(first + second))
        return atoms, ordered, first
    n = spec.arities[0]
    variables = [_var(i) for i in range(n)]
    return [Atom("B", tuple(variables))], variables, variables


def _distinguished(kind: str, ordered: list[Variable]) -> tuple[Variable, ...]:
    if kind == "GAVBase":
        return tuple(ordered[: min(2, len(ordered))])
    if kind == "ADD" or kind == "MA":
        return tuple(ordered)
    # ADL: copy, then delete the last attribute
    return tuple(ordered[:-1]) if len(ordered) > 1 else tuple(ordered[:1])


def _skolem_args(spec: PrimitiveSpec, ordered, first) -> tuple[Variable, ...]:
    if spec.skolem == SKOLEM_ALL:
        return tuple(ordered)
    if spec.skolem == SKOLEM_KEY:
        if not spec.key_indices:
            raise InvalidKeyIndexError("key strategy needs at least one index")
        for i in spec.key_indices:
            if not 1 <= i <= len(first):
                raise InvalidKeyIndexError(
                    f"key index {i} outside source arity {len(first)}"
                )
        return tuple(first[i - 1] for i in spec.key_indices)
    rng = random.Random(spec.seed)
    size = rng.randint(1, len(ordered))
    picked = sorted(rng.sample(range(len(ordered)), size))
    return tuple(ordered[i] for i in picked)


def gen_primitive(spec: PrimitiveSpec) -> SkolemQuery:
    """Benchmark-primitive query for the given spec; always validates."""
    atoms, ordered, first = _primitive_body(spec)
    distinguished = _distinguished(spec.kind, ordered)
    creation = _skolem_args(spec, ordered, first)
    raw = RawRule(
        head_predicate="T",
        head_args=tuple(distinguished) + (FuncTerm("f", creation),),
        body=tuple(atoms),
    )
    return validate_rule(raw)
