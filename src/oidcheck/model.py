"""Core vocabulary: terms, atoms, facts, instances, and the two query classes,
with what every layer shares about them: arity maps, fresh names, the head check.

Everything here is immutable after construction and safe to share across
threads. Rule bodies are plain (function-free) atoms over variables; heads may
carry exactly one function term, which is how new object identifiers enter
query results. Both query classes check their shape however they are built.

Variables and constants are interned, one object per class and name, so terms
compare and hash by identity, in C. The intern tables are never pruned: they
grow with the distinct names a process builds.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping
from functools import total_ordering

from .errors import (
    ArityClashError,
    FrozenError,
    HeadMismatchError,
    HeadPredicateInBodyError,
    MultipleFunctionsError,
    NestedTermError,
    NoFunctionError,
    RuleValidationError,
    UnsafeVariableError,
)

# Constants with this prefix stand for frozen variables and are rejected in
# user-supplied input.
FROZEN_PREFIX = "frz:"


class Record:
    """Base of the package's immutable records.

    A subclass names its fields in ``__slots__``; a slot whose name starts
    with ``_`` caches a derived value and is not a field. ``_defaults`` holds
    the default values of the last fields. ``__init__`` takes the fields by
    position or by keyword, then calls ``__post_init__`` if the class has
    one. Records are equal when their classes and fields are, and hash by
    their fields. ``__init__``, ``__eq__`` and ``__hash__`` are compiled per
    class from the field names, so they set and read the slots directly.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        fields = cls._fields = tuple(s for s in cls.__slots__ if not s.startswith("_"))
        params = ", ".join(f"{f}=_d[{f!r}]" if f in cls._defaults else f for f in fields)
        env = {"_d": cls._defaults, **{f"_set_{f}": getattr(cls, f).__set__ for f in fields}}
        exec("\n".join([
            f"def __init__(self, {params}):",
            *(f"    _set_{f}(self, {f})" for f in fields),
            *(["    self.__post_init__()"] if hasattr(cls, "__post_init__") else []),
            "def __hash__(self):",
            f"    return hash(({''.join(f'self.{f}, ' for f in fields)}))",
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            "        return " + " and ".join(f"self.{f} == other.{f}" for f in fields),
            "    return NotImplemented",
        ]), env)
        cls.__init__, cls.__hash__, cls.__eq__ = env["__init__"], env["__hash__"], env["__eq__"]

    def __setattr__(self, attr, value):
        raise FrozenError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise FrozenError(f"cannot delete field {attr!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def replace(self, **changes):
        """A new record of this class with the given fields changed and the
        others as here; it runs ``__post_init__`` like any other."""
        return type(self)(**{f: getattr(self, f) for f in self._fields} | changes)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _slot_cached(method):
    """A read-only property that computes ``method`` on first read and keeps
    the value in the slot named ``_`` plus the method's name."""
    slot = "_" + method.__name__

    def get(self):
        value = getattr(self, slot, None)
        if value is None:
            value = method(self)
            object.__setattr__(self, slot, value)
        return value

    return property(get, doc=method.__doc__)


@total_ordering
class _Name:
    """A term that is only its name, interned per subclass, ordered by name."""

    __slots__ = ("name",)

    def __init_subclass__(cls):
        cls._table = {}

    def __new__(cls, name: str):
        try:
            return cls._table[name]
        except KeyError:
            obj = object.__new__(cls)
            object.__setattr__(obj, "name", name)
            return cls._table.setdefault(name, obj)  # atomic: racing threads agree

    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

    def __reduce__(self):
        return type(self), (self.name,)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"

    def __lt__(self, other):
        return self.name < other.name if other.__class__ is self.__class__ else NotImplemented


class Variable(_Name):
    __slots__ = ()


class Constant(_Name):
    __slots__ = ()


class FuncTerm(Record):
    """Application of a function symbol to variables (in rules) or constants
    (in extended facts). Arguments are always atomic; nesting is rejected at
    validation time."""

    __slots__ = ("symbol", "args")

    @property
    def arity(self) -> int:
        return len(self.args)

    def __repr__(self) -> str:
        return f"FuncTerm({self.symbol!r}, {self.args!r})"


Term = Variable | Constant | FuncTerm


def render_term(term: Term) -> str:
    if term.__class__ is not FuncTerm:
        return term.name
    # On a stack, not recursively: a parsed head term may nest to any depth.
    parts, todo = [], [term]
    while todo:
        t = todo.pop()
        if t.__class__ is not FuncTerm:
            parts.append(t if t.__class__ is str else t.name)
            continue
        names = [a.name for a in t.args if a.__class__ is not FuncTerm]
        if len(names) == len(t.args):  # a flat term, in one step
            parts.append(f"{t.symbol}({','.join(names)})")
        else:
            items = [x for a in t.args for x in (",", a)][1:]
            todo += [")", *reversed(items), f"{t.symbol}("]
    return "".join(parts)


class Atom(Record):
    __slots__ = ("predicate", "args", "_variables")  # args: tuple of Variables

    @property
    def arity(self) -> int:
        return len(self.args)

    @_slot_cached
    def variables(self) -> frozenset[Variable]:
        return frozenset(self.args)

    def render(self) -> str:
        return f"{self.predicate}({','.join(a.name for a in self.args)})"


class Fact(Record):
    __slots__ = ("predicate", "args")  # args: tuple of Constants

    @property
    def arity(self) -> int:
        return len(self.args)

    def render(self) -> str:
        return f"{self.predicate}({','.join(a.name for a in self.args)})"


class ExtendedFact(Record):
    """Like a Fact but arguments may be function terms (created oids)."""

    __slots__ = ("predicate", "args")

    @property
    def arity(self) -> int:
        return len(self.args)

    def render(self) -> str:
        return f"{self.predicate}({','.join(render_term(a) for a in self.args)})"


Instance = frozenset  # of Fact


def adom(facts: Iterable) -> frozenset:
    """Active domain: every term appearing in some argument position."""
    out = set()
    for f in facts:
        out.update(f.args)
    return frozenset(out)


def oids(extended: Iterable) -> frozenset:
    """The non-constant data terms of an extended instance."""
    return frozenset(t for t in adom(extended) if isinstance(t, FuncTerm))


def body_variables(body: Iterable[Atom]) -> frozenset[Variable]:
    out = set()
    for atom in body:
        out.update(atom.args)
    return frozenset(out)


def predicate_arities(items: Iterable) -> dict[str, int]:
    """Arity map of atoms/facts, raising on inconsistent use."""
    arities: dict[str, int] = {}
    for item in items:
        record_arity(arities, "predicate", item.predicate, item.arity)
    return arities


def canonical_atoms(body: Iterable[Atom]) -> list[Atom]:
    """The atoms of a body in display order: by predicate, then arguments."""
    return sorted(body, key=lambda a: (a.predicate, a.args))


def body_arities(body: Collection[Atom]) -> dict[str, int]:
    """Arity map of a body in predicate-name order, so a clash that a merge
    with it reports, or one in the body, reads the same in every run."""
    pairs = sorted({(a.predicate, len(a.args)) for a in body})
    arities = dict(pairs)
    if len(arities) < len(pairs):
        predicate_arities(canonical_atoms(body))  # raises ArityClashError
    return arities


def record_arity(arities: dict[str, int], kind: str, name: str, arity: int) -> None:
    """Record ``name``'s arity in ``arities`` in place, raising if the map
    already holds another one; ``kind`` is "predicate" or "function"."""
    if arities.setdefault(name, arity) != arity:
        raise ArityClashError(f"{kind} {name} used with arity {arities[name]} and {arity}")


def merge_arities(*maps: Mapping[str, int]) -> dict[str, int]:
    merged: dict[str, int] = {}
    for m in maps:
        for pred, ar in m.items():
            record_arity(merged, "predicate", pred, ar)
    return merged


def instance_lines(facts: Iterable) -> list[str]:
    """Each fact as ``pred(a,b).``, in canonical order: by predicate, then by
    the rendered arguments compared as a tuple. Every term is rendered once."""
    keys = sorted([(f.predicate, tuple(map(render_term, f.args))) for f in facts])
    return [f"{pred}({','.join(args)})." for pred, args in keys]


def _check_rule_shape(head_predicate: str, head_vars, body: Collection[Atom], body_vars) -> None:
    """Raise unless a rule's body is not empty, keeps out the head predicate,
    uses each predicate with one arity, and holds every head variable;
    checked in that order, a clash named at its first atom in canonical
    order. ``body_vars`` are the variables of ``body``."""
    if not body:
        raise UnsafeVariableError("rule body is empty")
    pairs = {(a.predicate, len(a.args)) for a in body}
    arities = dict(pairs)
    if head_predicate in arities:
        raise HeadPredicateInBodyError(f"head predicate {head_predicate} occurs in body")
    if len(arities) < len(pairs):
        body_arities(body)  # raises, naming the clash in canonical order, the same every run
    missing = head_vars - body_vars
    if missing:
        names = ", ".join(sorted(v.name for v in missing))
        raise UnsafeVariableError(f"head variable(s) {names} not in body")


class ConjunctiveQuery(Record):
    __slots__ = ("head", "body", "_variables")  # body: frozenset of Atoms

    def __post_init__(self):
        _check_rule_shape(self.head.predicate, self.head.variables, self.body, self.variables)

    @_slot_cached
    def variables(self) -> frozenset[Variable]:
        return body_variables(self.body)

    def render(self) -> str:
        atoms = canonical_atoms(self.body)
        return f"{self.head.render()} <- {', '.join(a.render() for a in atoms)}."


class SkolemQuery(Record):
    """A single rule whose head creates one new value per distinct binding of
    the function term's arguments.

    The head reads ``T(distinguished..., f(creation...))`` with the function
    term kept at ``func_pos`` among the head arguments (0-based), which must
    lie inside the head; the body is checked as ``ConjunctiveQuery``'s is.
    """

    __slots__ = ("head_predicate", "distinguished", "func_symbol", "creation", "body",
                 "func_pos", "_x_set", "_z_set", "_variables")

    def __post_init__(self):
        if not 0 <= self.func_pos <= len(self.distinguished):
            raise RuleValidationError(f"function term position {self.func_pos} outside the head")
        _check_rule_shape(self.head_predicate, self.x_set | self.z_set, self.body, self.variables)

    @property
    def head_arity(self) -> int:
        return len(self.distinguished) + 1

    @property
    def func_arity(self) -> int:
        return len(self.creation)

    @_slot_cached
    def x_set(self) -> frozenset[Variable]:
        return frozenset(self.distinguished)

    @_slot_cached
    def z_set(self) -> frozenset[Variable]:
        return frozenset(self.creation)

    @_slot_cached
    def variables(self) -> frozenset[Variable]:
        return body_variables(self.body)

    @property
    def head_args(self) -> tuple:
        func = FuncTerm(self.func_symbol, tuple(self.creation))
        args = list(self.distinguished)
        args.insert(self.func_pos, func)
        return tuple(args)

    def render(self) -> str:
        head_args = ",".join(render_term(t) for t in self.head_args)
        body = ", ".join(a.render() for a in canonical_atoms(self.body))
        return f"{self.head_predicate}({head_args}) <- {body}."


class RawRule(Record):
    """Parsed but not yet validated rule. Head arguments may still contain
    arbitrarily shaped function terms; validation rejects the bad ones."""

    __slots__ = ("head_predicate", "head_args", "body")


def validate_rule(raw: RawRule) -> SkolemQuery:
    """Check that a raw rule's head holds one function term over variables and
    a variable elsewhere, and build a SkolemQuery, which checks the body: an
    arity clash there is named at its first atom in text order."""
    func_positions = [i for i, t in enumerate(raw.head_args) if isinstance(t, FuncTerm)]
    if not func_positions:
        raise NoFunctionError("head has no function term")
    if len(func_positions) > 1:
        raise MultipleFunctionsError("head has more than one function term")
    pos = func_positions[0]
    func = raw.head_args[pos]
    for arg in func.args:
        if isinstance(arg, FuncTerm):
            raise NestedTermError(
                f"nested function term {render_term(arg)} inside {func.symbol}(...)"
            )
        if isinstance(arg, Constant):
            raise NestedTermError(
                f"constant {arg.name} not allowed inside {func.symbol}(...)"
            )
    distinguished = raw.head_args[:pos] + raw.head_args[pos + 1:]
    for t in distinguished:
        if not isinstance(t, Variable):
            raise NestedTermError(f"head argument {render_term(t)} must be a variable")

    try:
        return SkolemQuery(
            head_predicate=raw.head_predicate,
            distinguished=tuple(distinguished),
            func_symbol=func.symbol,
            creation=tuple(func.args),
            body=frozenset(raw.body),
            func_pos=pos,
        )
    except ArityClashError:
        predicate_arities(raw.body)  # the clash named in text order
        raise


def fresh_name(base: str, taken) -> str:
    """``base`` with ``_`` appended until it is not in ``taken``."""
    while base in taken:
        base += "_"
    return base


def names_in_use(*queries) -> set[str]:
    """The names of the queries' body variables."""
    return {v.name for q in queries for v in q.variables}


class FreshNames:
    """Fresh variables ``<name>_<k>``: one counter across every variable
    drawn, and no name in ``used`` or drawn before."""

    def __init__(self, used):
        self.used = set(used)
        self.counter = 0

    def fresh_variable(self, v: Variable) -> Variable:
        while True:
            self.counter += 1
            name = f"{v.name}_{self.counter}"
            if name not in self.used:
                self.used.add(name)
                return Variable(name)


def check_heads(predicate: str, arity: int, other_predicate: str, other_arity: int) -> None:
    """Raise unless two heads, of two rules or two conjunctive queries, have
    one predicate and one arity."""
    if predicate != other_predicate or arity != other_arity:
        raise HeadMismatchError(
            f"heads differ: {predicate}/{arity} vs {other_predicate}/{other_arity}"
        )


def flatten_query(q: SkolemQuery, creation: tuple | None = None,
                  taken: Collection[str] | None = None) -> ConjunctiveQuery:
    """Replace the function term by ``creation``, by default its argument
    list: the head becomes ``T_hat(distinguished..., creation...)`` over the
    same body, its predicate named apart from ``taken``, by default the
    body's predicates."""
    if taken is None:
        taken = {a.predicate for a in q.body}
    name = fresh_name(q.head_predicate + "_hat", taken)
    head = Atom(name, tuple(q.distinguished) + tuple(q.creation if creation is None else creation))
    return ConjunctiveQuery(head=head, body=q.body)


def frozen_constant(v: Variable) -> Constant:
    return Constant(FROZEN_PREFIX + v.name)


def freeze_body(body: Iterable[Atom]) -> Instance:
    """Read a body as an instance, turning each variable into a reserved
    constant ``frz:<name>``."""
    return frozenset(
        Fact(a.predicate, tuple(frozen_constant(v) for v in a.args))
        for a in body
    )


def rename_atoms(body: Iterable[Atom], mapping: Mapping[Variable, Variable]) -> frozenset[Atom]:
    return frozenset(
        Atom(a.predicate, tuple(mapping.get(v, v) for v in a.args)) for a in body
    )


def rename_query(q: SkolemQuery, mapping: Mapping[Variable, Variable]) -> SkolemQuery:
    """Apply a variable renaming to head and body."""
    return q.replace(
        distinguished=tuple(mapping.get(v, v) for v in q.distinguished),
        creation=tuple(mapping.get(v, v) for v in q.creation),
        body=rename_atoms(q.body, mapping),
    )


def rename_apart(q: SkolemQuery, q_prime: SkolemQuery,
                 keep: Mapping[Variable, Variable] | None = None) -> SkolemQuery:
    """q_prime with each variable in ``keep`` renamed to its image there and
    every other one to a fresh name that neither query uses, drawn in name
    order from one ``FreshNames``."""
    keep = keep or {}
    namer = FreshNames(names_in_use(q, q_prime))
    return rename_query(q_prime, {
        v: keep[v] if v in keep else namer.fresh_variable(v) for v in sorted(q_prime.variables)
    })
