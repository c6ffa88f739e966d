import copy
import pickle

import pytest

from oidcheck.entail import ColoredInstance, EntailDecision, EntailWitness, LogicalEquivalence
from oidcheck.errors import (
    ArityClashError,
    FrozenError,
    HeadPredicateInBodyError,
    MultipleFunctionsError,
    NestedTermError,
    NoFunctionError,
    RuleValidationError,
    UnsafeVariableError,
)
from oidcheck.evaluation import ChaseResult, JoinDependency, MVQuery
from oidcheck.fixtures import PrimitiveSpec
from oidcheck.hom import HomConstraint
from oidcheck.model import (
    Atom,
    ConjunctiveQuery,
    Constant,
    ExtendedFact,
    Fact,
    FuncTerm,
    RawRule,
    SkolemQuery,
    Variable,
    adom,
    flatten_query,
    freeze_body,
    render_term,
    validate_rule,
)
from oidcheck.normalize import NormalizedPair, NormalizeRefutation
from oidcheck.oid_equiv import EquivDecision, EquivWitness
from oidcheck.oracle import SatisfactionReport
from oidcheck.parser import parse_rule

x, y, z, c, w = (Variable(n) for n in "xyzcw")


def raw(head_pred, head_args, body):
    return RawRule(head_pred, tuple(head_args), tuple(body))


def test_validate_family_rule():
    q = validate_rule(
        raw(
            "Family",
            [c, FuncTerm("f", (x, y))],
            [Atom("Mother", (c, x)), Atom("Father", (c, y))],
        )
    )
    assert q.distinguished == (c,)
    assert q.creation == (x, y)
    assert q.func_pos == 1
    assert q.head_arity == 2


def test_validate_keyed_rule():
    q = validate_rule(raw("T", [x, FuncTerm("f", (x,))], [Atom("R", (x, y, z))]))
    assert q.distinguished == (x,)
    assert q.creation == (x,)


def test_validate_unsafe_variable():
    with pytest.raises(UnsafeVariableError):
        validate_rule(raw("T", [w, FuncTerm("f", (x,))], [Atom("R", (x, y, z))]))


def test_validate_no_function():
    with pytest.raises(NoFunctionError):
        validate_rule(raw("T", [x, y], [Atom("R", (x, y, z))]))


def test_validate_multiple_functions():
    with pytest.raises(MultipleFunctionsError):
        validate_rule(
            raw("T", [FuncTerm("f", (x,)), FuncTerm("g", (y,))], [Atom("R", (x, y, z))])
        )


def test_validate_nested_term():
    with pytest.raises(NestedTermError):
        validate_rule(
            raw("T", [x, FuncTerm("f", (FuncTerm("g", (y,)),))], [Atom("R", (x, y, z))])
        )


def test_render_nested_terms():
    inner = FuncTerm("g", (x, FuncTerm("h", ())))
    assert render_term(FuncTerm("f", (inner, y, FuncTerm("k", (Constant("a"),))))) == "f(g(x,h()),y,k(a))"
    assert render_term(FuncTerm("f", (x, y))) == "f(x,y)"
    assert render_term(FuncTerm("f", ())) == "f()"
    a, b = Constant("a"), Constant("b")
    flat_inside = FuncTerm("f", (FuncTerm("g", (a, b)), FuncTerm("h", ()), Constant("c")))
    assert render_term(flat_inside) == "f(g(a,b),h(),c)"
    assert render_term(FuncTerm("f", (a, FuncTerm("g", (b,))))) == "f(a,g(b))"
    deep = a
    for _ in range(5000):
        deep = FuncTerm("f", (deep, b))
    assert render_term(deep) == "f(" * 5000 + "a" + ",b)" * 5000


def test_validate_head_predicate_in_body():
    with pytest.raises(HeadPredicateInBodyError):
        validate_rule(raw("R", [x, FuncTerm("f", (y,))], [Atom("R", (x, y, z))]))


@pytest.mark.parametrize("changes, error, message", [
    # T(x,f(y)) <- T(x,y).
    ({"body": frozenset({Atom("T", (x, y))})}, HeadPredicateInBodyError,
     "head predicate T occurs in body"),
    # T(x,f(z)) <- R(x,y).
    ({"creation": (z,)}, UnsafeVariableError, "head variable(s) z not in body"),
    ({"body": frozenset()}, UnsafeVariableError, "rule body is empty"),
    ({"body": frozenset({Atom("R", (x, y)), Atom("R", (y,))})}, ArityClashError,
     "predicate R used with arity 2 and 1"),
    ({"func_pos": 2}, RuleValidationError, "function term position 2 outside the head"),
    ({"func_pos": -1}, RuleValidationError, "function term position -1 outside the head"),
], ids=["head-predicate-in-body", "missing-head-variable", "empty-body", "arity-clash",
        "function-past-head", "function-before-head"])
def test_skolem_query_checks_its_shape_however_built(changes, error, message):
    q = parse_rule("T(x,f(y)) <- R(x,y).")
    fields = {f: getattr(q, f) for f in SkolemQuery._fields} | changes
    for build in (lambda: SkolemQuery(**fields), lambda: q.replace(**changes)):
        with pytest.raises(error) as err:
            build()
        assert str(err.value) == message


def test_conjunctive_query_body_may_not_be_empty():
    with pytest.raises(UnsafeVariableError, match="rule body is empty"):
        ConjunctiveQuery(Atom("H", ()), frozenset())


def test_validate_arity_clash():
    with pytest.raises(ArityClashError):
        validate_rule(
            raw("T", [x, FuncTerm("f", (y,))], [Atom("R", (x, y)), Atom("R", (x, y, z))])
        )


def test_flatten_moves_creation_args_into_head():
    q = validate_rule(raw("T", [x, FuncTerm("f", (y,))], [Atom("R", (x, y, z))]))
    flat = flatten_query(q)
    assert flat.head.args == (x, y)
    assert flat.head.predicate == "T_hat"
    assert flat.body == q.body


def test_flatten_family():
    q = validate_rule(
        raw(
            "Family",
            [c, FuncTerm("f", (x, y))],
            [Atom("Mother", (c, x)), Atom("Father", (c, y))],
        )
    )
    flat = flatten_query(q)
    assert flat.head.args == (c, x, y)


def test_flatten_repeated_head_variable():
    q = validate_rule(raw("T", [x, FuncTerm("f", (x,))], [Atom("R", (x, y, z))]))
    assert flatten_query(q).head.args == (x, x)


def test_flatten_injective_up_to_name():
    q1 = validate_rule(raw("T", [x, FuncTerm("f", (y,))], [Atom("R", (x, y, z))]))
    q2 = validate_rule(raw("T", [x, FuncTerm("g", (y,))], [Atom("R", (x, y, z))]))
    assert flatten_query(q1) == flatten_query(q2)  # symbol does not survive
    q3 = validate_rule(raw("T", [y, FuncTerm("f", (x,))], [Atom("R", (x, y, z))]))
    assert flatten_query(q1) != flatten_query(q3)


def test_flatten_avoids_body_predicate_collision():
    q = validate_rule(raw("T", [x, FuncTerm("f", (y,))], [Atom("T_hat", (x, y, z))]))
    assert flatten_query(q).head.predicate == "T_hat_"


def test_freeze_single_atom():
    frozen = freeze_body([Atom("R", (x, y, z))])
    assert frozen == {
        Fact("R", (Constant("frz:x"), Constant("frz:y"), Constant("frz:z")))
    }


def test_freeze_two_atoms():
    frozen = freeze_body([Atom("Mother", (c, x)), Atom("Father", (c, y))])
    assert len(frozen) == 2
    assert adom(frozen) == {
        Constant("frz:c"),
        Constant("frz:x"),
        Constant("frz:y"),
    }


def test_freeze_empty():
    assert freeze_body([]) == frozenset()


def test_freeze_bijection_with_variables():
    body = [Atom("R", (x, y, z)), Atom("S", (x, w))]
    frozen = freeze_body(body)
    assert len(frozen) == len(body)
    assert len(adom(frozen)) == 4


def test_head_args_roundtrip_position():
    q = validate_rule(raw("T", [FuncTerm("f", (y,)), x], [Atom("R", (x, y, z))]))
    assert q.func_pos == 0
    assert q.head_args == (FuncTerm("f", (y,)), x)
    assert q.render() == "T(f(y),x) <- R(x,y,z)."


# -- interned terms ----------------------------------------------------------


def test_terms_are_interned():
    assert Variable("x") is Variable("x")
    assert Variable(name="x") is Variable("x")
    assert Constant("x") is Constant(name="x")
    assert Variable("x") is not Variable("y")


def test_variable_and_constant_of_one_name_differ():
    assert Variable("x") != Constant("x")
    assert Variable("x") is not Constant("x")
    assert len({Variable("x"), Constant("x")}) == 2


def test_terms_sort_by_name_within_a_class():
    names = ["b", "a10", "a2", "_", "Z"]
    assert sorted(Variable(n) for n in names) == [Variable(n) for n in sorted(names)]
    assert Constant("a") < Constant("b") <= Constant("b") < Constant("c")
    assert Constant("c") > Constant("b") >= Constant("b") > Constant("a")


@pytest.mark.parametrize("compare", [
    lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b,
])
def test_terms_of_different_classes_do_not_order(compare):
    with pytest.raises(TypeError):
        compare(Variable("x"), Constant("x"))


def test_terms_are_frozen():
    v = Variable("x")
    with pytest.raises(FrozenError):
        v.name = "y"
    with pytest.raises(FrozenError):
        del v.name
    with pytest.raises(FrozenError):
        v.other = 1
    assert v.name == "x"


@pytest.mark.parametrize("term", [Variable("x"), Constant("frz:x")])
def test_pickle_and_copy_return_the_interned_term(term):
    assert pickle.loads(pickle.dumps(term)) is term
    assert copy.copy(term) is term
    assert copy.deepcopy(term) is term
    assert copy.deepcopy(Atom("R", (x, y))).args[0] is x


def test_term_repr():
    assert repr(Variable("x")) == "Variable('x')"
    assert repr(Constant("frz:a")) == "Constant('frz:a')"


# every record class of the package: each was a frozen dataclass before
RECORD_CLASSES = {
    "Atom", "ChaseResult", "ColoredInstance", "ConjunctiveQuery", "EntailDecision",
    "EntailWitness", "EquivDecision", "EquivWitness", "ExtendedFact", "Fact", "FuncTerm",
    "HomConstraint", "JoinDependency", "LogicalEquivalence", "MVQuery", "NormalizeRefutation",
    "NormalizedPair", "PrimitiveSpec", "RawRule", "SatisfactionReport", "SkolemQuery",
}


def _record_samples() -> list:
    """One new record of each class, with hashable fields, built afresh on
    every call so that two calls give equal but distinct objects."""
    a, b = Constant("a"), Constant("b")
    atom = Atom("R", (x, y))
    query = parse_rule("T(x,f(y)) <- R(x,y).")
    decision = EntailDecision(False, None, (frozenset(), frozenset()), "note")
    jd = JoinDependency(frozenset({x}), frozenset({y}))
    return [
        FuncTerm("f", (x,)),
        atom,
        Fact("R", (a, b)),
        ExtendedFact("T", (a, FuncTerm("f", (b,)))),
        ConjunctiveQuery(Atom("H", (x,)), frozenset({atom})),
        query,
        RawRule("T", (x, FuncTerm("f", (y,))), (atom,)),
        ColoredInstance(frozenset({Fact("R", (a, b))})),
        EntailWitness((), frozenset({y}), jd, ()),
        decision,
        LogicalEquivalence(decision, EntailDecision(True)),
        MVQuery(ConjunctiveQuery(Atom("H", (x,)), frozenset({atom})), frozenset({y})),
        jd,
        ChaseResult(frozenset({Fact("T", (a,))}), ()),
        HomConstraint((), frozenset({x}), ()),
        NormalizedPair(query, query, frozenset({x}), frozenset({y})),
        NormalizeRefutation("Stage", None),
        EquivWitness((), (), (), (), ()),
        EquivDecision(False, None, NormalizeRefutation("Stage", None)),
        SatisfactionReport(True, (), None),
        PrimitiveSpec("ADD", "key", (1,), 3),
    ]


def test_record_samples_cover_every_record_class():
    assert {type(r).__name__ for r in _record_samples()} == RECORD_CLASSES


@pytest.mark.parametrize("index", range(len(RECORD_CLASSES)))
def test_records_compare_and_hash_by_class_and_fields(index):
    first, second = _record_samples()[index], _record_samples()[index]
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert pickle.loads(pickle.dumps(first)) == first
    assert copy.copy(first) == first
    fields = type(first)._fields
    assert repr(first).startswith(type(first).__name__ + "(")
    assert type(first)(*(getattr(first, f) for f in fields)) == first
    assert type(first)(**{f: getattr(first, f) for f in fields}) == first
    for other in _record_samples():
        if type(other) is not type(first):
            assert first != other and not first == other


@pytest.mark.parametrize("index", range(len(RECORD_CLASSES)))
def test_records_refuse_assignment_and_deletion(index):
    record = _record_samples()[index]
    for field in type(record)._fields:
        before = getattr(record, field)
        with pytest.raises(FrozenError):
            setattr(record, field, None)
        with pytest.raises(FrozenError):
            delattr(record, field)
        assert getattr(record, field) is before
    with pytest.raises(FrozenError):
        record.extra = 1


# a changed field that the class's own check accepts, where it checks any
_VALID_CHANGE = {
    "ConjunctiveQuery": ("body", frozenset({Atom("R", (x, y)), Atom("S", (x,))})),
    "MVQuery": ("multiset_vars", frozenset()),
    "NormalizedPair": ("x_set", frozenset()),
    "PrimitiveSpec": ("seed", 4),
    "SkolemQuery": ("func_symbol", "g"),
}


@pytest.mark.parametrize("index", range(len(RECORD_CLASSES)))
def test_record_replace_changes_only_the_named_fields(index):
    record = _record_samples()[index]
    fields = type(record)._fields
    same = record.replace()
    assert same == record and same is not record
    assert all(getattr(same, f) is getattr(record, f) for f in fields)
    special = _VALID_CHANGE.get(type(record).__name__)
    changes = [special] if special else [(f, ("changed", getattr(record, f))) for f in fields]
    for field, value in changes:
        changed = record.replace(**{field: value})
        assert type(changed) is type(record) and getattr(changed, field) is value
        assert all(getattr(changed, f) is getattr(record, f) for f in fields if f != field)
    assert record == _record_samples()[index]
    with pytest.raises(TypeError):
        record.replace(no_such_field=1)


def test_record_replace_recomputes_cached_sets():
    q = parse_rule("T(x,f(y)) <- R(x,y).")
    assert q.x_set == {x}
    assert q.replace(distinguished=(y,)).x_set == {y}


def test_records_of_different_classes_with_equal_fields_are_unequal():
    assert Atom("R", ()) != Fact("R", ())
    assert Fact("R", ()) != ExtendedFact("R", ())
    assert FuncTerm("R", ()) != Atom("R", ())
    assert len({Atom("R", ()), Fact("R", ()), ExtendedFact("R", ())}) == 3


def test_record_defaults_keywords_and_repr():
    assert EntailDecision(entails=True) == EntailDecision(True, None, None, "")
    assert NormalizeRefutation("S", None).detail == ""
    assert PrimitiveSpec("MA").arities == (2, 2)  # set by its __post_init__
    assert HomConstraint().fixed == {} and HomConstraint().image_in == {}
    assert repr(Fact("R", (Constant("a"),))) == "Fact(predicate='R', args=(Constant('a'),))"
    assert repr(FuncTerm("f", (x,))) == "FuncTerm('f', (Variable('x'),))"
    with pytest.raises(TypeError):
        Fact("R")
    with pytest.raises(TypeError):
        Fact("R", (), ())


def test_cached_query_sets_are_computed_once():
    q = parse_rule("T(x,f(y)) <- R(x,y), S(y,z).")
    assert q.x_set is q.x_set == frozenset({x})
    assert q.z_set is q.z_set == frozenset({y})
    assert q.variables is q.variables == frozenset({x, y, z})
    assert Atom("R", (x, y, x)).variables == frozenset({x, y})
    with pytest.raises(FrozenError):
        q.x_set = frozenset()
