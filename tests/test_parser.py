import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import reference_render, reference_sort_facts
from oidcheck import parser, report
from oidcheck.errors import (
    ArityClashError,
    HeadPredicateInBodyError,
    NestedTermError,
    OidcheckError,
    ParseError,
    ReservedNameError,
    UnsafeVariableError,
)
from oidcheck.model import Constant, ExtendedFact, Fact, FuncTerm, predicate_arities
from oidcheck.parser import (
    parse_extended_instance,
    parse_instance,
    parse_rule,
    parse_rules,
    serialize_extended_instance,
    serialize_instance,
)


def test_parse_single_rule():
    q = parse_rule("T(x,f(y)) <- R(x,y,z).")
    assert q.head_predicate == "T"
    assert [v.name for v in q.distinguished] == ["x"]
    assert [v.name for v in q.creation] == ["y"]
    assert len(q.body) == 1


def test_parse_rules_ignores_comments():
    text = "% leading comment\nT(x,f(y)) <- R(x,y,z). # trailing comment\n"
    assert len(parse_rules(text)) == 1


def test_parse_rule_unbalanced_paren():
    with pytest.raises(ParseError) as err:
        parse_rules("T(x,f(y) <- R(x,y,z).")
    assert err.value.line == 1


def test_parse_rule_error_position():
    with pytest.raises(ParseError) as err:
        parse_rules("T(x,f(y)) <- R(x,y,z).\nT(x f(y)) <- R(x,y,z).")
    assert err.value.line == 2


def test_parse_rule_validation_error_carries_position():
    with pytest.raises(UnsafeVariableError) as err:
        parse_rules("% intro\nT(w,f(x)) <- R(x,y,z).")
    assert err.value.line == 2


def test_parse_rules_arity_enforced_across_rules():
    text = "T(x,f(y)) <- R(x,y).\nU(x,g(y)) <- R(x,y,z)."
    with pytest.raises(ArityClashError):
        parse_rules(text)


def test_parse_instance_four_rows():
    instance = parse_instance("R(a,b,c). R(a,b,d). R(c,b,d). R(d,c,a).")
    assert len(instance) == 4
    assert Fact("R", (Constant("a"), Constant("b"), Constant("c"))) in instance


def test_parse_instance_duplicates_collapse():
    assert len(parse_instance("R(a,b,c). R(a,b,c).")) == 1


def test_parse_instance_arity_clash():
    with pytest.raises(ArityClashError):
        parse_instance("R(a,b). R(a,b,c).")


def test_parse_instance_rejects_reserved():
    with pytest.raises(ReservedNameError):
        parse_instance("R(frz:a,b).")
    with pytest.raises(ReservedNameError):
        parse_instance("R(a,b#0).")
    assert len(parse_instance("R(frz:a,b#0).", allow_reserved=True)) == 1


def test_parse_instance_order_insensitive():
    a = parse_instance("R(a,b,c). R(d,c,a).")
    b = parse_instance("R(d,c,a). R(a,b,c).")
    assert a == b


def test_serialize_extended_instance_golden():
    instance = parse_extended_instance("T(d,f(c)). T(a,f(b)). T(c,f(b)).")
    assert serialize_extended_instance(instance) == "T(a,f(b)).\nT(c,f(b)).\nT(d,f(c)).\n"


def test_serialize_empty():
    assert serialize_extended_instance(frozenset()) == ""


def test_serialize_family_fact():
    instance = frozenset(
        [
            ExtendedFact(
                "Family",
                (Constant("beth"), FuncTerm("f", (Constant("anne"), Constant("adam")))),
            )
        ]
    )
    assert serialize_extended_instance(instance) == "Family(beth,f(anne,adam)).\n"


def test_extended_parse_rejects_nesting():
    with pytest.raises(ParseError):
        parse_extended_instance("T(a,f(g(b))).")


names = st.sampled_from(["a", "b", "c", "d", "anne", "r1", "x_2"])
preds = st.sampled_from(["R", "S", "T"])
funcs = st.sampled_from(["f", "g"])


@st.composite
def extended_instances(draw):
    n_facts = draw(st.integers(0, 6))
    facts = []
    arities: dict[str, int] = {}
    fn_arities: dict[str, int] = {}
    for _ in range(n_facts):
        pred = draw(preds)
        arity = arities.setdefault(pred, draw(st.integers(1, 3)))
        args = []
        for _ in range(arity):
            if draw(st.booleans()):
                fn = draw(funcs)
                fn_arity = fn_arities.setdefault(fn, draw(st.integers(0, 2)))
                args.append(
                    FuncTerm(fn, tuple(Constant(draw(names)) for _ in range(fn_arity)))
                )
            else:
                args.append(Constant(draw(names)))
        facts.append(ExtendedFact(pred, tuple(args)))
    return frozenset(facts)


@given(extended_instances())
def test_serialize_parse_roundtrip(instance):
    assert parse_extended_instance(serialize_extended_instance(instance)) == instance


@given(extended_instances())
def test_fact_roundtrip_without_functions(instance):
    ground = frozenset(
        Fact(f.predicate, tuple(a for a in f.args))
        for f in instance
        if all(isinstance(a, Constant) for a in f.args)
    )
    assert parse_instance(serialize_instance(ground)) == ground


# Terms of any depth over names that share prefixes, among them constants
# named like the function symbols, and function symbols at several arities.
prefixed = st.sampled_from(["a", "a1", "a_", "A", "f", "g"]).map(Constant)
nested_terms = st.recursive(
    prefixed,
    lambda inner: st.builds(FuncTerm, st.sampled_from(["f", "g", "g_"]),
                            st.lists(inner, max_size=3).map(tuple)),
    max_leaves=8,
)


@st.composite
def nested_instances(draw):
    facts = set()
    for _ in range(draw(st.integers(0, 8))):
        pred = draw(st.sampled_from(["R", "T", "T1"]))
        args = tuple(draw(st.lists(nested_terms, max_size=3)))
        plain = all(a.__class__ is Constant for a in args) and draw(st.booleans())
        facts.add((Fact if plain else ExtendedFact)(pred, args))
    return frozenset(facts)


def _term(symbol, *args):
    return FuncTerm(symbol, tuple(Constant(a) if isinstance(a, str) else a for a in args))


@given(nested_instances())
@settings(max_examples=300, deadline=None)
@example(frozenset([
    ExtendedFact("T", (_term("f", _term("g", "a", "b"), _term("g"), "A"),)),
    ExtendedFact("T", (_term("f"),)), ExtendedFact("T", (Constant("f"),)),
    ExtendedFact("T", (_term("f", "a"),)), Fact("R", ()), ExtendedFact("R", ()),
    ExtendedFact("T", (_term("g", "a"),)), ExtendedFact("T", (_term("g", "a", "b"),)),
    *(Fact("T", (Constant(n), Constant("a"))) for n in ("a", "a1", "a_", "A")),
]))
def test_fact_lines_match_reference(instance):
    # the one serializer against the sort-then-render pair it replaced
    expected = reference_sort_facts(instance)
    assert serialize_instance(instance) == "".join(reference_render(f) + ".\n" for f in expected)
    assert report.instance_lines(instance) == [reference_render(f) + "." for f in expected]


# Malformed .facts input: (text, allow_reserved, error type, str(error)).
# Lines and columns count from 1; a tab or a '\r' is one column.
RESERVED = "reserved constant form '{}' not allowed in input"
FACT_ERRORS = [
    # an unexpected character
    ("R(a,b).\nR(a,!).\n", False, ParseError, "2:5: unexpected character '!'"),
    ("R(1a).", False, ParseError, "1:3: unexpected character '1'"),
    ("R(é).", False, ParseError, "1:3: unexpected character 'é'"),
    ("R(a).\f", False, ParseError, "1:6: unexpected character '\\x0c'"),
    # a missing '.' or ')', or a token where a fact or constant belongs
    ("R(a,b)\nR(c,d).", False, ParseError, "2:1: expected '.', found 'R'"),
    ("R(a,b.\n", False, ParseError, "1:6: expected ')', found '.'"),
    ("R(f(a)).", False, ParseError, "1:4: expected ')', found '('"),
    ("(a).", False, ParseError, "1:1: expected a fact, found '('"),
    ("R(a) <- S(a).", False, ParseError, "1:6: expected '.', found '<-'"),
    # end of input inside a fact, also where a comment swallows its rest
    ("R(a,b).\nR(a,", False, ParseError, "2:5: expected a constant, found 'end of input'"),
    ("R(a", False, ParseError, "1:4: expected ')', found 'end of input'"),
    ("R(a,b).\nS", False, ParseError, "2:2: expected '(', found 'end of input'"),
    ("R(a#b).", False, ParseError, "1:4: expected ')', found 'end of input'"),
    ("R(a #0).", False, ParseError, "1:5: expected ')', found 'end of input'"),
    ("R(@3).\nS(frz:a", True, ParseError, "2:8: expected ')', found 'end of input'"),
    # reserved forms
    ("R(frz:a).", False, ReservedNameError, f"1:3: {RESERVED.format('frz:a')}"),
    ("R(a,b).\n  S(c,@3).", False, ReservedNameError, f"2:7: {RESERVED.format('@3')}"),
    ("R(x#0).", False, ReservedNameError, f"1:3: {RESERVED.format('x#0')}"),
    ("frz:R(a).", False, ParseError, "1:1: expected a fact, found 'frz:R'"),
    ("R#1(a).", True, ParseError, "1:1: expected a fact, found 'R#1'"),
    # CRLF line ends, tabs and comments before the error
    ("R(a,b).\r\nR(a,!).\r\n", False, ParseError, "2:5: unexpected character '!'"),
    ("R(a,b).\r\nS(c)\r\n", False, ParseError, "3:1: expected '.', found 'end of input'"),
    ("\tR(a,\t!).", False, ParseError, "1:7: unexpected character '!'"),
    ("R(a).\n\t\tS(b\t.", False, ParseError, "2:7: expected ')', found '.'"),
    ("% c\nR(a,b). # d\n\tR(c;d).", False, ParseError, "3:5: unexpected character ';'"),
]


@pytest.mark.parametrize("text,allow_reserved,error,message", FACT_ERRORS)
def test_parse_instance_error_table(text, allow_reserved, error, message):
    with pytest.raises(error) as err:
        parse_instance(text, allow_reserved)
    assert type(err.value) is error
    assert str(err.value) == message
    assert f"{err.value.line}:{err.value.col}: {err.value.message}" == message


# Malformed .rules input: (text, error type, str(error)). A rule that fails
# validation is reported at its first token; end of input after a trailing
# comment is reported where the comment starts.
RULE_ERRORS = [
    # an unexpected character
    ("T(x,f(y)) <- R(x,!y).", ParseError, "1:18: unexpected character '!'"),
    ("T(x,f(y)) <- R(x,y).\nT(x,f(y)) ; R(x,y).", ParseError, "2:11: unexpected character ';'"),
    # a missing '<-' or final '.'
    ("T(x,f(y)) R(x,y).", ParseError, "1:11: expected '<-', found 'R'"),
    ("T(x,f(y)) <- R(x,y)", ParseError, "1:20: expected '.', found 'end of input'"),
    ("T(x,f(y)) <- R(x,y)\n", ParseError, "2:1: expected '.', found 'end of input'"),
    # end of input right after a trailing comment
    ("T(x,f(y)) <- R(x,y) % no dot", ParseError, "1:21: expected '.', found 'end of input'"),
    ("T(x,f(y)) <- R(x,y) # no dot", ParseError, "1:21: expected '.', found 'end of input'"),
    ("T(x,f(y)) <- R(x,y)  % no dot\n", ParseError, "2:1: expected '.', found 'end of input'"),
    ("T(x,f(y)) <-  % c", ParseError, "1:15: expected a body atom, found 'end of input'"),
    # tab and CRLF columns
    ("\tT(x,f(y)) <- R(x,\ty) S(y).", ParseError, "1:23: expected '.', found 'S'"),
    (
        "T(x,f(y)) <- R(x,y).\r\nT(x,f(y)) <- R(x,y) S.\r\n",
        ParseError,
        "2:21: expected '.', found 'S'",
    ),
    (
        "T(x,f(y)) <- R(x,y).\r\n\tT(x,f(y)) <- R(x,y)\r\n",
        ParseError,
        "3:1: expected '.', found 'end of input'",
    ),
    # a nested function term and reserved forms
    ("T(x,f(g(y))) <- R(x,y).", NestedTermError, "1:1: nested function term g(y) inside f(...)"),
    (
        "% c\nT(x,f(frz:y)) <- R(x,y).",
        ParseError,
        "2:7: expected a variable or function term, found 'frz:y'",
    ),
    ("T(x,f(y)) <- R(x,frz:y).", ParseError, "1:18: expected a variable, found 'frz:y'"),
    (
        "T(x#1,f(y)) <- R(x,y).",
        ParseError,
        "1:3: expected a variable or function term, found 'x#1'",
    ),
    # the body checks in their order: the head predicate before an arity
    # clash, and a clash, named in text order where canonical order would
    # give 1 and 2, before the missing head variable w
    ("T(x,f(y)) <- T(x), R(x,y), R(x).", HeadPredicateInBodyError,
     "1:1: head predicate T occurs in body"),
    ("T(x,f(w)) <- R(x,y), S(y), R(x).", ArityClashError, "1:1: predicate R used with arity 2 and 1"),
    # arity clashes between two rules; the second rule's body is checked in
    # canonical order, so of R and S the clash names R
    (
        "T(x,f(y)) <- R(x,y), S(x,y).\n U(x,g(y)) <- S(x), R(y).",
        ArityClashError,
        "2:2: predicate R used with arity 2 and 1",
    ),
    (
        "T(x,f(y)) <- R(x,y).\nU(x,f(y,x)) <- R(x,y).",
        ArityClashError,
        "2:1: function f used with arity 1 and 2",
    ),
    (
        "T(x,f(y)) <- R(x,y).\n\tT(x,y,g(y)) <- S(x,y).",
        ArityClashError,
        "2:2: predicate T used with arity 2 and 3",
    ),
]


@pytest.mark.parametrize("text,error,message", RULE_ERRORS)
def test_parse_rules_error_table(text, error, message):
    with pytest.raises(error) as err:
        parse_rules(text)
    assert type(err.value) is error
    assert str(err.value) == message
    assert f"{err.value.line}:{err.value.col}: {err.value.message}" == message


@pytest.mark.parametrize("allow_reserved", [False, True])
def test_parse_instance_arity_clash_message(allow_reserved):
    # arities are checked in text order, so the first use is named first
    with pytest.raises(ArityClashError) as err:
        parse_instance("R(a,b).\r\n\tR(a). % one column\n", allow_reserved)
    assert str(err.value) == "predicate R used with arity 2 and 1"


@pytest.mark.parametrize("text", [
    "R(a,b). S(a). R(a). S(a,b).",
    "R(a,b). S(a). R( a ). S(a,b).",
    "R(a,b). S( a ). R(a). S(a,b).",
])
@pytest.mark.parametrize("keep", [None, {"S"}, set()])
def test_first_arity_clash_in_text_order_is_raised(text, keep):
    # of two clashes, in either scan, the one that comes first in the text
    # is named, whether or not its relation is kept
    with pytest.raises(ArityClashError) as err:
        parser.parse_instance_arities(text, keep=keep)
    assert str(err.value) == "predicate R used with arity 2 and 1"


# Pieces of fact texts: plain facts, whitespace, characters that are neither
# whitespace nor identifier characters, comments, colored names against a name
# followed by a comment, reserved forms, a leading digit and stray tokens.
FACT_PIECES = [
    "R(a,b).", "R(a).", "S(b,c,a).", "T(x_1,B2).", "R().",
    " ", "\t", "\r", "\n", "\f", "é",
    "% c", "# c", "%", "#",
    "x#0", "x #0", "a#b", "R(", ",", ")", ").", "(", ".", "<-",
    "frz:a", "@3", "1a", "!",
]


def _outcome(parse):
    try:
        return parse()
    except OidcheckError as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "col", None)


def _full_parse(text, allow_reserved):
    facts = parser._Parser(text, allow_reserved).facts(extended=False)
    predicate_arities(facts)
    return frozenset(facts)


@settings(max_examples=500)
@given(st.lists(st.sampled_from(FACT_PIECES), max_size=12).map("".join))
def test_parse_instance_matches_full_parser(text):
    for allow_reserved in (False, True):
        assert _outcome(lambda: parse_instance(text, allow_reserved)) == _outcome(
            lambda: _full_parse(text, allow_reserved)
        )


@settings(max_examples=300)
@given(
    st.lists(st.sampled_from(FACT_PIECES), max_size=12).map("".join),
    st.sampled_from([None, set(), {"R"}, {"S", "T"}]),
)
def test_kept_facts_are_the_whole_instance_filtered(text, keep):
    # the same errors, the same arity map, and only the kept relations' facts
    for allow_reserved in (False, True):
        whole = _outcome(lambda: parser.parse_instance_arities(text, allow_reserved))
        kept = _outcome(lambda: parser.parse_instance_arities(text, allow_reserved, keep))
        if isinstance(whole, tuple) and isinstance(whole[0], frozenset):
            facts, arities = whole
            whole = frozenset(f for f in facts if keep is None or f.predicate in keep), arities
        assert kept == whole


def _benchmark_shaped_texts():
    """Texts shaped like the CLI benchmark's: 160 children with a mother and
    mostly a father among 1,600 facts the family rule does not read, and a
    random graph of R and S facts, each in shuffled order."""
    rng = random.Random(7)
    family = []
    for i in range(160):
        family.append(f"Mother(c{i},m{rng.randrange(53)})")
        if i % 10 != 9:
            family.append(f"Father(c{i},p{rng.randrange(53)})")
    for _ in range(1600):
        pred = rng.choice(("Born", "Lives", "Sibling"))
        family.append(f"{pred}(c{rng.randrange(160)},t{rng.randrange(160)})")
    cross = [f"R(a{rng.randrange(17)},a{rng.randrange(17)})" for _ in range(68)]
    cross += [f"S(a{rng.randrange(17)})" for _ in range(7)]
    for facts in (family, cross):
        rng.shuffle(facts)
        yield "".join(f"{f}.\n" for f in facts)


def test_parse_instance_is_the_full_parse_on_corpus_texts():
    from test_golden_cli import CASES, _runs

    texts = [
        text
        for case in CASES
        for name, text in _runs(case)[0].items()
        if name.endswith(".facts")
    ]
    texts += list(_benchmark_shaped_texts())
    for text in texts:
        assert _outcome(lambda: parse_instance(text)) == _outcome(lambda: _full_parse(text, False))


def test_parse_instance_fails_in_linear_time():
    # each text fails only at its end, after a long stretch that the plain
    # scan must give back in one pass
    cases = [
        ("%" + "x" * 200_000 + "\n!", ParseError, "2:1: unexpected character '!'"),
        ("R(a).\n" + " \t\r\n" * 50_000 + "!", ParseError, "50002:1: unexpected character '!'"),
        (
            "R(a).\n" * 100_000 + "R(a",
            ParseError,
            "100001:4: expected ')', found 'end of input'",
        ),
        ("R(" + "a" * 200_000 + ",b#1)", ReservedNameError, f"1:200004: {RESERVED.format('b#1')}"),
    ]
    for text, error, message in cases:
        started = time.monotonic()
        with pytest.raises(error) as err:
            parse_instance(text)
        assert time.monotonic() - started < 30.0
        assert str(err.value) == message


def _best_of_three(parse) -> float:
    times = []
    for _ in range(3):
        started = time.perf_counter()
        parse()
        times.append(time.perf_counter() - started)
    return min(times)


def test_error_after_plain_facts_costs_at_most_twice_a_clean_parse():
    clean = "R(a).\n" * 100_000

    def failing():
        with pytest.raises(ParseError) as err:
            parse_instance(clean + "R(a")
        assert str(err.value) == "100001:4: expected ')', found 'end of input'"

    clean_s = _best_of_three(lambda: parse_instance(clean))
    assert _best_of_three(failing) <= 2 * clean_s


def test_rules_parse_in_linear_time():
    # each rule's arities go into one map in place; a copy of the map per
    # rule made 4,000 rules cost about 16 times 1,000
    def rules(n):
        return "".join(f"T{i}(x,f(y)) <- R{i}(x,y), S{i}(y).\n" for i in range(n))

    small, large = rules(1000), rules(4000)
    assert len(parse_rules(large)) == 4000
    assert _best_of_three(lambda: parse_rules(large)) < 8 * _best_of_three(lambda: parse_rules(small))


def test_full_parser_starts_where_the_plain_scan_stops(monkeypatch):
    starts = []
    full_parser = parser._Parser

    def recording(text, allow_reserved=False, start=0):
        starts.append(start)
        return full_parser(text, allow_reserved, start)

    monkeypatch.setattr(parser, "_Parser", recording)
    text = "R(a,b). % plain\nR(b,c).\nR(c, d).\nR(d,e)."
    assert len(parse_instance(text)) == 4
    assert starts == [text.index("\nR(c, d)")]


def test_plain_facts_skip_the_full_parser(monkeypatch):
    def no_parser(*args, **kwargs):
        raise AssertionError("full parser called")

    monkeypatch.setattr(parser, "_Parser", no_parser)
    text = (
        "% Family\r\n\r\nMother(beth,anne). Mother(ben,anne).\r\n"
        "\tFather(beth,adam).\t# fathers\n\n\nFamily().  % end"
    )
    beth, anne, ben, adam = (Constant(n) for n in ("beth", "anne", "ben", "adam"))
    assert parse_instance(text) == {
        Fact("Mother", (beth, anne)),
        Fact("Mother", (ben, anne)),
        Fact("Father", (beth, adam)),
        Fact("Family", ()),
    }
    with pytest.raises(AssertionError, match="full parser called"):
        parse_instance("R(x#0).", allow_reserved=True)
