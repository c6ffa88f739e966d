"""Text formats for rules, instances, and extended instances.

Grammar (shared by ``.rules``, ``.facts`` and ``.xfacts`` files):

* identifiers match ``[a-zA-Z_][a-zA-Z0-9_]*``; whitespace is insignificant;
  ``%`` and ``#`` start line comments;
* a rule is ``Head <- Atom, Atom, ... .`` with exactly one head atom;
* a fact file is a sequence of ``R(a,b,c).`` entries; duplicates collapse;
* an extended-fact file additionally allows one level of function terms,
  ``T(a,f(b,c)).``.

Bare identifiers are variables in rule files and constants in fact files.
Generated instances may contain reserved constant forms (``frz:x``, ``@1``,
``x#0``); these are rejected in user input unless ``allow_reserved`` is set.
A ``#`` immediately following an identifier character binds to the identifier
(reserved colored form) rather than starting a comment.

``parse_instance`` reads a text in one pass. It first scans the plain facts
that open it, ``R(a,b).`` with no whitespace inside, between whitespace and
comments, with one compiled pattern per fact. Where the scan stops short of
the end (a reserved form, whitespace or a comment inside a fact, a syntax
error), the full parser continues from that offset, so every error and its
position comes from there. One compiled pattern lexes every text for the full
parser; line and column are worked out from the offset only for an error.
The same pass records each predicate's arity. A caller that reads only some
relations names them, and the pass builds facts of those alone; it still
checks every fact, so the text's errors are the same either way.
"""

from __future__ import annotations

import re

from .errors import ArityClashError, ParseError, ReservedNameError, RuleValidationError
from .model import (
    Atom,
    Constant,
    ExtendedFact,
    Fact,
    FuncTerm,
    RawRule,
    SkolemQuery,
    Variable,
    instance_lines,
    predicate_arities,
    record_arity,
    validate_rule,
)

RULE_EXTENSION = ".rules"
FACT_EXTENSION = ".facts"
XFACT_EXTENSION = ".xfacts"

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# Whitespace and comments, for the plain-fact scan and the token pattern alike.
# A comment runs to the end of its line, so a text has one way to match them.
_SPACE = r"[ \t\r\n]"
_COMMENT = r"[%#][^\n]*(?![^\n])"
_TOKEN_RE = re.compile(
    rf"""(?P<frozen>frz:{_IDENT})
      | (?P<colored>{_IDENT}\#[0-9]+)
      | (?P<ident>{_IDENT})
      | (?P<chased>@[0-9]+)
      | (?P<arrow><-)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<comma>,)
      | (?P<dot>\.)
      | (?P<space>{_SPACE}+)
      | (?P<comment>{_COMMENT})
      | (?P<other>.)
    """,
    re.X | re.S,
)


def _position(text: str, offset: int) -> tuple[int, int]:
    """Line and column of ``offset``, both from 1; a tab or a '\\r' is one column."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str, start: int) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` of every token from ``start`` on, then ``eof``.

    The whole rest is read before parsing begins, so an unexpected character
    is reported ahead of any syntax error before it. End of input inside a
    trailing comment is placed where the comment starts.
    """
    tokens = []
    eof = end = len(text)
    for m in _TOKEN_RE.finditer(text, start):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "comment":
            if m.end() == end:
                eof = m.start()
            continue
        if kind == "other":
            raise ParseError(f"unexpected character {m.group()!r}", *_position(text, m.start()))
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", eof))
    return tokens


_CONST_KINDS = {"ident", "frozen", "colored", "chased"}

# The plain-fact scan. A failure costs one backtracking pass. A name is always
# followed by ',' or ')', so a colored name such as 'a#1' never matches, and
# '#' never starts a comment right after a name, where the token pattern would
# read a colored form.
_SKIP = rf"(?:{_SPACE}|{_COMMENT})*"
_PLAIN_FACT_RE = re.compile(rf"{_SKIP}({_IDENT})\(((?:{_IDENT}(?:,{_IDENT})*)?)\)\.")
_SKIP_RE = re.compile(_SKIP)


class _Parser:
    def __init__(self, text: str, allow_reserved: bool = False, start: int = 0):
        self.text = text
        self.tokens = _tokenize(text, start)
        self.pos = 0
        self.allow_reserved = allow_reserved

    def kind(self) -> str:
        return self.tokens[self.pos][0]

    def where(self) -> tuple[int, int]:
        """Line and column of the current token."""
        return _position(self.text, self.tokens[self.pos][2])

    def _fail(self, expected: str) -> ParseError:
        found = self.tokens[self.pos][1] or "end of input"
        return ParseError(f"expected {expected}, found {found!r}", *self.where())

    def expect(self, kind: str, expected: str) -> str:
        tok_kind, text, _ = self.tokens[self.pos]
        if tok_kind != kind:
            raise self._fail(expected)
        self.pos += 1
        return text

    def accept(self, kind: str) -> bool:
        if self.tokens[self.pos][0] == kind:
            self.pos += 1
            return True
        return False

    def args(self, item) -> tuple:
        """Comma-separated ``item()`` results up to and including ')'."""
        out = []
        if self.kind() != "rparen":
            out.append(item())
            while self.accept("comma"):
                out.append(item())
        self.expect("rparen", "')'")
        return tuple(out)

    def constant_token(self) -> tuple[str, str]:
        """Kind and text of the current token, which must be a constant."""
        kind, text, _ = self.tokens[self.pos]
        if kind not in _CONST_KINDS:
            raise self._fail("a constant")
        if kind != "ident" and not self.allow_reserved:
            raise ReservedNameError(
                f"reserved constant form {text!r} not allowed in input", *self.where()
            )
        self.pos += 1
        return kind, text

    # -- rule files ---------------------------------------------------------

    def rule_term(self):
        """A head argument: variable or (possibly nested) function term. The
        open terms wait on a stack, so any depth parses and validation
        rejects the nesting as an input error."""
        open_terms: list[tuple[str, list]] = []
        while True:
            name = self.expect("ident", "a variable or function term")
            if not self.accept("lparen"):
                term = Variable(name)
            elif self.accept("rparen"):
                term = FuncTerm(name, ())
            else:
                open_terms.append((name, []))
                continue
            while open_terms:  # ``args`` of each open term, from the inside out
                symbol, args = open_terms[-1]
                args.append(term)
                if self.accept("comma"):
                    break
                self.expect("rparen", "')'")
                open_terms.pop()
                term = FuncTerm(symbol, tuple(args))
            else:
                return term

    def variable(self) -> Variable:
        return Variable(self.expect("ident", "a variable"))

    def body_atom(self) -> Atom:
        pred = self.expect("ident", "a body atom")
        self.expect("lparen", "'('")
        return Atom(pred, self.args(self.variable))

    def rule(self) -> RawRule:
        head_pred = self.expect("ident", "a head atom")
        self.expect("lparen", "'('")
        head_args = self.args(self.rule_term)
        self.expect("arrow", "'<-'")
        body = [self.body_atom()]
        while self.accept("comma"):
            body.append(self.body_atom())
        self.expect("dot", "'.'")
        return RawRule(head_pred, head_args, tuple(body))

    def rules(self) -> list[SkolemQuery]:
        out: list[SkolemQuery] = []
        arities: dict[str, int] = {}
        func_arities: dict[str, int] = {}
        while self.kind() != "eof":
            start = self.tokens[self.pos][2]
            raw = self.rule()
            try:
                q = validate_rule(raw)
                # in place, as a copy per rule is quadratic; the rule's arities
                # agree, so name order names a clash as canonical atom order would
                body = sorted({a.predicate: a.arity for a in q.body}.items())
                for pred, ar in (*body, (q.head_predicate, q.head_arity)):
                    record_arity(arities, "predicate", pred, ar)
                record_arity(func_arities, "function", q.func_symbol, q.func_arity)
            except (RuleValidationError, ArityClashError) as err:
                raise err.at(*_position(self.text, start)) from None
            out.append(q)
        return out

    # -- fact files ---------------------------------------------------------

    def fact_parts(self, extended: bool) -> tuple[str, tuple]:
        """Predicate and arguments of the next fact."""
        pred = self.expect("ident", "a fact")
        self.expect("lparen", "'('")
        args = self.args(lambda: self.fact_term(extended))
        self.expect("dot", "'.'")
        return pred, args

    def fact_term(self, extended: bool):
        kind, name = self.constant_token()
        if extended and kind == "ident" and self.accept("lparen"):
            return FuncTerm(name, self.args(self.inner_constant))
        return Constant(name)

    def inner_constant(self) -> Constant:
        _, name = self.constant_token()
        if self.kind() == "lparen":
            raise ParseError("nested function terms are not allowed", *self.where())
        return Constant(name)

    def facts(self, extended: bool) -> list:
        cls = ExtendedFact if extended else Fact
        out = []
        while self.kind() != "eof":
            out.append(cls(*self.fact_parts(extended)))
        return out


def parse_rules(text: str) -> list[SkolemQuery]:
    """Parse and validate every rule in a ``.rules`` document."""
    return _Parser(text).rules()


def parse_rule(text: str) -> SkolemQuery:
    """Parse a document expected to hold exactly one rule."""
    rules = parse_rules(text)
    if len(rules) != 1:
        raise ParseError(f"expected exactly one rule, found {len(rules)}", 1, 1)
    return rules[0]


def parse_instance(text: str, allow_reserved: bool = False) -> frozenset:
    """Parse a ``.facts`` document into an instance (set semantics)."""
    return parse_instance_arities(text, allow_reserved)[0]


def parse_instance_arities(
    text: str, allow_reserved: bool = False, keep: set[str] | None = None
):
    """``parse_instance`` and the arity map it checks the instance with.

    Every fact is read and checked, but the instance holds only the facts
    whose predicate is in ``keep``, or every fact when ``keep`` is None. The
    arity map names every predicate. An arity clash is raised after the whole
    text is read, so that any syntax error wins over it, and names the first
    clashing use in text order.
    """
    facts: list[Fact] = []
    arities: dict[str, int] = {}
    clash = None
    pos = 0
    match = _PLAIN_FACT_RE.match  # read once: the loop runs once per fact
    while (m := match(text, pos)) is not None:
        pos = m.end()
        pred, args = m.groups()
        names = args.split(",") if args else ()
        arity = len(names)
        if arities.setdefault(pred, arity) != arity:
            clash = clash or (pred, arity)
        if keep is None or pred in keep:
            facts.append(Fact(pred, tuple([Constant(name) for name in names])))
    if not _SKIP_RE.fullmatch(text, pos):
        rest = _Parser(text, allow_reserved, pos)
        while rest.kind() != "eof":
            pred, args = rest.fact_parts(extended=False)
            arity = len(args)
            if arities.setdefault(pred, arity) != arity:
                clash = clash or (pred, arity)
            if keep is None or pred in keep:
                facts.append(Fact(pred, args))
    if clash is not None:
        record_arity(arities, "predicate", *clash)  # raises
    return frozenset(facts), arities


def parse_extended_instance(text: str, allow_reserved: bool = False) -> frozenset:
    """Parse a ``.xfacts`` document into an extended instance."""
    facts = _Parser(text, allow_reserved).facts(extended=True)
    predicate_arities(facts)
    _function_arities(facts)
    return frozenset(facts)


def _function_arities(facts) -> dict[str, int]:
    arities: dict[str, int] = {}
    for f in facts:
        for arg in f.args:
            if isinstance(arg, FuncTerm):
                record_arity(arities, "function", arg.symbol, arg.arity)
    return arities


def serialize_instance(instance) -> str:
    """Deterministic ``.facts`` or ``.xfacts`` text: one fact per line, sorted."""
    return "".join([line + "\n" for line in instance_lines(instance)])


serialize_extended_instance = serialize_instance
