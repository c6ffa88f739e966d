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

``parse_instance`` first scans the text with one compiled pattern per fact.
The scan takes a text only if it holds nothing but plain facts, ``R(a,b).``
with no whitespace inside, between whitespace and comments. Any other text (a
reserved form, whitespace or a comment inside a fact, a syntax error) goes
whole to the full parser, so every error and its position comes from there.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
    merge_arities,
    predicate_arities,
    sort_facts,
    validate_rule,
)

RULE_EXTENSION = ".rules"
FACT_EXTENSION = ".facts"
XFACT_EXTENSION = ".xfacts"

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
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
    """,
    re.X,
)


@dataclass(frozen=True)
class Token:
    kind: str  # ident | frozen | colored | chased | arrow | lparen | rparen | comma | dot | eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%" or ch == "#":
            # comment to end of line ('#' after an identifier is consumed as a
            # colored constant by the token regex below, never reached here)
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        kind = m.lastgroup
        tokens.append(Token(kind, m.group(0), line, col))
        consumed = m.end() - i
        i = m.end()
        col += consumed
    tokens.append(Token("eof", "", line, col))
    return tokens


_CONST_KINDS = {"ident", "frozen", "colored", "chased"}

# The plain-fact scan. Whitespace is taken one character at a time and a
# comment only up to the end of its line, so a text has one way to match and a
# failure costs one backtracking pass. A name is always followed by ',' or ')',
# so a colored name such as 'a#1' never matches, and '#' never starts a
# comment right after a name, where the tokenizer would read a colored form.
_SKIP = r"(?:[ \t\r\n]|[%#][^\n]*(?![^\n]))*"
_PLAIN_FACT_RE = re.compile(rf"{_SKIP}({_IDENT})\(((?:{_IDENT}(?:,{_IDENT})*)?)\)\.")
_SKIP_RE = re.compile(_SKIP)


def _scan_plain_facts(text: str) -> list[Fact] | None:
    """The facts of ``text`` if it holds only plain facts, else ``None``."""
    facts: list[Fact] = []
    pos = 0
    while (m := _PLAIN_FACT_RE.match(text, pos)) is not None:
        pred, args = m.groups()
        names = args.split(",") if args else ()
        facts.append(Fact(pred, tuple([Constant(name) for name in names])))
        pos = m.end()
    return facts if _SKIP_RE.fullmatch(text, pos) else None


class _Parser:
    def __init__(self, text: str, allow_reserved: bool = False):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.allow_reserved = allow_reserved

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def _fail(self, expected: str) -> ParseError:
        tok = self.current
        found = tok.text or "end of input"
        return ParseError(f"expected {expected}, found {found!r}", tok.line, tok.col)

    def expect(self, kind: str, expected: str) -> Token:
        tok = self.current
        if tok.kind != kind:
            raise self._fail(expected)
        self.pos += 1
        return tok

    def accept(self, kind: str) -> Token | None:
        if self.current.kind == kind:
            tok = self.current
            self.pos += 1
            return tok
        return None

    def constant_token(self) -> Token:
        tok = self.current
        if tok.kind not in _CONST_KINDS:
            raise self._fail("a constant")
        if tok.kind != "ident" and not self.allow_reserved:
            raise ReservedNameError(
                f"{tok.line}:{tok.col}: reserved constant form {tok.text!r} not allowed in input"
            )
        self.pos += 1
        return tok

    # -- rule files ---------------------------------------------------------

    def rule_term(self):
        """A head argument: variable or (possibly nested) function term."""
        tok = self.expect("ident", "a variable or function term")
        if self.accept("lparen"):
            args = []
            if self.current.kind != "rparen":
                args.append(self.rule_term())
                while self.accept("comma"):
                    args.append(self.rule_term())
            self.expect("rparen", "')'")
            return FuncTerm(tok.text, tuple(args))
        return Variable(tok.text)

    def body_atom(self) -> Atom:
        tok = self.expect("ident", "a body atom")
        self.expect("lparen", "'('")
        args = []
        if self.current.kind != "rparen":
            args.append(self.expect("ident", "a variable"))
            while self.accept("comma"):
                args.append(self.expect("ident", "a variable"))
        self.expect("rparen", "')'")
        return Atom(tok.text, tuple(Variable(t.text) for t in args))

    def rule(self) -> tuple[RawRule, Token]:
        start = self.current
        head_pred = self.expect("ident", "a head atom")
        self.expect("lparen", "'('")
        head_args = []
        if self.current.kind != "rparen":
            head_args.append(self.rule_term())
            while self.accept("comma"):
                head_args.append(self.rule_term())
        self.expect("rparen", "')'")
        self.expect("arrow", "'<-'")
        body = [self.body_atom()]
        while self.accept("comma"):
            body.append(self.body_atom())
        self.expect("dot", "'.'")
        return RawRule(head_pred.text, tuple(head_args), tuple(body)), start

    def rules(self) -> list[SkolemQuery]:
        out: list[SkolemQuery] = []
        arities: dict[str, int] = {}
        func_arities: dict[str, int] = {}
        while self.current.kind != "eof":
            raw, start = self.rule()
            try:
                q = validate_rule(raw)
                arities = merge_arities(
                    arities, predicate_arities(q.body), {q.head_predicate: q.head_arity}
                )
                if func_arities.setdefault(q.func_symbol, q.func_arity) != q.func_arity:
                    raise ArityClashError(
                        f"function {q.func_symbol} used with arity "
                        f"{func_arities[q.func_symbol]} and {q.func_arity}"
                    )
            except RuleValidationError as err:
                raise err.at(start.line, start.col) from None
            except ArityClashError as err:
                raise ArityClashError(f"{start.line}:{start.col}: {err}") from None
            out.append(q)
        return out

    # -- fact files ---------------------------------------------------------

    def fact(self, extended: bool):
        pred = self.current
        if pred.kind != "ident":
            raise self._fail("a fact")
        self.pos += 1
        self.expect("lparen", "'('")
        args = []
        if self.current.kind != "rparen":
            args.append(self.fact_term(extended))
            while self.accept("comma"):
                args.append(self.fact_term(extended))
        self.expect("rparen", "')'")
        self.expect("dot", "'.'")
        if extended:
            return ExtendedFact(pred.text, tuple(args))
        return Fact(pred.text, tuple(args))

    def fact_term(self, extended: bool):
        tok = self.constant_token()
        if extended and tok.kind == "ident" and self.current.kind == "lparen":
            self.pos += 1
            args = []
            if self.current.kind != "rparen":
                args.append(self.inner_constant())
                while self.accept("comma"):
                    args.append(self.inner_constant())
            self.expect("rparen", "')'")
            return FuncTerm(tok.text, tuple(args))
        return Constant(tok.text)

    def inner_constant(self) -> Constant:
        tok = self.constant_token()
        if self.current.kind == "lparen":
            raise ParseError(
                "nested function terms are not allowed", self.current.line, self.current.col
            )
        return Constant(tok.text)

    def facts(self, extended: bool) -> list:
        out = []
        while self.current.kind != "eof":
            out.append(self.fact(extended))
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
    return _parse_instance_arities(text, allow_reserved)[0]


def _parse_instance_arities(text: str, allow_reserved: bool = False):
    """``parse_instance`` and the arity map it checks the instance with."""
    facts = _scan_plain_facts(text)
    if facts is None:
        facts = _Parser(text, allow_reserved).facts(extended=False)
    facts = frozenset(facts)
    return facts, predicate_arities(facts)


def parse_extended_instance(text: str, allow_reserved: bool = False) -> frozenset:
    """Parse a ``.xfacts`` document into an extended instance."""
    facts = frozenset(_Parser(text, allow_reserved).facts(extended=True))
    predicate_arities(facts)
    _function_arities(facts)
    return facts


def _function_arities(facts) -> dict[str, int]:
    arities: dict[str, int] = {}
    for f in facts:
        for arg in f.args:
            if isinstance(arg, FuncTerm):
                if arities.setdefault(arg.symbol, arg.arity) != arg.arity:
                    raise ArityClashError(
                        f"function {arg.symbol} used with arity "
                        f"{arities[arg.symbol]} and {arg.arity}"
                    )
    return arities


def serialize_instance(instance) -> str:
    """Deterministic ``.facts`` or ``.xfacts`` text: one fact per line, sorted."""
    return "".join(f.render() + ".\n" for f in sort_facts(instance))


serialize_extended_instance = serialize_instance
