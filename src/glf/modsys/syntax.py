"""Mixfix term syntax: a Pratt parser and a precedence-aware printer.

Declarations carry optional notations (`# ¬ %1 prec 20`). The notations of a
flat theory compile into a table of prefix rules (keyed by a leading lexeme)
and infix rules (keyed by the lexeme after a leading placeholder). The table
takes in one declaration at a time and rejects a notation that would make
some token sequence parse two ways: `AmbiguousParse` is raised where that
declaration is read, a theory's last one too, rather than at use time.

Fixed syntax, independent of any notation:

* application by juxtaposition, binding tightest, left-associative; argument
  positions accept only atoms (names, parenthesized terms, `[..]`-binders,
  and zero-argument lexemes)
* `A -> B` for non-dependent function types, right-associative, binding
  looser than any notation (precedence 2 against a minimum of 3)
* `[x, y : T] M` for abstraction and `{x : T} M` for dependent function
  types; a binder body extends as far to the right as possible
* `(M)` grouping, `type` for the sort of types

Text is lexed one token at a time: whitespace and `//` comments fall away,
a word is a name, a keyword or a word notation token, and anything else is
the longest structural or notation symbol. Theory files are read from the
same stream (`glf.modsys.files`), so `; = #` and the keywords of that format
also end a term.

The printer inverts the parser: `parse_term(flat, print_term(flat, t))` is
alpha-equivalent to `t` for well-formed closed terms.

A node's text depends only on the node, the precedence and openness to
the right it is printed at, and the notation table. So each table keeps,
per (precedence, right-openness), a `weakref.WeakKeyDictionary` from node
to text, and printing a live subterm again is a lookup: across the
readings of one sentence, and between a model's sort key and its
rendering. An entry dies with its node, which it does not keep alive. The
memo hangs off one table, which is cached on its signature and holds
neither the signature nor any node, so it makes no reference cycle, and
one table's text is never read for another's. Variables, sorts and
constants print without it.
"""

from __future__ import annotations

import re
import weakref
from typing import NamedTuple

from glf.errors import AmbiguousParse, TermSyntaxError
from glf.kernel import (
    App,
    Const,
    Declaration,
    Lam,
    Notation,
    Pi,
    Signature,
    Sort,
    Term,
    TYPE,
    Var,
    arrow,
    constants,
    free_vars,
    fresh_name,
    spine,
    substitute,
)

APP_PREC = 1000
ARROW_PREC = 2
MIN_NOTATION_PREC = ARROW_PREC + 1

# A character that continues a word: a name, a keyword or a word notation token.
_WORD_CHAR = "[A-Za-z0-9_']"
IDENT_RE = re.compile(rf"(?:[A-Za-z_]{_WORD_CHAR}*\?)?[A-Za-z_]{_WORD_CHAR}*")

KEYWORDS = frozenset({"theory", "view", "include", "end", "prec", "type"})
STRUCTURAL = {
    "->": "ARROW", "(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
    "{": "LBRACE", "}": "RBRACE", ",": "COMMA", ":": "COLON",
    ";": "SEMI", "=": "EQUALS", "#": "HASH",
}
RESERVED_TOKENS = frozenset(STRUCTURAL) | frozenset({"//", "--"})

# Whitespace and `//` comments, then perhaps a word; if no word follows,
# the longest symbol there is looked up in the notation table.
_TOKEN = re.compile(rf"(?:\s+|//[^\n]*)*({IDENT_RE.pattern})?")
_KINDS = {**STRUCTURAL, **dict.fromkeys(KEYWORDS, "KEYWORD"), "type": "TYPE"}
# A notation's words run from its `#` to the first `;` or `end`, and may
# close with `prec N`. Only a whole word is `end` or `prec`: `q'prec` is not.
_NOTATION_END = re.compile(rf";|(?<!{_WORD_CHAR})end(?!{_WORD_CHAR})")
_NOTATION_PREC = re.compile(rf"(?<!{_WORD_CHAR})prec\s+(-?\d+)\s*$")
_WORD = re.compile(r"\S+")
# Characters that, glued to others, keep a notation word from being one token.
_STRUCTURAL_CHAR = re.compile(r"[][(){}#]")
# The bracket that opens a binder group: the one that closes it, and what it binds.
_BINDER_GROUPS = {"LBRACK": ("RBRACK", Lam), "LBRACE": ("RBRACE", Pi)}


class _Token(NamedTuple):
    kind: str
    text: str
    start: int


class NotationTable:
    """Prefix/infix rules of a flat theory, with ambiguity checks, the
    signature's `names` that the printer resolves constants in, and the text
    each live node printed under this table has (`printed`). Code that adds
    a declaration to the signature adds it to the table too, by `add`."""

    def __init__(self, signature: Signature):
        self.nud: dict[str, tuple[Declaration, Notation]] = {}
        self.led: dict[str, tuple[Declaration, Notation]] = {}
        self.printed: dict[tuple[int, bool], weakref.WeakKeyDictionary[Term, str]] = {}
        self.delimiters: set[str] = set()
        self.word_lexemes: set[str] = set()
        self.symbols: set[str] = set()
        self.lengths: dict[str, list[int]] = {}  # by first character, longest first
        self._add_symbols(STRUCTURAL)
        self.kinds = dict(_KINDS)
        # The signature's map, not the signature: the table is cached on the
        # signature, so holding the signature would make a cycle.
        self.names = signature.names
        for d in signature:
            self.add(d)

    def add(self, d: Declaration) -> None:
        """Take in the notation of `d`, if it has one, unless it would let
        some token sequence parse two ways. It keeps the texts printed so
        far, so grow a table before printing under it."""
        n = d.notation
        if n is None:
            return
        places = n.placeholders
        literals = [t for t, i in zip(n.tokens, places) if i is None]
        if not literals:
            raise AmbiguousParse(f"notation for {d.qualified} has no literal token")
        for lit in literals:
            if lit in RESERVED_TOKENS or lit in KEYWORDS:
                raise AmbiguousParse(
                    f"notation for {d.qualified} uses reserved token {lit!r}"
                )
        for a, b in zip(places, places[1:]):
            if a is not None and b is not None:
                raise AmbiguousParse(
                    f"notation for {d.qualified} has adjacent placeholders"
                )
        if n.arity > 0 and n.open_ended and n.precedence < MIN_NOTATION_PREC:
            raise AmbiguousParse(
                f"notation for {d.qualified} has precedence {n.precedence}; "
                f"open-ended notations need at least {MIN_NOTATION_PREC} (above ->)"
            )
        # The key is the first lexeme, before or after a leading placeholder.
        key, inner = literals[0], set(literals[1:])
        table = self.nud if places[0] is None else self.led
        if key in table:
            other = table[key][0].qualified
            raise AmbiguousParse(
                f"notations for {other} and {d.qualified} both start with {key!r}"
            )
        table[key] = (d, n)
        self.delimiters |= inner
        lexemes = inner | {key}
        clash = {t for t in lexemes
                 if t in self.delimiters and (t in self.nud or t in self.led)}
        if clash:
            raise AmbiguousParse(
                "tokens used both as inner delimiters and as operators: "
                + ", ".join(sorted(clash))
            )
        self.kinds.update(dict.fromkeys(lexemes, "LEXEME"))
        words = {t for t in lexemes if IDENT_RE.fullmatch(t)}
        self.word_lexemes |= words
        self._add_symbols(lexemes - words)

    def _add_symbols(self, symbols) -> None:
        self.symbols.update(symbols)
        for sym in symbols:
            lengths = self.lengths.setdefault(sym[0], [])
            if len(sym) not in lengths:
                lengths.append(len(sym))
                lengths.sort(reverse=True)

    def symbol_at(self, text: str, pos: int) -> str | None:
        """The longest of the table's symbols that `text` has at `pos`."""
        for n in self.lengths.get(text[pos:pos + 1], ()):
            if text[pos:pos + n] in self.symbols:
                return text[pos:pos + n]
        return None


def notation_table(signature: Signature) -> NotationTable:
    table = getattr(signature, "_notation_table", None)
    if table is None:
        table = NotationTable(signature)
        signature._notation_table = table  # type: ignore[attr-defined]
    return table


class _Parser:
    """A Pratt parser over a stream of tokens lexed one ahead from `text`.

    Tokens are lexed against the notation table of the signature in use;
    `use` switches signatures between terms and re-lexes a lookahead not
    yet consumed, so a theory file's later declarations see the notations
    of earlier ones. Errors give line and column within the whole text.
    """

    def __init__(self, signature: Signature, text: str):
        self.text = text
        self.pos = 0  # just past the last consumed token
        self.bound: list[str] = []
        self.use(signature)

    def use(self, signature: Signature) -> None:
        self.sig = signature
        self.table = notation_table(signature)
        self.tok: _Token | None = None

    # --- token plumbing ---------------------------------------------------

    def peek(self) -> _Token:
        tok = self.tok
        if tok is None:
            m = _TOKEN.match(self.text, self.pos)
            start = m.start(1) if m[1] else m.end()
            text = m[1] or self.table.symbol_at(self.text, start)
            if text:
                tok = _Token(self.table.kinds.get(text, "IDENT"), text, start)
            elif start == len(self.text):
                tok = _Token("EOF", "", start)
            else:
                raise TermSyntaxError(
                    f"unexpected character {self.text[start]!r}", *self.where(start)
                )
            self.tok = tok
        return tok

    def advance(self) -> _Token:
        tok = self.peek()
        self.pos = tok.start + len(tok.text)
        self.tok = None
        return tok

    def accept(self, kind: str) -> bool:
        if self.peek().kind == kind:
            self.advance()
            return True
        return False

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            wanted = text if text is not None else kind.lower()
            raise self.fail(f"expected {wanted!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def where(self, offset: int) -> tuple[int, int]:
        """The line and column of `offset` in the text."""
        return self.text.count("\n", 0, offset) + 1, offset - self.text.rfind("\n", 0, offset)

    def fail(self, message: str) -> TermSyntaxError:
        return TermSyntaxError(message, *self.where(self.peek().start))

    def notation(self, context: str) -> Notation:
        """The notation after a `#`, leaving the `;` or `end` that ends it.

        A word the lexer would not read back as that one token is an error
        here, where it is written, since the notation could never be used.
        """
        assert self.tok is None, "the lookahead would have lexed the notation"
        end = _NOTATION_END.search(self.text, self.pos)
        stop = end.start() if end else len(self.text)
        prec = _NOTATION_PREC.search(self.text, self.pos, stop)
        words = list(_WORD.finditer(self.text, self.pos, prec.start() if prec else stop))
        self.pos = stop
        if not words:
            raise TermSyntaxError(f"empty notation in {context}", *self.where(stop))
        for m in words:
            word = m[0]
            if "//" in word:
                problem = ("`//` inside a notation would comment out the rest of the "
                           "line, including the `;` that ends it")
            elif word in RESERVED_TOKENS or word in KEYWORDS:
                problem = f"notation for {context} uses reserved token {word!r}"
            elif (_STRUCTURAL_CHAR.search(word)
                  or IDENT_RE.match(word) and not IDENT_RE.fullmatch(word)):
                problem = f"notation for {context}: {word!r} would not lex as one token"
            else:
                continue
            raise TermSyntaxError(problem, *self.where(m.start()))
        try:
            return Notation(tuple(m[0] for m in words), int(prec[1]) if prec else 0)
        except ValueError as e:
            raise TermSyntaxError(f"{context}: {e}", *self.where(words[0].start())) from None

    # --- grammar ------------------------------------------------------------

    def parse(self) -> Term:
        t = self.expr(0)
        if self.peek().kind != "EOF":
            raise self.fail(f"unexpected trailing input {self.peek().text!r}")
        return t

    def expr(self, rbp: int) -> Term:
        t = self.nud()
        while True:
            tok = self.peek()
            if tok.kind == "ARROW" and ARROW_PREC > rbp:
                self.advance()
                rhs = self.expr(ARROW_PREC - 1)
                t = arrow(t, rhs)
            elif self.starts_atom(tok) and APP_PREC > rbp:
                t = App(t, self.atom())
            elif tok.kind == "LEXEME" and tok.text in self.table.led \
                    and self.table.led[tok.text][1].precedence > rbp:
                t = self.led_notation(t)
            else:
                return t

    def starts_atom(self, tok: _Token) -> bool:
        if tok.kind in ("IDENT", "LPAREN", "LBRACK", "TYPE"):
            return True
        if tok.kind == "LEXEME" and tok.text in self.table.nud:
            return self.table.nud[tok.text][1].arity == 0
        return False

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "IDENT":
            return self.name_ref(self.advance())
        if tok.kind == "TYPE":
            self.advance()
            return TYPE
        if tok.kind == "LPAREN":
            self.advance()
            t = self.expr(0)
            self.expect("RPAREN")
            return t
        if tok.kind == "LBRACK":
            return self.binders()
        if tok.kind == "LEXEME" and tok.text in self.table.nud:
            d, n = self.table.nud[tok.text]
            if n.arity == 0:
                self.advance()
                return Const(self.sig.canonical(d))
        raise self.fail(f"expected a term, found {tok.text or 'end of input'!r}")

    def nud(self) -> Term:
        tok = self.peek()
        if tok.kind == "LBRACE":
            return self.binders()
        if tok.kind == "LEXEME":
            if tok.text in self.table.nud:
                return self.nud_notation()
            raise self.fail(f"{tok.text!r} cannot start a term")
        return self.atom()

    def name_ref(self, tok: _Token) -> Term:
        if "?" not in tok.text and tok.text in self.bound:
            return Var(tok.text)
        d = self.sig.lookup(tok.text)
        if d is None:
            return Const(tok.text)
        return Const(self.sig.canonical(d))

    def binders(self) -> Term:
        """`[x, y : T] M`, λs whose binder types are optional, or
        `{x : T, y : U} M`, Πs whose binder types are required."""
        close, make = _BINDER_GROUPS[self.advance().kind]
        binders: list[tuple[str, Term | None]] = []
        while True:
            name = self.expect("IDENT").text
            annotation = None
            if make is Pi or self.peek().kind == "COLON":
                self.expect("COLON")
                annotation = self.expr(0)
            binders.append((name, annotation))
            self.bound.append(name)
            if not self.accept("COMMA"):
                break
        self.expect(close)
        body = self.expr(0)
        del self.bound[len(self.bound) - len(binders):]
        for name, annotation in reversed(binders):
            body = make(name, annotation, body)
        return body

    def nud_notation(self) -> Term:
        key = self.advance()
        d, n = self.table.nud[key.text]
        slots = self.slots(n, n.tokens[1:], {})
        return self.saturate(d, n, slots)

    def led_notation(self, left: Term) -> Term:
        d, n = self.table.led[self.peek().text]
        left_index = Notation.placeholder_index(n.tokens[0])
        assert left_index is not None
        self.advance()
        slots = self.slots(n, n.tokens[2:], {left_index: left})
        return self.saturate(d, n, slots)

    def slots(
        self, n: Notation, rest: tuple[str, ...], filled: dict[int, Term]
    ) -> dict[int, Term]:
        for i, tok in enumerate(rest):
            index = Notation.placeholder_index(tok)
            if index is None:
                self.expect("LEXEME", tok)
            else:
                trailing = i == len(rest) - 1
                filled[index] = self.expr(n.precedence if trailing else 0)
        return filled

    def saturate(self, d: Declaration, n: Notation, slots: dict[int, Term]) -> Term:
        t: Term = Const(self.sig.canonical(d))
        for index in range(1, n.arity + 1):
            t = App(t, slots[index])
        return t


def parse_term(signature: Signature, text: str) -> Term:
    """Parse a term against the constants and notations of `signature`."""
    return _Parser(signature, text).parse()


# --- printing ----------------------------------------------------------------

def _binder_ok(name: str, table: NotationTable) -> bool:
    return (
        IDENT_RE.fullmatch(name) is not None
        and "?" not in name
        and name not in KEYWORDS
        and name not in table.word_lexemes
    )


class _Printer:
    def __init__(self, table: NotationTable):
        self.table = table
        self.names = table.names
        self.printed = table.printed

    def render(self, t: Term, prec: int, right_open: bool) -> str:
        cls = t.__class__
        if cls is Var or cls is Sort:
            return t.name
        if cls is Const:
            return self.const(t)
        if cls is not App and cls is not Lam and cls is not Pi:
            raise TypeError(f"not a term: {t!r}")
        memo = self.printed.get((prec, right_open))
        if memo is None:
            memo = self.printed[prec, right_open] = weakref.WeakKeyDictionary()
        text = memo.get(t)
        if text is None:
            if cls is App:
                text = self.application(t, prec, right_open)
            elif cls is Lam:
                text = self.lam(t, right_open)
            else:
                text = self.pi(t, prec, right_open)
            memo[t] = text
        return text

    def const(self, t: Const) -> str:
        d = self.names.get(t.name)
        if d is not None and d.notation is not None and d.notation.arity == 0:
            return " ".join(d.notation.tokens)
        return t.name

    def application(self, t: App, prec: int, right_open: bool) -> str:
        head, args = spine(t)
        if isinstance(head, Const):
            d = self.names.get(head.name)
            if d is not None and d.notation is not None and 0 < d.notation.arity <= len(args):
                n = d.notation
                rest = args[n.arity:]
                if not rest:
                    return self.notation(n, args, prec, right_open)
                inner = self.notation(n, args[: n.arity], APP_PREC, False)
                return self.juxtapose(inner, rest, prec, right_open)
        return self.juxtapose(self.render(head, APP_PREC, False), args, prec, right_open)

    def notation(self, n: Notation, args: list[Term], prec: int, right_open: bool) -> str:
        parts: list[str] = []
        last = len(n.tokens) - 1
        for i, (tok, index) in enumerate(zip(n.tokens, n.placeholders)):
            if index is None:
                parts.append(tok)
            elif i == 0:
                parts.append(self.render(args[index - 1], n.precedence, False))
            elif i == last:
                parts.append(self.render(args[index - 1], n.precedence + 1, right_open))
            else:
                parts.append(self.render(args[index - 1], 0, True))
        text = " ".join(parts)
        if n.open_ended and n.precedence < prec:
            return f"({text})"
        return text

    def juxtapose(self, fn: str, args: list[Term], prec: int, right_open: bool) -> str:
        if not args:
            return fn
        parts = [fn]
        for i, arg in enumerate(args):
            ro = right_open and i == len(args) - 1
            parts.append(self.render(arg, APP_PREC + 1, ro))
        text = " ".join(parts)
        if APP_PREC < prec:
            return f"({text})"
        return text

    def lam(self, t: Lam, right_open: bool) -> str:
        groups: list[str] = []
        while isinstance(t, Lam):
            t = self.fix_binder(t)
            if t.binder_type is None:
                groups.append(t.binder)
            else:
                groups.append(f"{t.binder} : {self.render(t.binder_type, 0, True)}")
            t = t.body
        text = f"[{', '.join(groups)}] {self.render(t, 0, True)}"
        if not right_open:
            return f"({text})"
        return text

    def pi(self, t: Pi, prec: int, right_open: bool) -> str:
        if t.binder not in free_vars(t.codomain):
            left = self.render(t.domain, ARROW_PREC + 1, False)
            right = self.render(t.codomain, ARROW_PREC, right_open)
            text = f"{left} -> {right}"
            if ARROW_PREC < prec:
                return f"({text})"
            return text
        groups: list[str] = []
        while isinstance(t, Pi) and t.binder in free_vars(t.codomain):
            t = self.fix_binder(t)
            groups.append(f"{t.binder} : {self.render(t.domain, 0, True)}")
            t = t.codomain
        text = f"{{{', '.join(groups)}}} {self.render(t, 0, True)}"
        if not right_open:
            return f"({text})"
        return text

    def fix_binder(self, t: Lam | Pi) -> Lam | Pi:
        if _binder_ok(t.binder, self.table):
            return t
        body = t.body if isinstance(t, Lam) else t.codomain
        fresh = fresh_name("x", free_vars(body) | constants(body))
        renamed = substitute(body, t.binder, Var(fresh))
        if isinstance(t, Lam):
            return Lam(fresh, t.binder_type, renamed)
        return Pi(fresh, t.domain, renamed)


def print_term(signature: Signature, t: Term) -> str:
    """Render a term so that parsing the result gives back an alpha-equal term."""
    return _Printer(notation_table(signature)).render(t, 0, True)
