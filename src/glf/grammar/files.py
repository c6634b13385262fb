"""The grammar file format.

A file holds `abstract` and `concrete` blocks:

    -- comments run to end of line
    abstract Core = {
      flags startcat = S ;
      cat S ; NP ;
      fun act : NP -> S ;
    }

    abstract Lex = Core ** {          -- extension: Core's cats and funs carry over
      fun john : NP ;
    }

    concrete LexEng of Lex = {
      param Number = Sg | Pl ;
      lincat S = { s : Str } ;
             NP = { s : Str ; n : Number } ;
      lin act np = { s = np.s } ;
          john = { s = "John" ; n = Sg } ;
    }

Section keywords (`cat`, `fun`, `param`, `lincat`, `lin`, `flags`) stay in
force across `;` until the next keyword, as the layout above shows.

A file is lexed once into tokens: `"..."` strings, which end on the line
they start on, names, the operators `++ => -> **`, and single characters.
Whitespace and `--` comments fall away. Everything else works on token
lists: blocks end at their matching `}`, statements split at `;` outside
brackets, and a rule splits at its first `=` outside brackets.
"""

from __future__ import annotations

import re

from glf.errors import GrammarError, TermSyntaxError
from glf.grammar.abstract import AbstractGrammar, FunDecl
from glf.grammar.concrete import (
    ArgField,
    Concat,
    ConcreteGrammar,
    Ctor,
    LinRule,
    LinType,
    Literal,
    ParamType,
    Record,
    Select,
    Table,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")
_TOKEN_RE = re.compile(
    r"""(\s+|--[^\n]*)|([A-Za-z_][A-Za-z0-9_']*)|("[^"]*"?|\+\+|=>|->|\*\*|\S)"""
)

ABSTRACT_SECTIONS = ("flags", "cat", "fun")
CONCRETE_SECTIONS = ("flags", "param", "lincat", "lin")


class GrammarRegistry:
    """Named abstract and concrete grammars, one shared namespace."""

    def __init__(self) -> None:
        self.abstracts: dict[str, AbstractGrammar] = {}
        self.concretes: dict[str, ConcreteGrammar] = {}

    def add(self, grammar: AbstractGrammar | ConcreteGrammar) -> None:
        if grammar.name in self.abstracts or grammar.name in self.concretes:
            raise GrammarError(f"grammar name {grammar.name} is already taken")
        if isinstance(grammar, AbstractGrammar):
            self.abstracts[grammar.name] = grammar
        else:
            self.concretes[grammar.name] = grammar

    def abstract(self, name: str) -> AbstractGrammar:
        if name not in self.abstracts:
            raise GrammarError(f"no abstract grammar named {name}")
        return self.abstracts[name]

    def concrete(self, name: str) -> ConcreteGrammar:
        if name not in self.concretes:
            raise GrammarError(f"no concrete grammar named {name}")
        return self.concretes[name]

    def concretes_of(self, abstract_name: str) -> list[ConcreteGrammar]:
        return [c for c in self.concretes.values() if c.abstract == abstract_name]


# --- tokens -------------------------------------------------------------------


class _Glued(str):
    """A token other than a name written right after the previous token.

    Only a lin rule's left-hand side cares: there `f:x` is one malformed
    word, while `f : x` is the function `f` with malformed arguments.
    """


def _lex(text: str) -> tuple[list[str], TermSyntaxError]:
    """The tokens of `text`, and the error for a block still open at the end.

    A `"` without a partner swallows the rest of the file, so the blocks
    before it are read, and their errors reported, first. A string that
    spans lines is one token, which the lin rule holding it rejects.
    """
    tokens: list[str] = []
    glued = False
    for space, name, other in _TOKEN_RE.findall(text):
        if space:
            glued = False
            continue
        tokens.append(name or (_Glued(other) if glued else other))
        glued = True
    last = tokens[-1] if tokens else ""
    if last[:1] == '"' and (len(last) == 1 or last[-1] != '"'):
        line = text.count("\n", 0, text.rindex('"')) + 1
        return tokens, TermSyntaxError("unterminated string in grammar file", line)
    return tokens, TermSyntaxError("unbalanced braces in grammar block")


def _show(tokens: list[str]) -> str:
    return repr(" ".join(tokens))


def _split(tokens: list[str], sep: str) -> list[list[str]]:
    """Split on `sep` outside braces and parens."""
    parts: list[list[str]] = []
    depth = 0
    start = 0
    for i, tok in enumerate(tokens):
        if tok in ("{", "("):
            depth += 1
        elif tok in ("}", ")"):
            depth -= 1
            if depth < 0:
                raise TermSyntaxError(f"unbalanced {tok!r} in grammar block")
        elif tok == sep and depth == 0:
            parts.append(tokens[start:i])
            start = i + 1
    parts.append(tokens[start:])
    return parts


def _cut(tokens: list[str], sep: str, where: str) -> tuple[list[str], list[str]]:
    """Split at the first `sep` outside braces and parens."""
    head = _split(tokens, sep)[0]
    if len(head) == len(tokens):
        raise TermSyntaxError(f"{where}: expected {sep!r} in {_show(tokens)}")
    return head, tokens[len(head) + 1 :]


def _statements(body: list[str], sections: tuple[str, ...], where: str):
    """Yield (section, tokens) pairs, carrying the section keyword forward."""
    current: str | None = None
    for stmt in _split(body, ";"):
        if stmt and stmt[0] in sections:
            current, stmt = stmt[0], stmt[1:]
        if not stmt:
            continue
        if current is None:
            raise TermSyntaxError(
                f"{where}: expected one of {', '.join(sections)} before {_show(stmt)}"
            )
        yield current, stmt


def _name(tokens: list[str], where: str) -> str:
    if len(tokens) != 1 or not _NAME_RE.match(tokens[0]):
        raise TermSyntaxError(f"{where}: {_show(tokens)} is not a valid name")
    return tokens[0]


def _names(tokens: list[str], sep: str, where: str) -> list[str]:
    return [_name(part, where) for part in _split(tokens, sep)]


# --- abstract blocks ----------------------------------------------------------


def _parse_abstract(name: str, base: AbstractGrammar | None, body: list[str]) -> AbstractGrammar:
    where = f"abstract {name}"
    cats: list[str] = []
    funs: list[FunDecl] = []
    startcat: str | None = None
    for section, stmt in _statements(body, ABSTRACT_SECTIONS, where):
        if section == "flags":
            key, value = _cut(stmt, "=", where)
            if key != ["startcat"]:
                raise TermSyntaxError(f"{where}: unknown flag {_show(key)}")
            startcat = _name(value, where)
        elif section == "cat":
            cats.extend(_names(stmt, ",", where))
        else:
            lhs, rhs = _cut(stmt, ":", where)
            arrow_chain = _names(rhs, "->", where)
            for fname in _names(lhs, ",", where):
                funs.append(FunDecl(fname, tuple(arrow_chain[:-1]), arrow_chain[-1]))

    if base is None:
        if startcat is None:
            raise TermSyntaxError(f"{where}: flags startcat is required")
        return AbstractGrammar(name, startcat, tuple(cats), tuple(funs))
    return AbstractGrammar(
        name,
        startcat or base.startcat,
        base.cats + tuple(cats),
        base.funs + tuple(funs),
        extends=base.name,
        own_cats=tuple(cats),
        own_funs=tuple(funs),
    )


# --- concrete blocks ----------------------------------------------------------


def _parse_lintype(tokens: list[str], where: str) -> LinType:
    if tokens[:1] != ["{"] or tokens[-1:] != ["}"]:
        raise TermSyntaxError(f"{where}: a lincat is a record type {{ ... }}")
    inherent: list[tuple[str, str]] = []
    s_params: tuple[str, ...] | None = None
    for field in _split(tokens[1:-1], ";"):
        if not field:
            continue
        fname, ftype = _cut(field, ":", where)
        fname = _name(fname, where)
        chain = _names(ftype, "=>", where)
        if fname == "s":
            if chain[-1] != "Str":
                raise TermSyntaxError(f"{where}: the s field must end in Str")
            s_params = tuple(chain[:-1])
        else:
            if len(chain) != 1 or chain[0] == "Str":
                raise TermSyntaxError(
                    f"{where}: field {fname} must hold a single parameter value"
                )
            inherent.append((fname, chain[0]))
    if s_params is None:
        raise TermSyntaxError(f"{where}: a lincat needs an s field")
    return LinType(tuple(inherent), s_params)


class _LinParser:
    """`++` binds loosest, `!` tighter, projection `.` is part of an atom."""

    def __init__(self, tokens: list[str], where: str):
        self.tokens = tokens
        self.pos = 0
        self.where = where

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise TermSyntaxError(f"{self.where}: unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise TermSyntaxError(f"{self.where}: expected {tok!r}, found {got!r}")

    def expr(self):
        e = self.select()
        while self.peek() == "++":
            self.next()
            e = Concat(e, self.select())
        return e

    def select(self):
        e = self.atom()
        while self.peek() == "!":
            self.next()
            e = Select(e, self.atom())
        return e

    def atom(self):
        tok = self.next()
        if tok.startswith('"'):
            if "\n" in tok:
                raise TermSyntaxError(f"{self.where}: a string must end on its line")
            return Literal(tok[1:-1])
        if tok == "(":
            e = self.expr()
            self.expect(")")
            return e
        if tok == "table":
            self.expect("{")
            return Table(self.entries("=>"))
        if tok == "{":
            return Record(self.entries("="))
        if _NAME_RE.match(tok):
            if self.peek() == ".":
                self.next()
                return ArgField(tok, self.ident())
            return Ctor(tok)
        raise TermSyntaxError(f"{self.where}: unexpected {tok!r}")

    def entries(self, sep: str) -> tuple[tuple[str, object], ...]:
        """`name sep expr` entries, `;`-separated with an optional trailing
        `;`, up to and including the closing `}`."""
        out = []
        while True:
            name = self.ident()
            self.expect(sep)
            out.append((name, self.expr()))
            if self.peek() != ";":
                break
            self.next()
            if self.peek() == "}":
                break
        self.expect("}")
        return tuple(out)

    def ident(self) -> str:
        tok = self.next()
        if not _NAME_RE.match(tok) or tok == "table":
            raise TermSyntaxError(f"{self.where}: expected a name, found {tok!r}")
        return tok

    def done(self) -> None:
        if self.pos != len(self.tokens):
            raise TermSyntaxError(
                f"{self.where}: trailing input from {self.tokens[self.pos]!r}"
            )


def _parse_lin_expr(tokens: list[str], where: str):
    parser = _LinParser(tokens, where)
    e = parser.expr()
    parser.done()
    return e


def _parse_concrete(name: str, abstract: AbstractGrammar, body: list[str]) -> ConcreteGrammar:
    where = f"concrete {name}"
    params: list[ParamType] = []
    lincats: list[tuple[str, LinType]] = []
    lins: list[LinRule] = []
    for section, stmt in _statements(body, CONCRETE_SECTIONS, where):
        if section == "flags":
            raise TermSyntaxError(f"{where}: concrete blocks take no flags")
        elif section == "param":
            lhs, rhs = _cut(stmt, "=", where)
            pname = _name(lhs, where)
            params.append(ParamType(pname, tuple(_names(rhs, "|", where))))
        elif section == "lincat":
            lhs, rhs = _cut(stmt, "=", where)
            lt = _parse_lintype(rhs, where)
            for cat in _names(lhs, ",", where):
                if cat not in abstract.cats:
                    raise GrammarError(f"{where}: lincat for unknown category {cat}")
                lincats.append((cat, lt))
        else:
            lhs, rhs = _cut(stmt, "=", where)
            glued = len(lhs) > 1 and isinstance(lhs[1], _Glued)
            fname = _name(lhs[: 1 + glued], f"{where} lin")
            fun = abstract.fun(fname)  # unknown fun -> GrammarError
            args = [_name([tok], f"{where} lin {fname}") for tok in lhs[1:]]
            if len(args) != len(fun.args):
                raise GrammarError(
                    f"{where}: lin {fname} binds {len(args)} arguments, "
                    f"the fun takes {len(fun.args)}"
                )
            if len(set(args)) != len(args):
                raise TermSyntaxError(f"{where}: lin {fname} repeats an argument name")
            lins.append(LinRule(fname, tuple(args), _parse_lin_expr(rhs, f"{where} lin {fname}")))

    seen_cats = [c for c, _ in lincats]
    if len(set(seen_cats)) != len(seen_cats):
        raise GrammarError(f"{where}: a category has two lincats")
    seen_funs = [r.fun for r in lins]
    if len(set(seen_funs)) != len(seen_funs):
        raise GrammarError(f"{where}: a function has two lin rules")

    grammar = ConcreteGrammar(name, abstract.name, tuple(params), tuple(lincats), tuple(lins))
    known_params = {p.name for p in params}
    for cat, lt in lincats:
        for _, pname in lt.inherent:
            if pname not in known_params:
                raise GrammarError(f"{where}: lincat {cat} uses unknown parameter {pname}")
        for pname in lt.s_params:
            if pname not in known_params:
                raise GrammarError(f"{where}: lincat {cat} uses unknown parameter {pname}")
    return grammar


# --- whole files ----------------------------------------------------------------


def parse_grammar_file(registry: GrammarRegistry, text: str) -> list[str]:
    """Parse every block in `text` into `registry`; returns the new names."""
    tokens, end_error = _lex(text)
    added: list[str] = []
    pos = 0
    while pos < len(tokens):
        match tokens[pos : pos + 6]:
            case ["abstract", name, "=", "{", *_] if _NAME_RE.match(name):
                base_name, open_pos = None, pos + 3
            case ["abstract", name, "=", base_name, "**", "{"] if (
                _NAME_RE.match(name) and _NAME_RE.match(base_name)
            ):
                open_pos = pos + 5
            case ["concrete", name, "of", abstract_name, "=", "{"] if (
                _NAME_RE.match(name) and _NAME_RE.match(abstract_name)
            ):
                open_pos = pos + 5
            case _:
                raise TermSyntaxError(
                    f"unexpected text outside grammar blocks: {_show(tokens[pos : pos + 8])}"
                )
        depth = 0
        for close_pos in range(open_pos, len(tokens)):
            depth += (tokens[close_pos] == "{") - (tokens[close_pos] == "}")
            if depth == 0:
                break
        else:
            raise end_error
        body = tokens[open_pos + 1 : close_pos]
        if tokens[pos] == "abstract":
            base = registry.abstract(base_name) if base_name else None
            grammar = _parse_abstract(name, base, body)
        else:
            grammar = _parse_concrete(name, registry.abstract(abstract_name), body)
        registry.add(grammar)
        added.append(name)
        pos = close_pos + 1
    return added
