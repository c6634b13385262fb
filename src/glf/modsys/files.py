"""Loading theories and views from their surface file format.

A file holds any number of blocks:

    theory Name [: Meta] =
      include Other ;
      name [: type] [= definiens] [# token... [prec N]] ;
      ...
    end

    view Name : Source -> Target =
      include OtherView ;
      name = term ;
      ...
    end

A file is read as one stream of the term lexer's tokens, so errors give
their line and column in the file. `//` starts a comment that runs to the
end of the line. `;`, `=`, `#`, `:` and `->` are structural, and a term
ends at the first token that cannot continue it. A notation is the raw
words after `#` up to the first `;` or `end`; a comment inside one is an
error, since it would hide that `;`, and so is a word the lexer would not
read back as one token (`jo(an'`), since the notation could never be used.

Declarations are checked as they are read: each type must be well-sorted
and each definiens must have its declared type, in the context of
everything included or declared so far. That context is one scope per
theory, which each declaration joins once it is checked, so later
declarations may use earlier notations and a notation clash is an error
where it is written. View assignments are checked against the
view-translated type of the source constant.

The words `theory`, `view`, `include`, `end`, `prec`, and `type` are
reserved; declaration names and term identifiers must avoid them.
"""

from __future__ import annotations

from glf.errors import TypeMismatch
from glf.kernel import Declaration, Signature, Sort, Term
from glf.kernel.terms import show
from glf.kernel.typecheck import EMPTY, Checker
from glf.modsys.syntax import IDENT_RE, _Parser
from glf.modsys.theory import Theory, TheoryGraph, View, check_declaration, validate_view

_NO_NOTATIONS = Signature()


def _name(p: _Parser, context: str, qualified: bool = False) -> str:
    tok = p.peek()
    if (tok.kind not in ("IDENT", "LEXEME") or not IDENT_RE.fullmatch(tok.text)
            or ("?" in tok.text and not qualified)):
        raise p.fail(f"bad name {tok.text or 'end of input'!r} in {context}")
    return p.advance().text


def _at_end(p: _Parser, block: str) -> bool:
    """Consume the `end` of `block` if it is next; skip stray `;`s."""
    while p.accept("SEMI"):
        pass
    tok = p.peek()
    if tok.kind == "EOF":
        raise p.fail(f"block {block} has no `end`")
    if tok.text != "end":
        return False
    p.advance()
    p.use(_NO_NOTATIONS)
    return True


def _close(p: _Parser) -> None:
    """A statement ends at `;`, or just before the `end` of its block."""
    tok = p.peek()
    if not p.accept("SEMI") and tok.text != "end" and tok.kind != "EOF":
        raise p.fail(f"expected ';' or `end`, found {tok.text!r}")


def _include(p: _Parser, context: str) -> str | None:
    """The name after `include`, if the statement is one."""
    if p.peek().text != "include":
        return None
    p.advance()
    name = _name(p, context)
    _close(p)
    return name


def _declaration(p: _Parser, scope: Signature, theory: str) -> Declaration:
    name = _name(p, f"theory {theory}")
    context = f"{theory}?{name}"
    marker = p.peek().kind
    if marker == "HASH":
        raise p.fail(f"declaration {name} needs a type or a definiens")
    if marker not in ("COLON", "EQUALS"):
        raise p.fail(f"declaration {name} needs a type, definiens, or notation")
    type_ = p.expr(0) if p.accept("COLON") else None
    definiens = p.expr(0) if p.accept("EQUALS") else None
    notation = p.notation(context) if p.accept("HASH") else None
    _close(p)

    checker = Checker(scope)
    if type_ is None:
        checker.infer(EMPTY, definiens)
    else:
        sort = checker.infer(EMPTY, type_)
        if not isinstance(sort, Sort):
            raise TypeMismatch("a type or kind", show(sort), context)
        if definiens is not None:
            checker.check(EMPTY, definiens, type_)
    return Declaration(name, type_, definiens, notation, theory)


def _theory(graph: TheoryGraph, p: _Parser) -> Theory:
    name = _name(p, "a theory header")
    meta = _name(p, f"theory {name}") if p.accept("COLON") else None
    p.expect("EQUALS")
    includes: list[str] = []
    decls: list[Declaration] = []
    scope = None
    while not _at_end(p, name):
        included = _include(p, f"theory {name}")
        if included is not None:
            graph.theory(included)
            includes.append(included)
            scope = None
            continue
        if scope is None:
            # Meta and includes, made again after an include; not cached.
            scope = graph.flatten(Theory(name, meta, tuple(includes), tuple(decls)))
            p.use(scope)
        d = _declaration(p, scope, name)
        check_declaration(name, d, scope)
        p.table.add(d)
        scope.add(d)
        decls.append(d)
    return Theory(name, meta, tuple(includes), tuple(decls))


def _view(graph: TheoryGraph, p: _Parser) -> View:
    name = _name(p, "a view header")
    p.expect("COLON")
    source = _name(p, f"view {name}")
    p.expect("ARROW")
    target = _name(p, f"view {name}")
    p.expect("EQUALS")
    graph.theory(source)
    p.use(graph.flatten(target))
    includes: list[str] = []
    assignments: list[tuple[str, Term]] = []
    while not _at_end(p, name):
        included = _include(p, f"view {name}")
        if included is not None:
            graph.view(included)
            includes.append(included)
        else:
            constant = _name(p, f"view {name}", qualified=True)
            p.expect("EQUALS")
            assignments.append((constant, p.expr(0)))
            _close(p)
    return View(name, source, target, tuple(includes), tuple(assignments))


def parse_theory_file(graph: TheoryGraph, text: str) -> list[str]:
    """Parse all blocks in `text` into `graph`; returns registered names."""
    p = _Parser(_NO_NOTATIONS, text)
    added: list[str] = []
    while p.peek().kind != "EOF":
        keyword = p.peek().text
        if keyword not in ("theory", "view"):
            raise p.fail("expected `theory` or `view` block")
        p.advance()
        module = _theory(graph, p) if keyword == "theory" else _view(graph, p)
        graph.add(module)
        if keyword == "view":
            validate_view(graph, module)
        added.append(module.name)
    return added
