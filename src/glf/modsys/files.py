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

`//` starts a line comment, except inside a notation, where it is an
error: dropping the rest of the line there would also drop the `;` that
ends the notation, and the notation would swallow what follows.

Declarations are checked as they are read: each type must be well-sorted
and each definiens must have its declared type, in the context of
everything included or declared so far (so later declarations may use
earlier notations). View assignments are checked against the
view-translated type of the source constant.

The words `theory`, `view`, `include`, `end`, `prec`, and `type` are
reserved; declaration names and term identifiers must avoid them.
"""

from __future__ import annotations

import re

from glf.errors import TermSyntaxError, TypeMismatch
from glf.kernel import Declaration, Notation, Sort, Term
from glf.kernel.terms import show
from glf.kernel.typecheck import EMPTY, check_type, infer_type
from glf.modsys.syntax import IDENT_RE, KEYWORDS, parse_term
from glf.modsys.theory import Theory, TheoryGraph, View, validate_view

_COMMENT = re.compile(r"//[^\n]*")
# What `_strip_comments` tracks: comments, the `#` that opens a notation,
# the `;` and `end` that close it, and brackets, which hide all three.
_COMMENT_CONTEXT = re.compile(
    r"//[^\n]*|[#;()\[\]{}]|(?<![A-Za-z0-9_'])end(?![A-Za-z0-9_'])"
)
_THEORY_HEADER = re.compile(
    r"theory\s+([A-Za-z_][A-Za-z0-9_']*)\s*"
    r"(?::\s*([A-Za-z_][A-Za-z0-9_']*)\s*)?=", re.S
)
_VIEW_HEADER = re.compile(
    r"view\s+([A-Za-z_][A-Za-z0-9_']*)\s*:\s*([A-Za-z_][A-Za-z0-9_']*)"
    r"\s*->\s*([A-Za-z_][A-Za-z0-9_']*)\s*=", re.S
)
_END = re.compile(r"\bend(?![A-Za-z0-9_'])")
_INCLUDE = re.compile(r"include\s+([A-Za-z_][A-Za-z0-9_']*)$")
_PREC = re.compile(r"\bprec\s+(-?\d+)\s*$")

_OPEN = {"(": ")", "[": "]", "{": "}"}
_CLOSE = set(_OPEN.values())


def _strip_comments(text: str) -> str:
    """Drop `//` line comments; one inside a notation is a `TermSyntaxError`.

    A notation runs from a `#` outside brackets to the next `;` or `end`
    outside brackets, as `_split_top` and `_END` later read it.
    """
    depth = 0
    in_notation = False
    for m in _COMMENT_CONTEXT.finditer(text):
        token = m.group()
        if token.startswith("//"):
            if in_notation:
                line = text.count("\n", 0, m.start()) + 1
                raise TermSyntaxError(
                    "`//` inside a notation would comment out the rest of the "
                    "line, including the `;` that ends it", line
                )
        elif token in _OPEN:
            depth += 1
        elif token in _CLOSE:
            depth -= 1
        elif depth == 0:
            in_notation = token == "#"
    return _COMMENT.sub("", text)


def _split_top(text: str, seps: str) -> list[str]:
    """Split on separator characters occurring outside any bracket pair."""
    parts: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in _OPEN:
            depth += 1
        elif ch in _CLOSE:
            depth -= 1
        elif depth == 0 and ch in seps:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _find_top(text: str, chars: str) -> int:
    depth = 0
    for i, ch in enumerate(text):
        if ch in _OPEN:
            depth += 1
        elif ch in _CLOSE:
            depth -= 1
        elif depth == 0 and ch in chars:
            return i
    return -1


def _check_name(name: str, context: str) -> str:
    name = name.strip()
    if not IDENT_RE.fullmatch(name) or "?" in name or name in KEYWORDS:
        raise TermSyntaxError(f"bad name {name!r} in {context}")
    return name


def _parse_notation(text: str, context: str) -> Notation:
    precedence = 0
    m = _PREC.search(text)
    if m:
        precedence = int(m.group(1))
        text = text[: m.start()]
    tokens = tuple(text.split())
    if not tokens:
        raise TermSyntaxError(f"empty notation in {context}")
    try:
        return Notation(tokens, precedence)
    except ValueError as e:
        raise TermSyntaxError(f"{context}: {e}") from None


def _parse_declaration(
    graph: TheoryGraph, name: str, meta: str | None,
    includes: list[str], decls: list[Declaration], segment: str,
) -> Declaration:
    cut = _find_top(segment, ":=#")
    if cut == -1:
        raise TermSyntaxError(
            f"declaration needs a type, definiens, or notation: {segment.strip()!r}"
        )
    dname = _check_name(segment[:cut], f"theory {name}")
    context = f"{name}?{dname}"
    rest = segment[cut:]

    type_text = definiens_text = notation_text = None
    while rest:
        marker, rest = rest[0], rest[1:]
        nxt = _find_top(rest, "=#" if marker == ":" else "#")
        chunk, rest = (rest, "") if nxt == -1 else (rest[:nxt], rest[nxt:])
        if marker == ":":
            type_text = chunk
        elif marker == "=":
            definiens_text = chunk
        else:
            notation_text = chunk
            break
    if type_text is None and definiens_text is None:
        raise TermSyntaxError(f"declaration {dname} needs a type or a definiens")

    flat = graph.flatten(Theory(name, meta, tuple(includes), tuple(decls)))
    type_ = parse_term(flat, type_text) if type_text is not None else None
    definiens = (
        parse_term(flat, definiens_text) if definiens_text is not None else None
    )
    notation = (
        _parse_notation(notation_text, context) if notation_text is not None else None
    )

    if type_ is not None:
        sort = infer_type(flat, EMPTY, type_)
        if not isinstance(sort, Sort):
            raise TypeMismatch("a type or kind", show(sort), context)
        if definiens is not None:
            check_type(flat, EMPTY, definiens, type_)
    elif definiens is not None:
        infer_type(flat, EMPTY, definiens)

    return Declaration(dname, type_, definiens, notation)


def _parse_theory_body(
    graph: TheoryGraph, name: str, meta: str | None, body: str
) -> Theory:
    includes: list[str] = []
    decls: list[Declaration] = []
    for segment in _split_top(body, ";"):
        if not segment.strip():
            continue
        m = _INCLUDE.match(segment.strip())
        if m:
            graph.theory(m.group(1))
            includes.append(m.group(1))
            continue
        decls.append(
            _parse_declaration(graph, name, meta, includes, decls, segment)
        )
    return Theory(name, meta, tuple(includes), tuple(decls))


def _parse_view_body(
    graph: TheoryGraph, name: str, source: str, target: str, body: str
) -> View:
    graph.theory(source)
    target_flat = graph.flatten(target)
    includes: list[str] = []
    assignments: list[tuple[str, Term]] = []
    for segment in _split_top(body, ";"):
        if not segment.strip():
            continue
        m = _INCLUDE.match(segment.strip())
        if m:
            graph.view(m.group(1))
            includes.append(m.group(1))
            continue
        cut = _find_top(segment, "=")
        if cut == -1:
            raise TermSyntaxError(
                f"view {name}: expected `constant = term`, got {segment.strip()!r}"
            )
        lhs = segment[:cut].strip()
        if not IDENT_RE.fullmatch(lhs) or lhs in KEYWORDS:
            raise TermSyntaxError(f"view {name}: bad assignment target {lhs!r}")
        assignments.append((lhs, parse_term(target_flat, segment[cut + 1:])))
    return View(name, source, target, tuple(includes), tuple(assignments))


def parse_theory_file(graph: TheoryGraph, text: str) -> list[str]:
    """Parse all blocks in `text` into `graph`; returns registered names."""
    text = _strip_comments(text)
    added: list[str] = []
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            return added
        theory_match = _THEORY_HEADER.match(text, pos)
        view_match = _VIEW_HEADER.match(text, pos) if not theory_match else None
        if not theory_match and not view_match:
            line = text.count("\n", 0, pos) + 1
            raise TermSyntaxError("expected `theory` or `view` block", line)
        header = theory_match or view_match
        end = _END.search(text, header.end())
        if not end:
            raise TermSyntaxError(f"block {header.group(1)} has no `end`")
        body = text[header.end(): end.start()]
        if theory_match:
            module = _parse_theory_body(
                graph, theory_match.group(1), theory_match.group(2), body
            )
            graph.add(module)
        else:
            module = _parse_view_body(
                graph, view_match.group(1), view_match.group(2),
                view_match.group(3), body,
            )
            graph.add(module)
            validate_view(graph, module)
        added.append(module.name)
        pos = end.end()
