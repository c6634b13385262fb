"""Constant declarations and flat signatures.

A `Signature` is what reduction, type checking, parsing and printing run
against: an ordered list of declarations, and the scope that resolves a
plain or qualified (`Theory?name`) name in them. Flattening makes
signatures, the theory reader grows one, and kernel tests build them.

A signature also holds what its checkers and normalizers have worked out
about its declarations, for the next one to look up: `known_normal`, a
weak set of the normal forms its normalizers with δ "applied" have found
for closed terms, which only `glf.kernel.reduce` reads and fills, and
`constant_types`, the β-normal type of each constant a `Checker` has
looked up, which only `glf.kernel.typecheck` reads and fills. A
declaration added can change what a constant unfolds to, or make a plain
name ambiguous, so `add` empties both.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, field
from functools import cached_property

from glf.errors import DuplicateName
from glf.kernel.terms import Term

_PLACEHOLDER = re.compile(r"%([1-9])$")


@dataclass(frozen=True)
class Notation:
    """Mixfix notation: literal lexemes and %i placeholders, with a precedence."""

    tokens: tuple[str, ...]
    precedence: int = 0

    def __post_init__(self) -> None:
        seen = sorted(i for i in self.placeholders if i is not None)
        if seen != list(range(1, len(seen) + 1)):
            raise ValueError(
                f"notation placeholders must be %1..%n, each exactly once: {self.tokens}"
            )

    @cached_property
    def placeholders(self) -> tuple[int | None, ...]:
        """Per token, the argument `%i` stands for, as i, or None for a lexeme."""
        return tuple(map(self.placeholder_index, self.tokens))

    @cached_property
    def arity(self) -> int:
        return sum(1 for i in self.placeholders if i is not None)

    @cached_property
    def open_ended(self) -> bool:
        """Whether an argument stands first or last, outside every lexeme."""
        return self.placeholders[0] is not None or self.placeholders[-1] is not None

    @staticmethod
    def placeholder_index(token: str) -> int | None:
        m = _PLACEHOLDER.match(token)
        return int(m.group(1)) if m else None


@dataclass(frozen=True)
class Declaration:
    """`name [: type] [= definiens] [# notation]`, owned by a theory."""

    name: str
    type_: Term | None = None
    definiens: Term | None = None
    notation: Notation | None = None
    home: str | None = None

    def __post_init__(self) -> None:
        if self.type_ is None and self.definiens is None:
            raise ValueError(f"declaration {self.name} needs a type or a definiens")

    @property
    def qualified(self) -> str:
        return f"{self.home}?{self.name}" if self.home else self.name


class Signature:
    """Ordered declarations and the one scope they make, which grows by `add`:
    `names` maps each qualified name, and each plain name declared once, to
    its declaration, and a plain name declared more than once to None.

    `known_normal` and `constant_types` hold facts about the declarations
    only, never a term of a sentence checked against them, and `add`
    empties both (see the module docstring)."""

    def __init__(self, declarations: tuple[Declaration, ...] | list[Declaration] = ()):
        self.declarations: list[Declaration] = []
        self.names: dict[str, Declaration | None] = {}
        self.known_normal: weakref.WeakSet[Term] = weakref.WeakSet()
        self.constant_types: dict[str, Term] = {}
        for d in declarations:
            self.add(d)

    def add(self, d: Declaration) -> None:
        self.known_normal.clear()
        self.constant_types.clear()
        self.declarations.append(d)
        if d.home:
            self.names[d.qualified] = d
        self.names[d.name] = None if d.name in self.names else d

    def lookup(self, name: str) -> Declaration | None:
        """Resolve a constant reference; ambiguous plain names are an error."""
        d = self.names.get(name)
        if d is None and name in self.names:
            homes = ", ".join(e.qualified for e in self.declarations if e.name == name)
            raise DuplicateName(f"ambiguous constant {name}: declared as {homes}")
        return d

    def canonical(self, d: Declaration) -> str:
        """The name a reference to `d` gets: plain unless that is ambiguous."""
        return d.qualified if self.names.get(d.name) is None else d.name

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __iter__(self):
        return iter(self.declarations)
