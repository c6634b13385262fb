"""Constant declarations and flat signatures.

A `Signature` is what reduction and type checking run against: an ordered
list of declarations with lookup by plain or qualified (`Theory?name`) name.
The module system produces signatures by flattening theory graphs; kernel
tests build them directly.
"""

from __future__ import annotations

import re
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
    """Ordered declarations with plain/qualified lookup."""

    def __init__(self, declarations: tuple[Declaration, ...] | list[Declaration] = ()):
        self.declarations: tuple[Declaration, ...] = tuple(declarations)
        self._by_qualified: dict[str, Declaration] = {}
        self._by_name: dict[str, list[Declaration]] = {}
        for d in self.declarations:
            self._by_qualified[d.qualified] = d
            self._by_name.setdefault(d.name, []).append(d)

    def lookup(self, name: str) -> Declaration | None:
        """Resolve a constant reference; ambiguous plain names are an error."""
        if "?" in name:
            return self._by_qualified.get(name)
        candidates = self._by_name.get(name)
        if not candidates:
            return None
        if len(candidates) > 1:
            homes = ", ".join(d.qualified for d in candidates)
            raise DuplicateName(f"ambiguous constant {name}: declared as {homes}")
        return candidates[0]

    def __contains__(self, name: str) -> bool:
        if "?" in name:
            return name in self._by_qualified
        return name in self._by_name

    def __iter__(self):
        return iter(self.declarations)
