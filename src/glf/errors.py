"""Exception hierarchy shared by all layers.

Everything raised on purpose derives from GlfError so shell code can catch
one type and keep the session alive.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator


class GlfError(Exception):
    """Base class for all framework errors."""


class NestingTooDeep(GlfError):
    """Input nested deeper than the interpreter's recursion limit allows."""


@contextmanager
def nesting_limit(what: str) -> Iterator[None]:
    """Report a `RecursionError` raised inside the block as `NestingTooDeep`."""
    try:
        yield
    except RecursionError:
        raise NestingTooDeep(
            f"{what} is nested too deeply to process "
            f"(the recursion limit is {sys.getrecursionlimit()})"
        ) from None


# --- kernel ---------------------------------------------------------------

class KernelError(GlfError):
    pass


class NonTerminationGuard(KernelError):
    """Reduction exceeded its step budget (a diverging term)."""


class HoleApplied(KernelError):
    """A context's hole heads a spine whose arguments are not normal yet, so
    the terms plugged into it would reduce there in another order."""


class TypeError_(KernelError):
    """Base for type checking failures (name avoids shadowing builtins)."""


class UnknownConstant(TypeError_):
    pass


class TypeMismatch(TypeError_):
    def __init__(self, expected: str, found: str, position: str = ""):
        self.expected = expected
        self.found = found
        self.position = position
        where = f" in {position}" if position else ""
        super().__init__(f"type mismatch{where}: expected {expected}, found {found}")


class NotAFunction(TypeError_):
    pass


class UntypedBinder(TypeError_):
    pass


# --- module system ---------------------------------------------------------

class ModuleError(GlfError):
    pass


class CyclicInclude(ModuleError):
    pass


class UnresolvedReference(ModuleError):
    pass


class DuplicateName(ModuleError):
    pass


class PartialView(ModuleError):
    def __init__(self, constant: str):
        self.constant = constant
        super().__init__(f"view has no assignment for undefined constant {constant}")


class TermSyntaxError(GlfError):
    """Surface-syntax error in a term, theory file, or grammar file."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        at = ""
        if line is not None:
            at = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + at)


class AmbiguousParse(TermSyntaxError):
    """Conflicting notations would let one token sequence parse two ways."""


# --- grammar engine ---------------------------------------------------------

class GrammarError(GlfError):
    pass


class MissingLin(GrammarError):
    def __init__(self, function: str):
        self.function = function
        super().__init__(f"concrete syntax lacks a lin rule for {function}")


class LinTypeMismatch(GrammarError):
    pass


class UnknownCategory(GrammarError):
    pass


class ParamBlowup(GrammarError):
    pass


# --- bridge -----------------------------------------------------------------

class BridgeError(GlfError):
    pass


class NameClash(BridgeError):
    pass


# --- tableau ----------------------------------------------------------------

class TableauError(GlfError):
    pass


class IllTypedAxiom(TableauError):
    pass


class NoDomainType(TableauError):
    pass


class EmptyReadings(TableauError):
    pass


# --- shell ------------------------------------------------------------------

class ShellError(GlfError):
    pass


class FragmentLoadError(ShellError):
    pass


class TotalityFailure(FragmentLoadError):
    def __init__(self, view: str, missing: tuple[str, ...]):
        self.view = view
        self.missing = missing
        super().__init__(
            f"view {view} is not total; missing assignments: {', '.join(missing)}"
        )


class GoldFormatError(ShellError):
    def __init__(self, message: str, line: int, path: str = "gold file"):
        self.message = message
        self.line = line
        super().__init__(f"{path} line {line}: {message}")
