"""Concrete grammars: parameter types, linearization types, and lin rules.

A linearization type is a record with one `s` field (a token string, or a
finite table over parameter values) plus zero or more inherent parameter
fields. Lin rules are evaluated by `eval_lin` over an environment of
argument records; the same evaluator drives both actual linearization and
the grammar compiler (which feeds it symbolic string leaves).

Evaluated values are tagged tuples:

    ("str", items)        tokens (plus opaque leaf markers during compilation)
    ("param", ctor)       a parameter value
    ("table", {ctor: v})  one table level
    ("record", {f: v})    a full record
"""

from __future__ import annotations

from dataclasses import dataclass

from glf.errors import GrammarError, LinTypeMismatch
from glf.grammar.abstract import AbstractGrammar

Value = tuple  # ("str" | "param" | "table" | "record", payload)


@dataclass(frozen=True)
class ParamType:
    name: str
    constructors: tuple[str, ...]


@dataclass(frozen=True)
class LinType:
    """`{ s : [P =>]* Str ; field : P ; ... }` — inherent fields are ordered."""

    inherent: tuple[tuple[str, str], ...]   # (field name, param type name)
    s_params: tuple[str, ...]               # table levels of the s field


# --- lin expressions ---------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    text: str


@dataclass(frozen=True)
class Concat:
    left: "LinExpr"
    right: "LinExpr"


@dataclass(frozen=True)
class ArgField:
    arg: str
    field: str


@dataclass(frozen=True)
class Select:
    table: "LinExpr"
    selector: "LinExpr"


@dataclass(frozen=True)
class Table:
    rows: tuple[tuple[str, "LinExpr"], ...]   # (constructor, value)


@dataclass(frozen=True)
class Record:
    fields: tuple[tuple[str, "LinExpr"], ...]


@dataclass(frozen=True)
class Ctor:
    name: str


LinExpr = Literal | Concat | ArgField | Select | Table | Record | Ctor


@dataclass(frozen=True)
class LinRule:
    fun: str
    params: tuple[str, ...]
    expr: LinExpr


@dataclass(frozen=True)
class ConcreteGrammar:
    name: str
    abstract: str
    params: tuple[ParamType, ...]
    lincats: tuple[tuple[str, LinType], ...]
    lins: tuple[LinRule, ...]

    def __post_init__(self) -> None:
        ctors: dict[str, str] = {}
        names: set[str] = set()
        for p in self.params:
            if p.name in names:
                raise GrammarError(f"{self.name}: parameter type {p.name} declared twice")
            names.add(p.name)
            for c in p.constructors:
                if c in ctors:
                    raise GrammarError(
                        f"{self.name}: constructor {c} belongs to both "
                        f"{ctors[c]} and {p.name}"
                    )
                ctors[c] = p.name

    def param(self, name: str) -> ParamType:
        for p in self.params:
            if p.name == name:
                return p
        raise GrammarError(f"{self.name} has no parameter type {name}")

    def ctor_param(self, ctor: str) -> ParamType:
        for p in self.params:
            if ctor in p.constructors:
                return p
        raise GrammarError(f"{self.name} has no parameter constructor {ctor}")

    def lincat(self, cat: str) -> LinType:
        for c, lt in self.lincats:
            if c == cat:
                return lt
        raise LinTypeMismatch(f"{self.name} has no lincat for {cat}")

    def lin(self, fun: str):
        for rule in self.lins:
            if rule.fun == fun:
                return rule
        return None


def check_concrete_of(abstract: AbstractGrammar, concrete: ConcreteGrammar) -> None:
    """Fail unless `concrete` is a concrete syntax of `abstract`."""
    if concrete.abstract != abstract.name:
        raise GrammarError(
            f"{concrete.name} is a concrete syntax of {concrete.abstract}, "
            f"not of {abstract.name}"
        )


# --- evaluation ---------------------------------------------------------------

def eval_lin(grammar: ConcreteGrammar, expr: LinExpr, env: dict[str, Value],
             where: str) -> Value:
    """Evaluate a lin expression; `env` maps argument names to record values."""
    match expr:
        case Literal(text):
            return ("str", tuple(text.split()))
        case Concat(left, right):
            a = eval_lin(grammar, expr.left, env, where)
            b = eval_lin(grammar, expr.right, env, where)
            if a[0] != "str" or b[0] != "str":
                raise LinTypeMismatch(f"{where}: ++ needs strings on both sides")
            return ("str", a[1] + b[1])
        case ArgField(arg, field):
            record = env.get(arg)
            if record is None:
                raise LinTypeMismatch(f"{where}: unknown argument {arg}")
            fields = record[1]
            if field not in fields:
                raise LinTypeMismatch(f"{where}: {arg} has no field {field}")
            return fields[field]
        case Select(table, selector):
            t = eval_lin(grammar, table, env, where)
            sel = eval_lin(grammar, selector, env, where)
            if t[0] != "table":
                raise LinTypeMismatch(f"{where}: ! selects from a non-table")
            if sel[0] != "param":
                raise LinTypeMismatch(f"{where}: ! needs a parameter value")
            if sel[1] not in t[1]:
                raise LinTypeMismatch(f"{where}: table lacks a row for {sel[1]}")
            return t[1][sel[1]]
        case Table(rows):
            if not rows:
                raise LinTypeMismatch(f"{where}: empty table")
            ptype = grammar.ctor_param(rows[0][0])
            given = [c for c, _ in rows]
            if sorted(given) != sorted(ptype.constructors):
                raise LinTypeMismatch(
                    f"{where}: table rows {given} do not cover {ptype.name} "
                    f"constructors {list(ptype.constructors)} exactly once"
                )
            return ("table", {c: eval_lin(grammar, e, env, where) for c, e in rows})
        case Record(fields):
            return ("record", {f: eval_lin(grammar, e, env, where) for f, e in fields})
        case Ctor(name):
            grammar.ctor_param(name)
            return ("param", name)
    raise GrammarError(f"{where}: not a lin expression: {expr!r}")


def check_against_lintype(grammar: ConcreteGrammar, value: Value, lt: LinType,
                          where: str) -> tuple[dict[str, str], dict[tuple[str, ...], tuple]]:
    """Split an evaluated record into inherent values and s-table rows.

    Returns (inherent field -> constructor, key path -> token items) and
    raises LinTypeMismatch when the record does not fit the lin type.
    """
    if value[0] != "record":
        raise LinTypeMismatch(f"{where}: lin rule must produce a record")
    fields = dict(value[1])
    inherent: dict[str, str] = {}
    for fname, pname in lt.inherent:
        if fname not in fields:
            raise LinTypeMismatch(f"{where}: record lacks field {fname}")
        v = fields.pop(fname)
        if v[0] != "param" or grammar.ctor_param(v[1]).name != pname:
            raise LinTypeMismatch(f"{where}: field {fname} must be a {pname} value")
        inherent[fname] = v[1]
    if "s" not in fields:
        raise LinTypeMismatch(f"{where}: record lacks the s field")
    s = fields.pop("s")
    if fields:
        raise LinTypeMismatch(f"{where}: unexpected fields {sorted(fields)}")

    rows: dict[tuple[str, ...], tuple] = {}
    _s_rows(grammar, s, lt.s_params, (), rows, where)
    return inherent, rows


def _s_rows(grammar: ConcreteGrammar, v: Value, params: tuple[str, ...],
            path: tuple[str, ...], rows: dict[tuple[str, ...], tuple], where: str) -> None:
    """Add to `rows` the token items of `v`, an s table over `params`, each
    keyed by `path` and the constructors that select it."""
    if not params:
        if v[0] != "str":
            raise LinTypeMismatch(f"{where}: s must bottom out in strings")
        rows[path] = v[1]
        return
    if v[0] != "table":
        raise LinTypeMismatch(f"{where}: s must be a table over {params[0]}")
    ptype = grammar.param(params[0])
    if sorted(v[1]) != sorted(ptype.constructors):
        raise LinTypeMismatch(
            f"{where}: s table over {params[0]} has rows {sorted(v[1])}"
        )
    for c in ptype.constructors:
        _s_rows(grammar, v[1][c], params[1:], path + (c,), rows, where)
