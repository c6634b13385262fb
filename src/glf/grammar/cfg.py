"""Compiling a concrete grammar to a context-free grammar.

Parameters are compiled away: one nonterminal per category, inherent
parameter valuation, and s-table cell. Each lin rule is evaluated once per
combination of argument valuations with symbolic string leaves standing in
for the arguments' s cells; every leaf that survives into a result row
becomes a nonterminal occurrence in a production.

Each production remembers its syntax function and which argument each
nonterminal occurrence consumes, so chart parsing can rebuild abstract
syntax trees. A row that drops or duplicates an argument's string would
make that impossible, so compilation rejects it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from glf.errors import GrammarError, MissingLin, ParamBlowup
from glf.grammar.abstract import AbstractGrammar
from glf.grammar.concrete import ConcreteGrammar, check_against_lintype, eval_lin

MAX_PRODUCTIONS = 100_000


@dataclass(frozen=True)
class NT:
    """(category, inherent parameter values, s-table cell path)."""

    cat: str
    inherent: tuple[str, ...]
    cell: tuple[str, ...]


@dataclass(frozen=True)
class ArgRef:
    """Symbolic leaf: the s cell `path` of argument number `index`."""

    index: int
    path: tuple[str, ...]


@dataclass(frozen=True)
class Production:
    lhs: NT
    rhs: tuple  # str tokens and (NT, arg index) pairs, in surface order
    fun: str
    arity: int


@dataclass(frozen=True)
class CFG:
    """Productions plus the integer tables the chart parser runs on.

    The tables are derived from the productions once, at construction.
    Nonterminals become small int codes, left-hand sides first, each in
    order of first appearance. Production `i` has left-hand side `lhs[i]`
    and right-hand side `rhs[i]`, a tuple of terminal strings and codes;
    `slots[i]` gives the argument index of each of its codes in surface
    order. `by_lhs[c]` lists the productions of code `c` in declaration
    order, `nullable[c]` says whether `c` derives the empty string, and
    `starts` are the codes of the start category, in order of first
    appearance as a left-hand side.
    """

    start: str
    productions: tuple[Production, ...]
    lhs: list[int] = field(init=False, repr=False, compare=False)
    rhs: list[tuple[str | int, ...]] = field(init=False, repr=False, compare=False)
    slots: list[tuple[int, ...]] = field(init=False, repr=False, compare=False)
    by_lhs: list[list[int]] = field(init=False, repr=False, compare=False)
    nullable: list[bool] = field(init=False, repr=False, compare=False)
    starts: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        codes: dict[NT, int] = {}
        lhs = [codes.setdefault(p.lhs, len(codes)) for p in self.productions]
        rhs = [tuple(it if isinstance(it, str) else codes.setdefault(it[0], len(codes))
                     for it in p.rhs)
               for p in self.productions]
        by_lhs: list[list[int]] = [[] for _ in codes]
        for idx, c in enumerate(lhs):
            by_lhs[c].append(idx)
        nullable = [False] * len(codes)
        changed = True
        while changed:
            changed = False
            for c, r in zip(lhs, rhs):
                if not nullable[c] and all(not isinstance(it, str) and nullable[it] for it in r):
                    nullable[c] = changed = True
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "slots", [
            tuple(it[1] for it in p.rhs if not isinstance(it, str)) for p in self.productions
        ])
        object.__setattr__(self, "by_lhs", by_lhs)
        object.__setattr__(self, "nullable", nullable)
        object.__setattr__(self, "starts", [
            c for nt, c in codes.items() if nt.cat == self.start and by_lhs[c]
        ])


def _valuations(grammar: ConcreteGrammar, param_names: tuple[str, ...]):
    axes = [grammar.param(p).constructors for p in param_names]
    return itertools.product(*axes)


def _symbolic_record(grammar: ConcreteGrammar, lt, valuation: tuple[str, ...],
                     index: int):
    fields = {
        fname: ("param", v)
        for (fname, _), v in zip(lt.inherent, valuation)
    }

    def build(params: tuple[str, ...], path: tuple[str, ...]):
        if not params:
            return ("str", (ArgRef(index, path),))
        ptype = grammar.param(params[0])
        return ("table", {
            c: build(params[1:], path + (c,)) for c in ptype.constructors
        })

    fields["s"] = build(lt.s_params, ())
    return ("record", fields)


def compile_cfg(abstract: AbstractGrammar, concrete: ConcreteGrammar) -> CFG:
    """Compile to a CFG, validating the concrete grammar along the way."""
    if concrete.abstract != abstract.name:
        raise GrammarError(
            f"{concrete.name} is a concrete syntax of {concrete.abstract}, "
            f"not of {abstract.name}"
        )
    start_lt = concrete.lincat(abstract.startcat)
    if start_lt.s_params:
        raise GrammarError(
            f"start category {abstract.startcat} must linearize to a plain string"
        )

    productions: list[Production] = []
    for f in abstract.funs:
        rule = concrete.lin(f.name)
        if rule is None:
            raise MissingLin(f.name)
        if len(rule.params) != len(f.args):
            raise GrammarError(
                f"lin {f.name} takes {len(rule.params)} arguments, "
                f"the fun takes {len(f.args)}"
            )
        arg_lts = [concrete.lincat(c) for c in f.args]
        result_lt = concrete.lincat(f.result)
        where = f"lin {f.name}"

        arg_axes = [
            list(_valuations(concrete, tuple(p for _, p in lt.inherent)))
            for lt in arg_lts
        ]
        for combo in itertools.product(*arg_axes):
            env = {
                name: _symbolic_record(concrete, lt, valuation, i)
                for i, (name, lt, valuation)
                in enumerate(zip(rule.params, arg_lts, combo))
            }
            value = eval_lin(concrete, rule.expr, env, where)
            inherent, rows = check_against_lintype(concrete, value, result_lt, where)
            lhs_inherent = tuple(inherent[fname] for fname, _ in result_lt.inherent)
            for cell, items in rows.items():
                rhs = []
                used: list[int] = []
                for item in items:
                    if isinstance(item, ArgRef):
                        child = NT(f.args[item.index], combo[item.index], item.path)
                        rhs.append((child, item.index))
                        used.append(item.index)
                    else:
                        rhs.append(item)
                if sorted(used) != list(range(len(f.args))):
                    raise GrammarError(
                        f"{where}: each argument's string must be used exactly "
                        f"once per form (got argument uses {sorted(used)})"
                    )
                productions.append(Production(
                    NT(f.result, lhs_inherent, cell), tuple(rhs), f.name, len(f.args)
                ))
                if len(productions) > MAX_PRODUCTIONS:
                    raise ParamBlowup(
                        f"{abstract.name}/{concrete.name} compiles to more than "
                        f"{MAX_PRODUCTIONS} productions"
                    )

    return CFG(abstract.startcat, tuple(productions))
