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

A nonterminal whose one derivation is one empty tree, such as a polarity
that linearizes as the empty string, never reaches the chart: `CFG` drops
it from every right-hand side, and its tree becomes a fixed argument.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from glf.errors import GrammarError, MissingLin, ParamBlowup
from glf.grammar.abstract import AbstractGrammar
from glf.grammar.concrete import ConcreteGrammar, check_against_lintype, check_concrete_of, eval_lin
from glf.kernel import App, Const, Term, app

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
    order of first appearance. Production `i` has right-hand side
    `rhs[i]`, a tuple of terminal strings and codes, less the codes whose
    one production holds only such codes: one tree over the empty string.
    `by_lhs[c]` lists the productions of code `c` in declaration order,
    `nullable[c]` says whether `c` derives the empty string, and `starts`
    are the codes of the start category, in order of first appearance as
    a left-hand side.
    `cyclic` holds the codes that can derive themselves over one span, by
    productions whose other symbols derive the empty string.

    A dotted production is a state: production `i` with its dot before
    symbol `d` of its right-hand side is state `state[i] + d`, and
    `after[s]` is the symbol after the dot of state `s`, a terminal string
    or a code, or `~lhs` (a negative int) once the dot is at the end.
    `predict[c]` maps a token to the first states of the productions of
    `c`, in declaration order, that can begin with that token or derive the
    empty string; `predict_initial[c]` does the same for the first token of
    an input, keyed by the lower-cased terminal, since that token matches
    in any case. `predict_empty[c]` lists the first states of the
    productions of `c` that derive the empty string, for any other token
    and for the end of the input.

    `builds[i]` rebuilds production `i`'s abstract syntax tree. Its
    arguments are the subtrees of its codes, taken in surface order, and
    the fixed trees of the codes left out of `rhs[i]`. With no subtrees it
    is the whole tree. Otherwise it is the pair of its head, the function's
    `Const` applied to its leading fixed arguments, and its other arguments:
    None when they are the subtrees in surface order, else a list holding
    for each the index of its subtree or its fixed tree.
    """

    start: str
    productions: tuple[Production, ...]
    rhs: list[tuple[str | int, ...]] = field(init=False, repr=False, compare=False)
    by_lhs: list[list[int]] = field(init=False, repr=False, compare=False)
    nullable: list[bool] = field(init=False, repr=False, compare=False)
    cyclic: frozenset[int] = field(init=False, repr=False, compare=False)
    starts: list[int] = field(init=False, repr=False, compare=False)
    state: list[int] = field(init=False, repr=False, compare=False)
    after: list[str | int] = field(init=False, repr=False, compare=False)
    predict: list[dict[str, list[int]]] = field(init=False, repr=False, compare=False)
    predict_initial: list[dict[str, list[int]]] = field(init=False, repr=False, compare=False)
    predict_empty: list[list[int]] = field(init=False, repr=False, compare=False)
    builds: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        codes: dict[NT, int] = {}
        lhs = [codes.setdefault(p.lhs, len(codes)) for p in self.productions]
        rhs = [tuple(it if isinstance(it, str) else codes.setdefault(it[0], len(codes))
                     for it in p.rhs)
               for p in self.productions]
        by_lhs: list[list[int]] = [[] for _ in codes]
        for idx, c in enumerate(lhs):
            by_lhs[c].append(idx)
        # trees[c]: the one tree of a code with one derivation.
        trees: dict[int, Term] = {}
        changed = True
        while changed:
            changed = False
            for c, idxs in enumerate(by_lhs):
                if c in trees or len(idxs) != 1:
                    continue
                p, r = self.productions[idxs[0]], rhs[idxs[0]]
                if all(it.__class__ is int and it in trees for it in r):
                    args = sorted(zip((it[1] for it in p.rhs), r))  # (argument, code)
                    trees[c] = app(Const(p.fun), *(trees[code] for _, code in args))
                    changed = True
        builds: list = []
        for idx, p in enumerate(self.productions):
            fixed = {it[1]: trees[code] for it, code in zip(p.rhs, rhs[idx]) if code in trees}
            slots = [it[1] for it in p.rhs if not isinstance(it, str) and it[1] not in fixed]
            head, k = Const(p.fun), 0
            while k in fixed:
                head, k = App(head, fixed[k]), k + 1
            rest = [fixed[a] if a in fixed else slots.index(a) for a in range(k, p.arity)]
            builds.append((head, None if rest == list(range(len(rest))) else rest)
                          if rest else head)
            rhs[idx] = tuple(it for it in rhs[idx] if it not in trees)
        nullable = [False] * len(codes)
        changed = True
        while changed:
            changed = False
            for c, r in zip(lhs, rhs):
                if not nullable[c] and all(not isinstance(it, str) and nullable[it] for it in r):
                    nullable[c] = changed = True
        # steps[c]: the codes c derives over its own span by one production,
        # whose other symbols derive the empty string.
        steps: list[set[int]] = [set() for _ in codes]
        for c, r in zip(lhs, rhs):
            hard = [it for it in r if it.__class__ is str or not nullable[it]]
            if not hard or (len(hard) == 1 and hard[0].__class__ is int):
                steps[c].update(hard or r)
        cyclic = set()
        for c in range(len(codes)):
            reached, todo = set(), list(steps[c])
            while todo and c not in reached:
                d = todo.pop()
                if d not in reached:
                    reached.add(d)
                    todo.extend(steps[d])
            if c in reached:
                cyclic.add(c)
        # A production begins with a symbol of `leads[i]`: its nullable codes
        # up to the first other symbol, and that symbol. It derives the
        # empty string if that symbol is past its end.
        leads, empties = [], []
        for r in rhs:
            k = 0
            while k < len(r) and r[k].__class__ is int and nullable[r[k]]:
                k += 1
            leads.append(r[:k + 1])
            empties.append(k == len(r))
        # The terminals that a string derived from production i, or from
        # code c, can begin with: starters[i] and first[c].
        starters: list[set[str]] = [set() for _ in rhs]
        first: list[set[str]] = [set() for _ in codes]
        changed = True
        while changed:
            changed = False
            for c, lead, f in zip(lhs, leads, starters):
                for it in lead:
                    if it.__class__ is str:
                        f.add(it)
                    else:
                        f |= first[it]
                if not f <= first[c]:
                    first[c] |= f
                    changed = True
        state: list[int] = []
        after: list[str | int] = []
        for c, r in zip(lhs, rhs):
            state.append(len(after))
            after.extend(r)
            after.append(~c)
        predict: list[dict[str, list[int]]] = [{} for _ in codes]
        predict_initial: list[dict[str, list[int]]] = [{} for _ in codes]
        predict_empty: list[list[int]] = [[] for _ in codes]
        for c, s0, f, empty in zip(lhs, state, starters, empties):
            if empty:
                predict_empty[c].append(s0)
                f = first[c]  # any token may follow it
            for t in f:
                predict[c].setdefault(t, []).append(s0)
            for t in {t.lower() for t in f}:
                predict_initial[c].setdefault(t, []).append(s0)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "by_lhs", by_lhs)
        object.__setattr__(self, "nullable", nullable)
        object.__setattr__(self, "cyclic", frozenset(cyclic))
        object.__setattr__(self, "starts", [
            c for nt, c in codes.items() if nt.cat == self.start and by_lhs[c]
        ])
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "after", after)
        object.__setattr__(self, "predict", predict)
        object.__setattr__(self, "predict_initial", predict_initial)
        object.__setattr__(self, "predict_empty", predict_empty)
        object.__setattr__(self, "builds", builds)


def _valuations(grammar: ConcreteGrammar, param_names: tuple[str, ...]):
    axes = [grammar.param(p).constructors for p in param_names]
    return itertools.product(*axes)


def _symbolic_record(grammar: ConcreteGrammar, lt, valuation: tuple[str, ...],
                     index: int):
    fields = {
        fname: ("param", v)
        for (fname, _), v in zip(lt.inherent, valuation)
    }
    fields["s"] = _symbolic_table(grammar, lt.s_params, (), index)
    return ("record", fields)


def _symbolic_table(grammar: ConcreteGrammar, params: tuple[str, ...],
                    path: tuple[str, ...], index: int):
    """The table over `params` whose cell at each path below `path` refers
    to argument `index`'s string there."""
    if not params:
        return ("str", (ArgRef(index, path),))
    ptype = grammar.param(params[0])
    return ("table", {
        c: _symbolic_table(grammar, params[1:], path + (c,), index)
        for c in ptype.constructors
    })


def compile_cfg(abstract: AbstractGrammar, concrete: ConcreteGrammar) -> CFG:
    """Compile to a CFG, validating the concrete grammar along the way."""
    check_concrete_of(abstract, concrete)
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
