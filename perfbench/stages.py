"""One sentence through glf's public pipeline, plainly or stage by stage.

`run_plain` calls what `glf construct` and `glf analyze` call. `run_traced`
re-enacts `construct_semantics` stage by stage and records a span around
each call into a layer; its rendered readings and models must equal those
of `run_plain`. Spans marked `contained_in` repeat work that the named
stage does again inside itself: they cost the traced run extra time and are
left out of its operation total.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import oracle
from glf.bridge import Reading, check_in_target_logic, construct_semantics, parse_sentence
from glf.grammar import (
    GrammarRegistry, compile_cfg, linearize, parse_grammar_file, parse_tokens, recognize, tokenize,
)
from glf.kernel import App, Const, Lam, Pi, alpha_normal, normalize
from glf.kernel.typecheck import EMPTY, check_type
from glf.modsys import TheoryGraph, apply_view, parse_theory_file, print_term
from glf.shell.loader import initial_state, load_fragment, parse_manifest
from glf.tableau import extract_models, ground_quantifiers, update_belief_state

now = time.perf_counter_ns


@dataclass
class Outcome:
    readings: list[str]
    models: list[list[str]]
    exhausted: bool
    state: object  # the belief state after the update


def _render_readings(fragment, readings: list[Reading]) -> list[str]:
    flat = fragment.target_flat
    return [
        print_term(flat, r.term) + ("" if r.in_target_logic else "   [not in target logic]")
        for r in readings
    ]


def _render_models(state) -> list[list[str]]:
    flat = state.signature.flat
    return [[lit.render(flat) for lit in model] for model in extract_models(state)]


def run_plain(fragment, text: str, state) -> tuple[Outcome, int, int, int]:
    """(outcome, construct ns, analyze ns, whole operation ns).

    Construct is `construct_semantics` plus printing the readings, as
    `glf construct` does; analyze is `construct_semantics`, the update of
    the belief state (a fresh `initial_state` when `state` is None), model
    extraction and rendering, as `glf analyze` and the REPL do.
    """
    t0 = now()
    readings = construct_semantics(fragment, text)
    t1 = now()
    rendered = _render_readings(fragment, readings)
    t2 = now()
    if state is None:
        state = initial_state(fragment)
    new = update_belief_state(state, [r.term for r in readings if r.in_target_logic])
    models = _render_models(new)
    t3 = now()
    return Outcome(rendered, models, new.exhausted, new), t2 - t0, (t1 - t0) + (t3 - t2), t3 - t0


class Tracer:
    """Spans and counters kept in memory, per operation, written out at the end."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end, contained_in)
        self.counters: list[tuple] = []  # (op, span, name, value)
        self._stack: list[int] = []
        self.op = None
        self.times: dict[str, int] = defaultdict(int)  # this operation's ns per span name
        self.counts: dict[str, int] = defaultdict(int)
        self.side_ns = 0

    def begin(self, op: str) -> None:
        self.op, self.side_ns = op, 0
        self.times, self.counts = defaultdict(int), defaultdict(int)

    @contextmanager
    def span(self, name: str, contained_in: str | None = None):
        sid, parent = len(self.spans), (self._stack[-1] if self._stack else None)
        self.spans.append(None)
        self._stack.append(sid)
        start = now()
        try:
            yield
        finally:
            end = now()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self.op, name, start, end, contained_in)
            self.times[name] += end - start
            if contained_in:
                self.side_ns += end - start

    def count(self, name: str, value: int) -> None:
        self.counters.append((self.op, self._stack[-1] if self._stack else None, name, value))
        self.counts[name] += value

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for sid, parent, op, name, start, end, contained_in in self.spans:
                out.write(json.dumps({
                    "span": sid, "parent": parent, "op": op, "name": name,
                    "start_ns": start, "end_ns": end, "contained_in": contained_in,
                }) + "\n")
            for op, sid, name, value in self.counters:
                out.write(json.dumps({"op": op, "span": sid, "counter": name, "value": value}) + "\n")


def term_nodes(t) -> int:
    """Nodes of a kernel term, counted without recursion."""
    total, stack = 0, [t]
    while stack:
        t = stack.pop()
        total += 1
        if isinstance(t, App):
            stack += (t.fn, t.arg)
        elif isinstance(t, Lam):
            stack.append(t.body)
            if t.binder_type is not None:
                stack.append(t.binder_type)
        elif isinstance(t, Pi):
            stack += (t.domain, t.codomain)
    return total


def run_traced(fragment, text: str, state, tr: Tracer) -> Outcome:
    """`run_plain`, re-enacted stage by stage with a span around each call."""
    flat = fragment.target_flat
    cfg = fragment.cfg(fragment.default_language())
    tokens = tokenize(text)
    with tr.span("earley.chart", contained_in="earley.parse"):
        recognize(cfg, tokens)
    with tr.span("earley.parse"):
        asts = parse_tokens(cfg, tokens)
    tr.count("earley.tokens", len(tokens))
    tr.count("earley.trees", len(asts))

    readings, seen = [], set()
    for ast in asts:
        with tr.span("theory.apply_view"):
            raw = apply_view(fragment.graph, fragment.semantics_view, ast)
        with tr.span("reduce.normalize"):
            term = normalize(flat, raw)
        tr.count("theory.raw_nodes", term_nodes(raw))
        tr.count("reduce.normal_nodes", term_nodes(term))
        with tr.span("terms.alpha_normal"):
            key = alpha_normal(term)
        if key in seen:
            continue
        seen.add(key)
        with tr.span("bridge.gate"):
            ok, diagnostics = check_in_target_logic(fragment, term)
        readings.append(Reading(ast, raw, term, ok, diagnostics))
    tr.count("bridge.readings", len(readings))
    with tr.span("syntax.print"):
        rendered = _render_readings(fragment, readings)

    if state is None:
        with tr.span("tableau.init"):
            state = initial_state(fragment)
    usable = [r.term for r in readings if r.in_target_logic]
    signature = state.signature
    for t in usable:
        with tr.span("typecheck.check", contained_in="tableau.update"):
            check_type(signature.flat, EMPTY, t, Const(signature.proposition_type))
        with tr.span("tableau.ground", contained_in="tableau.update"):
            ground_quantifiers(signature, t)
    with tr.span("tableau.update"):
        new = update_belief_state(state, usable)
    tr.count("tableau.steps", len(new.history) - len(state.history) - 1)
    tr.count("tableau.open_branches", len(new.branches))
    with tr.span("tableau.extract"):
        models = extract_models(new)
    tr.count("tableau.models", len(models))
    with tr.span("syntax.print"):
        rendered_models = [[lit.render(signature.flat) for lit in m] for m in models]
    return Outcome(rendered, rendered_models, new.exhausted, new)


def load_traced(directory: Path, tr: Tracer):
    """`load_fragment`, then its main stages again from the manifest's files."""
    with tr.span("loader.load"):
        fragment = load_fragment(directory)
    entries = parse_manifest((directory / "fragment.manifest").read_text(encoding="utf-8"))

    def files(key: str) -> list[str]:
        return [(directory / p.strip()).read_text(encoding="utf-8")
                for p in entries.get(key, "").split(",") if p.strip()]

    theories, views, grammars = files("theories"), files("views"), files("grammars")
    with tr.span("modsys.parse_theory", contained_in="loader.load"):
        graph = TheoryGraph()
        for text in theories:
            parse_theory_file(graph, text)
        graph.add(fragment.language_theory)
        for text in views:
            parse_theory_file(graph, text)
    with tr.span("grammar.parse_grammar", contained_in="loader.load"):
        registry = GrammarRegistry()
        for text in grammars:
            parse_grammar_file(registry, text)
    productions = 0
    with tr.span("grammar.compile_cfg", contained_in="loader.load"):
        for concrete in fragment.concretes.values():
            productions += len(compile_cfg(fragment.abstract, concrete).productions)
    tr.count("grammar.cfg_productions", productions)
    return fragment


class Run:
    """Passes over a workload's sessions, with the count of failed operations."""

    def __init__(self, workload, fragment, between_ops=None):
        self.workload = workload
        self.fragment = fragment
        self.between_ops = between_ops or (lambda: None)  # before each operation, and at the end
        self.ops = [(si, k, s) for si, session in enumerate(workload.sessions)
                    for k, s in enumerate(session)]
        self.attempted = self.failed = self.passes = 0
        self.wrong: list[str] = []  # answers that failed a check
        self.errors: list[str] = []  # exceptions and exhausted budgets
        self.first_outputs: list = [None] * len(self.ops)

    def one_pass(self, runner, check_trees: bool = False) -> list:
        """Run every operation once; returns what `runner` measured, per operation.

        `runner(op_id, text, state)` returns the outcome and its measurements,
        which are kept with the time the operation started. An operation
        fails if it raises, exhausts the tableau's step budget, or gives an
        answer that fails a check; the last are also `wrong`.
        """
        gc.collect()
        self.passes += 1
        measured = [None] * len(self.ops)
        state = context = None
        for i, (si, k, sentence) in enumerate(self.ops):
            self.between_ops()
            if k == 0:
                state, context = None, oracle.KNOWLEDGE
            if self.workload.fragment == "quantified":
                context &= oracle.sentence_mask(sentence.text)
            self.attempted += 1
            try:
                start = now()
                outcome, m = runner(f"{self.passes}/{si}/{k}", sentence.text, state)
                measured[i] = (start, m)
                problems = self.tree_problems(sentence) if check_trees else []
            except Exception as err:  # a failed operation; the run goes on
                self.failed += 1
                self.errors.append(f"{sentence.text[:60]!r}: {type(err).__name__}: {err}")
                continue
            state = outcome.state
            if outcome.exhausted:
                self.failed += 1
                self.errors.append(f"{sentence.text[:60]!r}: the tableau exhausted its step budget")
                continue
            try:
                problems += oracle.judge(self.workload.fragment, sentence, outcome, context)
            except oracle.OracleError as err:
                problems.append(f"unreadable answer: {err}")
            answer = (outcome.readings, outcome.models)
            if self.first_outputs[i] is None:
                self.first_outputs[i] = answer
            elif answer != self.first_outputs[i]:
                problems.append("output differs from the first pass")
            if problems:
                self.failed += 1
                self.wrong.append(f"{sentence.text[:60]!r}: {'; '.join(problems)[:300]}")
        self.between_ops()
        return measured

    def tree_problems(self, sentence) -> list[str]:
        fr = self.fragment
        concrete = fr.concretes[fr.default_language()]
        trees = parse_sentence(fr, sentence.text)
        return oracle.check_trees(
            sentence.text, sentence.trees, [linearize(fr.abstract, concrete, t) for t in trees]
        )
