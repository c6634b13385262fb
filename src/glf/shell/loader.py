"""Assembling a fragment from a directory of declarative sources.

A fragment directory contains logic theories, grammars, semantics views,
and a `fragment.manifest` of `key = value` lines naming the pieces:

    name = life
    theories = logic/propositional.thy, logic/domain.thy
    grammars = grammar/life.gf
    language_theories = logic/language.thy      # optional, verified
    views = semantics/semantics.view
    abstract = LifeLex
    concrete.Eng = LifeEng
    start_category = Stmt
    semantics_view = LifeLexSemantics
    target_logic = LifeDT
    proposition_type = prop
    individual_type = ind                       # optional
    knowledge = knowledge/facts.kb              # optional
    connective.and = and                        # optional, per role

Loading is strict: every referenced module must exist, the semantics view
must be total, and if the directory ships language theories on disk they
must agree (up to declaration order) with the ones derived from the
grammar -- drift between the two is a hard error, not a warning.

A loaded `Fragment` caches its logic signature and its initial belief
state itself; `logic_signature` and `initial_state` here read them.
"""

from __future__ import annotations

from pathlib import Path

from glf.bridge import Fragment, generate_language_theory
from glf.errors import FragmentLoadError, GlfError, TotalityFailure, nesting_limit
from glf.grammar import AbstractGrammar, GrammarRegistry, compile_cfg, parse_grammar_file
from glf.kernel import Const, Term, alpha_eq
from glf.kernel.typecheck import EMPTY, Checker
from glf.modsys import TheoryGraph, parse_term, parse_theory_file
from glf.modsys.theory import Theory, check_totality
from glf.tableau import CONNECTIVE_ROLES, DEFAULT_STEP_BUDGET, BeliefState, LogicSignature

_SIMPLE_KEYS = frozenset({
    "name", "theories", "grammars", "language_theories", "views",
    "abstract", "start_category", "semantics_view", "target_logic",
    "domain_theory", "proposition_type", "individual_type", "knowledge",
    "step_budget",
})
_PREFIX_KEYS = ("concrete.", "connective.")


def parse_manifest(text: str, where: str = "fragment.manifest") -> dict[str, str]:
    """`key = value` per line; `#` comments; duplicate or unknown keys fail."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise FragmentLoadError(f"{where}:{lineno}: expected `key = value`")
        if key not in _SIMPLE_KEYS and not any(
            key.startswith(p) and len(key) > len(p) for p in _PREFIX_KEYS
        ):
            raise FragmentLoadError(f"{where}:{lineno}: unknown key {key!r}")
        if key in entries:
            raise FragmentLoadError(f"{where}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _paths(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def read_fragment_file(directory: Path, rel: str) -> str:
    """The UTF-8 text of the file `rel` under `directory`.

    Every file of a fragment, its gold files included, is read here, so a
    file that is missing, unreadable or not UTF-8 fails as a
    `FragmentLoadError` naming it.
    """
    path = directory / rel
    if not path.is_file():
        raise FragmentLoadError(f"missing file {rel}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise FragmentLoadError(f"{rel}: not UTF-8 text (byte {err.start})") from None
    except OSError as err:
        raise FragmentLoadError(f"{rel}: cannot be read ({err.strerror})") from None


def _parse_file(parse, into, directory: Path, rel: str) -> None:
    """`parse(into, text)` on the file `rel`, naming the file in any error."""
    try:
        with nesting_limit("the file"):
            parse(into, read_fragment_file(directory, rel))
    except FragmentLoadError:
        raise
    except GlfError as err:
        raise FragmentLoadError(f"{rel}: {err}") from err


def _extension_chain(
    registry: GrammarRegistry, abstract: AbstractGrammar
) -> list[AbstractGrammar]:
    """The grammar and its ancestors, base first."""
    chain = [abstract]
    while chain[-1].extends is not None:
        chain.append(registry.abstract(chain[-1].extends))
    chain.reverse()
    return chain


def _same_opt(a: Term | None, b: Term | None) -> bool:
    if a is None or b is None:
        return a is b
    return alpha_eq(a, b)


def _theory_drift(generated: Theory, on_disk: Theory) -> list[str]:
    """How an on-disk language theory differs from the derived one."""
    problems: list[str] = []
    if generated.meta != on_disk.meta:
        problems.append(f"meta is {on_disk.meta}, expected {generated.meta}")
    if set(generated.includes) != set(on_disk.includes):
        problems.append(
            f"includes are {sorted(on_disk.includes)}, expected {sorted(generated.includes)}"
        )
    gen = {d.name: d for d in generated.declarations}
    disk = {d.name: d for d in on_disk.declarations}
    for name in sorted(gen.keys() - disk.keys()):
        problems.append(f"{name} is missing from the file")
    for name in sorted(disk.keys() - gen.keys()):
        problems.append(f"{name} does not come from the grammar")
    for name in sorted(gen.keys() & disk.keys()):
        a, b = gen[name], disk[name]
        if not _same_opt(a.type_, b.type_):
            problems.append(f"{name} has a different type")
        if not _same_opt(a.definiens, b.definiens):
            problems.append(f"{name} has a different definiens")
        if a.notation != b.notation:
            problems.append(f"{name} has a different notation")
    return problems


def _verify_language_theories(
    directory: Path, rels: list[str], generated: dict[str, Theory]
) -> None:
    for rel in rels:
        scratch = TheoryGraph()
        _parse_file(parse_theory_file, scratch, directory, rel)
        for tname, on_disk in scratch.theories.items():
            if tname not in generated:
                raise FragmentLoadError(
                    f"{rel}: theory {tname} does not correspond to a grammar module"
                )
            drift = _theory_drift(generated[tname], on_disk)
            if drift:
                raise FragmentLoadError(
                    f"{rel}: theory {tname} drifted from the grammar: "
                    + "; ".join(drift)
                )


def load_fragment(directory: str | Path) -> Fragment:
    """Read a fragment directory into a ready-to-use `Fragment`."""
    directory = Path(directory)
    if not (directory / "fragment.manifest").is_file():
        raise FragmentLoadError(f"no fragment.manifest in {directory}")
    entries = parse_manifest(read_fragment_file(directory, "fragment.manifest"))
    for required in ("grammars", "abstract", "semantics_view"):
        if required not in entries:
            raise FragmentLoadError(f"manifest lacks the {required!r} key")

    graph = TheoryGraph()
    for rel in _paths(entries.get("theories", "")):
        _parse_file(parse_theory_file, graph, directory, rel)

    registry = GrammarRegistry()
    for rel in _paths(entries["grammars"]):
        _parse_file(parse_grammar_file, registry, directory, rel)

    try:
        abstract = registry.abstract(entries["abstract"])
    except GlfError as err:
        raise FragmentLoadError(str(err)) from err

    chain = _extension_chain(registry, abstract)
    generated = {a.name: generate_language_theory(a) for a in chain}
    _verify_language_theories(
        directory, _paths(entries.get("language_theories", "")), generated
    )
    for a in chain:
        graph.add(generated[a.name])

    for rel in _paths(entries.get("views", "")):
        _parse_file(parse_theory_file, graph, directory, rel)

    try:
        view = graph.view(entries["semantics_view"])
    except GlfError as err:
        raise FragmentLoadError(str(err)) from err
    missing = check_totality(graph, view)
    if missing:
        raise TotalityFailure(view.name, missing)

    concretes, cfgs = {}, {}
    for key, value in entries.items():
        if key.startswith("concrete."):
            tag = key[len("concrete."):]
            try:
                concrete = registry.concrete(value)
                cfgs[tag] = compile_cfg(abstract, concrete)
            except GlfError as err:
                raise FragmentLoadError(f"language {tag}: {err}") from err
            concretes[tag] = concrete
    if not concretes:
        raise FragmentLoadError("manifest defines no concrete.<Language> entries")

    start = entries.get("start_category", abstract.startcat)
    if start != abstract.startcat:
        raise FragmentLoadError(
            f"start_category {start} does not match the grammar's {abstract.startcat}"
        )

    target_name = entries.get("target_logic", view.target)
    domain_name = entries.get("domain_theory", target_name)
    try:
        target = graph.theory(target_name)
        domain = graph.theory(domain_name)
    except GlfError as err:
        raise FragmentLoadError(str(err)) from err
    domain_flat = graph.flatten(domain_name)

    proposition_type = entries.get("proposition_type", "prop")
    if proposition_type not in domain_flat:
        raise FragmentLoadError(
            f"proposition type {proposition_type} is not declared in {domain_name}"
        )
    individual_type = entries.get("individual_type") or None
    if individual_type is not None and individual_type not in domain_flat:
        raise FragmentLoadError(
            f"individual type {individual_type} is not declared in {domain_name}"
        )

    connectives = {
        key[len("connective."):]: value
        for key, value in entries.items()
        if key.startswith("connective.")
    }
    for role, const in connectives.items():
        if role not in CONNECTIVE_ROLES:
            raise FragmentLoadError(f"unknown connective role {role!r}")
        if const not in domain_flat:
            raise FragmentLoadError(
                f"connective.{role} = {const}, which is not declared in {domain_name}"
            )
    if not connectives:
        connectives = {role: role for role in CONNECTIVE_ROLES}

    try:
        step_budget = int(entries.get("step_budget", DEFAULT_STEP_BUDGET))
    except ValueError:
        raise FragmentLoadError("step_budget must be an integer") from None
    if step_budget < 1:
        raise FragmentLoadError("step_budget must be a positive integer")

    knowledge: list[Term] = []
    for rel in _paths(entries.get("knowledge", "")):
        knowledge.extend(_load_knowledge(domain_flat, directory, rel, proposition_type))

    return Fragment(
        name=entries.get("name", directory.name),
        abstract=abstract,
        concretes=concretes,
        cfgs=cfgs,
        graph=graph,
        language_theory=generated[abstract.name],
        target_logic=target,
        domain_theory=domain,
        semantics_view=view,
        start_category=start,
        proposition_type=proposition_type,
        individual_type=individual_type,
        connectives=connectives,
        step_budget=step_budget,
        knowledge=tuple(knowledge),
    )


def _load_knowledge(flat, directory: Path, rel: str, proposition_type: str) -> list[Term]:
    axioms: list[Term] = []
    checker = Checker(flat)
    for lineno, raw in enumerate(read_fragment_file(directory, rel).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            with nesting_limit("the axiom"):
                t = parse_term(flat, line)
                checker.check(EMPTY, t, Const(proposition_type))
        except GlfError as err:
            raise FragmentLoadError(f"{rel}:{lineno}: {err}") from err
        axioms.append(t)
    return axioms


def logic_signature(fragment: Fragment) -> LogicSignature:
    """The tableau-facing face of a fragment's logic (`Fragment.logic_signature`)."""
    return fragment.logic_signature


def initial_state(fragment: Fragment) -> BeliefState:
    """The fragment's initial belief state, built once (`Fragment.initial_state`)."""
    return fragment.initial_state
