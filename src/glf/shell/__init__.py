"""User-facing entry points: fragment loading, gold testing, REPL, CLI."""

from glf.shell.gold import GoldCase, GoldReport, parse_gold_file, run_gold
from glf.shell.loader import (
    initial_state,
    load_fragment,
    logic_signature,
    parse_manifest,
    read_fragment_file,
)
from glf.shell.repl import Session, execute, new_session, run_repl

__all__ = [
    "GoldCase",
    "GoldReport",
    "Session",
    "execute",
    "initial_state",
    "load_fragment",
    "logic_signature",
    "new_session",
    "parse_gold_file",
    "parse_manifest",
    "read_fragment_file",
    "run_gold",
    "run_repl",
]
