"""Model checker for coalition strategies under imperfect information with
perfect recall and distributed knowledge.

The pipeline: parse a formula, desugar it to the core connectives, enumerate
its subformulas, and label a growing sequence of arenas one subformula at a
time. Each knowledge or strategy operator refines the current arena by the
subset construction for the coalition's pooled observations; until and weak
until goals are decided by one emptiness game per level, over a tree
automaton of obligation pairs whose solution labels every knowledge set.

The package exports the checker's interface: an arena, a formula, a verdict
and its witness strategy. The engine stages stay importable from their
modules, without a stability promise.
"""

from .arena import SINK_ID, Arena, ArenaError, Strategy, load_arena
from .checker import (DEFAULT_STATE_CAP, CheckerError, StateCapExceeded, Verdict, explain,
                      model_check)
from .corpus import alicebob_path, load_alicebob
from .formula import Formula, FormulaError, ParseError, parse_formula

__version__ = "0.1.0"

__all__ = [
    "Arena", "ArenaError", "Strategy", "SINK_ID", "load_arena",
    "Formula", "FormulaError", "ParseError", "parse_formula",
    "model_check", "Verdict", "explain", "CheckerError", "StateCapExceeded", "DEFAULT_STATE_CAP",
    "alicebob_path", "load_alicebob",
    "__version__",
]
