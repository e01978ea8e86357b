"""Model checker for coalition strategies under imperfect information with
perfect recall and distributed knowledge.

The pipeline: parse a formula, desugar it to the core connectives, enumerate
its subformulas, and label a growing sequence of arenas one subformula at a
time. Each knowledge or strategy operator refines the current arena by the
subset construction for the coalition's pooled observations; until and weak
until goals are decided by one emptiness game per level, over a tree
automaton of obligation pairs whose solution labels every knowledge set.
"""

from .arena import (
    SINK_ID,
    Arena,
    ArenaError,
    Strategy,
    load_arena,
)
from .checker import (
    DEFAULT_STATE_CAP,
    CheckerError,
    LabelingTable,
    LabelLevel,
    StateCapExceeded,
    Verdict,
    bind_formula,
    explain,
    label_step,
    model_check,
)
from .corpus import alicebob_path, load_alicebob
from .emptiness import (
    EmptinessError,
    GameSolution,
    check_until_nonempty,
    check_weak_nonempty,
    extract_witness_strategy,
)
from .epistemic_split import (
    HatArena,
    SplitLimitExceeded,
    label_knowledge,
    label_next,
    split,
)
from .formula import (
    Formula,
    FormulaError,
    ParseError,
    desugar,
    enumerate_subformulas,
    parse_formula,
)
from .strategy_automata import (
    BOT,
    AutomatonError,
    TreeAutomaton,
    build_until_automaton,
    build_weak_until_automaton,
    to_dot,
)

__version__ = "0.1.0"

__all__ = [
    "Arena", "ArenaError", "Strategy", "SINK_ID", "load_arena",
    "Formula", "FormulaError", "ParseError", "parse_formula", "desugar",
    "enumerate_subformulas",
    "HatArena", "SplitLimitExceeded", "split",
    "label_knowledge", "label_next",
    "AutomatonError", "BOT", "TreeAutomaton",
    "build_until_automaton", "build_weak_until_automaton", "to_dot",
    "EmptinessError", "GameSolution",
    "check_until_nonempty", "check_weak_nonempty", "extract_witness_strategy",
    "CheckerError", "StateCapExceeded", "LabelLevel", "LabelingTable", "Verdict",
    "DEFAULT_STATE_CAP", "bind_formula", "label_step", "model_check", "explain",
    "alicebob_path", "load_alicebob",
    "__version__",
]
