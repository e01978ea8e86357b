"""The labeling driver: build the arena sequence, label each level with a fresh
prop for one subformula, and read the verdict off the final initial states."""

from __future__ import annotations

import time

from . import formula as fm
from .arena import CheckerError, StateCapExceeded  # noqa: F401 (StateCapExceeded re-exported)
from .arena import _state_names
from .emptiness import check_until_nonempty, check_weak_nonempty, extract_witness_strategy
from .epistemic_split import label_knowledge, label_next, split
from .strategy_automata import (UNTIL, WEAK_UNTIL, TreeAutomaton, build_until_automaton,
                                build_weak_until_automaton)

DEFAULT_STATE_CAP = 10 ** 6

CASE_ATOM = "atom"
CASE_BOOLEAN = "boolean"
CASE_KNOWLEDGE = "knowledge"
CASE_NEXT = "next"

MODAL_CASES = (CASE_KNOWLEDGE, CASE_NEXT, UNTIL, WEAK_UNTIL)
_MODAL = (fm.Know, fm.Next, fm.Until, fm.WeakUntil)


class LabelLevel:
    """One step of the arena sequence: the arena after labeling, whose labels
    hold the truth of the fresh prop, and the labeling case.

    Modal levels keep the refined arena, which holds the coalition and the
    provenance to the previous level; until and weak-until levels also keep
    the level's goal game and its one solution, whose region and choices
    serve every kset's label, witness and explanation."""

    __slots__ = ("k", "chi", "prop", "case", "arena", "hat", "game", "solution", "elapsed")

    def __init__(self, k, chi, prop, case, arena,
                 hat=None, game=None, solution=None, elapsed=0.0):
        self.k = k
        self.chi = chi
        self.prop = prop
        self.case = case
        self.arena = arena
        self.hat = hat
        self.game = game
        self.solution = solution
        self.elapsed = elapsed

    @property
    def labeled_count(self):
        return sum(1 for label in self.arena.labels.values() if self.prop in label)

    def stats(self):
        return {"k": self.k, "case": self.case,
                "states": len(self.arena.states), "labeled": self.labeled_count}


class LabelingTable:
    """The whole arena sequence with per-level labels and provenance links."""

    def __init__(self, base):
        self.base = base
        self.levels = []

    def __iter__(self):
        return iter(self.levels)

    def __len__(self):
        return len(self.levels)


class Verdict:
    """The final answer plus everything needed to explain it."""

    def __init__(self, holds, formula_text, table, initial, total_seconds):
        self.holds = holds
        self.formula = formula_text
        self.table = table
        self.initial = initial
        self.total_seconds = total_seconds

    def to_document(self):
        return {
            "holds": self.holds,
            "formula": self.formula,
            "levels": [level.stats() for level in self.table],
            "initial": [{"state": q, "label": v} for q, v in self.initial],
        }

    def witness(self):
        """Strategy for the outermost positive until or weak-until level, or
        None when no such level is positive: one machine on the level's goal
        game and solution, with a start per initial kset in first-seen order."""
        for level in reversed(self.table.levels):
            if level.case not in (UNTIL, WEAK_UNTIL):
                continue
            initial_ids = level.arena.initial
            if not all(level.prop in level.arena.labels[hid] for hid in initial_ids):
                return None
            ksets = dict.fromkeys(level.hat.kset[hid] for hid in initial_ids)
            return extract_witness_strategy(level.solution, level.game, *ksets)
        return None


def _eval_boolean(chi, label):
    if isinstance(chi, fm.Atom):
        return chi.name in label
    if isinstance(chi, fm.Not):
        return not _eval_boolean(chi.operand, label)
    if isinstance(chi, fm.And):
        return _eval_boolean(chi.left, label) and _eval_boolean(chi.right, label)
    return isinstance(chi, fm.TrueConst)


def label_step(arena, chi, prop, state_cap=DEFAULT_STATE_CAP):
    """Label one level: dispatch on the shape of the reduced formula chi.

    chi is an entry of enumerate_subformulas, so it is one core connective
    over atoms the arena labels, taken on trust (tests/oracles.py
    level_failures checks it). Truth is decided once per key: a state's label,
    or after the coalition's split a refined state's kset. The fresh prop is
    hidden, so later splits are unaffected by it.
    """
    started = time.monotonic()
    hat = game = solution = None
    if not isinstance(chi, _MODAL):
        case = CASE_ATOM if isinstance(chi, (fm.Atom, fm.TrueConst, fm.FalseConst)) else CASE_BOOLEAN
        keys = arena.labels.items()
        truth = {label: _eval_boolean(chi, label) for label in set(arena.labels.values())}
    else:
        # The cap bounds the refined states and each goal table's rows.
        hat = split(arena, chi.coalition, limit=state_cap)
        arena, keys = hat.arena, enumerate(hat.kset)
        if isinstance(chi, fm.Know):
            case = CASE_KNOWLEDGE
            truth = label_knowledge(hat, chi.operand.name)
        elif isinstance(chi, fm.Next):
            case = CASE_NEXT
            truth = label_next(hat, chi.operand.name)
        else:
            p1, p2 = chi.left.name, chi.right.name
            if isinstance(chi, fm.Until):
                case, build, decide = UNTIL, build_until_automaton, check_until_nonempty
            else:
                case, build, decide = WEAK_UNTIL, build_weak_until_automaton, check_weak_nonempty
            inits = {s: build(hat, p1, p2, s).init for s in hat.ksets}
            game = TreeAutomaton(case, hat, p1, p2)
            solution = decide(game)[1]
            truth = {s: init in solution.winning for s, init in inits.items()}

    new_arena = arena.with_prop(prop, [q for q, key in keys if truth[key]])
    return LabelLevel(0, chi, prop, case, new_arena, hat=hat, game=game,
                      solution=solution, elapsed=time.monotonic() - started)


@fm._memo
def _vocabulary(f):
    """The formula's coalitions and atom names, kept per formula."""
    nodes = list(fm._nodes(f))
    return (frozenset([n.coalition for n in nodes if isinstance(n, fm._Coalitional)]),
            frozenset([n.name for n in nodes if isinstance(n, fm.Atom)]))


def bind_formula(arena, f):
    """Check that the formula's coalitions and atoms exist in the arena."""
    coalitions, atoms = _vocabulary(f)
    for coalition in coalitions:
        unknown = coalition.difference(arena.agents)
        if unknown:
            raise CheckerError("unknown coalition members %s in %s" % (sorted(unknown), f))
    missing = atoms - arena.props
    if missing:
        raise CheckerError("unknown props in formula: %s" % sorted(missing))


def model_check(arena, f, state_cap=DEFAULT_STATE_CAP):
    """Decide whether the formula is valid in the arena (true at every initial
    state), building one labeling level per subformula."""
    if isinstance(f, str):
        f = fm.parse_formula(f)
    elif not isinstance(f, fm.Formula):
        raise fm.FormulaError("formula must be text or a Formula, not %s %r"
                              % (type(f).__name__, f))
    formula_text = str(f)
    bind_formula(arena, f)
    core = fm.desugar(f)
    enumeration = fm.enumerate_subformulas(core)
    reserved = [entry.prop for entry in enumeration if entry.prop in arena.props]
    if reserved:
        raise CheckerError("arena declares %s, which the checker reserves for its labeling "
                           "levels" % ", ".join(reserved))
    started = time.monotonic()
    table = LabelingTable(arena)
    current = arena
    for entry in enumeration:
        level = label_step(current, entry.chi, entry.prop, state_cap=state_cap)
        level.k = entry.index
        table.levels.append(level)
        current = level.arena
    top_prop = enumeration[-1].prop
    initial = [(current.name(q), top_prop in current.labels[q]) for q in current.initial]
    holds = all(v for _, v in initial)
    return Verdict(holds, formula_text, table, initial, time.monotonic() - started)


def explain(verdict, state_id):
    """Trace a state, given by its text id, at its deepest level back to the
    base arena, reporting the label contributed at every step."""
    levels = verdict.table.levels
    base = verdict.table.base
    for top in range(len(levels) - 1, -1, -1):
        current = levels[top].arena.state_named(state_id)
        if current is not None:
            break
    else:
        raise CheckerError("unknown state id %s" % state_id)
    first = current
    chain = []
    for level in reversed(levels[:top + 1]):
        entry = {
            "level": level.k,
            "state": level.arena.name(current),
            "case": level.case,
            "prop": level.prop,
            "labeled": level.prop in level.arena.labels[current],
        }
        if level.case in MODAL_CASES:
            entry["kset"] = _state_names(level.hat.source, level.hat.kset[current])
            current = level.hat.base[current]
        chain.append(entry)
    record = {
        "state": base.name(current),
        "base_labels": sorted(base.labels[current]),
        "chain": chain,
    }
    if levels[top].case in (UNTIL, WEAK_UNTIL) and chain[0]["labeled"]:
        level = levels[top]
        record["witness"] = extract_witness_strategy(
            level.solution, level.game, level.hat.kset[first]).to_document()
    return record
