"""Per-layer spans and counts, recorded around the functions the checker calls.

The tracer replaces the names atldk.checker looks up (and Arena.with_prop,
and the formula functions model_check reaches through its module) by wrappers
that open a span, call the original, and count what came back. Nothing under
src/ knows about it; uninstall() puts the originals back.
"""

import time
import weakref

import atldk.arena
import atldk.checker
import atldk.formula

# Per-layer metrics the traced run reports, with their units.
LAYER_UNITS = {
    "strategy_automata.build_s": "s",
    "strategy_automata.calls": "count",
    "strategy_automata.states_built": "count",
    "strategy_automata.states_unique": "count",
    "strategy_automata.unique_ratio": "ratio",
    "emptiness.solve_s": "s",
    "emptiness.calls": "count",
    "emptiness.winning_states": "count",
    "emptiness.witness_s": "s",
    "emptiness.witness_map_entries": "count",
    "emptiness.invalid_witnesses": "count",
    "epistemic_split.split_s": "s",
    "epistemic_split.calls": "count",
    "epistemic_split.refined_states": "count",
    "epistemic_split.ksets": "count",
    "epistemic_split.resplit_same_coalition": "count",
    "epistemic_split.label_s": "s",
    "arena.with_prop_s": "s",
    "arena.with_prop_calls": "count",
    "arena.with_prop_states": "count",
    "arena.load_s": "s",
    "checker.label_step_self_s": "s",
    "checker.label_step_calls": "count",
    "formula.s": "s",
    "formula.levels": "count",
}

# Span name -> the per-layer time metric its duration adds to.
SPAN_TIME = {
    "split": "epistemic_split.split_s",
    "label_knowledge": "epistemic_split.label_s",
    "label_next": "epistemic_split.label_s",
    "build": "strategy_automata.build_s",
    "solve": "emptiness.solve_s",
    "witness": "emptiness.witness_s",
    "with_prop": "arena.with_prop_s",
    "load_arena": "arena.load_s",
    "parse": "formula.s",
    "desugar": "formula.s",
    "enumerate": "formula.s",
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "children_s")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.children_s = 0.0


class Tracer:
    """Spans and counters for the calls made between two take() calls."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.level_states = None
        self.refined_for = weakref.WeakKeyDictionary()
        self.originals = []

    def _add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, name, function, on_result=None, outermost_only=False):
        def traced(*args, **kwargs):
            if outermost_only and self.stack and self.stack[-1].name == name:
                return function(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None
            span = Span(name, parent, time.perf_counter())
            self.stack.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                if parent is not None:
                    parent.children_s += span.end - span.start
                self.spans.append(span)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result
        return traced

    def _patch(self, owner, attribute, replacement):
        self.originals.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self):
        checker, formula, arena = atldk.checker, atldk.formula, atldk.arena

        def after_split(hat, g, coalition, limit=None):
            coalition = frozenset(coalition)
            self._add("epistemic_split.calls", 1)
            self._add("epistemic_split.refined_states", len(hat.arena.states))
            self._add("epistemic_split.ksets", len(hat.ksets))
            if self.refined_for.get(g) == coalition:
                self._add("epistemic_split.resplit_same_coalition", 1)
            self.refined_for[hat.arena] = coalition

        def after_build(automaton, *args):
            self._add("strategy_automata.calls", 1)
            self._add("strategy_automata.states_built", len(automaton.states))
            if self.level_states is not None:
                self.level_states.update(automaton.states)

        def after_solve(result, automaton):
            self._add("emptiness.calls", 1)
            self._add("emptiness.winning_states", len(result[1].winning))

        def after_witness(strategy, *args):
            self._add("emptiness.witness_map_entries", len(strategy.mapping))

        def after_with_prop(result, source, *args, **kwargs):
            self._add("arena.with_prop_calls", 1)
            self._add("arena.with_prop_states", len(source.states))
            if source in self.refined_for:
                self.refined_for[result] = self.refined_for[source]

        def after_enumerate(enumeration, core):
            self._add("formula.levels", len(enumeration))

        label_step = self._wrap("label_step", checker.label_step)

        def label_step_with_level(*args, **kwargs):
            outer, self.level_states = self.level_states, set()
            try:
                return label_step(*args, **kwargs)
            finally:
                self._add("strategy_automata.states_unique", len(self.level_states))
                self.level_states = outer

        self._patch(checker, "label_step", label_step_with_level)
        self._patch(checker, "split", self._wrap("split", checker.split, after_split))
        for name in ("label_knowledge", "label_next"):
            self._patch(checker, name, self._wrap(name, getattr(checker, name)))
        for name in ("build_until_automaton", "build_weak_until_automaton"):
            self._patch(checker, name, self._wrap("build", getattr(checker, name), after_build))
        for name in ("check_until_nonempty", "check_weak_nonempty"):
            self._patch(checker, name, self._wrap("solve", getattr(checker, name), after_solve))
        self._patch(checker, "extract_witness_strategy",
                    self._wrap("witness", checker.extract_witness_strategy, after_witness))
        self._patch(arena.Arena, "with_prop",
                    self._wrap("with_prop", arena.Arena.with_prop, after_with_prop))
        self._patch(formula, "parse_formula", self._wrap("parse", formula.parse_formula))
        self._patch(formula, "desugar",
                    self._wrap("desugar", formula.desugar, outermost_only=True))
        self._patch(formula, "enumerate_subformulas",
                    self._wrap("enumerate", formula.enumerate_subformulas, after_enumerate))

    def uninstall(self):
        while self.originals:
            owner, attribute, original = self.originals.pop()
            setattr(owner, attribute, original)

    def load(self, load_arena, document):
        return self._wrap("load_arena", load_arena)(document)

    def take(self):
        """Per-layer totals since the last take(); clears spans and counts."""
        totals = {name: 0 for name in LAYER_UNITS}
        totals.update(self.counts)
        for span in self.spans:
            duration = span.end - span.start
            if span.name in SPAN_TIME:
                totals[SPAN_TIME[span.name]] += duration
            elif span.name == "label_step":
                totals["checker.label_step_calls"] += 1
                totals["checker.label_step_self_s"] += duration - span.children_s
        self.spans.clear()
        self.counts = {}
        return totals
