"""Goal tree automata over a refined arena: obligation tracking for until and
weak-until coalition goals. Each automaton state is expanded once per refined
arena and goal pair; the automaton of a knowledge set is the part of that
shared transition table reachable from the set's initial state, walked on
first read, and the automaton of a whole level is all of it."""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter


class AutomatonError(Exception):
    pass


class AutomatonState(tuple):
    """Either the absorbing failure state or an obligation pair (pending, kset).

    pending holds the states whose histories have not yet discharged the goal;
    kset is the knowledge set those histories could be in. A state is the
    tuple (pending, kset) of frozensets, BOT is (None, None), and hashing and
    equality are the tuple's own.
    """

    __slots__ = ()

    def __new__(cls, pending, kset):
        return tuple.__new__(cls, (frozenset(pending) if pending is not None else None,
                                   frozenset(kset) if kset is not None else None))

    pending = property(itemgetter(0))
    kset = property(itemgetter(1))

    @property
    def is_bot(self):
        return self[1] is None

    def __repr__(self):
        return "AutomatonState(%s)" % self.pretty()

    def pretty(self, order=None):
        if self.is_bot:
            return "bot"
        rank = order if order is not None else sorted
        return "({%s},{%s})" % (",".join(rank(self.pending)), ",".join(rank(self.kset)))


BOT = AutomatonState(None, None)

UNTIL = "until"
WEAK_UNTIL = "weak-until"


class TreeAutomaton:
    """A goal automaton: states, coalition-action alphabet, total transition
    function, the initial state, and an occurrence acceptance kind.

    rows is the hat's goal table for (p1, p2). On first read, states lists the
    table breadth-first from starts (init, or every kset's initial state), and
    delta and classes gather those states' rows."""

    def __init__(self, kind, rows, source_kset, init, starts=None):
        self.kind = kind
        self.hat, self.p1, self.p2 = rows.hat, rows.p1, rows.p2
        self.source_kset = source_kset
        self.init = init
        self.alphabet = self.hat.view.actions
        self._rows = rows
        self._starts = (init,) if starts is None else starts

    @cached_property
    def states(self):
        return tuple(_walk(self._rows, self._starts))

    @cached_property
    def delta(self):
        return {key: successors for state in self.states
                for key, successors in self._rows[state][0].items()}

    @cached_property
    def classes(self):
        return {key: class_list for state in self.states
                for key, class_list in self._rows[state][1].items()}

    def __len__(self):
        return len(self.states)

    def is_target(self, state):
        """Until acceptance visits a state whose obligations are all discharged."""
        return not state.is_bot and not state.pending

    def targets(self):
        return [s for s in self.states if self.is_target(s)]

    def pretty(self, state):
        return state.pretty(self.hat.source.sorted_states)


def build_until_automaton(hat, coalition, p1, p2, source_kset):
    return _build(UNTIL, hat, coalition, p1, p2, source_kset)


def build_weak_until_automaton(hat, coalition, p1, p2, source_kset):
    return _build(WEAK_UNTIL, hat, coalition, p1, p2, source_kset)


def _build(kind, hat, coalition, p1, p2, source_kset):
    """Shared construction; until and weak-until differ only in acceptance.
    Only the initial state is computed here: the automaton is the part of the
    hat's goal table for (p1, p2) reachable from it, listed on first read."""
    if frozenset(coalition) != hat.coalition:
        raise AutomatonError("coalition mismatch: refined arena was built for {%s}"
                             % ",".join(sorted(hat.coalition)))
    for p in (p1, p2):
        if p not in hat.source.props:
            raise AutomatonError("unknown goal prop %s" % p)
    s = hat.require_kset(source_kset)
    table = _GoalTable.of(hat, p1, p2)
    return TreeAutomaton(kind, table, s, table.initial(s))


class _GoalTable(dict):
    """A hat's goal table for (p1, p2): each state's row, expanded on first
    lookup. A row does not depend on the kset a walk started from, so every
    kset and both acceptance kinds share the table."""

    @classmethod
    def of(cls, hat, p1, p2):
        if (p1, p2) not in hat._goal_tables:
            hat._goal_tables[(p1, p2)] = cls(hat, p1, p2)
        return hat._goal_tables[(p1, p2)]

    def __init__(self, hat, p1, p2):
        super().__init__()
        self.hat, self.p1, self.p2 = hat, p1, p2
        g = hat.source
        self.goal = frozenset((p1, p2))
        self.discharged = frozenset(q for q in g.states if p2 in g.labels[q])

    def initial(self, s):
        goal_everywhere = all(self.hat.source.labels[q] & self.goal for q in s)
        return AutomatonState(s - self.discharged, s) if goal_everywhere else BOT

    def __missing__(self, state):
        """Expand the state's row: its delta and classes entries, one per
        coalition action, and its distinct successors in first-seen order.
        A successor's kset is one observation class of the outcomes and its
        pending set the part of that class that pending states reach, less the
        discharged ones: coherent and typed by construction (checked by
        tests/oracles.py construction_failures)."""
        view, labels, goal = self.hat.view, self.hat.source.labels, self.goal
        delta, classes = {}, {}
        for c_a in view.actions:
            key = (state, c_a)
            pending_out = None if state.is_bot else view.classes(state.pending, c_a)
            if pending_out is None or any(not (labels[t] & goal)
                                          for r1 in pending_out.values() for t in r1):
                delta[key], classes[key] = (BOT,), ()
                continue
            pairs = tuple(
                (z, AutomatonState(pending_out.get(z, frozenset()) - self.discharged, r2))
                for z, r2 in view.classes(state.kset, c_a).items())
            delta[key] = tuple(t for _, t in pairs)
            classes[key] = pairs
        successors = dict.fromkeys(t for targets in delta.values() for t in targets)
        row = self[state] = (delta, classes, tuple(successors))
        return row


def _walk(table, inits):
    """The states reachable from each init in turn, breadth-first with one seen
    set. The table is closed under successors, so a new state is reached only
    through new ones: rows are added in the order separate walks would add them."""
    order = []
    seen = set()
    for init in inits:
        if init in seen:
            continue
        seen.add(init)
        frontier = [init]
        for state in frontier:
            for t in table[state][2]:
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        order += frontier
    return order


def level_automaton(kind, hat, p1, p2):
    """The automaton over the states reachable from every kset's initial state,
    kset by kset in hat.ksets order, with no init or source kset. Each kset's
    automaton is closed in it, so one solve decides every kset."""
    table = _GoalTable.of(hat, p1, p2)
    return TreeAutomaton(kind, table, None, None, [table.initial(s) for s in hat.ksets])


def to_dot(automaton, annotation=None):
    """Render the automaton as a dot graph: one node per state, edges grouped by
    coalition action and labeled with the observed class."""
    lines = ["digraph goal_automaton {"]
    lines.append("  rankdir=LR;")
    title = "%s automaton, goals (%s, %s)" % (automaton.kind, automaton.p1, automaton.p2)
    if annotation:
        title += " [%s]" % annotation
    lines.append('  label="%s";' % _escape(title))
    names = {}
    for i, state in enumerate(automaton.states):
        names[state] = "n%d" % i
        shape = "box" if state.is_bot else "ellipse"
        peripheries = 2 if automaton.is_target(state) else 1
        extra = ', peripheries=2' if peripheries == 2 else ""
        style = ', style=filled, fillcolor=gray' if state.is_bot else ""
        lines.append('  %s [label="%s", shape=%s%s%s];'
                     % (names[state], _escape(automaton.pretty(state)), shape, extra, style))
        if state == automaton.init:
            lines.append("  init [shape=point];")
            lines.append("  init -> %s;" % names[state])
    for state in automaton.states:
        for c_a in automaton.alphabet:
            act = ",".join(c_a) if c_a else "-"
            class_list = automaton.classes[(state, c_a)]
            if class_list:
                for z, t in class_list:
                    obs = "{%s}" % ",".join(sorted(z))
                    lines.append('  %s -> %s [label="%s / %s"];'
                                 % (names[state], names[t], _escape(act), _escape(obs)))
            else:
                for t in automaton.delta[(state, c_a)]:
                    lines.append('  %s -> %s [label="%s"];'
                                 % (names[state], names[t], _escape(act)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _escape(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')
