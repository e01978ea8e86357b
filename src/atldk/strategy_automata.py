"""Goal tree automata over a refined arena: obligation tracking for until and
weak-until coalition goals. Each automaton state is expanded once per refined
arena and goal pair; the automaton of a knowledge set is the part of that
shared transition table reachable from the set's initial state, walked on
first read, and the automaton of a whole level is all of it but settled rows."""

from __future__ import annotations

from functools import cached_property

from .arena import StateCapExceeded, _bits


# A state is an obligation pair (pending, kset) of masks in the view's
# numbering: pending holds the states whose histories have not yet discharged
# the goal, kset the knowledge set those histories could be in. Every real
# state has a nonempty kset, so (0, 0) is free for the absorbing failure state.
BOT = (0, 0)

UNTIL = "until"
WEAK_UNTIL = "weak-until"


class TreeAutomaton:
    """A goal automaton: states, coalition-action alphabet, total transition
    function, the initial state, and an occurrence acceptance kind.

    rows is the hat's goal table for (p1, p2), keyed by mask pairs. On first
    read, states lists the table breadth-first from starts (init, or every
    kset's initial state for the level game, which expands no settled state).
    Sets of state names appear only in pretty's text."""

    def __init__(self, kind, hat, rows, init, starts=None):
        self.kind = kind
        self.hat, self.p1, self.p2 = hat, rows.p1, rows.p2
        self.init = init
        self.alphabet = hat.view.actions
        self.rows = rows
        self._starts = (init,) if starts is None else starts

    @cached_property
    def states(self):
        return tuple(_walk(self.rows, self._starts, self.is_target if self.init is None else None))

    def __len__(self):
        return len(self.states)

    @staticmethod
    def is_target(state):
        """Until acceptance visits a settled state, whose obligations are all
        discharged. It reaches only settled states, so it wins either kind."""
        return state[1] != 0 and not state[0]

    def targets(self):
        return [s for s in self.states if self.is_target(s)]

    def pretty(self, state):
        """The state as ({pending},{kset}) with members in arena order, or bot."""
        if state == BOT:
            return "bot"
        source = self.hat.source
        return "({%s},{%s})" % tuple(",".join(source.name(source.states[i]) for i in _bits(m))
                                     for m in state)


def build_until_automaton(hat, p1, p2, kset):
    return _build(UNTIL, hat, p1, p2, kset)


def build_weak_until_automaton(hat, p1, p2, kset):
    return _build(WEAK_UNTIL, hat, p1, p2, kset)


def _build(kind, hat, p1, p2, kset):
    """Shared construction; until and weak-until differ only in acceptance.
    The coalition is the hat's. Only the initial state is computed here: the
    automaton is the part of the hat's goal table for (p1, p2) reachable from
    it, listed on first read. The goal props and the kset are the hat's, taken
    on trust (tests/oracles.py level_failures checks it)."""
    table = _GoalTable.of(hat, p1, p2)
    return TreeAutomaton(kind, hat, table, table.initial(kset))


def _targets(pairs):
    """The successors of one action's classes in a row; () fails to BOT."""
    return tuple(t for _, t in pairs) or (BOT,)


class _GoalTable(dict):
    """A hat's goal table for (p1, p2): each state's row, expanded on first
    lookup from the hat's view and goal masks. A row does not depend on the
    kset a walk started from, so every kset and both acceptance kinds share it.
    The hat's limit bounds the rows, as it bounds the refined states."""

    @classmethod
    def of(cls, hat, p1, p2):
        if (p1, p2) not in hat._goal_tables:
            hat._goal_tables[(p1, p2)] = cls(hat, p1, p2)
        return hat._goal_tables[(p1, p2)]

    def __init__(self, hat, p1, p2):
        super().__init__()
        self.view, self.p1, self.p2 = hat.view, p1, p2
        self.coalition, self.limit = hat.coalition, hat.limit
        g = hat.source
        # Masks in the view's numbering: states off both goals, states where p2 holds.
        self.off_goal = sum(1 << i for i, q in enumerate(g.states) if not g.labels[q] & {p1, p2})
        self.discharged = sum(1 << i for i, q in enumerate(g.states) if p2 in g.labels[q])

    def initial(self, s):
        m = sum(1 << self.view.index[q] for q in s)
        return BOT if m & self.off_goal else (m & ~self.discharged, m)

    def __missing__(self, state):
        """Expand the state's row: per coalition action its (observation,
        successor) classes, () when it fails to BOT, and the distinct
        successors in first-seen order. A successor's kset is one observation
        class of the outcomes and its pending set the part of that class that
        pending states reach, less the discharged ones: coherent and typed by
        construction (checked by tests/oracles.py construction_failures).
        BOT's empty kset has no outcomes, so its row fails on every action."""
        if self.limit is not None and len(self) >= self.limit:
            raise StateCapExceeded(
                "state cap exceeded: goal table (%s, %s) for {%s} needs more than %d rows"
                % (self.p1, self.p2, ",".join(sorted(self.coalition)), self.limit))
        view, off_goal, kept = self.view, self.off_goal, ~self.discharged
        classes = {}
        for c_a, reached, union in zip(view.actions, *map(view.unions, state)):
            if reached & off_goal:
                classes[c_a] = ()
                continue
            classes[c_a] = tuple((view.observations[r], (reached & part & kept, part))
                                 for r, part in view.classes(union))
        successors = dict.fromkeys(t for pairs in classes.values() for t in _targets(pairs))
        row = self[state] = (classes, tuple(successors))
        return row


def _walk(table, inits, settled=None):
    """The states reachable from each init in turn, breadth-first with one seen
    set, not expanding a state where settled holds. The table is closed under
    successors, so a new state is reached only through new ones: rows are
    added in the order separate walks would add them, settled ones aside."""
    order = []
    seen = set()
    for init in inits:
        if init in seen:
            continue
        seen.add(init)
        frontier = [init]
        for state in frontier:
            if settled is not None and settled(state):
                continue
            for t in table[state][1]:
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        order += frontier
    return order


def level_automaton(kind, hat, p1, p2):
    """The level's goal game: the automaton over the states reachable from each
    kset's initial state rows.initial(kset), kset by kset in hat.ksets order,
    with no init, listing settled states without expanding them: the solve
    never reads their rows. Each kset's part is closed, so one solve decides
    every kset."""
    table = _GoalTable.of(hat, p1, p2)
    return TreeAutomaton(kind, hat, table, None, [table.initial(s) for s in hat.ksets])


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
        shape = "box" if state == BOT else "ellipse"
        extra = ', peripheries=2' if automaton.is_target(state) else ""
        style = ', style=filled, fillcolor=gray' if state == BOT else ""
        lines.append('  %s [label="%s", shape=%s%s%s];'
                     % (names[state], _escape(automaton.pretty(state)), shape, extra, style))
        if state == automaton.init:
            lines.append("  init [shape=point];")
            lines.append("  init -> %s;" % names[state])
    for state in automaton.states:
        for c_a, class_list in automaton.rows[state][0].items():
            act = ",".join(map(str, c_a)) if c_a else "-"
            for z, t in class_list:
                obs = "{%s}" % ",".join(sorted(z))
                lines.append('  %s -> %s [label="%s / %s"];'
                             % (names[state], names[t], _escape(act), _escape(obs)))
            if not class_list:
                lines.append('  %s -> %s [label="%s"];' % (names[state], names[BOT], _escape(act)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _escape(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')
