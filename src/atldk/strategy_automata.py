"""Goal tree automata over a refined arena: obligation tracking for until and
weak-until coalition goals. Each automaton state is expanded once per refined
arena and goal pair; the automaton of a knowledge set is the part of that
shared transition table reachable from the set's initial state, walked on
first read, and the automaton of a whole level is all of it but settled rows."""

from __future__ import annotations

from functools import cached_property
from itertools import chain

from .arena import StateCapExceeded, _state_names


# A state is the number of an obligation pair (pending, kset) of masks in the
# view's numbering: pending holds the states whose histories have not yet
# discharged the goal, kset the knowledge set those histories could be in.
# Each goal table numbers the pairs in the order it meets them. Every real
# state has a nonempty kset, so the pair (0, 0), number 0, is free for the
# absorbing failure state.
BOT = 0

UNTIL = "until"
WEAK_UNTIL = "weak-until"

# The successors of an action that fails.
_FAILS = (BOT,)


class TreeAutomaton:
    """A goal automaton: states, coalition-action alphabet, total transition
    function, the initial state, and an occurrence acceptance kind.

    rows is the hat's goal table for (p1, p2), which numbers the states and is
    made on first use. Given a kset, the automaton is that kset's view: init is
    the kset's initial state, and states lists the table breadth-first from it
    on first read. Given none, it is the level's goal game: it has no init and
    starts at every kset's initial state in hat.ksets order, listing settled
    states without expanding them, since the solve never reads their rows.
    Each kset's part is closed, so one solve decides every kset. The coalition
    is the hat's; the goal props and the kset are the hat's, taken on trust
    (tests/oracles.py level_failures checks it). Sets of state names appear
    only in pretty's text."""

    def __init__(self, kind, hat, p1, p2, kset=None):
        self.kind, self.hat, self.p1, self.p2 = kind, hat, p1, p2
        self.alphabet = hat.view.actions
        if (p1, p2) not in hat._goal_tables:
            hat._goal_tables[(p1, p2)] = _GoalTable(hat, p1, p2)
        self.rows = rows = hat._goal_tables[(p1, p2)]
        self.init = None if kset is None else rows.initial(kset)
        self._starts = [rows.initial(s) for s in hat.ksets] if kset is None else (self.init,)

    @cached_property
    def states(self):
        return tuple(_walk(self.rows, self._starts,
                           self.rows.settled if self.init is None else None))

    def __len__(self):
        return len(self.states)

    def is_target(self, state):
        """Until acceptance visits a settled state, whose obligations are all
        discharged. It reaches only settled states, so it wins either kind."""
        return self.rows.settled[state] == 1

    def targets(self):
        """The listed settled states (the until solve seeds all of rows.settled)."""
        settled = self.rows.settled
        return [s for s in self.states if settled[s]]

    def pretty(self, state):
        """The state as ({pending},{kset}) with members in arena order, or bot."""
        if state == BOT:
            return "bot"
        return "({%s},{%s})" % tuple(",".join(_state_names(self.hat.source, m))
                                     for m in self.rows.pairs[state])


def build_until_automaton(hat, p1, p2, kset):
    return TreeAutomaton(UNTIL, hat, p1, p2, kset)


def build_weak_until_automaton(hat, p1, p2, kset):
    return TreeAutomaton(WEAK_UNTIL, hat, p1, p2, kset)


class _GoalTable(dict):
    """A hat's goal table for (p1, p2). It numbers the goal states as it meets
    them: pairs[t] is state t's (pending, kset) pair, number the inverse map,
    and settled[t] is 1 when state t has a kset but nothing pending. Each
    state's row is expanded on first lookup from the hat's view and goal
    masks. A row does not depend on the kset a walk started from, so every
    kset and both acceptance kinds share it. The hat's limit bounds the rows,
    as it bounds the refined states."""

    def __init__(self, hat, p1, p2):
        super().__init__()
        self.view, self.p1, self.p2 = hat.view, p1, p2
        self.coalition, self.limit = hat.coalition, hat.limit
        g = hat.source
        # Masks in the view's numbering: states off both goals, states where p2 holds.
        self.off_goal = sum(1 << i for i, q in enumerate(g.states) if not g.labels[q] & {p1, p2})
        self.discharged = sum(1 << i for i, q in enumerate(g.states) if p2 in g.labels[q])
        self.pairs, self.number, self.settled = [(0, 0)], {(0, 0): BOT}, bytearray(1)

    def initial(self, kset):
        return BOT if kset & self.off_goal else self._number((kset & ~self.discharged, kset))

    def _number(self, pair):
        """The pair's number, the next one when it is new."""
        t = self.number.get(pair)
        if t is None:
            t = self.number[pair] = len(self.pairs)
            self.pairs.append(pair)
            self.settled.append(not pair[0])
        return t

    def __missing__(self, state):
        """Expand the state's row: per coalition action index the ranks of the
        observations its outcomes split into, in rank order, and the successor
        each class leads to, () and (BOT,) when the action fails; then the
        distinct successors in first-seen order. A successor's kset is one
        observation class of the outcomes and its pending set the part of that
        class that pending states reach, less the discharged ones: coherent
        and typed by construction (checked by tests/oracles.py
        construction_failures). BOT's empty kset has no outcomes, so its row
        fails on every action."""
        if self.limit is not None and len(self) >= self.limit:
            raise StateCapExceeded(
                "state cap exceeded: goal table (%s, %s) for {%s} needs more than %d rows"
                % (self.p1, self.p2, ",".join(sorted(self.coalition)), self.limit))
        view, off_goal, kept, number = self.view, self.off_goal, ~self.discharged, self.number
        ranks, targets = [], []
        for reached, union in zip(*map(view.unions, self.pairs[state])):
            if reached & off_goal or not union:
                ranks.append(())
                targets.append(_FAILS)
                continue
            observed, parts = view.classes(union)
            successors = []
            for part in parts:
                # A part is never empty, so a numbered successor is never BOT's 0.
                pair = (reached & part & kept, part)
                successors.append(number.get(pair) or self._number(pair))
            ranks.append(observed)
            targets.append(tuple(successors))
        distinct = tuple(dict.fromkeys(chain.from_iterable(targets)))
        row = self[state] = (tuple(ranks), tuple(targets), distinct)
        return row


def _walk(table, inits, settled=None):
    """The states reachable from each init in turn, breadth-first with one seen
    set, not expanding a state settled marks. The table is closed under
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
            if settled is not None and settled[state]:
                continue
            for t in table[state][2]:
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        order += frontier
    return order


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
    observations = automaton.hat.view.observations
    for state in automaton.states:
        ranks, targets, _ = automaton.rows[state]
        for c_a, rs, ts in zip(automaton.alphabet, ranks, targets):
            act = ",".join(map(str, c_a)) if c_a else "-"
            for r, t in zip(rs, ts):
                obs = "{%s}" % ",".join(sorted(observations[r]))
                lines.append('  %s -> %s [label="%s / %s"];'
                             % (names[state], names[t], _escape(act), _escape(obs)))
            if not rs:
                lines.append('  %s -> %s [label="%s"];' % (names[state], names[BOT], _escape(act)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _escape(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')
