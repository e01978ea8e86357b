"""Goal tree automata over a refined arena: obligation tracking for until and
weak-until coalition goals. Each automaton state is expanded once per refined
arena and goal pair; the automaton of a knowledge set is the part of that
shared transition table reachable from the set's initial state, and the
automaton of a whole level is the table itself."""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter

from .arena import ArenaError


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

    rows maps each state to its row of the hat's shared goal table: the
    state's delta and classes entries, one per coalition action, and its
    distinct successors. delta and classes gather the rows of this
    automaton's own states on first access.
    """

    def __init__(self, kind, hat, source_kset, p1, p2, init, states, alphabet, rows):
        self.kind = kind
        self.hat = hat
        self.source_kset = source_kset
        self.p1 = p1
        self.p2 = p2
        self.init = init
        self.states = tuple(states)
        self.alphabet = tuple(alphabet)
        self._rows = rows

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


def enumerate_observation_classes(hat, r2, c_a):
    """The observation classes occurring among successors of r2 under extensions
    of c_a, with their outcome sets, in a deterministic order."""
    g = hat.source
    classes = g.outcome_classes(r2, hat.coalition, c_a)
    return sorted(classes.items(), key=lambda item: sorted(item[0]))


def build_until_automaton(hat, coalition, p1, p2, source_kset):
    return _build(UNTIL, hat, coalition, p1, p2, source_kset)


def build_weak_until_automaton(hat, coalition, p1, p2, source_kset):
    return _build(WEAK_UNTIL, hat, coalition, p1, p2, source_kset)


def _build(kind, hat, coalition, p1, p2, source_kset):
    """Shared construction; until and weak-until differ only in acceptance.

    A state's transitions do not depend on the kset the exploration started
    from, so they are kept on the hat per (p1, p2) and each state is expanded
    once however many ksets reach it. The automaton is the part of that table
    reachable from the kset's initial state, in breadth-first order.
    """
    if frozenset(coalition) != hat.coalition:
        raise AutomatonError("coalition mismatch: refined arena was built for {%s}"
                             % ",".join(sorted(hat.coalition)))
    g = hat.source
    for p in (p1, p2):
        if p not in g.props:
            raise AutomatonError("unknown goal prop %s" % p)
    s = hat.require_kset(source_kset)
    goal = frozenset((p1, p2))
    discharged = frozenset(q for q in g.states if p2 in g.labels[q])

    def check_pair(state):
        if not state.pending <= state.kset:
            raise AutomatonError("pending obligations escape the kset in %s" % state.pretty())
        if len({g.obs(coalition, q) for q in state.kset}) > 1:
            raise AutomatonError("observationally incoherent kset in %s" % state.pretty())
        for r in state.pending:
            if p1 not in g.labels[r] or p2 in g.labels[r]:
                raise AutomatonError("untyped pending state %s in %s" % (r, state.pretty()))
        return state

    if any(not (g.labels[q] & goal) for q in s):
        init = BOT
    else:
        init = check_pair(AutomatonState(s - discharged, s))

    alphabet = g.coalition_actions(coalition)

    def expand(state):
        """The state's row: its delta and classes entries, one per coalition
        action, and its distinct successors in first-seen order."""
        if state.is_bot:
            return ({(BOT, c_a): (BOT,) for c_a in alphabet},
                    {(BOT, c_a): () for c_a in alphabet}, (BOT,))
        delta = {}
        classes = {}
        for c_a in alphabet:
            key = (state, c_a)
            pending_out = g.outcome_classes(state.pending, coalition, c_a)
            if any(not (g.labels[t] & goal) for r1 in pending_out.values() for t in r1):
                delta[key], classes[key] = (BOT,), ()
                continue
            pairs = tuple(
                (z, check_pair(AutomatonState(pending_out.get(z, frozenset()) - discharged, r2)))
                for z, r2 in enumerate_observation_classes(hat, state.kset, c_a))
            delta[key] = tuple(t for _, t in pairs)
            classes[key] = pairs
        successors = dict.fromkeys(t for targets in delta.values() for t in targets)
        return delta, classes, tuple(successors)

    table = hat._goal_tables.setdefault((p1, p2), {})
    states = [init]
    seen = {init}
    for state in states:
        row = table.get(state)
        if row is None:
            row = table[state] = expand(state)
        for t in row[2]:
            if t not in seen:
                seen.add(t)
                states.append(t)
    return TreeAutomaton(kind, hat, s, p1, p2, init, states, alphabet, table)


def level_automaton(kind, hat, p1, p2):
    """The automaton over every row of the hat's goal table for (p1, p2), in
    the order they were expanded, with no initial state or source kset.

    The table is closed under successors, and so is every kset's automaton
    in it, so a state wins in a kset's automaton iff it wins here: one solve
    of this game decides every kset built so far.
    """
    table = hat._goal_tables.get((p1, p2), {})
    alphabet = hat.source.coalition_actions(hat.coalition)
    return TreeAutomaton(kind, hat, None, p1, p2, None, table, alphabet, table)


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
