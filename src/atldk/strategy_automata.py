"""Goal tree automata over a refined arena: obligation tracking for until and
weak-until coalition goals. Each automaton state is expanded once per refined
arena and goal pair; the automaton of a knowledge set is the part of that
shared transition table reachable from the set's initial state."""

from __future__ import annotations

from collections import deque
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
    function, the initial state, and an occurrence acceptance kind."""

    def __init__(self, kind, hat, source_kset, p1, p2, init, states, alphabet, delta, classes):
        self.kind = kind
        self.hat = hat
        self.source_kset = source_kset
        self.p1 = p1
        self.p2 = p2
        self.init = init
        self.states = tuple(states)
        self.alphabet = tuple(alphabet)
        self.delta = delta
        self.classes = classes

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
        """(successors, observed classes) for each coalition action in turn."""
        if state.is_bot:
            return [((BOT,), ())] * len(alphabet)
        row = []
        for c_a in alphabet:
            pending_out = g.outcome_classes(state.pending, coalition, c_a)
            if any(not (g.labels[t] & goal) for r1 in pending_out.values() for t in r1):
                row.append(((BOT,), ()))
                continue
            kset_out = enumerate_observation_classes(hat, state.kset, c_a)
            pairs = []
            for z, r2 in kset_out:
                r1 = pending_out.get(z, frozenset()) - discharged
                pairs.append((z, check_pair(AutomatonState(r1, r2))))
            row.append((tuple(t for _, t in pairs), tuple(pairs)))
        return row

    table = hat._goal_tables.setdefault((p1, p2), {})
    states = []
    seen = set()
    delta = {}
    classes = {}
    queue = deque([init])
    seen.add(init)
    while queue:
        state = queue.popleft()
        states.append(state)
        row = table.get(state)
        if row is None:
            row = table[state] = expand(state)
        for c_a, (successors, class_list) in zip(alphabet, row):
            delta[(state, c_a)] = successors
            classes[(state, c_a)] = class_list
            for t in successors:
                if t not in seen:
                    seen.add(t)
                    queue.append(t)

    return TreeAutomaton(kind, hat, s, p1, p2, init, states, alphabet, delta, classes)


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
