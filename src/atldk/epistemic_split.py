"""Knowledge subset construction: refine an arena so states carry knowledge sets,
and label knowledge and one-step coalition ability directly on the result."""

from __future__ import annotations

from collections import deque

from .arena import Arena, ArenaError


class SplitLimitExceeded(ArenaError):
    """Raised when a refinement would materialize more states than allowed."""


def hat_id(arena, base, kset):
    """Stable id for a refined state: base id plus the kset in arena state order."""
    members = ",".join(arena.sorted_states(kset))
    return "%s@{%s}" % (base, members)


class HatArena:
    """The refined arena for one coalition, with provenance back to its source
    and the source's compiled view for the coalition.

    The refined system is itself a valid Arena (same agents, actions, and
    observability); state ids encode the base state and its kset.
    """

    def __init__(self, arena, source, view, base, kset):
        self.arena = arena
        self.source = source
        self.view = view
        self.coalition = frozenset(view.members)
        self.base = base
        self.kset = kset
        # Discovery order, which goal-table rows and until choices follow.
        self.ksets = dict.fromkeys(kset.values()).keys()
        # Goal-automaton transitions per (p1, p2), filled by strategy_automata.
        self._goal_tables = {}

    def require_kset(self, s):
        s = frozenset(s)
        if s not in self.ksets:
            raise ArenaError("unknown kset {%s}" % ",".join(sorted(s)))
        return s


def split(g, coalition, limit=None):
    """Build the refined arena for a coalition, materializing reachable states only.

    A refined state is a pair (base state, kset). The initial refined states
    pair each initial state with the initial states it cannot be told apart
    from; knowledge sets then evolve deterministically per coalition action
    and observed label. A limit aborts the construction once more refined
    states than that would be materialized.
    """
    ids = {}
    base = {}
    kset = {}
    states = []
    labels = {}
    frontier = deque()

    def intern(q, s):
        """The id of the refined state (q, s), materializing it on first sight."""
        hid = ids.get((q, s))
        if hid is not None:
            return hid
        if limit is not None and len(states) >= limit:
            raise SplitLimitExceeded(
                "state cap exceeded: refinement for {%s} needs more than %d states"
                % (",".join(sorted(coalition)), limit))
        hid = ids[(q, s)] = hat_id(g, q, s)
        if hid in base:
            raise ArenaError("refined state id %r names two knowledge sets, %s and %s"
                             % (hid, g.sorted_states(kset[hid]), g.sorted_states(s)))
        base[hid] = q
        kset[hid] = s
        states.append(hid)
        labels[hid] = g.labels[q]
        frontier.append(hid)
        return hid

    view = g._coalition_view(coalition)
    observation = view.observation
    initial_ids = []
    for q0 in g.initial:
        z0 = observation[q0]
        s0 = frozenset(s for s in g.initial if observation[s] == z0)
        initial_ids.append(intern(q0, s0))

    # Per base state: each joint action, its coalition part and the successors
    # in arena order (the order refined states are interned in).
    rows = {}
    transitions = {}
    while frontier:
        hid = frontier.popleft()
        q, s = base[hid], kset[hid]
        row = rows.get(q)
        if row is None:
            row = rows[q] = [(c, c_a, g.sorted_states(g.transitions[(q, c)]))
                             for c, c_a in view.moves]
        for c, c_a, successors in row:
            classes = view.classes(s, c_a)
            transitions[(hid, c)] = {intern(q2, classes[observation[q2]]) for q2 in successors}

    arena = Arena(g.agents, g.actions, states, labels, initial_ids,
                  g.observes, g.hidden, transitions)
    return HatArena(arena, g, view, base, kset)


def label_knowledge(hat, prop):
    """Which refined states satisfy distributed knowledge of a prop: those whose
    entire kset carries it."""
    if prop not in hat.source.props:
        raise ArenaError("unknown prop %s" % prop)
    per_kset = {}
    result = {}
    for hid in hat.arena.states:
        s = hat.kset[hid]
        if s not in per_kset:
            per_kset[s] = all(prop in hat.source.labels[q] for q in s)
        result[hid] = per_kset[s]
    return result


def label_next(hat, coalition, prop):
    """Which refined states satisfy one-step coalition ability for a prop: some
    coalition action forces prop at every successor of every kset member, however
    the other agents act."""
    if frozenset(coalition) != hat.coalition:
        raise ArenaError("coalition mismatch: refined arena was built for {%s}"
                         % ",".join(sorted(hat.coalition)))
    if prop not in hat.source.props:
        raise ArenaError("unknown prop %s" % prop)
    labels, view = hat.source.labels, hat.view
    per_kset = {}
    result = {}
    for hid in hat.arena.states:
        s = hat.kset[hid]
        if s not in per_kset:
            per_kset[s] = any(
                all(prop in labels[t] for targets in view.classes(s, c_a).values()
                    for t in targets)
                for c_a in view.actions)
        result[hid] = per_kset[s]
    return result
