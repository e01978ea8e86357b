"""Knowledge subset construction: refine an arena so states carry knowledge sets,
and label knowledge and one-step coalition ability directly on the result."""

from __future__ import annotations

from .arena import Arena, ArenaError, _CoalitionView


class SplitLimitExceeded(ArenaError):
    """Raised when a refinement would materialize more states than allowed."""


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


def _states_per_kset(first):
    """Per kset of a refinement, the set of its refined states that carry it."""
    members = {}
    for hid, s in first.kset.items():
        members.setdefault(s, []).append(hid)
    return {s: frozenset(hids) for s, hids in members.items()}


def split(g, coalition, limit=None):
    """Build the refined arena for a coalition, materializing reachable states only.

    A refined state is a pair (base state, kset). The initial refined states
    pair each initial state with the initial states it cannot be told apart
    from; knowledge sets then evolve deterministically per coalition action
    and observed label. A limit aborts the construction once more refined
    states than that would be materialized.

    When g is itself a refinement by the same coalition, maybe with props
    added since by with_prop, refining again adds no knowledge: the result is
    g under new names, each state h paired with the states that share its
    kset, in g's state order, and is built as that relabeling without
    computing outcome classes.
    """
    ids = {}
    base = {}
    kset = {}
    states = []
    labels = {}
    # Per kset, its members' text in g's state order. Same-coalition levels
    # nest ids, so this text grows long; it is rendered once per kset.
    kset_text = {}

    def intern(q, s):
        """The id of the refined state (q, s), materializing it on first sight:
        its base id and its kset's members, as base@{members}."""
        hid = ids.get((q, s))
        if hid is not None:
            return hid
        if limit is not None and len(states) >= limit:
            raise SplitLimitExceeded(
                "state cap exceeded: refinement for {%s} needs more than %d states"
                % (",".join(sorted(coalition)), limit))
        text = kset_text.get(s)
        if text is None:
            text = kset_text[s] = ",".join(g.sorted_states(s))
        hid = ids[(q, s)] = "%s@{%s}" % (q, text)
        if hid in base:
            raise ArenaError("refined state id %r names two knowledge sets, %s and %s"
                             % (hid, g.sorted_states(kset[hid]), g.sorted_states(s)))
        base[hid] = q
        kset[hid] = s
        states.append(hid)
        labels[hid] = g.labels[q]
        return hid

    view = _CoalitionView(g, coalition)
    first = g._refinement
    if first is not None and first.coalition == frozenset(view.members):
        # The walk below would intern the same states in g's own order.
        lift = _states_per_kset(first)
        hids = {h: intern(h, lift[s]) for h, s in first.kset.items()}
        initial_ids = [hids[h] for h in g.initial]
        transitions = {(hids[h], c): frozenset(map(hids.__getitem__, targets))
                       for (h, c), targets in g.transitions.items()}
    else:
        observation = view.observation
        initial_ids = []
        for q0 in g.initial:
            z0 = observation[q0]
            s0 = frozenset(s for s in g.initial if observation[s] == z0)
            initial_ids.append(intern(q0, s0))

        # Per base state: each joint action, its coalition part and the
        # successors in arena order (the order refined states are interned in).
        rows = {}
        transitions = {}
        # Breadth first: the walk reaches the states interned as it goes.
        for hid in states:
            q, s = base[hid], kset[hid]
            row = rows.get(q)
            if row is None:
                row = rows[q] = [(c, c_a, g.sorted_states(g.transitions[(q, c)]))
                                 for c, c_a in view.moves]
            for c, c_a, successors in row:
                classes = view.classes(s, c_a)
                transitions[(hid, c)] = frozenset([intern(q2, classes[observation[q2]])
                                                   for q2 in successors])

    arena = Arena(g.agents, g.actions, states, labels, initial_ids,
                  g.observes, g.hidden, transitions)
    hat = arena._refinement = HatArena(arena, g, view, base, kset)
    return hat


def _per_kset(hat, holds):
    """{refined state: holds(its kset)}, deciding each kset once."""
    per_kset = {s: holds(s) for s in hat.ksets}
    return {hid: per_kset[hat.kset[hid]] for hid in hat.arena.states}


def label_knowledge(hat, prop):
    """Which refined states satisfy distributed knowledge of a prop: those whose
    entire kset carries it."""
    if prop not in hat.source.props:
        raise ArenaError("unknown prop %s" % prop)
    labels = hat.source.labels
    return _per_kset(hat, lambda s: all(prop in labels[q] for q in s))


def label_next(hat, prop):
    """Which refined states satisfy one-step coalition ability for a prop: some
    coalition action forces prop at every successor of every kset member, however
    the other agents act."""
    if prop not in hat.source.props:
        raise ArenaError("unknown prop %s" % prop)
    labels, transitions, view = hat.source.labels, hat.source.transitions, hat.view
    return _per_kset(hat, lambda s: any(
        all(prop in labels[t] for c in view.extensions[c_a] for q in s
            for t in transitions[(q, c)])
        for c_a in view.actions))
