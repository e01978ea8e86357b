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
    observability); state ids encode the base state and its kset. It records
    the coalition and the kset map for a re-split, not this object.
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


def _states_per_kset(kset):
    """Per kset of a refinement, the set of its refined states that carry it."""
    members = {}
    for hid, s in kset.items():
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
    base = {}
    kset = {}
    states = []
    labels = {}
    # Per kset, its members' text in g's state order. Same-coalition levels
    # nest ids, so this text grows long; it is rendered once per kset.
    kset_text = {}

    def add(q, s):
        """Materialize the refined state (q, s) under the id base@{members}."""
        if limit is not None and len(states) >= limit:
            raise SplitLimitExceeded(
                "state cap exceeded: refinement for {%s} needs more than %d states"
                % (",".join(sorted(coalition)), limit))
        text = kset_text.get(s)
        if text is None:
            text = kset_text[s] = ",".join(g.sorted_states(s))
        hid = "%s@{%s}" % (q, text)
        if hid in base:
            raise ArenaError("refined state id %r names two knowledge sets, %s and %s"
                             % (hid, g.sorted_states(kset[hid]), g.sorted_states(s)))
        base[hid] = q
        kset[hid] = s
        states.append(hid)
        labels[hid] = g.labels[q]
        return hid

    view = _CoalitionView(g, coalition)
    refined_by, first_kset = g._refinement or (None, None)
    if refined_by == frozenset(view.members):
        # The walk below would intern the same states in g's own order.
        lift = _states_per_kset(first_kset)
        hids = {h: add(h, lift[s]) for h, s in first_kset.items()}
        initial_ids = [hids[h] for h in g.initial]
        transitions = {(hids[h], c): frozenset(map(hids.__getitem__, targets))
                       for (h, c), targets in g.transitions.items()}
    else:
        # The walk runs on (state index, kset mask) pairs; a kset becomes a
        # frozenset, one per mask, when its first refined state is added.
        index, rank = view.index, view.rank
        ids, pairs = {}, []

        def intern(i, m):
            """The id of the refined state (i, m), materializing it on first sight."""
            hid = ids.get((i, m))
            if hid is None:
                hid = ids[(i, m)] = add(g.states[i], view.to_set(m))
                pairs.append((hid, i, m))
            return hid

        initial = [index[q] for q in g.initial]
        initial_ids = [intern(i, sum(1 << j for j in initial if rank[j] == rank[i]))
                       for i in initial]

        transitions = {}
        # Breadth first: the walk reaches the states interned as it goes, and
        # reads the outcome classes of each state's kset once for all moves.
        for hid, i, m in pairs:
            outcomes = view.outcome_masks(m)
            for c, k, successors in view.row(i):
                classes = outcomes[k]
                transitions[(hid, c)] = frozenset([intern(t, classes[rank[t]]) for t in successors])

    arena = Arena(g.agents, g.actions, states, labels, initial_ids,
                  g.observes, g.hidden, transitions)
    arena._refinement = (frozenset(view.members), kset)
    return HatArena(arena, g, view, base, kset)


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
