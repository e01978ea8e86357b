"""Knowledge subset construction: refine an arena so states carry knowledge sets,
and label knowledge and one-step coalition ability directly on the result."""

from __future__ import annotations

import copy

from .arena import ArenaError, StateCapExceeded, _CoalitionView


class HatArena:
    """The refined arena for one coalition, an Arena whose states are the ints
    0..n-1, with the source's compiled view for the coalition, and each
    state's base and kset as the arena's refinement records them. limit is
    split's cap, which also bounds each goal table's rows."""

    def __init__(self, arena, view, limit=None):
        r = arena._refinement
        self.arena, self.source, self.view, self.limit = arena, r.source, view, limit
        self.coalition, self.base, self.kset = r.coalition, r.base, r.kset
        # Discovery order, which goal-table rows and until choices follow.
        self.ksets = dict.fromkeys(self.kset).keys()
        # Goal-automaton transitions per (p1, p2), filled by strategy_automata.
        self._goal_tables = {}

    def require_kset(self, s):
        s = frozenset(s)
        if s not in self.ksets:
            raise ArenaError("unknown kset {%s}" % ",".join(sorted(map(str, s))))
        return s


class _Refinement:
    """What split records on a refined arena: the coalition, the source arena,
    per state its base and kset, and whether the ids of the loaded arena it
    descends from are plain (hold none of , @ { }). A state's text id is
    base@{kset members}, each named by the source, members in source order;
    member text is rendered once per kset."""

    def __init__(self, coalition, source, base, kset):
        self.coalition, self.source, self.base, self.kset = coalition, source, base, kset
        self.plain = (source._refinement.plain if source._refinement
                      else frozenset(",@{}").isdisjoint("".join(source.states)))
        self._text = {}

    def name(self, h):
        s, source = self.kset[h], self.source
        text = self._text.get(s)
        if text is None:
            text = self._text[s] = ",".join(map(source.name, source.sorted_states(s)))
        return "%s@{%s}" % (source.name(self.base[h]), text)


def _check_ids(refinement):
    """Reject the first refined state whose id an earlier one already has,
    naming both ksets.

    Needed only when some id of the loaded arena is not plain. With plain
    ids, every id is a term of the grammar id := atom | id@{id,...,id} whose
    atoms hold none of , @ { }: braces balance, so the last } matches one {,
    the text before its @ is the base, and the commas outside inner braces
    split the members. Each id parses one way, so distinct (base, kset)
    pairs, with members in source order and named distinctly by induction,
    render distinctly."""
    seen, g = {}, refinement.source
    for h in range(len(refinement.base)):
        text = refinement.name(h)
        first = seen.setdefault(text, h)
        if first != h:
            raise ArenaError("refined state id %r names two knowledge sets, %s and %s"
                             % (text, *([g.name(q) for q in g.sorted_states(refinement.kset[k])]
                                        for k in (first, h))))


def split(g, coalition, limit=None):
    """Build the refined arena for a coalition, materializing reachable states only.

    A refined state is a pair (base state, kset), numbered 0..n-1 in the order
    the walk meets it. The initial refined states pair each initial state with
    the initial states it cannot be told apart from; knowledge sets then evolve
    deterministically per coalition action and observed label. A limit raises
    StateCapExceeded as soon as more refined states than that would be
    materialized. The arena is valid by construction, so it skips Arena's
    validation (tests/oracles.py construction_failures checks what that would).

    When g is itself a refinement by the same coalition, maybe with props
    added since by with_prop, refining again adds no knowledge: the walk would
    number g's states as g does, each paired with the states that share its
    kset. The result shares g's states, labels and rows and records only
    that kset map, each state its own base.
    """
    view = _CoalitionView(g, coalition)
    members = frozenset(view.members)

    def over():
        return StateCapExceeded("state cap exceeded: refinement for {%s} needs more than %s "
                                "states" % (",".join(sorted(coalition)), limit))

    refined = g._refinement
    if refined is not None and refined.coalition == members:
        if limit is not None and len(g.states) > limit:
            raise over()
        lift = {}
        for h, s in enumerate(refined.kset):
            lift.setdefault(s, []).append(h)
        lift = {s: frozenset(hs) for s, hs in lift.items()}
        n, base, kset = len(g.states), g.states, [lift[s] for s in refined.kset]
        states, labels, initial, rows = g.states, g.labels, g.initial, g._rows
    else:
        # The walk runs on (state index, kset mask) pairs, interned as ints.
        # Equal successor tuples are one object.
        index, rank = view.index, view.rank
        ids, pairs, rows, shared = {}, [], [], {}

        def intern(i, m):
            """The number of the refined state (i, m), materializing it on first sight."""
            h = ids.get((i, m))
            if h is None:
                if limit is not None and len(pairs) >= limit:
                    raise over()
                h = ids[(i, m)] = len(pairs)
                pairs.append((i, m))
            return h

        start = [index[q] for q in g.initial]
        initial = tuple(intern(i, sum(1 << j for j in start if rank[j] == rank[i]))
                        for i in start)
        # Breadth first: the walk reaches the states interned as it goes, and
        # reads the outcome classes of each state's kset once for all moves.
        for i, m in pairs:
            outcomes, row = view.outcome_masks(m), []
            for k, successors in view.row(i):
                classes = outcomes[k]
                targets = tuple(sorted([intern(t, classes[rank[t]]) for t in successors]))
                row.append(shared.setdefault(targets, targets))
            rows.append(row)
        n = len(pairs)
        base, kset = [g.states[i] for i, _ in pairs], [view.to_set(m) for _, m in pairs]
        states, labels = range(n), {h: g.labels[q] for h, q in enumerate(base)}

    refinement = _Refinement(members, g, base, kset)
    if not refinement.plain:
        _check_ids(refinement)
    # A trusted copy of g with the refined states: no validation, no dict copies.
    arena = copy.copy(g)
    arena.states, arena.labels, arena.initial, arena._rows = states, labels, initial, rows
    arena._state_index, arena._refinement = range(n), refinement
    return HatArena(arena, view, limit)


def _per_kset(hat, holds):
    """{refined state: holds(its kset)}, deciding each kset once."""
    per_kset = {s: holds(s) for s in hat.ksets}
    return {h: per_kset[s] for h, s in enumerate(hat.kset)}


def label_knowledge(hat, prop):
    """Which refined states satisfy distributed knowledge of a prop: those whose
    entire kset carries it."""
    labels = hat.source.labels
    return _per_kset(hat, lambda s: all(prop in labels[q] for q in s))


def label_next(hat, prop):
    """Which refined states satisfy one-step coalition ability for a prop: some
    coalition action forces prop at every successor of every kset member, however
    the other agents act."""
    view, labels = hat.view, hat.source.labels
    good = {i for i, q in enumerate(hat.source.states) if prop in labels[q]}
    return _per_kset(hat, lambda s: len(view.actions) > len(
        {k for q in s for k, successors in view.row(view.index[q])
         if not good.issuperset(successors)}))
