"""Knowledge subset construction: refine an arena so states carry knowledge sets,
and label knowledge and one-step coalition ability directly on the result."""

from __future__ import annotations

import copy

from .arena import ArenaError, StateCapExceeded, _bits, _CoalitionView, _state_names


class HatArena:
    """The refined arena for one coalition, an Arena whose states are the ints
    0..n-1, with the source's compiled view for the coalition, and each
    state's base and kset as the arena's refinement records them. A kset is
    a mask in the source's numbering, bit i for source.states[i], as in the
    view. limit is split's cap, which also bounds each goal table's rows."""

    def __init__(self, arena, view, limit=None):
        r = arena._refinement
        self.arena, self.source, self.view, self.limit = arena, r.source, view, limit
        self.coalition, self.base, self.kset = r.coalition, r.base, r.kset
        # Discovery order, which goal-table rows and until choices follow.
        self.ksets = dict.fromkeys(self.kset).keys()
        # Goal-automaton transitions per (p1, p2), filled by strategy_automata.
        self._goal_tables = {}

    def require_kset(self, s):
        """The mask of the kset whose members are exactly the source states s."""
        s, index = frozenset(s), self.view.index
        m = sum(1 << index[q] for q in s if q in index)
        if m not in self.ksets or m.bit_count() != len(s):
            raise ArenaError("unknown kset {%s}" % ",".join(sorted(map(str, s))))
        return m


class _Refinement:
    """What split records on a refined arena: the coalition, the source arena,
    per state its base and kset mask, and whether the ids of the loaded arena
    it descends from are plain (hold none of , @ { }). A state's text id is
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
            text = self._text[s] = ",".join(_state_names(source, s))
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
                             % (text, *(_state_names(g, refinement.kset[k]) for k in (first, h))))


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
    number g's states as g does, each paired with the mask of the states that
    share its kset. The result shares g's states, labels and rows and records
    only that kset map, each state its own base.
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
            lift[s] = lift.get(s, 0) | 1 << h
        n, base, kset = len(g.states), g.states, [lift[s] for s in refined.kset]
        states, labels, initial, rows = g.states, g.labels, g.initial, g._rows
    else:
        # The walk runs on (state index, kset mask) pairs, numbered through
        # one {kset mask: number} dict per state index. Equal successor
        # tuples are one object.
        alike = view.alike
        ids, pairs, rows, shared = [{} for _ in g.states], [], [], {}

        def intern(i, m):
            """Number the refined state (i, m), seen for the first time."""
            if limit is not None and len(pairs) >= limit:
                raise over()
            h = ids[i][m] = len(pairs)
            pairs.append((i, m))
            return h

        # Initial states are distinct, so each initial pair is new.
        start = [view.index[q] for q in g.initial]
        mask = sum(1 << i for i in start)
        initial = tuple(intern(i, mask & alike[i]) for i in start)
        # Breadth first: the walk reaches the states interned as it goes. The
        # kset of successor t under coalition action k is the union of the
        # kset's successors under k cut to the states that look like t.
        for i, m in pairs:
            unions, row = view.unions(m), []
            for k, successors in view.row(i):
                u, targets = unions[k], []
                for t in successors:
                    s = u & alike[t]
                    h = ids[t].get(s)
                    targets.append(intern(t, s) if h is None else h)
                targets = tuple(sorted(targets))
                row.append(shared.setdefault(targets, targets))
            rows.append(row)
        n = len(pairs)
        base, kset = [g.states[i] for i, _ in pairs], [m for _, m in pairs]
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
    g = hat.source
    off = sum(1 << i for i, q in enumerate(g.states) if prop not in g.labels[q])
    return _per_kset(hat, lambda s: not s & off)


def label_next(hat, prop):
    """Which refined states satisfy one-step coalition ability for a prop: some
    coalition action forces prop at every successor of every kset member, however
    the other agents act."""
    view, labels = hat.view, hat.source.labels
    good = {i for i, q in enumerate(hat.source.states) if prop in labels[q]}
    return _per_kset(hat, lambda s: len(view.actions) > len(
        {k for i in _bits(s) for k, successors in view.row(i)
         if not good.issuperset(successors)}))
