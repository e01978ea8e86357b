"""Knowledge subset construction: refine an arena so states carry knowledge sets,
and label knowledge and one-step coalition ability directly on the result."""

from __future__ import annotations

from collections import deque

from .arena import Arena, ArenaError, Run


class SplitLimitExceeded(ArenaError):
    """Raised when a refinement would materialize more states than allowed."""


class HatState:
    """A refined state: a base state paired with its knowledge set."""

    __slots__ = ("base", "kset")

    def __init__(self, base, kset):
        self.base = base
        self.kset = frozenset(kset)
        if base not in self.kset:
            raise ArenaError("hat state %s not a member of its kset" % base)

    def __eq__(self, other):
        return isinstance(other, HatState) and self.base == other.base and self.kset == other.kset

    def __hash__(self):
        return hash((self.base, self.kset))

    def __repr__(self):
        return "HatState(%s, {%s})" % (self.base, ",".join(sorted(self.kset)))


def hat_id(arena, base, kset):
    """Stable id for a refined state: base id plus the kset in arena state order."""
    members = ",".join(arena.sorted_states(kset))
    return "%s@{%s}" % (base, members)


class HatArena:
    """The refined arena for one coalition, with provenance back to its source.

    The refined system is itself a valid Arena (same agents, actions, and
    observability); state ids encode the base state and its kset.
    """

    def __init__(self, arena, source, coalition, base, kset):
        self.arena = arena
        self.source = source
        self.coalition = frozenset(coalition)
        self.members = source.coalition_tuple(coalition)
        self.base = base
        self.kset = kset
        self.ksets = frozenset(kset.values())
        # Goal-automaton transitions per (p1, p2), filled by strategy_automata.
        self._goal_tables = {}

    def hat_states(self):
        return self.arena.states

    def states_with_kset(self, s):
        s = frozenset(s)
        return [h for h in self.arena.states if self.kset[h] == s]

    def same_kset(self, h1, h2):
        """The knowledge-set equivalence on refined states."""
        return self.kset[h1] == self.kset[h2]

    def require_kset(self, s):
        s = frozenset(s)
        if s not in self.ksets:
            raise ArenaError("unknown kset {%s}" % ",".join(sorted(s)))
        return s


def split(g, coalition, limit=None):
    """Build the refined arena for a coalition, materializing reachable states only.

    The initial refined states pair each initial state with the initial states
    it cannot be told apart from; knowledge sets then evolve deterministically
    per coalition action and observed label. A limit aborts the construction
    once more refined states than that would be materialized.
    """
    members = g.coalition_tuple(coalition)
    initial_hats = []
    for q0 in g.initial:
        z0 = g.obs(coalition, q0)
        s0 = frozenset(s for s in g.initial if g.obs(coalition, s) == z0)
        initial_hats.append(HatState(q0, s0))

    ids = {}
    base = {}
    kset = {}
    states = []
    labels = {}

    def intern(h):
        if h in ids:
            return ids[h]
        if limit is not None and len(states) >= limit:
            raise SplitLimitExceeded(
                "state cap exceeded: refinement for {%s} needs more than %d states"
                % (",".join(sorted(coalition)), limit))
        hid = hat_id(g, h.base, h.kset)
        ids[h] = hid
        base[hid] = h.base
        kset[hid] = h.kset
        states.append(hid)
        labels[hid] = g.labels[h.base]
        return hid

    frontier = deque()
    for h in initial_hats:
        if h not in ids:
            intern(h)
            frontier.append(h)
    initial_ids = [ids[h] for h in initial_hats]

    transitions = {}
    joint = list(g.joint_actions())
    while frontier:
        h = frontier.popleft()
        hid = ids[h]
        for c in joint:
            c_a = g.restrict_action(coalition, c)
            classes = g.outcome_classes(h.kset, coalition, c_a)
            targets = set()
            for q2 in g.sorted_states(g.succ(h.base, c)):
                h2 = HatState(q2, classes[g.obs(coalition, q2)])
                if h2 not in ids:
                    intern(h2)
                    frontier.append(h2)
                targets.add(ids[h2])
            transitions[(hid, c)] = targets

    arena = Arena(g.agents, g.actions, states, labels, initial_ids,
                  g.observes, g.hidden, transitions)
    return HatArena(arena, g, coalition, base, kset)


def lift_run(g, hat, run):
    """The unique refined run matching an initialized run of the source arena."""
    if not run.is_initialized(g):
        raise ArenaError("run does not start in an initial state")
    if not run.is_valid(g):
        raise ArenaError("run does not follow the transition relation")
    start = None
    for hid in hat.arena.initial:
        if hat.base[hid] == run.states[0]:
            start = hid
            break
    if start is None:
        raise ArenaError("no initial refined state for %s" % run.states[0])
    states = [start]
    for c, q2 in zip(run.actions, run.states[1:]):
        current = states[-1]
        target = None
        for hid in hat.arena.succ(current, c):
            if hat.base[hid] == q2:
                target = hid
                break
        if target is None:
            raise ArenaError("run step %s -%r-> %s does not lift" % (current, c, q2))
        states.append(target)
    return Run(states, run.actions)


def project_run(hat, run):
    """Drop the knowledge sets from a refined run."""
    return Run([hat.base[hid] for hid in run.states], run.actions)


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
    g = hat.source
    actions = g.coalition_actions(coalition)
    per_kset = {}
    result = {}
    for hid in hat.arena.states:
        s = hat.kset[hid]
        if s not in per_kset:
            per_kset[s] = any(
                all(prop in g.labels[t]
                    for c in g.extensions(coalition, c_a)
                    for r in s
                    for t in g.succ(r, c))
                for c_a in actions)
        result[hid] = per_kset[s]
    return result
