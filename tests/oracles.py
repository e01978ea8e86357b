"""Independent oracles and generators for the test suite.

Everything here recomputes expected answers from first principles, by a
different route than the engine under test: brute-force run enumeration for
knowledge and one-step ability, classical perfect-information fixpoints for
coalition objectives, a replay harness that executes extracted strategies
against every opponent resolution, and an isomorphism check for repeated
refinement. Keep these independent of the engine internals; they only use the
public Arena interface, except construction_failures, which inspects the
refined arena and goal tables the engine built.
"""

import itertools
from collections import deque

from atldk import ArenaError, load_arena


class Run:
    """A finite run: states r[0..n] connected by joint actions a[0..n-1]."""

    def __init__(self, states, actions=()):
        self.states = tuple(states)
        self.actions = tuple(tuple(a) for a in actions)
        if not self.states:
            raise ArenaError("a run needs at least one state")
        if len(self.actions) != len(self.states) - 1:
            raise ArenaError("run has %d actions for %d states"
                             % (len(self.actions), len(self.states)))

    def __len__(self):
        """Number of transitions."""
        return len(self.actions)

    def __eq__(self, other):
        return (isinstance(other, Run) and self.states == other.states
                and self.actions == other.actions)

    def __hash__(self):
        return hash((self.states, self.actions))

    def __repr__(self):
        parts = [self.states[0]]
        for act, q in zip(self.actions, self.states[1:]):
            parts.append("-%s->" % (act,))
            parts.append(q)
        return "Run(%s)" % " ".join(str(p) for p in parts)

    @property
    def last(self):
        return self.states[-1]

    def extend(self, action, state):
        return Run(self.states + (state,), self.actions + (tuple(action),))

    def is_initialized(self, arena):
        return self.states[0] in arena.initial

    def is_valid(self, arena):
        for q, c, q2 in zip(self.states, self.actions, self.states[1:]):
            if q2 not in arena.succ(q, c):
                return False
        return True


AGENTS = ("a1", "a2")
PROP_POOL = ("p", "q", "r")
ACTION_POOL = ("a", "b")


def random_arena_document(rng, max_states=4, max_actions=2, max_props=3,
                          full_obs=False, unique_labels=False, min_states=2):
    """A random serial arena document over two agents.

    With full_obs every prop is observed by both agents; unique_labels adds a
    marker prop per state (observed by all) so distinct states always carry
    distinct observations.
    """
    n_states = rng.randint(min_states, max_states)
    states = ["q%d" % i for i in range(n_states)]
    props = list(PROP_POOL[:rng.randint(0, max_props)])

    observes = {a: set() for a in AGENTS}
    hidden = []
    for prop in props:
        owner = "both" if full_obs else rng.choice(("a1", "a2", "both", "hidden"))
        if owner == "hidden":
            hidden.append(prop)
        elif owner == "both":
            for a in AGENTS:
                observes[a].add(prop)
        else:
            observes[owner].add(prop)

    labels = {q: set(p for p in props if rng.random() < 0.5) for q in states}
    if unique_labels:
        for q in states:
            marker = "at_%s" % q
            labels[q].add(marker)
            for a in AGENTS:
                observes[a].add(marker)

    agents = []
    for a in AGENTS:
        n_act = rng.randint(1, max_actions)
        agents.append({
            "name": a,
            "actions": list(ACTION_POOL[:n_act]),
            "observes": sorted(observes[a]),
        })

    initial = [q for q in states if rng.random() < 0.4]
    if not initial:
        initial = [rng.choice(states)]

    transitions = []
    pools = [entry["actions"] for entry in agents]
    for q in states:
        for c in itertools.product(*pools):
            branch = 1 if rng.random() < 0.7 else 2
            to = rng.sample(states, min(branch, n_states))
            transitions.append({
                "from": q,
                "actions": {a: act for a, act in zip(AGENTS, c)},
                "to": to,
            })

    return {
        "agents": agents,
        "hidden_props": hidden,
        "states": [{"id": q, "labels": sorted(labels[q])} for q in states],
        "initial": initial,
        "transitions": transitions,
    }


def random_arena(rng, **kwargs):
    return load_arena(random_arena_document(rng, **kwargs))


def random_coalition(rng):
    return rng.choice((["a1"], ["a2"], ["a1", "a2"]))


def comma_id_document():
    """A valid arena whose state ids contain ',': from the initial kset {x,y},
    agent A's two actions reach the ksets {q,a,"b,c"} and {q,"a,b",c}, whose
    members join to the same text."""
    loops = ("q", "a", "b,c", "a,b", "c")
    moves = [("x", "m", ["q", "a", "b,c"]), ("x", "n", ["q", "a,b", "c"]),
             ("y", "m", ["q"]), ("y", "n", ["q"])]
    moves += [(s, act, [s]) for s in loops for act in ("m", "n")]
    return {
        "agents": [{"name": "A", "actions": ["m", "n"], "observes": ["o"]}],
        "states": [{"id": s} for s in loops]
        + [{"id": "x", "labels": ["o"]}, {"id": "y", "labels": ["o"]}],
        "initial": ["x", "y"],
        "transitions": [{"from": q, "actions": {"A": act}, "to": to}
                        for q, act, to in moves],
    }


def initialized_runs(arena, depth):
    """Every initialized valid run with at most the given number of steps.

    Exhaustive, so only call this on very small arenas.
    """
    frontier = [Run([q]) for q in arena.initial]
    runs = list(frontier)
    for _ in range(depth):
        step = []
        for run in frontier:
            for c in arena.joint_actions():
                for t in arena.succ(run.last, c):
                    step.append(run.extend(c, t))
        runs.extend(step)
        frontier = step
    return runs


def coalition_tuple(arena, coalition):
    """A coalition's members in arena agent order; unknown members raise
    ArenaError."""
    unknown = set(coalition) - set(arena.agents)
    if unknown:
        raise ArenaError("unknown coalition members %s" % sorted(unknown))
    return tuple(a for a in arena.agents if a in coalition)


def coalition_actions(arena, coalition):
    """Every coalition action, a tuple aligned with coalition_tuple order."""
    members = coalition_tuple(arena, coalition)
    return list(itertools.product(*(arena.actions[a] for a in members)))


def extensions(arena, coalition, c_a):
    """Every joint action agreeing with the coalition action c_a on the coalition."""
    assignment = dict(zip(coalition_tuple(arena, coalition), c_a))
    pools = [(assignment[a],) if a in assignment else arena.actions[a] for a in arena.agents]
    return itertools.product(*pools)


def restrict_action(arena, coalition, c):
    """A joint action's coalition part."""
    members = coalition_tuple(arena, coalition)
    return tuple(act for a, act in zip(arena.agents, c) if a in members)


def obs_signature(arena, coalition, run):
    """What the coalition sees of a run: projected actions and observations."""
    acts = tuple(restrict_action(arena, coalition, c) for c in run.actions)
    views = tuple(arena.obs(coalition, q) for q in run.states)
    return (acts, views)


def coalition_props(arena, coalition):
    """The props some coalition member observes; unknown members raise
    ArenaError."""
    return frozenset().union(*(arena.observes[a] for a in coalition_tuple(arena, coalition)))


def obs_equiv(arena, coalition, run1, run2):
    """Observational equivalence: equal length, equal coalition-projected actions
    at every step, equal coalition observations at every position."""
    if len(run1) != len(run2):
        return False
    for c1, c2 in zip(run1.actions, run2.actions):
        if restrict_action(arena, coalition, c1) != restrict_action(arena, coalition, c2):
            return False
    for q1, q2 in zip(run1.states, run2.states):
        if arena.obs(coalition, q1) != arena.obs(coalition, q2):
            return False
    return True


def out(arena, source, coalition, c_a, z):
    """Successors of the source set under c_a whose coalition observation is exactly z.

    Props visible to the coalition but outside z must be false at the successor.
    """
    z = frozenset(z)
    result = set()
    for c in extensions(arena, coalition, c_a):
        for s in source:
            for t in arena.succ(s, c):
                if arena.obs(coalition, t) == z:
                    result.add(t)
    return frozenset(result)


def equivalence_classes(arena, coalition, runs):
    """Group runs by what the coalition observes of them."""
    classes = {}
    for run in runs:
        classes.setdefault(obs_signature(arena, coalition, run), []).append(run)
    return classes


def knowledge_oracle(arena, coalition, prop, runs):
    """For each run, whether the coalition's knowledge of prop holds at its end:
    every observationally equivalent run (among the given ones) must end in a
    state labeled with prop."""
    classes = equivalence_classes(arena, coalition, runs)
    result = {}
    for signature, group in classes.items():
        value = all(prop in arena.labels[run.last] for run in group)
        for run in group:
            result[run] = value
    return result


def next_oracle(arena, coalition, prop, runs):
    """For each run, whether one coalition action forces prop at every successor
    of every observationally equivalent run's end state."""
    classes = equivalence_classes(arena, coalition, runs)
    result = {}
    for signature, group in classes.items():
        value = False
        for c_a in coalition_actions(arena, coalition):
            if all(prop in arena.labels[t]
                   for run in group
                   for c in extensions(arena, coalition, c_a)
                   for t in arena.succ(run.last, c)):
                value = True
                break
        for run in group:
            result[run] = value
    return result


def pre(arena, coalition, target):
    """States from which one coalition action sends every successor into the
    target, whatever the other agents do."""
    target = set(target)
    result = set()
    for q in arena.states:
        for c_a in coalition_actions(arena, coalition):
            if all(t in target
                   for c in extensions(arena, coalition, c_a)
                   for t in arena.succ(q, c)):
                result.add(q)
                break
    return result


def atl_next(arena, coalition, goal):
    """Perfect-information one-step ability."""
    return pre(arena, coalition, goal)


def atl_until(arena, coalition, hold, goal):
    """Perfect-information coalition until: least fixpoint of
    Z = goal | (hold & pre(Z))."""
    hold, goal = set(hold), set(goal)
    z = set()
    while True:
        nxt = goal | (hold & pre(arena, coalition, z))
        if nxt == z:
            return z
        z = nxt


def atl_weak_until(arena, coalition, hold, goal):
    """Perfect-information coalition weak until: greatest fixpoint of
    Z = goal | (hold & pre(Z))."""
    hold, goal = set(hold), set(goal)
    z = set(arena.states)
    while True:
        nxt = goal | (hold & pre(arena, coalition, z))
        if nxt == z:
            return z
        z = nxt


def states_where(arena, predicate):
    return {q for q in arena.states if predicate(q)}


def replay_until(arena, coalition, strategy, holds1, holds2, depth, budget=200000,
                 weak=False):
    """Execute a strategy against every opponent resolution and check the until
    objective on each play.

    holds1/holds2 are predicates on state ids. A play fails when it reaches a
    state where neither predicate holds, or runs for depth steps without
    discharging holds2; with weak, such a long play is won instead (the weak
    until objective). Returns the list of failing (state, history) pairs;
    empty means the strategy wins everywhere within the bound.
    """
    failures = []
    seen = set()
    frontier = [(q, (arena.obs(coalition, q),)) for q in arena.initial]
    explored = 0
    while frontier:
        q, history = frontier.pop()
        if (q, history) in seen:
            continue
        seen.add((q, history))
        explored += 1
        if explored > budget:
            raise RuntimeError("replay budget exceeded")
        if holds2(q):
            continue
        if not holds1(q):
            failures.append((q, history))
            continue
        if len(history) > depth:
            if not weak:
                failures.append((q, history))
            continue
        c_a = strategy.action(history)
        for c in extensions(arena, coalition, c_a):
            for t in arena.succ(q, c):
                frontier.append((t, history + (arena.obs(coalition, t),)))
    return failures


def history_witness_map(solution, automaton, hat):
    """The witness map of extract_witness_strategy, built the way it first
    was: one queue of (state, history) pairs, popped breadth-first, one entry
    per observation history up to depth |states|, in the order the queue
    meets them. Histories through a state without a choice get no entry and
    are not extended."""
    g = hat.source
    z0 = g.obs(hat.coalition, next(iter(automaton.source_kset)))
    depth_cap = len(automaton.states)
    mapping = {}
    queue = deque([(automaton.init, (z0,))])
    while queue:
        state, history = queue.popleft()
        if state not in solution.choice:
            continue
        c_a = solution.choice[state]
        mapping[history] = c_a
        if len(history) >= depth_cap:
            continue
        for z, target in automaton.classes[(state, c_a)]:
            queue.append((target, history + (z,)))
    return mapping


def resplit_isomorphism_failures(first, second):
    """Discrepancies between a refined arena and the refinement of its own
    refinement, compared through the base projection. Empty means the second
    refinement is a relabeling of the first (refining twice adds nothing)."""
    problems = []
    g1, g2 = first.arena, second.arena
    base = second.base

    if len(g1.states) != len(g2.states):
        problems.append("state counts differ: %d vs %d" % (len(g1.states), len(g2.states)))
    image = [base[h] for h in g2.states]
    if len(set(image)) != len(image) or set(image) != set(g1.states):
        problems.append("base projection is not a bijection onto the first refinement")
        return problems

    inverse = {base[h]: h for h in g2.states}
    if sorted(base[h] for h in g2.initial) != sorted(g1.initial):
        problems.append("initial states do not correspond")
    for h in g2.states:
        if g2.labels[h] != g1.labels[base[h]]:
            problems.append("label mismatch at %s" % h)
    for h in g2.states:
        for c in g2.joint_actions():
            got = {base[t] for t in g2.succ(h, c)}
            want = set(g1.succ(base[h], c))
            if got != want or len(got) != len(g2.succ(h, c)):
                problems.append("transition mismatch at (%s, %r)" % (h, c))
    for h in g2.states:
        want = frozenset(states_with_kset(first, first.kset[base[h]]))
        if second.kset[h] != want:
            problems.append("knowledge set at %s is not the class of %s" % (h, base[h]))
    return problems


def construction_failures(hat):
    """Invariants that the knowledge split and the goal tables keep by
    construction, which the checker does not re-check as it runs.

    Every refined state's base lies in its kset, and every kset is one
    coalition observation. Every state of the hat's goal tables, expanded or
    met as a successor, has its pending set inside its kset, a kset that is
    one coalition observation, and pending states labeled p1 and not p2.
    Returns one line per violation; empty means all hold."""
    g, coalition = hat.source, hat.coalition
    problems = []

    def incoherent(s):
        return len({g.obs(coalition, q) for q in s}) != 1

    for h in hat.arena.states:
        if hat.base[h] not in hat.kset[h]:
            problems.append("refined state %s lies outside its kset" % h)
        if incoherent(hat.kset[h]):
            problems.append("refined state %s has an incoherent kset" % h)
    for (p1, p2), table in hat._goal_tables.items():
        seen = set()
        for state, (_, _, successors) in table.items():
            for s in (state,) + successors:
                if s in seen or s.is_bot:
                    continue
                seen.add(s)
                where = "goal table (%s, %s) state %s" % (p1, p2, s.pretty())
                if not s.pending <= s.kset:
                    problems.append("%s: pending escapes the kset" % where)
                if incoherent(s.kset):
                    problems.append("%s: incoherent kset" % where)
                if any(p1 not in g.labels[r] or p2 in g.labels[r] for r in s.pending):
                    problems.append("%s: a pending state lacks p1 or holds p2" % where)
    return problems


def states_with_kset(hat, s):
    """The refined states whose knowledge set is s."""
    s = frozenset(s)
    return [h for h in hat.arena.states if hat.kset[h] == s]


def same_kset(hat, h1, h2):
    """The knowledge-set equivalence on refined states."""
    return hat.kset[h1] == hat.kset[h2]


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


def hat_state_of(g, hat, run):
    """The refined state a source run ends in."""
    return lift_run(g, hat, run).states[-1]
