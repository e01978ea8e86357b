"""Independent oracles and generators for the test suite.

Everything here recomputes expected answers from first principles, by a
different route than the engine under test: brute-force run enumeration for
knowledge and one-step ability, a depth-capped search over explicit runs for
until and weak until, classical perfect-information fixpoints for coalition
objectives, a generic occurrence-acceptance solver for goal automata, replay
harnesses that execute extracted strategies against every opponent resolution
(to a depth, or on the product with a strategy machine's finite memory),
an isomorphism check for repeated refinement, and frozenset walks of the
knowledge split and of goal-table rows by their definitions. Keep these
independent of the engine internals; they only use the public Arena
interface, except transitions, which reads an arena's successor rows,
outcome_classes, which reads a coalition view the engine compiles,
core_fields, which reads the observation core a view has built,
construction_failures, which inspects the refined arena and goal tables
the engine built, level_failures, which runs the checker with the
engine calls it makes recorded, the occurrence solver, which reads a goal
automaton, the goal-row reference, which reads a refinement's source and
coalition, and walk_views, which walks the engine's per-kset goal views.
The engine keeps a set of an arena's states as a mask, bit i for its i-th
state: a refined state's kset in its source's numbering, and each part of a
goal state. mask_of and states_of translate between such masks and states,
sorted_states puts states in arena order. A goal table numbers its goal
states: as_sets and goal_state translate a number to and from a pair of
state sets, pair_as_sets reads a (pending, kset) pair of masks as one,
unnumbered_row turns a numbered row back into the reference form of
(observation, (pending, kset)) classes, and delta and classes read an
automaton's rows back as per (state, action) dicts.
"""

import contextlib
import importlib.util
import itertools
import random
import weakref
from collections import deque
from pathlib import Path
from types import MappingProxyType

import atldk.checker as checker
import atldk.formula as fm
from atldk import ArenaError, StateCapExceeded, explain, load_arena, model_check
from atldk.arena import _CoalitionView
from atldk.strategy_automata import (BOT, UNTIL, WEAK_UNTIL, build_until_automaton,
                                     build_weak_until_automaton)


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
            if q2 not in succ(arena, q, c):
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


FAMILIES = Path(__file__).resolve().parent.parent / "benchmarks" / "families.py"


def family_f(seed, n):
    """The benchmark's family-F arena of n states drawn from Random(seed)."""
    spec = importlib.util.spec_from_file_location("families", FAMILIES)
    families = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(families)
    return load_arena(families.family_f_document(random.Random(seed), n))


def acceptance_batches():
    """The arenas of the acceptance batches: the first 200 seeded random
    arenas that carry a prop, and 100 fully observable ones."""
    seed = count = 0
    while count < 200:
        g = random_arena(random.Random(seed))
        if g.props:
            count += 1
            yield seed, g
        seed += 1
    for seed in range(100):
        yield 60000 + seed, random_arena(random.Random(60000 + seed),
                                         full_obs=True, unique_labels=True)


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
                for t in succ(arena, run.last, c):
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


def mask_of(arena, states):
    """The mask of a set of the arena's states, bit i for its i-th state."""
    states = set(states)
    assert states <= set(arena.states), "not states of the arena: %s" % (
        states - set(arena.states))
    return sum(1 << i for i, q in enumerate(arena.states) if q in states)


def states_of(arena, m):
    """The arena's states in mask m, in arena order."""
    assert not m >> len(arena.states), "bits past the arena's states"
    return [q for i, q in enumerate(arena.states) if m >> i & 1]


def sorted_states(arena, states):
    """The given states of the arena, in arena order."""
    return states_of(arena, mask_of(arena, states))


# An arena's own fields: no coalition view, memo or outcome class among them.
ARENA_FIELDS = {"agents", "actions", "states", "labels", "initial", "observes", "hidden",
                "props", "_state_index", "_refinement", "_rows"}


def transitions(arena):
    """The relation as {(state, joint action): frozenset of successor states},
    read off the arena's rows."""
    states, joint = arena.states, list(arena.joint_actions())
    return {(q, c): frozenset([states[t] for t in successors])
            for q, row in zip(states, arena._rows) for c, successors in zip(joint, row)}


# Each arena's transitions, derived on the first succ call: an arena does not
# change once built.
_TRANSITIONS = weakref.WeakKeyDictionary()


def succ(arena, q, c):
    """The successors of state q under joint action c."""
    relation = _TRANSITIONS.get(arena)
    if relation is None:
        relation = _TRANSITIONS[arena] = transitions(arena)
    return relation[(q, tuple(c))]


def obs(arena, coalition, q):
    """The coalition's observation of a state: its label restricted to the props
    some member observes. Unknown members or states raise ArenaError."""
    props = coalition_props(arena, coalition)
    label = arena.labels.get(q)
    if label is None:
        raise ArenaError("unknown state %s" % q)
    return label & props


def outcome_classes(arena, source, coalition, c_a):
    """The engine's grouping of all successors of the source set under
    extensions of the coalition action c_a by their coalition observation: a
    read-only {observation: successor set} in observation order, read from a
    coalition view compiled for this call. Unknown members, actions and
    states raise ArenaError."""
    view = _CoalitionView(arena, coalition)
    c_a = tuple(c_a)
    if c_a not in view.actions:
        raise ArenaError("%r is not an action of coalition {%s}"
                         % (c_a, ",".join(view.members)))
    source = frozenset(source)
    unknown = source.difference(arena.states)
    if unknown:
        raise ArenaError("unknown states %s" % sorted(unknown, key=str))
    union = view.unions(mask_of(arena, source))[view.actions.index(c_a)]
    return MappingProxyType({view.observations[r]: frozenset(states_of(arena, part))
                             for r, part in zip(*view.classes(union))})


CORE = ("observations", "rank", "rank_of", "alike")


def core_fields(view):
    """{name: value} of the coalition view's observation core, as far as the
    view has built it: read from the view's own attributes, so reading
    builds nothing."""
    return {name: vars(view)[name] for name in CORE if name in vars(view)}


def reference_core(arena, coalition):
    """A coalition view's observation core from frozensets, as core_fields
    reads it: the distinct observations (obs) ordered by their sorted props,
    each state's rank among them in arena order, the rank of each
    observation, and per state the mask of the states with its observation."""
    observation = [obs(arena, coalition, q) for q in arena.states]
    observations = sorted(set(observation), key=sorted)
    return {"observations": observations,
            "rank": [observations.index(z) for z in observation],
            "rank_of": {z: observations.index(z) for z in observations},
            "alike": [mask_of(arena, (r for r, y in zip(arena.states, observation) if y == z))
                      for z in observation]}


def obs_signature(arena, coalition, run):
    """What the coalition sees of a run: projected actions and observations."""
    acts = tuple(restrict_action(arena, coalition, c) for c in run.actions)
    views = tuple(obs(arena, coalition, q) for q in run.states)
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
        if obs(arena, coalition, q1) != obs(arena, coalition, q2):
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
            for t in succ(arena, s, c):
                if obs(arena, coalition, t) == z:
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
                   for t in succ(arena, run.last, c)):
                value = True
                break
        for run in group:
            result[run] = value
    return result


def until_oracle(arena, coalition, p1, p2, runs, depth, weak=False):
    """For each run, whether the coalition can enforce p1 U p2 (p1 W p2 with
    weak) from it: one strategy, uniform over observation histories, must win
    from every observationally equivalent run among the given ones.

    An AND-OR search over explicit runs: the coalition picks one action for
    the whole class of runs it cannot tell apart, and the environment picks
    the next observation. From the class's length on, a run meets the goal at
    its first state carrying p2, and breaks it at an earlier state without
    p1; a run that met the goal constrains nothing further. Until wins once
    no run is pending; weak until loses once some run breaks. Each search
    stops after depth steps, so until answers true and weak until answers
    false only when that holds within depth steps; both are exact once depth
    reaches the state count of the class's goal automaton, which bounds the
    attractor ranks."""
    def wins(node, start, left):
        pending = []
        for run in node:
            for q in run.states[start:]:
                if p2 in arena.labels[q]:
                    break
                if p1 not in arena.labels[q]:
                    return False
            else:
                pending.append(run)
        if not pending:
            return True
        if left == 0:
            return weak
        for c_a in coalition_actions(arena, coalition):
            # The runs of a node agree on all the coalition saw and did, so
            # the next observation alone splits their extensions into classes.
            classes = {}
            for run in pending:
                for c in extensions(arena, coalition, c_a):
                    for t in succ(arena, run.last, c):
                        classes.setdefault(obs(arena, coalition, t), []).append(run.extend(c, t))
            if all(wins(group, start, left - 1) for group in classes.values()):
                return True
        return False

    result = {}
    for group in equivalence_classes(arena, coalition, runs).values():
        value = wins(group, len(group[0]), depth)
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
                   for t in succ(arena, q, c)):
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


DEFAULT_ORACLE_GUARD = 20

# BOT among goal states written as pairs of state-name sets.
SET_BOT = (None, None)


def pair_as_sets(hat, pair):
    """A goal state's (pending, kset) masks as frozensets of the hat source's
    states, bit i standing for its i-th state; BOT's pair (0, 0) as SET_BOT."""
    if pair == (0, 0):
        return SET_BOT
    return tuple(frozenset(states_of(hat.source, m)) for m in pair)


def as_sets(automaton, state):
    """A goal state of the automaton's table as pair_as_sets reads its pair."""
    return pair_as_sets(automaton.hat, automaton.rows.pairs[state])


def goal_state(automaton, pending, kset):
    """The number the automaton's table gives the goal state with these
    pending and kset members, as as_sets reads it."""
    g = automaton.hat.source
    return automaton.rows.number[(mask_of(g, pending), mask_of(g, kset))]


def state_pairs(table, states):
    """The (pending, kset) mask pairs of goal states the table numbers, in order."""
    return [table.pairs[t] for t in states]


def row_classes(table, state):
    """A numbered goal-table row read back per coalition action, in product
    order: its (observation, successor number) classes, () where the action
    fails."""
    ranks, targets, _ = table[state]
    observations = table.view.observations
    return {c_a: tuple((observations[r], t) for r, t in zip(rs, ts))
            for c_a, rs, ts in zip(table.view.actions, ranks, targets)}


def unnumbered_row(table, state):
    """A numbered goal-table row turned back into the reference form: per
    coalition action, in product order, its (observation frozenset,
    (pending, kset)) classes, () where the action fails; then its distinct
    successors as (pending, kset) pairs. BOT is the pair (0, 0)."""
    pairs = table.pairs
    return ({c_a: tuple((z, pairs[t]) for z, t in classes)
             for c_a, classes in row_classes(table, state).items()},
            tuple(pairs[t] for t in table[state][2]))


def classes(automaton):
    """{(state, coalition action): its (observation, successor) classes}, in
    state and action order, read off the automaton's rows; () fails to BOT."""
    return {(state, c_a): pairs for state in automaton.states
            for c_a, pairs in row_classes(automaton.rows, state).items()}


def delta(automaton):
    """{(state, coalition action): its successors}, keyed as classes(); an
    action without classes leads to BOT alone."""
    return {key: tuple(t for _, t in pairs) or (BOT,)
            for key, pairs in classes(automaton).items()}


def unnumbered(automaton):
    """The automaton with its states read back as (pending, kset) pairs (BOT
    as (0, 0)): its states in order, its initial state, and its classes
    keyed as classes() but by pair, successors as pairs, through
    unnumbered_row. Automata whose tables number the same states
    differently read back equal."""
    table = automaton.rows
    pairs = state_pairs(table, automaton.states)
    rows = {(pair, c_a): row for pair, state in zip(pairs, automaton.states)
            for c_a, row in unnumbered_row(table, state)[0].items()}
    return pairs, None if automaton.init is None else table.pairs[automaton.init], rows


def until_accept(automaton):
    """Occurrence family for until: the path visits an obligation-free state and
    never the failure state."""
    def accept(visited):
        return BOT not in visited and any(automaton.is_target(s) for s in visited)
    return accept


def weak_accept(automaton):
    """Occurrence family for weak until: the path never visits the failure state."""
    def accept(visited):
        return BOT not in visited
    return accept


class OracleGuardExceeded(Exception):
    """The occurrence solver's size guard tripped."""


def generic_occurrence_emptiness(automaton, accept, guard=DEFAULT_ORACLE_GUARD):
    """Decide nonemptiness for an arbitrary occurrence condition by solving the
    game on the (state, visited-set) product.

    Along any play the visited set only grows, so it converges; a play is won
    when the limit set satisfies the acceptance predicate. Slices of constant
    visited set are solved by a greatest fixpoint when staying forever is
    acceptable and a least fixpoint when the play must leave, recursing into
    strictly larger visited sets. Desk-scale only.
    """
    if len(automaton.states) > guard:
        raise OracleGuardExceeded("size guard exceeded: %d automaton states > %d"
                             % (len(automaton.states), guard))
    memo = {}
    moves = delta(automaton)

    def solve(visited):
        if visited in memo:
            return memo[visited]
        staying_wins = bool(accept(visited))
        values = {s: staying_wins for s in visited}
        memo[visited] = values

        def successor_value(t):
            if t in visited:
                return values[t]
            return solve(visited | {t})[t]

        changed = True
        while changed:
            changed = False
            for s in visited:
                value = any(
                    all(successor_value(t) for t in moves[(s, c_a)])
                    for c_a in automaton.alphabet)
                if value != values[s]:
                    values[s] = value
                    changed = True
        return values

    start = frozenset([automaton.init])
    return solve(start)[automaton.init]


def walk_views(level):
    """Walk the goal automaton (view) of every kset of an until or weak-until
    level. The views list every state their kset reaches, so together they
    fill the level's goal table with the settled rows its game leaves out."""
    build = build_until_automaton if level.case == UNTIL else build_weak_until_automaton
    for s in level.hat.ksets:
        build(level.hat, level.chi.left.name, level.chi.right.name, s).states


def level_truth(level):
    """A labeling level's truth map: each state of its arena to whether the
    level's fresh prop labels it."""
    return {q: level.prop in level.arena.labels[q] for q in level.arena.states}


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
    frontier = [(q, (obs(arena, coalition, q),)) for q in arena.initial]
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
            for t in succ(arena, q, c):
                frontier.append((t, history + (obs(arena, coalition, t),)))
    return failures


def replay_machine(arena, coalition, strategy, holds1, holds2, weak=False):
    """Play a finite-memory strategy against every opponent resolution, with
    no depth bound, and check the until (or, with weak, weak until) objective.

    The plays are explored on the product of the arena's states and the
    strategy machine's memory: from a node (q, m) the coalition plays the
    machine's output at m (default where the machine has no memory or no
    output, as Strategy.action does), and each successor t moves the memory by
    t's observation. Only the arena judges a play: a node where neither
    predicate holds fails, and for until so does a node that closes a cycle
    of nodes where holds2 never holds, since the environment can keep the
    play on it forever. Returns the failing nodes; empty means the strategy
    wins on every play. The product is finite only when the memory is.
    """
    machine = strategy.machine

    def successors(q, memory):
        c_a = None if memory is None else machine.output(memory)
        for c in extensions(arena, coalition, strategy.default if c_a is None else c_a):
            for t in succ(arena, q, c):
                z = obs(arena, coalition, t)
                yield t, None if memory is None else machine.step(memory, z)

    failures = []
    on_path, done = set(), set()
    stack = []

    def enter(node):
        q = node[0]
        if holds2(q) or not holds1(q):
            done.add(node)
            if not holds2(q):
                failures.append(node)
        else:
            on_path.add(node)
            stack.append((node, successors(*node)))

    for q in arena.initial:
        root = (q, machine.step((), obs(arena, coalition, q)))
        if root not in done and root not in on_path:
            enter(root)
        while stack:
            node, pending = stack[-1]
            for child in pending:
                if child in on_path:
                    if not weak:
                        failures.append(child)
                elif child not in done:
                    enter(child)
                    break
            else:
                stack.pop()
                on_path.discard(node)
                done.add(node)
    return failures


def history_witness_map(choice, automaton, kset):
    """The witness map of extract_witness_strategy from the kset whose goal
    automaton this is, playing choice ({state: action}), built the way it
    first was: one queue of (state, history) pairs, popped breadth-first, one
    entry per observation history up to depth |states|, in the order the
    queue meets them. Histories through a state without a choice get no
    entry and are not extended."""
    hat = automaton.hat
    z0 = obs(hat.source, hat.coalition, states_of(hat.source, kset)[0])
    depth_cap = len(automaton.states)
    mapping = {}
    queue = deque([(automaton.init, (z0,))])
    while queue:
        state, history = queue.popleft()
        if state not in choice:
            continue
        c_a = choice[state]
        mapping[history] = c_a
        if len(history) >= depth_cap:
            continue
        for z, target in row_classes(automaton.rows, state)[c_a]:
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
            got = {base[t] for t in succ(g2, h, c)}
            want = set(succ(g1, base[h], c))
            if got != want or len(got) != len(succ(g2, h, c)):
                problems.append("transition mismatch at (%s, %r)" % (h, c))
    for h in g2.states:
        want = [k for k in g1.states if first.kset[k] == first.kset[base[h]]]
        if states_of(g1, second.kset[h]) != want:
            problems.append("knowledge set at %s is not the class of %s" % (h, base[h]))
    return problems


class ReferenceSplit:
    """What split builds, by the definition, from frozensets: the refined
    states' ids in discovery order, the initial ids, labels, transitions, and
    each id's base state and kset, with the ksets in discovery order."""

    def __init__(self, states, initial, labels, transitions, base, kset):
        self.states, self.initial, self.labels = states, initial, labels
        self.transitions, self.base, self.kset = transitions, base, kset
        self.ksets = list(dict.fromkeys(kset.values()))


def reference_split(g, coalition, limit=None):
    """The knowledge split of g for a coalition as a breadth-first walk over
    (state, kset) pairs. The initial pairs join each initial state with the
    initial states of its observation. A pair's successors under a joint move
    are visited in arena order, each paired with the outcome class of the
    kset (oracles.out) that it lies in. A refined id is base@{kset members in
    arena order}, each named by g. Past limit refined states it raises
    StateCapExceeded."""
    observation = {q: obs(g, coalition, q) for q in g.states}
    ids, pairs, classes = {}, [], {}

    def intern(q, s):
        if (q, s) not in ids:
            if limit is not None and len(pairs) >= limit:
                raise StateCapExceeded(
                    "state cap exceeded: refinement for {%s} needs more than %d states"
                    % (",".join(sorted(coalition)), limit))
            ids[(q, s)] = "%s@{%s}" % (g.name(q), ",".join(g.name(r) for r in g.states if r in s))
            pairs.append((q, s))
        return ids[(q, s)]

    def outcome(s, c_a, z):
        if (s, c_a, z) not in classes:
            classes[(s, c_a, z)] = out(g, s, coalition, c_a, z)
        return classes[(s, c_a, z)]

    initial = tuple(intern(q, frozenset(r for r in g.initial if observation[r] == observation[q]))
                    for q in g.initial)
    transitions = {}
    for q, s in pairs:
        for c in g.joint_actions():
            c_a = restrict_action(g, coalition, c)
            transitions[(ids[(q, s)], c)] = frozenset(
                intern(t, outcome(s, c_a, observation[t])) for t in g.states if t in succ(g, q, c))
    states = tuple(ids[pair] for pair in pairs)
    return ReferenceSplit(states, initial, {ids[(q, s)]: g.labels[q] for q, s in pairs},
                          transitions, {ids[(q, s)]: q for q, s in pairs},
                          {ids[(q, s)]: s for q, s in pairs})


def reference_goal_initial(hat, p1, p2, m):
    """The goal state, as a pair of sets, a walk from the kset with mask m
    starts in: SET_BOT when some member holds neither goal prop, else the
    members without p2 pending."""
    labels, s = hat.source.labels, states_of(hat.source, m)
    if any(not labels[q] & {p1, p2} for q in s):
        return SET_BOT
    return frozenset(q for q in s if p2 not in labels[q]), frozenset(s)


def reference_goal_row(hat, p1, p2, state):
    """A goal-table row from frozensets, for a state given as a pair of sets:
    per coalition action, in product order, SET_BOT when the state is SET_BOT
    or some successor of a pending state holds neither goal prop; else one
    successor per observation of the kset's successors, ordered by its sorted
    props, with the kset's outcome class (oracles.out) as kset and the
    pending states' class less the p2 states as pending. Returns, keyed by
    coalition action, the successors (delta) and the (observation, successor)
    pairs (classes, empty for SET_BOT), then the distinct successors."""
    g, coalition = hat.source, hat.coalition
    delta, classes = {}, {}
    for c_a in coalition_actions(g, coalition):
        moves = list(extensions(g, coalition, c_a))
        if state == SET_BOT or any(not g.labels[t] & {p1, p2} for c in moves
                                   for q in state[0] for t in succ(g, q, c)):
            delta[c_a], classes[c_a] = (SET_BOT,), ()
            continue
        pending, kset = state
        seen = {obs(g, coalition, t) for c in moves for q in kset for t in succ(g, q, c)}
        pairs = tuple((z, (
            frozenset(t for t in out(g, pending, coalition, c_a, z) if p2 not in g.labels[t]),
            out(g, kset, coalition, c_a, z))) for z in sorted(seen, key=sorted))
        delta[c_a], classes[c_a] = tuple(t for _, t in pairs), pairs
    return delta, classes, tuple(dict.fromkeys(t for ts in delta.values() for t in ts))


def construction_failures(hat):
    """Invariants that the knowledge split and the goal tables keep by
    construction, which the checker does not re-check as it runs.

    Split builds its arena without Arena's validation, so this checks what
    that would: the states are 0..n-1, the initial states are distinct and in
    range, each state has one successor tuple per joint action, each tuple
    nonempty, strictly increasing and in range, and labels use declared props
    only. Equal successor tuples are one object. The rendered ids
    are distinct. Every refined state's base lies in its kset, and every kset
    is one coalition observation. Every state but BOT of the hat's goal
    tables, expanded or met as a successor, has its pending set inside its
    kset, a kset that is one coalition observation, and pending states
    labeled p1 and not p2; each table's numbering and rows keep their form
    (numbering_failures).
    Returns one line per violation; empty means all hold."""
    g, coalition, arena = hat.source, hat.coalition, hat.arena
    problems = []
    n = len(arena.states)
    numbers = set(range(n))
    if list(arena.states) != list(range(n)) or len(hat.base) != n or len(hat.kset) != n:
        problems.append("states are not 0..%d, each with a base and a kset" % (n - 1))
    initial = set(arena.initial)
    if not initial or len(initial) != len(arena.initial) or not initial <= numbers:
        problems.append("initial states %s are empty, repeated or out of range" % (arena.initial,))
    joint, rows, shared = list(arena.joint_actions()), arena._rows, {}
    if len(rows) != n or any(len(row) != len(joint) for row in rows):
        problems.append("rows are not one successor tuple per (state, joint action) pair")
    for h, row in enumerate(rows):
        for c, successors in zip(joint, row):
            where = "successors of (%s, %r)" % (h, c)
            if not (isinstance(successors, tuple) and successors and 0 <= successors[0]
                    and successors[-1] < n
                    and all(t < u for t, u in zip(successors, successors[1:]))):
                problems.append("%s are not a nonempty increasing tuple in range" % where)
            elif shared.setdefault(successors, successors) is not successors:
                problems.append("%s are an equal tuple's copy" % where)
    if set(arena.labels) != numbers or not all(
            label <= arena.props for label in arena.labels.values()):
        problems.append("labels are not one per state over declared props")
    ids = [arena.name(h) for h in range(n)]
    if len(set(ids)) != n:
        problems.append("rendered ids repeat: %s" % sorted(q for q in ids if ids.count(q) > 1))

    def incoherent(s):
        return len({obs(g, coalition, q) for q in s}) != 1

    for h in hat.arena.states:
        kset = states_of(g, hat.kset[h])
        if hat.base[h] not in kset:
            problems.append("refined state %s lies outside its kset" % h)
        if incoherent(kset):
            problems.append("refined state %s has an incoherent kset" % h)
    for (p1, p2), table in hat._goal_tables.items():
        problems += numbering_failures(table, len(hat.view.actions))
        seen = set()
        for state, (_, _, successors) in table.items():
            for s in (state,) + successors:
                if s in seen or s == BOT:
                    continue
                seen.add(s)
                pending, kset = (frozenset(states_of(g, m)) for m in table.pairs[s])
                where = "goal table (%s, %s) state (%s, %s)" % (
                    p1, p2, sorted_states(g, pending), sorted_states(g, kset))
                if not pending <= kset:
                    problems.append("%s: pending escapes the kset" % where)
                if incoherent(kset):
                    problems.append("%s: incoherent kset" % where)
                if any(p1 not in g.labels[r] or p2 in g.labels[r] for r in pending):
                    problems.append("%s: a pending state lacks p1 or holds p2" % where)
    return problems


def numbering_failures(table, actions):
    """How a goal table's numbering and rows break their form: pairs and
    number are inverse, number 0 is BOT's pair (0, 0), settled[t] is 1
    exactly when state t has nothing pending and a nonempty kset, and each
    row holds only ints and tuples of ints: per coalition action (actions of
    them) a tuple of strictly increasing observation ranks and a successor
    tuple as long, but () with (BOT,) exactly where the action fails; then
    the distinct successors, all numbered."""
    problems, pairs, n = [], table.pairs, len(table.pairs)
    if len(table.number) != n or any(table.number.get(pair) != t
                                     for t, pair in enumerate(pairs)):
        problems.append("pairs and number are not inverse")
    if not pairs or pairs[BOT] != (0, 0):
        problems.append("number %d is not the pair (0, 0)" % BOT)
    if list(table.settled) != [int(pending == 0 and kset != 0) for pending, kset in pairs]:
        problems.append("settled flags are not nothing pending with a nonempty kset")

    def ints(x):
        return type(x) is int or type(x) is tuple and all(map(ints, x))

    for state, row in table.items():
        where = "goal table (%s, %s) row %s" % (table.p1, table.p2, state)
        if not (type(state) is int and 0 <= state < n and ints(row) and len(row) == 3):
            problems.append("%s is not a numbered state's tuple of ints" % where)
            continue
        ranks, targets, distinct = row
        if len(ranks) != actions or len(targets) != actions:
            problems.append("%s does not hold one entry per coalition action" % where)
        for rs, ts in zip(ranks, targets):
            if any(r >= u for r, u in zip(rs, rs[1:])) or rs and len(rs) != len(ts):
                problems.append("%s: ranks %s are not increasing and as long as %s"
                                % (where, rs, ts))
            if (rs == ()) != (ts == (BOT,)):
                problems.append("%s: ranks %s and successors %s fail apart" % (where, rs, ts))
        if distinct != tuple(dict.fromkeys(t for ts in targets for t in ts)) or not all(
                0 <= t < n for t in distinct):
            problems.append("%s: distinct successors %s are not its numbered successors"
                            % (where, distinct))
    return problems


def formula_nodes(f):
    """Every node of a formula tree, a shared subtree once per occurrence."""
    yield f
    for c in f.children():
        yield from formula_nodes(c)


def is_core(f):
    """True when the tree uses only the connectives desugar produces."""
    return all(isinstance(node, fm.CORE_KINDS) for node in formula_nodes(f))


def chi_failures(chi):
    """What label_step takes on trust of a reduced formula chi: one core
    connective over atoms, so at most one modality, outermost, with atom
    operands. Returns one line per violation."""
    problems = [] if is_core(chi) else ["%s is not a core formula" % chi]
    modal = [node for node in formula_nodes(chi) if hasattr(node, "coalition")]
    if len(modal) > 1:
        problems.append("%s has more than one modality" % chi)
    elif modal and modal[0] is not chi:
        problems.append("the modality in %s is not outermost" % chi)
    if not all(isinstance(c, fm.Atom) for c in chi.children()):
        problems.append("an operand of %s is not an atom" % chi)
    return problems


def unlabeled_atoms(arena, chi):
    """The atoms of chi that the arena does not label, sorted."""
    return sorted({node.name for node in formula_nodes(chi)
                   if isinstance(node, fm.Atom)} - arena.props)


# The goal automaton kind each emptiness solver the checker calls decides.
SOLVER_KINDS = {"check_until_nonempty": UNTIL, "check_weak_nonempty": WEAK_UNTIL}
# The goal automaton builders the checker calls.
BUILDERS = ("build_until_automaton", "build_weak_until_automaton")
# The checker's calls that level_failures records.
RECORDED = ("label_step", *BUILDERS, *SOLVER_KINDS, "extract_witness_strategy")


def build_failures(builder, hat, p1, p2, s):
    """A builder, named as the checker calls it, given a kset that is not one
    of its hat's ksets or goal props that are not props of its source."""
    problems = [] if s in hat.ksets else ["%s got a kset %s that is not one of its hat's"
                                          % (builder, states_of(hat.source, s))]
    return problems + ["%s got a goal prop %s that its source does not declare" % (builder, p)
                       for p in (p1, p2) if p not in hat.source.props]


def solve_failures(solver, automaton):
    """A solver, named as the checker calls it, given the other kind's automaton."""
    if automaton.kind == SOLVER_KINDS[solver]:
        return []
    return ["%s got an automaton of kind %s" % (solver, automaton.kind)]


def witness_failures(solution, game, *ksets):
    """The initial states of the ksets in the goal game that the solution does
    not win, which a witness would start from."""
    inits = [game.rows.initial(s) for s in ksets]
    return ["witness extracted from the losing init %s" % game.pretty(init)
            for init in inits if init not in solution.winning]


@contextlib.contextmanager
def recorded_calls(module, names):
    """While the block runs, record the positional arguments of every call
    made through each of module's global names, as benchmarks/tracing.py
    hooks them: {name: [args, ...]}."""
    calls = {name: [] for name in names}
    originals = {name: getattr(module, name) for name in names}

    def recorder(name):
        def call(*args, **kwargs):
            calls[name].append(args)
            return originals[name](*args, **kwargs)
        return call

    for name in names:
        setattr(module, name, recorder(name))
    try:
        yield calls
    finally:
        for name, original in originals.items():
            setattr(module, name, original)


def level_failures(arena, text):
    """What the checker takes on trust as it labels, which it does not re-check
    as it runs: every entry of enumerate_subformulas(desugar(f)) is one core
    connective over atoms (chi_failures), and then, over one model_check,
    Verdict.witness and explain of every top-level initial state, label_step
    gets those chis in order, each over props its arena labels; each goal
    automaton builder gets one of its hat's ksets and goal props of the hat's
    source; each emptiness solver gets its own kind of automaton; and
    witnesses are extracted only from winning inits.
    Returns the lines of every violation and the recorded calls."""
    core = fm.desugar(fm.parse_formula(text))
    chis = [entry.chi for entry in fm.enumerate_subformulas(core)]
    problems = [] if is_core(core) else ["desugar left sugar in %s" % core]
    problems += [line for chi in chis for line in chi_failures(chi)]
    if problems:
        # model_check takes these chis on trust; what it would do is undefined.
        return problems, dict.fromkeys(RECORDED, ())
    with recorded_calls(checker, RECORDED) as calls:
        verdict = model_check(arena, text)
        verdict.witness()
        for q, _ in verdict.initial:
            explain(verdict, q)
    if [args[1] for args in calls["label_step"]] != chis:
        problems.append("label_step did not get the enumeration's chis in order")
    for g, chi, *_ in calls["label_step"]:
        missing = unlabeled_atoms(g, chi)
        if missing:
            problems.append("%s reads props %s that its arena does not label" % (chi, missing))
    for builder in BUILDERS:
        for args in calls[builder]:
            problems += build_failures(builder, *args)
    for solver in SOLVER_KINDS:
        for automaton, in calls[solver]:
            problems += solve_failures(solver, automaton)
    for args in calls["extract_witness_strategy"]:
        problems += witness_failures(*args)
    return problems, calls


def states_with_kset(hat, s):
    """The refined states whose knowledge set holds exactly the source states s."""
    m = mask_of(hat.source, s)
    return [h for h in hat.arena.states if hat.kset[h] == m]


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
        for hid in succ(hat.arena, current, c):
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
