"""Emptiness checks for the goal automata and witness strategy extraction
from winning regions."""

from __future__ import annotations

from .arena import Strategy
from .strategy_automata import BOT, UNTIL, WEAK_UNTIL


class EmptinessError(Exception):
    pass


class GameSolution:
    """Solution of the choice game on an automaton: the winning region and a
    chosen coalition action per winning state.

    For until the choice is defined on winning states that still carry
    obligations; for weak until on every winning state.
    """

    def __init__(self, winning, choice):
        self.winning = frozenset(winning)
        self.choice = dict(choice)


def _attractor(automaton, target, coalition):
    """The attractor to target for one side, swept in state order until stable.

    On the coalition side a state joins when some action keeps all its
    successors inside the region; on the environment side when no action keeps
    all of them outside. Returns the region and, per state, the first action
    that does so: taken when the state joins (coalition) or at the last sweep
    (environment), so environment choices avoid the final region.
    """
    region = set(target)
    choice = {}
    changed = True
    while changed:
        changed = False
        for state in automaton.states:
            if state in region:
                continue
            keep = next((c_a for c_a in automaton.alphabet
                         if all((t in region) == coalition
                                for t in automaton.delta[(state, c_a)])), None)
            if keep is not None:
                choice[state] = keep
            if (keep is not None) == coalition:
                region.add(state)
                changed = True
    return region, choice


def check_until_nonempty(automaton):
    """Coalition attractor to the discharged states: the automaton accepts some
    tree iff the initial state can force every path into an obligation-free
    state. The failure state only leads to itself, so it never joins."""
    if automaton.kind != UNTIL:
        raise EmptinessError("expected an until automaton, got %s" % automaton.kind)
    winning, choice = _attractor(automaton, automaton.targets(), coalition=True)
    return automaton.init in winning, GameSolution(winning, choice)


def check_weak_nonempty(automaton):
    """Complement of the environment attractor to the failure state: the
    automaton accepts some tree iff the initial state can keep every path away
    from it."""
    if automaton.kind != WEAK_UNTIL:
        raise EmptinessError("expected a weak-until automaton, got %s" % automaton.kind)
    losing, choice = _attractor(automaton, [BOT], coalition=False)
    winning = [s for s in automaton.states if s not in losing]
    return automaton.init in winning, GameSolution(winning, {s: choice[s] for s in winning})


def extract_witness_strategy(solution, automaton):
    """Turn a winning region into a finite observation-based strategy for its coalition.

    Replays the automaton from its initial state along the chosen actions level
    by level, recording one entry per observation history up to depth |states|;
    histories beyond the map, or past a discharged state, fall back to the default.
    """
    if automaton.init not in solution.winning:
        raise EmptinessError("solution does not witness nonemptiness")
    view = automaton.hat.view
    z0 = view.observation[next(iter(automaton.source_kset))]
    depth_cap = len(automaton.states)
    default = automaton.alphabet[0]
    mapping = {}
    states, histories = [automaton.init], [(z0,)]
    for depth in range(1, depth_cap + 1):
        next_states, next_histories = [], []
        for state, history in zip(states, histories):
            c_a = solution.choice.get(state)
            if c_a is None:
                continue
            mapping[history] = c_a
            if depth < depth_cap:
                for z, target in automaton.classes[(state, c_a)]:
                    next_states.append(target)
                    next_histories.append(history + (z,))
        states, histories = next_states, next_histories
    return Strategy(view.members, mapping, default)
