"""Emptiness checks for the goal automata and witness strategy extraction
from winning regions."""

from __future__ import annotations

from functools import cached_property

from .arena import Strategy
from .strategy_automata import BOT, UNTIL, WEAK_UNTIL, _targets


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
            keep = next((c_a for c_a, pairs in automaton.rows[state][0].items()
                         if all((t in region) == coalition for t in _targets(pairs))), None)
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


class _WitnessMachine:
    """A winning solution as a Mealy machine on the level's goal table: memory is
    a goal state, output its choice, update the class its row stores for that
    choice, and the first observation picks the start, one automaton's init."""

    def __init__(self, solution, automata):
        self.output = solution.choice.get
        self.rows, observation = automata[0].rows, automata[0].hat.view.observation
        self.starts = {observation[next(iter(a.source_kset))]: a for a in automata}

    def step(self, state, z):
        if not state:
            return self.starts[z].init if z in self.starts else None
        classes = self.rows[state][0].get(self.output(state), ())
        return next((t for z_t, t in classes if z_t == z), None)

    @cached_property
    def table(self):
        """Per start, level by level, one entry per history up to its automaton's
        depth |states|, ending at states without a choice. Two lists, not a pair
        per entry, keep the cyclic collector's work down."""
        mapping = {}
        for z0, automaton in self.starts.items():
            states, histories = [automaton.init], [(z0,)]
            for depth in range(len(automaton.states), 0, -1):
                next_states, next_histories = [], []
                for state, history in zip(states, histories):
                    c_a = self.output(state)
                    if c_a is not None:
                        mapping[history] = c_a
                        for z, t in self.rows[state][0][c_a] if depth > 1 else ():
                            next_states.append(t)
                            next_histories.append(history + (z,))
                states, histories = next_states, next_histories
        return mapping


def extract_witness_strategy(solution, *automata):
    """A winning solution as a finite observation-based strategy, exact over any
    horizon: a machine on the automata's goal table, one winning view per kset."""
    if not automata or any(a.init not in solution.winning for a in automata):
        raise EmptinessError("solution does not witness nonemptiness")
    return Strategy(automata[0].hat.view.members, _WitnessMachine(solution, automata),
                    automata[0].alphabet[0])
