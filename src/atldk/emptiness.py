"""Emptiness checks for the goal automata and witness strategy extraction
from winning regions."""

from __future__ import annotations

from functools import cached_property

from .arena import Strategy
from .strategy_automata import BOT, WEAK_UNTIL, _targets, _walk


class GameSolution:
    """Solution of the choice game on an automaton: the winning region and a
    chosen coalition action per winning state.

    For until the choice is defined on winning states that still carry
    obligations; for weak until on every winning state. Both cover only the
    listed states: a settled state the level game does not list wins too,
    and _action gives its weak-until choice.
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

    A settled state's row is never read: it is an until target, and on the
    environment side it never joins, as it reaches only settled states.
    """
    region = set(target)
    choice = {}
    unsettled = [s for s in automaton.states if not automaton.is_target(s)]
    changed = True
    while changed:
        changed = False
        for state in unsettled:
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
    winning, choice = _attractor(automaton, automaton.targets(), coalition=True)
    return automaton.init in winning, GameSolution(winning, choice)


def check_weak_nonempty(automaton):
    """Complement of the environment attractor to the failure state: the
    automaton accepts some tree iff the initial state can keep every path away
    from it."""
    losing, choice = _attractor(automaton, [BOT], coalition=False)
    action = _action(automaton, choice)
    winning = [s for s in automaton.states if s not in losing]
    return automaton.init in winning, GameSolution(winning, {s: action(s) for s in winning})


def _action(game, choice):
    """The action a solution with this choice plays per state of game, None
    where it has none. A weak-until settled state, listed or not, plays the
    first coalition action: every action keeps it settled."""
    if game.kind != WEAK_UNTIL:
        return choice.get
    first, settled, chosen = game.alphabet[0], game.is_target, choice.get
    return lambda state: first if settled(state) else chosen(state)


class _WitnessMachine:
    """A winning solution as a Mealy machine on the level's goal game: memory is
    a goal state, output its action (_action), update the class its row stores
    for that action (expanded on demand), and the first observation, that of
    any kset member, picks the start, one kset's initial state."""

    def __init__(self, solution, game, ksets):
        self.output = _action(game, solution.choice)
        self.rows, view = game.rows, game.hat.view
        self.starts = {view.observations[view.rank[s.bit_length() - 1]]: self.rows.initial(s)
                       for s in ksets}

    def step(self, state, z):
        if not state:
            return self.starts.get(z)
        classes = self.rows[state][0].get(self.output(state), ())
        return next((t for z_t, t in classes if z_t == z), None)

    @cached_property
    def table(self):
        """Per start, level by level, one entry per history up to the number of
        states reachable from the start, ending at states without a choice. Two
        lists, not a pair per entry, keep the cyclic collector's work down."""
        mapping = {}
        for z0, init in self.starts.items():
            states, histories = [init], [(z0,)]
            for depth in range(len(_walk(self.rows, (init,))), 0, -1):
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


def extract_witness_strategy(solution, game, *ksets):
    """A winning solution of the level's goal game as a finite observation-based
    strategy, exact over any horizon: a machine on the game's table with a
    start per kset. Each kset's initial state is taken to win (the checker
    extracts only for positive labels)."""
    return Strategy(game.hat.view.members, _WitnessMachine(solution, game, ksets),
                    game.alphabet[0])
