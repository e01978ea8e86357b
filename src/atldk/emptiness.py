"""Emptiness checks for the goal automata and witness strategy extraction
from winning regions."""

from __future__ import annotations

from functools import cached_property

from .arena import Strategy
from .strategy_automata import BOT, WEAK_UNTIL, _walk


class GameSolution:
    """Solution of the choice game on an automaton: the winning region and a
    chosen coalition action per winning state, a dict kept as given.

    For until the choice is defined on winning states that still carry
    obligations; for weak until on every winning state. Both cover only the
    listed states: a settled state the level game does not list wins too,
    and _action gives its weak-until choice.
    """

    def __init__(self, winning, choice):
        self.winning = frozenset(winning)
        self.choice = choice


def _attractor(automaton, coalition):
    """The attractor for one side, swept in state order until stable: the
    coalition's to the settled states (until), the environment's to BOT
    (weak until).

    On the coalition side a state joins when some action keeps all its
    successors inside the region; on the environment side when no action keeps
    all of them outside. Returns the region, a bytearray over the table's
    numbers, and, per state, the coalition action of the first action that
    does so: taken when the state joins (coalition) or at the last sweep
    (environment), so environment choices avoid the final region.

    A settled state's row is never read: it is an until target, and on the
    environment side it never joins, as it reaches only settled states.
    """
    # Listing the states first: the walk numbers the states it meets.
    states, table, alphabet = automaton.states, automaton.rows, automaton.alphabet
    settled, inside = table.settled, 1 if coalition else 0
    # BOT is never settled, so until's seed leaves it out.
    region = bytearray(settled) if coalition else bytearray(len(settled))
    region[BOT] = not coalition
    unsettled = [(s, table[s][1]) for s in states if not settled[s]]
    choice = {}
    changed = True
    while changed:
        changed = False
        for state, targets in unsettled:
            if region[state]:
                continue
            keep = next((k for k, successors in enumerate(targets)
                         if all(region[t] == inside for t in successors)), None)
            if keep is not None:
                choice[state] = alphabet[keep]
            if (keep is not None) == coalition:
                region[state] = 1
                changed = True
    return region, choice


def check_until_nonempty(automaton):
    """Coalition attractor to the discharged states: the automaton accepts some
    tree iff the initial state can force every path into an obligation-free
    state. The failure state only leads to itself, so it never joins."""
    region, choice = _attractor(automaton, coalition=True)
    solution = GameSolution([s for s in automaton.states if region[s]], choice)
    return automaton.init in solution.winning, solution


def check_weak_nonempty(automaton):
    """Complement of the environment attractor to the failure state: the
    automaton accepts some tree iff the initial state can keep every path away
    from it."""
    losing, choice = _attractor(automaton, coalition=False)
    winning = [s for s in automaton.states if not losing[s]]
    action = _action(automaton, choice)
    return automaton.init in winning, GameSolution(winning, {s: action(s) for s in winning})


def _action(game, choice):
    """The action a solution with this choice plays per state of game, None
    where it has none. A weak-until settled state, listed or not, plays the
    first coalition action: every action keeps it settled."""
    if game.kind != WEAK_UNTIL:
        return choice.get
    first, settled, chosen = game.alphabet[0], game.rows.settled, choice.get
    return lambda state: first if settled[state] else chosen(state)


class _WitnessMachine:
    """A winning solution as a Mealy machine on the level's goal game: memory is
    a goal state, output its action (_action), update the successor its row
    stores for that action and the observation's rank (expanded on demand),
    and the first observation, that of any kset member, picks the start, one
    kset's initial state. The start memory is ()."""

    def __init__(self, solution, game, ksets):
        self.output = _action(game, solution.choice)
        self.rows, view = game.rows, game.hat.view
        self.observations, self.rank_of = view.observations, view.rank_of
        self.index = {c_a: k for k, c_a in enumerate(game.alphabet)}
        self.starts = {view.observations[view.rank[s.bit_length() - 1]]: self.rows.initial(s)
                       for s in ksets}

    def _moves(self, state):
        """The (observation rank, successor) classes the state's row stores
        for its action, none where it has no action."""
        c_a = self.output(state)
        if c_a is None:
            return ()
        k = self.index[c_a]
        ranks, targets = self.rows[state]
        return zip(ranks[k], targets[k])

    def step(self, state, z):
        if state == ():
            return self.starts.get(z)
        r = self.rank_of.get(z)
        return next((t for r_t, t in self._moves(state) if r_t == r), None)

    @cached_property
    def table(self):
        """Per start, level by level, one entry per history up to the number of
        states reachable from the start, ending at states without a choice. Two
        lists, not a pair per entry, keep the cyclic collector's work down."""
        mapping, observations = {}, self.observations
        for z0, init in self.starts.items():
            states, histories = [init], [(z0,)]
            for depth in range(len(_walk(self.rows, (init,))), 0, -1):
                next_states, next_histories = [], []
                for state, history in zip(states, histories):
                    c_a = self.output(state)
                    if c_a is not None:
                        mapping[history] = c_a
                        for r, t in self._moves(state) if depth > 1 else ():
                            next_states.append(t)
                            next_histories.append(history + (observations[r],))
                states, histories = next_states, next_histories
        return mapping


def extract_witness_strategy(solution, game, *ksets):
    """A winning solution of the level's goal game as a finite observation-based
    strategy, exact over any horizon: a machine on the game's table with a
    start per kset. Each kset's initial state is taken to win (the checker
    extracts only for positive labels)."""
    return Strategy(game.hat.view.members, _WitnessMachine(solution, game, ksets),
                    game.alphabet[0])
