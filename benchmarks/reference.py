"""Answer checks that do not go through the checker.

Perfect-information fixpoints and depth-1 evaluation read the arena document
directly; witness replay reads the refined arena a level was split from, and
plays the extracted strategy against every opponent resolution.
"""

import itertools

from families import operands


class DocumentArena:
    """The parts of an arena document the evaluators need, as plain dicts."""

    def __init__(self, document):
        self.agents = tuple(entry["name"] for entry in document["agents"])
        self.actions = {e["name"]: tuple(e["actions"]) for e in document["agents"]}
        self.observes = {e["name"]: frozenset(e.get("observes", ())) for e in document["agents"]}
        self.states = tuple(entry["id"] for entry in document["states"])
        self.labels = {e["id"]: frozenset(e.get("labels", ())) for e in document["states"]}
        self.initial = tuple(document["initial"])
        self.succ = {}
        for entry in document["transitions"]:
            c = tuple(entry["actions"][a] for a in self.agents)
            self.succ.setdefault((entry["from"], c), set()).update(entry["to"])

    def obs(self, coalition, q):
        seen = frozenset().union(*(self.observes[a] for a in coalition))
        return self.labels[q] & seen

    def outcomes(self, coalition, q):
        """{coalition action: successors of q over every completion of it};
        coalition actions are tuples in arena agent order."""
        grouped = {}
        for c in itertools.product(*(self.actions[a] for a in self.agents)):
            c_a = tuple(act for a, act in zip(self.agents, c) if a in coalition)
            grouped.setdefault(c_a, set()).update(self.succ[(q, c)])
        return grouped


def _pre(arena, coalition, target):
    return {q for q in arena.states
            if any(outcome <= target for outcome in arena.outcomes(coalition, q).values())}


def _fixpoint(arena, coalition, hold, goal, start):
    z = set(start)
    while True:
        nxt = goal | (hold & _pre(arena, coalition, z))
        if nxt == z:
            return z
        z = nxt


def perfect_information(arena, f):
    """States where f holds when every agent sees the whole state.

    Until is the least and weak until the greatest fixpoint of
    Z = goal | (hold & pre(Z)); knowledge is the operand itself.
    """
    kind = f[0]
    every = set(arena.states)
    if kind == "atom":
        return {q for q in every if f[1] in arena.labels[q]}
    if kind == "not":
        return every - perfect_information(arena, f[1])
    if kind in ("and", "or", "implies"):
        left = perfect_information(arena, f[1])
        right = perfect_information(arena, f[2])
        return {"and": left & right, "or": left | right,
                "implies": (every - left) | right}[kind]
    coalition = f[1]
    parts = [perfect_information(arena, g) for g in operands(f)]
    if kind in ("K", "P"):
        return parts[0]
    if kind == "X":
        return _pre(arena, coalition, parts[0])
    if kind == "F":
        return _fixpoint(arena, coalition, every, parts[0], ())
    if kind == "G":
        return _fixpoint(arena, coalition, parts[0], set(), every)
    if kind == "U":
        return _fixpoint(arena, coalition, parts[0], parts[1], ())
    if kind == "W":
        return _fixpoint(arena, coalition, parts[0], parts[1], every)
    raise ValueError("unknown connective %r" % (kind,))


def holds_perfect_information(arena, f):
    return set(arena.initial) <= perfect_information(arena, f)


def _boolean(f, labels):
    kind = f[0]
    if kind == "atom":
        return f[1] in labels
    if kind == "not":
        return not _boolean(f[1], labels)
    left, right = _boolean(f[1], labels), _boolean(f[2], labels)
    return {"and": left and right, "or": left or right, "implies": (not left) or right}[kind]


def _at_initial(arena, f, q0):
    """Depth-1 formula f at the length-0 history q0: K, P and X range over the
    initial states the coalition cannot tell from q0."""
    kind = f[0]
    if kind == "atom":
        return f[1] in arena.labels[q0]
    if kind == "not":
        return not _at_initial(arena, f[1], q0)
    if kind in ("and", "or", "implies"):
        left, right = _at_initial(arena, f[1], q0), _at_initial(arena, f[2], q0)
        return {"and": left and right, "or": left or right,
                "implies": (not left) or right}[kind]
    coalition, operand = f[1], f[2]
    view = arena.obs(coalition, q0)
    alike = [q for q in arena.initial if arena.obs(coalition, q) == view]
    if kind == "K":
        return all(_boolean(operand, arena.labels[q]) for q in alike)
    if kind == "P":
        return any(_boolean(operand, arena.labels[q]) for q in alike)
    if kind == "X":
        outcomes = [arena.outcomes(coalition, q) for q in alike]
        return any(all(_boolean(operand, arena.labels[t]) for o in outcomes for t in o[c_a])
                   for c_a in outcomes[0])
    raise ValueError("not a depth-1 K/P/X formula: %r" % (f,))


def holds_at_initial(arena, f):
    """Direct evaluation of a modal-depth-1 K/P/X formula at the initial states."""
    return all(_at_initial(arena, f, q0) for q0 in arena.initial)


def witness_level(verdict):
    """The level Verdict.witness() draws its strategy from: the outermost
    until or weak-until level."""
    for level in reversed(verdict.table.levels):
        if level.case in ("until", "weak-until"):
            return level
    return None


def witness_loses(strategy, level):
    """Whether the strategy loses the level's goal on some play.

    Plays start at every initial state of the arena the level was split from
    and follow every resolution of the other agents. Histories in the
    strategy's map form a prefix-closed tree, so a play leaves the map once
    and then plays the default action forever; from there on it wins exactly
    from the states of the perfect-information fixpoint under that one action.
    The check is therefore exact over an unbounded horizon.
    """
    g = DocumentArena(level.hat.source.to_document())
    coalition = strategy.coalition
    hold, goal = level.chi.left.name, level.chi.right.name
    outcomes = {q: g.outcomes(coalition, q) for q in g.states}
    is_goal = {q: goal in g.labels[q] for q in g.states}
    is_hold = {q: hold in g.labels[q] for q in g.states}
    default_wins = {q for q in g.states if is_goal[q]} if level.case == "until" else set(g.states)
    while True:
        nxt = {q for q in g.states if is_goal[q] or (
            is_hold[q] and outcomes[q][strategy.default] <= default_wins)}
        if nxt == default_wins:
            break
        default_wins = nxt

    mapping = strategy.mapping
    by_view = {}
    for q in g.initial:
        by_view.setdefault((g.obs(coalition, q),), set()).add(q)
    stack = list(by_view.items())
    while stack:
        history, states = stack.pop()
        live = {q for q in states if not is_goal[q]}
        if any(not is_hold[q] for q in live):
            return True
        if not live:
            continue
        c_a = mapping.get(history)
        if c_a is None:
            if not live <= default_wins:
                return True
            continue
        nexts = {}
        for q in live:
            for t in outcomes[q][c_a]:
                nexts.setdefault(g.obs(coalition, t), set()).add(t)
        stack.extend((history + (z,), targets) for z, targets in nexts.items())
    return False
