"""Game arenas: states, labeled transitions, observations, and strategies."""

from __future__ import annotations

import itertools
import json
from collections import Counter


class ArenaError(Exception):
    pass


class CheckerError(Exception):
    pass


class StateCapExceeded(CheckerError):
    """A refinement or a goal table would exceed the state cap."""


def _members(arena, coalition):
    """The coalition's members in agent order; unknown members are rejected."""
    coalition = frozenset(coalition)
    unknown = coalition.difference(arena.agents)
    if unknown:
        raise ArenaError("unknown coalition members %s" % sorted(unknown))
    return tuple(filter(coalition.__contains__, arena.agents))


class _Core:
    """A name of a coalition view's observation core. Its first read builds
    the whole core into the view's own attributes, which later reads find
    first; a __getattr__ hook instead would slow every attribute read."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, view, owner=None):
        view._build_core()
        return vars(view)[self.name]


class _CoalitionView:
    """One coalition's compiled view of an arena: members in agent order, the
    coalition actions in members' product order with each joint action's
    coalition part, and the integer core that split and the goal tables
    share: states are numbered in arena order, so a set of states is a
    bitmask, observations (labels restricted to the props the members
    observe) are ranked by their sorted props, state i's is
    observations[rank[i]], rank_of[z] is observation z's rank, and alike[t]
    is the mask of the states that look like t. That observation core is
    built on the first read of one of its four names, and the view then
    drops its handle on the arena's states and labels: a same-coalition
    re-split that only the labelers read never builds it. Knowledge sets and
    the parts of goal states stay masks; only text output renders them
    (_state_names). Compiling the view rejects unknown members; the engine
    reads it unchecked."""

    observations, rank, rank_of, alike = _Core(), _Core(), _Core(), _Core()

    def __init__(self, arena, coalition):
        self.members = _members(arena, coalition)
        self.actions = tuple(itertools.product(*(arena.actions[a] for a in self.members)))
        # Per joint action, in joint_actions order, the index of its coalition
        # part: the members' action indices as one mixed-radix number.
        action_of = [0]
        for a in arena.agents:
            n = len(arena.actions[a])
            action_of = ([k * n + d for k in action_of for d in range(n)] if a in self.members
                         else [k for k in action_of for _ in range(n)])
        self._action_of = tuple(action_of)
        self.index = arena._state_index
        self._rows = arena._rows
        self._unions, self._classes = {}, {}
        self._arena = arena

    def _build_core(self):
        arena, self._arena = self._arena, None
        props = frozenset().union(*map(arena.observes.__getitem__, self.members))
        observation = [arena.labels[q] & props for q in arena.states]
        self.observations = sorted(set(observation), key=sorted)
        rank = self.rank_of = {z: i for i, z in enumerate(self.observations)}
        self.rank = list(map(rank.__getitem__, observation))
        like = [0] * len(rank)
        for i, r in enumerate(self.rank):
            like[r] |= 1 << i
        self.alike = list(map(like.__getitem__, self.rank))

    def row(self, i):
        """State i's (coalition action index, sorted successor numbers) per joint action."""
        return zip(self._action_of, self._rows[i])

    def unions(self, m):
        """Per coalition action, all successors of the states in mask m as one
        mask. Built once per mask; several states OR their single-state entries,
        read from the memo where built, into one list."""
        out = self._unions.get(m)
        if out is None:
            out = [0] * len(self.actions)
            if m & (m - 1):
                for i in _bits(m):
                    for k, u in enumerate(self._unions.get(1 << i) or self.unions(1 << i)):
                        out[k] |= u
            elif m:
                for k, successors in self.row(m.bit_length() - 1):
                    for t in successors:
                        out[k] |= 1 << t
            out = self._unions[m] = tuple(out)
        return out

    def classes(self, m):
        """Mask m cut by observation: the ranks of its states' observations in
        increasing order and, aligned with them, each rank's part, the states
        of m that look alike. Built once per mask."""
        cut = self._classes.get(m)
        if cut is None:
            found, rest = [], m
            while rest:
                t = (rest & -rest).bit_length() - 1
                found.append((self.rank[t], rest & self.alike[t]))
                rest &= ~self.alike[t]
            found.sort()
            cut = self._classes[m] = (tuple(r for r, _ in found), tuple(p for _, p in found))
        return cut


def _bits(m):
    """The positions of the bits set in m, lowest first."""
    while m:
        low = m & -m
        m ^= low
        yield low.bit_length() - 1


def _state_names(arena, m):
    """The text ids of the arena's states in mask m, in arena order: the one
    place a knowledge set or goal-state part becomes text."""
    return [arena.name(arena.states[i]) for i in _bits(m)]


def _require_strings(values, what):
    """Reject the first value that is not a string, naming it as a what."""
    for v in values:
        if not isinstance(v, str):
            raise ArenaError("%s %r must be a string, not %s" % (what, v, type(v).__name__))


class Arena:
    """A finite multi-agent game arena.

    Joint actions are tuples aligned with the agent order. The transition
    relation is total and serial: every (state, joint action) pair has at
    least one successor. It is kept as rows: per state number, one sorted
    tuple of successor numbers per joint action, in joint-action order.
    """

    def __init__(self, agents, actions, states, labels, initial, observes, hidden, transitions):
        self.agents = tuple(agents)
        self.actions = {a: tuple(actions[a]) for a in self.agents}
        self.states = tuple(states)
        self.labels = {q: frozenset(labels[q]) for q in self.states}
        self.initial = tuple(initial)
        self.observes = {a: frozenset(observes[a]) for a in self.agents}
        self.hidden = frozenset(hidden)
        self.props = frozenset().union(*self.observes.values()) | self.hidden
        self._state_index = {q: i for i, q in enumerate(self.states)}
        # What split records on an arena it builds; a re-split and name read it.
        self._refinement = None
        self._rows = self._validate(transitions)

    def _validate(self, transitions):
        if not self.states:
            raise ArenaError("arena has no states")
        _require_strings(self.states, "state id")
        if not self.initial:
            raise ArenaError("arena has no initial states")
        if not self.agents:
            raise ArenaError("arena has no agents")
        _require_strings(self.agents, "agent name")
        for what, values in (("agent", self.agents), ("state id", self.states),
                             ("initial state id", self.initial)):
            if len(set(values)) != len(values):
                repeated = Counter(values).most_common(1)[0][0]
                raise ArenaError("duplicate %s %s" % (what, repeated))
        for a in self.agents:
            if not self.actions[a]:
                raise ArenaError("agent %s has no actions" % a)
            if len(set(self.actions[a])) != len(self.actions[a]):
                raise ArenaError("duplicate action names for agent %s" % a)
        for q in self.initial:
            if q not in self._state_index:
                raise ArenaError("unknown initial state %s" % q)
        allowed = self.props
        _require_strings(allowed, "prop")
        overlap = self.hidden & frozenset().union(*self.observes.values())
        if overlap:
            raise ArenaError("props both hidden and observed: %s" % sorted(overlap))
        for q, label in self.labels.items():
            extra = label - allowed
            if extra:
                _require_strings(extra, "prop")
                raise ArenaError("state %s labeled with undeclared props %s" % (q, sorted(extra)))
        # One pass checks each transition and files its successors in its
        # row slot; the checks one by one name the first faulty transition.
        index = self._state_index
        joint = list(self.joint_actions())
        position = {c: j for j, c in enumerate(joint)}
        rows = [[None] * len(joint) for _ in self.states]
        for (q, c), targets in transitions.items():
            try:
                successors = tuple(sorted(set(map(index.__getitem__, targets))))
                if successors:
                    rows[index[q]][position[c]] = successors
                    continue
            except (KeyError, TypeError):
                pass
            # A key that passes every check below without being a joint
            # action (a string, say) fills no slot.
            if q not in index:
                raise ArenaError("transition from unknown state %s" % q)
            if len(c) != len(self.agents):
                raise ArenaError("joint action %r has wrong arity" % (c,))
            for a, act in zip(self.agents, c):
                if act not in self.actions[a]:
                    raise ArenaError("unknown action %s for agent %s" % (act, a))
            if not targets:
                raise ArenaError("empty successor set for state %s" % q)
            for t in targets:
                if t not in index:
                    raise ArenaError("transition to unknown state %s" % t)
        for q, row in zip(self.states, rows):
            if None in row:
                raise ArenaError(
                    "non-serial transition relation: state %s has no successor under %r"
                    % (q, joint[row.index(None)]))
        return rows

    def _copy(self):
        """A shallow copy, without copy.copy's pickle protocol (one per level)."""
        derived = object.__new__(type(self))
        derived.__dict__.update(self.__dict__)
        return derived

    def joint_actions(self):
        """All joint actions, in the canonical per-agent order."""
        return itertools.product(*(self.actions[a] for a in self.agents))

    def name(self, q):
        """State q's text id: q itself in a loaded arena, base@{kset members}
        in one that split built, rendered from the refinement on each call."""
        return q if self._refinement is None else self._refinement.name(q)

    def state_named(self, text):
        """The state whose text id is text, or None."""
        return next((q for q in self.states if self.name(q) == text), None)

    def with_prop(self, prop, true_states):
        """A copy of the arena with one more hidden prop, labeling exactly the
        given states. The copy shares this arena's validated states, actions,
        observations and rows. It keeps the coalition and ksets that split
        recorded on it: a hidden prop changes no coalition's observations."""
        if not isinstance(prop, str):
            raise ArenaError("prop must be a string, not %s %r" % (type(prop).__name__, prop))
        if prop in self.props:
            raise ArenaError("prop %s already declared" % prop)
        try:
            true_states = frozenset(true_states)
        except TypeError:
            raise ArenaError("states to label with %s must be state ids, not %r"
                             % (prop, true_states)) from None
        unknown = true_states.difference(self._state_index)
        if unknown:
            raise ArenaError("cannot label unknown states %s with %s"
                             % (sorted(unknown, key=str), prop))
        derived = self._copy()
        derived.labels = labels = dict(self.labels)
        # States that share a label share its extension.
        extended = {}
        for q in true_states:
            label = labels[q]
            new = extended.get(label)
            if new is None:
                new = extended[label] = label | {prop}
            labels[q] = new
        derived.hidden = self.hidden | {prop}
        derived.props = self.props | {prop}
        return derived

    def to_document(self):
        """Serialize back to the arena document schema, states by their text ids."""
        name = {q: self.name(q) for q in self.states}.__getitem__
        moves = sorted(enumerate(self.joint_actions()),
                       key=lambda move: [(type(act).__name__, act) for act in move[1]])
        doc = {
            "agents": [
                {"name": a, "actions": list(self.actions[a]), "observes": sorted(self.observes[a])}
                for a in self.agents
            ],
            "hidden_props": sorted(self.hidden),
            "states": [{"id": name(q), "labels": sorted(self.labels[q])} for q in self.states],
            "initial": list(map(name, self.initial)),
            "transitions": [
                {"from": name(q), "actions": dict(zip(self.agents, c)),
                 "to": [name(self.states[t]) for t in row[j]]}
                for q, row in zip(self.states, self._rows) for j, c in moves
            ],
        }
        return doc

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_document(), handle, indent=2)
            handle.write("\n")


SINK_ID = "sink"


def _require(condition, message):
    if not condition:
        raise ArenaError(message)


def _list(value, field, *where):
    """The value of a list field; a string would otherwise be read as its characters.

    The field name is formatted with where only on failure: this runs once per
    state and transition.
    """
    if not isinstance(value, list):
        raise ArenaError("%s must be a list" % (field % where))
    return value


def _name(value, field, *where):
    """The value of a name field, rejected when a JSON list or object."""
    try:
        hash(value)
    except TypeError:
        raise ArenaError("%s must be a name, not %s %r"
                         % (field % where, type(value).__name__, value)) from None
    return value


def _names(value, field, *where):
    """The entries of a list field of names, as a set."""
    try:
        return set(_list(value, field, *where))
    except TypeError:
        for entry in value:
            _name(entry, "an entry of " + field, *where)
        raise


def _string(value, field, *where):
    """The value of a field that must be a JSON string: a state id, a prop, or
    an agent name (the key of a transition's actions object)."""
    if not isinstance(value, str):
        _name(value, field, *where)
        raise ArenaError("%s must be a string, not %s %r"
                         % (field % where, type(value).__name__, value))
    return value


def _strings(value, field, *where):
    """The entries of a list field of props, as a set of strings."""
    entries = _names(value, field, *where)
    for entry in entries:
        if not isinstance(entry, str):
            _string(entry, "an entry of " + field, *where)
    return entries


def load_arena(document):
    """Build a validated Arena from a document (dict, JSON text, or file path).

    With "complete_with_sink" set, a fresh sink state with an empty label and
    self-loops on every joint action absorbs all otherwise missing (state,
    joint action) pairs.
    """
    if isinstance(document, str):
        if document.lstrip().startswith("{"):
            document = json.loads(document)
        else:
            with open(document) as handle:
                document = json.load(handle)
    _require(isinstance(document, dict), "arena document must be an object")
    for field in ("agents", "states", "initial", "transitions"):
        _require(field in document, "arena document missing %r" % field)

    agents = []
    actions = {}
    observes = {}
    for entry in _list(document["agents"], "'agents'"):
        _require(isinstance(entry, dict) and "name" in entry and "actions" in entry,
                 "each agent needs a name and actions")
        name = _string(entry["name"], "'name' of an agent")
        agents.append(name)
        _names(entry["actions"], "'actions' of agent %s", name)
        actions[name] = list(entry["actions"])
        observes[name] = _strings(entry.get("observes", []), "'observes' of agent %s", name)

    hidden = _strings(document.get("hidden_props", []), "'hidden_props'")

    states = []
    labels = {}
    for entry in _list(document["states"], "'states'"):
        _require(isinstance(entry, dict) and "id" in entry, "each state needs an id")
        q = _string(entry["id"], "'id' of a state")
        states.append(q)
        labels[q] = _strings(entry.get("labels", []), "'labels' of state %s", q)

    initial = _list(document["initial"], "'initial'")
    _names(initial, "'initial'")

    # Targets are kept as read, and hashed to reject an unhashable one here.
    transitions, every_agent = {}, set(agents)
    for entry in _list(document["transitions"], "'transitions'"):
        _require(isinstance(entry, dict) and "from" in entry and "actions" in entry
                 and "to" in entry, "each transition needs from, actions, to")
        q = entry["from"]
        action_map = entry["actions"]
        _require(isinstance(action_map, dict), "transition actions must be an object")
        _require(action_map.keys() == every_agent,
                 "transition from %s must assign an action to every agent" % q)
        key = (q, tuple([action_map[a] for a in agents]))
        targets = _list(entry["to"], "'to' of a transition from %s", q)
        try:
            hash(tuple(targets))
            if transitions.setdefault(key, targets) is not targets:
                transitions[key] = transitions[key] + targets
        except TypeError:
            # Named only on failure: this runs once per transition.
            _name(q, "'from' of a transition")
            for a in agents:
                _name(action_map[a], "the action of agent %s in a transition from %s", a, q)
            _names(targets, "'to' of a transition from %s", q)
            raise

    complete = document.get("complete_with_sink", False)
    _require(isinstance(complete, bool), "'complete_with_sink' must be true or false, not %s %r"
             % (type(complete).__name__, complete))
    if complete:
        _require(SINK_ID not in labels, "state id %r is reserved for the sink" % SINK_ID)
        states.append(SINK_ID)
        labels[SINK_ID] = set()
        all_joint = list(itertools.product(*(actions[a] for a in agents)))
        for q in states:
            for c in all_joint:
                if (q, c) not in transitions:
                    transitions[(q, c)] = {SINK_ID}

    return Arena(agents, actions, states, labels, initial, observes, hidden, transitions)


class _HistoryTable:
    """A history table as a machine whose memory is the history so far."""

    def __init__(self, mapping):
        self.table, self.output = mapping, mapping.get

    def step(self, history, z):
        return history + (z,)


class Strategy:
    """A finite observation-based strategy for a coalition: a Mealy machine run
    along an observation history from the memory (). machine.step(memory, z) is
    the next memory and machine.output(memory) the coalition action, a tuple in
    coalition order; default is played where either is None. A dict of histories
    (tuples of frozensets) to actions, kept as given, is the machine whose memory
    is the history so far. mapping is the table a machine renders on first read.
    A repeated member, or a default that is not one action per member, raises
    ArenaError."""

    def __init__(self, coalition_members, machine, default):
        self.coalition = tuple(coalition_members)
        self.machine = _HistoryTable(machine) if isinstance(machine, dict) else machine
        self.default = tuple(default)
        repeated = sorted({a for a in self.coalition if self.coalition.count(a) > 1})
        _require(not repeated, "'coalition' repeats %s" % ", ".join(repeated))
        _require(len(self.default) == len(self.coalition),
                 "'default' %r is not one action per member of %r"
                 % (self.default, self.coalition))

    @property
    def mapping(self):
        return self.machine.table

    def action(self, history):
        memory = ()
        for z in history:
            memory = self.machine.step(memory, frozenset(z))
            if memory is None:
                return self.default
        c_a = self.machine.output(memory)
        return self.default if c_a is None else c_a

    def _action_map(self, action):
        return {a: act for a, act in zip(self.coalition, action)}

    def to_document(self):
        mapping = self.mapping
        histories = sorted(mapping, key=lambda h: (len(h), [sorted(z) for z in h]))
        return {
            "coalition": list(self.coalition),
            "default": self._action_map(self.default),
            "map": [{"history": [sorted(z) for z in h], "action": self._action_map(mapping[h])}
                    for h in histories],
        }

    @classmethod
    def from_document(cls, doc):
        """The strategy a to_document() document describes; a malformed one
        raises ArenaError."""
        _require(isinstance(doc, dict) and {"coalition", "default", "map"} <= set(doc),
                 "strategy document needs coalition, default and map")
        coalition = [_string(a, "an entry of 'coalition'")
                     for a in _list(doc["coalition"], "'coalition'")]

        def action(action_map, field):
            _require(isinstance(action_map, dict), "%s must be an object" % field)
            missing = [a for a in coalition if a not in action_map]
            _require(not missing, "%s has no action for %s" % (field, ", ".join(missing)))
            return tuple(action_map[a] for a in coalition)

        mapping = {}
        for entry in _list(doc["map"], "'map'"):
            _require(isinstance(entry, dict) and "history" in entry and "action" in entry,
                     "each map entry needs a history and an action")
            history = tuple(frozenset(_strings(z, "an observation in a history"))
                            for z in _list(entry["history"], "'history' of a map entry"))
            mapping[history] = action(entry["action"], "'action' of a map entry")
        return cls(coalition, mapping, action(doc["default"], "'default'"))
