"""Game arenas: states, labeled transitions, observations, and strategies."""

from __future__ import annotations

import copy
import itertools
import json
from types import MappingProxyType

from .formula import FRESH_MARK


class ArenaError(Exception):
    pass


def _members(arena, coalition):
    """The coalition's members in agent order; unknown members are rejected."""
    coalition = frozenset(coalition)
    unknown = coalition.difference(arena.agents)
    if unknown:
        raise ArenaError("unknown coalition members %s" % sorted(unknown))
    return tuple(a for a in arena.agents if a in coalition)


class _CoalitionView:
    """One coalition's compiled view of an arena: members in agent order, each
    state's observation (its label restricted to the props the members
    observe), every joint move with its coalition part in joint-action order,
    the coalition actions in members' product order with their extensions,
    and the integer core that split and the goal tables share: states are
    numbered in arena order, so a set of states is a bitmask, and observations
    are ranked by their sorted props. Goal-table states stay masks; masks
    become frozensets only at the boundary (refined ksets, outcome_classes),
    one object per mask. Compiling the view rejects unknown members; the
    engine reads it unchecked."""

    __slots__ = ("members", "observation", "moves", "extensions", "actions", "observations",
                 "rank", "index", "_states", "_transitions", "_rows", "_outcome_masks", "_sets")

    def __init__(self, arena, coalition):
        self.members = _members(arena, coalition)
        props = frozenset().union(*(arena.observes[a] for a in self.members))
        self.observation = {q: label & props for q, label in arena.labels.items()}
        self.observations = sorted(set(self.observation.values()), key=sorted)
        rank = {z: i for i, z in enumerate(self.observations)}
        self.rank = [rank[self.observation[q]] for q in arena.states]
        positions = [i for i, a in enumerate(arena.agents) if a in self.members]
        self.moves = tuple((c, tuple([c[i] for i in positions])) for c in arena.joint_actions())
        # First sight in joint-action order is the members' product order.
        self.extensions = {}
        for c, c_a in self.moves:
            self.extensions.setdefault(c_a, []).append(c)
        self.actions = tuple(self.extensions)
        self.index = arena._state_index
        self._states = arena.states
        self._transitions = arena.transitions
        self._rows = {}
        self._outcome_masks = {}
        self._sets = {}

    def row(self, i):
        """State i's moves: (joint action, action index, sorted successor indices)."""
        row = self._rows.get(i)
        if row is None:
            q, index = self._states[i], self.index
            row = self._rows[i] = [
                (c, self.actions.index(c_a), sorted([index[t] for t in self._transitions[(q, c)]]))
                for c, c_a in self.moves]
        return row

    def outcome_masks(self, m):
        """Per coalition action, the successors of the states in mask m grouped
        by observation, {rank: successor mask} in rank order. Built once per
        mask; several states merge their single-state entries."""
        outcomes = self._outcome_masks.get(m)
        if outcomes is None:
            merged = [{} for _ in self.actions]
            if not m or m & (m - 1):
                for i in _bits(m):
                    for into, grouped in zip(merged, self.outcome_masks(1 << i)):
                        for r, t in grouped.items():
                            into[r] = into.get(r, 0) | t
            else:
                rank = self.rank
                for _, k, successors in self.row(m.bit_length() - 1):
                    into = merged[k]
                    for t in successors:
                        into[rank[t]] = into.get(rank[t], 0) | 1 << t
            outcomes = self._outcome_masks[m] = tuple(
                {r: into[r] for r in sorted(into)} for into in merged)
        return outcomes

    def to_set(self, m):
        """The frozenset of the states in mask m, one object per mask."""
        s = self._sets.get(m)
        if s is None:
            s = self._sets[m] = frozenset(map(self._states.__getitem__, _bits(m)))
        return s

    def mask(self, s):
        """The mask of a set of states."""
        return sum(1 << self.index[q] for q in s)


def _bits(m):
    """The positions of the bits set in m, lowest first."""
    while m:
        low = m & -m
        m ^= low
        yield low.bit_length() - 1


class Arena:
    """A finite multi-agent game arena.

    Joint actions are tuples aligned with the agent order. The transition
    relation is total and serial: every (state, joint action) pair has at
    least one successor.
    """

    def __init__(self, agents, actions, states, labels, initial, observes, hidden, transitions):
        self.agents = tuple(agents)
        self.actions = {a: tuple(actions[a]) for a in self.agents}
        self.states = tuple(states)
        self.labels = {q: frozenset(labels[q]) for q in self.states}
        self.initial = tuple(initial)
        self.observes = {a: frozenset(observes[a]) for a in self.agents}
        self.hidden = frozenset(hidden)
        self.transitions = {key: frozenset(targets) for key, targets in transitions.items()}
        self.props = frozenset().union(*self.observes.values()) | self.hidden
        self._state_index = {q: i for i, q in enumerate(self.states)}
        # What split records on an arena it builds; a re-split and name read it.
        self._refinement = None
        self._validate()

    def _validate(self):
        if not self.states:
            raise ArenaError("arena has no states")
        if not self.initial:
            raise ArenaError("arena has no initial states")
        if len(set(self.agents)) != len(self.agents):
            raise ArenaError("duplicate agent names")
        if len(self._state_index) != len(self.states):
            raise ArenaError("duplicate state ids")
        if len(set(self.initial)) != len(self.initial):
            raise ArenaError("duplicate initial state ids")
        for a in self.agents:
            if not self.actions[a]:
                raise ArenaError("agent %s has no actions" % a)
            if len(set(self.actions[a])) != len(self.actions[a]):
                raise ArenaError("duplicate action names for agent %s" % a)
        for q in self.initial:
            if q not in self._state_index:
                raise ArenaError("unknown initial state %s" % q)
        allowed = self.props
        for q, label in self.labels.items():
            extra = label - allowed
            if extra:
                raise ArenaError("state %s labeled with undeclared props %s" % (q, sorted(extra)))
        # Keys are unique (a dict), so once every key is a valid pair the count
        # proves the relation serial; the checks one by one name a failure.
        known = frozenset(self.states)
        joint = frozenset(self.joint_actions())
        counted = len(self.transitions) == len(self.states) * len(joint)
        for (q, c), targets in self.transitions.items():
            if q in known and c in joint and targets and targets <= known:
                continue
            # A key that passes every check below without being a joint
            # action (a string, say) does not count towards seriality.
            counted = False
            if q not in known:
                raise ArenaError("transition from unknown state %s" % q)
            if len(c) != len(self.agents):
                raise ArenaError("joint action %r has wrong arity" % (c,))
            for a, act in zip(self.agents, c):
                if act not in self.actions[a]:
                    raise ArenaError("unknown action %s for agent %s" % (act, a))
            if not targets:
                raise ArenaError("empty successor set for state %s" % q)
            for t in targets:
                if t not in known:
                    raise ArenaError("transition to unknown state %s" % t)
        if not counted:
            for q in self.states:
                for c in self.joint_actions():
                    if (q, c) not in self.transitions:
                        raise ArenaError(
                            "non-serial transition relation: state %s has no successor under %r"
                            % (q, c))

    def joint_actions(self):
        """All joint actions, in the canonical per-agent order."""
        return itertools.product(*(self.actions[a] for a in self.agents))

    def succ(self, q, c):
        return self.transitions[(q, tuple(c))]

    def obs(self, coalition, q):
        """The coalition's observation of a state: its label restricted to visible props."""
        members = _members(self, coalition)
        label = self.labels.get(q)
        if label is None:
            raise ArenaError("unknown state %s" % q)
        return label & frozenset().union(*(self.observes[a] for a in members))

    def outcome_classes(self, source, coalition, c_a):
        """Group all successors of the source set under extensions of the
        coalition action c_a by their coalition observation. Returns a read-only
        {observation: successor set} in observation order, read from a view
        compiled for this call."""
        view = _CoalitionView(self, coalition)
        c_a = tuple(c_a)
        if c_a not in view.extensions:
            raise ArenaError("%r is not an action of coalition {%s}"
                             % (c_a, ",".join(view.members)))
        source = frozenset(source)
        unknown = source.difference(self._state_index)
        if unknown:
            raise ArenaError("unknown states %s" % sorted(unknown, key=str))
        classes = view.outcome_masks(view.mask(source))[view.actions.index(c_a)]
        return MappingProxyType({view.observations[r]: view.to_set(t) for r, t in classes.items()})

    def name(self, q):
        """State q's text id: q itself in a loaded arena, base@{kset members}
        in one that split built, rendered from the refinement on each call."""
        return q if self._refinement is None else self._refinement.name(q)

    def state_named(self, text):
        """The state whose text id is text, or None."""
        return next((q for q in self.states if self.name(q) == text), None)

    def state_sort_key(self, q):
        return self._state_index[q]

    def sorted_states(self, states):
        return sorted(states, key=self.state_sort_key)

    def with_prop(self, prop, true_states):
        """A copy of the arena with one more hidden prop, labeling exactly the
        given states. The copy shares this arena's validated states, actions,
        observations and transitions. It keeps the coalition and ksets that split
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
        derived = copy.copy(self)
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
        doc = {
            "agents": [
                {"name": a, "actions": list(self.actions[a]), "observes": sorted(self.observes[a])}
                for a in self.agents
            ],
            "hidden_props": sorted(self.hidden),
            "states": [{"id": name(q), "labels": sorted(self.labels[q])} for q in self.states],
            "initial": list(map(name, self.initial)),
            "transitions": [
                {"from": name(q), "actions": {a: act for a, act in zip(self.agents, c)},
                 "to": list(map(name, self.sorted_states(targets)))}
                for (q, c), targets in sorted(
                    self.transitions.items(),
                    key=lambda item: (self._state_index[item[0][0]],
                                      [(type(act).__name__, act) for act in item[0][1]]))
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


def load_arena(document, allow_reserved=False):
    """Build a validated Arena from a document (dict, JSON text, or file path).

    With "complete_with_sink" set, a fresh sink state with an empty label and
    self-loops on every joint action absorbs all otherwise missing (state,
    joint action) pairs. Prop names using the reserved fresh-prop character are
    rejected unless allow_reserved is set (dumps of labeled arena levels carry
    such props legitimately).
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
    _require(isinstance(document["agents"], list) and document["agents"],
             "agents must be a nonempty list")
    for entry in document["agents"]:
        _require(isinstance(entry, dict) and "name" in entry and "actions" in entry,
                 "each agent needs a name and actions")
        name = _string(entry["name"], "'name' of an agent")
        _require(name not in actions, "duplicate agent %s" % name)
        agents.append(name)
        _require(isinstance(entry["actions"], list) and entry["actions"],
                 "agent %s needs a nonempty action list" % name)
        _names(entry["actions"], "'actions' of agent %s", name)
        actions[name] = list(entry["actions"])
        observes[name] = _strings(entry.get("observes", []), "'observes' of agent %s", name)

    hidden = _strings(document.get("hidden_props", []), "'hidden_props'")
    visible = set().union(*observes.values()) if observes else set()
    overlap = hidden & visible
    _require(not overlap, "props both hidden and observed: %s" % sorted(overlap))
    if not allow_reserved:
        for prop in visible | hidden:
            _require(FRESH_MARK not in prop,
                     "prop name %r uses the reserved %r character" % (prop, FRESH_MARK))

    states = []
    labels = {}
    for entry in _list(document["states"], "'states'"):
        _require(isinstance(entry, dict) and "id" in entry, "each state needs an id")
        q = _string(entry["id"], "'id' of a state")
        _require(q not in labels, "duplicate state id %s" % q)
        states.append(q)
        labels[q] = _strings(entry.get("labels", []), "'labels' of state %s", q)

    initial = _list(document["initial"], "'initial'")
    _names(initial, "'initial'")
    _require(initial, "initial state list is empty")

    transitions = {}
    for entry in _list(document["transitions"], "'transitions'"):
        _require(isinstance(entry, dict) and "from" in entry and "actions" in entry
                 and "to" in entry, "each transition needs from, actions, to")
        q = entry["from"]
        action_map = entry["actions"]
        _require(isinstance(action_map, dict), "transition actions must be an object")
        _require(set(action_map) == set(agents),
                 "transition from %s must assign an action to every agent" % q)
        c = tuple(action_map[a] for a in agents)
        targets = _list(entry["to"], "'to' of a transition from %s", q)
        try:
            transitions.setdefault((q, c), set()).update(targets)
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
    is the history so far. mapping is the table a machine renders on first read."""

    def __init__(self, coalition_members, machine, default):
        self.coalition = tuple(coalition_members)
        self.machine = _HistoryTable(machine) if isinstance(machine, dict) else machine
        self.default = tuple(default)

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
