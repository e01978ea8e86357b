"""Game arenas: states, labeled transitions, observations, and strategies."""

from __future__ import annotations

import copy
import itertools
import json
from types import MappingProxyType

from .formula import FRESH_MARK


class ArenaError(Exception):
    pass


class _CoalitionView:
    """One coalition's compiled view of an arena: members in agent order, each
    state's observation (its label restricted to the props the members
    observe), every joint move with its coalition part in joint-action order,
    the coalition actions in members' product order with their extensions,
    and the memo of outcome classes. The engine reads it unchecked."""

    __slots__ = ("members", "observation", "moves", "extensions", "actions",
                 "_rank", "_transitions", "_outcomes")

    def __init__(self, arena, coalition):
        self.members = tuple(a for a in arena.agents if a in coalition)
        props = frozenset().union(*(arena.observes[a] for a in self.members))
        self.observation = {q: label & props for q, label in arena.labels.items()}
        order = sorted(set(self.observation.values()), key=sorted)
        self._rank = {z: i for i, z in enumerate(order)}
        positions = [i for i, a in enumerate(arena.agents) if a in coalition]
        self.moves = tuple((c, tuple([c[i] for i in positions])) for c in arena.joint_actions())
        # First sight in joint-action order is the members' product order.
        self.extensions = {}
        for c, c_a in self.moves:
            self.extensions.setdefault(c_a, []).append(c)
        self.actions = tuple(self.extensions)
        self._transitions = arena.transitions
        self._outcomes = {}

    def classes(self, source, c_a):
        """All successors of the source frozenset under extensions of the
        coalition action c_a, grouped by observation: {observation: successor
        set}, observations ordered by their sorted props, built once per
        (source, c_a)."""
        key = (source, c_a)
        classes = self._outcomes.get(key)
        if classes is None:
            grouped = {}
            observation, transitions = self.observation, self._transitions
            for c in self.extensions[c_a]:
                for s in source:
                    for t in transitions[(s, c)]:
                        grouped.setdefault(observation[t], set()).add(t)
            classes = self._outcomes[key] = {
                z: frozenset(grouped[z]) for z in sorted(grouped, key=self._rank.__getitem__)}
        return classes


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
        self._coalitions = {}
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

    def _coalition_view(self, coalition):
        """The coalition's compiled view of this arena, built on first use.

        Only validated coalitions are stored, so unknown members raise on
        every call.
        """
        key = frozenset(coalition)
        view = self._coalitions.get(key)
        if view is None:
            unknown = key - set(self.agents)
            if unknown:
                raise ArenaError("unknown coalition members %s" % sorted(unknown))
            view = self._coalitions[key] = _CoalitionView(self, key)
        return view

    def succ(self, q, c):
        return self.transitions[(q, tuple(c))]

    def obs(self, coalition, q):
        """The coalition's observation of a state: its label restricted to visible props."""
        z = self._coalition_view(coalition).observation.get(q)
        if z is None:
            raise ArenaError("unknown state %s" % q)
        return z

    def outcome_classes(self, source, coalition, c_a):
        """Group all successors of the source set under extensions of the
        coalition action c_a by their coalition observation. Returns a read-only
        {observation: successor set} in observation order, computed once per
        (source, c_a) and coalition."""
        view = self._coalition_view(coalition)
        c_a = tuple(c_a)
        if c_a not in view.extensions:
            raise ArenaError("%r is not an action of coalition {%s}"
                             % (c_a, ",".join(view.members)))
        source = frozenset(source)
        unknown = source.difference(self._state_index)
        if unknown:
            raise ArenaError("unknown states %s" % sorted(unknown, key=str))
        return MappingProxyType(view.classes(source, c_a))

    def state_sort_key(self, q):
        return self._state_index[q]

    def sorted_states(self, states):
        return sorted(states, key=self.state_sort_key)

    def with_prop(self, prop, true_states):
        """A copy of the arena with one more hidden prop, labeling exactly the
        given states. The copy shares this arena's validated states, actions,
        observations and transitions, and compiles its own coalition views."""
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
        derived.labels = {q: label | {prop} if q in true_states else label
                          for q, label in self.labels.items()}
        derived.hidden = self.hidden | {prop}
        derived.props = self.props | {prop}
        derived._coalitions = {}
        return derived

    def to_document(self):
        """Serialize back to the arena document schema."""
        doc = {
            "agents": [
                {"name": a, "actions": list(self.actions[a]), "observes": sorted(self.observes[a])}
                for a in self.agents
            ],
            "hidden_props": sorted(self.hidden),
            "states": [{"id": q, "labels": sorted(self.labels[q])} for q in self.states],
            "initial": list(self.initial),
            "transitions": [
                {"from": q, "actions": {a: act for a, act in zip(self.agents, c)},
                 "to": self.sorted_states(targets)}
                for (q, c), targets in sorted(
                    self.transitions.items(),
                    key=lambda item: (self._state_index[item[0][0]], item[0][1]))
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


class Strategy:
    """A finite observation-based strategy: a map from coalition observation
    histories (tuples of frozensets) to coalition actions (tuples in coalition
    order), kept as given, not copied, with a default for unmapped histories."""

    def __init__(self, coalition_members, mapping, default):
        self.coalition = tuple(coalition_members)
        self.mapping = mapping
        self.default = tuple(default)

    def action(self, history):
        return self.mapping.get(tuple(frozenset(z) for z in history), self.default)

    def _action_map(self, action):
        return {a: act for a, act in zip(self.coalition, action)}

    def to_document(self):
        entries = []
        for history in sorted(self.mapping, key=lambda h: (len(h), [sorted(z) for z in h])):
            entries.append({
                "history": [sorted(z) for z in history],
                "action": self._action_map(self.mapping[history]),
            })
        return {
            "coalition": list(self.coalition),
            "default": self._action_map(self.default),
            "map": entries,
        }

    @classmethod
    def from_document(cls, doc):
        mapping = {
            tuple(frozenset(z) for z in entry["history"]):
                tuple(entry["action"][a] for a in doc["coalition"])
            for entry in doc["map"]
        }
        default = tuple(doc["default"][a] for a in doc["coalition"])
        return cls(doc["coalition"], mapping, default)
