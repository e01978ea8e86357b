"""Arena loading, validation, outcome partitioning, runs, and strategies."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from atldk import (Arena, ArenaError, CheckerError, SINK_ID, Strategy, load_arena, load_alicebob,
                   model_check)
from atldk.epistemic_split import split
from oracles import (ARENA_FIELDS, CORE, Run, acceptance_batches, coalition_actions,
                     coalition_props, coalition_tuple, core_fields, extensions, family_f, obs,
                     obs_equiv, out, outcome_classes, random_arena, random_arena_document,
                     reference_core, restrict_action, sorted_states, succ, transitions)

AB = ["Alice", "Bob"]


@pytest.fixture(scope="module")
def corpus():
    return load_alicebob()


def tiny_document(**overrides):
    doc = {
        "agents": [
            {"name": "a1", "actions": ["a", "b"], "observes": ["p"]},
            {"name": "a2", "actions": ["a"], "observes": []},
        ],
        "hidden_props": ["h"],
        "states": [
            {"id": "s0", "labels": ["p"]},
            {"id": "s1", "labels": ["h"]},
        ],
        "initial": ["s0"],
        "transitions": [
            {"from": "s0", "actions": {"a1": "a", "a2": "a"}, "to": ["s0", "s1"]},
            {"from": "s0", "actions": {"a1": "b", "a2": "a"}, "to": ["s1"]},
            {"from": "s1", "actions": {"a1": "a", "a2": "a"}, "to": ["s1"]},
            {"from": "s1", "actions": {"a1": "b", "a2": "a"}, "to": ["s0"]},
        ],
    }
    doc.update(overrides)
    return doc


class TestLoading:
    def test_corpus_shape(self, corpus):
        assert len(corpus.states) == 16
        assert corpus.states[-1] == SINK_ID
        assert len(list(corpus.joint_actions())) == 25
        assert corpus.initial == ("q0",)
        assert corpus.agents == ("Alice", "Bob")

    def test_sink_completion_makes_the_relation_total(self, corpus):
        assert len(transitions(corpus)) == 16 * 25
        assert succ(corpus, SINK_ID, ("g", "g")) == frozenset({SINK_ID})
        assert succ(corpus, "q1", ("g", "g")) == frozenset({SINK_ID})
        assert corpus.labels[SINK_ID] == frozenset()

    def test_corpus_transition_goldens(self, corpus):
        assert succ(corpus, "q0", ("g", "g")) == frozenset({"q1", "q2", "q3"})
        assert succ(corpus, "q1", ("i", "i")) == frozenset({"q4"})
        assert succ(corpus, "q9", ("tc", "ds")) == frozenset({"q12"})
        assert succ(corpus, "q10", ("ds", "tc")) == frozenset({"q12"})
        assert succ(corpus, "q11", ("tc", "ds")) == frozenset({"q13"})
        assert succ(corpus, "q12", ("i", "i")) == frozenset({"q12"})

    def test_corpus_labels(self, corpus):
        assert corpus.labels["q12"] == frozenset({"c", "s", "valid"})
        assert corpus.labels["q13"] == frozenset({"c", "valid"})
        assert corpus.labels["q14"] == frozenset({"s", "valid"})
        assert corpus.hidden == frozenset({"xx", "xy", "yx"})
        assert all("valid" in corpus.labels["q%d" % i] for i in range(15))

    def test_load_from_json_text_and_path(self, tmp_path):
        doc = tiny_document()
        from_dict = load_arena(doc)
        from_text = load_arena(json.dumps(doc))
        path = tmp_path / "arena.json"
        path.write_text(json.dumps(doc))
        from_path = load_arena(str(path))
        for g in (from_text, from_path):
            assert g.states == from_dict.states
            assert transitions(g) == transitions(from_dict)

    def test_duplicate_transition_entries_merge(self):
        doc = tiny_document()
        doc["transitions"].append(
            {"from": "s1", "actions": {"a1": "a", "a2": "a"}, "to": ["s0"]})
        g = load_arena(doc)
        assert succ(g, "s1", ("a", "a")) == frozenset({"s0", "s1"})

    def test_minimal_arena(self):
        g = load_arena({
            "agents": [{"name": "solo", "actions": ["go"]}],
            "states": [{"id": "only"}],
            "initial": ["only"],
            "transitions": [{"from": "only", "actions": {"solo": "go"}, "to": ["only"]}],
        })
        assert g.props == frozenset()
        assert succ(g, "only", ("go",)) == frozenset({"only"})

    def test_round_trip_through_document(self, corpus):
        again = load_arena(corpus.to_document())
        assert again.states == corpus.states
        assert again.labels == corpus.labels
        assert again.initial == corpus.initial
        assert again.observes == corpus.observes
        assert again.hidden == corpus.hidden
        assert transitions(again) == transitions(corpus)


class TestLoadErrors:
    def test_missing_fields(self):
        for field in ("agents", "states", "initial", "transitions"):
            doc = tiny_document()
            del doc[field]
            with pytest.raises(ArenaError):
                load_arena(doc)

    def test_duplicate_agent(self):
        doc = tiny_document()
        doc["agents"].append({"name": "a1", "actions": ["a"]})
        with pytest.raises(ArenaError):
            load_arena(doc)

    def test_duplicate_state(self):
        doc = tiny_document()
        doc["states"].append({"id": "s0"})
        with pytest.raises(ArenaError):
            load_arena(doc)

    def test_empty_initial(self):
        with pytest.raises(ArenaError):
            load_arena(tiny_document(initial=[]))

    def test_agent_and_state_rules_are_checked_once(self):
        """load_arena leaves these rules to Arena validation, which names the
        duplicate it finds."""
        duplicate_agent, duplicate_state, no_actions = (tiny_document() for _ in range(3))
        duplicate_agent["agents"].append({"name": "a1", "actions": ["a"]})
        duplicate_state["states"].append({"id": "s0"})
        no_actions["agents"][1]["actions"] = []
        for doc, message in ((duplicate_agent, "duplicate agent a1"),
                             (duplicate_state, "duplicate state id s0"),
                             (no_actions, "agent a2 has no actions"),
                             (tiny_document(initial=[]), "arena has no initial states"),
                             (tiny_document(initial=["s0", "s0"]),
                              "duplicate initial state id s0")):
            with pytest.raises(ArenaError) as raised:
                load_arena(doc)
            assert str(raised.value) == message
        with pytest.raises(ArenaError, match="^'agents' must be a list$"):
            load_arena(tiny_document(agents={"name": "a1"}))

    def test_unknown_initial(self):
        with pytest.raises(ArenaError):
            load_arena(tiny_document(initial=["nowhere"]))

    def test_transition_must_cover_every_agent(self):
        doc = tiny_document()
        doc["transitions"][0]["actions"] = {"a1": "a"}
        with pytest.raises(ArenaError):
            load_arena(doc)

    def test_non_serial_rejected_without_sink(self):
        doc = tiny_document()
        doc["transitions"].pop()
        with pytest.raises(ArenaError, match="non-serial"):
            load_arena(doc)

    def test_sink_completion_repairs_missing_pairs(self):
        doc = tiny_document()
        doc["transitions"].pop()
        doc["complete_with_sink"] = True
        g = load_arena(doc)
        assert succ(g, "s1", ("b", "a")) == frozenset({SINK_ID})

    def test_sink_flag_must_be_a_boolean(self):
        doc = tiny_document()
        doc["transitions"].pop()
        doc["complete_with_sink"] = "false"
        with pytest.raises(ArenaError, match="'complete_with_sink' must be true or false"):
            load_arena(doc)

    def test_prop_both_hidden_and_observed(self):
        doc = tiny_document()
        doc["hidden_props"] = ["p"]
        with pytest.raises(ArenaError):
            load_arena(doc)

    def test_undeclared_label_prop(self):
        doc = tiny_document()
        doc["states"][0]["labels"] = ["mystery"]
        with pytest.raises(ArenaError):
            load_arena(doc)

    def test_reserved_prop_character(self):
        """A prop that the checker reserves loads; model_check rejects it,
        naming it, before the first level. Other props with # are the user's."""
        doc = tiny_document()
        doc["agents"][0]["observes"] = ["p", "p#1", "x#y"]
        doc["states"][0]["labels"] = ["p", "p#1", "x#y"]
        g = load_arena(doc)
        assert g.labels["s0"] == frozenset({"p", "p#1", "x#y"})
        message = r"^arena declares p#1, which the checker reserves for its labeling levels$"
        with pytest.raises(CheckerError, match=message):
            model_check(g, "p")
        del doc["agents"][0]["observes"][1], doc["states"][0]["labels"][1]
        assert model_check(load_arena(doc), "p").holds

    def test_unknown_action_in_transition(self):
        doc = tiny_document()
        doc["transitions"][0]["actions"]["a1"] = "zz"
        with pytest.raises(ArenaError):
            load_arena(doc)

    def test_duplicate_initial(self):
        with pytest.raises(ArenaError, match="duplicate initial"):
            load_arena(tiny_document(initial=["s0", "s0"]))
        g = load_arena(tiny_document())
        with pytest.raises(ArenaError, match="duplicate initial"):
            Arena(g.agents, g.actions, g.states, g.labels, ["s1", "s0", "s1"],
                  g.observes, g.hidden, transitions(g))


def one_letter_document():
    """An arena whose state ids and props are single letters, so a string in a
    list field would spell valid members one character at a time."""
    return {
        "agents": [{"name": "x", "actions": ["go"], "observes": ["p", "q"]}],
        "hidden_props": ["r"],
        "states": [{"id": "a", "labels": ["p", "r"]}, {"id": "b", "labels": []}],
        "initial": ["a"],
        "transitions": [
            {"from": "a", "actions": {"x": "go"}, "to": ["a", "b"]},
            {"from": "b", "actions": {"x": "go"}, "to": ["b"]},
        ],
    }


class TestListFields:
    """Every list field must be a JSON list, never a string read letter by letter."""

    def test_the_document_loads_with_lists(self):
        g = load_arena(one_letter_document())
        assert succ(g, "a", ("go",)) == frozenset({"a", "b"})
        assert g.labels["a"] == frozenset({"p", "r"})

    def test_to_must_be_a_list(self):
        doc = one_letter_document()
        doc["transitions"][0]["to"] = "ab"
        with pytest.raises(ArenaError, match="'to'"):
            load_arena(doc)
        doc = tiny_document()
        doc["transitions"][0]["to"] = "s1"
        with pytest.raises(ArenaError, match="'to' of a transition from s0"):
            load_arena(doc)

    def test_initial_must_be_a_list(self):
        with pytest.raises(ArenaError, match="'initial'"):
            load_arena(dict(one_letter_document(), initial="a"))

    def test_observes_must_be_a_list(self):
        doc = one_letter_document()
        doc["agents"][0]["observes"] = "pq"
        with pytest.raises(ArenaError, match="'observes' of agent x"):
            load_arena(doc)

    def test_hidden_props_must_be_a_list(self):
        with pytest.raises(ArenaError, match="'hidden_props'"):
            load_arena(dict(one_letter_document(), hidden_props="r"))

    def test_labels_must_be_a_list(self):
        doc = one_letter_document()
        doc["states"][0]["labels"] = "pr"
        with pytest.raises(ArenaError, match="'labels' of state a"):
            load_arena(doc)



class TestUnhashableNames:
    """A JSON list or object where a name belongs is an ArenaError naming the
    field, never a TypeError from the set or dict it would be put in."""

    def test_state_id(self):
        doc = tiny_document()
        doc["states"][1]["id"] = ["s1"]
        with pytest.raises(ArenaError, match="'id' of a state must be a name, not list"):
            load_arena(doc)

    def test_initial_entry(self):
        with pytest.raises(ArenaError, match="an entry of 'initial' must be a name, not list"):
            load_arena(tiny_document(initial=[["s0"]]))

    def test_observes_entry(self):
        doc = tiny_document()
        doc["agents"][0]["observes"] = [["p"]]
        with pytest.raises(ArenaError, match="'observes' of agent a1 must be a name, not list"):
            load_arena(doc)

    def test_hidden_props_entry(self):
        with pytest.raises(ArenaError, match="'hidden_props' must be a name, not dict"):
            load_arena(tiny_document(hidden_props=[{"h": 1}]))

    def test_labels_entry(self):
        doc = tiny_document()
        doc["states"][0]["labels"] = [["p"]]
        with pytest.raises(ArenaError, match="'labels' of state s0 must be a name, not list"):
            load_arena(doc)

    def test_transition_from(self):
        doc = tiny_document()
        doc["transitions"][2]["from"] = ["s1"]
        with pytest.raises(ArenaError, match="'from' of a transition must be a name, not list"):
            load_arena(doc)

    def test_transition_to_entry(self):
        doc = tiny_document()
        doc["transitions"][2]["to"] = ["s1", ["s0"]]
        with pytest.raises(ArenaError,
                           match="'to' of a transition from s1 must be a name, not list"):
            load_arena(doc)

    def test_action_names(self):
        doc = tiny_document()
        doc["agents"][0]["actions"] = ["a", ["b"]]
        with pytest.raises(ArenaError, match="'actions' of agent a1 must be a name, not list"):
            load_arena(doc)
        doc = tiny_document()
        doc["transitions"][1]["actions"]["a1"] = ["b"]
        with pytest.raises(ArenaError, match="the action of agent a1 in a transition from s0"):
            load_arena(doc)

    def test_agent_name(self):
        doc = tiny_document()
        doc["agents"][1]["name"] = ["a2"]
        with pytest.raises(ArenaError, match="'name' of an agent must be a name, not list"):
            load_arena(doc)


class TestStringNames:
    """State ids, props and agent names must be JSON strings; a number there is
    an ArenaError naming the field. Action names may be any JSON scalar."""

    def test_state_id(self):
        doc = tiny_document()
        doc["states"][0]["id"] = 0
        with pytest.raises(ArenaError, match="'id' of a state must be a string, not int 0"):
            load_arena(doc)

    def test_observes_entry(self):
        doc = tiny_document()
        doc["agents"][0]["observes"] = ["p", 0]
        with pytest.raises(ArenaError,
                           match="an entry of 'observes' of agent a1 must be a string, not int"):
            load_arena(doc)

    def test_hidden_props_entry(self):
        with pytest.raises(ArenaError,
                           match="an entry of 'hidden_props' must be a string, not float"):
            load_arena(tiny_document(hidden_props=["h", 1.5]))

    def test_labels_entry(self):
        doc = tiny_document()
        doc["states"][1]["labels"] = ["h", True]
        with pytest.raises(ArenaError,
                           match="an entry of 'labels' of state s1 must be a string, not bool"):
            load_arena(doc)

    def test_agent_name(self):
        doc = tiny_document()
        doc["agents"][1]["name"] = 7
        with pytest.raises(ArenaError, match="'name' of an agent must be a string, not int 7"):
            load_arena(doc)

    def test_numeric_action_names_stay_accepted(self):
        doc = tiny_document()
        doc["agents"][0]["actions"] = [0, 1]
        for entry, action in zip(doc["transitions"], [0, 1, 0, 1]):
            entry["actions"]["a1"] = action
        g = load_arena(doc)
        assert g.actions["a1"] == (0, 1)
        assert succ(g, "s0", (1, "a")) == frozenset({"s1"})


def arena_parts(**overrides):
    """Arena constructor arguments for the tiny document, one of them replaced."""
    g = load_arena(tiny_document())
    parts = dict(agents=g.agents, actions=g.actions, states=g.states, labels=g.labels,
                 initial=g.initial, observes=g.observes, hidden=g.hidden,
                 transitions=transitions(g))
    parts.update(overrides)
    return parts


class TestValidationMessages:
    """Every transition check of Arena validation, reached through the constructor."""

    @staticmethod
    def rejected(message, **overrides):
        with pytest.raises(ArenaError) as raised:
            Arena(**arena_parts(**overrides))
        assert str(raised.value) == message

    @staticmethod
    def transitions(*changes):
        table = arena_parts()["transitions"]
        for key, targets in changes:
            if targets is None:
                del table[key]
            else:
                table[key] = targets
        return table

    def test_the_parts_build_an_arena(self):
        assert transitions(Arena(**arena_parts())) == transitions(load_arena(tiny_document()))

    def test_wrong_arity(self):
        self.rejected("joint action ('a',) has wrong arity",
                      transitions=self.transitions((("s0", ("a",)), {"s0"})))

    def test_unknown_action(self):
        self.rejected("unknown action z for agent a2",
                      transitions=self.transitions((("s0", ("a", "z")), {"s0"})))

    def test_transition_from_unknown_state(self):
        self.rejected("transition from unknown state s9",
                      transitions=self.transitions((("s9", ("a", "a")), {"s0"})))

    def test_transition_to_unknown_state(self):
        self.rejected("transition to unknown state s9",
                      transitions=self.transitions((("s1", ("b", "a")), {"s0", "s9"})))

    def test_empty_successor_set(self):
        self.rejected("empty successor set for state s1",
                      transitions=self.transitions((("s1", ("a", "a")), set())))

    def test_non_serial(self):
        self.rejected("non-serial transition relation: state s1 has no successor under ('b', 'a')",
                      transitions=self.transitions((("s1", ("b", "a")), None)))

    def test_invalid_key_in_place_of_a_missing_one(self):
        # The number of keys is right, but one of them is not a valid pair.
        self.rejected("unknown action z for agent a2",
                      transitions=self.transitions((("s1", ("b", "a")), None),
                                                   (("s1", ("b", "z")), {"s0"})))

    def test_sequence_key_in_place_of_a_missing_one(self):
        # "ba" passes the checks one by one but is not the joint action ("b", "a").
        self.rejected("non-serial transition relation: state s1 has no successor under ('b', 'a')",
                      transitions=self.transitions((("s1", ("b", "a")), None),
                                                   (("s1", "ba"), {"s0"})))

    def test_first_faulty_transition_names_the_error(self):
        self.rejected("transition to unknown state s8",
                      transitions=self.transitions((("s0", ("a", "a")), {"s8"}),
                                                   (("s9", ("a", "a")), {"s0"})))

    def test_an_earlier_fault_wins_over_a_later_one_checked_first(self):
        """Transitions are checked in the order given, each fully, and
        seriality after all of them."""
        doc = tiny_document()
        doc["transitions"][0]["to"] = []
        doc["transitions"].append({"from": "s9", "actions": {"a1": "a", "a2": "a"}, "to": ["s0"]})
        with pytest.raises(ArenaError, match=r"^empty successor set for state s0$"):
            load_arena(doc)
        del doc["transitions"][0]
        with pytest.raises(ArenaError, match=r"^transition from unknown state s9$"):
            load_arena(doc)

    def test_undeclared_label_prop(self):
        labels = dict(arena_parts()["labels"], s1=frozenset({"h", "mystery"}))
        self.rejected("state s1 labeled with undeclared props ['mystery']", labels=labels)

    def test_state_ids_must_be_strings(self):
        """As load_arena requires; an int id passed here once reached split,
        which failed with a bare TypeError while naming refined states."""
        with pytest.raises(ArenaError) as raised:
            Arena(["a"], {"a": ["x"]}, [0, 1], {0: {"p"}, 1: set()}, [0], {"a": ["p"]}, [],
                  {(0, ("x",)): {1}, (1, ("x",)): {1}})
        assert str(raised.value) == "state id 0 must be a string, not int"

    def test_props_must_be_strings(self):
        """As load_arena requires; an int prop passed here once reached the
        coalition view, which failed with a bare TypeError sorting observations."""
        with pytest.raises(ArenaError) as raised:
            Arena(["a"], {"a": ["x"]}, ["s", "t"], {"s": {1, "p"}, "t": {"p"}}, ["s"],
                  {"a": [1, "p"]}, [], {("s", ("x",)): {"t"}, ("t", ("x",)): {"t"}})
        assert str(raised.value) == "prop 1 must be a string, not int"
        observes = dict(arena_parts()["observes"], a2=frozenset({("q",)}))
        self.rejected("prop ('q',) must be a string, not tuple", observes=observes)
        self.rejected("prop 2.5 must be a string, not float", hidden={"h", 2.5})
        labels = dict(arena_parts()["labels"], s1=frozenset({"h", 3}))
        self.rejected("prop 3 must be a string, not int", labels=labels)

    def test_no_states(self):
        self.rejected("arena has no states", states=(), labels={}, initial=(), transitions={})

    def test_duplicate_action_names(self):
        self.rejected("duplicate action names for agent a1",
                      actions=dict(arena_parts()["actions"], a1=("a", "b", "a")))
        doc = tiny_document()
        doc["agents"][0]["actions"] = ["a", "b", "a"]
        with pytest.raises(ArenaError, match=r"^duplicate action names for agent a1$"):
            load_arena(doc)

    def test_prop_both_hidden_and_observed(self):
        """As load_arena rejects it, so every arena's dump reloads."""
        self.rejected("props both hidden and observed: ['p']", hidden={"h", "p"})
        with pytest.raises(ArenaError, match=r"^props both hidden and observed: \['p'\]$"):
            load_arena(tiny_document(hidden_props=["h", "p"]))


def coalition_parts(g, view):
    """{joint action: its coalition part}, as the view's rows give it."""
    return {c: view.actions[k] for c, (k, _) in zip(g.joint_actions(), view.row(0))}


def view_extensions(g, view):
    """{coalition action: its joint actions in order}, as the view's rows give it."""
    extended = {}
    for c, c_a in coalition_parts(g, view).items():
        extended.setdefault(c_a, []).append(c)
    return extended


class TestCoalitions:
    def test_coalition_tuple_uses_agent_order(self, corpus):
        for coalition, members in ((["Bob", "Alice"], ("Alice", "Bob")),
                                   ({"Bob"}, ("Bob",)), ([], ())):
            assert split(corpus, coalition).view.members == members
            assert coalition_tuple(corpus, coalition) == members

    def test_each_split_compiles_its_own_view(self, corpus):
        first, second = split(corpus, AB), split(corpus, AB)
        assert first.view is not second.view
        assert first.view.members == second.view.members == ("Alice", "Bob")

    def test_unknown_member_rejected(self, corpus):
        calls = (lambda: split(corpus, ["Alice", "Eve"]),
                 lambda: obs(corpus, ["Alice", "Eve"], "q0"),
                 lambda: outcome_classes(corpus, {"q0"}, ["Alice", "Eve"], ("g", "g")),
                 lambda: coalition_tuple(corpus, ["Alice", "Eve"]))
        for call in calls:
            with pytest.raises(ArenaError, match=r"unknown coalition members \['Eve'\]"):
                call()

    def test_coalition_props(self, corpus):
        assert "x_a" in coalition_props(corpus, ["Alice"])
        assert "x_b" not in coalition_props(corpus, ["Alice"])
        assert coalition_props(corpus, []) == frozenset()

    def test_memoized_views_never_go_stale(self):
        arena = load_alicebob()
        spellings = (["Bob", "Alice"], ("Alice", "Bob"), frozenset(AB), ["Bob", "Alice"])
        for coalition in spellings:
            assert split(arena, coalition).view.members == ("Alice", "Bob")
            assert coalition_props(arena, coalition) == arena.observes["Alice"] | arena.observes["Bob"]
            assert obs(arena, coalition, "q4") == frozenset({"y_a", "x_b", "valid"})
        for coalition in (["Alice"], ("Alice",), frozenset({"Alice"}), ["Alice"]):
            assert split(arena, coalition).view.members == ("Alice",)
            assert coalition_props(arena, coalition) == arena.observes["Alice"]
            assert obs(arena, coalition, "q4") == frozenset({"y_a", "valid"})
        for _ in range(2):
            with pytest.raises(ArenaError):
                split(arena, ["Alice", "Eve"])
            with pytest.raises(ArenaError):
                coalition_props(arena, ("Eve",))
            with pytest.raises(ArenaError):
                obs(arena, frozenset({"Eve"}), "q4")
        seen = Arena(arena.agents, arena.actions, arena.states,
                     {q: arena.labels[q] | ({"seen"} if q == "q4" else set())
                      for q in arena.states},
                     arena.initial, {a: arena.observes[a] | {"seen"} for a in arena.agents},
                     arena.hidden, transitions(arena))
        assert "seen" in coalition_props(seen, ["Alice"])
        assert obs(seen, ["Alice"], "q4") == frozenset({"y_a", "valid", "seen"})
        assert obs(arena, ["Alice"], "q4") == frozenset({"y_a", "valid"})

    def test_extensions_fix_only_the_coalition(self, corpus):
        exts = list(extensions(corpus, ["Alice"], ("i",)))
        assert len(exts) == 5
        assert all(c[0] == "i" for c in exts)
        assert {c[1] for c in exts} == set(corpus.actions["Bob"])
        assert list(extensions(corpus, AB, ("g", "g"))) == [("g", "g")]
        assert view_extensions(corpus, split(corpus, ["Alice"]).view)[("i",)] == exts

    def test_empty_coalition_extensions_are_all_joint_actions(self, corpus):
        view = split(corpus, []).view
        assert view.actions == ((),)
        assert list(extensions(corpus, [], ())) == list(corpus.joint_actions())
        assert view_extensions(corpus, view)[()] == list(corpus.joint_actions())

    def test_restrict_action(self, corpus):
        assert coalition_parts(corpus, split(corpus, ["Bob"]).view)[("g", "e")] == ("e",)
        assert coalition_parts(corpus, split(corpus, AB).view)[("g", "e")] == ("g", "e")
        assert coalition_parts(corpus, split(corpus, []).view)[("g", "e")] == ()
        assert restrict_action(corpus, ["Bob"], ("g", "e")) == ("e",)


class TestObservations:
    def test_obs_goldens(self, corpus):
        assert obs(corpus, ["Alice"], "q4") == frozenset({"y_a", "valid"})
        assert obs(corpus, ["Bob"], "q4") == frozenset({"x_b"})
        assert obs(corpus, AB, "q4") == frozenset({"y_a", "x_b", "valid"})
        assert obs(corpus, AB, "q1") == frozenset({"valid"})
        assert obs(corpus, [], "q12") == frozenset()

    def test_hidden_props_never_observed(self, corpus):
        for q in ("q1", "q2", "q3"):
            assert obs(corpus, AB, q) == frozenset({"valid"})

    def test_unknown_state(self, corpus):
        with pytest.raises(ArenaError):
            obs(corpus, AB, "q99")


class TestOut:
    def test_out_golden_initial_step(self, corpus):
        assert out(corpus, {"q0"}, AB, ("g", "g"), {"valid"}) == frozenset({"q1", "q2", "q3"})
        assert out(corpus, {"q0"}, AB, ("g", "g"), set()) == frozenset()

    def test_out_splits_by_exact_observation(self, corpus):
        source = {"q1", "q2", "q3"}
        assert out(corpus, source, AB, ("i", "i"), {"y_a", "x_b", "valid"}) == frozenset({"q4"})
        assert out(corpus, source, AB, ("i", "i"), {"x_a", "x_b", "valid"}) == frozenset({"q5"})
        assert out(corpus, source, AB, ("i", "i"), {"x_a", "y_b", "valid"}) == frozenset({"q6"})

    def test_single_agent_view_merges_states(self, corpus):
        source = {"q1", "q2", "q3"}
        merged = out(corpus, source, ["Alice"], ("i",), {"x_a", "valid"})
        assert merged == frozenset({"q5", "q6"})

    def test_out_includes_opponent_deviations(self, corpus):
        hit_sink = out(corpus, {"q1"}, ["Alice"], ("i",), set())
        assert hit_sink == frozenset({SINK_ID})

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.data())
    def test_outcome_classes_partition_the_successors(self, seed, data):
        rng = random.Random(seed)
        g = random_arena(rng)
        coalition = data.draw(st.sampled_from((["a1"], ["a2"], ["a1", "a2"])))
        source = data.draw(st.sets(st.sampled_from(sorted(g.states)), min_size=1))
        c_a = data.draw(st.sampled_from(coalition_actions(g, coalition)))
        classes = outcome_classes(g, source, coalition, c_a)
        everything = {t for c in extensions(g, coalition, c_a)
                      for s in source for t in succ(g, s, c)}
        assert frozenset().union(*classes.values()) == everything if classes else not everything
        for z, members in classes.items():
            assert members == out(g, source, coalition, c_a, z)
            assert all(obs(g, coalition, t) == z for t in members)
        for z in classes:
            others = everything - classes[z]
            assert all(obs(g, coalition, t) != z for t in others)



def grouped_from_scratch(g, source, coalition, c_a):
    """outcome_classes recomputed from the arena's raw fields, sharing no code or
    memo with Arena."""
    props, relation = frozenset().union(*(g.observes[a] for a in coalition)), transitions(g)
    grouped = {}
    for c in g.joint_actions():
        if tuple(act for a, act in zip(g.agents, c) if a in coalition) != tuple(c_a):
            continue
        for s in source:
            for t in relation[(s, c)]:
                grouped.setdefault(g.labels[t] & props, set()).add(t)
    return {z: frozenset(members) for z, members in grouped.items()}


def rebuilt(g):
    """A newly constructed Arena with the same fields, so with empty memos."""
    return Arena(g.agents, g.actions, g.states, g.labels, g.initial,
                 g.observes, g.hidden, transitions(g))


COALITIONS = (["a1"], ["a2"], ["a1", "a2"], [])


class TestCompiledView:
    def test_memoized_outcome_classes_equal_fresh_ones(self):
        """Every source of small arenas, the empty one (BOT's kset) among
        them, and sources of a 70-state arena, whose masks pass one machine
        word."""
        cases = []
        for seed in range(40):
            g = random_arena(random.Random(seed))
            cases.append((g, [frozenset(c) for r in range(len(g.states) + 1)
                              for c in itertools.combinations(g.states, r)]))
        rng, wide = random.Random(0), random_arena(random.Random(0), min_states=70, max_states=70)
        cases.append((wide, [frozenset(), frozenset(wide.states)] + [
            frozenset(rng.sample(wide.states, k)) for k in (1, 1, 2, 3, 10, 35, 69)]))
        for g, sources in cases:
            for coalition in COALITIONS:
                for _ in range(2):
                    for source in sources:
                        for c_a in coalition_actions(g, coalition):
                            memoized = outcome_classes(g, source, coalition, c_a)
                            fresh = outcome_classes(rebuilt(g), source, coalition, c_a)
                            assert memoized == fresh
                            assert memoized == grouped_from_scratch(g, source, coalition, c_a)

    def test_source_spellings_agree(self, corpus):
        source = ["q1", "q2", "q3"]
        for coalition in (["Alice"], AB):
            c_a = coalition_actions(corpus, coalition)[-1]
            first = outcome_classes(corpus, source, coalition, c_a)
            assert first
            for spelling in (set(source), frozenset(source), source[::-1]):
                assert outcome_classes(corpus, spelling, coalition, list(c_a)) == first

    def test_returned_mappings_are_read_only(self, corpus):
        classes = outcome_classes(corpus, {"q0"}, AB, ("g", "g"))
        z = next(iter(classes))
        with pytest.raises(TypeError):
            classes[z] = frozenset()
        with pytest.raises(TypeError):
            del classes[z]
        assert all(isinstance(members, frozenset) for members in classes.values())
        assert outcome_classes(corpus, {"q0"}, AB, ("g", "g")) == {
            frozenset({"valid"}): frozenset({"q1", "q2", "q3"})}

    def test_classes_come_in_observation_order(self):
        for seed in range(40):
            g = random_arena(random.Random(seed))
            for coalition in COALITIONS:
                for c_a in coalition_actions(g, coalition):
                    for source in [(q,) for q in g.states] + [g.states]:
                        classes = outcome_classes(g, source, coalition, c_a)
                        assert list(classes) == sorted(classes, key=sorted), seed

    def test_obs_and_restrict_action_follow_the_definitions(self):
        """Observations, each state's moves with their coalition part and
        sorted successors, and coalition actions in the members' product order
        (until choices depend on it), each with its extensions, against the
        oracle helpers."""
        for seed in range(40):
            g = random_arena(random.Random(seed))
            for coalition in COALITIONS + (["a2", "a1"],):
                view = split(g, coalition).view
                props = frozenset().union(*(g.observes[a] for a in coalition))
                for i, q in enumerate(g.states):
                    assert (obs(g, coalition, q) == view.observations[view.rank[i]]
                            == g.labels[q] & props)
                    assert [(view.actions[k], [g.states[t] for t in successors])
                            for k, successors in view.row(i)] == [
                        (restrict_action(g, coalition, c), sorted_states(g, succ(g, q, c)))
                        for c in g.joint_actions()], seed
                members = coalition_tuple(g, coalition)
                assert view.members == members
                assert view.actions == tuple(itertools.product(*(g.actions[a] for a in members)))
                assert list(view.actions) == coalition_actions(g, coalition)
                for c_a in view.actions:
                    assert view_extensions(g, view)[c_a] == list(extensions(g, coalition, c_a))

    def test_lazily_built_core_equals_the_frozenset_reference(self):
        """The observation core a view builds on its first read equals
        oracles.reference_core: on views of the loaded arenas of the
        acceptance batches, of walked refinements of them (by another
        coalition) and of same-coalition re-splits; and on the views of the
        re-splits whose goal tables read the core, for <a1>F <a1>X p3 on
        family F."""
        for seed, g in acceptance_batches():
            for coalition in COALITIONS:
                hat = split(g, coalition)
                cases = [(hat.view, g, coalition)] + [
                    (split(hat.arena, other).view, hat.arena, other) for other in COALITIONS]
                for view, arena, members in cases:
                    read = {name: getattr(view, name) for name in CORE}
                    assert read == core_fields(view) == reference_core(arena, members), seed
        for i, n in enumerate((6, 8, 10, 12)):
            verdict = model_check(family_f(100 + i, n), "<a1>F <a1>X p3")
            hats = [level.hat for level in verdict.table if level.game is not None]
            assert [hat.source._refinement.coalition for hat in hats] == [{"a1"}]
            for hat in hats:
                assert core_fields(hat.view) == reference_core(hat.source, ["a1"]), n

    def test_classes_reject_what_is_not_an_action_or_a_state(self, corpus):
        for c_a in (("g", "g"), ("x",), ()):
            with pytest.raises(ArenaError, match=r"is not an action of coalition \{Alice\}"):
                outcome_classes(corpus, {"q0"}, ["Alice"], c_a)
        with pytest.raises(ArenaError, match=r"unknown states \['q99'\]"):
            outcome_classes(corpus, {"q0", "q99"}, ["Alice"], ("g",))
        assert outcome_classes(corpus, {"q0"}, ["Alice"], ("g",))


class TestWithProp:
    def test_adds_hidden_prop(self, corpus):
        extended = corpus.with_prop("goal", ["q12"])
        assert "goal" in extended.labels["q12"]
        assert all("goal" not in extended.labels[q] for q in extended.states if q != "q12")
        assert "goal" in extended.hidden
        assert obs(extended, AB, "q12") == obs(corpus, AB, "q12")

    def test_rejects_existing_prop(self, corpus):
        with pytest.raises(ArenaError):
            corpus.with_prop("valid", ["q0"])

    def test_rejects_unknown_states(self, corpus):
        with pytest.raises(ArenaError, match=r"unknown states \['nope'\]"):
            corpus.with_prop("goal", ["q12", "nope"])
        with pytest.raises(ArenaError, match=r"must be state ids, not \[\['q12'\]\]"):
            corpus.with_prop("goal", [["q12"]])

    def test_rejects_a_prop_that_is_not_a_string(self, corpus):
        with pytest.raises(ArenaError, match=r"prop must be a string, not list \['x'\]"):
            corpus.with_prop(["x"], [])

    def test_equals_the_arena_built_and_validated_from_its_parts(self):
        for seed in range(40):
            rng = random.Random(seed)
            g = random_arena(rng)
            # Reading outcome classes leaves no view behind for the copy to carry.
            outcome_classes(g, g.states, ["a1"], coalition_actions(g, ["a1"])[0])
            true_states = rng.sample(g.states, rng.randint(0, len(g.states)))
            derived = g.with_prop("new", true_states)
            assert set(vars(derived)) == set(vars(g)) == ARENA_FIELDS
            assert derived._rows is g._rows
            labels = {q: set(g.labels[q]) | ({"new"} if q in true_states else set())
                      for q in g.states}
            fresh = Arena(g.agents, g.actions, g.states, labels, g.initial,
                          g.observes, set(g.hidden) | {"new"}, transitions(g))
            assert derived.to_document() == fresh.to_document(), seed
            assert derived.props == fresh.props == g.props | {"new"}, seed
            for coalition in COALITIONS:
                for q in g.states:
                    assert obs(derived, coalition, q) == obs(fresh, coalition, q), seed
                for c_a in coalition_actions(g, coalition):
                    for source in [(q,) for q in g.states] + [g.states]:
                        assert (outcome_classes(derived, source, coalition, c_a)
                                == outcome_classes(fresh, source, coalition, c_a)), seed

    def test_labels_only_the_true_states_and_leaves_the_source_alone(self):
        """Over random arenas and their refinements, where many states share
        one label object, and over a chain of copies."""
        for seed in range(60):
            rng = random.Random(seed)
            g = random_arena(rng, max_states=6)
            sources = [g, split(g, rng.choice(COALITIONS[:3])).arena]
            for k in range(6):
                source, prop = sources[k], "new%d" % k
                true_states = rng.sample(source.states, rng.randint(0, len(source.states)))
                before = dict(source.labels)
                derived = source.with_prop(prop, true_states)
                assert derived.labels == {q: label | {prop} if q in true_states else label
                                          for q, label in before.items()}, seed
                assert list(derived.labels) == list(before), seed
                assert derived.labels is not source.labels, seed
                assert source.labels == before, seed
                assert all(source.labels[q] is label for q, label in before.items()), seed
                sources.append(derived)


class TestRuns:
    def test_valid_initialized_run(self, corpus):
        run = Run(["q0", "q1", "q4"], [("g", "g"), ("i", "i")])
        assert run.is_initialized(corpus)
        assert run.is_valid(corpus)
        assert len(run) == 2
        assert run.last == "q4"

    def test_invalid_step_detected(self, corpus):
        run = Run(["q0", "q4"], [("g", "g")])
        assert not run.is_valid(corpus)

    def test_uninitialized(self, corpus):
        assert not Run(["q1"]).is_initialized(corpus)

    def test_extend(self, corpus):
        run = Run(["q0"]).extend(("g", "g"), "q2")
        assert run.states == ("q0", "q2")
        assert run.is_valid(corpus)

    def test_shape_validation(self):
        with pytest.raises(ArenaError):
            Run([])
        with pytest.raises(ArenaError):
            Run(["q0", "q1"], [])

    def test_equality_and_hash(self):
        r1 = Run(["q0", "q1"], [("g", "g")])
        r2 = Run(["q0", "q1"], [("g", "g")])
        assert r1 == r2 and hash(r1) == hash(r2)
        assert r1 != Run(["q0", "q2"], [("g", "g")])


class TestObsEquiv:
    def test_hidden_cards_indistinguishable(self, corpus):
        runs = [Run(["q0", q], [("g", "g")]) for q in ("q1", "q2", "q3")]
        for first in runs:
            for second in runs:
                assert obs_equiv(corpus, AB, first, second)

    def test_revealed_cards_distinguish(self, corpus):
        r1 = Run(["q0", "q1", "q4"], [("g", "g"), ("i", "i")])
        r2 = Run(["q0", "q2", "q5"], [("g", "g"), ("i", "i")])
        assert not obs_equiv(corpus, ["Alice"], r1, r2)
        assert not obs_equiv(corpus, AB, r1, r2)

    def test_different_own_actions_distinguish(self, corpus):
        r1 = Run(["q0", "q1"], [("g", "g")])
        r2 = Run(["q0", "q1"], [("e", "g")])
        assert not obs_equiv(corpus, ["Alice"], r1, r2)
        assert obs_equiv(corpus, ["Bob"], r1, r2)

    def test_lengths_must_match(self, corpus):
        r1 = Run(["q0"])
        r2 = Run(["q0", "q1"], [("g", "g")])
        assert not obs_equiv(corpus, AB, r1, r2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_is_an_equivalence_relation(self, seed):
        rng = random.Random(seed)
        g = random_arena(rng, max_states=3)
        from oracles import initialized_runs
        runs = initialized_runs(g, 2)[:40]
        coalition = ["a1"]
        for r1 in runs[:12]:
            assert obs_equiv(g, coalition, r1, r1)
            for r2 in runs[:12]:
                assert obs_equiv(g, coalition, r1, r2) == obs_equiv(g, coalition, r2, r1)


class TestStrategy:
    def test_lookup_and_default(self):
        strategy = Strategy(
            ("Alice", "Bob"),
            {((frozenset({"valid"}),)): ("g", "g")},
            ("i", "i"),
        )
        assert strategy.action((frozenset({"valid"}),)) == ("g", "g")
        assert strategy.action(({"valid"},)) == ("g", "g")
        assert strategy.action((frozenset({"c"}),)) == ("i", "i")

    def test_document_round_trip(self):
        strategy = Strategy(
            ("Alice", "Bob"),
            {
                (frozenset({"valid"}),): ("g", "g"),
                (frozenset({"valid"}), frozenset()): ("e", "i"),
            },
            ("i", "i"),
        )
        doc = strategy.to_document()
        assert doc["coalition"] == ["Alice", "Bob"]
        assert doc["default"] == {"Alice": "i", "Bob": "i"}
        again = Strategy.from_document(doc)
        assert again.mapping == strategy.mapping
        assert again.default == strategy.default
        assert again.coalition == strategy.coalition

    def test_document_is_json_serializable(self):
        strategy = Strategy(("a1",), {(frozenset({"p"}),): ("a",)}, ("b",))
        json.dumps(strategy.to_document())

    def test_document_coalition_must_be_a_list(self):
        """A string coalition is not read as its characters."""
        doc = {"coalition": "Alice", "default": {"Alice": "i"}, "map": []}
        with pytest.raises(ArenaError, match="'coalition' must be a list"):
            Strategy.from_document(doc)

    def test_document_coalition_must_not_repeat_a_member(self):
        """A repeated member is not read as two agents that play alike."""
        doc = {"coalition": ["Alice", "Alice"], "default": {"Alice": "g"}, "map": []}
        with pytest.raises(ArenaError, match="'coalition' repeats Alice"):
            Strategy.from_document(doc)

    def test_constructor_rejects_a_repeated_member_and_a_default_of_the_wrong_length(self):
        """A repeated member would collapse the action maps in to_document,
        and a default of the wrong length would be cut or padded silently."""
        with pytest.raises(ArenaError, match=r"^'coalition' repeats Alice$"):
            Strategy(("Alice", "Alice"), {}, ("g", "i"))
        for coalition, default in ((("Alice",), ("g", "i")), (("Alice", "Bob"), ("g",))):
            with pytest.raises(ArenaError, match=r"^'default' .* is not one action per member"):
                Strategy(coalition, {}, default)
        assert Strategy(("Alice", "Bob"), {}, ("g", "i")).default == ("g", "i")

    def test_document_default_must_cover_the_coalition(self):
        doc = {"coalition": ["Alice", "Bob"], "default": {"Alice": "i"}, "map": []}
        with pytest.raises(ArenaError, match="'default' has no action for Bob"):
            Strategy.from_document(doc)

    def test_document_map_action_must_cover_the_coalition(self):
        doc = {"coalition": ["Alice", "Bob"], "default": {"Alice": "i", "Bob": "i"},
               "map": [{"history": [["valid"]], "action": {"Bob": "g"}}]}
        with pytest.raises(ArenaError, match="'action' of a map entry has no action for Alice"):
            Strategy.from_document(doc)


class TestGeneratorSanity:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_documents_load(self, seed):
        rng = random.Random(seed)
        g = load_arena(random_arena_document(rng))
        assert 2 <= len(g.states) <= 4
        assert g.agents == ("a1", "a2")
        for q in g.states:
            for c in g.joint_actions():
                assert succ(g, q, c)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_unique_label_arenas_distinguish_all_states(self, seed):
        rng = random.Random(seed)
        g = random_arena(rng, full_obs=True, unique_labels=True)
        views = {obs(g, ["a1", "a2"], q) for q in g.states}
        assert len(views) == len(g.states)
