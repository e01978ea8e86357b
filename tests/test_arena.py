"""Arena loading, validation, outcome partitioning, runs, and strategies."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from atldk import Arena, ArenaError, Run, SINK_ID, Strategy, load_arena, load_alicebob
from oracles import obs_equiv, out, random_arena, random_arena_document

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
        assert len(corpus.transitions) == 16 * 25
        assert corpus.succ(SINK_ID, ("g", "g")) == frozenset({SINK_ID})
        assert corpus.succ("q1", ("g", "g")) == frozenset({SINK_ID})
        assert corpus.labels[SINK_ID] == frozenset()

    def test_corpus_transition_goldens(self, corpus):
        assert corpus.succ("q0", ("g", "g")) == frozenset({"q1", "q2", "q3"})
        assert corpus.succ("q1", ("i", "i")) == frozenset({"q4"})
        assert corpus.succ("q9", ("tc", "ds")) == frozenset({"q12"})
        assert corpus.succ("q10", ("ds", "tc")) == frozenset({"q12"})
        assert corpus.succ("q11", ("tc", "ds")) == frozenset({"q13"})
        assert corpus.succ("q12", ("i", "i")) == frozenset({"q12"})

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
            assert g.transitions == from_dict.transitions

    def test_duplicate_transition_entries_merge(self):
        doc = tiny_document()
        doc["transitions"].append(
            {"from": "s1", "actions": {"a1": "a", "a2": "a"}, "to": ["s0"]})
        g = load_arena(doc)
        assert g.succ("s1", ("a", "a")) == frozenset({"s0", "s1"})

    def test_minimal_arena(self):
        g = load_arena({
            "agents": [{"name": "solo", "actions": ["go"]}],
            "states": [{"id": "only"}],
            "initial": ["only"],
            "transitions": [{"from": "only", "actions": {"solo": "go"}, "to": ["only"]}],
        })
        assert g.props == frozenset()
        assert g.succ("only", ("go",)) == frozenset({"only"})

    def test_round_trip_through_document(self, corpus):
        again = load_arena(corpus.to_document())
        assert again.states == corpus.states
        assert again.labels == corpus.labels
        assert again.initial == corpus.initial
        assert again.observes == corpus.observes
        assert again.hidden == corpus.hidden
        assert again.transitions == corpus.transitions


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
        assert g.succ("s1", ("b", "a")) == frozenset({SINK_ID})

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
        doc = tiny_document()
        doc["agents"][0]["observes"] = ["p", "p#1"]
        doc["states"][0]["labels"] = ["p", "p#1"]
        with pytest.raises(ArenaError):
            load_arena(doc)
        assert load_arena(doc, allow_reserved=True).labels["s0"] == frozenset({"p", "p#1"})

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
                  g.observes, g.hidden, g.transitions)


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
        assert g.succ("a", ("go",)) == frozenset({"a", "b"})
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


class TestCoalitions:
    def test_coalition_tuple_uses_agent_order(self, corpus):
        assert corpus.coalition_tuple(["Bob", "Alice"]) == ("Alice", "Bob")
        assert corpus.coalition_tuple({"Bob"}) == ("Bob",)
        assert corpus.coalition_tuple([]) == ()

    def test_unknown_member_rejected(self, corpus):
        with pytest.raises(ArenaError):
            corpus.coalition_tuple(["Alice", "Eve"])

    def test_coalition_props(self, corpus):
        assert "x_a" in corpus.coalition_props(["Alice"])
        assert "x_b" not in corpus.coalition_props(["Alice"])
        assert corpus.coalition_props([]) == frozenset()

    def test_memoized_views_never_go_stale(self):
        arena = load_alicebob()
        spellings = (["Bob", "Alice"], ("Alice", "Bob"), frozenset(AB), ["Bob", "Alice"])
        for coalition in spellings:
            assert arena.coalition_tuple(coalition) == ("Alice", "Bob")
            assert arena.coalition_props(coalition) == arena.observes["Alice"] | arena.observes["Bob"]
            assert arena.obs(coalition, "q4") == frozenset({"y_a", "x_b", "valid"})
        for coalition in (["Alice"], ("Alice",), frozenset({"Alice"}), ["Alice"]):
            assert arena.coalition_tuple(coalition) == ("Alice",)
            assert arena.coalition_props(coalition) == arena.observes["Alice"]
            assert arena.obs(coalition, "q4") == frozenset({"y_a", "valid"})
        for _ in range(2):
            with pytest.raises(ArenaError):
                arena.coalition_tuple(["Alice", "Eve"])
            with pytest.raises(ArenaError):
                arena.coalition_props(("Eve",))
            with pytest.raises(ArenaError):
                arena.obs(frozenset({"Eve"}), "q4")
        seen = arena.with_prop("seen", ["q4"], hidden=False)
        assert "seen" in seen.coalition_props(["Alice"])
        assert seen.obs(["Alice"], "q4") == frozenset({"y_a", "valid", "seen"})
        assert "seen" not in arena.coalition_props(["Alice"])

    def test_extensions_fix_only_the_coalition(self, corpus):
        exts = list(corpus.extensions(["Alice"], ("i",)))
        assert len(exts) == 5
        assert all(c[0] == "i" for c in exts)
        assert {c[1] for c in exts} == set(corpus.actions["Bob"])
        assert list(corpus.extensions(AB, ("g", "g"))) == [("g", "g")]

    def test_empty_coalition_extensions_are_all_joint_actions(self, corpus):
        assert set(corpus.extensions([], ())) == set(corpus.joint_actions())

    def test_restrict_action(self, corpus):
        assert corpus.restrict_action(["Bob"], ("g", "e")) == ("e",)
        assert corpus.restrict_action(AB, ("g", "e")) == ("g", "e")
        assert corpus.restrict_action([], ("g", "e")) == ()


class TestObservations:
    def test_obs_goldens(self, corpus):
        assert corpus.obs(["Alice"], "q4") == frozenset({"y_a", "valid"})
        assert corpus.obs(["Bob"], "q4") == frozenset({"x_b"})
        assert corpus.obs(AB, "q4") == frozenset({"y_a", "x_b", "valid"})
        assert corpus.obs(AB, "q1") == frozenset({"valid"})
        assert corpus.obs([], "q12") == frozenset()

    def test_hidden_props_never_observed(self, corpus):
        for q in ("q1", "q2", "q3"):
            assert corpus.obs(AB, q) == frozenset({"valid"})

    def test_unknown_state(self, corpus):
        with pytest.raises(ArenaError):
            corpus.obs(AB, "q99")


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
        c_a = data.draw(st.sampled_from(g.coalition_actions(coalition)))
        classes = g.outcome_classes(source, coalition, c_a)
        everything = {t for c in g.extensions(coalition, c_a)
                      for s in source for t in g.succ(s, c)}
        assert frozenset().union(*classes.values()) == everything if classes else not everything
        for z, members in classes.items():
            assert members == out(g, source, coalition, c_a, z)
            assert all(g.obs(coalition, t) == z for t in members)
        for z in classes:
            others = everything - classes[z]
            assert all(g.obs(coalition, t) != z for t in others)


class TestWithProp:
    def test_adds_hidden_prop(self, corpus):
        extended = corpus.with_prop("goal", ["q12"])
        assert "goal" in extended.labels["q12"]
        assert all("goal" not in extended.labels[q] for q in extended.states if q != "q12")
        assert "goal" in extended.hidden
        assert extended.obs(AB, "q12") == corpus.obs(AB, "q12")

    def test_adds_observed_prop(self, corpus):
        extended = corpus.with_prop("goal", ["q12"], hidden=False)
        assert "goal" in extended.obs(AB, "q12")

    def test_rejects_existing_prop(self, corpus):
        with pytest.raises(ArenaError):
            corpus.with_prop("valid", ["q0"])


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
                assert g.succ(q, c)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_unique_label_arenas_distinguish_all_states(self, seed):
        rng = random.Random(seed)
        g = random_arena(rng, full_obs=True, unique_labels=True)
        views = {g.obs(["a1", "a2"], q) for q in g.states}
        assert len(views) == len(g.states)
