"""Goal automata: initial states, transition rules, invariants, rendering."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from atldk import (
    BOT,
    AutomatonError,
    AutomatonState,
    build_until_automaton,
    build_weak_until_automaton,
    load_alicebob,
    model_check,
    split,
    to_dot,
)
from atldk.strategy_automata import level_automaton
from oracles import (coalition_actions, extensions, random_arena, random_coalition,
                     reference_goal_initial, reference_goal_row)

AB = ["Alice", "Bob"]


def pair(pending, kset):
    return AutomatonState(frozenset(pending), frozenset(kset))


@pytest.fixture(scope="module")
def goal_hat():
    arena = load_alicebob().with_prop("goal", ["q12"])
    return split(arena, AB)


@pytest.fixture(scope="module")
def corpus_automaton(goal_hat):
    return build_until_automaton(goal_hat, "valid", "goal", {"q0"})


def random_automaton(rng, weak=False):
    """A goal automaton over a random arena, or None when no props exist."""
    g = random_arena(rng)
    if not g.props:
        return None
    coalition = random_coalition(rng)
    hat = split(g, coalition)
    props = sorted(g.props)
    p1, p2 = rng.choice(props), rng.choice(props)
    kset = hat.kset[rng.choice(hat.arena.states)]
    build = build_weak_until_automaton if weak else build_until_automaton
    return build(hat, p1, p2, kset)


class TestInitialState:
    def test_goal_free_member_starts_failed(self, goal_hat):
        automaton = build_until_automaton(goal_hat, "c", "s", {"q0"})
        assert automaton.init == BOT

    def test_discharged_member_starts_without_obligations(self, goal_hat):
        automaton = build_until_automaton(goal_hat, "valid", "goal", {"q12"})
        assert automaton.init == pair([], ["q12"])
        assert automaton.is_target(automaton.init)

    def test_undischarged_members_start_pending(self, corpus_automaton):
        assert corpus_automaton.init == pair(["q0"], ["q0"])
        assert not corpus_automaton.is_target(corpus_automaton.init)

    def test_pending_excludes_already_discharged_states(self, goal_hat):
        automaton = build_until_automaton(goal_hat, "valid", "c", {"q1", "q2", "q3"})
        assert automaton.init == pair(["q1", "q2", "q3"], ["q1", "q2", "q3"])


class TestTransitionRules:
    def test_losing_action_fails(self, corpus_automaton):
        init = corpus_automaton.init
        assert corpus_automaton.delta[(init, ("i", "i"))] == (BOT,)
        assert corpus_automaton.classes[(init, ("i", "i"))] == ()

    def test_safe_action_follows_the_outcome(self, corpus_automaton):
        init = corpus_automaton.init
        shared = ["q1", "q2", "q3"]
        assert corpus_automaton.delta[(init, ("g", "g"))] == (pair(shared, shared),)

    def test_observation_classes_split_successor_pairs(self, corpus_automaton):
        shared = pair(["q1", "q2", "q3"], ["q1", "q2", "q3"])
        successors = corpus_automaton.delta[(shared, ("i", "i"))]
        assert set(successors) == {
            pair(["q4"], ["q4"]), pair(["q5"], ["q5"]), pair(["q6"], ["q6"])}
        classes = dict(corpus_automaton.classes[(shared, ("i", "i"))])
        assert classes[frozenset({"y_a", "x_b", "valid"})] == pair(["q4"], ["q4"])

    def test_discharge_produces_a_target(self, corpus_automaton):
        state = pair(["q9"], ["q9"])
        assert state in corpus_automaton.states
        assert corpus_automaton.delta[(state, ("tc", "ds"))] == (pair([], ["q12"]),)
        assert corpus_automaton.is_target(pair([], ["q12"]))

    def test_bot_is_absorbing(self, corpus_automaton):
        for c_a in corpus_automaton.alphabet:
            assert corpus_automaton.delta[(BOT, c_a)] == (BOT,)

    def test_discharged_pairs_track_the_kset_onward(self, corpus_automaton):
        done = pair([], ["q12"])
        assert corpus_automaton.delta[(done, ("i", "i"))] == (done,)

    def test_alphabet_and_first_state(self, corpus_automaton):
        assert corpus_automaton.states[0] == corpus_automaton.init
        assert set(corpus_automaton.alphabet) == {
            c for c in coalition_actions(corpus_automaton.hat.source, AB)}

    def test_weak_until_shares_the_transition_structure(self, goal_hat):
        until = build_until_automaton(goal_hat, "valid", "goal", {"q0"})
        weak = build_weak_until_automaton(goal_hat, "valid", "goal", {"q0"})
        assert until.delta == weak.delta
        assert until.kind == "until" and weak.kind == "weak-until"


class TestBuildErrors:
    def test_unknown_goal_prop(self, goal_hat):
        with pytest.raises(AutomatonError):
            build_until_automaton(goal_hat, "valid", "nope", {"q0"})

    def test_unknown_source_kset(self, goal_hat):
        from atldk import ArenaError
        with pytest.raises(ArenaError):
            build_until_automaton(goal_hat, "valid", "goal", {"q1"})


class TestInvariants:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_states_are_well_typed(self, seed):
        rng = random.Random(seed)
        automaton = random_automaton(rng, weak=rng.random() < 0.5)
        if automaton is None:
            return
        g = automaton.hat.source
        coalition = automaton.hat.coalition
        for state in automaton.states:
            if state.is_bot:
                continue
            assert state.pending <= state.kset
            assert len({g.obs(coalition, q) for q in state.kset}) == 1
            for q in state.pending:
                assert automaton.p1 in g.labels[q]
                assert automaton.p2 not in g.labels[q]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_transitions_partition_the_outcomes(self, seed):
        rng = random.Random(seed)
        automaton = random_automaton(rng)
        if automaton is None:
            return
        g = automaton.hat.source
        coalition = automaton.hat.coalition
        discharged = {q for q in g.states if automaton.p2 in g.labels[q]}
        for state in automaton.states:
            if state.is_bot:
                continue
            for c_a in automaton.alphabet:
                class_list = automaton.classes[(state, c_a)]
                if not class_list:
                    assert automaton.delta[(state, c_a)] == (BOT,)
                    continue
                all_kset_successors = {
                    t for c in extensions(g, coalition, c_a)
                    for r in state.kset for t in g.succ(r, c)}
                assert frozenset().union(*(t.kset for _, t in class_list)) == all_kset_successors
                all_pending_successors = {
                    t for c in extensions(g, coalition, c_a)
                    for r in state.pending for t in g.succ(r, c)}
                relabeled = frozenset().union(*(t.pending for _, t in class_list))
                assert relabeled == all_pending_successors - discharged
                for z, t in class_list:
                    assert all(g.obs(coalition, q) == z for q in t.kset)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_delta_is_total_and_closed(self, seed):
        rng = random.Random(seed)
        automaton = random_automaton(rng, weak=rng.random() < 0.5)
        if automaton is None:
            return
        universe = set(automaton.states)
        assert automaton.init in universe
        for state in automaton.states:
            for c_a in automaton.alphabet:
                successors = automaton.delta[(state, c_a)]
                assert successors
                assert set(successors) <= universe


class TestSharedTable:
    def test_views_equal_fresh_builds(self):
        """Automata built on one hat, whose transition table every kset
        shares, equal automata built alone on a fresh split."""
        builders = (build_until_automaton, build_weak_until_automaton)
        for seed in range(300):
            rng = random.Random(seed)
            g = random_arena(rng, max_states=5)
            if not g.props:
                continue
            coalition = random_coalition(rng)
            props = sorted(g.props)
            p1, p2 = rng.choice(props), rng.choice(props)
            shared = split(g, coalition)
            ksets = sorted(shared.ksets, key=g.sorted_states)
            # Goal pairs sharing p1 or p2 on one hat: their tables stay apart.
            pairs = sorted({(p1, q) for q in props} | {(q, p2) for q in props})
            views = [(build, s, goals, build(shared, *goals, s))
                     for goals in pairs
                     for s in ksets for build in builders]
            for build, s, goals, view in views:
                fresh = build(split(g, coalition), *goals, s)
                case = (seed, goals, sorted(s))
                assert view.states == fresh.states, case
                assert view.init == fresh.init, case
                assert view.delta == fresh.delta, case
                assert view.classes == fresh.classes, case
                assert set(view.delta) == {
                    (q, c_a) for q in view.states for c_a in view.alphabet}


class TestReferenceRows:
    def test_rows_equal_the_frozenset_reference(self):
        """Every goal-table row that model_check fills for an until or a
        weak-until goal equals the row built from frozensets
        (oracles.reference_goal_row): classes in action and observation
        order, and the successors in first-seen order. The level automaton's
        delta and classes, read off the rows, equal the reference's in state
        and action order."""
        levels = bot_rows = goal_failures = discharges = 0
        for seed in range(200):
            rng = random.Random(seed)
            g = random_arena(rng)
            if not g.props:
                continue
            coalition = random_coalition(rng)
            who = ",".join(coalition)
            props = sorted(g.props)
            for op in ("U", "W"):
                p, q = rng.sample(props, 2) if len(props) > 1 else props * 2
                text = "<%s>(%s %s %s)" % (who, p, op, q)
                for level in model_check(g, text).table:
                    if level.case not in ("until", "weak-until"):
                        continue
                    levels += 1
                    hat, p1, p2 = level.hat, level.chi.left.name, level.chi.right.name
                    table, case = hat._goal_tables[(p1, p2)], (seed, text)
                    for s in hat.ksets:
                        assert table.initial(s) == reference_goal_initial(hat, p1, p2, s), case
                    wants = {}
                    for state, (classes, successors) in table.items():
                        want = wants[state] = reference_goal_row(hat, p1, p2, state)
                        assert list(classes.items()) == list(want[1].items()), case
                        assert successors == want[2], case
                        bot_rows += state.is_bot
                        goal_failures += not state.is_bot and BOT in successors
                        for c_a, pairs in classes.items():
                            source = hat.source
                            reached = {t for c in extensions(source, coalition, c_a) if pairs
                                       for q in state.pending for t in source.succ(q, c)}
                            discharges += any(p2 in source.labels[t] for t in reached)
                    game = level_automaton(level.case, hat, p1, p2)
                    assert set(game.states) == set(wants), case
                    for read, want in ((game.delta, 0), (game.classes, 1)):
                        assert list(read.items()) == [
                            ((state, c_a), value) for state in game.states
                            for c_a, value in wants[state][want].items()], case
        counts = (levels, bot_rows, goal_failures, discharges)
        assert min(counts) > 20, counts


class TestAutomatonStateValue:
    def test_spellings_are_one_value(self):
        spellings = [
            AutomatonState(["q2", "q1"], ["q1", "q2", "q3"]),
            AutomatonState({"q1", "q2"}, {"q3", "q2", "q1"}),
            AutomatonState(frozenset({"q1", "q2"}), frozenset({"q1", "q2", "q3"})),
        ]
        for first in spellings:
            table = {first: "found"}
            for second in spellings:
                assert first == second
                assert hash(first) == hash(second)
                assert table[second] == "found"
            assert first.pending == frozenset({"q1", "q2"})
            assert first.kset == frozenset({"q1", "q2", "q3"})
        assert len(set(spellings)) == 1
        assert AutomatonState(["q1"], ["q1", "q2"]) != AutomatonState(["q2"], ["q1", "q2"])
        assert AutomatonState(["q1"], ["q1", "q2"]) != AutomatonState(["q1"], ["q1"])

    def test_bot_is_not_the_empty_pair(self):
        empty = AutomatonState((), ())
        assert BOT == AutomatonState(None, None)
        assert BOT != empty and hash(BOT) != hash(empty)
        assert len({BOT, empty}) == 2
        assert BOT.is_bot
        assert not empty.is_bot
        assert not pair({"q1"}, {"q1"}).is_bot
        assert BOT.pending is None and BOT.kset is None

    def test_pretty_and_repr_pinned(self, corpus_automaton):
        state = corpus_automaton.states[1]
        assert state == pair({"q1", "q2", "q3"}, {"q1", "q2", "q3"})
        assert state.pretty() == "({q1,q2,q3},{q1,q2,q3})"
        assert repr(state) == "AutomatonState(({q1,q2,q3},{q1,q2,q3}))"
        assert corpus_automaton.pretty(corpus_automaton.states[10]) == "({},{q12})"
        assert repr(BOT) == "AutomatonState(bot)" and BOT.pretty() == "bot"
        split_order = pair({"q10", "q9"}, {"q9", "q10", "q12"})
        assert split_order.pretty() == "({q10,q9},{q10,q12,q9})"
        assert corpus_automaton.pretty(split_order) == "({q9,q10},{q9,q10,q12})"


class TestObservationClasses:
    def test_deterministic_order(self, corpus_automaton):
        state = pair({"q1", "q2", "q3"}, {"q1", "q2", "q3"})
        classes = corpus_automaton.classes[(state, ("i", "i"))]
        keys = [sorted(z) for z, _ in classes]
        assert keys == sorted(keys)
        merged = frozenset().union(*(target.kset for _, target in classes))
        assert merged == frozenset({"q4", "q5", "q6"})


class TestDot:
    def test_renders_structure(self, corpus_automaton):
        text = to_dot(corpus_automaton, annotation="language nonempty")
        assert text.startswith("digraph")
        assert text.count("{") == text.count("}")
        assert "init [shape=point];" in text
        assert "fillcolor=gray" in text
        assert "peripheries=2" in text
        assert "language nonempty" in text

    def test_quotes_escaped(self, corpus_automaton):
        text = to_dot(corpus_automaton, annotation='quote " here')
        assert 'quote \\" here' in text
