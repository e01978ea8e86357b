"""Goal automata: initial states, transition rules, invariants, rendering."""

import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from atldk import load_alicebob, model_check
from atldk.epistemic_split import split
from atldk.strategy_automata import (BOT, TreeAutomaton, build_until_automaton,
                                     build_weak_until_automaton, to_dot)
from oracles import (as_sets, classes, coalition_actions, delta, extensions, goal_state, mask_of,
                     numbering_failures, obs, pair_as_sets, random_arena, random_coalition,
                     reference_goal_initial, reference_goal_row, state_pairs, states_of, succ,
                     unnumbered, unnumbered_row, walk_views)

AB = ["Alice", "Bob"]
Q123 = ["q1", "q2", "q3"]


def pair(pending, kset):
    """A goal state as oracles.as_sets writes it."""
    return frozenset(pending), frozenset(kset)


@pytest.fixture(scope="module")
def goal_hat():
    arena = load_alicebob().with_prop("goal", ["q12"])
    return split(arena, AB)


@pytest.fixture(scope="module")
def corpus_automaton(goal_hat):
    return build_until_automaton(goal_hat, "valid", "goal", mask_of(goal_hat.source, {"q0"}))


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
        automaton = build_until_automaton(goal_hat, "c", "s", mask_of(goal_hat.source, {"q0"}))
        assert automaton.init == BOT

    def test_discharged_member_starts_without_obligations(self, goal_hat):
        q12 = mask_of(goal_hat.source, {"q12"})
        automaton = build_until_automaton(goal_hat, "valid", "goal", q12)
        assert as_sets(automaton, automaton.init) == pair([], ["q12"])
        assert automaton.is_target(automaton.init)

    def test_undischarged_members_start_pending(self, goal_hat, corpus_automaton):
        assert as_sets(corpus_automaton, corpus_automaton.init) == pair(["q0"], ["q0"])
        assert not corpus_automaton.is_target(corpus_automaton.init)

    def test_pending_excludes_already_discharged_states(self, goal_hat):
        automaton = build_until_automaton(goal_hat, "valid", "c", mask_of(goal_hat.source, Q123))
        assert as_sets(automaton, automaton.init) == pair(Q123, Q123)


class TestTransitionRules:
    def test_losing_action_fails(self, corpus_automaton):
        init = corpus_automaton.init
        assert delta(corpus_automaton)[(init, ("i", "i"))] == (BOT,)
        assert classes(corpus_automaton)[(init, ("i", "i"))] == ()

    def test_safe_action_follows_the_outcome(self, goal_hat, corpus_automaton):
        successors = delta(corpus_automaton)[(corpus_automaton.init, ("g", "g"))]
        assert [as_sets(corpus_automaton, t) for t in successors] == [pair(Q123, Q123)]

    def test_observation_classes_split_successor_pairs(self, goal_hat, corpus_automaton):
        shared = goal_state(corpus_automaton, Q123, Q123)
        successors = delta(corpus_automaton)[(shared, ("i", "i"))]
        assert {as_sets(corpus_automaton, t) for t in successors} == {
            pair(["q4"], ["q4"]), pair(["q5"], ["q5"]), pair(["q6"], ["q6"])}
        by_observation = dict(classes(corpus_automaton)[(shared, ("i", "i"))])
        assert as_sets(corpus_automaton,
                       by_observation[frozenset({"y_a", "x_b", "valid"})]) == pair(
            ["q4"], ["q4"])

    def test_discharge_produces_a_target(self, goal_hat, corpus_automaton):
        state = goal_state(corpus_automaton, ["q9"], ["q9"])
        done = goal_state(corpus_automaton, [], ["q12"])
        assert state in corpus_automaton.states
        assert delta(corpus_automaton)[(state, ("tc", "ds"))] == (done,)
        assert corpus_automaton.is_target(done)

    def test_bot_is_absorbing(self, corpus_automaton):
        for c_a in corpus_automaton.alphabet:
            assert delta(corpus_automaton)[(BOT, c_a)] == (BOT,)

    def test_discharged_pairs_track_the_kset_onward(self, goal_hat, corpus_automaton):
        done = goal_state(corpus_automaton, [], ["q12"])
        assert delta(corpus_automaton)[(done, ("i", "i"))] == (done,)

    def test_alphabet_and_first_state(self, corpus_automaton):
        assert corpus_automaton.states[0] == corpus_automaton.init
        assert set(corpus_automaton.alphabet) == {
            c for c in coalition_actions(corpus_automaton.hat.source, AB)}

    def test_weak_until_shares_the_transition_structure(self, goal_hat):
        q0 = mask_of(goal_hat.source, {"q0"})
        until = build_until_automaton(goal_hat, "valid", "goal", q0)
        weak = build_weak_until_automaton(goal_hat, "valid", "goal", q0)
        assert delta(until) == delta(weak)
        assert until.kind == "until" and weak.kind == "weak-until"


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
            if state == BOT:
                continue
            pending, kset = as_sets(automaton, state)
            assert pending <= kset
            assert len({obs(g, coalition, q) for q in kset}) == 1
            for q in pending:
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
        moves, by_action = delta(automaton), classes(automaton)
        for state in automaton.states:
            if state == BOT:
                continue
            pending, kset = as_sets(automaton, state)
            for c_a in automaton.alphabet:
                class_list = [(z, as_sets(automaton, t)) for z, t in by_action[(state, c_a)]]
                if not class_list:
                    assert moves[(state, c_a)] == (BOT,)
                    continue
                all_kset_successors = {
                    t for c in extensions(g, coalition, c_a)
                    for r in kset for t in succ(g, r, c)}
                assert frozenset().union(*(t[1] for _, t in class_list)) == all_kset_successors
                all_pending_successors = {
                    t for c in extensions(g, coalition, c_a)
                    for r in pending for t in succ(g, r, c)}
                relabeled = frozenset().union(*(t[0] for _, t in class_list))
                assert relabeled == all_pending_successors - discharged
                for z, t in class_list:
                    assert all(obs(g, coalition, q) == z for q in t[1])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_delta_is_total_and_closed(self, seed):
        rng = random.Random(seed)
        automaton = random_automaton(rng, weak=rng.random() < 0.5)
        if automaton is None:
            return
        universe = set(automaton.states)
        assert automaton.init in universe
        moves = delta(automaton)
        for state in automaton.states:
            for c_a in automaton.alphabet:
                successors = moves[(state, c_a)]
                assert successors
                assert set(successors) <= universe


def pair_delta(automaton):
    """delta(automaton) with states and successors read back as pairs."""
    pairs = automaton.rows.pairs
    return {(pairs[q], c_a): tuple(map(pairs.__getitem__, ts))
            for (q, c_a), ts in delta(automaton).items()}


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
            ksets = sorted(shared.ksets, key=partial(states_of, g))
            # Goal pairs sharing p1 or p2 on one hat: their tables stay apart.
            pairs = sorted({(p1, q) for q in props} | {(q, p2) for q in props})
            views = [(build, s, goals, build(shared, *goals, s))
                     for goals in pairs
                     for s in ksets for build in builders]
            for build, s, goals, view in views:
                fresh = build(split(g, coalition), *goals, s)
                case = (seed, goals, states_of(g, s))
                # The shared table numbers the states of every kset and goal
                # pair, a fresh one only this view's: compare them as pairs.
                states, init, rows = unnumbered(view)
                assert states == unnumbered(fresh)[0], case
                assert init == unnumbered(fresh)[1], case
                assert pair_delta(view) == pair_delta(fresh), case
                assert rows == unnumbered(fresh)[2], case
                assert set(delta(view)) == {
                    (q, c_a) for q in view.states for c_a in view.alphabet}


class TestReferenceRows:
    def test_rows_equal_the_frozenset_reference(self):
        """Every goal-table row that model_check fills for an until or a
        weak-until goal, turned back into pairs (oracles.unnumbered_row) and
        its states read as sets (oracles.pair_as_sets), equals the row built
        from frozensets (oracles.reference_goal_row): classes
        in action and observation order, and the successors in first-seen
        order. model_check fills the rows of the level game's unsettled
        states; the kset views then fill the settled rows, which are checked
        too. The level automaton lists the unsettled states of the rows and
        only settled states besides, and its delta and classes, read off the
        rows, equal the reference's in state and action order."""
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
                    unsettled = [q for q in level.game.states if not level.game.is_target(q)]
                    assert list(table) == unsettled, case
                    walk_views(level)
                    sets = partial(pair_as_sets, hat)
                    for s in hat.ksets:
                        assert sets(table.pairs[table.initial(s)]) == reference_goal_initial(
                            hat, p1, p2, s), case
                    wants = {}
                    for state in table:
                        row, successors = unnumbered_row(table, state)
                        state = table.pairs[state]
                        want = wants[state] = reference_goal_row(hat, p1, p2, sets(state))
                        assert [(c_a, tuple((z, sets(t)) for z, t in pairs))
                                for c_a, pairs in row.items()] == list(want[1].items()), case
                        assert tuple(map(sets, successors)) == want[2], case
                        bot_rows += state == (0, 0)
                        goal_failures += state != (0, 0) and (0, 0) in successors
                        for c_a, pairs in row.items():
                            source = hat.source
                            reached = {t for c in extensions(source, coalition, c_a) if pairs
                                       for q in sets(state)[0] for t in succ(source, q, c)}
                            discharges += any(p2 in source.labels[t] for t in reached)
                    game = TreeAutomaton(level.case, hat, p1, p2)
                    states = state_pairs(table, game.states)
                    assert set(states) <= set(wants), case
                    assert set(state_pairs(table, unsettled)) == {
                        q for q in wants if not game.is_target(table.number[q])}, case
                    assert [(key, tuple(map(sets, ts))) for key, ts in pair_delta(game).items()] == [
                        ((state, c_a), value) for state in states
                        for c_a, value in wants[state][0].items()], case
                    assert [(key, tuple((z, sets(t)) for z, t in pairs))
                            for key, pairs in unnumbered(game)[2].items()] == [
                        ((state, c_a), value) for state in states
                        for c_a, value in wants[state][1].items()], case
        counts = (levels, bot_rows, goal_failures, discharges)
        assert min(counts) > 20, counts


class TestStateFormat:
    def test_states_are_int_pairs(self):
        """Every goal-table key and every successor in a row, classes
        included, is an int that the table numbers a pair of ints, and the
        rows hold only ints and tuples of ints."""
        def int_pair(state):
            return type(state) is tuple and len(state) == 2 and all(
                type(m) is int for m in state)

        for seed in range(100):
            automaton = random_automaton(random.Random(seed))
            if automaton is None:
                continue
            assert automaton.init in automaton.states  # the walk fills the rows
            table = automaton.rows
            assert all(map(int_pair, table.pairs)), seed
            assert numbering_failures(table, len(automaton.alphabet)) == [], seed
            for state, (_, targets, successors) in table.items():
                numbered = [state, *successors, *(t for ts in targets for t in ts)]
                assert all(type(t) is int and int_pair(table.pairs[t])
                           for t in numbered), (seed, state)

    def test_bot_is_not_a_discharged_pair(self, corpus_automaton):
        """BOT is number 0, the pair (0, 0); a discharged pair (0, m) has a
        nonempty kset m and is a target, BOT is not; BOT's row fails on every
        action."""
        table, alphabet = corpus_automaton.rows, corpus_automaton.alphabet
        assert BOT == 0 and table.pairs[BOT] == (0, 0)
        assert not corpus_automaton.is_target(BOT)
        assert all(table.pairs[state][1] for state in corpus_automaton.states if state != BOT)
        for state in corpus_automaton.states:
            pending, kset = table.pairs[state]
            assert corpus_automaton.is_target(state) == (pending == 0 and kset != 0)
        targets = corpus_automaton.targets()
        assert goal_state(corpus_automaton, [], ["q12"]) in targets
        assert all(table.pairs[t][0] == 0 and table.pairs[t][1] for t in targets)
        assert {table.pairs[t][0] for t in corpus_automaton.states} - {0}
        assert table[BOT] == (((),) * len(alphabet), ((BOT,),) * len(alphabet), (BOT,))
        assert unnumbered_row(table, BOT) == ({c_a: () for c_a in alphabet}, ((0, 0),))

    def test_pretty_pinned(self, goal_hat, corpus_automaton):
        state = corpus_automaton.states[1]
        assert as_sets(corpus_automaton, state) == pair(Q123, Q123)
        assert corpus_automaton.pretty(state) == "({q1,q2,q3},{q1,q2,q3})"
        assert corpus_automaton.pretty(corpus_automaton.states[10]) == "({},{q12})"
        assert corpus_automaton.pretty(BOT) == "bot"
        # No walk meets this pair; numbering it as a kset's initial state
        # checks pretty's member order, arena order, on two pending members.
        split_order = corpus_automaton.rows.initial(mask_of(goal_hat.source, {"q9", "q10", "q12"}))
        assert as_sets(corpus_automaton, split_order) == pair({"q10", "q9"}, {"q9", "q10", "q12"})
        assert corpus_automaton.pretty(split_order) == "({q9,q10},{q9,q10,q12})"


class TestObservationClasses:
    def test_deterministic_order(self, corpus_automaton):
        state = goal_state(corpus_automaton, Q123, Q123)
        class_list = classes(corpus_automaton)[(state, ("i", "i"))]
        keys = [sorted(z) for z, _ in class_list]
        assert keys == sorted(keys)
        merged = frozenset().union(*(as_sets(corpus_automaton, t)[1] for _, t in class_list))
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
