"""The labeling driver: per-level dispatch, verdicts, witnesses, explanations."""

import gc
import json
import random
import types
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import atldk.checker as checker
import atldk.formula as fm
from atldk import (
    Arena,
    ArenaError,
    CheckerError,
    StateCapExceeded,
    Strategy,
    explain,
    load_alicebob,
    load_arena,
    model_check,
)
from atldk.checker import MODAL_CASES, _eval_boolean, bind_formula, label_step
from atldk.epistemic_split import label_knowledge, split
from atldk.emptiness import check_until_nonempty, check_weak_nonempty
from atldk.strategy_automata import (TreeAutomaton, build_until_automaton,
                                     build_weak_until_automaton)
from oracles import (BUILDERS, build_failures, chi_failures, construction_failures, delta,
                     family_f, hat_state_of, initialized_runs, knowledge_oracle, level_failures,
                     level_truth, mask_of, random_arena, random_coalition, state_pairs,
                     states_of,
                     unlabeled_atoms, until_oracle, walk_views)

AB = ["Alice", "Bob"]
EXAMPLE = "<Alice,Bob>(valid U (c & s))"


@pytest.fixture(scope="module")
def corpus():
    return load_alicebob()


@pytest.fixture(scope="module")
def example_verdict(corpus):
    return model_check(corpus, EXAMPLE)


# On family F drawn from Random(16001) with n=16, the {a1} refinement has 714
# states and its until level's game expands 790 goal rows: caps from 714 to
# 789 stop at the goal table.
GOAL_CAP_TEXT = "<a1>F <a2>X p3"


@pytest.fixture(scope="module")
def goal_cap_arena():
    return family_f(16001, 16)


class TestLabelStep:
    def test_atom_case(self, corpus):
        level = label_step(corpus, fm.Atom("valid"), "p#1")
        assert level.case == "atom"
        assert level.labeled_count == 15
        assert "p#1" not in level.arena.labels["sink"]
        assert "p#1" in level.arena.labels["q0"]
        assert "p#1" in level.arena.hidden
        assert level.hat is None
        assert level.arena.states == corpus.states

    def test_constants_are_atom_cases(self, corpus):
        assert label_step(corpus, fm.TrueConst(), "p#1").case == "atom"
        assert label_step(corpus, fm.FalseConst(), "p#1").labeled_count == 0

    def test_boolean_case(self, corpus):
        chi = fm.And(fm.Atom("c"), fm.Not(fm.Atom("c")))
        level = label_step(corpus, chi, "p#1")
        assert level.case == "boolean"
        assert level.labeled_count == 0

    def test_boolean_levels_label_where_the_pointwise_evaluation_holds(self):
        """Over random arenas and their refinements, where many states share
        one label, on random nests of !, &, true, false and atoms."""
        def draw(rng, props, depth):
            roll = rng.random()
            if depth == 0 or roll < 0.3:
                return rng.choice([fm.TrueConst(), fm.FalseConst()] + [fm.Atom(p) for p in props])
            if roll < 0.55:
                return fm.Not(draw(rng, props, depth - 1))
            return fm.And(draw(rng, props, depth - 1), draw(rng, props, depth - 1))

        shared = 0
        for seed in range(60):
            rng = random.Random(seed)
            g = random_arena(rng, max_states=6)
            for arena in (g, split(g, random_coalition(rng)).arena):
                shared += len(set(arena.labels.values())) < len(arena.states)
                props = sorted(arena.props)
                for _ in range(4):
                    chi = draw(rng, props, 4)
                    level = label_step(arena, chi, "p#1")
                    assert level.arena.labels == {
                        q: label | {"p#1"} if _eval_boolean(chi, label) else label
                        for q, label in arena.labels.items()}, (seed, chi)
        assert shared > 60

    def test_knowledge_case_splits_the_arena(self, corpus):
        chi = fm.Know(AB, fm.Atom("valid"))
        level = label_step(corpus, chi, "p#1")
        assert level.case == "knowledge"
        h = level.arena.state_named("q1@{q1,q2,q3}")
        assert h in level.arena.states
        assert "p#1" in level.arena.labels[h]
        assert level.hat.base[h] == "q1"
        assert level.hat.coalition == frozenset(AB)

    def test_next_case(self, corpus):
        chi = fm.Next(AB, fm.Atom("valid"))
        level = label_step(corpus, chi, "p#1")
        assert level.case == "next"
        assert "p#1" in level.arena.labels[level.arena.state_named("q0@{q0}")]
        assert "p#1" not in level.arena.labels[level.arena.state_named("sink@{sink}")]

    def test_until_case_records_solutions(self, corpus):
        chi = fm.Until(AB, fm.Atom("valid"), fm.Atom("c"))
        level = label_step(corpus, chi, "p#1")
        assert level.case == "until"
        game = level.game
        assert (game.kind, game.hat, game.p1, game.p2) == ("until", level.hat, "valid", "c")
        assert {game.rows.initial(s) for s in level.hat.ksets} <= set(game.states)
        assert level.solution.winning == check_until_nonempty(game)[1].winning
        assert "p#1" in level.arena.labels[level.arena.state_named("q0@{q0}")]

    def test_weak_until_case(self, corpus):
        chi = fm.WeakUntil(AB, fm.Atom("valid"), fm.Atom("c"))
        level = label_step(corpus, chi, "p#1")
        assert level.case == "weak-until"
        assert "p#1" in level.arena.labels[level.arena.state_named("q0@{q0}")]

    # label_step takes chi on trust as an entry of enumerate_subformulas. The
    # level invariants that tests/oracles.py level_failures checks over the
    # seeded batches reject what it no longer checks as it runs.
    def test_rejects_two_modalities(self):
        chi = fm.And(fm.Know(AB, fm.Atom("c")), fm.Know(AB, fm.Atom("s")))
        assert chi_failures(chi) == ["K{Alice,Bob} c & K{Alice,Bob} s has more than one modality",
                                     "an operand of K{Alice,Bob} c & K{Alice,Bob} s is not an atom"]

    def test_rejects_nested_modality(self):
        chi = fm.Not(fm.Know(AB, fm.Atom("c")))
        assert chi_failures(chi) == ["the modality in !K{Alice,Bob} c is not outermost",
                                     "an operand of !K{Alice,Bob} c is not an atom"]

    def test_rejects_compound_modal_operand(self):
        chi = fm.Know(AB, fm.Not(fm.Atom("c")))
        assert chi_failures(chi) == ["an operand of K{Alice,Bob} !c is not an atom"]

    def test_rejects_unlabeled_atoms(self, corpus):
        assert unlabeled_atoms(corpus, fm.And(fm.Atom("nope"), fm.Atom("c"))) == ["nope"]

    # The goal automaton builders take their kset and goal props on trust.
    def test_rejects_a_kset_the_hat_lacks(self, corpus):
        hat = split(corpus, AB)
        for s, found in (({"q1", "q2"}, ["build_until_automaton got a kset ['q1', 'q2'] "
                                         "that is not one of its hat's"]),
                         ({"q1", "q2", "q3"}, [])):
            assert build_failures("build_until_automaton", hat, "valid", "c",
                                  mask_of(corpus, s)) == found

    def test_rejects_a_wrong_goal_prop(self, corpus, monkeypatch):
        """A label_step that hands the until builder a prop its arena does not
        declare passes every other level check."""
        original = checker.label_step

        def wrong_prop(arena, chi, prop, state_cap=checker.DEFAULT_STATE_CAP):
            if isinstance(chi, fm.Until):
                chi = fm.Until(chi.coalition, chi.left, fm.Atom("nope"))
            return original(arena, chi, prop, state_cap)

        monkeypatch.setattr(checker, "label_step", wrong_prop)
        problems, calls = level_failures(corpus, EXAMPLE)
        assert len(calls["build_until_automaton"]) > 1
        assert problems == len(calls["build_until_automaton"]) * [
            "build_until_automaton got a goal prop nope that its source does not declare"]

    def test_state_cap(self, corpus):
        chi = fm.Know(AB, fm.Atom("valid"))
        with pytest.raises(StateCapExceeded):
            label_step(corpus, chi, "p#1", state_cap=5)


class TestModelCheck:
    def test_constants(self, corpus):
        assert model_check(corpus, "true").holds
        assert not model_check(corpus, "false").holds

    def test_atoms(self, corpus):
        assert model_check(corpus, "valid").holds
        assert not model_check(corpus, "c").holds

    def test_tautology(self, corpus):
        assert model_check(corpus, "c | !c").holds

    def test_double_negation(self, corpus):
        verdict = model_check(corpus, "!!valid")
        assert verdict.holds
        assert [level.case for level in verdict.table] == ["atom", "boolean", "boolean"]

    def test_example_formula_holds(self, corpus):
        verdict = model_check(corpus, EXAMPLE)
        assert verdict.holds
        assert verdict.initial == [("q0@{q0}", True)]
        assert [level.case for level in verdict.table] == [
            "atom", "atom", "atom", "boolean", "until"]

    def test_accepts_parsed_formulas(self, corpus):
        assert model_check(corpus, fm.parse_formula("valid")).holds

    def test_rejects_a_formula_that_is_neither_text_nor_a_formula(self, corpus):
        for f in (42, None, ["valid"]):
            with pytest.raises(fm.FormulaError, match="^formula must be text or a Formula, not "):
                model_check(corpus, f)

    def test_unknown_coalition_member(self, corpus):
        with pytest.raises(CheckerError, match="coalition"):
            model_check(corpus, "<Eve>X valid")

    def test_unknown_prop(self, corpus):
        with pytest.raises(CheckerError, match="props"):
            model_check(corpus, "<Alice>X nope")

    def test_reserved_atom_rejected_at_binding(self, corpus):
        with pytest.raises(CheckerError):
            model_check(corpus, fm.Atom("p#1"))

    def test_state_cap_propagates(self, corpus):
        with pytest.raises(StateCapExceeded):
            model_check(corpus, "K{Alice,Bob} valid", state_cap=3)

    def test_state_cap_bounds_goal_table_rows(self, goal_cap_arena):
        """Both splits fit 714 refined states; the until level's game expands
        790 goal rows."""
        for cap in (714, 789):
            with pytest.raises(StateCapExceeded, match=r"^state cap exceeded: goal table "
                               r"\(p#1, p#3\) for \{a1\} needs more than %d rows$" % cap):
                model_check(goal_cap_arena, GOAL_CAP_TEXT, state_cap=cap)
        levels = model_check(goal_cap_arena, GOAL_CAP_TEXT, state_cap=790).table.levels
        assert [len(level.hat.arena.states) for level in levels if level.hat] == [51, 714]
        assert len(levels[-1].game.rows) == 790

    def test_knowledge_example(self, corpus):
        assert model_check(corpus, "K{Alice,Bob} valid").holds
        assert not model_check(corpus, "K{Alice} yx").holds

    def test_empty_coalition_knowledge_via_ast(self, corpus):
        assert model_check(corpus, fm.Know([], fm.Atom("valid"))).holds
        assert not model_check(corpus, fm.Know([], fm.Atom("c"))).holds

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_empty_coalition_matches_run_oracle(self, seed):
        rng = random.Random(seed)
        g = random_arena(rng, max_states=3)
        if not g.props:
            return
        prop = rng.choice(sorted(g.props))
        hat = split(g, [])
        labels = label_knowledge(hat, prop)
        runs = initialized_runs(g, 3)
        expected = knowledge_oracle(g, [], prop, runs)
        for run in runs:
            assert labels[hat.kset[hat_state_of(g, hat, run)]] == expected[run]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_globally_matches_its_dual(self, seed):
        rng = random.Random(seed)
        g = random_arena(rng)
        if not g.props:
            return
        prop = rng.choice(sorted(g.props))
        coalition = random_coalition(rng)
        name = ",".join(coalition)
        direct = model_check(g, "<%s>(%s W false)" % (name, prop))
        dual = model_check(g, "![%s](true U !%s)" % (name, prop))
        assert direct.holds == dual.holds


class TestStateCapContract:
    """split, a goal table and model_check each raise atldk.StateCapExceeded
    itself where the cap is met, not a translation of another error."""

    @staticmethod
    def raised(call, message):
        with pytest.raises(StateCapExceeded, match=message) as info:
            call()
        assert type(info.value) is StateCapExceeded and info.value.__cause__ is None

    def test_split(self, corpus):
        self.raised(lambda: split(corpus, AB, limit=5),
                    r"^state cap exceeded: refinement for \{Alice,Bob\} needs more than 5 states$")

    def test_goal_table(self, goal_cap_arena):
        source = model_check(goal_cap_arena, GOAL_CAP_TEXT).table.levels[-2].arena
        hat = split(source, ["a1"], limit=714)
        self.raised(lambda: TreeAutomaton("until", hat, "p#1", "p#3").states,
                    r"^state cap exceeded: goal table \(p#1, p#3\) for \{a1\} "
                    r"needs more than 714 rows$")

    def test_model_check(self, corpus, goal_cap_arena):
        self.raised(lambda: model_check(corpus, "K{Alice,Bob} valid", state_cap=3),
                    "refinement for")
        self.raised(lambda: model_check(goal_cap_arena, GOAL_CAP_TEXT, state_cap=714),
                    "goal table")


class TestHistorySemantics:
    """Until and weak-until labels against a search over explicit runs that
    uses no knowledge sets, pending sets or automata."""

    # The search is exact at the goal game's state count, which bounds its
    # attractor ranks; below it only a true until or a false weak until is.
    # The level game lists settled states without expanding them. A settled
    # state is an until target and never loses weak until, so only unsettled
    # states, all listed and expanded, take a rank above zero: the pruned
    # count still bounds the ranks.
    # The cap is the largest count drawn, and bounds the search when a broken
    # construction inflates the game.
    MAX_DEPTH = 12

    @classmethod
    def disagreements(cls, g, coalition, p1, p2, operator):
        """The runs of at most one step whose refined end state the checker
        labels against the run search, with the level's truth per state."""
        weak = operator == "W"
        text = "<%s>(%s %s %s)" % (",".join(coalition), p1, operator, p2)
        level = model_check(g, text).table.levels[-1]
        game = TreeAutomaton(level.case, level.hat, p1, p2)
        depth = min(len(game.states), cls.MAX_DEPTH)
        runs = initialized_runs(g, 1)
        expected = until_oracle(g, coalition, p1, p2, runs, depth, weak=weak)
        truth = level_truth(level)
        return [(text, run) for run in runs
                if (depth == len(game.states) or expected[run] != weak)
                and truth[hat_state_of(g, level.hat, run)] != expected[run]], {
            level.arena.name(h): value for h, value in truth.items()}

    @pytest.mark.parametrize("operator", ["U", "W"])
    def test_goal_labels_match_the_run_search(self, operator):
        disagreements = []
        for seed in range(400):
            rng = random.Random(70000 + seed)
            g = random_arena(rng, max_states=rng.choice((3, 4)))
            if not g.props:
                continue
            coalition = random_coalition(rng)
            props = sorted(g.props)
            p1, p2 = rng.choice(props), rng.choice(props)
            disagreements += [(seed,) + found for found in
                              self.disagreements(g, coalition, p1, p2, operator)[0]]
        assert not disagreements, disagreements[:5]

    @pytest.mark.parametrize("rank", ["first", "last"])
    def test_weak_until_lost_in_one_observation_class(self, rank):
        """From s0 the only move reaches good, which keeps p forever, and bad,
        which steps to dead, where p and q fail. a1 sees o at one of them, so
        bad's class ranks first ({} before {o}) or last. p W q fails exactly
        where bad is possible, so a goal row without bad's class would label s0."""
        plain, marked = ("bad", "good") if rank == "first" else ("good", "bad")
        g = load_arena({
            "agents": [{"name": "a1", "actions": ["x"], "observes": ["o"]},
                       {"name": "a2", "actions": ["y"]}],
            "hidden_props": ["p", "q"],
            "states": [{"id": "s0", "labels": ["p"]}, {"id": plain, "labels": ["p"]},
                       {"id": marked, "labels": ["p", "o"]}, {"id": "dead"}],
            "initial": ["s0"],
            "transitions": [{"from": q, "actions": {"a1": "x", "a2": "y"}, "to": to}
                            for q, to in (("s0", ["good", "bad"]), ("good", ["good"]),
                                          ("bad", ["dead"]), ("dead", ["dead"]))],
        })
        disagreements, truth = self.disagreements(g, ["a1"], "p", "q", "W")
        assert not disagreements, disagreements
        assert truth == {"s0@{s0}": False, "good@{good}": True, "bad@{bad}": False,
                         "dead@{dead}": False}


class TestLevelCoherence:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.data())
    def test_each_level_adds_exactly_its_fresh_prop(self, seed, data):
        rng = random.Random(seed)
        g = random_arena(rng)
        if not g.props:
            return
        prop = rng.choice(sorted(g.props))
        coalition = ",".join(random_coalition(rng))
        text = data.draw(st.sampled_from([
            "K{%s} %s" % (coalition, prop),
            "<%s>X %s" % (coalition, prop),
            "<%s>(%s U %s)" % (coalition, prop, prop),
            "<%s>(true W %s)" % (coalition, prop),
            "!%s | %s" % (prop, prop),
        ]))
        verdict = model_check(g, text)
        previous = g
        for k, level in enumerate(verdict.table, start=1):
            assert level.k == k
            fresh = "p#%d" % k
            assert level.prop == fresh
            assert level.arena.props == previous.props | {fresh}
            previous = level.arena

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.data())
    def test_modal_labels_are_uniform_on_knowledge_classes(self, seed, data):
        rng = random.Random(seed)
        g = random_arena(rng)
        if not g.props:
            return
        prop = rng.choice(sorted(g.props))
        coalition = ",".join(random_coalition(rng))
        text = data.draw(st.sampled_from([
            "K{%s} %s" % (coalition, prop),
            "<%s>X %s" % (coalition, prop),
            "<%s>(%s U %s)" % (coalition, prop, prop),
            "<%s>(%s W false)" % (coalition, prop),
        ]))
        verdict = model_check(g, text)
        level = verdict.table.levels[-1]
        assert level.hat is not None
        per_kset = {}
        truth = level_truth(level)
        for hid in level.arena.states:
            s = level.hat.kset[hid]
            per_kset.setdefault(s, set()).add(truth[hid])
        assert all(len(values) == 1 for values in per_kset.values())


def goal_levels(seeds=range(150)):
    """(case, level, views, own) for until and weak-until levels over seeded
    small arenas, where views maps each kset to its goal automaton on the
    level's hat and own to that view's (nonempty, solution): the reference
    that the level's one solution must agree with."""
    for seed in seeds:
        rng = random.Random(seed)
        g = random_arena(rng, max_states=5)
        if not g.props:
            continue
        coalition = random_coalition(rng)
        props = sorted(g.props)
        p1, p2 = rng.choice(props), rng.choice(props)
        for node, kind, build, decide in (
                (fm.Until, "until", build_until_automaton, check_until_nonempty),
                (fm.WeakUntil, "weak-until", build_weak_until_automaton, check_weak_nonempty)):
            level = label_step(g, node(coalition, fm.Atom(p1), fm.Atom(p2)), "p#1")
            views = {s: build(level.hat, p1, p2, s) for s in level.hat.ksets}
            own = {s: decide(view) for s, view in views.items()}
            yield (seed, kind), level, views, own


def reaches_a_target(automaton, moves, choice, state, verdicts):
    """Every path from state that follows choice through moves (oracles.delta)
    reaches a target, without visiting BOT or repeating a state. verdicts
    memoizes per state; a state met again while its own verdict is pending
    lies on a cycle and reads False."""
    if state not in verdicts:
        verdicts[state] = False
        verdicts[state] = automaton.is_target(state) or (state in choice and all(
            reaches_a_target(automaton, moves, choice, t, verdicts)
            for t in moves[(state, choice[state])]))
    return verdicts[state]


class TestOneSolvePerLevel:
    """Labels, witnesses and explanations come from one solve of the level's
    whole goal table; each kset's own solve is the reference they must agree
    with."""

    def test_each_kset_solution_agrees_with_the_level_labels(self):
        for case, level, _, own in goal_levels():
            truth = level_truth(level)
            for hid in level.arena.states:
                assert own[level.hat.kset[hid]][0] == truth[hid], case

    def test_view_regions_are_the_level_region_on_their_states(self):
        """A view also lists the settled states that the level game reaches
        only through settled ones and does not list; they win."""
        unlisted = 0
        for case, level, views, own in goal_levels():
            listed = set(level.game.states)
            for s, automaton in views.items():
                extra = [q for q in automaton.states if q not in listed]
                assert all(map(automaton.is_target, extra)), case
                unlisted += len(extra)
                assert own[s][1].winning == (
                    level.solution.winning & set(automaton.states) | set(extra)), case
        assert unlisted > 100, unlisted

    def test_weak_until_choices_are_the_kset_choices(self):
        """The level's choices, with the first coalition action at each settled
        state the level game does not list, are each view's own."""
        for case, level, views, own in goal_levels():
            if level.case != "weak-until":
                continue
            listed = set(level.game.states)
            for s, automaton in views.items():
                level_choice = {state: level.solution.choice[state] if state in listed
                                else automaton.alphabet[0]
                                for state in automaton.states if state in own[s][1].winning}
                assert level_choice == own[s][1].choice, case

    def test_until_choices_reach_a_target_on_every_view(self):
        for case, level, views, _ in goal_levels():
            if level.case != "until":
                continue
            for automaton in views.values():
                moves, verdicts = delta(automaton), {}
                for state in automaton.states:
                    if state in level.solution.winning:
                        assert reaches_a_target(automaton, moves, level.solution.choice, state,
                                                verdicts), case


def lazy_verdicts():
    """(case, verdict) for the bundled example and nested until, weak-until and
    G goals over a seeded batch of small random arenas."""
    yield "alicebob", model_check(load_alicebob(), EXAMPLE)
    for seed in range(120):
        rng = random.Random(seed)
        g = random_arena(rng, max_states=5)
        if not g.props:
            continue
        c = ",".join(random_coalition(rng))
        p1, p2 = rng.choice(sorted(g.props)), rng.choice(sorted(g.props))
        for text in ("<%s>F <%s>X %s" % (c, c, p1), "<%s>(%s W %s)" % (c, p1, p2),
                     "<%s>G (%s | <%s>(%s U %s))" % (c, p2, c, p1, p2)):
            yield (seed, text), model_check(g, text)


def goal_levels_of(verdict):
    for level in verdict.table:
        if level.case in ("until", "weak-until"):
            build = (build_until_automaton if level.case == "until"
                     else build_weak_until_automaton)
            yield level, build, level.chi.left.name, level.chi.right.name


class TestLazyViews:
    """model_check builds each kset's goal automaton as an unwalked view and
    keeps only its initial state; the level's one walk fills the goal table in
    the order eager per-kset walks would, so a view built on the level's hat
    later lists the same states."""

    def test_only_read_views_are_walked(self, monkeypatch):
        """The views the checker builds, recorded through atldk.checker's
        globals as level_failures records calls: model_check, Verdict.witness
        and explain read no view's states."""
        views = []
        for name in BUILDERS:
            def recorded(*args, original=getattr(checker, name)):
                views.append(original(*args))
                return views[-1]
            monkeypatch.setattr(checker, name, recorded)
        for case, verdict in lazy_verdicts():
            verdict.witness()
            for q, _ in verdict.initial:
                explain(verdict, q)
        assert len(views) > 1000
        assert all("states" not in view.__dict__ for view in views)

    def test_forced_views_equal_eager_walks(self):
        for case, verdict in lazy_verdicts():
            for level, build, p1, p2 in goal_levels_of(verdict):
                fresh = split(level.hat.source, level.hat.coalition)
                for s in level.hat.ksets:
                    eager, view = build(fresh, p1, p2, s), build(level.hat, p1, p2, s)
                    # Each table numbers states in the order it meets them:
                    # compare the (pending, kset) pairs.
                    assert state_pairs(view.rows, view.states) == state_pairs(
                        eager.rows, eager.states), case

    def test_level_walk_keeps_the_eager_row_order(self):
        """The level game expands the unsettled states in the order eager walks
        of every kset's view list them, and nothing else. It lists besides
        exactly the settled states that a kset starts at or an expanded row
        reaches, and lists the same whether or not the views filled the
        table first."""
        for case, verdict in lazy_verdicts():
            for level, build, p1, p2 in goal_levels_of(verdict):
                game, table = level.game, level.game.rows
                fresh = split(level.hat.source, level.hat.coalition)
                for s in fresh.ksets:
                    build(fresh, p1, p2, s).states
                rows = fresh._goal_tables[(p1, p2)]
                # The two tables number states apart: compare their pairs.
                unsettled = [q for q in state_pairs(rows, rows) if not settled(q)]
                assert state_pairs(table, table) == unsettled, case
                listed = state_pairs(table, game.states)
                assert [q for q in listed if not settled(q)] == unsettled, case
                reached = set(state_pairs(rows, (rows.initial(s) for s in fresh.ksets))) | {
                    rows.pairs[t] for q in rows if not settled(rows.pairs[q]) for t in rows[q][2]}
                assert set(listed) == set(unsettled) | {q for q in reached if settled(q)}, case
                fresh_game = TreeAutomaton(level.case, fresh, p1, p2)
                assert state_pairs(rows, fresh_game.states) == listed, case


def settled(pair):
    """Whether a goal state's (pending, kset) pair is settled: a kset with
    nothing pending."""
    return pair[0] == 0 and pair[1] != 0


class TestConstructionInvariants:
    def test_hold_on_every_refined_state_and_goal_table_row(self):
        """The views fill each goal table with the settled rows that the
        level game leaves out, so every row a view shows is checked."""
        rows = 0
        for case, verdict in lazy_verdicts():
            for level, *_ in goal_levels_of(verdict):
                walk_views(level)
            for level in verdict.table:
                if level.hat is not None:
                    rows += sum(map(len, level.hat._goal_tables.values()))
                    assert construction_failures(level.hat) == [], case
        assert rows > 1000


class TestDumpsReload:
    """README: an arena validates what load_arena checks of a document, so
    every arena's dump reloads."""

    # Each passed validation once, and its dump did not reload.
    CAUGHT = (
        ([], {}, ["s"], {"s": set()}, ["s"], {}, ["p"], {("s", ()): {"s"}}),
        ([7], {7: ["x"]}, ["s"], {"s": {"p"}}, ["s"], {7: ["p"]}, [], {("s", ("x",)): {"s"}}),
    )

    def test_every_arena_that_validates_has_a_dump_that_reloads(self):
        arenas = [random_arena(random.Random(seed)) for seed in range(200)]
        for args in self.CAUGHT:
            try:
                arenas.append(Arena(*args))
            except ArenaError:
                continue
        rng = random.Random(0)
        refined = [split(g, random_coalition(rng)).arena for g in arenas[:100]]
        arenas += refined + [h.with_prop("new", h.states[::2]) for h in refined]
        arenas += [level.arena for _, verdict in lazy_verdicts() for level in verdict.table]
        # Loaded, split-built and with_prop arenas reload with equal rows.
        for g in arenas:
            doc = g.to_document()
            again = load_arena(doc)
            assert again.to_document() == doc, doc
            assert again._rows == g._rows, doc

    def test_a_reloaded_level_names_the_props_the_checker_reserves(self, corpus):
        """A level's dump carries the fresh props of its subformulas; checking
        it again would label a level with one of them, so model_check names
        them before the first level."""
        level = model_check(corpus, "<Alice>X c").table.levels[-1]
        g = load_arena(level.arena.to_document())
        message = r"^arena declares p#1, which the checker reserves for its labeling levels$"
        with pytest.raises(CheckerError, match=message):
            model_check(g, "valid")

    def test_the_caught_arenas_name_their_fault(self):
        for args, message in zip(self.CAUGHT, ("arena has no agents",
                                               "agent name 7 must be a string, not int")):
            with pytest.raises(ArenaError) as raised:
                Arena(*args)
            assert str(raised.value) == message


class TestVerdict:
    def test_document_shape(self, example_verdict):
        doc = example_verdict.to_document()
        assert set(doc) == {"holds", "formula", "levels", "initial"}
        assert doc["holds"] is True
        assert doc["formula"] == str(fm.parse_formula(EXAMPLE))
        assert [lvl["k"] for lvl in doc["levels"]] == [1, 2, 3, 4, 5]
        assert all(set(lvl) == {"k", "case", "states", "labeled"} for lvl in doc["levels"])
        assert doc["initial"] == [{"state": "q0@{q0}", "label": True}]
        json.dumps(doc)

    def test_witness_for_positive_until(self, example_verdict):
        strategy = example_verdict.witness()
        assert isinstance(strategy, Strategy)
        assert strategy.coalition == ("Alice", "Bob")
        assert strategy.action((frozenset({"valid"}),)) == ("g", "g")

    def test_witness_none_without_a_temporal_level(self, corpus):
        assert model_check(corpus, "K{Alice,Bob} valid").witness() is None

    def test_witness_none_when_the_until_fails(self, corpus):
        verdict = model_check(corpus, "<Alice,Bob>(c U s)")
        assert not verdict.holds
        assert verdict.witness() is None


class TestExplain:
    def test_chain_for_refined_state(self, example_verdict):
        record = explain(example_verdict, "q0@{q0}")
        assert record["state"] == "q0"
        assert record["base_labels"] == ["valid"]
        assert [entry["level"] for entry in record["chain"]] == [5, 4, 3, 2, 1]
        top = record["chain"][0]
        assert top["case"] == "until"
        assert top["kset"] == ["q0"]
        assert top["labeled"] is True
        assert "witness" in record
        assert record["witness"]["coalition"] == ["Alice", "Bob"]

    def test_chain_for_base_level_state(self, example_verdict):
        record = explain(example_verdict, "q12")
        assert record["state"] == "q12"
        assert [entry["level"] for entry in record["chain"]] == [4, 3, 2, 1]
        assert record["chain"][0]["labeled"] is True
        assert "witness" not in record

    def test_base_only_state(self, corpus):
        verdict = model_check(corpus, "true")
        record = explain(verdict, "q0")
        assert record["chain"][0]["labeled"] is True

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_chains_follow_provenance_on_mixed_formulas(self, seed):
        """Each top-level state explains down to a base state through every
        level: a modal level steps to the refined state's base, a boolean one
        keeps the state, each entry is labeled as its level's arena says, and
        each step keeps the state's labels less the level's fresh prop."""
        rng = random.Random(seed)
        g = random_arena(rng)
        if not g.props:
            return
        p = rng.choice(sorted(g.props))
        c = ",".join(random_coalition(rng))
        verdict = model_check(g, "!K{%s} %s | <%s>X (%s & <%s>(%s U !%s))"
                              % (c, p, c, p, c, p, p))
        levels = verdict.table.levels
        for hid in levels[-1].arena.states:
            record = explain(verdict, levels[-1].arena.name(hid))
            chain = record["chain"]
            assert [entry["level"] for entry in chain] == [lv.k for lv in reversed(levels)]
            below = [entry["state"] for entry in chain[1:]] + [record["state"]]
            for entry, below_name, level in zip(chain, below, reversed(levels)):
                h = level.arena.state_named(entry["state"])
                previous = levels[level.k - 2].arena if level.k > 1 else g
                state = previous.state_named(below_name)
                labels = level.arena.labels[h]
                assert entry["labeled"] == (level.prop in labels)
                assert labels - {level.prop} == previous.labels[state]
                if level.hat is None:
                    assert state == h and "kset" not in entry
                else:
                    source = level.hat.source
                    kset = states_of(source, level.hat.kset[h])
                    assert entry["kset"] == [source.name(q) for q in kset]
                    assert state == level.hat.base[h] and state in kset
            assert record["base_labels"] == sorted(g.labels[record["state"]])

    def test_unknown_state(self, example_verdict):
        with pytest.raises(CheckerError, match="unknown state"):
            explain(example_verdict, "zzz")

    def test_json_serializable(self, example_verdict):
        json.dumps(explain(example_verdict, "q0@{q0}"))


class TestOwnership:
    """Every link in a verdict runs from a level to what it was built from, so
    reference counting alone frees a dropped verdict."""

    @staticmethod
    def verdicts(seeds):
        """Seeded verdicts of an outer until or weak-until whose goals hold
        a next, a knowledge and the other goal level."""
        for seed in seeds:
            rng = random.Random(seed)
            g = random_arena(rng)
            if not g.props:
                continue
            p, q, r = (rng.choice(sorted(g.props)) for _ in range(3))
            c = ",".join(random_coalition(rng))
            outer, inner = rng.choice((("U", "W"), ("W", "U")))
            yield model_check(g, "<%s>(<%s>X %s %s (K{%s} %s | <%s>(%s %s !%s)))"
                              % (c, c, p, outer, c, q, c, p, inner, r))

    @pytest.fixture
    def no_cyclic_collector(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            yield
        finally:
            if enabled:
                gc.enable()

    def test_dropped_verdicts_leave_nothing_to_collect(self, no_cyclic_collector):
        cases, witnesses, explained = Counter(), 0, 0
        gc.collect()
        for verdict in self.verdicts(range(80)):
            cases.update(level.case for level in verdict.table)
            strategy = verdict.witness()
            if strategy is not None:
                witnesses += 1
                strategy.to_document()
            top = verdict.table.levels[-1]
            goal = [h for h in top.arena.states if top.prop in top.arena.labels[h]]
            if goal:
                explained += "witness" in explain(verdict, top.arena.name(goal[0]))
            del verdict, strategy, top
        assert gc.collect() == 0
        assert min(witnesses, explained, *(cases[case] for case in MODAL_CASES)) > 10, (
            witnesses, explained, cases)

    @staticmethod
    def automata_reached(root):
        """The TreeAutomaton objects reachable from root through
        gc.get_referents. The walk does not enter classes, modules or
        functions, which lead out of the verdict to everything loaded."""
        seen, stack, found = {id(root)}, [root], 0
        while stack:
            obj = stack.pop()
            found += isinstance(obj, TreeAutomaton)
            for ref in gc.get_referents(obj):
                if id(ref) not in seen and not isinstance(
                        ref, (type, types.ModuleType, types.FunctionType)):
                    seen.add(id(ref))
                    stack.append(ref)
        return found

    def test_a_verdict_holds_one_game_per_goal_level(self):
        """Not one automaton per kset: the level's game serves every kset's
        label, witness and explanation."""
        verdicts = [("F32", model_check(family_f(32, 32), "<a1>F <a2>X p3")), *lazy_verdicts()]
        for case, verdict in verdicts:
            goal_levels = sum(level.case in ("until", "weak-until") for level in verdict.table)
            assert self.automata_reached(verdict) == goal_levels, case

    def test_a_kept_level_arena_frees_its_refinement(self, no_cyclic_collector):
        for verdict in self.verdicts(range(10)):
            arena = verdict.table.levels[-1].arena
            hat = weakref.ref(verdict.table.levels[-1].hat)
            del verdict
            assert hat() is None
            assert arena.initial


class TestBindFormula:
    def test_accepts_wellformed(self, corpus):
        bind_formula(corpus, fm.parse_formula(EXAMPLE))

    def test_coalitions_checked_under_sugar(self, corpus):
        with pytest.raises(CheckerError):
            bind_formula(corpus, fm.parse_formula("P{Eve} valid"))

    def test_empty_coalition_allowed(self, corpus):
        bind_formula(corpus, fm.Know([], fm.Atom("valid")))
