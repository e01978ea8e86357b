"""Emptiness solvers, the generic occurrence oracle, and witness extraction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from atldk import load_alicebob, load_arena, model_check
from atldk.emptiness import (_WitnessMachine, check_until_nonempty, check_weak_nonempty,
                             extract_witness_strategy)
from atldk.epistemic_split import split
from atldk.strategy_automata import (BOT, WEAK_UNTIL, TreeAutomaton, build_until_automaton,
                                     build_weak_until_automaton)
from oracles import (
    OracleGuardExceeded,
    acceptance_batches,
    delta,
    generic_occurrence_emptiness,
    goal_state,
    history_witness_map,
    mask_of,
    random_arena,
    random_coalition,
    replay_machine,
    replay_until,
    solve_failures,
    states_of,
    until_accept,
    weak_accept,
    witness_failures,
)

AB = ["Alice", "Bob"]


def one_agent_arena(label0=("p",), label1=()):
    """Two states over one acting agent: s0 -a-> s0, s0 -b-> s1, s1 absorbing."""
    return load_arena({
        "agents": [{"name": "a1", "actions": ["a", "b"], "observes": ["p", "q"]}],
        "states": [{"id": "s0", "labels": list(label0)},
                   {"id": "s1", "labels": list(label1)}],
        "initial": ["s0"],
        "transitions": [
            {"from": "s0", "actions": {"a1": "a"}, "to": ["s0"]},
            {"from": "s0", "actions": {"a1": "b"}, "to": ["s1"]},
            {"from": "s1", "actions": {"a1": "a"}, "to": ["s1"]},
            {"from": "s1", "actions": {"a1": "b"}, "to": ["s1"]},
        ],
    })


def automaton_for(arena, kind, p1, p2, coalition=("a1",)):
    hat = split(arena, list(coalition))
    kset = hat.kset[hat.arena.initial[0]]
    build = build_until_automaton if kind == "until" else build_weak_until_automaton
    return hat, build(hat, p1, p2, kset)


def random_goal_automaton(rng, kind):
    g = random_arena(rng)
    if not g.props:
        return None
    coalition = random_coalition(rng)
    hat = split(g, coalition)
    props = sorted(g.props)
    p1, p2 = rng.choice(props), rng.choice(props)
    kset = hat.kset[rng.choice(hat.arena.states)]
    build = build_until_automaton if kind == "until" else build_weak_until_automaton
    return build(hat, p1, p2, kset)


class TestUntilSolver:
    def test_discharged_start_needs_no_moves(self):
        arena = one_agent_arena(label0=("q",))
        hat, automaton = automaton_for(arena, "until", "p", "q")
        nonempty, solution = check_until_nonempty(automaton)
        assert nonempty
        strategy = extract_witness_strategy(solution, automaton, hat.kset[hat.arena.initial[0]])
        assert strategy.mapping == {}
        assert strategy.action((frozenset({"q"}),)) == strategy.default

    def test_failed_start_is_empty(self):
        arena = one_agent_arena(label0=())
        hat, automaton = automaton_for(arena, "until", "p", "q")
        assert automaton.init == BOT
        nonempty, solution = check_until_nonempty(automaton)
        assert not nonempty
        # Extraction takes a winning init on trust; the level invariants reject this one.
        assert witness_failures(solution, automaton, hat.kset[hat.arena.initial[0]]) == [
            "witness extracted from the losing init bot"]

    def test_unreachable_goal_is_empty(self):
        arena = one_agent_arena()
        hat, automaton = automaton_for(arena, "until", "p", "q")
        nonempty, _ = check_until_nonempty(automaton)
        assert not nonempty

    def test_reachable_goal_is_nonempty(self):
        arena = one_agent_arena(label0=("p",), label1=("q",))
        hat, automaton = automaton_for(arena, "until", "p", "q")
        nonempty, solution = check_until_nonempty(automaton)
        assert nonempty
        assert solution.choice[automaton.init] == ("b",)

    def test_rejects_weak_automata(self):
        """The solvers take their automaton's kind on trust; the level
        invariants reject a weak-until automaton given to the until solver."""
        arena = one_agent_arena()
        _, automaton = automaton_for(arena, "weak-until", "p", "q")
        assert solve_failures("check_until_nonempty", automaton) == [
            "check_until_nonempty got an automaton of kind weak-until"]


class TestWeakSolver:
    def test_maintaining_forever_is_accepted(self):
        arena = one_agent_arena()
        hat, automaton = automaton_for(arena, "weak-until", "p", "q")
        nonempty, solution = check_weak_nonempty(automaton)
        assert nonempty
        assert solution.choice[automaton.init] == ("a",)
        strategy = extract_witness_strategy(solution, automaton, hat.kset[hat.arena.initial[0]])
        assert strategy.action((frozenset({"p"}),)) == ("a",)

    def test_the_until_twin_is_empty(self):
        arena = one_agent_arena()
        _, until_automaton = automaton_for(arena, "until", "p", "q")
        assert not check_until_nonempty(until_automaton)[0]

    def test_failed_start_is_empty(self):
        arena = one_agent_arena(label0=())
        _, automaton = automaton_for(arena, "weak-until", "p", "q")
        nonempty, _ = check_weak_nonempty(automaton)
        assert not nonempty

    def test_rejects_until_automata(self):
        arena = one_agent_arena()
        _, automaton = automaton_for(arena, "until", "p", "q")
        assert solve_failures("check_weak_nonempty", automaton) == [
            "check_weak_nonempty got an automaton of kind until"]


@pytest.fixture(scope="module")
def setup():
    arena = load_alicebob().with_prop("goal", ["q12"])
    hat = split(arena, AB)
    automaton = build_until_automaton(hat, "valid", "goal", mask_of(arena, {"q0"}))
    return arena, hat, automaton


class TestCorpusGame:
    def test_nonempty_with_forced_payment_choice(self, setup):
        _, _, automaton = setup
        nonempty, solution = check_until_nonempty(automaton)
        assert nonempty
        q9 = goal_state(automaton, ["q9"], ["q9"])
        q10 = goal_state(automaton, ["q10"], ["q10"])
        assert solution.choice[q9] == ("tc", "ds")
        assert solution.choice[q10] == ("tc", "ds")
        assert solution.choice[automaton.init] == ("g", "g")

    def test_blocked_branches_stay_out_of_the_winning_region(self, setup):
        _, _, automaton = setup
        _, solution = check_until_nonempty(automaton)
        q13 = goal_state(automaton, ["q13"], ["q13"])
        assert q13 in automaton.states
        assert q13 not in solution.winning

    def test_witness_replays_cleanly_against_all_resolutions(self, setup):
        arena, hat, automaton = setup
        _, solution = check_until_nonempty(automaton)
        strategy = extract_witness_strategy(solution, automaton, mask_of(arena, {"q0"}))
        failures = replay_until(
            arena, AB, strategy,
            holds1=lambda q: "valid" in arena.labels[q],
            holds2=lambda q: "goal" in arena.labels[q],
            depth=2 * len(automaton))
        assert failures == []

    def test_witness_narrates_the_protocol(self, setup):
        arena, hat, automaton = setup
        _, solution = check_until_nonempty(automaton)
        strategy = extract_witness_strategy(solution, automaton, mask_of(arena, {"q0"}))
        assert strategy.action((frozenset({"valid"}),)) == ("g", "g")
        deal = (frozenset({"valid"}), frozenset({"valid"}))
        assert strategy.action(deal) == ("i", "i")


def choice_game_violations(automaton, nonempty, solution):
    """What is wrong with a solution, checked by following its choices.

    Until: every path that follows the choices from a winning non-target state
    reaches a target without repeating a state and never meets the failure
    state. Weak until: the failure state is never winning, every winning state
    has a choice, and every chosen action keeps all successors winning.
    """
    problems = []
    moves = delta(automaton)
    if nonempty != (automaton.init in solution.winning):
        problems.append("verdict disagrees with the winning region at init")
    if automaton.kind == "until":
        def every_choice_path_hits_target(state, on_path):
            if automaton.is_target(state):
                return True
            if state == BOT or state in on_path or state not in solution.choice:
                return False
            c_a = solution.choice[state]
            return all(every_choice_path_hits_target(t, on_path | {state})
                       for t in moves[(state, c_a)])

        for state in solution.winning:
            if not every_choice_path_hits_target(state, frozenset()):
                problems.append("choice path from %s misses the targets"
                                % automaton.pretty(state))
    else:
        if BOT in solution.winning:
            problems.append("the failure state is winning")
        for state in solution.winning:
            if state not in solution.choice:
                problems.append("winning %s has no choice" % automaton.pretty(state))
            elif not all(t in solution.winning
                         for t in moves[(state, solution.choice[state])]):
                problems.append("choice at %s leaves the winning region"
                                % automaton.pretty(state))
    return problems


def choice_game_violations_on_every_kset(g, rng):
    """Solve both goal kinds on every kset of g and collect the violations."""
    coalition = random_coalition(rng)
    props = sorted(g.props)
    p1, p2 = rng.choice(props), rng.choice(props)
    hat = split(g, coalition)
    found = []
    for s in hat.ksets:
        for build, decide in ((build_until_automaton, check_until_nonempty),
                              (build_weak_until_automaton, check_weak_nonempty)):
            automaton = build(hat, p1, p2, s)
            problems = choice_game_violations(automaton, *decide(automaton))
            found.extend((automaton.kind, sorted(s), p) for p in problems)
    return found


class TestChoiceGames:
    def test_choices_win_on_every_kset(self):
        for seed in range(500):
            rng = random.Random(seed)
            g = random_arena(rng, max_states=5)
            if g.props:
                assert choice_game_violations_on_every_kset(g, rng) == [], seed

    def test_weak_choice_revised_after_a_later_state_loses(self):
        # On kset {q2} the weak-until sweep first records a choice whose
        # successor only joins the losing region in a later sweep.
        rng = random.Random(1573)
        g = random_arena(rng, max_states=8)
        assert choice_game_violations_on_every_kset(g, rng) == []

    def test_weak_until_choices_follow_the_state_order(self):
        for seed in range(60):
            rng = random.Random(seed)
            g = random_arena(rng, max_states=5)
            if not g.props:
                continue
            coalition = random_coalition(rng)
            props = sorted(g.props)
            hat = split(g, coalition)
            automaton = TreeAutomaton(WEAK_UNTIL, hat, rng.choice(props), rng.choice(props))
            choice = check_weak_nonempty(automaton)[1].choice
            assert list(choice) == [s for s in automaton.states if s in choice], seed


class TestGenericOracle:
    def test_never_accepting_family(self):
        arena = one_agent_arena()
        _, automaton = automaton_for(arena, "until", "p", "q")
        assert generic_occurrence_emptiness(automaton, lambda visited: False) is False

    def test_always_accepting_family(self):
        arena = one_agent_arena()
        _, automaton = automaton_for(arena, "until", "p", "q")
        assert generic_occurrence_emptiness(automaton, lambda visited: True) is True

    def test_guard_trips_on_large_automata(self):
        arena = one_agent_arena()
        _, automaton = automaton_for(arena, "until", "p", "q")
        with pytest.raises(OracleGuardExceeded, match="guard"):
            generic_occurrence_emptiness(automaton, lambda visited: True, guard=1)

    def test_acceptance_families(self):
        arena = one_agent_arena(label0=("q",))
        _, automaton = automaton_for(arena, "until", "p", "q")
        target = automaton.init
        accept_until = until_accept(automaton)
        assert accept_until(frozenset({target}))
        assert not accept_until(frozenset({target, BOT}))
        accept_weak = weak_accept(automaton)
        assert accept_weak(frozenset({target}))
        assert not accept_weak(frozenset({BOT}))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_agrees_with_the_until_solver(self, seed):
        rng = random.Random(seed)
        automaton = random_goal_automaton(rng, "until")
        if automaton is None:
            return
        fast, _ = check_until_nonempty(automaton)
        slow = generic_occurrence_emptiness(automaton, until_accept(automaton), guard=10 ** 9)
        assert fast == slow

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_agrees_with_the_weak_solver(self, seed):
        rng = random.Random(seed)
        automaton = random_goal_automaton(rng, "weak-until")
        if automaton is None:
            return
        fast, _ = check_weak_nonempty(automaton)
        slow = generic_occurrence_emptiness(automaton, weak_accept(automaton), guard=10 ** 9)
        assert fast == slow


class TestUntilImpliesWeak:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_until_nonempty_implies_weak_nonempty(self, seed):
        rng = random.Random(seed)
        g = random_arena(rng)
        if not g.props:
            return
        coalition = random_coalition(rng)
        hat = split(g, coalition)
        props = sorted(g.props)
        p1, p2 = rng.choice(props), rng.choice(props)
        kset = hat.kset[rng.choice(hat.arena.states)]
        until = build_until_automaton(hat, p1, p2, kset)
        weak = build_weak_until_automaton(hat, p1, p2, kset)
        if check_until_nonempty(until)[0]:
            assert check_weak_nonempty(weak)[0]


class TestExtractedWitnesses:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_until_witnesses_replay_cleanly(self, seed):
        rng = random.Random(seed)
        g = random_arena(rng)
        if not g.props:
            return
        coalition = random_coalition(rng)
        hat = split(g, coalition)
        props = sorted(g.props)
        p1, p2 = rng.choice(props), rng.choice(props)
        initial_hid = hat.arena.initial[0]
        kset = hat.kset[initial_hid]
        automaton = build_until_automaton(hat, p1, p2, kset)
        nonempty, solution = check_until_nonempty(automaton)
        if not nonempty:
            return
        strategy = extract_witness_strategy(solution, automaton, kset)
        restricted = [q for q in g.initial if q in states_of(g, kset)]
        probe = load_arena({**g.to_document(), "initial": restricted})
        failures = replay_until(
            probe, coalition, strategy,
            holds1=lambda q: p1 in g.labels[q],
            holds2=lambda q: p2 in g.labels[q],
            depth=2 * len(automaton))
        assert failures == []


class TestWeakWitnessReplay:
    DRAWN = {380: "<a1,a2>(p W q)", 473: "<a1,a2>(p W q)", 787: "<a1,a2>(q W r)"}

    @pytest.mark.parametrize("seed", sorted(DRAWN))
    def test_weak_until_witness_survives_replay(self, seed):
        # A witness map covers histories up to the goal automaton's size, 2
        # for seed 473; a strategy that played the default past it lost
        # these three safety goals on longer plays (at length 4 for seed 473).
        rng = random.Random(seed)
        g = random_arena(rng, max_states=5)
        coalition = random_coalition(rng)
        props = sorted(g.props)
        p1, p2 = rng.choice(props), rng.choice(props)
        text = "<%s>(%s W %s)" % (",".join(coalition), p1, p2)
        verdict = model_check(g, text)
        if text != self.DRAWN[seed] or not verdict.holds:
            pytest.fail("seed %d no longer draws a positive %s" % (seed, self.DRAWN[seed]))
        level = verdict.table.levels[-1]
        holds = [lambda q, p=p: p in g.labels[q] for p in (p1, p2)]
        strategy = verdict.witness()
        assert max(map(len, strategy.mapping)) < 4 * len(level.hat.arena.states) + 6
        assert replay_until(g, coalition, strategy, *holds,
                            depth=4 * len(level.hat.arena.states) + 6, weak=True) == []
        assert replay_machine(g, coalition, strategy, *holds, weak=True) == []


def positive_ksets(level):
    """The ksets of a goal level whose initial state in the level's game wins."""
    return [s for s in level.hat.ksets if level.game.rows.initial(s) in level.solution.winning]


class TestWitnessMap:
    def test_map_equals_the_queue_walk(self):
        """Keys, actions and insertion order equal the (state, history)
        queue walk, for every positive kset of until and weak-until levels.
        The walk plays the level's choices and, for weak until, the first
        coalition action at every settled state of the kset's automaton,
        including those the level game does not list."""
        compared = {"U": 0, "W": 0}
        unlisted = 0
        for seed, g in acceptance_batches():
            rng = random.Random(80000 + seed)
            coalition = random_coalition(rng)
            props = sorted(g.props)
            p1, p2 = rng.choice(props), rng.choice(props)
            for op in ("U", "W"):
                text = "<%s>(%s %s %s)" % (",".join(coalition), p1, op, p2)
                level = model_check(g, text).table.levels[-1]
                build = build_until_automaton if op == "U" else build_weak_until_automaton
                for s in positive_ksets(level):
                    extracted = extract_witness_strategy(level.solution, level.game, s)
                    # The kset's own automaton, on the hat whose goal table the game fills.
                    automaton = build(level.hat, level.chi.left.name, level.chi.right.name, s)
                    choice = dict(level.solution.choice)
                    if op == "W":
                        settled = [q for q in automaton.states if automaton.is_target(q)]
                        choice.update(dict.fromkeys(settled, automaton.alphabet[0]))
                        unlisted += len(set(settled) - set(level.game.states))
                    expected = history_witness_map(choice, automaton, s)
                    assert list(extracted.mapping.items()) == list(expected.items()), (seed, text)
                    compared[op] += 1
        assert min(compared.values()) >= 300 and unlisted > 100, (compared, unlisted)


class TestWitnessMachine:
    def test_machine_plays_its_rendered_map(self):
        """On every positive kset of until and weak-until levels, the machine
        plays what its rendered map says on every history in the map."""
        compared = {"U": 0, "W": 0}
        for seed, g in acceptance_batches():
            rng = random.Random(80000 + seed)
            coalition = random_coalition(rng)
            props = sorted(g.props)
            p1, p2 = rng.choice(props), rng.choice(props)
            for op in ("U", "W"):
                text = "<%s>(%s %s %s)" % (",".join(coalition), p1, op, p2)
                level = model_check(g, text).table.levels[-1]
                for s in positive_ksets(level):
                    strategy = extract_witness_strategy(level.solution, level.game, s)
                    for history, c_a in strategy.mapping.items():
                        assert strategy.action(history) == c_a, (seed, text, history)
                    compared[op] += 1
        assert min(compared.values()) >= 300, compared

    @staticmethod
    def stay_or_leave():
        """One agent keeps p by staying; leaving, its first action, loses p
        for good. Both s0 and s2 are initial and observed apart by r."""
        loops = [{"from": q, "actions": {"a1": "stay"}, "to": [q]} for q in ("s0", "s1", "s2")]
        leaves = [{"from": q, "actions": {"a1": "leave"}, "to": ["s1"]}
                  for q in ("s0", "s1", "s2")]
        return load_arena({
            "agents": [{"name": "a1", "actions": ["leave", "stay"], "observes": ["p", "r"]}],
            "states": [{"id": "s0", "labels": ["p"]}, {"id": "s1", "labels": []},
                       {"id": "s2", "labels": ["p", "r"]}],
            "initial": ["s0", "s2"],
            "transitions": loops + leaves,
        })

    def test_playing_never_renders_the_map(self, monkeypatch):
        def render(machine):
            raise AssertionError("the history map was rendered")

        monkeypatch.setattr(_WitnessMachine, "table", property(render))
        verdict = model_check(self.stay_or_leave(), "<a1>G p")
        strategy = verdict.witness()
        assert strategy.default == ("leave",)
        depth_cap = len(verdict.table.levels[-1].game)
        for z in ({"p"}, {"p", "r"}):
            assert strategy.action([z] * (100 * depth_cap)) == ("stay",)
        assert strategy.action([{"r"}]) == strategy.action([{"p"}, {"r"}]) == ("leave",)
        with pytest.raises(AssertionError, match="rendered"):
            strategy.mapping

    def test_one_machine_serves_every_initial_kset(self):
        """Verdict.witness() is one machine with a start per initial kset,
        and its map is the per-kset maps one after the other."""
        verdict = model_check(self.stay_or_leave(), "<a1>G p")
        level = verdict.table.levels[-1]
        ksets = dict.fromkeys(level.hat.kset[hid] for hid in level.arena.initial)
        assert len(ksets) == 2
        expected = {}
        for s in ksets:
            expected.update(extract_witness_strategy(level.solution, level.game, s).mapping)
        assert list(verdict.witness().mapping.items()) == list(expected.items())
        assert {h[0] for h in expected} == {frozenset({"p"}), frozenset({"p", "r"})}

    def test_until_witness_plays_default_past_a_discharged_goal(self):
        """From s0 the witness plays b into s1, where p fails and the goal is
        discharged. The machine has no move there, so every longer history
        plays default, a, and leaves the memory empty."""
        strategy = model_check(one_agent_arena(), "<a1>F !p").witness()
        assert strategy.default == ("a",)
        assert strategy.action([{"p"}]) == ("b",)
        machine = strategy.machine
        discharged = machine.step(machine.step((), frozenset({"p"})), frozenset())
        assert machine.output(discharged) is None
        assert machine.step(discharged, frozenset()) is None
        for n in (1, 2, 5):
            assert strategy.action([{"p"}] + [set()] * n) == ("a",)
        assert strategy.to_document()["map"] == [{"history": [["p"]], "action": {"a1": "b"}}]

    def test_weak_witness_through_settled_states_the_level_game_does_not_list(self):
        """From s0, a reaches s1 where q holds, and b fails. The level game
        lists the settled states of s1 and s2 without expanding them, so it
        never reaches s3's. The witness plays a on every history, through s3
        too, with the map recorded before the level game stopped there."""
        g = load_arena({
            "agents": [{"name": "a1", "actions": ["a", "b"], "observes": ["o"]}],
            "hidden_props": ["p", "q"],
            "states": [{"id": "s0", "labels": ["p"]}, {"id": "s1", "labels": ["q"]},
                       {"id": "s2", "labels": ["o", "q"]}, {"id": "s3"}],
            "initial": ["s0"],
            "transitions": [{"from": q, "actions": {"a1": act}, "to": to}
                            for q, act, to in (("s0", "a", ["s1"]), ("s0", "b", ["s3"]),
                                               ("s1", "a", ["s1", "s2"]), ("s1", "b", ["s3"]),
                                               ("s2", "a", ["s3"]), ("s2", "b", ["s2"]),
                                               ("s3", "a", ["s3"]), ("s3", "b", ["s3"]))],
        })
        verdict = model_check(g, "<a1>(p W q)")
        level = verdict.table.levels[-1]
        assert [level.game.pretty(q) for q in level.game.states] == [
            "({s0},{s0})", "({},{s1})", "bot", "({},{s2})"]
        strategy = verdict.witness()
        histories = [[], [[]], [[], []], [[], ["o"]], [[], [], []], [[], [], ["o"]],
                     [[], ["o"], []], [[], [], [], []], [[], [], [], ["o"]],
                     [[], [], ["o"], []], [[], ["o"], [], []]]
        assert strategy.to_document() == {
            "coalition": ["a1"], "default": {"a1": "a"},
            "map": [{"history": [[]] + h, "action": {"a1": "a"}} for h in histories]}
        holds = [lambda q, p=p: p in g.labels[q] for p in ("p", "q")]
        assert replay_machine(g, ["a1"], strategy, *holds, weak=True) == []
