"""Knowledge-set refinement: construction, invariants, and label oracles."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import atldk.formula as fm
from atldk import ArenaError, StateCapExceeded, load_alicebob, load_arena, model_check
from atldk.epistemic_split import label_knowledge, label_next, split
from oracles import (
    ARENA_FIELDS,
    CORE,
    Run,
    comma_id_document,
    core_fields,
    equivalence_classes,
    family_f,
    hat_state_of,
    initialized_runs,
    knowledge_oracle,
    lift_run,
    mask_of,
    next_oracle,
    obs,
    obs_signature,
    project_run,
    random_arena,
    random_coalition,
    reference_split,
    resplit_isomorphism_failures,
    same_kset,
    states_of,
    states_with_kset,
    succ,
    transitions,
    unlabeled_atoms,
)

AB = ["Alice", "Bob"]


@pytest.fixture(scope="module")
def corpus():
    return load_alicebob()


@pytest.fixture(scope="module")
def corpus_hat(corpus):
    return split(corpus, AB)


def named(hat, text):
    """The refined state whose text id is text."""
    h = hat.arena.state_named(text)
    assert h is not None, text
    return h


def names(hat, states):
    return {hat.arena.name(h) for h in states}


class TestCorpusSplit:
    def test_state_count_and_ids(self, corpus_hat):
        assert len(corpus_hat.arena.states) == 16
        assert list(corpus_hat.arena.states) == list(range(16))
        assert {"q1@{q1,q2,q3}", "q4@{q4}"} <= names(corpus_hat, corpus_hat.arena.states)

    def test_initial(self, corpus_hat):
        assert corpus_hat.arena.initial == (0,)
        assert corpus_hat.arena.name(0) == "q0@{q0}"

    def test_exactly_one_non_singleton_kset(self, corpus_hat):
        ksets = [frozenset(states_of(corpus_hat.source, s)) for s in corpus_hat.ksets]
        non_singleton = {s for s in ksets if len(s) > 1}
        assert non_singleton == {frozenset({"q1", "q2", "q3"})}

    def test_deal_step_branches_into_the_shared_kset(self, corpus_hat):
        successors = succ(corpus_hat.arena, named(corpus_hat, "q0@{q0}"), ("g", "g"))
        assert names(corpus_hat, successors) == {
            "q1@{q1,q2,q3}", "q2@{q1,q2,q3}", "q3@{q1,q2,q3}"}

    def test_reveal_step_collapses_the_kset(self, corpus_hat):
        for text, to in (("q1@{q1,q2,q3}", "q4@{q4}"), ("q2@{q1,q2,q3}", "q5@{q5}")):
            successors = succ(corpus_hat.arena, named(corpus_hat, text), ("i", "i"))
            assert names(corpus_hat, successors) == {to}

    def test_labels_copied_from_base(self, corpus, corpus_hat):
        for hid in corpus_hat.arena.states:
            assert corpus_hat.arena.labels[hid] == corpus.labels[corpus_hat.base[hid]]

    def test_single_agent_view_keeps_states_merged(self, corpus):
        hat = split(corpus, ["Alice"])
        for text, to in (("q2@{q1,q2,q3}", "q5@{q5,q6}"), ("q3@{q1,q2,q3}", "q6@{q5,q6}")):
            assert names(hat, succ(hat.arena, named(hat, text), ("i", "i"))) == {to}

    def test_split_is_deterministic(self, corpus, corpus_hat):
        again = split(corpus, AB)
        assert again.arena.states == corpus_hat.arena.states
        assert transitions(again.arena) == transitions(corpus_hat.arena)
        assert again.arena.initial == corpus_hat.arena.initial

    def test_limit_aborts(self, corpus):
        with pytest.raises(StateCapExceeded):
            split(corpus, AB, limit=5)
        split(corpus, AB, limit=16)

    def test_colliding_refined_ids_are_rejected(self):
        g = load_arena(comma_id_document())
        with pytest.raises(ArenaError, match=r"refined state id 'q@\{q,a,b,c\}' names two "
                           r"knowledge sets, \['q', 'a', 'b,c'\] and \['q', 'a,b', 'c'\]"):
            split(g, ["A"])

    def test_an_overrun_raises_before_ids_are_checked(self):
        """The refinement for {A} has 8 states and the sixth's id is the
        third's. Ids are checked only on a refinement that completes, so a cap
        of 6 or 7 states raises StateCapExceeded, and no cap the collision."""
        g = load_arena(comma_id_document())
        ids = reference_split(g, ["A"]).states
        assert len(ids) == 8 and len(set(ids[:5])) == 5 and ids[5] == ids[2]
        for limit in (6, 7):
            with pytest.raises(StateCapExceeded, match=r"^state cap exceeded: refinement for "
                               r"\{A\} needs more than %d states$" % limit):
                split(g, ["A"], limit=limit)
        for limit in (8, None):
            with pytest.raises(ArenaError, match="names two knowledge sets"):
                split(g, ["A"], limit=limit)


class TestInitialGrouping:
    def doc(self, labels0, labels1):
        return {
            "agents": [{"name": "a1", "actions": ["a"], "observes": ["p"]},
                       {"name": "a2", "actions": ["a"], "observes": []}],
            "states": [{"id": "i0", "labels": labels0}, {"id": "i1", "labels": labels1}],
            "initial": ["i0", "i1"],
            "transitions": [
                {"from": "i0", "actions": {"a1": "a", "a2": "a"}, "to": ["i0"]},
                {"from": "i1", "actions": {"a1": "a", "a2": "a"}, "to": ["i1"]},
            ],
        }

    def test_indistinguishable_initials_share_a_kset(self):
        hat = split(load_arena(self.doc(["p"], ["p"])), ["a1"])
        assert names(hat, hat.arena.initial) == {"i0@{i0,i1}", "i1@{i0,i1}"}

    def test_distinguishable_initials_split(self):
        hat = split(load_arena(self.doc(["p"], [])), ["a1"])
        assert names(hat, hat.arena.initial) == {"i0@{i0}", "i1@{i1}"}


class TestSplitInvariants:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_base_in_kset_and_obs_coherence(self, seed):
        rng = random.Random(seed)
        g = random_arena(rng)
        coalition = random_coalition(rng)
        hat = split(g, coalition)
        for hid in hat.arena.states:
            s = states_of(g, hat.kset[hid])
            assert hat.base[hid] in s
            views = {obs(g, coalition, q) for q in s}
            assert len(views) == 1

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_refined_arena_is_serial_and_preserves_observability(self, seed):
        rng = random.Random(seed)
        g = random_arena(rng)
        coalition = random_coalition(rng)
        hat = split(g, coalition)
        assert hat.arena.agents == g.agents
        assert hat.arena.observes == g.observes
        for hid in hat.arena.states:
            for c in hat.arena.joint_actions():
                targets = succ(hat.arena, hid, c)
                assert targets
                assert {hat.base[t] for t in targets} == set(succ(g, hat.base[hid], c))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_unique_label_full_obs_ksets_are_singletons(self, seed):
        rng = random.Random(seed)
        g = random_arena(rng, full_obs=True, unique_labels=True)
        coalition = random_coalition(rng)
        hat = split(g, coalition)
        for hid in hat.arena.states:
            assert states_of(g, hat.kset[hid]) == [hat.base[hid]]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_kset_matches_run_equivalence_classes(self, seed):
        rng = random.Random(seed)
        g = random_arena(rng, max_states=3)
        coalition = random_coalition(rng)
        hat = split(g, coalition)
        runs = initialized_runs(g, 3)
        classes = equivalence_classes(g, coalition, runs)
        for run in runs:
            hid = hat_state_of(g, hat, run)
            mates = classes[obs_signature(g, coalition, run)]
            assert frozenset(states_of(g, hat.kset[hid])) == frozenset(r.last for r in mates)


class TestLiftProject:
    def test_corpus_round_trip(self, corpus, corpus_hat):
        run = Run(["q0", "q1", "q4", "q7"], [("g", "g"), ("i", "i"), ("e", "e")])
        lifted = lift_run(corpus, corpus_hat, run)
        assert [corpus_hat.arena.name(h) for h in lifted.states] == [
            "q0@{q0}", "q1@{q1,q2,q3}", "q4@{q4}", "q7@{q7}"]
        assert project_run(corpus_hat, lifted) == run

    def test_lift_rejects_bad_runs(self, corpus, corpus_hat):
        from atldk import ArenaError
        with pytest.raises(ArenaError):
            lift_run(corpus, corpus_hat, Run(["q1"]))
        with pytest.raises(ArenaError):
            lift_run(corpus, corpus_hat, Run(["q0", "q4"], [("g", "g")]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_every_initialized_run_lifts_uniquely(self, seed):
        rng = random.Random(seed)
        g = random_arena(rng, max_states=3)
        coalition = random_coalition(rng)
        hat = split(g, coalition)
        for run in initialized_runs(g, 2):
            lifted = lift_run(g, hat, run)
            assert lifted.is_valid(hat.arena)
            assert lifted.is_initialized(hat.arena)
            assert project_run(hat, lifted) == run


class TestKnowledgeLabels:
    def test_corpus_knowledge_golden(self, corpus, corpus_hat):
        labels = label_knowledge(corpus_hat, "valid")
        kset = corpus_hat.kset
        assert labels[kset[named(corpus_hat, "q1@{q1,q2,q3}")]]
        assert labels[kset[named(corpus_hat, "q0@{q0}")]]
        assert not labels[kset[named(corpus_hat, "sink@{sink}")]]

    def test_kset_members_share_the_verdict(self, corpus_hat):
        labels = label_knowledge(corpus_hat, "yx")
        shared = [labels[corpus_hat.kset[named(corpus_hat, "q%d@{q1,q2,q3}" % i)]]
                  for i in (1, 2, 3)]
        assert shared == [False, False, False]

    def test_unknown_prop(self, corpus_hat):
        """label_knowledge takes its prop on trust; the level invariants reject
        a K over a prop the refined arena's source does not label."""
        chi = fm.Know(corpus_hat.coalition, fm.Atom("nope"))
        assert unlabeled_atoms(corpus_hat.source, chi) == ["nope"]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_matches_run_enumeration_oracle(self, seed):
        rng = random.Random(seed)
        g = random_arena(rng, max_states=3)
        if not g.props:
            return
        coalition = random_coalition(rng)
        prop = rng.choice(sorted(g.props))
        hat = split(g, coalition)
        labels = label_knowledge(hat, prop)
        runs = initialized_runs(g, 3)
        expected = knowledge_oracle(g, coalition, prop, runs)
        for run in runs:
            assert labels[hat.kset[hat_state_of(g, hat, run)]] == expected[run], (run, prop)


class TestNextLabels:
    def test_corpus_next_golden(self, corpus):
        goal = corpus.with_prop("paid", ["q12", "q13"])
        hat = split(goal, AB)
        truth = label_next(hat, "paid")
        labels = {hat.arena.name(h): truth[s] for h, s in enumerate(hat.kset)}
        assert labels["q9@{q9}"]
        assert labels["q12@{q12}"]
        assert not labels["q14@{q14}"]
        assert not labels["q0@{q0}"]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    # Seed 5 draws a kset whose lowest member alone decides it wrongly.
    @example(5)
    def test_matches_run_enumeration_oracle(self, seed):
        rng = random.Random(seed)
        g = random_arena(rng, max_states=3)
        if not g.props:
            return
        coalition = random_coalition(rng)
        prop = rng.choice(sorted(g.props))
        hat = split(g, coalition)
        labels = label_next(hat, prop)
        runs = initialized_runs(g, 2)
        expected = next_oracle(g, coalition, prop, runs)
        for run in runs:
            assert labels[hat.kset[hat_state_of(g, hat, run)]] == expected[run], (run, prop)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_labelers_decide_each_kset_in_discovery_order(seed):
    rng = random.Random(seed)
    g = random_arena(rng)
    hat = split(g, random_coalition(rng))
    for prop in sorted(g.props):
        assert list(label_knowledge(hat, prop)) == list(hat.ksets)
        assert list(label_next(hat, prop)) == list(hat.ksets)


def refinement_fields(hat):
    """Everything split builds, each mapping as its items in build order, with
    every refined state by its text id and every source state by the source's."""
    g, source = hat.arena, hat.source
    name = g.name

    def members(s):
        return frozenset(map(source.name, states_of(source, s)))

    return ([name(h) for h in g.states], [name(h) for h in g.initial],
            [(name(h), label) for h, label in g.labels.items()],
            [((name(h), c), frozenset(map(name, targets)))
             for (h, c), targets in transitions(g).items()],
            [(name(h), source.name(hat.base[h])) for h in g.states],
            [(name(h), members(hat.kset[h])) for h in g.states], list(map(members, hat.ksets)))


def loaded_copy(arena):
    """The same arena, loaded from its document: it carries no link to the
    refinement it came from, so split takes the full construction."""
    return load_arena(arena.to_document())


def resplit_input(seed):
    """A random arena's refinement, with one more hidden prop on random states."""
    rng = random.Random(seed)
    coalition = random_coalition(rng)
    first = split(random_arena(rng), coalition)
    states = [h for h in first.arena.states if rng.random() < 0.5]
    return coalition, first.arena.with_prop("extra", states)


class TestResplit:
    def test_corpus_resplit_adds_nothing(self, corpus_hat):
        again = split(corpus_hat.arena, AB)
        assert resplit_isomorphism_failures(corpus_hat, again) == []

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_same_coalition_resplit_equals_the_full_construction(self, seed):
        coalition, mid = resplit_input(seed)
        fast = split(mid, coalition)
        assert not (fast.view._unions or fast.view._classes) and fast.arena._rows is mid._rows
        assert refinement_fields(fast) == refinement_fields(split(loaded_copy(mid), coalition))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_next_labels_on_a_resplit_equal_the_full_construction(self, seed):
        """label_next decides from plain successors, so it fills no memo in
        the view a re-split compiles."""
        coalition, mid = resplit_input(seed)
        fast = split(mid, coalition)
        full = split(loaded_copy(mid), coalition)
        for prop in sorted(mid.props):
            assert label_next(fast, prop) == label_next(full, prop), prop
        assert not (fast.view._unions or fast.view._classes) and fast.arena._rows is mid._rows

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_a_resplit_that_only_the_labelers_read_builds_no_core(self, seed):
        """label_knowledge and label_next read a same-coalition re-split's
        ksets and rows, not its observation core, so the view never builds
        it; the first read of a core name builds all of it and drops the
        view's handle on the source arena."""
        coalition, mid = resplit_input(seed)
        fast = split(mid, coalition)
        for prop in sorted(mid.props):
            label_knowledge(fast, prop)
            label_next(fast, prop)
        assert core_fields(fast.view) == {} and fast.view._arena is mid
        assert not (fast.view._unions or fast.view._classes) and fast.arena._rows is mid._rows
        assert fast.view.rank_of and set(core_fields(fast.view)) == set(CORE)
        assert fast.view._arena is None

    def test_knowledge_and_next_levels_over_a_resplit_build_no_core(self):
        """In model_check too: the K and X levels that re-split the level
        below by the same coalition leave their views' cores unbuilt."""
        for i, n in enumerate((6, 8, 10, 12)):
            verdict = model_check(family_f(100 + i, n), "<a1>X K{a1} <a1>X p3")
            hats = [level.hat for level in verdict.table if level.hat is not None]
            assert [hat.source._refinement is not None for hat in hats] == [False, True, True]
            assert [bool(core_fields(hat.view)) for hat in hats] == [True, False, False], n

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_state_cap_on_a_resplit(self, seed):
        coalition, mid = resplit_input(seed)
        cap = len(mid.states) - 1
        with pytest.raises(StateCapExceeded) as fast:
            split(mid, coalition, limit=cap)
        with pytest.raises(StateCapExceeded) as full:
            split(loaded_copy(mid), coalition, limit=cap)
        assert str(fast.value) == str(full.value)
        assert len(split(mid, coalition, limit=cap + 1).arena.states) == len(mid.states)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_another_coalition_takes_the_full_construction(self, seed):
        coalition, mid = resplit_input(seed)
        for other in (["a1"], ["a2"], ["a1", "a2"]):
            if other != coalition:
                assert refinement_fields(split(mid, other)) == refinement_fields(
                    split(loaded_copy(mid), other))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_refined_arena_is_a_new_arena_with_only_the_arena_fields(self, seed):
        """By a full walk and by a same-coalition re-split, split copies its
        source into a new Arena with exactly an arena's own fields, sharing
        the source's agents, actions and observations."""
        coalition, mid = resplit_input(seed)
        full, fast = loaded_copy(mid), mid
        for source in (full, fast):
            g = split(source, coalition).arena
            assert g is not source and type(g) is type(source)
            assert set(vars(g)) == ARENA_FIELDS
            assert g.agents is source.agents
            assert g.actions is source.actions and g.observes is source.observes
        assert split(fast, coalition).arena._rows is fast._rows
        assert split(full, coalition).arena._rows is not full._rows

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_resplit_is_a_relabeling(self, seed):
        rng = random.Random(seed)
        g = random_arena(rng)
        coalition = random_coalition(rng)
        first = split(g, coalition)
        second = split(first.arena, coalition)
        assert resplit_isomorphism_failures(first, second) == []


def misrendered_ids(hat):
    """The refined states whose id is not base@{kset members in source state order}."""
    source = hat.source
    return [h for h in hat.arena.states if hat.arena.name(h) != "%s@{%s}" % (
        source.name(hat.base[h]), ",".join(map(source.name, states_of(source, hat.kset[h]))))]


class TestRefinedIds:
    def test_every_id_is_its_base_and_kset_members_in_source_order(self):
        """On both split paths, with ids nested one to three levels deep."""
        for seed in range(200):
            rng = random.Random(seed)
            coalition = random_coalition(rng)
            first = split(random_arena(rng), coalition)
            other = split(first.arena, rng.choice(
                [c for c in (["a1"], ["a2"], ["a1", "a2"]) if c != coalition]))
            states = [h for h in first.arena.states if rng.random() < 0.5]
            again = split(first.arena.with_prop("extra", states), coalition)
            twice = split(again.arena, coalition)
            for hat in (again, twice):
                assert not (hat.view._unions or hat.view._classes), seed
                assert hat.arena._rows is first.arena._rows, seed
            for hat in (first, other, again, twice):
                assert misrendered_ids(hat) == [], seed


def reference_fields(ref, g):
    """reference_split's fields as refinement_fields gives them, g's states by their text ids."""
    def members(s):
        return frozenset(map(g.name, s))

    return (list(ref.states), list(ref.initial), list(ref.labels.items()),
            list(ref.transitions.items()), [(h, g.name(q)) for h, q in ref.base.items()],
            [(h, members(s)) for h, s in ref.kset.items()], list(map(members, ref.ksets)))


class TestReferenceSplit:
    """split's integer walk equals the frozenset walk of the definition
    (oracles.reference_split) field by field and in every order."""

    def assert_equal(self, g, coalition, case):
        hat = split(g, coalition)
        assert refinement_fields(hat) == reference_fields(reference_split(g, coalition), g), case
        return hat

    def test_random_arenas(self):
        for seed in range(200):
            rng = random.Random(seed)
            g = random_arena(rng)
            coalition = random_coalition(rng)
            hat = self.assert_equal(g, coalition, seed)
            self.assert_equal(g, [], seed)
            other = rng.choice([c for c in (["a1"], ["a2"], ["a1", "a2"]) if c != coalition])
            self.assert_equal(hat.arena, other, seed)
            self.assert_equal(hat.arena, coalition, seed)
            cap = len(hat.arena.states) - 1
            with pytest.raises(StateCapExceeded) as got:
                split(g, coalition, limit=cap)
            with pytest.raises(StateCapExceeded) as want:
                reference_split(g, coalition, limit=cap)
            assert str(got.value) == str(want.value), seed

    def test_masks_past_one_machine_word(self):
        g = random_arena(random.Random(0), min_states=70, max_states=70)
        for coalition in (["a1"], ["a2"], ["a1", "a2"], []):
            hat = self.assert_equal(g, coalition, coalition)
            # Some kset has members on both sides of bit 64.
            assert any(s >> 64 and s & (1 << 64) - 1 for s in hat.ksets), coalition


class TestHatArenaHelpers:
    def test_states_with_kset(self, corpus_hat):
        shared = frozenset({"q1", "q2", "q3"})
        assert names(corpus_hat, states_with_kset(corpus_hat, shared)) == {
            "q1@{q1,q2,q3}", "q2@{q1,q2,q3}", "q3@{q1,q2,q3}"}

    def test_same_kset(self, corpus_hat):
        q1, q2, q4 = (named(corpus_hat, text)
                      for text in ("q1@{q1,q2,q3}", "q2@{q1,q2,q3}", "q4@{q4}"))
        assert same_kset(corpus_hat, q1, q2)
        assert not same_kset(corpus_hat, q1, q4)

    def test_require_kset(self, corpus_hat):
        """The kset with exactly the given source states, as its mask; an
        unknown id, a proper subset, a kset with an unknown id added and the
        empty set are no kset."""
        shared = {"q1", "q2", "q3"}
        assert corpus_hat.require_kset(shared) == mask_of(corpus_hat.source, shared)
        for s, text in (({"q1", "zz"}, "q1,zz"), ({"q1", "q2"}, "q1,q2"),
                        (shared | {"zz"}, "q1,q2,q3,zz"), (set(), "")):
            with pytest.raises(ArenaError, match=r"^unknown kset \{%s\}$" % text):
                corpus_hat.require_kset(s)
