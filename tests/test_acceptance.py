"""Acceptance gate: eight criteria, one printed verdict line each, and a check
of the invariants the construction keeps on the same batches.

Run `pytest tests/test_acceptance.py -s` to see the lines. Every criterion
prints PASS or FAIL (also when it aborts early) and then asserts.
"""

import random
import time

import pytest

import atldk.formula as fm
from atldk import load_alicebob, model_check
from atldk.emptiness import check_until_nonempty, check_weak_nonempty
from atldk.epistemic_split import split
from atldk.strategy_automata import (BOT, UNTIL, WEAK_UNTIL, build_until_automaton,
                                     build_weak_until_automaton, level_automaton)
from oracles import (
    as_masks,
    atl_next,
    atl_until,
    atl_weak_until,
    construction_failures,
    delta,
    generic_occurrence_emptiness,
    level_failures,
    level_truth,
    mask_of,
    random_arena,
    replay_machine,
    replay_until,
    states_of,
    states_where,
    until_accept,
    walk_views,
    weak_accept,
)

EXAMPLE = "<Alice,Bob>(valid U (c & s))"
BATCH_SIZE = 200
FULL_OBS_SIZE = 100


def _report(number, ok, description):
    print("ACCEPTANCE %d %s - %s" % (number, "PASS" if ok else "FAIL", description))


@pytest.fixture(scope="module")
def corpus():
    return load_alicebob()


@pytest.fixture(scope="module")
def batch():
    """At least 200 seeded random arenas that carry at least one prop."""
    arenas = []
    seed = 0
    while len(arenas) < BATCH_SIZE:
        g = random_arena(random.Random(seed))
        if g.props:
            arenas.append((seed, g))
        seed += 1
    return arenas


@pytest.fixture(scope="module")
def full_obs_batch():
    return [(seed, random_arena(random.Random(60000 + seed),
                                full_obs=True, unique_labels=True))
            for seed in range(FULL_OBS_SIZE)]


def _coalition_for(rng):
    return rng.choice((["a1"], ["a2"], ["a1", "a2"]))


def test_criterion_1_bundled_example(corpus):
    ok = False
    try:
        started = time.monotonic()
        verdict = model_check(corpus, EXAMPLE)
        elapsed = time.monotonic() - started
        ok = verdict.holds is True and elapsed < 5.0
    finally:
        _report(1, ok, "bundled arena validates the coalition payment goal in under 5s")
    assert ok


def test_criterion_2_refinement_golden(corpus):
    ok = False
    try:
        hat = split(corpus, ["Alice", "Bob"])
        kset = [frozenset(states_of(corpus, s)) for s in hat.kset]
        non_singleton = {s for s in kset if len(s) > 1}
        singletons_elsewhere = all(
            len(s) == 1 for s in kset if s != frozenset({"q1", "q2", "q3"}))
        ok = (non_singleton == {frozenset({"q1", "q2", "q3"})}) and singletons_elsewhere
    finally:
        _report(2, ok, "refinement by {Alice,Bob} yields exactly one non-singleton "
                       "knowledge set {q1,q2,q3}")
    assert ok


def test_criterion_3_automaton_golden(corpus):
    ok = False
    try:
        verdict = model_check(corpus, EXAMPLE)
        level = verdict.table.levels[-1]
        assert level.case == "until"
        source = mask_of(level.hat.source, {"q0"})
        automaton = build_until_automaton(level.hat, level.chi.left.name, level.chi.right.name,
                                          source)
        solution = level.solution
        nonempty = automaton.init in solution.winning
        goal = as_masks(level.hat, [], ["q12"])
        moves = delta(automaton)

        def every_choice_path_hits_goal(state, on_path):
            if state == goal:
                return True
            if state == BOT or state in on_path or state not in solution.choice:
                return False
            c_a = solution.choice[state]
            return all(every_choice_path_hits_goal(t, on_path | {state})
                       for t in moves[(state, c_a)])

        ok = nonempty and every_choice_path_hits_goal(automaton.init, frozenset())
    finally:
        _report(3, ok, "the until automaton for kset {q0} is nonempty and every "
                       "choice-induced path passes ({},{q12})")
    assert ok


def test_criterion_4_oracle_equivalence(batch):
    ok = False
    divergences = []
    comparisons = 0
    elapsed = None
    try:
        started = time.monotonic()
        for seed, g in batch:
            rng = random.Random(40000 + seed)
            coalition = _coalition_for(rng)
            props = sorted(g.props)
            p1, p2 = rng.choice(props), rng.choice(props)
            hat = split(g, coalition)
            for kind, build, decide, accept in (
                    (UNTIL, build_until_automaton, check_until_nonempty, until_accept),
                    (WEAK_UNTIL, build_weak_until_automaton, check_weak_nonempty,
                     weak_accept)):
                level = decide(level_automaton(kind, hat, p1, p2))[1]
                for s in sorted(hat.ksets, key=lambda k: sorted(states_of(g, k))):
                    automaton = build(hat, p1, p2, s)
                    fast = decide(automaton)[0]
                    slow = generic_occurrence_emptiness(
                        automaton, accept(automaton), guard=10 ** 9)
                    comparisons += 1
                    if fast != slow or (automaton.init in level.winning) != slow:
                        divergences.append((seed, kind, states_of(g, s)))
        elapsed = time.monotonic() - started
        ok = (len(batch) >= 200 and comparisons >= 2 * len(batch)
              and not divergences and elapsed < 60.0)
    finally:
        _report(4, ok, "per-kset and level solves match the generic occurrence oracle "
                       "on %d kset comparisons over %d arenas (%s divergences)"
                % (comparisons, len(batch), len(divergences)))
    assert ok, divergences[:5]


def test_criterion_5_knowledge_uniformity(batch):
    ok = False
    violations = []
    levels_checked = 0
    try:
        for seed, g in batch:
            rng = random.Random(50000 + seed)
            coalition = ",".join(_coalition_for(rng))
            props = sorted(g.props)
            p1, p2 = rng.choice(props), rng.choice(props)
            formulas = [
                "K{%s} %s" % (coalition, p1),
                "<%s>X %s" % (coalition, p1),
                "<%s>(%s U %s)" % (coalition, p1, p2),
                "<%s>(%s W %s)" % (coalition, p1, p2),
                "K{%s} <%s>X %s" % (coalition, coalition, p2),
            ]
            for text in formulas:
                verdict = model_check(g, text)
                for level in verdict.table:
                    if level.hat is None:
                        continue
                    levels_checked += 1
                    per_kset = {}
                    truth = level_truth(level)
                    for hid in level.arena.states:
                        per_kset.setdefault(level.hat.kset[hid], set()).add(truth[hid])
                    if any(len(values) != 1 for values in per_kset.values()):
                        violations.append((seed, text, level.k))
        ok = levels_checked > 0 and not violations
    finally:
        _report(5, ok, "modal labels are constant on every knowledge class across "
                       "%d modal levels (%d violations)" % (levels_checked, len(violations)))
    assert ok, violations[:5]


def test_criterion_6_perfect_information_agreement(full_obs_batch):
    ok = False
    divergences = []
    compared = 0
    try:
        coalition = ["a1", "a2"]
        for seed, g in full_obs_batch:
            rng = random.Random(70000 + seed)
            props = sorted(g.props)
            p1, p2 = rng.choice(props), rng.choice(props)
            hold = states_where(g, lambda q: p1 in g.labels[q])
            goal = states_where(g, lambda q: p2 in g.labels[q])
            cases = [
                ("<a1,a2>X %s" % p1, atl_next(g, coalition, hold)),
                ("<a1,a2>(%s U %s)" % (p1, p2), atl_until(g, coalition, hold, goal)),
                ("<a1,a2>(%s W %s)" % (p1, p2), atl_weak_until(g, coalition, hold, goal)),
            ]
            for text, winning in cases:
                verdict = model_check(g, text)
                level = verdict.table.levels[-1]
                compared += 1
                expected_holds = all(q in winning for q in g.initial)
                if verdict.holds != expected_holds:
                    divergences.append((seed, text, "verdict"))
                    continue
                truth = level_truth(level)
                for hid in level.arena.states:
                    base = level.hat.base[hid]
                    if truth[hid] != (base in winning):
                        divergences.append((seed, text, base))
                        break
        ok = (len(full_obs_batch) >= 100 and compared == 3 * len(full_obs_batch)
              and not divergences)
    finally:
        _report(6, ok, "fully observable grand-coalition verdicts match the "
                       "complete-information fixpoint oracle on %d checks "
                       "(%d divergences)" % (compared, len(divergences)))
    assert ok, divergences[:5]


def test_criterion_7_witness_replay(batch):
    ok = False
    failures = []
    positives = {"U": 0, "W": 0}
    try:
        for seed, g in batch:
            rng = random.Random(80000 + seed)
            coalition = _coalition_for(rng)
            props = sorted(g.props)
            p1, p2 = rng.choice(props), rng.choice(props)
            for op in positives:
                text = "<%s>(%s %s %s)" % (",".join(coalition), p1, op, p2)
                verdict = model_check(g, text)
                if not verdict.holds:
                    continue
                positives[op] += 1
                strategy = verdict.witness()
                holds = [lambda q, p=p: p in g.labels[q] for p in (p1, p2)]
                bad = replay_machine(g, coalition, strategy, *holds, weak=op == "W")
                if op == "U":
                    level = verdict.table.levels[-1]
                    bad += replay_until(g, coalition, strategy, *holds,
                                        depth=2 * len(level.hat.arena.states))
                if bad:
                    failures.append((seed, text, bad[:2]))
        ok = min(positives.values()) > 0 and not failures
    finally:
        _report(7, ok, "every one of %d until and %d weak-until extracted witnesses "
                       "survives replay against all resolutions, unbounded on the "
                       "product with the witness machine (%d failures)"
                % (positives["U"], positives["W"], len(failures)))
    assert ok, failures[:5]


def test_criterion_8_desugaring_identities(batch):
    ok = False
    divergences = []
    compared = 0
    try:
        for seed, g in batch:
            rng = random.Random(90000 + seed)
            a = ",".join(_coalition_for(rng))
            props = sorted(g.props)
            p, q = rng.choice(props), rng.choice(props)
            pairs = [
                ("<%s>F %s" % (a, p), "!([%s]G !%s)" % (a, p)),
                ("<%s>G %s" % (a, p), "!([%s]F !%s)" % (a, p)),
                ("<%s>(%s U %s)" % (a, p, q),
                 "!([%s](!%s W (!%s & !%s)))" % (a, q, q, p)),
                ("<%s>(%s W %s)" % (a, p, q),
                 "!([%s](!%s U (!%s & !%s)))" % (a, q, q, p)),
                ("<%s>X %s" % (a, p), "![%s]X !%s" % (a, p)),
                ("[%s]F %s" % (a, p), "!<%s>G !%s" % (a, p)),
                ("[%s]G %s" % (a, p), "!<%s>F !%s" % (a, p)),
                ("K{%s} %s" % (a, p), "!P{%s} !%s" % (a, p)),
            ]
            for left, right in pairs:
                lv = model_check(g, left)
                rv = model_check(g, right)
                compared += 1
                if lv.holds != rv.holds:
                    divergences.append((seed, left, "verdict"))
                    continue
                left_labels = level_truth(lv.table.levels[-1])
                right_labels = level_truth(rv.table.levels[-1])
                if set(left_labels) != set(right_labels):
                    divergences.append((seed, left, "state spaces differ"))
                    continue
                wrong = [hid for hid in left_labels
                         if left_labels[hid] != right_labels[hid]]
                if wrong:
                    divergences.append((seed, left, wrong[:3]))
        ok = compared >= 8 * len(batch) and not divergences
    finally:
        _report(8, ok, "all eight abbreviation identities agree label-for-label on "
                       "%d comparisons (%d divergences)" % (compared, len(divergences)))
    assert ok, divergences[:5]


def test_construction_invariants(batch, full_obs_batch):
    """Every refined state and goal-table row that model_check builds for the
    batches keeps the invariants the checker does not re-check as it runs.
    The kset views also fill the settled rows the level game leaves out, and
    those are checked too."""
    problems = []
    rows = 0
    for index, (seed, g) in enumerate(batch + full_obs_batch):
        rng = random.Random(100000 + index)
        c = ",".join(_coalition_for(rng))
        props = sorted(g.props)
        p1, p2 = rng.choice(props), rng.choice(props)
        text = "K{%s} %s & <%s>G (%s | <%s>(%s U %s))" % (c, p1, c, p2, c, p1, p2)
        for level in model_check(g, text).table:
            if level.case in (UNTIL, WEAK_UNTIL):
                walk_views(level)
            if level.hat is not None:
                rows += sum(map(len, level.hat._goal_tables.values()))
                problems += [(seed, text, line) for line in construction_failures(level.hat)]
    assert rows > 1000 and not problems, problems[:5]


def test_levels_keep_what_the_checker_takes_on_trust(batch, full_obs_batch):
    """Over the same batches, with nested goals and duals: every level
    model_check labels gets a chi that is one core connective over props its
    arena labels, every goal solve gets its own kind of automaton, and
    Verdict.witness and explain extract only from winning inits."""
    problems, steps, extracted = [], 0, 0
    for index, (seed, g) in enumerate(batch + full_obs_batch):
        rng = random.Random(200000 + index)
        c = ",".join(_coalition_for(rng))
        props = sorted(g.props)
        p1, p2 = rng.choice(props), rng.choice(props)
        for text in ("K{%s} %s & <%s>G (%s | <%s>(%s U %s))" % (c, p1, c, p2, c, p1, p2),
                     "<%s>(P{%s} %s U [%s](%s W !%s))" % (c, c, p1, c, p2, p1)):
            found, calls = level_failures(g, text)
            problems += [(seed, text, line) for line in found]
            steps += len(calls["label_step"])
            extracted += len(calls["extract_witness_strategy"])
    assert steps > 5000 and extracted > 100 and not problems, problems[:5]
