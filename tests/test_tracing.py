"""The benchmark tracer still finds and wraps the checker's layers, and its
counts still match the baseline that `benchmarks/run.py --trace 1` checks.

benchmarks/tracing.py replaces functions of atldk.checker, atldk.formula and
Arena by name; a rename there would break `benchmarks/run.py --trace 1`.
"""

import importlib
import importlib.util
import signal
from pathlib import Path

import pytest

import atldk.arena
import atldk.checker
import atldk.formula
from atldk import explain, load_alicebob, model_check

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

WRAPPED = [
    (atldk.checker, name) for name in (
        "label_step", "split", "label_knowledge", "label_next",
        "build_until_automaton", "build_weak_until_automaton",
        "check_until_nonempty", "check_weak_nonempty", "extract_witness_strategy")
] + [(atldk.arena.Arena, "with_prop")] + [
    (atldk.formula, name) for name in ("parse_formula", "desugar", "enumerate_subformulas")
]

GOAL_CASES = ("until", "weak-until")


@pytest.fixture
def benchmarks(monkeypatch):
    """The benchmark's tracing and run modules, imported as the script does."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    spec = importlib.util.spec_from_file_location("benchmark_run", BENCHMARKS / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return tracing, run


@pytest.fixture
def tracer(benchmarks):
    tracer = benchmarks[0].Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


def test_traced_check_counts_every_layer_and_uninstalls(benchmarks):
    originals = [getattr(owner, name) for owner, name in WRAPPED]
    tracer = benchmarks[0].Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, name) is not original
                   for (owner, name), original in zip(WRAPPED, originals))
        model_check(load_alicebob(), "<Bob>F <Alice>X s")
        totals = tracer.take()
    finally:
        tracer.uninstall()
    for metric in ("formula.levels", "checker.label_step_calls",
                   "epistemic_split.calls", "strategy_automata.calls"):
        assert totals[metric] > 0, metric
    assert all(getattr(owner, name) is original
               for (owner, name), original in zip(WRAPPED, originals))


@pytest.mark.parametrize("text", ["<Bob>F <Alice>X s", "<Alice,Bob>(valid W (c & s))",
                                  "<Alice>G <Alice,Bob>(valid U (c & s))"])
def test_one_solve_per_goal_level(tracer, text):
    verdict = model_check(load_alicebob(), text)
    totals = tracer.take()
    goal_levels = sum(1 for level in verdict.table if level.case in GOAL_CASES)
    assert goal_levels > 0
    assert totals["emptiness.calls"] == goal_levels
    assert totals["strategy_automata.calls"] == sum(
        len(level.hat.ksets) for level in verdict.table if level.case in GOAL_CASES)


@pytest.mark.parametrize("text", ["<Alice,Bob>(valid U (c & s))", "<Alice,Bob>(valid W (c & s))",
                                  "<Alice>(valid W c)",
                                  "<Alice,Bob>F <Alice,Bob>(valid U (c & s))"])
def test_witnesses_and_explanations_read_the_level_solution(tracer, text):
    verdict = model_check(load_alicebob(), text)
    verdict.witness()
    for level in verdict.table:
        if level.case in GOAL_CASES:
            for hid in level.arena.states:
                explain(verdict, hid)
    totals = tracer.take()
    assert totals["emptiness.witness_map_entries"] > 0
    assert totals["emptiness.calls"] == sum(
        1 for level in verdict.table if level.case in GOAL_CASES)


def test_derived_arenas_keep_the_traced_counts(tracer):
    """The tracer counts one with_prop per level and follows each derived arena
    back to the coalition it was refined for, so the second {Alice} split counts
    as a same-coalition re-split."""
    verdict = model_check(load_alicebob(), "K{Alice} valid & <Alice>X c")
    totals = tracer.take()
    assert len(verdict.table.levels) == 5
    assert totals["arena.with_prop_calls"] == 5
    assert totals["arena.with_prop_states"] == 80
    assert totals["epistemic_split.calls"] == 2
    assert totals["epistemic_split.resplit_same_coalition"] == 1


def test_traced_counts_match_the_benchmark_baseline(benchmarks, tracer):
    run = benchmarks[1]
    assert run.BASELINE_FORMULA == "<a1>F <a2>X p3"
    assert set(run.BASELINE) == {8, 12}
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        assert run.baseline_problems(tracer) == []
    finally:
        signal.signal(signal.SIGALRM, previous)
