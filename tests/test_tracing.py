"""The benchmark tracer still finds and wraps the checker's layers.

benchmarks/tracing.py replaces functions of atldk.checker, atldk.formula and
Arena by name; a rename there would break `benchmarks/run.py --trace 1`.
"""

import importlib
from pathlib import Path

import atldk.arena
import atldk.checker
import atldk.formula
from atldk import load_alicebob, model_check

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

WRAPPED = [
    (atldk.checker, name) for name in (
        "label_step", "split", "label_knowledge", "label_next",
        "build_until_automaton", "build_weak_until_automaton",
        "check_until_nonempty", "check_weak_nonempty", "extract_witness_strategy")
] + [(atldk.arena.Arena, "with_prop")] + [
    (atldk.formula, name) for name in ("parse_formula", "desugar", "enumerate_subformulas")
]


def test_traced_check_counts_every_layer_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    originals = [getattr(owner, name) for owner, name in WRAPPED]
    tracer = tracing.Tracer()
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
