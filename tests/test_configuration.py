"""The pytest configuration in pyproject.toml, run on throwaway test files,
and the signatures of the public API."""

import inspect
import subprocess
import sys
from pathlib import Path

import atldk

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 10
"""


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    """filterwarnings turns warnings into errors. A warning that hypothesis
    raises while it reports a failing example must leave a plain failure, not
    an INTERNALERROR that skips every test after it."""
    (tmp_path / "test_a_property.py").write_text(FAILING_PROPERTY)
    (tmp_path / "test_b_after.py").write_text("def test_runs():\n    pass\n")
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = completed.stdout + completed.stderr
    assert completed.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in completed.stdout, output


# Every callable in atldk.__all__ with its signature (a class by its __init__).
# A public API change is deliberate: update this table with it and list the
# change in CHANGES.md.
PUBLIC_SIGNATURES = {
    "Arena": "(self, agents, actions, states, labels, initial, observes, hidden, transitions)",
    "ArenaError": "(self, /, *args, **kwargs)",
    "Strategy": "(self, coalition_members, machine, default)",
    "load_arena": "(document, allow_reserved=False)",
    "Formula": "(self, /, *args, **kwargs)",
    "FormulaError": "(self, /, *args, **kwargs)",
    "ParseError": "(self, message, position)",
    "parse_formula": "(text)",
    "desugar": "(f)",
    "enumerate_subformulas": "(f)",
    "HatArena": "(self, arena, view, limit=None)",
    "SplitLimitExceeded": "(self, /, *args, **kwargs)",
    "split": "(g, coalition, limit=None)",
    "label_knowledge": "(hat, prop)",
    "label_next": "(hat, prop)",
    "AutomatonError": "(self, /, *args, **kwargs)",
    "TreeAutomaton": "(self, kind, hat, rows, source_kset, init, starts=None)",
    "build_until_automaton": "(hat, p1, p2, source_kset)",
    "build_weak_until_automaton": "(hat, p1, p2, source_kset)",
    "to_dot": "(automaton, annotation=None)",
    "EmptinessError": "(self, /, *args, **kwargs)",
    "GameSolution": "(self, winning, choice)",
    "check_until_nonempty": "(automaton)",
    "check_weak_nonempty": "(automaton)",
    "extract_witness_strategy": "(solution, *automata)",
    "CheckerError": "(self, /, *args, **kwargs)",
    "StateCapExceeded": "(self, /, *args, **kwargs)",
    "LabelLevel": ("(self, k, chi, prop, case, arena, hat=None, automata=None, solution=None, "
                   "elapsed=0.0)"),
    "LabelingTable": "(self, base)",
    "Verdict": "(self, holds, formula_text, table, initial, total_seconds)",
    "bind_formula": "(arena, f)",
    "label_step": "(arena, chi, prop, state_cap=1000000)",
    "model_check": "(arena, f, state_cap=1000000)",
    "explain": "(verdict, state_id)",
    "alicebob_path": "()",
    "load_alicebob": "()",
}


def test_public_signatures():
    found = {}
    for name in atldk.__all__:
        obj = getattr(atldk, name)
        if callable(obj):
            found[name] = str(inspect.signature(obj.__init__ if inspect.isclass(obj) else obj))
    assert found == PUBLIC_SIGNATURES
