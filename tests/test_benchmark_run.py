"""The benchmark's main paths, `benchmarks/run.py --trace 0` and `--trace 1`,
run end to end: every verdict checks out, the untraced run's last line
reports every end-to-end metric and the traced run's reports the formula
levels each pass enumerates. nested-until drives the goal-table fill and
solve; weak-witness also extracts every positive verdict's witness from the
goal-state memory and replays its rendered map; knowledge-split drives the
split and the same-coalition re-splits that share their input's transitions;
full-obs-batch checks every verdict against the perfect-information
fixpoints. tests/test_tracing.py covers the tracer's counts call by call."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import atldk.formula as fm

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
RUN = BENCHMARKS / "run.py"
WORKLOADS = ("nested-until", "knowledge-split", "full-obs-batch", "weak-witness")
SEED = 1
# The levels of one pass over each workload's instances: the sum, over the
# instances, of the entries enumerate_subformulas gives their formula.
LEVELS = {"nested-until": 232, "weak-witness": 280, "knowledge-split": 342,
          "full-obs-batch": 551}


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def outputs():
    """Standard output of a 0.5 s run of each workload, untraced and traced,
    keyed by (workload, trace). The eight runs are independent: start them
    all, then wait on each."""
    runs = {(workload, trace): subprocess.Popen(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for trace in (0, 1) for workload in WORKLOADS}
    stdout = {}
    try:
        for key, process in runs.items():
            stdout[key], stderr = process.communicate(timeout=180)
            assert process.returncode == 0, (key, stderr)
    finally:
        for process in runs.values():
            process.kill()
            process.wait()
    return stdout


def _result(out, key):
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, (key, out)
    return result


def test_untraced_run_is_correct_and_reports_every_end_to_end_metric(outputs, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    run = _load("benchmark_run", RUN)
    for workload in WORKLOADS:
        result = _result(outputs[workload, 0], workload)
        assert set(result["metrics"]) == set(run.END_TO_END_UNITS), workload
    replayed = re.search(r"(\d+) witnesses replayed", outputs["weak-witness", 0])
    assert replayed and int(replayed.group(1)) > 0, outputs["weak-witness", 0]


def test_traced_run_counts_every_enumerated_level(outputs):
    """A traced pass counts formula.levels through the wrapped
    enumerate_subformulas, so a memo that skipped a wrapped call would
    count fewer levels than the instances' formulas have."""
    families = _load("benchmark_families", BENCHMARKS / "families.py")
    for workload in WORKLOADS:
        result = _result(outputs[workload, 1], (workload, "traced"))
        texts = [families.render(f) for _, f in families.WORKLOADS[workload].documents(SEED)]
        levels = sum(len(fm.enumerate_subformulas(fm.desugar(fm.parse_formula(text))))
                     for text in texts)
        assert levels == LEVELS[workload]
        assert result["metrics"]["formula.levels"]["value"] == levels, workload
