"""The benchmark's untraced main path, `benchmarks/run.py --trace 0`, runs end
to end: every verdict checks out and the last line reports every end-to-end
metric. nested-until drives the goal-table fill and solve; weak-witness also
extracts every positive verdict's witness from the goal-state memory and
replays its rendered map; knowledge-split drives the split and the
same-coalition re-splits that share their input's transitions; full-obs-batch
checks every verdict against the perfect-information fixpoints.
tests/test_tracing.py covers the traced path."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "benchmarks" / "run.py"


def test_untraced_run_is_correct_and_reports_every_end_to_end_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(RUN.parent))
    spec = importlib.util.spec_from_file_location("benchmark_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    # The four runs are independent: start them all, then wait on each.
    runs = {workload: subprocess.Popen(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "0.5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for workload in ("nested-until", "knowledge-split", "full-obs-batch", "weak-witness")}
    stdout = {}
    try:
        for workload, process in runs.items():
            stdout[workload], stderr = process.communicate(timeout=120)
            assert process.returncode == 0, (workload, stderr)
    finally:
        for process in runs.values():
            process.kill()
            process.wait()
    for workload, out in stdout.items():
        result = json.loads(out.splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0, (workload, out)
        assert set(result["metrics"]) == set(run.END_TO_END_UNITS), workload
    replayed = re.search(r"(\d+) witnesses replayed", stdout["weak-witness"])
    assert replayed and int(replayed.group(1)) > 0, stdout["weak-witness"]
