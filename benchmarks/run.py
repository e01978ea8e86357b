"""Seeded, single-process benchmark of atldk's model_check.

    python3 benchmarks/run.py --workload nested-until --seed 1 --seconds 25 --trace 0

Run from a checkout: the checker is imported from its src/ directory. The run
builds the workload's instances from the seed, then calls model_check on them
round-robin until --seconds have passed and every instance has run once.
Each instance's time is the median of its repeats, and a pass is one call per
instance. Every verdict is checked and every witness replayed. The last line
of standard output is a JSON object; with --trace 0 it holds the end-to-end
metrics, and with --trace 1 the per-layer metrics of a traced run. See
benchmarks/README.md for the workloads and metrics.
"""

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
sys.path.insert(0, str(SOURCE))

import atldk  # noqa: E402
from atldk import StateCapExceeded, load_arena, model_check  # noqa: E402

from families import RECORDED, DEPTH_ONE, PERFECT_INFORMATION  # noqa: E402
from families import WORKLOADS, family_f_document, monotone, render  # noqa: E402
from reference import (DocumentArena, holds_at_initial, holds_perfect_information,  # noqa: E402
                       witness_level, witness_loses)
from speed import Speedometer  # noqa: E402
from tracing import LAYER_UNITS, Tracer  # noqa: E402

# Resource guards. An instance is decided when model_check (and, where the
# workload asks for one, the witness) finishes within all three.
STATE_CAP = 200_000
DEADLINE_S = 30.0
MEMORY_CEILING_BYTES = 1 << 30
# No instance starts its first call later than this into the measuring phase,
# so a run ends well inside three minutes however slow the checker gets;
# instances left out count as overruns.
RUN_LIMIT_S = 120.0
SETUP_REPEATS = 15
SETUP_MIN_S = 1.0

RECORDED_VERDICTS = Path(__file__).resolve().parent / "recorded_verdicts.json"

# ROADMAP's baseline for <a1>F <a2>X p3 on family F drawn from Random(n):
# refined states and ksets of the until level, automaton states built and
# distinct. The traced run reproduces them.
BASELINE_FORMULA = "<a1>F <a2>X p3"
BASELINE = {8: {"refined": 193, "ksets": 50, "built": 2355, "unique": 50},
            12: {"built": 5519, "unique": 117}}

END_TO_END_UNITS = {
    "setup_s": "s",
    "check_s": "s",
    "check_witness_s": "s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "peak_rss_mb": "MB",
    "decided_share": "ratio",
}
# Reported but not in the result object: zero on most workloads or seeds.
REPORT_ONLY_UNITS = {
    "witness_s": "s",
    "wrong_verdicts": "count",
    "invalid_witnesses": "count",
    "unchecked_verdicts": "count",
}


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def guarded(function, *args):
    """Call function under the deadline; returns (result, overrun kind, seconds)."""
    started = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        return function(*args), None, time.perf_counter() - started
    except StateCapExceeded:
        kind = "state-cap"
    except DeadlineExceeded:
        kind = "deadline"
    except MemoryError:
        kind = "memory"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    gc.collect()
    return None, kind, time.perf_counter() - started


class Instance:
    def __init__(self, index, document, formula, arena):
        self.index = index
        self.document = document
        self.formula = formula
        self.text = render(formula)
        self.arena = arena
        self.samples = []
        self.overrun = None
        self.overrun_s = 0.0
        self.overrun_window = None
        self.holds = None

    def check_s(self):
        return statistics.median(s[0] for s in self.samples)

    def measured_s(self):
        """Wall-clock time of the calls so far, before rescaling."""
        return sum(s[1] - s[0] for s in self.samples)

    def rescale(self, speed):
        """Turn the raw (start, end, check, witness, layers) samples into
        (check, witness, layers) at the reference speed."""
        scaled = []
        for start, end, check_s, witness_s, layers in self.samples:
            factor = speed.factor(start, end)
            if layers is not None:
                layers = {name: value * factor if LAYER_UNITS[name] == "s" else value
                          for name, value in layers.items()}
            scaled.append((check_s * factor, witness_s * factor, layers))
        self.samples = scaled
        if self.overrun_window is not None:
            self.overrun_s *= speed.factor(*self.overrun_window)

    def latency_s(self):
        """model_check time; an overrun counts as missing the deadline."""
        return max(self.overrun_s, DEADLINE_S) if self.overrun else self.check_s()


def set_up(workload, seed, tracer, speed):
    """Generate the instance documents and load them, at least SETUP_REPEATS
    times and for SETUP_MIN_S. Returns the last set of instances and the
    median setup and load times, at the reference speed."""
    repeats = []
    begun = time.perf_counter()
    while len(repeats) < SETUP_REPEATS or time.perf_counter() - begun < SETUP_MIN_S:
        speed.tick()
        started = time.perf_counter()
        items = workload.documents(seed)
        if tracer is None:
            arenas = [load_arena(document) for document, _ in items]
            load_s = 0.0
        else:
            tracer.take()
            arenas = [tracer.load(load_arena, document) for document, _ in items]
            load_s = tracer.take()["arena.load_s"]
        repeats.append((started, time.perf_counter(), load_s))
        speed.tick()
    factors = [speed.factor(start, end) for start, end, _ in repeats]
    setup_s = statistics.median((end - start) * f for (start, end, _), f in zip(repeats, factors))
    load_s = statistics.median(load * f for (_, _, load), f in zip(repeats, factors))
    instances = [Instance(i, document, formula, arena)
                 for i, ((document, formula), arena) in enumerate(zip(items, arenas))]
    return instances, setup_s, load_s


def expected_verdict(workload, instance, recorded):
    """The reference verdict, or None when no reference covers the instance."""
    if workload.reference == PERFECT_INFORMATION:
        return holds_perfect_information(DocumentArena(instance.document), instance.formula)
    if workload.reference == DEPTH_ONE:
        return holds_at_initial(DocumentArena(instance.document), instance.formula)
    if workload.reference == RECORDED and instance.index < len(recorded):
        return recorded[instance.index]
    return None


class Checks:
    def __init__(self):
        self.wrong = 0
        self.unchecked = 0
        self.replayed = 0
        self.invalid_witnesses = 0
        self.problems = []

    def verdict(self, workload, instance, holds, recorded):
        expected = expected_verdict(workload, instance, recorded)
        if expected is None:
            self.unchecked += 1
        elif expected != holds:
            self.wrong += 1
            self.problems.append("instance %d: %s gave %s, reference %s"
                                 % (instance.index, instance.text, holds, expected))
        if holds and monotone(instance.formula) and not holds_perfect_information(
                DocumentArena(instance.document), instance.formula):
            self.wrong += 1
            self.problems.append("instance %d: %s holds but fails under perfect information"
                                 % (instance.index, instance.text))

    def witness(self, verdict, strategy):
        if strategy is None:
            return
        self.replayed += 1
        if witness_loses(strategy, witness_level(verdict)):
            self.invalid_witnesses += 1


def sample(instance, workload, tracer, speed):
    """One timed model_check (plus witness) call; returns the verdict and
    witness of a decided call so the caller can check them."""
    speed.tick()
    gc.collect()
    if tracer is not None:
        tracer.take()

    def call():
        checked = time.perf_counter()
        verdict = model_check(instance.arena, instance.text, state_cap=STATE_CAP)
        check_s = time.perf_counter() - checked
        if not (workload.witnesses and verdict.holds):
            return verdict, None, check_s, 0.0
        started = time.perf_counter()
        strategy = verdict.witness()
        return verdict, strategy, check_s, time.perf_counter() - started

    started = time.perf_counter()
    result, overrun, elapsed = guarded(call)
    ended = time.perf_counter()
    speed.tick()
    layers = tracer.take() if tracer is not None else None
    if overrun is not None:
        instance.overrun, instance.overrun_s = overrun, elapsed
        instance.overrun_window = (started, ended)
        return None, None
    verdict, strategy, check_s, witness_s = result
    instance.samples.append((started, ended, check_s, witness_s, layers))
    return verdict, strategy


def measure(instances, workload, seconds, tracer, speed, checks, recorded):
    """Round-robin over the instances until seconds have passed and each has
    run once; the first call of each instance is checked, and later calls
    must repeat its verdict.

    After its first call, an instance sits out while its calls have taken
    more than its share of the run. So the short calls, whose times vary
    most from call to call, get the most repeats, and long calls are not
    held back from their first. The share doubles whenever every instance
    is over it.
    """
    started = time.perf_counter()
    share = seconds / len(instances)
    calls = 0
    while True:
        called = False
        for instance in instances:
            elapsed = time.perf_counter() - started
            if instance.overrun:
                continue
            if instance.samples and elapsed >= seconds:
                return calls, elapsed
            if not instance.samples and elapsed >= RUN_LIMIT_S:
                instance.overrun = "run-limit"
                continue
            if instance.samples and instance.measured_s() > share:
                continue
            called = True
            verdict, strategy = sample(instance, workload, tracer, speed)
            calls += 1
            if verdict is None:
                continue
            if instance.holds is None:
                instance.holds = verdict.holds
                checks.verdict(workload, instance, verdict.holds, recorded)
                checks.witness(verdict, strategy)
            elif instance.holds != verdict.holds:
                checks.problems.append("instance %d changed its verdict between repeats"
                                       % instance.index)
            del verdict, strategy
        if all(instance.overrun for instance in instances):
            return calls, time.perf_counter() - started
        if not called:
            share *= 2


def tail(values):
    """The highest percentile with at least ten values beyond it: (value, p)."""
    ordered = sorted(values)
    rank = max(len(ordered) - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(instances, setup_s, checks):
    """End-to-end and report-only metrics of rescaled instances."""
    decided = [i for i in instances if not i.overrun]
    latencies = [i.latency_s() for i in instances]
    check_s = sum(i.check_s() for i in decided) + sum(i.overrun_s for i in instances if i.overrun)
    witness_s = sum(statistics.median(s[1] for s in i.samples) for i in decided)
    answer_s = sum(i.overrun_s for i in instances if i.overrun) + sum(
        statistics.median(s[0] + s[1] for s in i.samples) for i in decided)
    tail_s, tail_p = tail(latencies)
    metrics = {
        "setup_s": setup_s,
        "check_s": check_s,
        "check_witness_s": answer_s,
        "verdict_p50_s": statistics.median(latencies),
        "verdict_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "decided_share": len(decided) / len(instances),
        "witness_s": witness_s,
        "wrong_verdicts": checks.wrong,
        "invalid_witnesses": checks.invalid_witnesses,
        "unchecked_verdicts": checks.unchecked,
    }
    return metrics, tail_p


def per_layer(instances, load_s, checks):
    """Per-layer totals of one pass, from each instance's median repeat."""
    totals = {name: 0 for name in LAYER_UNITS}
    for instance in instances:
        if instance.overrun:
            continue
        for name in totals:
            totals[name] += statistics.median(s[2][name] for s in instance.samples)
        first = instance.samples[0][2]
        for name, unit in LAYER_UNITS.items():
            if unit == "count" and any(s[2][name] != first[name] for s in instance.samples):
                checks.problems.append("count %s differs between repeats of instance %d"
                                       % (name, instance.index))
    built = totals["strategy_automata.states_built"]
    totals["strategy_automata.unique_ratio"] = (
        totals["strategy_automata.states_unique"] / built if built else 0.0)
    totals["arena.load_s"] = load_s
    totals["emptiness.invalid_witnesses"] = checks.invalid_witnesses
    return totals


def baseline_problems(tracer):
    """Differences between the traced counts and ROADMAP's baseline table."""
    problems = []
    for n, want in BASELINE.items():
        arena = load_arena(family_f_document(Random(n), n))
        tracer.take()
        verdict, overrun, _ = guarded(model_check, arena, BASELINE_FORMULA, STATE_CAP)
        totals = tracer.take()
        if overrun:
            problems.append("n=%d: %s" % (n, overrun))
            continue
        hat = verdict.table.levels[-1].hat
        got = {"refined": len(hat.arena.states), "ksets": len(hat.ksets),
               "built": totals["strategy_automata.states_built"],
               "unique": totals["strategy_automata.states_unique"]}
        print("baseline n=%d: %s" % (n, " ".join("%s=%d" % kv for kv in sorted(got.items()))))
        problems.extend("n=%d: %s is %d, ROADMAP has %d" % (n, key, got[key], value)
                        for key, value in want.items() if got[key] != value)
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path(atldk.__file__).resolve().is_relative_to(SOURCE):
        sys.exit("atldk was imported from %s, not from %s" % (atldk.__file__, SOURCE))
    workload = WORKLOADS[args.workload]
    recorded = []
    if workload.reference == RECORDED:
        with open(RECORDED_VERDICTS) as handle:
            recorded = json.load(handle)["verdicts"][workload.name]

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    speed = Speedometer()
    instances, setup_s, load_s = set_up(workload, args.seed, tracer, speed)
    # The instances stay alive for the whole run; keep them out of the
    # collections inside timed calls, as in a process that checks one arena.
    gc.freeze()

    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    ceiling = MEMORY_CEILING_BYTES if hard == resource.RLIM_INFINITY else min(
        MEMORY_CEILING_BYTES, hard)
    resource.setrlimit(resource.RLIMIT_AS, (ceiling, hard))
    signal.signal(signal.SIGALRM, _on_alarm)

    checks = Checks()
    if tracer is not None:
        checks.problems.extend(baseline_problems(tracer))
    calls, elapsed = measure(instances, workload, args.seconds, tracer, speed, checks, recorded)
    speed.tick()
    raw_check_s = sum(statistics.median(s[2] for s in i.samples) for i in instances if i.samples)
    for instance in instances:
        instance.rescale(speed)
    metrics, tail_p = end_to_end(instances, setup_s, checks)

    print("workload %s, seed %d, trace %d: %d instances, %d model_check calls in %.1f s"
          % (workload.name, args.seed, args.trace, len(instances), calls, elapsed))
    overruns = {}
    for instance in instances:
        if instance.overrun:
            overruns[instance.overrun] = overruns.get(instance.overrun, 0) + 1
    print("overruns: %s" % (", ".join("%s %d" % kv for kv in sorted(overruns.items()))
                            or "none"))
    print("verdict_tail_s is p%.1f of %d instances; %d witnesses replayed"
          % (tail_p, len(instances), checks.replayed))
    print("times are scaled to the reference speed: whole-run factor %.4f from %d kernel "
          "timings; unscaled check_s is %.6f s" % (speed.factor(), len(speed.kernel_s), raw_check_s))
    units = dict(END_TO_END_UNITS, **REPORT_ONLY_UNITS)
    for name, unit in units.items():
        print("  %-40s %14.6f %s" % (name, metrics[name], unit))
    if tracer is not None:
        layers = per_layer(instances, load_s, checks)
        for name, unit in LAYER_UNITS.items():
            print("  %-40s %14.6f %s" % (name, layers[name], unit))
        reported = {name: {"value": layers[name], "unit": unit}
                    for name, unit in LAYER_UNITS.items()}
    else:
        reported = {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END_UNITS.items()}
    for problem in checks.problems:
        print("problem: %s" % problem)
    correct = checks.wrong == 0 and not checks.problems
    print(json.dumps({"correct": correct, "attempted": len(instances),
                      "failed": sum(1 for i in instances if i.overrun),
                      "metrics": reported}))


if __name__ == "__main__":
    main()
