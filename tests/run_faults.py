"""Apply each fault that tests/faults.py lists to a copy of src/, run that
fault's tests against the copy, and report every fault that one of its tests
does not catch.

    python3 tests/run_faults.py            # every fault
    python3 tests/run_faults.py 0 3        # the faults at these indices

Exits 0 when every listed test fails under its fault, 1 otherwise. Each fault
costs one pytest run on its own tests; the script is not part of tier-1
(pytest collects test_*.py only). The runs import the checker from the copy
and keep Hypothesis's example database in the temporary directory, so a run
changes nothing in the checkout. Every run passes the same Hypothesis seed
(HYPOTHESIS_SEED), so a property test draws the same examples each time and
each fault's result repeats from run to run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from faults import FAULTS

ROOT = Path(__file__).resolve().parent.parent
HYPOTHESIS_SEED = 0


def failed_tests(fault, work):
    """Copy src/ into work, apply the fault there, and run its tests on the
    copy: the pytest exit code and the ids of the tests that failed."""
    src = work / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = work / fault.path
    text = path.read_text()
    path.write_text(text.replace(fault.old, fault.new))
    command = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
               "--hypothesis-seed=%d" % HYPOTHESIS_SEED, "-o", "pythonpath=%s" % src,
               *(str(ROOT / test) for test in fault.tests)]
    result = subprocess.run(command, cwd=work, capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(src)))
    # pytest reports a test's path relative to the directory it ran in, and
    # its id up to " - " and the error: a parameter may hold a space.
    failed = []
    for line in result.stdout.splitlines():
        if line.startswith("FAILED "):
            path, _, rest = line[len("FAILED "):].partition(" - ")[0].partition("::")
            failed.append("%s::%s" % ((work / path).resolve().relative_to(ROOT).as_posix(), rest))
    return result.returncode, failed, result.stdout


def missed(fault, failed):
    """The fault's tests that did not fail; a test id without parameters
    counts as failed when any of its parametrized cases did."""
    return [test for test in fault.tests
            if not any(f == test or f.startswith(test + "[") for f in failed)]


def main(indices):
    problems = 0
    for index in indices:
        fault = FAULTS[index]
        label = "fault %d (%s: %r -> %r)" % (index, fault.path, fault.old, fault.new)
        if (ROOT / fault.path).read_text().count(fault.old) != 1:
            print("%s: the old text does not occur exactly once" % label)
            problems += 1
            continue
        with tempfile.TemporaryDirectory() as work:
            code, failed, output = failed_tests(fault, Path(work))
        left = missed(fault, failed)
        if code not in (0, 1):
            print("%s: pytest exited %d\n%s" % (label, code, output))
            problems += 1
        elif left:
            print("%s: NOT CAUGHT by %s" % (label, ", ".join(left)))
            problems += 1
        else:
            print("%s: caught by all %d tests" % (label, len(fault.tests)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main([int(a) for a in sys.argv[1:]] or range(len(FAULTS))))
