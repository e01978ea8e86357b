"""The fault list (tests/faults.py) still matches the source: each fault's old
text occurs exactly once in its file, and each of its tests is defined where
its id says. tests/run_faults.py runs the faults themselves."""

from pathlib import Path

import pytest

from faults import FAULTS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("fault", FAULTS, ids=range(len(FAULTS)))
def test_the_fault_still_applies(fault):
    assert fault.old != fault.new
    assert (ROOT / fault.path).read_text().count(fault.old) == 1


@pytest.mark.parametrize("fault", FAULTS, ids=range(len(FAULTS)))
def test_the_fault_names_defined_tests(fault):
    assert fault.tests
    for test in fault.tests:
        # A parametrized case's id ends in [...]; its test is defined without it.
        path, *names = test.partition("[")[0].split("::")
        text = (ROOT / path).read_text()
        for owner in names[:-1]:
            assert "\nclass %s" % owner in text, test
        assert "def %s(" % names[-1] in text, test
