"""``verify`` leaves no cyclic garbage: every object a suite builds is freed
by reference counting as soon as it is dropped.  A reference cycle, such as
a recursive closure that refers to itself or an object kept on another that
refers back to it, would wait for the cyclic collector and grow the memory
a long run holds between collections."""

import gc

import pytest

from tatekit.verify import SUITES, run_suites


@pytest.mark.parametrize("suite", list(SUITES))
def test_a_suite_leaves_no_cyclic_garbage(suite):
    gc.collect()
    gc.disable()
    try:
        run_suites(suite, cases=3)
        assert gc.collect() == 0
    finally:
        gc.enable()
