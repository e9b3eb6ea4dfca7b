"""The grading configuration surface: one options object, one runtime.

``GradeOptions`` is the only way to say *how to grade* and
``RuntimeConfig`` the only way to say *where and how resiliently to run*.
These checks pin the public signatures so a second spelling of the same
choice cannot creep back in.
"""

import dataclasses
import inspect

import pytest

from repro.core.campaign import (
    grade_component,
    grade_program,
    grade_traced,
    run_campaign,
)
from repro.faultsim import GradeOptions, grade
from repro.runtime import RuntimeConfig, ShardScheduler

GRADING_KEYWORDS = {"engine", "collapse", "prune_untestable", "jobs"}


def test_grade_takes_exactly_options():
    params = list(inspect.signature(grade).parameters)
    assert params == ["netlist", "stimulus", "faults", "options"]


@pytest.mark.parametrize(
    "entry", (grade_component, grade_traced, grade_program, run_campaign)
)
def test_campaign_entry_points_take_options_only(entry):
    params = set(inspect.signature(entry).parameters)
    assert "options" in params
    assert not params & GRADING_KEYWORDS


def test_campaign_parallelism_comes_from_runtime():
    for entry in (grade_traced, grade_program, run_campaign):
        assert "runtime" in inspect.signature(entry).parameters
    assert "jobs" not in inspect.signature(ShardScheduler).parameters


def test_options_and_runtime_do_not_overlap():
    options = {f.name for f in dataclasses.fields(GradeOptions)}
    runtime = {f.name for f in dataclasses.fields(RuntimeConfig)}
    assert "runtime" not in options
    assert "engine" not in runtime
    assert not options & runtime
