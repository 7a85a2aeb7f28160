"""Array-indexed DPOR backtracking against the linear walk it replaced
(``tests/reference_dpor.py``).

Every ``_add_backtrack_points`` call must nominate the same backtrack
points as the reference (on the pattern corpus, the 40 litmus cells and
the verify programs of three repair targets), and whole explorations
must give the same ``ExploreResult`` counters and race sites on the
pattern corpus and the litmus cells.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.check.explore import ScheduleExplorer
from repro.check.harness import check
from repro.core.variants import Variant
from repro.gpu.accesses import AccessKind
from repro.gpu.overrides import site_kind_overrides
from repro.memmodel.litmus import CORPUS, LITMUS_BUDGET, _make_runner
from repro.memmodel.models import get_model
from repro.patterns import PATTERNS
from repro.repair.synth import Fix, FixSet
from repro.repair.targets import get_target
from tests.reference_dpor import add_backtrack_points

LITMUS_MODELS = ["sc", "tso", "relaxed_gpu", "ptx"]
LITMUS_CELLS = [(t.name, m) for t in CORPUS for m in LITMUS_MODELS]
PATTERN_CELLS = [(name, v) for name in sorted(PATTERNS) for v in Variant]

_indexed = ScheduleExplorer._add_backtrack_points


def _checked(self, stack, sched, events):
    """Run the reference on the same stack, then the indexed version
    from the same starting sets; both must nominate the same points."""
    before = [set(node.backtrack) for node in stack]
    add_backtrack_points(self, stack, sched, events)
    want = [set(node.backtrack) for node in stack]
    for node, backtrack in zip(stack, before):
        node.backtrack = backtrack
    _indexed(self, stack, sched, events)
    assert [node.backtrack for node in stack] == want


def _counters(result) -> dict:
    fields = dataclasses.asdict(result)
    del fields["wall_seconds"]
    return fields


def _explore_litmus(test_name: str, model: str):
    test = next(t for t in CORPUS if t.name == test_name)
    return ScheduleExplorer(
        _make_runner(test, get_model(model), LITMUS_BUDGET), mode="dpor",
        budget=LITMUS_BUDGET).explore()


def _check_pattern(name: str, variant: Variant):
    report = check(name, variant=variant, budget="smoke", minimize=False)
    return _counters(report.explore), [r.site_key for r in report.races]


def test_litmus_corpus_has_forty_cells():
    assert len(LITMUS_CELLS) == 40


@pytest.mark.parametrize("test_name,model", LITMUS_CELLS)
def test_litmus_nominations_match_reference(monkeypatch, test_name, model):
    monkeypatch.setattr(ScheduleExplorer, "_add_backtrack_points", _checked)
    _explore_litmus(test_name, model)


@pytest.mark.parametrize("name,variant", PATTERN_CELLS)
def test_pattern_nominations_match_reference(monkeypatch, name, variant):
    monkeypatch.setattr(ScheduleExplorer, "_add_backtrack_points", _checked)
    check(name, variant=variant, budget="smoke", minimize=False)


@pytest.mark.parametrize("test_name,model", LITMUS_CELLS)
def test_litmus_exploration_matches_reference(monkeypatch, test_name,
                                              model):
    indexed = _counters(_explore_litmus(test_name, model))
    monkeypatch.setattr(ScheduleExplorer, "_add_backtrack_points",
                        add_backtrack_points)
    assert indexed == _counters(_explore_litmus(test_name, model))


@pytest.mark.parametrize("name,variant", PATTERN_CELLS)
def test_pattern_exploration_matches_reference(monkeypatch, name, variant):
    indexed = _check_pattern(name, variant)
    monkeypatch.setattr(ScheduleExplorer, "_add_backtrack_points",
                        add_backtrack_points)
    assert indexed == _check_pattern(name, variant)


def _repair_program(target_name: str, promoted: bool):
    target = get_target(target_name)
    fixes = (tuple(Fix("promote", s.name, to_kind=AccessKind.ATOMIC)
                   for s in target.plan.racy_sites()) if promoted else ())
    fixset = FixSet(label="all" if promoted else "none", fixes=fixes)
    return target.build_program(fixset.barriers()), fixset


@pytest.mark.parametrize("target_name", ["twophase", "apsp_shared", "cc"])
@pytest.mark.parametrize("promoted", [False, True])
def test_repair_program_nominations_match_reference(monkeypatch,
                                                     target_name, promoted):
    program, fixset = _repair_program(target_name, promoted)
    monkeypatch.setattr(ScheduleExplorer, "_add_backtrack_points", _checked)
    with site_kind_overrides(fixset.kinds()):
        check(program, budget="smoke", minimize=False)
