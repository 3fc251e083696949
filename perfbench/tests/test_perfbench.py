"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PREFIX = {"shift-sweep": 150, "module-crosscheck": 25, "rational-lattice": 150}
REPEATED = (".calls", ".errors", ".pairs", "_share", ".terms_out", ".yield", ".growth")


@pytest.fixture(autouse=True)
def alarm_handler():
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def traced(workload, seed):
    api = workloads.import_corealg()
    cases = workloads.BUILDERS[workload](api, seed)[:PREFIX[workload]]
    tally = run.Tally()
    tr, traced_s, walls, _ = run.traced_pass(cases, tally)
    assert tally.failed == 0, tally.witnesses
    # no plain pass here, so only the counts among these metrics are used
    return tr, walls, run.layer_metrics(tr, traced_s, traced_s)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    _, _, first = traced(workload, 5)
    _, _, second = traced(workload, 5)
    keys = [k for k in first if k.endswith(REPEATED)]
    assert len(keys) > 30
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}
    assert any(first[k][0] for k in keys if k.endswith(".calls"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_second_seed_changes_only_random_cases(workload):
    api = workloads.import_corealg()
    build = workloads.BUILDERS[workload]
    a, again, b = build(api, 1), build(api, 1), build(api, 2)
    assert [c.label for c in a] == [c.label for c in again]
    assert [(c.kind, c.random) for c in a] == [(c.kind, c.random) for c in b]
    assert [c.label for c in a if not c.random] == [c.label for c in b if not c.random]
    pairs = [(x.label, y.label) for x, y in zip(a, b) if x.random]
    assert pairs and sum(x != y for x, y in pairs) > 0.5 * len(pairs)


def test_each_case_adds_up_to_its_own_wall_time():
    """Span self times plus aggregates, per case, against a clock read
    around the case apart from the tracer's: broken nesting or aggregates
    folded twice or lost would make them differ."""
    tr, walls, _ = traced("module-crosscheck", 3)
    per_case = tr.case_seconds()
    assert sorted(per_case) == list(range(len(walls)))
    for case, wall in enumerate(walls):
        assert 0 <= wall - per_case[case] < 1e-4 + 0.01 * wall, case
    assert tr.min_self_time() > -1e-9


def test_wrapper_cost_is_taken_out():
    """The calibrated tracing cost is positive, and the corrected self times
    stay non-negative and sum to less than the raw ones."""
    tr, walls, _ = traced("module-crosscheck", 3)
    assert all(inside >= 0 and inside + outside > 0 for inside, outside in tr.cost.values())
    raw, corrected = tr.raw_self_times(), tr.self_times()
    assert all(corrected[m] >= 0 for m in tracer.MODULES), corrected
    assert 0 < sum(raw.values()) - sum(corrected.values()) < sum(walls)


def test_pool_inputs_are_distinct():
    api = workloads.import_corealg()
    for workload in workloads.WORKLOADS:
        labels = [c.label for c in workloads.BUILDERS[workload](api, 4)]
        assert len(set(labels)) == len(labels), workload


def test_repeated_inputs_counts_within_and_across_passes():
    got = run.repeated_inputs([["a", "b"], ["a", "c", "c"]])
    assert got == {"passes": 2, "within_pass_share": 0.2, "earlier_pass_share": 0.2}


def test_tracer_restores_the_program():
    api = workloads.import_corealg()
    before = api.sc.Radical.__mul__, api.hm.beta_crosscheck, api.cli.beta_crosscheck
    with tracer.Tracer():
        assert api.sc.Radical.__mul__ is not before[0]
        assert api.cli.beta_crosscheck is api.hm.beta_crosscheck is not before[1]
    assert (api.sc.Radical.__mul__, api.hm.beta_crosscheck, api.cli.beta_crosscheck) == before


class _Spin:
    kind = label = "spin"

    def run(self):
        while True:
            pass


class _Pass:
    kind = label = "pass"

    def run(self):
        return True


def test_case_over_its_limit_is_recorded_and_the_run_goes_on():
    assert run.run_case(_Spin(), 0.05) == "timeout"
    assert run.run_case(_Pass(), 1.0) == "ok"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_golden_outputs_and_negative_controls(workload):
    api = workloads.import_corealg()
    pool = workloads.BUILDERS[workload](api, 9)
    assert run.verify(api, pool, workload) == []


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert run.percentile(values, 0.5) == 500
    assert run.percentile(values, 0.99) == 990


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "shift-sweep",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    for line in res.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
