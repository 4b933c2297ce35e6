"""Tests of the benchmark's own logic: span tracer, job runner, checks.

Run from the root of a checkout with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import sys
import types

import numpy as np
import pytest

import run
from tracer import JOB_SPAN, TARGETS, Tracer, self_times
from workloads import Job, Workload, _enumerate_check, pure_class

bp, cli = run._import_program()


@pytest.fixture
def out():
    run.OUT.mkdir(parents=True, exist_ok=True)
    return run.OUT / "test.csv"


def _program_attributes() -> dict:
    """Every attribute of every bellport module, plus PureState.__init__."""
    snap = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "bellport" or name.startswith("bellport.")
        for attr, value in vars(module).items()
    }
    snap[("PureState", "__init__")] = bp.PureState.__dict__["__init__"]
    return snap


def _assert_originals(before: dict) -> None:
    after = _program_attributes()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_tree():
    clock = FakeClock()
    t = Tracer(clock=clock)
    a, b, c = t.name_id("a"), t.name_id("b"), t.name_id("c")
    root = t.open(a)  # a: 0..10
    clock.now = 1.0
    s1 = t.open(b)  # b: 1..4
    clock.now = 2.0
    s2 = t.open(c)  # c: 2..3, nested in b
    clock.now = 3.0
    t.close(s2)
    clock.now = 4.0
    t.close(s1)
    clock.now = 6.0
    s3 = t.open(c)  # c: 6..9
    clock.now = 9.0
    t.close(s3)
    clock.now = 10.0
    t.close(root)
    own = t.self_times()
    assert list(own) == pytest.approx([10 - 3 - 3, 3 - 1, 1, 3])
    assert list(t.parent) == [-1, 0, 1, 0]


def test_self_time_counts_overlapping_children_once():
    cols = {
        "start": np.array([0.0, 1.0, 2.0, 8.0]),
        "end": np.array([10.0, 5.0, 6.0, 12.0]),  # last child runs past its parent
        "parent": np.array([-1, 0, 0, 0]),
    }
    own = self_times(cols)
    # children cover [1, 6] and [8, 10] inside the parent: 7 of its 10 seconds
    assert own[0] == pytest.approx(3.0)
    assert list(own[1:]) == pytest.approx([4.0, 4.0, 4.0])


def test_parent_links_across_names_imported_by_name():
    pkg = types.ModuleType("fakepkg")
    low = types.ModuleType("fakepkg.low")
    high = types.ModuleType("fakepkg.high")
    exec("def leaf(x):\n    return x + 1\n", low.__dict__)
    high.__dict__["leaf"] = low.leaf  # "from .low import leaf"
    exec("def top(x):\n    return leaf(x) * 2\n", high.__dict__)
    pkg.__dict__["leaf"] = low.leaf  # re-exported by the package
    modules = {"fakepkg": pkg, "fakepkg.low": low, "fakepkg.high": high}
    originals = (low.leaf, high.top)
    sys.modules.update(modules)
    try:
        t = Tracer(package="fakepkg", targets={"low": ("leaf",), "high": ("top",)})
        t.install()
        assert high.leaf is low.leaf is pkg.leaf is not originals[0]
        with t.span(JOB_SPAN):
            assert high.top(1) == 4
        t.uninstall()
    finally:
        for name in modules:
            del sys.modules[name]
    assert (low.leaf, high.top) == originals
    assert high.leaf is pkg.leaf is originals[0]
    names = [t.names[i] for i in t.name]
    assert names == [JOB_SPAN, "high.top", "low.leaf"]
    assert list(t.parent) == [-1, 0, 1]


def test_program_spans_nest_and_originals_return():
    before = _program_attributes()
    t = Tracer()
    t.install()
    try:
        client = bp.random_state(1, 2, 3)
        channel = bp.singlet_random(2, seed=4)
        bp.teleport(client, channel, (1, 1), rng=5)
    finally:
        t.uninstall()
    _assert_originals(before)
    names = [t.names[i] for i in t.name]

    def parent_name(sid):
        return t.names[t.name[t.parent[sid]]]

    seq = names.index("measure.measure_sequence")
    assert parent_name(seq) == "protocol.teleport"
    assert parent_name(names.index("measure.bell_measure")) == "measure.measure_sequence"
    assert "states.PureState" in names
    assert t.peak_alloc["channels.singlet_random"] > 0


def _tiny_workload(seen: list) -> tuple[Workload, object]:
    originals = {
        (mod, fn): getattr(sys.modules[f"bellport.{mod}"], fn)
        for mod, fns in TARGETS.items()
        for fn in fns
    }

    def call(bp):
        seen.append(
            all(getattr(sys.modules[f"bellport.{m}"], f) is v for (m, f), v in originals.items())
        )
        return bp.teleport(bp.random_state(1, 2, 1), bp.bell_state((1, 1)), (1, 1), rng=2)

    def check(result):
        return None if result.fidelity > 1 - 1e-10 else "bad fidelity"

    def cycle(rng, c):
        return [Job("teleport", 1, "teleport", call=call, check=check)]

    return Workload("tiny", "test", None, trace_cycles=2), cycle


def test_mix_stats_weight_groups_by_their_share():
    def result(group, seconds):
        return run.JobResult(group, group, 1, seconds, None, None)

    # group "a" is twice as frequent in a period as "b", but the run
    # stopped after four "b" jobs and one "a" job
    results = [result("a", 1.0)] + [result("b", 3.0)] * 4
    stats = run.mix_stats(results, [r.seconds for r in results], {"a": 2, "b": 1})
    assert stats["units_per_s"] == pytest.approx(3 / (2 * 1.0 + 3.0))
    assert stats["job_p50_ms"] == pytest.approx(1000.0)
    assert stats["job_p90_ms"] == pytest.approx(3000.0)


def test_untraced_runs_call_the_program_itself(out):
    seen: list = []
    workload, cycle = _tiny_workload(seen)
    runner = run.Runner(bp, cli, out)
    results, stats, _ = run.measure(workload, cycle, runner, seed=0, seconds=0.01)
    assert seen and all(seen)
    assert stats["ok_frac"] == 1.0 and all(r.error is None for r in results)


def test_traced_run_restores_every_wrapped_attribute(out):
    before = _program_attributes()
    seen: list = []
    workload, cycle = _tiny_workload(seen)
    runner = run.Runner(bp, cli, out)
    results, metrics, tracer = run.traced(workload, cycle, runner, seed=0)
    _assert_originals(before)
    # two untraced jobs ran the originals, two traced jobs ran wrappers
    assert seen == [True, True, False, False]
    assert len(results) == 4 and all(r.error is None for r in results)
    assert metrics["protocol.teleport.calls"] == (2, "count")
    assert metrics["measure.measure_sequence.calls"] == (2, "count")
    assert metrics["protocol.teleport.self_s"][0] > 0
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {k: u for k, (_, u) in metrics.items()}


def test_end_to_end_metrics_match_the_declaration(out):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.E2E_UNITS
    seen: list = []
    workload, cycle = _tiny_workload(seen)
    runner = run.Runner(bp, cli, out)
    _, stats, raw = run.measure(workload, cycle, runner, seed=0, seconds=0.05)
    assert set(stats) | {"setup_s", "peak_rss_mib"} == set(run.E2E_UNITS)
    assert all(v > 0 for v in stats.values())


def test_failures_are_counted_not_raised(out):
    runner = run.Runner(bp, cli, out)

    def boom(bp):
        raise RuntimeError("broken")

    assert "broken" in runner.run(Job("boom", 1, "boom", call=boom)).error
    assert runner.run(Job("check", 1, "check", call=lambda bp: 0, check=lambda r: "wrong")).error == "wrong"
    assert "KeyError" in runner.run(Job("bad", 1, "bad", call=lambda bp: {}, check=lambda r: r["x"])).error
    assert runner.run(Job("usage", 1, "usage", argv=["teleport", "--channel", "nope:4"])).error == "exit code 64"
    ok = runner.run(Job("appendix", 16, "appendix", argv=["appendix-a"]))
    assert ok.error is None and len(ok.sha256) == 64


def test_enumerate_check_and_pure_classes():
    assert pure_class("singlet-random", 6) == (-1, -1)
    assert pure_class("aklt", 8) == (1, 1)
    assert pure_class("bell", 4, ["+-", "--"]) == (-1, 1)
    assert pure_class("random", 6) is None
    header = "# meta\nrun,outcomes,measured_class,joint_probability,fidelity\n"
    good = header + "0,x,++,0.5,1.0\n1,x,--,0.5,1.0\n"
    low = header + "0,x,++,0.5,1.0\n1,x,--,0.5,0.9\n"
    assert _enumerate_check((1, 1), (1, 1))(good) is None
    assert "fidelity" in _enumerate_check((1, 1), (1, 1))(low)
    assert _enumerate_check(None, (1, 1))(low) is None
    assert "sum" in _enumerate_check(None, (1, 1))(header + "0,x,++,0.4,1.0\n")
