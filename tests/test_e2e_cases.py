"""The case table of ``tools/e2e.py``, without running its large cases.

Every subcommand has a case, every case parses as the CLI reads it, and
every bounded edge case stays above the peaks recorded for this tree in
the newest committed ``BENCH_*.json``.  One small case runs through the
tool's child, to check what the child reports, and ``--tier1 --write``
runs with fake runners, to check that the suite reads this run's rows.
"""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from bellport import cli

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("e2e", ROOT / "tools" / "e2e.py")
e2e = importlib.util.module_from_spec(spec)
spec.loader.exec_module(e2e)


def newest_bench():
    paths = ROOT.glob("BENCH_*.json")
    return max(paths, key=lambda p: int(re.fullmatch(r"BENCH_(\d+)\.json", p.name)[1]))


def test_every_subcommand_has_a_case():
    assert {case.argv.split()[0] for case in e2e.CASES} == set(cli._SUBCOMMANDS)
    assert len({case.argv for case in e2e.CASES}) == len(e2e.CASES)


@pytest.mark.parametrize("case", e2e.CASES, ids=[case.argv for case in e2e.CASES])
def test_every_case_parses(case):
    cli.build_parser().parse_args([*case.argv.split(), "--deterministic", "--out", "x.csv"])


def test_every_bound_is_above_the_recorded_peak():
    record = json.loads(newest_bench().read_text())
    rows = [row for row in record["rows"] if row["side"] == "this" and row["case"] != "tier1"]
    peaks = {row["case"]: max(row["peak_mib"]) for row in rows}
    bounded = [case for case in e2e.CASES if case.bound_mib is not None]
    assert bounded
    for case in bounded:
        assert peaks[case.argv] < case.bound_mib, case.argv


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux's /proc")
def test_a_small_case_reports_its_exit_wall_time_and_peak():
    run = e2e.run_case(ROOT / "src", "appendix-a")
    assert run["exit"] == 0
    assert 0 < run["wall_s"] < 60
    assert 10 < run["peak_mib"] < 1000


def test_tier1_runs_after_the_case_rows_are_written(tmp_path, monkeypatch):
    """With ``--tier1 --write``, each suite run finds this run's case rows in
    the record, and the suite's rows are added after them."""
    path = tmp_path / "BENCH_0.json"
    seen = []

    def run_tier1(root):
        seen.append((root, [row["case"] for row in json.loads(path.read_text())["rows"]]))
        return {"exit": 0, "wall_s": 9.0, "summary": "1 passed"}

    monkeypatch.setattr(e2e, "CASES", (e2e.Case("appendix-a", 50),))
    monkeypatch.setattr(e2e, "run_case", lambda src, argv: {"exit": 0, "wall_s": 0.5, "peak_mib": 40.0})
    monkeypatch.setattr(e2e, "run_tier1", run_tier1)
    argv = ["--against", str(tmp_path), "--repeat", "2", "--tier1", "--write", str(path)]
    assert e2e.main(argv) == 0
    both = ["appendix-a", "appendix-a"]
    assert seen == [(ROOT, both), (tmp_path, both), (tmp_path, both), (ROOT, both)]
    rows = json.loads(path.read_text())["rows"]
    assert [(row["case"], row["side"]) for row in rows] == [
        ("appendix-a", "this"), ("appendix-a", "against"), ("tier1", "this"), ("tier1", "against")
    ]
    assert rows[0]["peak_mib"] == [40.0, 40.0] and rows[2]["wall_s"] == [9.0, 9.0]
