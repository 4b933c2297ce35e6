"""The case table of ``tools/e2e.py``, without running its large cases.

Every subcommand has a case, every case parses as the CLI reads it, and
every bounded edge case stays above the peaks recorded for this tree in
the newest committed ``BENCH_*.json``.  One small case runs through the
tool's child, to check what the child reports.
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
    assert {case.argv.split()[0] for case in e2e.CASES} == set(cli._HANDLERS)
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
