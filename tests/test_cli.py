"""CLI subcommands: CSV output, determinism, exit codes."""

import fnmatch
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellport import cli, protocol, qudit
from bellport.bell import format_sign_pair
from bellport.protocol import fig2_run, fig2_violations


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = cli.main(args + ["--out", str(out), "--deterministic"])
    return code, out.read_text() if out.exists() else ""


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


def test_teleport_subcommand(tmp_path):
    code, text = run_cli(
        ["teleport", "--channel", "bell:+-,-+", "--assumed-class", "mm",
         "--trials", "10", "--seed", "3"],
        tmp_path,
    )
    assert code == 0
    meta, header, rows = parse_csv(text)
    assert meta["version"]
    assert meta["channel"] == "bell:+-,-+"
    assert header == ["run", "outcomes", "measured_class", "joint_probability", "fidelity"]
    assert len(rows) == 10
    for row in rows:
        assert abs(float(row["fidelity"]) - 1.0) < 1e-10


def test_teleport_enumerate_branches(tmp_path):
    code, text = run_cli(
        ["teleport", "--channel", "mg-dimers:4", "--assumed-class", "++",
         "--enumerate-branches"],
        tmp_path,
    )
    assert code == 0
    _, _, rows = parse_csv(text)
    assert len(rows) == 16  # every forced branch of two measurements
    total = sum(float(r["joint_probability"]) for r in rows)
    assert abs(total - 1.0) < 1e-10


@pytest.mark.parametrize("kind", ["random:4", "singlet-random:4"])
def test_unseeded_channel_spec_is_deterministic(kind, tmp_path):
    # a spec without its own seed takes --seed, not OS entropy
    argv = ["teleport", "--channel", kind, "--trials", "2", "--seed", "5"]
    _, first = run_cli(argv, tmp_path, "first.csv")
    _, second = run_cli(argv, tmp_path, "second.csv")
    assert first == second
    _, seeded = run_cli(
        ["teleport", "--channel", f"{kind}:5", "--trials", "2", "--seed", "5"], tmp_path
    )
    assert first.replace(f"channel={kind}\n", f"channel={kind}:5\n") == seeded
    orders = [
        run_cli(["order-param", "--channel", kind, "--seed", "5"], tmp_path, f"o{i}.csv")[1]
        for i in range(2)
    ]
    assert orders[0] == orders[1]


def test_fig2_subcommand_and_plotdata(tmp_path):
    plot = tmp_path / "plot.dat"
    out = tmp_path / "fig2.csv"
    code = cli.main(
        ["fig2", "--trials", "40", "--seed", "11", "--out", str(out),
         "--deterministic", "--plot-out", str(plot)]
    )
    assert code == 0
    meta, header, rows = parse_csv(out.read_text())
    assert meta["violations"] == "0"
    assert len(rows) == 160
    blocks = plot.read_text().split("\n\n\n")
    assert len(blocks) == 2
    scatter = [l for l in blocks[0].splitlines() if l and not l.startswith("#")]
    bound = [l for l in blocks[1].splitlines() if l and not l.startswith("#")]
    assert len(scatter) == 160
    assert len(bound) == 100
    x, y = map(float, bound[0].split())
    assert abs(y - (x - 1.0) / 2.0) < 1e-12


def test_fig2_deterministic_bytes(tmp_path):
    _, text1 = run_cli(["fig2", "--trials", "15", "--seed", "4"], tmp_path, "a.csv")
    _, text2 = run_cli(["fig2", "--trials", "15", "--seed", "4"], tmp_path, "b.csv")
    assert text1 == text2


def test_appendix_a_subcommand(tmp_path):
    code, text = run_cli(["appendix-a", "--phi", "0.3"], tmp_path)
    assert code == 0
    meta, _, rows = parse_csv(text)
    assert len(rows) == 16
    s = np.sin(0.6)
    for row in rows:
        expected = (1.0 - int(row["p2"]) * int(row["q2"]) * s) / 16.0
        assert abs(float(row["probability"]) - expected) < 1e-12
    assert meta["violations"] == "0"


def test_order_param_subcommand(tmp_path):
    code, text = run_cli(["order-param", "--channel", "ghz:4"], tmp_path)
    assert code == 0
    _, header, rows = parse_csv(text)
    row = rows[0]
    assert abs(float(row["efficiency"]) - 1.0) < 1e-10
    assert abs(float(row["omega_++"]) - 3.0) < 1e-10


def test_cluster_check_subcommand(tmp_path):
    code, text = run_cli(["cluster-check", "-L", "6"], tmp_path)
    assert code == 0
    _, _, rows = parse_csv(text)
    assert all(row["ok"] == "1" for row in rows)


def test_aklt_check_subcommand(tmp_path):
    code, text = run_cli(["aklt-check", "-L", "6"], tmp_path)
    assert code == 0
    _, _, rows = parse_csv(text)
    by_name = {row["check"]: row for row in rows}
    assert abs(float(by_name["string_order"]["value"]) + 1.0) < 1e-10


def test_bound_scan_subcommand(tmp_path):
    code, text = run_cli(["bound-scan", "--theta", "1.0471975512"], tmp_path)
    assert code == 0
    _, _, rows = parse_csv(text)
    assert abs(float(rows[0]["minimum"]) - 0.5) < 1e-3


@pytest.mark.parametrize("theta", ["1.58", "2.0", "3.0"])
def test_bound_scan_above_half_pi_meets_zero(theta, tmp_path):
    # min Delta is 0 above pi/2, reached at a = -(1 + cos theta) / sin theta
    code, text = run_cli(["bound-scan", "--theta", theta], tmp_path)
    assert code == 0
    meta, _, rows = parse_csv(text)
    assert meta["violations"] == "0"
    assert float(rows[0]["minimum"]) < 1e-3
    t = float(theta)
    assert float(rows[0]["predicted_a"]) == pytest.approx(-1.0 / np.tan(t / 2), abs=1e-12)
    assert abs(float(rows[0]["argmin_re_a"]) - float(rows[0]["predicted_a"])) < 1e-2


# the smallest run of each subcommand, to read the CSV header it writes
HEADER_ARGS = {
    "teleport": ["--channel", "bell:++", "--trials", "1"],
    "fig2": ["--trials", "1"],
    "appendix-a": [],
    "order-param": ["--channel", "bell:++"],
    "cluster-check": ["-L", "4"],
    "aklt-check": ["-L", "4"],
    "bound-scan": ["--theta", "0.5"],
    "three-qubit": [],
    "qudit-demo": ["-d", "2"],
    "heisenberg-check": ["-L", "4", "--trials", "1"],
}


def test_help_epilog_names_the_csv_header(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # so argparse does not wrap the epilog
    assert sorted(HEADER_ARGS) == sorted(cli._HANDLERS)
    for name, args in HEADER_ARGS.items():
        with pytest.raises(SystemExit) as err:
            cli.main([name, "--help"])
        assert err.value.code == 0
        (epilog,) = re.findall(r"^CSV: (\S+)$", capsys.readouterr().out, re.M)
        code, text = run_cli([name, *args], tmp_path, name=f"{name}.csv")
        assert code == 0
        _, header, _ = parse_csv(text)
        assert fnmatch.fnmatchcase(",".join(header), epilog), name
        for field in epilog.split(","):
            assert fnmatch.filter(header, field), (name, field)


def test_three_qubit_subcommand(tmp_path):
    code, text = run_cli(["three-qubit", "--seed", "2"], tmp_path)
    assert code == 0
    meta, _, rows = parse_csv(text)
    assert len(rows) == 64  # 8 channels x (4 full + 4 reduced) branches
    assert meta["theta_rank_kappa_plus"] == "2"
    assert meta["theta_rank_kappa_minus"] == "2"
    assert all(abs(float(r["fidelity"]) - 1.0) < 1e-10 for r in rows)


def test_qudit_demo_subcommand(tmp_path):
    code, text = run_cli(["qudit-demo", "-d", "3"], tmp_path)
    assert code == 0
    _, _, rows = parse_csv(text)
    assert all(abs(float(r["fidelity"]) - 1.0) < 1e-10 for r in rows)


def test_heisenberg_check_subcommand(tmp_path):
    code, text = run_cli(["heisenberg-check", "-L", "4", "--trials", "10"], tmp_path)
    assert code == 0
    _, _, rows = parse_csv(text)
    assert abs(float(rows[0]["efficiency"]) - 1.0) < 1e-8
    assert float(rows[0]["min_fidelity"]) > 1.0 - 1e-8


def test_unknown_subcommand_exits_64():
    with pytest.raises(SystemExit) as err:
        cli.main(["no-such-thing"])
    assert err.value.code == 64


def test_invalid_size_exits_64(tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.main(["cluster-check", "-L", "5", "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 64


def test_bad_channel_spec_exits_64(tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.main(["teleport", "--channel", "bogus:4", "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["heisenberg-check", "--trials", "0"],
        ["teleport", "--channel", "ghz:4", "--trials", "-3"],
    ],
)
def test_trials_below_one_exits_64(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--out", str(out)])
    assert err.value.code == 64
    assert "--trials: must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trials", [cli.MAX_TRIALS + 1, 10**12])
@pytest.mark.parametrize(
    "argv",
    [["fig2"], ["teleport", "--channel", "bell:+-"], ["heisenberg-check", "-L", "4"]],
)
def test_trials_over_cap_exits_64_before_running(argv, trials, tmp_path, capsys):
    # 10**12 sampled teleports would ask numpy for terabytes
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--trials", str(trials), "--out", str(out)])
    assert err.value.code == 64
    stderr = capsys.readouterr().err
    assert f"--trials: must be a positive integer up to {cli.MAX_TRIALS}" in stderr
    assert not out.exists()
    args = cli.build_parser().parse_args(argv + ["--trials", str(cli.MAX_TRIALS)])
    assert args.trials == cli.MAX_TRIALS


@pytest.mark.parametrize(
    "argv",
    [
        ["teleport", "--channel", "random:22"],
        ["cluster-check", "-L", "22"],
        ["aklt-check", "-L", "22"],
    ],
)
def test_oversized_state_exits_64(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--out", str(out)])
    assert err.value.code == 64
    assert "22 qubits exceed the limit of 20" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_qudit_dimension_exits_64(monkeypatch, tmp_path, capsys):
    def refuse(d):
        raise AssertionError("the Bell bra was built before the size check")

    monkeypatch.setattr(qudit, "_bell_bra", refuse)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        cli.main(["qudit-demo", "-d", "33", "--out", str(out)])
    assert err.value.code == 64
    assert "qudit dimension 33 needs a 18974736 B Bell bra" in capsys.readouterr().err
    assert not out.exists()


def test_option_not_read_by_subcommand_exits_64(tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        cli.main(["appendix-a", "--trials", "5", "--out", str(out)])
    assert err.value.code == 64
    assert "unrecognized arguments: --trials 5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["teleport", "--channel", "ghz:3"], "odd number of qubits"),
        (["teleport", "--channel", "ghz:4", "--pairing", "0-1,1-2"], "must measure all but one"),
        (["teleport", "--channel", "ghz:4", "--pairing", "0-1,2-x"], "invalid literal"),
        (["teleport", "--channel", "ghz:4", "--assumed-class", "ppp"], "two signs"),
        (["order-param", "--channel", "singlet-random:5"], "positive even qubit count"),
        (["heisenberg-check", "-L", "14"], "limited to L <= 12"),
        (["bound-scan", "--theta", "4"], "theta must lie in [0, pi)"),
        (["fig2", "--seed", "-1"], "--seed: must be a non-negative integer"),
        (["appendix-a", "--phi", "nan"], "2 * phi finite"),
        (["appendix-a", "--phi", "inf"], "2 * phi finite"),
        (["appendix-a", "--phi", "1e308"], "2 * phi finite"),  # sin(2 * phi) overflows
        (["teleport", "--channel", "random:4:1:2"], "is not kind:qubits[:seed]"),
        (["teleport", "--channel", "explicit:4"], "explicit channels are library-only"),
        (["teleport", "--channel", "ghz:4", "--pairing", "0-1,0-2"], "must measure all but one"),
        (["teleport", "--channel", "ghz:4", "--pairing", "0-1,2-9"], "must measure all but one"),
        (["teleport", "--channel", "ghz:4", "--pairing", "0-1"], "must measure all but one"),
    ],
)
def test_bad_input_exits_64(argv, message, tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--out", str(out)])
    assert err.value.code == 64
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_appendix_a_counts_nan_probabilities_as_violations(monkeypatch, tmp_path):
    real = protocol._walk

    def nan_walk(stack, levels, follow):
        roots, rows, probs, residuals = real(stack, levels, follow)
        return roots, rows, np.full_like(probs, np.nan), residuals

    monkeypatch.setattr(protocol, "_walk", nan_walk)
    code, text = run_cli(["appendix-a"], tmp_path)
    assert code == 2
    assert parse_csv(text)[0]["violations"] == str(16 + 4)  # every branch and class


def test_stdout_reader_that_goes_away_ends_the_run_quietly():
    # 4**7 branches, four chunks of rows and far more than a pipe buffer
    # holds: a chunk written after the reader closes its end raises
    # BrokenPipeError, which main absorbs (a table of one chunk can end
    # without any write reporting the closed pipe)
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    argv = ["teleport", "--channel", "random:14:1", "--enumerate-branches"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "bellport", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == f"# version={cli.__version__}\n".encode()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_plain_value_error_is_not_a_usage_error(monkeypatch, tmp_path):
    def broken(args):
        raise ValueError("a fault inside the program")

    monkeypatch.setitem(cli._HANDLERS, "fig2", broken)
    with pytest.raises(ValueError, match="a fault inside the program"):
        cli.main(["fig2", "--out", str(tmp_path / "x.csv")])


def test_parser_is_built_once_and_keeps_no_state(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    plot = tmp_path / "plot.dat"
    code, text = run_cli(
        ["fig2", "--trials", "1", "--seed", "5", "--enumerate-branches",
         "--plot-out", str(plot)],
        tmp_path,
    )
    assert code == 0 and plot.exists()
    assert parse_csv(text)[0]["enumerate_branches"] == "True"
    code, text = run_cli(
        ["teleport", "--channel", "ghz:4", "--trials", "2", "--pairing", "2-3,0-1"], tmp_path
    )
    meta, _, rows = parse_csv(text)
    assert code == 0 and len(rows) == 2
    assert meta["seed"] == "0" and meta["assumed_class"] == "++"
    with pytest.raises(SystemExit) as err:
        cli.main(["fig2", "--trials", "0"])
    assert err.value.code == 64
    plot.unlink()
    code, text = run_cli(["fig2", "--trials", "1"], tmp_path)
    meta, _, rows = parse_csv(text)
    assert code == 0 and not plot.exists()
    assert meta["seed"] == "0" and meta["trials"] == "1"
    assert meta["enumerate_branches"] == "False" and len(rows) == 4


def test_violation_exit_code(monkeypatch, tmp_path):
    # a row below the bound must flip the exit status to 2
    bad = protocol._Fig2Block(
        trial=np.array([0]),
        assumed=np.array([0]),
        omega=np.array([3.0]),
        measured=np.array([0]),
        fidelity=np.array([0.5]),
        kind=np.array([-1]),
    )
    monkeypatch.setattr(
        cli, "_fig2_blocks", lambda trials, seed, enumerate_branches=False: iter([bad])
    )
    code = cli.main(
        ["fig2", "--trials", "1", "--seed", "0", "--out", str(tmp_path / "v.csv"),
         "--deterministic"]
    )
    assert code == 2


def below_the_bound_in_the_last_block(monkeypatch):
    """Patch fig2's walk so that its one-trial blocks give one row below
    the bound and one NaN fidelity, which is no violation."""
    real = protocol._teleports

    def teleports(clients, *args, **kwargs):
        root, leaf, cls, branches = real(clients, *args, **kwargs)
        if len(clients) == 1:
            branches.fidelities[[1, 2]] = -2.0, np.nan  # the bound is never below -1
        return root, leaf, cls, branches

    monkeypatch.setattr(protocol, "_teleports", teleports)


@pytest.mark.parametrize("enumerate_branches", [False, True])
def test_fig2_counts_the_violations_of_fig2_run(monkeypatch, tmp_path, enumerate_branches):
    monkeypatch.setattr(protocol, "_FIG2_BLOCK", 3)  # blocks of 3, 3, 3 and 1 trials
    below_the_bound_in_the_last_block(monkeypatch)
    expected = fig2_violations(fig2_run(10, 6, enumerate_branches))
    assert [r.trial for r in expected] == [9]
    flags = ["--enumerate-branches"] if enumerate_branches else []
    code, text = run_cli(["fig2", "--trials", "10", "--seed", "6", *flags], tmp_path)
    meta, _, rows = parse_csv(text)
    assert code == 2 and meta["violations"] == str(len(expected)) == "1"
    assert [row["fidelity"] for row in rows if row["trial"] == "9"][1:3] == ["-2", "nan"]


@pytest.mark.parametrize("enumerate_branches", [False, True])
def test_fig2_csv_rows_are_fig2_run_rows(tmp_path, enumerate_branches):
    # 1,025 trials: a second block of one trial, and more rows than a chunk
    flags = ["--enumerate-branches"] if enumerate_branches else []
    code, text = run_cli(["fig2", "--trials", "1025", "--seed", "17", *flags], tmp_path)
    _, header, rows = parse_csv(text)
    expected = [
        [
            str(r.trial),
            format_sign_pair(r.assumed_class),
            f"{r.omega:.12g}",
            format_sign_pair(r.measured_class),
            f"{r.fidelity:.12g}",
            r.channel_kind,
        ]
        for r in fig2_run(1025, 17, enumerate_branches)
    ]
    assert code == 0 and len(rows) > cli._CHUNK_ROWS
    assert [[row[c] for c in header] for row in rows] == expected


def test_emit_plotdata_empty_errors(tmp_path):
    with pytest.raises(cli.EmptyDataError):
        cli.emit_plotdata([], str(tmp_path / "nothing.dat"))
    assert not (tmp_path / "nothing.dat").exists()


def test_timestamp_suppressed_only_when_deterministic(tmp_path):
    out = tmp_path / "t.csv"
    cli.main(["order-param", "--channel", "ghz:4", "--out", str(out)])
    assert "# generated=" in out.read_text()
    cli.main(["order-param", "--channel", "ghz:4", "--out", str(out), "--deterministic"])
    assert "# generated=" not in out.read_text()


# ---------------------------------------------------------------------------
# write_table against the per-cell writer it replaced


def old_fmt(value):
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def old_write_table(stream, meta, columns, rows):
    """write_table as it was, with --deterministic: every cell through
    old_fmt, one row at a time."""
    stream.write(f"# version={cli.__version__}\n")
    for key, value in meta.items():
        stream.write(f"# {key}={value}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(old_fmt(v) for v in row) + "\n")


EDGE_FLOATS = [
    float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -2.5e-320,
    2.2250738585072014e-308, 1e300, -1e300, 0.1, 1 / 3, 123456789012345.0,
]
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(EDGE_FLOATS),
)
cells = {
    "float": st.one_of(floats, floats.map(np.float64)),
    "other": st.one_of(st.integers(), st.booleans(), st.text(max_size=6)),
}
cells["mixed"] = st.one_of(cells["float"], cells["other"])


def int_array(dtype):
    """A strategy for an array of n values of an integer or bool ``dtype``."""
    if dtype == np.bool_:
        values = st.booleans()
    else:
        info = np.iinfo(dtype)
        values = st.integers(int(info.min), int(info.max))
    return lambda n: st.lists(values, min_size=n, max_size=n).map(lambda v: np.array(v, dtype))


# each kind of column a handler may give, as a strategy for n values
column_kinds = {
    "list-float": lambda n: st.lists(cells["float"], min_size=n, max_size=n),
    "list-other": lambda n: st.lists(cells["other"], min_size=n, max_size=n),
    "list-mixed": lambda n: st.lists(cells["mixed"], min_size=n, max_size=n),
    "float64": lambda n: st.lists(floats, min_size=n, max_size=n).map(
        lambda v: np.array(v, np.float64)
    ),
    "int8": int_array(np.int8),
    "int32": int_array(np.int32),
    "int64": int_array(np.int64),
    "bool": int_array(np.bool_),
    "object-str": lambda n: st.lists(st.text(max_size=6), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=object)
    ),
}


@st.composite
def tables(draw):
    """(columns, chunks, rows): 1 to 5 columns of any kind in ``column_kinds``
    and up to 12 rows, split into chunks at random cuts (an empty table has
    no chunk or one empty chunk), and the rows those chunks hold."""
    kinds = draw(st.lists(st.sampled_from(sorted(column_kinds)), min_size=1, max_size=5))
    n = draw(st.integers(0, 12))
    values = [draw(column_kinds[kind](n)) for kind in kinds]
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    bounds = [0, *cuts, n] if n or draw(st.booleans()) else []
    chunks = [tuple(v[a:b] for v in values) for a, b in zip(bounds, bounds[1:])]
    rows = [list(row) for row in zip(*values)]  # numpy columns give numpy scalars
    return [f"c{i}" for i in range(len(kinds))], chunks, rows


@settings(max_examples=300, deadline=None)
@given(tables())
def test_write_table_matches_the_per_cell_writer(table):
    columns, chunks, rows = table
    meta = {"subcommand": "test", "seed": 3}
    new, once, old = io.StringIO(), io.StringIO(), io.StringIO()
    cli.write_table(new, meta, columns, chunks, True)
    cli.write_table(once, meta, columns, iter(chunks), True)  # read once
    old_write_table(old, meta, columns, rows)
    assert new.getvalue() == once.getvalue() == old.getvalue()


def test_write_table_writes_tables_longer_than_a_chunk():
    i = np.arange(10_000)
    mixed = ["x" if k % 3 else 0.5 for k in range(len(i))]
    values = (i, i / 7, mixed, (-i).astype(np.int8), i % 2 == 0)
    chunks = (tuple(v[chunk] for v in values) for chunk in cli._chunks(len(i)))
    new, old = io.StringIO(), io.StringIO()
    cli.write_table(new, {}, ["i", "f", "mixed", "small", "even"], chunks, True)
    old_write_table(old, {}, ["i", "f", "mixed", "small", "even"], zip(*values))
    assert len(i) > 2 * cli._CHUNK_ROWS
    assert new.getvalue() == old.getvalue()


# malformed chunks of a two-column table, given as their columns: columns of
# unequal lengths (so some row has another length), and one column only
@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1, 2], [3, 4, 5]], [[]]])
def test_write_table_refuses_a_row_of_another_length(rows, monkeypatch, tmp_path):
    out = io.StringIO()
    with pytest.raises(ValueError, match="a chunk has"):
        cli.write_table(out, {}, ["a", "b"], [rows], True)
    assert out.getvalue() == ""
    # a fault of the program, not a usage error: it ends in a traceback
    monkeypatch.setitem(cli._HANDLERS, "appendix-a", lambda args: ({}, ["a", "b"], [rows], 0))
    with pytest.raises(ValueError, match="a chunk has"):
        cli.main(["appendix-a", "--out", str(tmp_path / "x.csv")])


def test_write_table_refuses_a_bad_row_before_writing_its_chunk():
    def chunks():
        yield from ((np.arange(i, i + 4), np.arange(i, i + 4) / 2) for i in (0, 4))
        yield [8, 9], [4.0]  # the cell of row 9 is missing
        yield np.arange(10, 14), np.arange(10, 14) / 2

    out = io.StringIO()
    with pytest.raises(ValueError, match=r"columns of lengths \[2, 1\]"):
        cli.write_table(out, {"seed": 1}, ["a", "b"], chunks(), True)
    old = io.StringIO()
    old_write_table(old, {"seed": 1}, ["a", "b"], [[i, i / 2] for i in range(8)])
    assert out.getvalue() == old.getvalue()  # the two whole chunks before it
