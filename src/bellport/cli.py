"""Experiment runner: each subcommand reproduces one of the protocol's
headline computations and emits a self-describing CSV.

Output format: '#'-prefixed key=value metadata lines (version, seed and
the full configuration), one CSV header row, then data rows.  With the
same configuration and seed the bytes are identical across runs; a
timestamp comment is included unless --deterministic is given.

Exit codes: 0 success, 2 when a quantitative claim checked by the
subcommand is violated (a scientific regression, distinct from a
crash), 64 for usage errors: bad options, channel specs, sizes over the
MAX_QUBITS cap and measurement pairings.  Any other error is a fault of
the program and ends in a traceback (exit 1).
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timezone
from functools import cache
from itertools import chain, product
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .bell import (
    BELL_CLASSES,
    BELL_LABELS,
    _class_weights,
    _dominant_class,
    _omega_squares,
    _pure_class,
    bell_basis_state,
    format_sign_pair,
    parse_sign_pair,
    upsilon_expectations,
)
from .channels import (
    MAX_QUBITS,
    aklt_state,
    build,
    cluster_g_operators,
    cluster_state,
    cluster_stabilizer,
    heisenberg_ring_ground,
    parse_channel_spec,
    stabilizer_report,
    string_order,
)
from .protocol import (
    FIG2_BOUND_SLACK,
    Fig2Row,
    _KINDS,
    _below_bound,
    _channel_teleports,
    _check_pairing,
    _fig2_blocks,
    _omega,
    _teleports,
    min_fidelity_scan,
    order_parameter,
)
from .qudit import _label_stack
from .states import PureState, random_state
from .threequbit import BELL3_LABELS, _OUTCOMES, _TRIO_CHANNELS, _TRIO_TABLES, theta_rank

USAGE_ERROR = 64
CLAIM_VIOLATION = 2
# 65x fig2's default; fig2 keeps its rows as column arrays, 23 B a row, until
# they are written (fig2 --trials 131072 peaks at 54 MiB RSS, and at 252 MiB
# with --enumerate-branches, about 64 rows a trial)
MAX_TRIALS = 2**17
_CLAIM_TOL = 1e-10  # the tolerance of every exact claim a subcommand checks
# heisenberg-check's, looser: the ring's ground state is an eigensolver's
# vector, exact only to the solver's residual, not to rounding
_EIGEN_TOL = 1e-8
# appendix-a's, tighter: each probability is a few products of O(1)
# amplitudes, a few ulps from its closed form
_CLOSED_FORM_TOL = 1e-12
_CHUNK_ROWS = 4096  # rows of each chunk that teleport and fig2 hand write_table
# the text of each Bell label, and of each class, in BELL_LABELS order; an
# object array, so that indexing it shares these strings instead of copying
_SIGNS = np.array([format_sign_pair(lab) for lab in BELL_LABELS], dtype=object)
# appendix-a's channel is cos(phi) times the first of these plus sin(phi) times the second
_APPENDIX_A_PAIRS = [
    bell_basis_state(labels).amplitudes for labels in ([(1, -1), (-1, 1)], [(-1, 1), (1, -1)])
]


class _Parser(argparse.ArgumentParser):
    """argparse with the BSD EX_USAGE exit code for bad invocations."""

    def error(self, message):  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


class UsageError(ValueError):
    """Invalid sizes or option combinations detected inside a handler."""


@contextmanager
def _usage_errors() -> Iterator[None]:
    """Re-raise the ValueError of parsing or sizing user input as a UsageError."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


@_usage_errors()
def _parse_class(text: str) -> tuple[int, ...]:
    """Sign pair with p/m accepted for +/- (argparse mangles a bare '--')."""
    pair = parse_sign_pair(text.lower().replace("p", "+").replace("m", "-"))
    if len(pair) != 2:
        raise ValueError(f"a class is two signs, got {text!r}")
    return pair


def _trials(text: str) -> int:
    if not text.isdecimal() or not 1 <= int(text) <= MAX_TRIALS:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer up to {MAX_TRIALS}, got {text!r}"
        )
    return int(text)


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


@_usage_errors()
def _parse_pairing(text: str) -> tuple[tuple[int, int], ...]:
    """The pairs of a --pairing like 0-1,2-3."""
    pairs = []
    for chunk in text.split(","):
        a, _, b = chunk.partition("-")
        pairs.append((int(a), int(b)))
    return tuple(pairs)


@_usage_errors()
def _channel(text: str, seed: int) -> PureState:
    """The channel a --channel spec builds, with an even number of qubits; a
    spec without a seed of its own (random:N, singlet-random:N) takes ``seed``."""
    spec = parse_channel_spec(text)
    if spec.seed is None:
        spec = replace(spec, seed=seed)
    channel = build(spec)
    if channel.num_sites % 2:
        raise ValueError(f"channel {text!r} has an odd number of qubits")
    return channel


@_usage_errors()
def _built(builder: Callable[[int], PureState], L: int, command: str) -> PureState:
    """``builder(L)`` for a subcommand's even -L of at least 4."""
    if L < 4 or L % 2:
        raise ValueError(f"{command} needs an even qubit count >= 4")
    return builder(L)


def write_table(
    stream,
    meta: dict,
    columns: Sequence[str],
    chunks: Iterable[Sequence],
    deterministic: bool,
) -> None:
    """Write ``meta`` as '#' lines, the ``columns`` header and the rows of
    ``chunks``, each a sequence of equal-length columns, one per header
    name; no more than one chunk is held.

    Each column of a chunk gets one format (``_column``), so each row is
    one ``line % row``.  A cell's text depends only on its own type, so
    the chunks do not change the bytes.  A chunk with another column count
    or with columns of unequal lengths raises ValueError before it is
    written; the metadata and header go out with the first chunk, so a bad
    first chunk leaves the stream empty.
    """
    head = [f"# version={__version__}\n", *(f"# {k}={v}\n" for k, v in meta.items())]
    if not deterministic:
        head.append(f"# generated={datetime.now(timezone.utc).isoformat()}\n")
    head.append(",".join(columns) + "\n")
    for chunk in chunks:
        if len(chunk) != len(columns):
            raise ValueError(f"a chunk has {len(chunk)} columns for {len(columns)} names")
        if len(set(map(len, chunk))) > 1:
            raise ValueError(f"a chunk has columns of lengths {[len(c) for c in chunk]}")
        formats, cells = zip(*map(_column, chunk))
        line = ",".join(formats) + "\n"
        stream.write("".join(head) + "".join(map(line.__mod__, zip(*cells))))
        head = []
    if head:  # no chunk: the header alone
        stream.write("".join(head))


def _column(values: Sequence) -> tuple[str, list]:
    """The format of a column of a table and its cells as Python values.

    A numpy float column is %.12g and an integer or bool one %s, from its
    dtype, and it is converted with one ``tolist``.  Any other column (a
    list, an object or text array) is %.12g when all its values are
    floats, %s when none is, and ``_fmt``'s text first when it mixes them.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "fiub":
            return "%.12g" if values.dtype.kind == "f" else "%s", values.tolist()
        values = values.tolist()
    floats = {issubclass(kind, float) for kind in set(map(type, values))}
    if floats == {True, False}:
        return "%s", list(map(_fmt, values))
    return "%.12g" if floats == {True} else "%s", values


def _chunks(n: int) -> Iterator[slice]:
    """The slices of ``n`` rows, ``_CHUNK_ROWS`` rows each."""
    return (slice(i, i + _CHUNK_ROWS) for i in range(0, n, _CHUNK_ROWS))


def _one_row(cells: Sequence[tuple[str, object]]) -> tuple[tuple[str, ...], list[list]]:
    """The columns and the one chunk of a one-row table given as (column,
    value) pairs."""
    columns, row = zip(*cells)
    return columns, [[[value] for value in row]]


class EmptyDataError(ValueError):
    """No rows to emit; no file is written."""


def emit_plotdata(rows: Sequence[Fig2Row], path: str) -> None:
    """Write whitespace-delimited scatter data plus the bound line.

    Block 0 holds (omega, fidelity) points; after two blank lines,
    block 1 samples the bound y = (x - 1) / 2 at 100 points on
    omega in [-1, 3], the gnuplot multi-block convention.
    """
    if not rows:
        raise EmptyDataError("no scatter rows to emit")
    _write_plotdata(path, ((r.omega, r.fidelity) for r in rows))


def _write_plotdata(path: str, points: Iterable[tuple[float, float]]) -> None:
    """``emit_plotdata``'s file, with the (omega, fidelity) ``points``."""
    with open(path, "w") as fh:
        fh.write("# scatter: omega fidelity\n")
        for omega, fidelity in points:
            fh.write(f"{_fmt(omega)} {_fmt(fidelity)}\n")
        fh.write("\n\n# bound: omega (omega-1)/2\n")
        for x in np.linspace(-1.0, 3.0, 100):
            fh.write(f"{_fmt(float(x))} {_fmt((x - 1.0) / 2.0)}\n")


@cache
def _outcome_table(pairs: int) -> np.ndarray:
    """The outcome text of each run of up to 5 ``pairs``, by its base-4 code."""
    return np.array([";".join(p) for p in product(_SIGNS.tolist(), repeat=pairs)], dtype=object)


def _outcome_texts(codes: np.ndarray, pairs: int) -> list[str]:
    """The outcome text of each base-4 run code of ``pairs`` Bell pairs: one
    ``_outcome_table`` lookup, or two joined with ';' above 5 pairs."""
    if pairs <= 5:
        return _outcome_table(pairs)[codes].tolist()
    high, low = np.divmod(codes, 4**5)
    return list(
        map(";".join, zip(_outcome_table(pairs - 5)[high].tolist(), _outcome_table(5)[low].tolist()))
    )


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (meta, columns, chunks, violations), the
# chunks as write_table takes them, and main puts the subcommand's name first
# in meta and, unless violations is None (a subcommand that checks no claim),
# the violations last


def _cmd_teleport(args):
    channel = _channel(args.channel, args.seed)
    assumed = _parse_class(args.assumed_class)
    pairing = _parse_pairing(args.pairing) if args.pairing else None
    sites = channel.num_sites + 1
    try:  # the library's rule, on the site count: no state is built yet
        pairing = _check_pairing(sites, pairing)
    except ValueError as exc:
        raise UsageError(
            f"pairing {args.pairing!r} must measure all but one of sites 0..{sites - 1}"
        ) from exc
    client = random_state(1, 2, np.random.default_rng(args.seed))
    columns = ["run", "outcomes", "measured_class", "joint_probability", "fidelity"]
    trials = None if args.enumerate_branches else args.trials
    rng = np.random.default_rng(args.seed + 1)  # read only by sampled runs
    _, leaves, branches = _channel_teleports(client, channel, [assumed], pairing, trials, rng)
    pairs = branches.rows.shape[1]
    codes = branches.rows @ 4 ** np.arange(pairs)[::-1]  # the rows read as base-4 digits
    measured = np.bitwise_xor.reduce(branches.rows, axis=1)
    probs = branches.probs.prod(axis=1)
    # run: the branch's code, or the number of the sampled run
    runs = codes if args.enumerate_branches else np.arange(args.trials)

    def chunks():  # the columns of one chunk at a time
        for chunk in _chunks(len(runs)):
            # enumerated, the teleports are the leaves in order
            branch = chunk if args.enumerate_branches else leaves[chunk]
            yield (
                runs[chunk],
                _outcome_texts(codes[branch], pairs),
                _SIGNS[measured[branch]],
                probs[branch],
                branches.fidelities[chunk],
            )

    meta = {
        "seed": args.seed,
        "channel": args.channel,
        "assumed_class": args.assumed_class,
        "trials": args.trials,
        "pairing": args.pairing or "default",
        "enumerate_branches": args.enumerate_branches,
    }
    return meta, columns, chunks(), None


def _cmd_fig2(args):
    blocks = list(_fig2_blocks(args.trials, args.seed, args.enumerate_branches))
    violations = sum(int(np.count_nonzero(_below_bound(b.fidelity, b.omega))) for b in blocks)
    meta = {
        "seed": args.seed,
        "trials": args.trials,
        "bound_slack": FIG2_BOUND_SLACK,
        "channel_sampler": "50% pure-class projection / 50% haar with max omega <= 0.98",
        "client_sampler": "uniform on the Bloch sphere (complex-normal amplitudes)",
        "enumerate_branches": args.enumerate_branches,
    }
    if args.plot_out:
        points = (zip(b.omega.tolist(), b.fidelity.tolist()) for b in blocks)
        _write_plotdata(args.plot_out, chain.from_iterable(points))

    def chunks():  # the columns of one chunk at a time
        for b in blocks:
            for chunk in _chunks(len(b.trial)):
                yield (
                    b.trial[chunk],
                    _SIGNS[b.assumed[chunk]],
                    b.omega[chunk],
                    _SIGNS[b.measured[chunk]],
                    b.fidelity[chunk],
                    _KINDS[b.kind[chunk]],
                )

    columns = ["trial", "assumed_class", "omega", "measured_class", "fidelity", "channel_kind"]
    return meta, columns, chunks(), violations


def _cmd_appendix_a(args):
    phi = args.phi
    if not math.isfinite(2 * phi):
        raise UsageError(f"phi must be a number with 2 * phi finite, got {phi}")
    channel = PureState(np.cos(phi) * _APPENDIX_A_PAIRS[0] + np.sin(phi) * _APPENDIX_A_PAIRS[1])
    client = random_state(1, 2, np.random.default_rng(args.seed))
    columns = ["p1", "q1", "p2", "q2", "probability", "expected", "agg_class"]
    _, _, branches = _channel_teleports(client, channel, [], None)  # no class: rows only
    first, second = np.divmod(np.arange(16), 4)  # the rows of each branch, in order
    prob = np.zeros(16)  # an impossible branch has probability 0
    prob[branches.rows @ [4, 1]] = branches.probs.prod(axis=1)
    labels = np.array(BELL_LABELS)
    expected = (1.0 - labels[second].prod(axis=1) * np.sin(2 * phi)) / 16.0
    agg = first ^ second  # the class of both outcomes
    class_prob = np.bincount(agg, weights=prob, minlength=4)  # summed in branch order
    violations = int((~(abs(prob - expected) <= _CLOSED_FORM_TOL)).sum())  # NaN is a violation too
    violations += int((~(abs(class_prob - 0.25) <= _CLOSED_FORM_TOL)).sum())
    chunk = (*labels[first].T, *labels[second].T, prob, expected, _SIGNS[agg])
    meta = {
        "seed": args.seed,
        "phi": phi,
        "class_probabilities": ";".join(
            f"{sign}={p:.12g}" for sign, p in zip(_SIGNS.tolist(), class_prob.tolist())
        ),
    }
    return meta, columns, [chunk], violations


def _cmd_order_param(args):
    state = _channel(args.channel, args.seed)
    op = order_parameter(state)
    weights = _class_weights(state)
    cells = [*zip(("t1", "t2", "t3"), op.t_vector), ("efficiency", op.efficiency)]
    cells += [(f"omega_{format_sign_pair(c)}", op.omega[c]) for c in BELL_CLASSES]
    cells += [(f"weight_{format_sign_pair(c)}", weights[c] ** 2) for c in BELL_CLASSES]
    meta = {"channel": args.channel, "seed": args.seed}
    return meta, *_one_row(cells), None


def _cmd_cluster_check(args):
    L = args.qubits
    state = _built(cluster_state, L, "cluster-check")
    columns = ["check", "value", "deviation", "ok"]
    rows = []
    violations = 0
    checks = [(f"K{j}", cluster_stabilizer(j, L)) for j in range(1, L + 1)]
    checks += [
        (f"{name}[{'-' if g.sign < 0 else '+'}{''.join(str(f) for f in g.factors)}]", g)
        for name, g in zip(("G1", "G2"), cluster_g_operators(L))
    ]
    for name, op in checks:
        rep = stabilizer_report(state, op, name)
        ok = abs(rep.eigenvalue - 1.0) <= _CLAIM_TOL and rep.deviation <= _CLAIM_TOL
        violations += not ok
        rows.append([name, rep.eigenvalue, rep.deviation, int(ok)])
    top = max(_class_weights(state).values()) ** 2
    ok = top < 1.0 - 1e-6  # cluster states must straddle classes
    violations += not ok
    rows.append(["max_class_weight", top, 0.0, int(ok)])
    meta = {"qubits": L}
    return meta, columns, [list(zip(*rows))], violations


def _cmd_aklt_check(args):
    L = args.qubits
    state = _built(aklt_state, L, "aklt-check")
    s_order = string_order(state)
    e1, e2, e3 = upsilon_expectations(state)
    relation = -((-1.0) ** (L // 2)) * s_order
    pure = _pure_class(_omega_squares(_omega(e1, e2, e3)))
    columns = ["check", "value", "expected", "ok"]
    rows = []
    checks = [
        ("string_order", s_order, -1.0, abs(s_order + 1.0) <= _CLAIM_TOL),
        ("upsilon2_vs_string", e2, relation, abs(e2 - relation) <= _CLAIM_TOL),
        (
            "pure_class",
            format_sign_pair(pure) if pure else "none",
            format_sign_pair((int((-1) ** (L // 2)),) * 2),
            pure is not None,
        ),
    ]
    violations = 0
    for name, value, expected, ok in checks:
        violations += not ok
        rows.append([name, value, expected, int(ok)])
    meta = {"qubits": L}
    return meta, columns, [list(zip(*rows))], violations


def _cmd_bound_scan(args):
    theta = args.theta
    if not 0 <= theta < np.pi:
        raise UsageError(f"theta must lie in [0, pi), got {theta}")
    res = min_fidelity_scan(theta)
    cos, sin = float(np.cos(theta)), np.sin(theta)
    expected = max(cos, 0.0)
    ok = abs(res.minimum - expected) <= 1e-3
    predicted_a = 0.0
    if theta > 0:  # the minimizing real a: -tan(theta/2), or -cot(theta/2) at Delta = 0
        predicted_a = (cos - 1.0 if theta <= np.pi / 2 else -(1.0 + cos)) / sin
    cells = [
        ("theta", theta),
        ("minimum", res.minimum),
        ("cos_theta", cos),
        ("abs_error", abs(res.minimum - expected)),
        ("argmin_re_a", res.a.real),
        ("argmin_im_a", res.a.imag),
        ("argmin_abs_b", res.b_mag),
        ("argmin_abs_c", res.c_mag),
        ("predicted_a", predicted_a),
    ]
    meta = {"theta": theta}
    return meta, *_one_row(cells), int(not ok)


def _cmd_three_qubit(args):
    columns = ["j", "k", "l", "mode", "outcome", "probability", "fidelity"]
    client = random_state(1, 2, np.random.default_rng(args.seed)).amplitudes
    parts = []  # per mode: its branches' (channel, mode, outcome, probability, fidelity)
    for mode, (labels, levels, _, settle) in _OUTCOMES.items():
        tables = _TRIO_TABLES[mode]
        roots, _, _, branches = _teleports(client[None], _TRIO_CHANNELS, levels, tables, settle)
        outcomes = np.array([format_sign_pair(lab) for lab in labels])[branches.rows[:, 0]]
        modes = np.full(len(roots), mode)
        parts.append((roots, modes, outcomes, branches.probs[:, 0], branches.fidelities))
    roots, *cells = map(np.concatenate, zip(*parts))
    order = np.argsort(roots, kind="stable")  # by channel, each in mode order
    chunk = (*np.array(BELL3_LABELS)[roots[order]].T, *(cell[order] for cell in cells))
    violations = int((~(cells[-1] >= 1.0 - _CLAIM_TOL)).sum())
    rank_p, det_p = theta_rank(1)
    rank_m, det_m = theta_rank(-1)
    meta = {
        "seed": args.seed,
        "theta_rank_kappa_plus": rank_p,
        "theta_det_kappa_plus": f"{abs(det_p):.3e}",
        "theta_rank_kappa_minus": rank_m,
        "theta_det_kappa_minus": f"{abs(det_m):.3e}",
    }
    return meta, columns, [chunk], violations


def _cmd_qudit_demo(args):
    d = args.dim
    if d < 2:
        raise UsageError("qudit dimension must be >= 2")
    if d**4 > 2**MAX_QUBITS:  # the d^2 x d^2 Bell bra against one MAX_QUBITS state
        raise UsageError(
            f"qudit dimension {d} needs a {16 * d**4} B Bell bra, over the "
            f"{16 * 2**MAX_QUBITS} B limit"
        )
    client = random_state(1, d, np.random.default_rng(args.seed)).amplitudes
    columns = ["d", "j", "k", "p", "q", "probability", "fidelity"]
    labels = [(0, 0), (1 % d, 0), (0, 1 % d), (d - 1, d - 1)]  # distinct for d >= 2
    roots, _, _, branches = _teleports(client[None], *_label_stack(d, labels))
    j, k = np.array(labels)[roots].T
    p, q = np.divmod(branches.rows[:, 0], d)
    chunk = (np.full(len(roots), d), j, k, p, q, branches.probs[:, 0], branches.fidelities)
    violations = int((~(branches.fidelities >= 1.0 - _CLAIM_TOL)).sum())
    meta = {"seed": args.seed, "dim": d}
    return meta, columns, [chunk], violations


def _cmd_heisenberg_check(args):
    L = args.qubits
    ground = _built(heisenberg_ring_ground, L, "heisenberg-check")
    op = order_parameter(ground)
    squares = _omega_squares(op.omega)
    pure = _pure_class(squares, _EIGEN_TOL)
    rng = np.random.default_rng(args.seed)
    client = random_state(1, 2, rng)
    assumed = _dominant_class(squares)
    _, _, branches = _channel_teleports(client, ground, [assumed], None, args.trials, rng)
    min_f = min(branches.fidelities.tolist())  # Python's min: a NaN orders as it always has
    violations = int(abs(op.efficiency - 1.0) > _EIGEN_TOL) + int(min_f < 1.0 - _EIGEN_TOL)
    cells = [
        ("L", L),
        ("efficiency", op.efficiency),
        ("pure_class", format_sign_pair(pure) if pure else "none"),
        ("sampled_runs", args.trials),
        ("min_fidelity", min_f),
    ]
    meta = {"qubits": L, "seed": args.seed, "trials": args.trials}
    return meta, *_one_row(cells), violations


_HANDLERS: dict[str, Callable] = {
    "teleport": _cmd_teleport,
    "fig2": _cmd_fig2,
    "appendix-a": _cmd_appendix_a,
    "order-param": _cmd_order_param,
    "cluster-check": _cmd_cluster_check,
    "aklt-check": _cmd_aklt_check,
    "bound-scan": _cmd_bound_scan,
    "three-qubit": _cmd_three_qubit,
    "qudit-demo": _cmd_qudit_demo,
    "heisenberg-check": _cmd_heisenberg_check,
}


@cache  # argparse keeps no state between parse_args calls
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bellport",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *, seed=True, trials_default=None):
        """Output options, plus --seed and --trials where the handler reads them."""
        if seed:
            p.add_argument("--seed", type=_seed, default=0, help="non-negative RNG seed")
        if trials_default is not None:
            p.add_argument("--trials", type=_trials, default=trials_default)
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument(
            "--deterministic",
            action="store_true",
            help="suppress the timestamp comment for byte-identical output",
        )

    p = sub.add_parser(
        "teleport",
        help="run the protocol over a configurable channel",
        epilog="CSV: run,outcomes,measured_class,joint_probability,fidelity",
    )
    common(p, trials_default=100)
    p.add_argument(
        "--channel",
        required=True,
        help="channel spec, e.g. bell:+-,-+ | cluster1d:6 | singlet-random:4:7 "
        "| mg-dimers:4 | heisenberg-ring:6 | ghz:4 | aklt:6 | random:4:3",
    )
    p.add_argument(
        "--assumed-class",
        default="++",
        help="Bob's channel class as two signs; p/m work as aliases "
        "(e.g. 'mm' for the [-:-] class)",
    )
    p.add_argument("--pairing", help="measurement pairs like 0-1,2-3")
    p.add_argument(
        "--enumerate-branches",
        action="store_true",
        help="force every outcome branch instead of sampling",
    )

    p = sub.add_parser(
        "fig2",
        help="fidelity vs order-parameter scatter with the (omega-1)/2 bound",
        epilog="CSV: trial,assumed_class,omega,measured_class,fidelity,channel_kind",
    )
    common(p, trials_default=2000)
    p.add_argument("--plot-out", help="also write whitespace plot data to this path")
    p.add_argument(
        "--enumerate-branches",
        action="store_true",
        help="verification mode: force every reachable branch per assumed class",
    )

    p = sub.add_parser(
        "appendix-a",
        help="two-singlet-pair channel outcome probabilities (1 +- sin 2phi)/16",
        epilog="CSV: p1,q1,p2,q2,probability,expected,agg_class",
    )
    common(p)
    p.add_argument("--phi", type=float, default=0.3)

    p = sub.add_parser(
        "order-param",
        help="teleportation-order parameter of a channel",
        epilog="CSV: t1,t2,t3,efficiency,omega_*,weight_*",
    )
    common(p)
    p.add_argument("--channel", required=True)

    p = sub.add_parser(
        "cluster-check",
        help="cluster-state stabilizers, G factorization, class weights",
        epilog="CSV: check,value,deviation,ok",
    )
    common(p, seed=False)
    p.add_argument("--qubits", "-L", type=int, default=6)

    p = sub.add_parser(
        "aklt-check",
        help="AKLT string order and Bell-class purity",
        epilog="CSV: check,value,expected,ok",
    )
    common(p, seed=False)
    p.add_argument("--qubits", "-L", type=int, default=6)

    p = sub.add_parser(
        "bound-scan",
        help="grid-scan of the worst-case fidelity, min Delta = cos(theta) "
        "for theta <= pi/2; 0 above",
        epilog="CSV: theta,minimum,cos_theta,abs_error,argmin_*,predicted_a",
    )
    common(p, seed=False)
    p.add_argument("--theta", type=float, required=True)

    p = sub.add_parser(
        "three-qubit",
        help="three-qubit basis channels, full and reduced measurements",
        epilog="CSV: j,k,l,mode,outcome,probability,fidelity",
    )
    common(p)

    p = sub.add_parser(
        "qudit-demo",
        help="qudit teleportation over generalized Bell channels",
        epilog="CSV: d,j,k,p,q,probability,fidelity",
    )
    common(p)
    p.add_argument("--dim", "-d", type=int, default=3)

    p = sub.add_parser(
        "heisenberg-check",
        help="Heisenberg ring ground state as a perfect channel",
        epilog="CSV: L,efficiency,pure_class,sampled_runs,min_fidelity",
    )
    common(p, trials_default=20)
    p.add_argument("--qubits", "-L", type=int, default=4)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.subcommand]
    try:
        meta, columns, chunks, violations = handler(args)
    except UsageError as exc:
        parser.exit(USAGE_ERROR, f"{parser.prog}: error: {exc}\n")
    meta = {"subcommand": args.subcommand, **meta}
    if violations is not None:
        meta["violations"] = violations
    if args.out:
        with open(args.out, "w") as fh:
            write_table(fh, meta, columns, chunks, args.deterministic)
    else:
        try:
            write_table(sys.stdout, meta, columns, chunks, args.deterministic)
        except BrokenPipeError:  # reader (head, less, ...) went away
            sys.stderr.close()
            return 0
    return CLAIM_VIOLATION if violations else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
