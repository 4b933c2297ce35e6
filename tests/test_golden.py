"""Byte-exact --deterministic CSV output against committed golden files.

The files in tests/golden were written by the CLI before the refactor
they guard: the measurement cases before the measurement paths shared
one collapse kernel, the order-param, cluster-check and aklt-check
cases before every qubit U product became one index map, and the two
cases with impossible branches (ghz:6 and appendix-a at phi = pi/4)
before branch enumeration walked one outcome tree, and the
heisenberg-check -L 8, singlet-random:10:4, aklt-check -L 12 and
aklt:6 branch cases before the Heisenberg, singlet and AKLT builders
became index maps, and the fig2 seed-42, random:8:3 branch and
random:10:3 sampled cases before the walker went level by level over a
stack of site tensors and fig2 sampled every trial in one batch, and the
heisenberg-check -L 10 and the seeded sampled teleport cases (ghz:6,
singlet-random:12:5, random:6:3 with a pairing) before the sampled runs
of one command shared a single walk of the outcome tree, and the
qudit-demo -d 5, three-qubit seed-7, mg-dimers:10, five-pair bell and
fig2 seed-3 branch cases before every forced branch of a command came
from one batched pass with a gate table, and the two bound-scan cases
before its claim check was corrected above theta = pi/2, and the
heisenberg-ring:8 and :10 order-param and cluster-check -L 10 cases
before a Bell-class component became signed adds (the empty-class
weights of the Heisenberg rings print their rounding noise, and -L 10
takes the odd pair-count branch of the cluster G operators).  They are
never regenerated to make a change pass: a refactor that moves an RNG
draw or a printed digit shows up here as a byte difference.
"""

from pathlib import Path

import pytest

from bellport import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "fig2_t50": ["fig2", "--trials", "50"],
    "fig2_t5_enum": ["fig2", "--trials", "5", "--enumerate-branches"],
    "teleport_random_6_3": ["teleport", "--channel", "random:6:3", "--trials", "100"],
    "teleport_singlet_random_8_5_enum": [
        "teleport", "--channel", "singlet-random:8:5", "--enumerate-branches",
        "--assumed-class", "pp",
    ],
    "teleport_cluster1d_4_pairing": [
        "teleport", "--channel", "cluster1d:4", "--enumerate-branches",
        "--pairing", "0-2,1-3",
    ],
    "teleport_ghz_6_pm_enum": [
        "teleport", "--channel", "ghz:6", "--enumerate-branches", "--assumed-class", "pm",
    ],
    "appendix_a": ["appendix-a"],
    "appendix_a_phi_pi4": ["appendix-a", "--phi", "0.785398163397448"],
    "three_qubit": ["three-qubit"],
    "qudit_demo_d3": ["qudit-demo", "-d", "3"],
    "heisenberg_check_L6": ["heisenberg-check", "-L", "6"],
    "order_param_random_8_3": ["order-param", "--channel", "random:8:3"],
    "order_param_cluster1d_8": ["order-param", "--channel", "cluster1d:8"],
    "order_param_ghz_6": ["order-param", "--channel", "ghz:6"],
    "cluster_check_L8": ["cluster-check", "-L", "8"],
    "aklt_check_L8": ["aklt-check", "-L", "8"],
    "aklt_check_L12": ["aklt-check", "-L", "12"],
    "heisenberg_check_L8": ["heisenberg-check", "-L", "8"],
    "order_param_singlet_random_10_4": ["order-param", "--channel", "singlet-random:10:4"],
    "teleport_aklt_6_enum": ["teleport", "--channel", "aklt:6", "--enumerate-branches"],
    "fig2_t120_s42": ["fig2", "--trials", "120", "--seed", "42"],
    "teleport_random_8_3_enum": ["teleport", "--channel", "random:8:3", "--enumerate-branches"],
    "teleport_random_10_3_t200": ["teleport", "--channel", "random:10:3", "--trials", "200"],
    "heisenberg_check_L10_s3": ["heisenberg-check", "-L", "10", "--seed", "3"],
    "teleport_singlet_random_12_5_t20": [
        "teleport", "--channel", "singlet-random:12:5", "--trials", "20", "--seed", "3",
    ],
    "teleport_ghz_6_pm_t300": [
        "teleport", "--channel", "ghz:6", "--trials", "300", "--seed", "7",
        "--assumed-class", "pm",
    ],
    "teleport_random_6_3_pairing_t77": [
        "teleport", "--channel", "random:6:3", "--pairing", "0-5,1-3,2-4",
        "--trials", "77", "--seed", "4",
    ],
    "qudit_demo_d5_s2": ["qudit-demo", "-d", "5", "--seed", "2"],
    "three_qubit_s7": ["three-qubit", "--seed", "7"],
    "teleport_mg_dimers_10_pm_enum_s4": [
        "teleport", "--channel", "mg-dimers:10", "--assumed-class", "pm",
        "--enumerate-branches", "--seed", "4",
    ],
    "teleport_bell_5_enum": [
        "teleport", "--channel", "bell:+-,-+,--,++,-+", "--enumerate-branches",
    ],
    "fig2_t20_enum_s3": ["fig2", "--trials", "20", "--enumerate-branches", "--seed", "3"],
    "bound_scan_pi3": ["bound-scan", "--theta", "1.0471975511965976"],
    "bound_scan_1_5": ["bound-scan", "--theta", "1.5"],
    "order_param_heisenberg_ring_8": ["order-param", "--channel", "heisenberg-ring:8"],
    "order_param_heisenberg_ring_10": ["order-param", "--channel", "heisenberg-ring:10"],
    "cluster_check_L10": ["cluster-check", "-L", "10"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_deterministic_output_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert cli.main(CASES[name] + ["--deterministic", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.csv")) == sorted(CASES)
