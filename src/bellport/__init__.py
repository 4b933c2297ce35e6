"""bellport: Bell-measurement teleportation over multi-qubit channels.

A numpy state-vector library for the teleportation protocol in which a
client qubit and 2L-1 channel qubits undergo L Bell measurements and the
recipient recovers the client state from two classical sign bits.  The
package covers the Bell-class decomposition of channel space, the
teleportation-order parameter and its fidelity bound, cluster-state and
AKLT channels, three-qubit channels, and the qudit generalization.
"""

__version__ = "0.1.0"

from .algebra import (
    SIGNS,
    epsilon_sign,
    delta_sign,
    nu_parity,
    u_matrix,
    x_operator,
    x_tilde_operator,
)
from .bell import (
    BELL_CLASSES,
    BELL_LABELS,
    BellClass,
    BellLabel,
    ClassDecomposition,
    bell_basis_state,
    bell_state,
    class_projector_apply,
    decompose_classes,
    labels_class,
    upsilon_expectations,
)
from .channels import (
    ChannelSpec,
    DegenerateGroundStateError,
    UProduct,
    aklt_state,
    build,
    cluster_g_operators,
    cluster_stabilizer,
    cluster_state,
    ghz_state,
    heisenberg_ring_ground,
    majumdar_ghosh_dimers,
    parse_channel_spec,
    singlet_random,
    string_order,
)
from .measure import (
    ImpossibleOutcomeError,
    MeasurementOutcome,
    MeasurementRecord,
    bell_measure,
    measure_branches,
    measure_sequence,
    outcome_distribution,
)
from .protocol import (
    BoundScanResult,
    Fig2Row,
    OrderParameter,
    TeleportResult,
    correction_gate,
    fidelity_formula,
    fig2_run,
    fig2_violations,
    min_fidelity_scan,
    order_parameter,
    outcome_probability_formula,
    rotation_gate,
    teleport,
    teleport_branches,
    teleport_samples,
)
from .qudit import (
    generalized_pauli,
    qudit_bell,
    qudit_decompose,
    qudit_teleport,
    qudit_x_tilde,
)
from .states import (
    PureState,
    apply_local,
    apply_two_site,
    basis_state,
    inner_product,
    normalize,
    overlap_fidelity,
    permute_sites,
    qubit_ket,
    random_product_state,
    random_state,
    tensor,
)
from .threequbit import (
    BELL3_LABELS,
    Bell3Label,
    bell3_state,
    teleport3,
    theta_rank,
    y_operator,
)
