"""Heisenberg-picture descriptor simulator.

Evolves per-subsystem operator descriptors through quantum networks,
foliates them into labeled relative descriptors at measurement-like
interactions, computes branch measures, and runs the Bell/CHSH
experiment family with an independent state-vector oracle for
cross-validation.
"""

from .operators import (
    DEFAULT_TOLERANCE,
    AlgebraError,
    LayoutError,
    Operator,
    SpaceLayout,
    haar_random_unitary,
    qudit_shift_clock,
)
from .gates import (
    Controlled,
    CustomGate,
    GateApplication,
    Hadamard,
    Network,
    NetworkError,
    Plus,
    RotationY,
)
from .engine import (
    EngineError,
    NetworkEvolution,
    functional_form,
    initial_descriptors,
    is_sharp,
)
from .foliation import Branch, Foliation, FoliationError, foliate, foliate_along
from .oracle import (
    joint_outcome_distribution,
    reduced_density_matrix,
    simulate_statevector,
)
from .bell import (
    BellConfig,
    BellOutcome,
    Chained,
    Decohered,
    NonIsomorphismReport,
    Plain,
    WignerReport,
    WignerUndo,
    build_bell_network,
    closed_form_measures,
    nonisomorphism_witness,
    run_bell,
    run_bells,
    run_wigner_undo,
)
from .chsh import (
    ALICE_ANGLES,
    BOB_ANGLES,
    CLASSICAL_BOUND,
    DeterministicStrategy,
    all_strategies,
    chsh_win_rate,
    enumerate_classical,
    expected_win_rate,
    quantum_distribution,
    referee_demo,
    win_predicate,
)

__version__ = "0.1.0"
