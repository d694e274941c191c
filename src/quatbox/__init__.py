"""Quaternion-amplitude quantum simulation with time-ordered local gates.

Because quaternion multiplication is non-commutative, local gates on
different subsystems do not commute and gate *timing* is physical.  This
package simulates that regime exactly, realizes a perfect nonlocal (PR) box
from timing alone, scores CHSH games against the classical and quantum
bounds, and runs the one-bit communication protocol those boxes unlock.
"""

__version__ = "0.1.0"

from .quaternion import I, J, K, ONE, Quaternion, ZERO
from .qlinalg import (
    QMatrix,
    QVector,
    diag,
    hadamard,
    inner,
    is_unitary,
    matmul,
    phase_gate,
    qmat,
    rotation,
)
from .register import (
    Register,
    ScheduledOp,
    apply_local,
    bell_state,
    measure_product_basis,
    run_schedule,
    state_dump,
)
from .boxes import (
    BoxBehavior,
    classical_box,
    complex_quantum_box,
    ideal_pr_box,
    noisy_box,
    quaternionic_box,
)
from .chsh import (
    CC_COLLAPSE_THRESHOLD,
    CLASSICAL_WIN_BOUND,
    TSIRELSON_WIN_BOUND,
    GameResult,
    chsh_value,
    lhv_optimum,
)
from .vandam import (
    ANF,
    BooleanFunction,
    ProtocolRun,
    VerifyReport,
    anf_transform,
    builtin_function,
    success_probability,
    vandam_protocol,
    verify_exhaustive,
)
