"""Quantum linear system lab.

Solves A x = b instances with three eigenvalue-inversion strategies on an
exact statevector simulator and reports analytic error bounds alongside
measured errors.
"""

from .analysis import BoundInputs, aggregate, canonical_bound, enhanced_bound
from .inversion import (
    InversionPlan,
    alpha_overlap,
    build_inversion_circuit,
    inversion_amplitude,
    plan_canonical,
    plan_enhanced,
    plan_hybrid,
)
from .pipeline import (
    RunConfig,
    RunResult,
    assemble_hhl,
    direct_distribution_error,
    error_from_fidelity,
    run,
    swap_test_fidelity,
)
from .preprocess import (
    EigenEstimate,
    EigenEstimateSet,
    build_qpe_circuit,
    fixed_t0,
    iterative_t0,
    run_preprocessing,
)
from .qlsp import (
    QLSP,
    ClassicalSolution,
    classical_solution,
    evolution_unitary,
    generate_n2,
    generate_n4,
    hermitian_dilation,
)
from .sim import (
    Circuit,
    Gate,
    GateKind,
    GateReport,
    NoiseSpec,
    StateVector,
    apply_circuit,
    gate_report,
    inject_noise,
    postselect,
    sample,
)

__version__ = "0.1.0"
