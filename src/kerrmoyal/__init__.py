"""Exact Weyl-symbol dynamics of the single-mode Kerr oscillator."""

from .errors import (
    DegreeCapExceeded,
    DivergentIntegral,
    IndexCapExceeded,
    InvalidState,
    KerrMoyalError,
    SingularTime,
    ToleranceNotMet,
    TruncationInsufficient,
)
from .expectations import (
    ExpectationResult,
    expectation_a_closed,
    expectation_a_quadrature,
    expectation_a_semiclassical,
    matrix_element,
)
from .fock import (
    FockSpace,
    fock_space_for,
    heisenberg_expectation_sweep,
    heisenberg_matrix_element,
    squeezed_vector,
)
from .kerr import (
    KerrParams,
    ObservableIndex,
    classical_amplitude,
    flow_correction_z1,
    initial_symbol,
    jacobi_residual,
    moyal_solution_symbolic,
    quantum_phase,
    quantum_trajectory,
    semiclassical_trajectory,
)
from .phase_space import (
    GaussPolySymbol,
    PhasePoint,
    ZPoly,
    annihilation_symbol,
    creation_symbol,
    moyal_bracket,
    phase_space_inner_product,
    star_differential,
    star_gaussian,
)
from .states import (
    SqueezedState,
    coherent_projector_symbol,
    mean_photon_number,
    squeeze_matrix,
    squeezed_projector,
    variances,
)

__version__ = "0.1.0"
