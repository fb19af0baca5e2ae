"""Exact Weyl-symbol dynamics of the single-mode Kerr oscillator."""

from .errors import (
    DegenerateQuadraticForm,
    DegreeCapExceeded,
    DivergentIntegral,
    IndexCapExceeded,
    InvalidState,
    KerrMoyalError,
    NotSymplectic,
    SingularTime,
    ToleranceNotMet,
    TruncationInsufficient,
)
from .expectations import (
    ExpectationResult,
    coherent_quantizer_element,
    expectation_a_closed,
    expectation_a_quadrature,
    expectation_a_semiclassical,
    matrix_element,
)
from .fock import (
    FockSpace,
    coherent_vector,
    fock_space_for,
    heisenberg_expectation_sweep,
    heisenberg_matrix_element,
    squeezed_vector,
    truncation_report,
)
from .kerr import (
    KerrParams,
    ObservableIndex,
    ansatz_ode_check,
    classical_amplitude,
    flow_correction_z1,
    hamiltonian_symbol,
    initial_symbol,
    jacobi_residual,
    moyal_residual,
    moyal_solution,
    moyal_solution_symbolic,
    number_symbol,
    quantum_phase,
    quantum_trajectory,
    semiclassical_trajectory,
)
from .phase_space import (
    POISSON_J,
    GaussPolySymbol,
    PhasePoint,
    ZPoly,
    annihilation_symbol,
    creation_symbol,
    moyal_bracket,
    phase_space_inner_product,
    poisson_bracket,
    quantizer_apply,
    quantizer_kernel,
    star_differential,
    star_gaussian,
    star_product,
    symplectic_covariance_check,
    wedge,
)
from .states import (
    CoherentParams,
    SqueezedState,
    SqueezeParams,
    coherent_overlap,
    coherent_projector,
    coherent_projector_symbol,
    coherent_wavefunction,
    mean_photon_number,
    rotation_matrix,
    scaling_matrix,
    squeeze_matrix,
    squeezed_projector,
    squeezed_projector_symbol,
    variances,
)

__version__ = "0.1.0"
