"""Numerical workbench for symmetric pairs of unbounded operators.

Everything is realized at finite scale: dense tagged matrices for the
operator substrate, truncated Hermite chaos for the stochastic calculus,
Hilbert-Schmidt standard forms for the modular theory, and weighted
graphs plus recurrences for the energy-space Laplacians.
"""

from .core import (
    CONJUGATE,
    DEFAULT_TOL,
    LINEAR,
    OperatorError,
    OperatorMatrix,
    PartialIsometry,
    adjoint,
    cayley,
    compose,
    eig_space,
    polar_decompose,
    spectrum,
    sqrt_psd,
    unitary_power,
)
from .pairs import (
    PairError,
    SymmetricPairSpec,
    build_L,
    build_Lstar,
    check_pair,
    defect_flip,
    deficiency,
    pair_from_json,
    symmetry_defect,
)
from .chaos import (
    ChaosBasis,
    ChaosError,
    ChaosField,
    ChaosVector,
    S_apply,
    T_apply,
    Tk_apply,
    basis_build,
    chaos_monomials,
    exp_vector,
    gaussian_expectation,
    h1_inner,
    h2_inner,
    hermite_coefficients,
    matrix_preflight,
    mult_phi,
    multiply,
    number_operator,
    pair_sections,
    phi_matrix,
    t_matrix,
    t_star_matrix,
    zero_vector,
)
from .modular import (
    ModularData,
    ModularError,
    StandardForm,
    algebra_from_generators,
    antilinear_defect_dimension,
    build_F,
    build_S,
    check_commutation,
    check_sxs_commutes,
    commutant,
    conjugation_action_matrix,
    cyclic_separating,
    modular_data,
    modular_flow_check,
    modular_J,
    span_residual,
    standard_form,
    tracial_rho,
)
from .network import (
    CONVERGES,
    DIVERGES,
    INCONCLUSIVE,
    ConductanceSequence,
    DefectResult,
    EnergyVector,
    FiniteNetwork,
    NetworkError,
    constant_halfline,
    defect_recurrence,
    energy,
    energy_kernel,
    geometric_halfline,
    harmonic_flux,
    laplacian,
    lemma_dual_pairing,
    pair_K_Delta_check,
    parse_graph,
    royden_project,
    twosided_geometric,
    twosided_window_network,
)
from .report import Record, Report, emit, make_record
from .suites import run_suite

__version__ = "0.1.0"
