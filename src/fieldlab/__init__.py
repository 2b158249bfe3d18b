"""Desk-scale lattice laboratory for wavefunctional evolution of scalar fields."""

__version__ = "0.1.0"

from .classical import (
    BoundaryData,
    BoundaryMomenta,
    ExtremalSolution,
    boundary_momenta,
    hj_residuals,
    reparameterization_check,
    solve_extremal,
)
from .evolve import (
    EvolveParams,
    ExactPropagator,
    evolve_crank_nicolson,
    evolve_exact,
    evolve_strang,
    observables,
)
from .feynman import (
    PathIntegralSpec,
    TransferOperator,
    brute_force_amplitudes,
    brute_force_feynman,
    discrete_action,
    feynman_vs_schrodinger,
)
from .lagrangian import (
    HamiltonianDensity,
    LagrangianSpec,
    diagonal_density,
    legendre_transform,
    parse_lagrangian,
)
from .lattice import (
    GaussianStateSpec,
    LatticeConfig,
    WaveFunctional,
    free_ground_state_covariance,
    init_wavefunctional,
    inner,
    load_state,
    norm,
    normalize,
    save_state,
)
from .operators import LatticeHamiltonian, compile_hamiltonian
from .surface import (
    DeformationSchedule,
    SpacelikeSurface,
    SurfaceEvolver,
    integrability_test,
    local_density_operator,
)
