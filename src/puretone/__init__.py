"""Pure-tone modes of 1-D compressible Euler over non-constant entropy profiles.

The package computes Sturm-Liouville eigenfrequencies and transfer matrices
for piecewise-C1 wavespeed profiles, detects resonance through small
divisors, evolves the nonlinear scalar law pseudospectrally in the material
coordinate, and perturbs nonresonant linear modes into approximate nonlinear
time-periodic solutions assembled into space-time tiles by reflection.
"""

__version__ = "0.1.0"

from .eos import GammaLawEos
from .errors import (
    BoundaryResidualError,
    DomainError,
    IntegrationError,
    NumericalError,
    PureToneError,
    ResonanceError,
    ShockProximityError,
    SolverError,
)
from .profile import (
    JumpAngleParams,
    PiecewiseConstantProfile,
    SmoothPiece,
    SmoothProfile,
    constant_profile,
    from_jump_angles,
    load_profile,
    profile_hash,
    save_profile,
    sigma_integral,
    to_jump_angles,
)
from .spectrum import (
    DivisorTable,
    EigenFrequency,
    ResonanceReport,
    divisors,
    eigen_ladder,
    eigen_solve,
    genericity_mc,
    kappa,
    resonance_scan,
)
from .evolve import (
    EvolutionConfig,
    FourierField,
    linearized_evolve,
    nonlinear_evolve,
    second_derivative_quiet,
    weighted_norm,
)
from .linwave import (
    LinearMode,
    TileField,
    eigenfunction_profiles,
    extend_tile,
    mode_field,
    nonlinear_tile,
)
from .bifurcate import (
    BifurcationProblem,
    BranchResult,
    PureToneSolution,
    branch_continue,
    dgdz_check,
    solve_at_alpha,
)
