"""Guaranteed constant bounds and a posteriori error certification.

Closed-form upper bounds for weighted Friedrichs and tangential Maxwell
constants on box-enclosed domains, a P1 diffusion solver with
Raviart-Thomas flux averaging feeding a functional error majorant, and
brute-force spectral / reference-error oracles that verify every bound.
"""

from . import manufactured
from .fem import P1Solution, SolverError, energy_norm, solve_diffusion
from .flux import RT0Field, flux_defect_norms, rt_average, rt_divergence
from .friedrichs import (
    BoundReport,
    BoundUnavailable,
    best_bound,
    coarse_bound,
    coercivity_threshold,
    diagonal_bound,
    full_bound,
    mikhlin_bound,
    semidef_bound,
    sharp_bound,
)
from .majorant import MajorantBreakdown, evaluate_majorant, run_refinement_experiment
from .maxwell import (
    MaxwellInput,
    maxwell_bound,
    maxwell_coarse,
    maxwell_diagonal,
    maxwell_from_parts,
    maxwell_full,
    poincare_convex_bound,
)
from .mesh import TriMesh, build_lshape, build_unit_square, dump_mesh, prolongation, validate
from .oracle import EigenEstimate, estimate_cfa, reference_energy_error
from .weights import (
    DiagonalWeight,
    DInterval,
    FullWeight,
    WeightError,
    largest_eigenvalue,
    parse_weight,
    smallest_eigenvalue,
    tilde_reduction,
)

__version__ = "0.1.0"
