"""Guaranteed constant bounds and a posteriori error certification.

Closed-form upper bounds for weighted Friedrichs and tangential Maxwell
constants on box-enclosed domains, a P1 diffusion solver with
Raviart-Thomas flux averaging feeding a functional error majorant, and
brute-force spectral / reference-error oracles that verify every bound.
"""

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
from .maxwell import (
    MaxwellInput,
    maxwell_bound,
    maxwell_coarse,
    maxwell_diagonal,
    maxwell_full,
)
from .weights import (
    DiagonalWeight,
    DInterval,
    FullWeight,
    WeightError,
    parse_weight,
    tilde_reduction,
)

__version__ = "0.1.0"

# These load numpy, which the closed-form bounds above never need, so they
# are imported on first access (PEP 562): ``import fria`` starts without it.
_ARRAY_NAMES = frozenset(
    """
    manufactured P1Solution SolverError energy_norm solve_diffusion
    RT0Field flux_defect_norms rt_average
    MajorantBreakdown evaluate_majorant run_refinement_experiment
    TriMesh build_lshape build_unit_square dump_mesh prolongation validate
    EigenEstimate estimate_cfa reference_energy_error
    """.split()
)


def __getattr__(name):
    # an unknown name must fail without loading numpy: the import system
    # probes the package this way for ``from fria import cli``
    if name not in _ARRAY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .fem import P1Solution, SolverError, energy_norm, solve_diffusion
    from .flux import RT0Field, flux_defect_norms, rt_average
    from .majorant import MajorantBreakdown, evaluate_majorant, run_refinement_experiment
    # binds the module ``manufactured`` here as a side effect; ``from . import
    # manufactured`` would probe this function for it again, without end
    from .manufactured import solve
    from .mesh import TriMesh, build_lshape, build_unit_square, dump_mesh, prolongation, validate
    from .oracle import EigenEstimate, estimate_cfa, reference_energy_error

    loaded = locals()
    globals().update((n, loaded[n]) for n in _ARRAY_NAMES if n in loaded)
    return globals()[name]


def __dir__():
    return sorted(globals().keys() | _ARRAY_NAMES)
