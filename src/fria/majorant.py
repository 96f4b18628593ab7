"""Functional a posteriori error majorant and the refinement experiment.

For any conforming approximation u~ and any H(div) flux y the energy
error is bounded by c~ ||f + div y|| + ||y - alpha grad u~||_inv, provided
c~ is an upper bound of the weighted Friedrichs constant.  The experiment
drives this majorant over a hierarchy of L-shape meshes with the flux
obtained by edge averaging.
"""

import math
from dataclasses import dataclass

from .fem import solve_diffusion
from .flux import flux_defect_norms, rt_average
from .mesh import build_lshape


@dataclass(frozen=True)
class MajorantBreakdown:
    """The two majorant terms and their certified combination."""

    residual_norm: float
    defect_norm: float
    total: float


def _positive(c_tilde):
    c_tilde = float(c_tilde)
    if not 0.0 < c_tilde < math.inf:
        raise ValueError(f"constant bound must be finite and positive, got {c_tilde}")
    return c_tilde


def _total(c_tilde, residual, defect):
    total = c_tilde * residual + defect
    if not math.isfinite(total):
        raise ValueError(f"majorant total for constant {c_tilde} left the float range")
    return total


def evaluate_majorant(c_tilde, solution, field, alpha, f):
    """Evaluate the error majorant for a given constant bound c~ and a
    source f that is a constant or its per-cell moments (mean, osc), as
    ``flux.residual_norm`` takes it."""
    c_tilde = _positive(c_tilde)
    residual, defect = flux_defect_norms(field, solution, alpha, f)
    return MajorantBreakdown(residual, defect, _total(c_tilde, residual, defect))


@dataclass(frozen=True)
class ExperimentRow:
    level: int
    elements: int
    majorants: tuple


def _certify_level(level, alpha, f, constants, sink):
    """One row of the experiment.  Its mesh, solution and flux die on return,
    so no level's arrays are alive while the next one is built."""
    mesh = build_lshape(level)
    solution = solve_diffusion(mesh, alpha, f)
    if sink is not None:
        sink(level, solution)
    field = rt_average(solution, alpha)
    residual, defect = flux_defect_norms(field, solution, alpha, f)
    totals = tuple(_total(c, residual, defect) for c in constants)
    return ExperimentRow(level, mesh.num_triangles, totals)


def run_refinement_experiment(levels, alpha, f, constants, sink=None):
    """Solve, average and certify on each L-shape level.

    Returns one row per level with the majorant total for every constant,
    ordered by level.  ``sink(level, solution)``, when given, receives
    each solved level (used by the CLI to export nodal values).  Both
    majorant norms are computed once per level and shared by all constants.
    """
    constants = [_positive(c) for c in constants]
    return [_certify_level(level, alpha, f, constants, sink) for level in levels]


# the printed 5-decimal constants the reference experiment uses
TABLE2_CONSTANTS = (22.50791, 0.31829)
