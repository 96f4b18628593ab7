"""Manufactured smooth problem on the unit square for certification tests.

The exact solution is u = sin(pi x) sin(pi y) with unit diffusion and
source f = 2 pi^2 u.  The source enters the discrete load by nodal
interpolation with the standard lumped weights.  The energy error against
the exact solution evaluates in closed form: the gradient of u integrates
over any triangle to a sum of elementary trigonometric edge terms.
"""

import math

import numpy as np

from .fem import lumped_load, solve_dirichlet
from .flux import defect_norm, rt_divergence
from .majorant import MajorantBreakdown, _positive, _total
from .quadrature import gauss_collapsed, integrate, physical_points
from .weights import DiagonalWeight

IDENTITY2 = DiagonalWeight((1.0, 1.0))

# squared energy norm of the exact solution, int |grad u|^2
EXACT_ENERGY_SQ = math.pi**2 / 2.0
_QUAD_ORDER = 12  # collapsed Gauss rule of the residual, 144 points per triangle


def exact_solution(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def source(x, y):
    return 2.0 * np.pi**2 * exact_solution(x, y)


def solve(mesh):
    """P1 solve with the nodally interpolated, lumped source."""
    if mesh.domain != "square":
        raise ValueError("manufactured problem is posed on the unit square")
    nodal_f = source(mesh.vertices[:, 0], mesh.vertices[:, 1])
    return solve_dirichlet(mesh, IDENTITY2, lumped_load(mesh, nodal_f))


def grad_u_integrals(mesh):
    """Closed-form int_T grad u dA for every triangle of a triangulation of
    the unit square.

    By the divergence theorem int_T grad u = sum over the edges e of T of
    the outward normal times int_e u ds.  With u = [cos pi(x-y) -
    cos pi(x+y)] / 2 both x - y and x + y are affine along an edge, so the
    edge mean of each cosine is its midpoint value times sinc(increment/2).
    """
    ends = mesh.vertices[mesh.edges]
    rotate = np.array([[1.0, 1.0], [-1.0, 1.0]])  # (x, y) -> (x - y, x + y)
    mid = (0.5 * (ends[:, 0] + ends[:, 1])) @ rotate
    step = (ends[:, 1] - ends[:, 0]) @ rotate
    cosines = np.cos(np.pi * mid) * np.sinc(0.5 * step)
    along = 0.5 * mesh.edge_lengths * (cosines[:, 0] - cosines[:, 1])
    flux = along[:, None] * mesh.edge_normals
    return np.einsum("te,tex->tx", mesh.tri_edge_signs, flux[mesh.tri_edges])


def exact_energy_error(solution):
    """Energy norm of u - u~ with the cross term in closed form."""
    mesh = solution.mesh
    g = solution.gradients
    cross = np.einsum("tx,tx->", g, grad_u_integrals(mesh))
    own = np.einsum("t,tx,tx->", mesh.areas, g, g)
    return float(math.sqrt(max(EXACT_ENERGY_SQ - 2.0 * cross + own, 0.0)))


def majorant_total(c_tilde, solution, field):
    """Error majorant with the smooth source integrated by high-order
    quadrature (the residual integrand is no longer piecewise constant)."""
    c_tilde = _positive(c_tilde)
    mesh = solution.mesh
    bary, wq = gauss_collapsed(_QUAD_ORDER)
    pts = physical_points(mesh, bary)
    div = rt_divergence(field)
    vals = source(pts[:, :, 0], pts[:, :, 1]) + div[:, None]
    residual = float(np.sqrt(integrate(mesh, vals * vals, wq)))
    defect = defect_norm(field, solution, IDENTITY2)
    return MajorantBreakdown(c_tilde, residual, defect, _total(c_tilde, residual, defect))
