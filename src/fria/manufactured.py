"""Manufactured smooth problem on the unit square for certification tests.

The exact solution is u = sin(pi x) sin(pi y) with unit diffusion and
source f = 2 pi^2 u.  The source enters the discrete load by nodal
interpolation with the standard lumped weights.  The energy error against
the exact solution evaluates in closed form: the gradient of u integrates
over every grid triangle to elementary trigonometric boundary terms.
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


def _edge_integral_horizontal(x0, x1, y):
    # int_{x0}^{x1} u(x, y) dx
    return np.sin(np.pi * y) * (np.cos(np.pi * x0) - np.cos(np.pi * x1)) / np.pi


def _edge_integral_vertical(y0, y1, x):
    return np.sin(np.pi * x) * (np.cos(np.pi * y0) - np.cos(np.pi * y1)) / np.pi


def _edge_integral_diagonal(x0, y0, h):
    # line integral of u along (x0 + t, y0 + t), t in [0, h]
    s = x0 + y0
    inner = h * np.cos(np.pi * (x0 - y0)) - (
        np.sin(np.pi * (s + 2.0 * h)) - np.sin(np.pi * s)
    ) / (2.0 * np.pi)
    return math.sqrt(2.0) * 0.5 * inner


def grad_u_integrals(mesh):
    """Closed-form int_T grad u dA for every triangle of a square grid mesh.

    Evaluated as the boundary integral of u times the outward normal over
    the three edges of each (axis-aligned right) triangle.
    """
    tris = mesh.triangles
    p0 = mesh.vertices[tris[:, 0]]
    p1 = mesh.vertices[tris[:, 1]]
    lower = np.isclose(p1[:, 1], p0[:, 1])
    x0, y0 = p0[:, 0], p0[:, 1]
    # second vertex is (x0+h, y0) on lower and (x0+h, y0+h) on upper cells
    h = p1[:, 0] - p0[:, 0]
    diag = _edge_integral_diagonal(x0, y0, h)
    over_sqrt2 = diag / math.sqrt(2.0)
    out = np.empty((mesh.num_triangles, 2))
    # lower triangle (x0,y0)-(x0+h,y0)-(x0+h,y0+h): bottom, right, diagonal
    gx_lo = _edge_integral_vertical(y0, y0 + h, x0 + h) - over_sqrt2
    gy_lo = -_edge_integral_horizontal(x0, x0 + h, y0) + over_sqrt2
    # upper triangle (x0,y0)-(x0+h,y0+h)-(x0,y0+h): diagonal, top, left
    gx_up = over_sqrt2 - _edge_integral_vertical(y0, y0 + h, x0)
    gy_up = _edge_integral_horizontal(x0, x0 + h, y0 + h) - over_sqrt2
    out[:, 0] = np.where(lower, gx_lo, gx_up)
    out[:, 1] = np.where(lower, gy_lo, gy_up)
    return out


def exact_energy_error(solution):
    """Energy norm of u - u~ with the cross term in closed form."""
    mesh = solution.mesh
    g = solution.gradients
    cross = np.einsum("tx,tx->", g, grad_u_integrals(mesh))
    own = np.einsum("t,tx,tx->", mesh.areas, g, g)
    return float(math.sqrt(max(EXACT_ENERGY_SQ - 2.0 * cross + own, 0.0)))


def majorant_total(c_tilde, solution, field, quad_order=12):
    """Error majorant with the smooth source integrated by high-order
    quadrature (the residual integrand is no longer piecewise constant)."""
    c_tilde = _positive(c_tilde)
    mesh = solution.mesh
    bary, wq = gauss_collapsed(quad_order)
    pts = physical_points(mesh, bary)
    div = rt_divergence(field)
    vals = source(pts[:, :, 0], pts[:, :, 1]) + div[:, None]
    residual = float(np.sqrt(integrate(mesh, vals * vals, wq)))
    defect = defect_norm(field, solution, IDENTITY2)
    return MajorantBreakdown(c_tilde, residual, defect, _total(c_tilde, residual, defect))
