"""Manufactured smooth problem on the unit square for certification tests.

The exact solution is u = sin(pi x) sin(pi y) with unit diffusion and
source f = 2 pi^2 u.  The source enters the discrete load by nodal
interpolation with the standard lumped weights, and the majorant by its
cell moments.  Those moments and the energy error against the exact
solution evaluate in closed form: by the divergence theorem each
integral over a triangle is a sum of elementary trigonometric edge terms.
The edge terms are formed over blocks of ``mesh.BLOCK_ROWS`` edges, with
the lengths and normals of ``mesh.edge_geometry``, then summed per triangle,
with the signs of ``mesh.edge_signs``, over blocks of triangles, so no
temporary grows with the mesh beyond the per-edge terms and the
per-triangle results.  The closed forms hold on the unit square only; each
refuses any other mesh.
"""

import math

import numpy as np

from .fem import solve_diffusion
from .majorant import evaluate_majorant
from .mesh import edge_geometry, edge_signs, row_blocks
from .weights import DiagonalWeight

IDENTITY2 = DiagonalWeight((1.0, 1.0))

# squared energy norm of the exact solution, int |grad u|^2
EXACT_ENERGY_SQ = math.pi**2 / 2.0


def exact_solution(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def source(x, y):
    return 2.0 * np.pi**2 * exact_solution(x, y)


def _require_square(mesh):
    if mesh.domain != "square":
        raise ValueError("manufactured problem is posed on the unit square")


def solve(mesh):
    """P1 solve with the nodally interpolated, lumped source."""
    _require_square(mesh)
    return solve_diffusion(mesh, IDENTITY2, source)


def _edge_means(mesh, rows, waves, trig):
    """Mean of trig(pi k.x) along each edge of the block ``rows``, for each
    column k of waves.

    k.x is affine along an edge, so the mean of cos or sin of it is the
    value at the midpoint times sinc of half the increment.
    """
    ends = np.take(mesh.vertices, mesh.edges[rows], axis=0)
    # one coordinate at a time: a sum of the (e, 2) halves of ends loops over rows of two
    mid, step = np.empty((2, len(ends), 2))
    for k in (0, 1):
        np.add(ends[:, 0, k], ends[:, 1, k], out=mid[:, k])
        np.subtract(ends[:, 1, k], ends[:, 0, k], out=step[:, k])
    mid *= 0.5
    return trig(np.pi * (mid @ waves)) * np.sinc(0.5 * (step @ waves))


def _cell_sums(mesh, per_edge, rows):
    """Outward-signed sum of the per-edge terms over the edges of each
    triangle of the block ``rows``."""
    gathered = np.take(per_edge, mesh.tri_edges[rows], axis=0)
    return np.einsum("te,tek->tk", edge_signs(mesh, rows), gathered)


def grad_u_integrals(mesh):
    """Closed-form int_T grad u dA for every triangle of a triangulation of
    the unit square.

    By the divergence theorem int_T grad u = sum over the edges e of T of
    the outward normal times int_e u ds, with u = [cos pi(x-y) -
    cos pi(x+y)] / 2.  The edge terms, then the triangle sums, are formed
    block by block.
    """
    _require_square(mesh)
    waves = np.array([[1.0, 1.0], [-1.0, 1.0]])
    flux = np.empty((mesh.num_edges, 2))
    for rows in row_blocks(mesh.num_edges):
        cosines = _edge_means(mesh, rows, waves, np.cos)
        lengths, normals = edge_geometry(mesh, rows)
        along = 0.5 * lengths * (cosines[:, 0] - cosines[:, 1])
        flux[rows] = along[:, None] * normals
    integrals = np.empty((mesh.num_triangles, 2))
    for rows in row_blocks(mesh.num_triangles):
        integrals[rows] = _cell_sums(mesh, flux, rows)
    return integrals


def source_moments(mesh):
    """Closed-form cell mean of f and oscillation int_T (f - mean)^2 for
    every triangle of a triangulation of the unit square.

    f = pi^2 [cos pi(x-y) - cos pi(x+y)] and f^2 = pi^4 [1 + cos 2pi(x-y)/2
    + cos 2pi(x+y)/2 - cos 2pi x - cos 2pi y].  By the divergence theorem
    int_T cos(pi k.x) = sum_e (k.n_e) int_e sin(pi k.x) ds / (pi |k|^2)
    over the outward normals.  The edge terms, then the triangle sums, are
    formed block by block.  Rounding may leave a tiny negative oscillation;
    it is clamped to 0, which can only raise the majorant.
    """
    _require_square(mesh)
    waves = np.array([[1.0, 1.0, 2.0, 2.0, 2.0, 0.0], [-1.0, 1.0, -2.0, 2.0, 0.0, 2.0]])
    scale = np.pi * np.sum(waves * waves, axis=0)
    per_edge = np.empty((mesh.num_edges, waves.shape[1]))
    for rows in row_blocks(mesh.num_edges):
        lengths, normals = edge_geometry(mesh, rows)
        along = lengths[:, None] * _edge_means(mesh, rows, waves, np.sin)
        per_edge[rows] = along * (normals @ waves) / scale
    mean, osc = np.empty(mesh.num_triangles), np.empty(mesh.num_triangles)
    for rows in row_blocks(mesh.num_triangles):
        cosines = _cell_sums(mesh, per_edge, rows)
        area = mesh.areas[rows]
        integral = np.pi**2 * (cosines[:, 0] - cosines[:, 1])
        square = np.pi**4 * (
            area + 0.5 * (cosines[:, 2] + cosines[:, 3]) - cosines[:, 4] - cosines[:, 5]
        )
        mean[rows] = integral / area
        osc[rows] = np.maximum(square - integral * mean[rows], 0.0)
    return mean, osc


def exact_energy_error(solution):
    """Energy norm of u - u~ with the cross term in closed form."""
    mesh = solution.mesh
    g = solution.gradients
    cross = np.einsum("tx,tx->", g, grad_u_integrals(mesh))
    own = np.einsum("t,tx,tx->", mesh.areas, g, g, optimize=True)
    return float(math.sqrt(max(EXACT_ENERGY_SQ - 2.0 * cross + own, 0.0)))


def majorant_total(c_tilde, solution, field):
    """Error majorant of the smooth problem; the source enters the residual
    through its closed-form cell moments."""
    return evaluate_majorant(c_tilde, solution, field, IDENTITY2, source_moments(solution.mesh))
