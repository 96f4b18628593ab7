"""Point quadrature on triangles: the reference the closed-form norms are
checked against.

The package integrates both majorant norms in closed form; these rules
evaluate the same integrals point by point, independently of that
algebra.
"""

import math

import numpy as np

from fria.mesh import build_unit_square, edge_signs
from reference_cellmaps import rt_divergence
from reference_mesh import finalize

# edge midpoints (barycentric points, weights summing to 1), exact for quadratics
MIDPOINT3 = (
    np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
    np.array([1.0, 1.0, 1.0]) / 3.0,
)


def gauss_collapsed(order):
    """Tensor Gauss-Legendre rule collapsed onto the reference triangle.

    Not polynomially sharp per point count, but converges spectrally for
    smooth integrands; order 12 is effectively exact in double precision
    for the trigonometric integrands used here.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    xi, eta = np.meshgrid(x, x, indexing="ij")
    wx, wy = np.meshgrid(w, w, indexing="ij")
    u = xi.ravel()
    v = (eta * (1.0 - xi)).ravel()
    weights = (wx * wy * (1.0 - xi)).ravel() * 2.0
    bary = np.column_stack((1.0 - u - v, u, v))
    return bary, weights


def physical_points(mesh, bary):
    """Map barycentric points onto every triangle.

    Returns an array of shape (num_triangles, num_points, 2).
    """
    corners = mesh.vertices[mesh.triangles]
    return np.einsum("kb,tbx->tkx", bary, corners)


def rt_values(field, bary):
    """Evaluate an RT0 field at barycentric points of every triangle.

    Returns an array of shape (num_triangles, num_points, 2).  Inside a
    triangle the field is sum_j dof_j s_j (x - p_j) / (2 |T|) with p_j
    the vertex opposite edge j and s_j the outward sign.
    """
    mesh = field.mesh
    corners = mesh.vertices[mesh.triangles]
    pts = physical_points(mesh, bary)
    coeff = field.dofs[mesh.tri_edges] * edge_signs(mesh, slice(None))
    coeff = coeff / (2.0 * mesh.areas[:, None])
    diff = pts[:, :, None, :] - corners[:, None, :, :]
    return np.einsum("tj,tkjx->tkx", coeff, diff)


def integrate(mesh, values, weights):
    """Per-triangle integrals of point values of shape (num_triangles, num_points)."""
    return np.einsum("tk,k,t->t", values, weights, mesh.areas)


def defect_by_rule(field, solution, alpha, rule):
    """||y - alpha grad u|| in the inverse-alpha inner product, by a rule."""
    bary, weights = rule
    a = np.asarray(alpha.matrix, dtype=float)
    diff = rt_values(field, bary) - (solution.gradients @ a.T)[:, None, :]
    dens = np.einsum("tkx,xy,tky->tk", diff, np.linalg.inv(a), diff)
    return math.sqrt(integrate(field.mesh, dens, weights).sum())


def residual_by_rule(field, f, rule):
    """||f + div y|| for a callable source f(x, y), by a rule."""
    bary, weights = rule
    pts = physical_points(field.mesh, bary)
    vals = f(pts[:, :, 0], pts[:, :, 1]) + rt_divergence(field)[:, None]
    return math.sqrt(integrate(field.mesh, vals * vals, weights).sum())


def rolled_square(n, first_corner):
    """The unit square mesh with every triangle listed from another corner."""
    square = build_unit_square(n)
    rolled = np.roll(square.triangles, first_corner, axis=1)
    return finalize(square.vertices, rolled, "square", n, n)


def tiny_triangle_soup():
    """200 disjoint counterclockwise right triangles with legs of 1e-7."""
    corners = np.random.default_rng(5).uniform(0.1, 0.9, size=(200, 1, 2))
    pts = (corners + np.array([[0.0, 0.0], [1e-7, 0.0], [0.0, 1e-7]])).reshape(-1, 2)
    return finalize(pts, np.arange(len(pts)).reshape(-1, 3), "square", 1, 1)
