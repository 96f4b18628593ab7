"""Lowest-order Raviart-Thomas flux reconstruction by edge averaging.

An RT0 field stores one degree of freedom per edge: the integral of the
normal component across that edge, signed by the mesh normal convention.
Normal continuity across interior edges then holds by construction, and
the per-triangle divergence follows exactly from the divergence theorem.
"""

from dataclasses import dataclass

import numpy as np

from .quadrature import MIDPOINT3, gauss_collapsed, physical_points

_QUAD_ORDER = 12  # collapsed Gauss rule of a callable source, 144 points per triangle


@dataclass
class RT0Field:
    """Edge-based H(div) conforming flux on a triangulation."""

    mesh: object
    dofs: np.ndarray


def rt_average(solution, alpha):
    """Average the broken flux alpha grad u onto the edges.

    Interior edges take the arithmetic mean of the two adjacent normal
    components; boundary edges take the one-sided trace.
    """
    mesh = solution.mesh
    a = np.asarray(alpha.matrix, dtype=float)
    flux = solution.gradients @ a.T
    adj = mesh.edge_tris
    qn = np.einsum("ekx,ex->ek", flux[adj], mesh.edge_normals)
    interior = adj[:, 1] >= 0
    mean = np.where(interior, 0.5 * (qn[:, 0] + qn[:, 1]), qn[:, 0])
    return RT0Field(mesh, mesh.edge_lengths * mean)


def rt_divergence(field):
    """Per-triangle divergence: outward-signed edge dofs over the area."""
    mesh = field.mesh
    signed = field.dofs[mesh.tri_edges] * mesh.tri_edge_signs
    return signed.sum(axis=1) / mesh.areas


def rt_values(field, bary):
    """Evaluate the field at barycentric points of every triangle.

    Returns an array of shape (num_triangles, num_points, 2).  Inside a
    triangle the field is sum_j dof_j s_j (x - p_j) / (2 |T|) with p_j
    the vertex opposite edge j and s_j the outward sign.
    """
    mesh = field.mesh
    corners = mesh.vertices[mesh.triangles]
    pts = physical_points(mesh, bary)
    coeff = field.dofs[mesh.tri_edges] * mesh.tri_edge_signs
    coeff = coeff / (2.0 * mesh.areas[:, None])
    diff = pts[:, :, None, :] - corners[:, None, :, :]
    return np.einsum("tj,tkjx->tkx", coeff, diff)


def residual_norm(field, f):
    """L2 norm of f + div y.

    A constant f leaves the integrand constant per cell, which the cell
    areas integrate exactly; a callable f(x, y) is integrated by the
    collapsed Gauss rule of order ``_QUAD_ORDER``.
    """
    mesh = field.mesh
    div = rt_divergence(field)
    if not callable(f):
        r = float(f) + div
        return float(np.sqrt(np.sum(mesh.areas * r * r)))
    bary, wq = gauss_collapsed(_QUAD_ORDER)
    pts = physical_points(mesh, bary)
    vals = f(pts[:, :, 0], pts[:, :, 1]) + div[:, None]
    return float(np.sqrt(np.einsum("tk,k,t->", vals * vals, wq, mesh.areas)))


def defect_norm(field, solution, alpha):
    """Weighted norm of the flux defect, ||y - alpha grad u|| in the
    inverse-alpha inner product.

    The integrand is quadratic (affine RT0 minus a constant), so the
    edge-midpoint rule integrates it exactly.
    """
    mesh = field.mesh
    a = np.asarray(alpha.matrix, dtype=float)
    try:
        ainv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise ValueError("weight matrix is singular") from None
    bary, wq = MIDPOINT3
    broken = solution.gradients @ a.T
    diff = rt_values(field, bary) - broken[:, None, :]
    dens = np.einsum("tkx,xy,tky->tk", diff, ainv, diff)
    total = np.einsum("tk,k,t->", dens, wq, mesh.areas)
    return float(np.sqrt(total))


def flux_defect_norms(field, solution, alpha, f):
    """The two majorant ingredients: (||f + div y||, ||y - alpha grad u||_inv).

    Raises ValueError when either norm leaves the float range.
    """
    if field.mesh is not solution.mesh:
        raise ValueError("flux and solution live on different meshes")
    with np.errstate(over="ignore", invalid="ignore"):
        norms = residual_norm(field, f), defect_norm(field, solution, alpha)
    if not np.all(np.isfinite(norms)):
        raise ValueError(f"majorant norms {norms[0]}, {norms[1]} left the float range")
    return norms
