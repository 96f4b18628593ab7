"""Lowest-order Raviart-Thomas flux reconstruction by edge averaging.

An RT0 field stores one degree of freedom per edge: the integral of the
normal component across that edge, signed by the mesh normal convention.
Normal continuity across interior edges then holds by construction, and
the per-triangle divergence follows exactly from the divergence theorem.
"""

from dataclasses import dataclass

import numpy as np


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
    # a boundary edge's missing neighbour -1 gathers the last row, which np.where drops
    qn =np.einsum("ekx,ex->ek", np.take(flux, adj, axis=0), mesh.edge_normals)
    interior = adj[:, 1] >= 0
    mean = np.where(interior, 0.5 * (qn[:, 0] + qn[:, 1]), qn[:, 0])
    return RT0Field(mesh, mesh.edge_lengths * mean)


def rt_divergence(field):
    """Per-triangle divergence: outward-signed edge dofs over the area."""
    mesh = field.mesh
    signed = np.take(field.dofs, mesh.tri_edges) * mesh.tri_edge_signs
    return signed.sum(axis=1) / mesh.areas


def residual_norm(field, f):
    """L2 norm of f + div y.

    ``f`` is a constant or a pair ``(mean, osc)`` of per-triangle arrays:
    the cell mean of f and its oscillation, the integral of (f - mean)^2.
    As div y is constant per cell, the squared norm is the sum over cells
    of |T| (mean + div y)^2 + osc; a constant is the pair (f, 0).
    """
    mesh = field.mesh
    mean, osc = f if isinstance(f, tuple) else (float(f), 0.0)
    r = mean + rt_divergence(field)
    return float(np.sqrt(np.sum(mesh.areas * r * r + osc)))


def defect_norm(field, solution, alpha):
    """Weighted norm of the flux defect, ||y - alpha grad u|| in the
    inverse-alpha inner product, in closed form per triangle.

    On a triangle the RT0 field is y_c + (div y / 2)(x - x_c) with y_c its
    centroid value, and the linear part has zero mean, so the integral is
    |T| d^T alpha^-1 d + (div y)^2 / 4 * |T| / 12 * sum_j e_j^T alpha^-1 e_j
    with d = y_c - alpha grad u and e_j = p_j - x_c for the corners p_j.
    """
    mesh = field.mesh
    a = np.asarray(alpha.matrix, dtype=float)
    try:
        ainv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise ValueError("weight matrix is singular") from None
    # e_j by components, the centroid summed in mean(axis=1)'s order; each
    # (t, 3) corner gather and each product below is dropped once read, which
    # keeps this step below the solve's peak memory
    corners = (np.take(mesh.vertices[:, k], mesh.triangles) for k in (0, 1))
    ex, ey = (c - ((c[:, 0] + c[:, 1] + c[:, 2]) / 3)[:, None] for c in corners)
    # coefficient of (x - p_j) for the vertex p_j opposite edge j
    coeff = np.take(field.dofs, mesh.tri_edges) * mesh.tri_edge_signs / (2.0 * mesh.areas[:, None])
    flux = solution.gradients @ a.T
    dx, dy = (-np.einsum("tj,tj->t", coeff, e) - q for e, q in zip((ex, ey), flux.T))
    half_div = coeff.sum(axis=1)
    del flux, coeff
    # the quadratic forms of alpha^-1, written out
    (ixx, ixy), (iyx, iyy) = ainv
    sxx, sxy, syy = (np.einsum("tj,tj->t", u, v) for u, v in ((ex, ex), (ex, ey), (ey, ey)))
    del ex, ey
    spread = (ixx * sxx + (ixy + iyx) * sxy + iyy * syy) / 12.0
    del sxx, sxy, syy
    dens = ixx * dx * dx + (ixy + iyx) * dx * dy + iyy * dy * dy + half_div * half_div * spread
    return float(np.sqrt(np.sum(mesh.areas * dens)))


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
