"""Lowest-order Raviart-Thomas flux reconstruction by edge averaging.

An RT0 field stores one degree of freedom per edge: the integral of the
normal component across that edge, signed by the mesh normal convention.
Normal continuity across interior edges then holds by construction, and
the per-triangle divergence follows exactly from the divergence theorem.

Every map here is per edge or per triangle.  Edge averaging and the two
norms run over blocks of ``mesh.BLOCK_ROWS`` rows (``mesh.row_blocks``)
written into one full per-row array, so their temporaries are bounded by
the block, not by the mesh; a norm is one ``np.sum`` of its full density
array, which gives the bits of the whole-mesh formulas.  The outward signs
of a block's edges, and the lengths and normals of a block of edges, are
formed with it (``mesh.edge_signs``, ``mesh.edge_geometry``); the mesh holds
none of them.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import edge_geometry, edge_signs, row_blocks


@dataclass
class RT0Field:
    """Edge-based H(div) conforming flux on a triangulation."""

    mesh: object
    dofs: np.ndarray


def rt_average(solution, alpha):
    """Average the broken flux alpha grad u onto the edges, block by block.

    Interior edges take the arithmetic mean of the two adjacent normal
    components; boundary edges take the one-sided trace.
    """
    mesh = solution.mesh
    a = np.asarray(alpha.matrix, dtype=float)
    flux = solution.gradients @ a.T
    dofs = np.empty(mesh.num_edges)
    for rows in row_blocks(len(dofs)):
        adj = mesh.edge_tris[rows]
        # a boundary edge's missing neighbour -1 gathers the last row, which np.where drops
        q, (lengths, n) = np.take(flux, adj, axis=0), edge_geometry(mesh, rows)
        # one neighbour at a time: a product of (e, 2) parts of q loops over rows of two
        q0, q1 = (q[:, k, 0] * n[:, 0] + q[:, k, 1] * n[:, 1] for k in (0, 1))
        mean = np.where(adj[:, 1] >= 0, 0.5 * (q0 + q1), q0)
        dofs[rows] = lengths * mean
    return RT0Field(mesh, dofs)


def _signed_dofs(field, rows):
    """Outward-signed dofs of the edges of the triangles ``rows``, edge j
    opposite corner j."""
    mesh = field.mesh
    return np.take(field.dofs, mesh.tri_edges[rows]) * edge_signs(mesh, rows)


def _divergence(field, rows):
    return _signed_dofs(field, rows).sum(axis=1) / field.mesh.areas[rows]


def residual_norm(field, f):
    """L2 norm of f + div y.

    ``f`` is a constant or a pair ``(mean, osc)`` of per-triangle arrays:
    the cell mean of f and its oscillation, the integral of (f - mean)^2.
    As div y is constant per cell, the squared norm is the sum over cells
    of |T| (mean + div y)^2 + osc; a constant is the pair (f, 0).
    """
    mesh = field.mesh
    mean, osc = f if isinstance(f, tuple) else (float(f), 0.0)
    mean, osc = (np.broadcast_to(v, mesh.num_triangles) for v in (mean, osc))
    dens = np.empty(mesh.num_triangles)
    for rows in row_blocks(len(dens)):
        r = mean[rows] + _divergence(field, rows)
        dens[rows] = mesh.areas[rows] * r * r + osc[rows]
    return float(np.sqrt(np.sum(dens)))


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
    # the quadratic forms of alpha^-1, written out
    (ixx, ixy), (iyx, iyy) = ainv
    dens = np.empty(mesh.num_triangles)
    for rows in row_blocks(len(dens)):
        # e_j by components, the centroid summed in mean(axis=1)'s order
        corners = np.take(mesh.vertices, mesh.triangles[rows], axis=0).transpose(2, 0, 1)
        ex, ey = (c - ((c[:, 0] + c[:, 1] + c[:, 2]) / 3)[:, None] for c in corners)
        area = mesh.areas[rows]
        # coefficient of (x - p_j) for the vertex p_j opposite edge j
        coeff = _signed_dofs(field, rows) / (2.0 * area[:, None])
        flux = solution.gradients[rows] @ a.T
        dx, dy = (-np.einsum("tj,tj->t", coeff, e) - q for e, q in zip((ex, ey), flux.T))
        half_div = coeff.sum(axis=1)
        sxx, sxy, syy = (np.einsum("tj,tj->t", u, v) for u, v in ((ex, ex), (ex, ey), (ey, ey)))
        spread = (ixx * sxx + (ixy + iyx) * sxy + iyy * syy) / 12.0
        dens[rows] = area * (
            ixx * dx * dx + (ixy + iyx) * dx * dy + iyy * dy * dy + half_div * half_div * spread
        )
    return float(np.sqrt(np.sum(dens)))


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
