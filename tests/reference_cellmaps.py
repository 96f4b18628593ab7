"""The per-cell maps of the certification path as full-array formulas: the
references the package's blocked evaluation is checked against, bit for
bit.

Each function builds every temporary the size of the whole mesh, as the
package did before it evaluated these maps in fixed blocks of rows.  The
arithmetic on each row is the same, and each total is one ``np.sum`` over
the full per-row array, so the results agree in every bit.
"""

import numpy as np

from fria.flux import RT0Field
from fria.mesh import edge_geometry, edge_signs

SOURCE_WAVES = np.array([[1.0, 1.0, 2.0, 2.0, 2.0, 0.0], [-1.0, 1.0, -2.0, 2.0, 0.0, 2.0]])


def edge_means(mesh, waves, trig):
    """Mean of trig(pi k.x) along every edge, for each column k of waves."""
    ends = np.take(mesh.vertices, mesh.edges, axis=0)
    mid = (0.5 * (ends[:, 0] + ends[:, 1])) @ waves
    step = (ends[:, 1] - ends[:, 0]) @ waves
    return trig(np.pi * mid) * np.sinc(0.5 * step)


def grad_u_integrals(mesh):
    """int_T grad u dA of u = sin(pi x) sin(pi y) on every triangle."""
    cosines = edge_means(mesh, np.array([[1.0, 1.0], [-1.0, 1.0]]), np.cos)
    lengths, normals = edge_geometry(mesh, slice(None))
    along = 0.5 * lengths * (cosines[:, 0] - cosines[:, 1])
    flux = along[:, None] * normals
    signs = edge_signs(mesh, slice(None))
    return np.einsum("te,tex->tx", signs, np.take(flux, mesh.tri_edges, axis=0))


def source_moments(mesh):
    """Cell mean of f = 2 pi^2 u and its oscillation on every triangle."""
    waves = SOURCE_WAVES
    lengths, normals = edge_geometry(mesh, slice(None))
    along = lengths[:, None] * edge_means(mesh, waves, np.sin)
    per_edge = along * (normals @ waves) / (np.pi * np.sum(waves * waves, axis=0))
    signs = edge_signs(mesh, slice(None))
    cosines = np.einsum("te,tek->tk", signs, np.take(per_edge, mesh.tri_edges, axis=0))
    integral = np.pi**2 * (cosines[:, 0] - cosines[:, 1])
    square = np.pi**4 * (
        mesh.areas + 0.5 * (cosines[:, 2] + cosines[:, 3]) - cosines[:, 4] - cosines[:, 5]
    )
    mean = integral / mesh.areas
    return mean, np.maximum(square - integral * mean, 0.0)


def rt_average(solution, alpha):
    """Edge average of the broken flux alpha grad u."""
    mesh = solution.mesh
    a = np.asarray(alpha.matrix, dtype=float)
    flux = solution.gradients @ a.T
    adj = mesh.edge_tris
    lengths, normals = edge_geometry(mesh, slice(None))
    qn = np.einsum("ekx,ex->ek", np.take(flux, adj, axis=0), normals)
    interior = adj[:, 1] >= 0
    mean = np.where(interior, 0.5 * (qn[:, 0] + qn[:, 1]), qn[:, 0])
    return RT0Field(mesh, lengths * mean)


def rt_divergence(field):
    """Per-triangle divergence of an RT0 field."""
    mesh = field.mesh
    signed = np.take(field.dofs, mesh.tri_edges) * edge_signs(mesh, slice(None))
    return signed.sum(axis=1) / mesh.areas


def residual_norm(field, f):
    """L2 norm of f + div y for a constant f or per-cell moments (mean, osc)."""
    mesh = field.mesh
    mean, osc = f if isinstance(f, tuple) else (float(f), 0.0)
    r = mean + rt_divergence(field)
    return float(np.sqrt(np.sum(mesh.areas * r * r + osc)))


def defect_norm(field, solution, alpha):
    """||y - alpha grad u|| in the inverse-alpha inner product."""
    mesh = field.mesh
    a = np.asarray(alpha.matrix, dtype=float)
    ainv = np.linalg.inv(a)
    corners = (np.take(mesh.vertices[:, k], mesh.triangles) for k in (0, 1))
    ex, ey = (c - ((c[:, 0] + c[:, 1] + c[:, 2]) / 3)[:, None] for c in corners)
    signed = np.take(field.dofs, mesh.tri_edges) * edge_signs(mesh, slice(None))
    coeff = signed / (2.0 * mesh.areas[:, None])
    flux = solution.gradients @ a.T
    dx, dy = (-np.einsum("tj,tj->t", coeff, e) - q for e, q in zip((ex, ey), flux.T))
    half_div = coeff.sum(axis=1)
    (ixx, ixy), (iyx, iyy) = ainv
    sxx, sxy, syy = (np.einsum("tj,tj->t", u, v) for u, v in ((ex, ex), (ex, ey), (ey, ey)))
    spread = (ixx * sxx + (ixy + iyx) * sxy + iyy * syy) / 12.0
    dens = ixx * dx * dx + (ixy + iyx) * dx * dy + iyy * dy * dy + half_div * half_div * spread
    return float(np.sqrt(np.sum(mesh.areas * dens)))
