"""P1 Galerkin assembly and solve for the diffusion problem.

The stiffness integrand is constant per triangle, so assembly is exact.
Homogeneous Dirichlet conditions are imposed by eliminating boundary rows
and columns, which keeps the reduced system exactly symmetric positive
definite.  The solver is conjugate gradients with a line-relaxation
preconditioner and a deterministic, fixed-order accumulation; the eigenvalue
oracle takes the same system with a V-cycle that smooths by that relaxation.
"""

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .weights import FullWeight, largest_eigenvalue

# relative residual of the Galerkin solves
RTOL = 1e-10
_ITERS_PER_UNKNOWN = 10  # CG iteration budget
# V-cycle: damping of the line smoother, and the most unknowns of a level
# that is coarsened no further and solved by a dense factor
_OMEGA = 0.7
_COARSEST = 300


class SolverError(RuntimeError):
    """Iterative solve failed (non-convergence or indefinite system)."""


@dataclass
class P1Solution:
    """Nodal P1 field; its per-triangle constant ``gradients`` are derived
    from ``values`` on first read and cached."""

    mesh: object
    values: np.ndarray
    iterations: int = 0
    residual: float = 0.0

    @cached_property
    def gradients(self):
        return np.einsum("tj,tjx->tx", np.take(self.values, self.mesh.triangles), self.mesh.grads)


def _scatter(mesh, diagonal, edge_share):
    """The global CSR matrix from each triangle's (nt, 3) diagonal entries and
    its (nt, 3) shares of its edges' entries, edge j opposite local vertex j.

    A P1 matrix is nonzero only on the diagonal and on the edges, so the COO
    holds nv + 2 ne entries: each vertex's diagonal summed over ``triangles``,
    and each edge's entry summed over ``tri_edges``, stored once per edge and
    mirrored through ``edges``; ``np.bincount`` adds in triangle order.  The
    indices are int32, as scipy stores the CSR indices of fewer than 2**31
    vertices."""
    import scipy.sparse as sp  # here, not at the top: the closed-form bounds never need it

    nv = mesh.num_vertices
    own = np.arange(nv, dtype=np.int32)
    lo, hi = mesh.edges.T
    shared = np.bincount(mesh.tri_edges.ravel(), edge_share.ravel(), mesh.num_edges)
    data = np.concatenate((np.bincount(mesh.triangles.ravel(), diagonal.ravel(), nv), shared, shared))
    del shared
    coo = sp.coo_matrix((data, (np.concatenate((own, lo, hi)), np.concatenate((own, hi, lo)))), (nv, nv))
    return coo.tocsr()


def assemble_stiffness(mesh, alpha):
    """Full (Neumann) stiffness with entries int_T (alpha grad phi_j) . grad phi_i."""
    a = np.asarray(alpha.matrix, dtype=float)
    if a.shape != (2, 2):
        raise ValueError("diffusion assembly needs a 2x2 weight")
    g = mesh.grads
    ga = g @ a

    def local(i, j):  # |T| (G alpha G^T)_ij of every triangle
        return (ga[:, i, None, :] @ g[:, j, :, None])[:, 0, 0] * mesh.areas

    diagonal = np.column_stack([local(j, j) for j in range(3)])
    # the mean of the two orders makes the matrix exactly symmetric despite rounding
    edge = np.column_stack(
        [0.5 * (local((j + 1) % 3, (j + 2) % 3) + local((j + 2) % 3, (j + 1) % 3)) for j in range(3)]
    )
    del ga
    return _scatter(mesh, diagonal, edge)


def assemble_mass(mesh):
    """Consistent P1 mass matrix (exact, not lumped): |T| 2/12 on the diagonal
    and |T| 1/12 on the edges of each triangle."""
    share = np.repeat(mesh.areas[:, None] * (1.0 / 12.0), 3, axis=1)
    return _scatter(mesh, 2.0 * share, share)


def lumped_load(mesh, nodal_f):
    """Load vector sum_T |T|/3 f(v_i), exact for constant f."""
    shares = np.repeat(mesh.areas / 3.0, 3)
    return np.bincount(mesh.triangles.ravel(), shares, mesh.num_vertices) * nodal_f


def reduce_system(matrix, mesh):
    """Eliminate boundary rows/columns; returns the CSR system over the
    interior vertices."""
    free = mesh.interior_vertices
    return matrix[free][:, free]


def line_preconditioner(a, mesh, alpha):
    """``apply(r)``: exact solves with the principal submatrices of the reduced
    system ``a`` on the grid lines along alpha's larger diagonal entry (x on a
    tie).  These blocks are tridiagonal, so the preconditioner is SPD whenever
    ``a`` is, and a nonpositive LDL^T pivot proves ``a`` indefinite.  Line j
    is column j of a grid padded with a unit diagonal."""
    along = int(alpha.matrix[1][1] > alpha.matrix[0][0])
    coords = mesh.vertices[mesh.interior_vertices]
    order = np.lexsort((coords[:, along], coords[:, 1 - along]))
    _, start, line = np.unique(coords[order, 1 - along], return_index=True, return_inverse=True)
    within = np.arange(len(order)) - start[line]
    width, lines = within.max(initial=-1) + 1, len(start)
    slot = np.empty(len(order), dtype=np.int64)
    slot[order] = within * lines + line
    # low: each vertex's coupling to the previous one on its line, then L's entry
    piv, low = np.ones((width, lines)), np.zeros((width, lines))
    piv.reshape(-1)[slot] = a.diagonal()
    couplings = np.asarray(a[order[:-1], order[1:]]).ravel()
    low.reshape(-1)[slot[order[1:]]] = np.where(line[1:] == line[:-1], couplings, 0.0)
    for i in range(width):
        if not np.all(piv[i] > 0.0):
            raise SolverError("stiffness is not positive definite")
        if i + 1 < width:
            low[i + 1] /= piv[i]
            piv[i + 1] -= low[i + 1] * low[i + 1] * piv[i]
    with np.errstate(over="ignore"):
        inv_piv = 1.0 / piv
    if not np.all(np.isfinite(inv_piv)):
        raise SolverError("stiffness pivot too small to invert in floating point")
    grid = np.zeros((width, lines))  # padded slots stay 0 through every sweep
    flat = grid.reshape(-1)
    # (row, its neighbour on the sweep's near side, their factor entries)
    forward = list(zip(grid[1:], grid[:-1], low[1:]))
    backward = list(zip(grid[-2::-1], grid[:0:-1], low[:0:-1]))

    def apply(r):
        flat[slot] = r
        for row, near, l in forward:
            row -= l * near
        np.multiply(grid, inv_piv, out=grid)
        for row, near, l in backward:
            row -= l * near
        return np.take(flat, slot)

    return apply


def _levels(mesh, alpha):
    """``(s, levels)``: the V-cycle's levels from ``mesh`` down, each
    ``(k, smooth, p, r)``.  k and smooth are ``dirichlet_stiffness`` of the
    level's mesh, so all levels share the scale s; p and r are the interior
    prolongation from the next level and its transpose, read from
    ``TriMesh.coarser``, and None on the last level.  Coarsening stops at
    ``_COARSEST`` unknowns or at a mesh with no coarser one.  Below the first
    level, a last level of at most ``_COARSEST`` unknowns is solved by a dense
    Cholesky factor in place of its line apply."""
    s, k, smooth = dirichlet_stiffness(mesh, alpha)
    levels = []
    fine = mesh
    while k.shape[0] > _COARSEST and (link := fine.coarser) is not None:
        fine, p, r = link
        levels.append((k, smooth, p, r))
        _, k, smooth = dirichlet_stiffness(fine, alpha)
    if levels and k.shape[0] <= _COARSEST:
        try:
            root = np.linalg.inv(np.linalg.cholesky(k.toarray()))
        except np.linalg.LinAlgError:
            raise SolverError("stiffness is not positive definite") from None
        smooth = (root.T @ root).dot  # the inverse of k
    levels.append((k, smooth, None, None))
    return s, levels


def _cycle(levels, r):
    """One symmetric V(1,1) cycle on the residual r: every level but the last
    is smoothed by its apply damped by ``_OMEGA`` before and after the
    correction from the next level, to which residuals move by its r; the last
    level's apply solves.  The cycle is one loop over a list: a closure calling
    itself would keep the levels in a reference cycle until the cyclic
    collector ran."""
    *upper, (_, solve, _, _) = levels
    down = []
    for k, smooth, _, restrict in upper:
        x = _OMEGA * smooth(r)
        down.append((r, x))
        r = restrict @ (r - k @ x)
    x = solve(r)
    for (k, smooth, p, _), (r, before) in zip(upper[::-1], down[::-1]):
        x = before + p @ x
        x += _OMEGA * smooth(r - k @ x)
    return x


def multigrid_stiffness(mesh, alpha):
    """``dirichlet_stiffness`` with a symmetric V(1,1) cycle over ``_levels``
    as ``precondition``; with no coarser level, a one-level cycle: the line
    apply.  Only the weight-dependent part is built here: the meshes and
    transfers come from the ``TriMesh.coarser`` chain, built once per mesh."""
    s, levels = _levels(mesh, alpha)
    return s, levels[0][0], partial(_cycle, levels)


@np.errstate(over="ignore", invalid="ignore")
def conjugate_gradients(a, b, precondition):
    """CG on the CSR matrix ``a`` with ``z = precondition(r)`` to a relative
    residual of ``RTOL`` within ``_ITERS_PER_UNKNOWN`` iterations per unknown.

    Raises :class:`SolverError` on non-convergence, if an inner product
    leaves the float range, or if a search direction sees nonpositive
    curvature (indefinite matrix).
    """
    n = a.shape[0]
    maxiter = _ITERS_PER_UNKNOWN * n
    norm_b = np.linalg.norm(b)
    x = np.zeros(n)
    if norm_b == 0.0:
        return x, 0
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = r @ z
    for k in range(1, maxiter + 1):
        ap = a @ p
        pap = p @ ap
        if not (math.isfinite(rz) and math.isfinite(pap)):
            raise SolverError(f"CG inner product left the float range at iteration {k}")
        if pap <= 0.0:
            raise SolverError(f"nonpositive curvature at iteration {k}: system not PD")
        step = rz / pap
        x += step * p
        r -= step * ap
        if np.linalg.norm(r) <= RTOL * norm_b:
            return x, k
        z = precondition(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(f"CG did not reach rtol={RTOL} within {maxiter} iterations")


def dirichlet_stiffness(mesh, alpha):
    """``(s, k, precondition)``: the reduced stiffness ``k`` of alpha / s and its
    line preconditioner, for the power of two s <= lambda_max(alpha) < 2 s.
    Any weight magnitude thus stays in float range, and every product with
    ``k`` and every apply is exactly 1/s of the unscaled one."""
    top = largest_eigenvalue(alpha)
    if not top > 0.0:
        raise SolverError(f"weight has no positive eigenvalue (largest {top})")
    s = math.ldexp(1.0, math.frexp(top)[1] - 1)
    scaled = FullWeight(tuple(tuple(a / s for a in row) for row in alpha.matrix))
    k = reduce_system(assemble_stiffness(mesh, scaled), mesh)
    return s, k, line_preconditioner(k, mesh, scaled)


def solve_diffusion(mesh, alpha, f):
    """Galerkin solution of the diffusion problem with source f: a constant,
    or a callable f(x, y) interpolated at the vertices."""
    nodal_f = f(mesh.vertices[:, 0], mesh.vertices[:, 1]) if callable(f) else float(f)
    free = mesh.interior_vertices
    b = lumped_load(mesh, nodal_f)[free]
    s, k, precondition = dirichlet_stiffness(mesh, alpha)
    x, iters = conjugate_gradients(k, b, precondition)  # s times the solution
    values = np.zeros(mesh.num_vertices)
    with np.errstate(over="ignore"):
        values[free] = x / s
    if not np.all(np.isfinite(values)):
        raise SolverError(f"solution overflows when scaled back from the weight scale {s}")
    scale = np.linalg.norm(b)
    rel = np.linalg.norm(b - k @ x) / scale if scale > 0.0 else 0.0
    return P1Solution(mesh, values, iters, rel)


def energy_norm(solution, alpha):
    """Weighted energy norm sqrt(sum_T |T| g^T alpha g), exact for P1."""
    a = np.asarray(alpha.matrix, dtype=float)
    g = solution.gradients
    return float(np.sqrt(np.einsum("t,ta,ab,tb->", solution.mesh.areas, g, a, g, optimize=True)))
