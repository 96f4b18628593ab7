"""P1 Galerkin assembly and solve for the diffusion problem.

The stiffness integrand is constant per triangle, so assembly is exact.
Every system is the homogeneous Dirichlet one, on the interior vertices
alone: the boundary rows and columns are never assembled, which keeps it
exactly symmetric positive definite.  Its matrices are gathered from
per-vertex and per-edge sums into the interior CSR pattern that scipy's COO
to CSR conversion sorts (``_pattern``), which no weight enters.  The sums
run over blocks of ``mesh.BLOCK_ROWS`` triangles, each block's basis
gradients formed there (``mesh.basis_gradients``), so no per-triangle entry
array spans the mesh, the CSR values are gathered from the sums in blocks
too, and a solution's gradients are formed the same way;
``Dirichlet.stiffness`` assembles the stiffness on it with its
line-relaxation preconditioner.  The solver is conjugate gradients; its
results repeat bit for bit at a fixed BLAS thread count, as numpy's dot
products and norms split their sums across threads (ROADMAP item 2).  The
eigenvalue oracle takes the same system with a V-cycle that smooths by that
relaxation.
"""

import math
import weakref
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import SolverError
from .mesh import basis_gradients, row_blocks

# relative residual of the Galerkin solves
RTOL = 1e-10
_ITERS_PER_UNKNOWN = 10  # CG iteration budget
# V-cycle: damping of the line smoother, and the most unknowns of a level
# that is coarsened no further and solved by a dense factor
_OMEGA = 0.7
_COARSEST = 300


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
        mesh = self.mesh
        gradients = np.empty((mesh.num_triangles, 2))
        for rows in row_blocks(len(gradients)):
            corners = np.take(self.values, mesh.triangles[rows])
            gradients[rows] = np.einsum("tj,tjx->tx", corners, basis_gradients(mesh, rows))
        return gradients


def _pattern(mesh):
    """``(indptr, indices, gather)``: the canonical CSR pattern of a P1 matrix
    over the interior vertices, numbered in order, and for each entry the
    index of its value in ``_sums``: the vertex's own sum on the diagonal,
    edge e's at ``nv + e`` off it.

    A P1 matrix is nonzero only on the diagonal and on the edges, so the
    triplets are the diagonal, each interior edge (i, j) and its mirror (j, i);
    scipy's COO to CSR conversion sorts each row by column.  All arrays are
    int32, as scipy stores the CSR indices of fewer than 2**31 vertices."""
    import scipy.sparse as sp  # here, not at the top: the closed-form bounds never need it

    nv = mesh.num_vertices
    keep = ~mesh.boundary_vertex
    renumber = np.cumsum(keep, dtype=np.int32) - 1
    n = int(renumber[-1]) + 1 if nv else 0
    lo, hi = mesh.edges.T
    kept = np.flatnonzero(np.take(keep, lo) & np.take(keep, hi))
    m = len(kept)
    # filled in place: concatenated parts raised the peak RSS of later work
    rows, cols, gather = np.empty((3, n + 2 * m), dtype=np.int32)
    rows[:n] = cols[:n] = np.arange(n, dtype=np.int32)
    gather[:n] = np.flatnonzero(keep)
    np.take(renumber, np.take(lo, kept), out=rows[n : n + m])
    np.take(renumber, np.take(hi, kept), out=cols[n : n + m])
    np.add(kept, nv, out=gather[n : n + m])
    del kept  # before the CSR arrays are made
    rows[n + m :], cols[n + m :] = cols[n : n + m], rows[n : n + m]  # each edge's mirror
    gather[n + m :] = gather[n : n + m]
    csr = sp.csr_matrix((gather, (rows, cols)), shape=(n, n))
    return csr.indptr, csr.indices, csr.data


def _stiffness_entries(mesh, a):
    """``entries(rows)`` of the stiffness of the (2, 2) float array ``a``: for
    the triangles ``rows``, their diagonal entries |T| (G a G^T)_jj and their
    shares of their edges' entries, edge j opposite local vertex j: the mean
    of |T| (G a G^T)_ik and _ki over its other two vertices i and k, which
    makes the matrix exactly symmetric despite rounding."""

    def entries(rows):
        g = basis_gradients(mesh, rows)
        ga = [g[:, i] @ a for i in range(3)]  # the rows of G a

        def local(i, j):  # |T| (G a G^T)_ij of every triangle
            return (ga[i][:, None, :] @ g[:, j, :, None])[:, 0, 0] * mesh.areas[rows]

        diagonal = np.column_stack([local(i, i) for i in range(3)])
        edge = np.zeros_like(diagonal)
        for i in range(3):
            edge[:, (i + 2) % 3] += local(i, (i + 1) % 3)
            edge[:, (i + 1) % 3] += local(i, (i + 2) % 3)
        edge *= 0.5
        return diagonal, edge

    return entries


def _mass_entries(mesh):
    """``entries(rows)`` of the consistent mass: |T| 2/12 on the diagonal and
    |T| 1/12 on the edges of the triangles ``rows``."""

    def entries(rows):
        share = np.repeat(mesh.areas[rows] * (1.0 / 12.0), 3)
        return 2.0 * share, share

    return entries


def _sums(mesh, entries):
    """Each vertex's sum over ``triangles`` of the diagonal entries, and each
    edge's sum over ``tri_edges`` of the edge entries, that ``entries(rows)``
    gives for each block of triangles ``rows`` (``mesh.row_blocks``), so no
    entry array spans the mesh.  ``np.add.at`` adds one term at a time in
    triangle order, which gives the bits of one whole-mesh ``np.bincount``;
    it takes its fast path on flat arrays only (2-D ones run 5x slower)."""
    nv = mesh.num_vertices
    sums = np.zeros(nv + mesh.num_edges)
    for rows in row_blocks(mesh.num_triangles):
        diagonal, edge = entries(rows)
        np.add.at(sums[:nv], mesh.triangles[rows].ravel(), diagonal.ravel())
        np.add.at(sums[nv:], mesh.tri_edges[rows].ravel(), edge.ravel())
    return sums


def _scatter(sums, pattern):
    """The CSR matrix on ``pattern`` of ``_sums``: each interior vertex's sum
    once on the diagonal, each interior edge's twice, mirrored.  The reduced
    stiffness and mass of ``Dirichlet`` both come from here.  The values are
    gathered per block of ``mesh.BLOCK_ROWS`` entries: a whole-pattern
    ``np.take`` first casts the int32 ``gather`` to intp, a copy twice its size."""
    import scipy.sparse as sp  # here, not at the top: the closed-form bounds never need it

    indptr, indices, gather = pattern
    n = len(indptr) - 1
    data = np.empty(len(gather))
    for rows in row_blocks(len(data)):
        # every gather index lies in range by construction, so "clip" clips
        # nothing; it writes into ``out`` directly, where the default "raise"
        # copies through a buffer first
        np.take(sums, gather[rows], out=data[rows], mode="clip")
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def lumped_load(mesh, nodal_f):
    """Load vector sum_T |T|/3 f(v_i), exact for constant f."""
    shares = np.repeat(mesh.areas / 3.0, 3)
    return np.bincount(mesh.triangles.ravel(), shares, mesh.num_vertices) * nodal_f


def _line_layout(coords, n, along, pattern):
    """``(width, lines, slot, link_slot, link)``: the grid lines along axis
    ``along`` of the points ``coords``, which lie on the lattice (i, j) / n
    strictly inside the unit square, and where a line factor reads a matrix on
    ``pattern``.  Line j is column j of a (width, lines) grid with width =
    lines = n - 1, one row per lattice position: point i sits at flat
    ``slot[i]``, and each point's coupling to the previous one on its line,
    where the pattern holds one, at ``link_slot``, read from the matrix's
    ``data`` at ``link``.  Positions that hold no point are padding."""
    width = lines = n - 1
    position = np.rint(coords * n).astype(np.int32) - 1
    slot = position[:, along] * lines + position[:, 1 - along]
    indptr, indices, _ = pattern
    # an entry of row i is i's coupling to the next point on its line where
    # its column sits on i's line one grid row further
    link = np.flatnonzero(np.take(slot, indices) == np.repeat(slot + lines, np.diff(indptr)))
    slot = slot.astype(np.intp)  # every apply indexes with it
    return width, lines, slot, slot[indices[link]], link


def _line_factor(a, layout):
    """``apply(r)``: exact solves with the principal submatrices of ``a`` on
    the grid lines of ``layout``.  These blocks are tridiagonal, so the
    preconditioner is SPD whenever ``a`` is, and a nonpositive LDL^T pivot
    proves ``a`` indefinite.  The padding of the grid, before or after a
    line's points, has a unit diagonal and no coupling, so the sweeps leave
    each line's values as they would be without it."""
    width, lines, slot, link_slot, link = layout
    # low: each point's coupling to the previous one on its line, then L's entry
    piv, low = np.ones((width, lines)), np.zeros((width, lines))
    piv.reshape(-1)[slot] = a.diagonal()
    low.reshape(-1)[link_slot] = np.take(a.data, link)
    # rows past a nonpositive pivot fill with inf or nan, unwarned; one check
    # after the loop fails exactly when a check of each row would have
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(width - 1):
            low[i + 1] /= piv[i]
            piv[i + 1] -= low[i + 1] * low[i + 1] * piv[i]
        inv_piv = 1.0 / piv
    if not np.all(piv > 0.0):
        raise SolverError("stiffness is not positive definite")
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


class Dirichlet:
    """The part of every Dirichlet system over one mesh that no weight enters.

    ``pattern`` is the ``_pattern`` of the interior vertices, on which every
    matrix is assembled.  ``lines(along)``, the ``_line_layout`` of the
    interior vertices along each axis, and ``mass``, the consistent mass
    matrix (exact, not lumped), are built on first use; ``stiffness(alpha)``
    assembles the stiffness, with entries int_T (alpha grad phi_j) . grad
    phi_i, on it.  The mesh is read through a ``weakref.proxy``, so a mesh
    that keeps its ``Dirichlet`` (``TriMesh.dirichlet``) is freed by reference
    count alone, and a use after the mesh is freed raises ``ReferenceError``.
    """

    def __init__(self, mesh):
        self._mesh = weakref.proxy(mesh)
        self.pattern = _pattern(mesh)
        for part in self.pattern:
            part.flags.writeable = False  # every matrix on the pattern shares it
        self._lines = {}

    def lines(self, along):
        if along not in self._lines:
            coords = self._mesh.vertices[self._mesh.interior_vertices]
            self._lines[along] = _line_layout(coords, self._mesh.n, along, self.pattern)
        return self._lines[along]

    @cached_property
    def mass(self):
        return _scatter(_sums(self._mesh, _mass_entries(self._mesh)), self.pattern)

    @np.errstate(over="ignore", invalid="ignore")
    def stiffness(self, alpha):
        """``(s, k, precondition)``: the reduced stiffness ``k`` of alpha / s
        and its line preconditioner, for the power of two s <= lambda_max(alpha)
        < 2 s.  Any weight magnitude thus stays in float range, and every
        product with ``k`` and every apply is exactly 1/s of the unscaled one.
        The lines run along alpha's larger diagonal entry (x on a tie); see
        ``_line_factor``.  A weight that is not 2x2 is refused before any of
        it is built; an indefinite one whose entries overflow when scaled
        fills ``k`` with inf or nan, unwarned, and the line factor refuses
        it."""
        if alpha.d != 2:
            raise ValueError("diffusion assembly needs a 2x2 weight")
        top = alpha.eigenvalues[-1]
        if not top > 0.0:
            raise SolverError(f"weight has no positive eigenvalue (largest {top})")
        s = math.ldexp(1.0, math.frexp(top)[1] - 1)
        a = np.asarray(alpha.matrix, dtype=float) / s  # exact: s is a power of two
        # the lines before the entries: their peaks do not add
        lines = self.lines(int(a[1, 1] > a[0, 0]))
        k = _scatter(_sums(self._mesh, _stiffness_entries(self._mesh, a)), self.pattern)
        return s, k, _line_factor(k, lines)


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
    """``mesh.dirichlet.stiffness(alpha)`` with a symmetric V(1,1) cycle
    (``_cycle``) as ``precondition``.  Its levels run from ``mesh`` down, each
    ``(k, smooth, p, r)``: k and smooth are the ``Dirichlet.stiffness`` of the
    level's kept ``TriMesh.dirichlet``, so all levels share the scale s; p and
    r are the interior prolongation from the next level and its transpose,
    read from ``TriMesh.coarser``, and None on the last level.  Coarsening
    stops at ``_COARSEST`` unknowns or at a mesh with no coarser one.  Below
    the first level, a last level of at most ``_COARSEST`` unknowns is solved
    by a dense Cholesky factor in place of its line apply; with no coarser
    level, the cycle is the line apply.  Only the weight-dependent part is
    built here: the meshes and transfers come from the chain, built once per
    mesh."""
    s, k, smooth = mesh.dirichlet.stiffness(alpha)
    levels = []
    while k.shape[0] > _COARSEST and (link := mesh.coarser) is not None:
        mesh, p, r = link
        levels.append((k, smooth, p, r))
        _, k, smooth = mesh.dirichlet.stiffness(alpha)
    if levels and k.shape[0] <= _COARSEST:
        try:
            root = np.linalg.inv(np.linalg.cholesky(k.toarray()))
        except np.linalg.LinAlgError:
            raise SolverError("stiffness is not positive definite") from None
        smooth = (root.T @ root).dot  # the inverse of k
    levels.append((k, smooth, None, None))
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


def solve_diffusion(mesh, alpha, f):
    """Galerkin solution of the diffusion problem with source f: a constant,
    or a callable f(x, y) interpolated at the vertices.  A solve of one weight
    builds its own ``Dirichlet`` and drops it, so that the mesh does not carry
    it through the flux and the norms that follow."""
    nodal_f = f(mesh.vertices[:, 0], mesh.vertices[:, 1]) if callable(f) else float(f)
    free = mesh.interior_vertices
    b = lumped_load(mesh, nodal_f)[free]
    s, k, precondition = Dirichlet(mesh).stiffness(alpha)
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
