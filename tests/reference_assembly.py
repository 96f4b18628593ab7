"""P1 assembly by the 9-triplet scatter, and the boundary elimination by
slicing: the references the package's direct reduced assembly is checked
against.

Each triangle contributes its whole (3, 3) local matrix as nine COO
triplets, and scipy sums the duplicates; the package assembles the same
matrices on the interior vertices from the diagonal and the edges alone.
"""

import numpy as np
import scipy.sparse as sp

from fria import fem
from fria.mesh import basis_gradients


def scatter_local(mesh, local):
    """Sum the (nt, 3, 3) local matrices into the global CSR matrix."""
    triangles = mesh.triangles.astype(np.int32)
    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    nv = mesh.num_vertices
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()


def stiffness_by_triplets(mesh, alpha):
    """Local matrices |T| G alpha G^T, symmetrized, scattered as triplets."""
    a = np.asarray(alpha.matrix, dtype=float)
    g = basis_gradients(mesh, slice(None))
    local = np.einsum("tia,ab,tjb->tij", g, a, g, optimize=True) * mesh.areas[:, None, None]
    local = 0.5 * (local + np.transpose(local, (0, 2, 1)))
    return scatter_local(mesh, local)


def mass_by_triplets(mesh):
    """Consistent P1 mass matrix from the reference local matrix."""
    ref = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    return scatter_local(mesh, ref[None, :, :] * mesh.areas[:, None, None])


def reduce_system(matrix, mesh):
    """The CSR system over the interior vertices: the full matrix with its
    boundary rows, then its boundary columns, sliced away.  The package
    assembles that system directly, and must give the same bits."""
    free = mesh.interior_vertices
    return matrix[free][:, free]


def row_sums(mesh, alpha):
    """Each vertex's row sum of the full stiffness of ``alpha``, from the
    package's own per-vertex and per-edge sums: its diagonal sum plus the
    sums of its edges."""
    sums = fem._sums(mesh, fem._stiffness_entries(mesh, np.asarray(alpha.matrix, dtype=float)))
    nv = mesh.num_vertices
    return sums[:nv] + np.bincount(mesh.edges.ravel(), np.repeat(sums[nv:], 2), nv)
