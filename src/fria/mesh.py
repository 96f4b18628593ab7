"""Structured conforming triangulations of the unit square and L-shape.

Both builders lay a uniform grid of square cells of step ``h = 1/n`` and
split every cell along the diagonal from its lower-left to its upper-right
corner, giving counterclockwise triangles.  The L-shape is the unit square
with the closed lower-right quadrant removed; level ``L`` uses
``n = 16 * 2**L`` and therefore ``384 * 4**L`` triangles.  Every table is
read from the grid's lattice in closed form (``_grid_mesh``), with no sort.
Every vertex lies on the lattice (i / n, j / n): ``prolongation`` and the
grid lines of ``fem`` read a vertex's lattice position from its coordinates,
so a mesh built another way must keep its vertices there to be solved on.

Edge orientation convention: the unit normal of an interior edge
(``edge_geometry``) points from the adjacent triangle with the lower index
into the one with the higher index; boundary normals point out of the
domain.  This fixes
all signs of the lowest-order Raviart-Thomas degrees of freedom.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MeshError

MAX_LEVEL = 8
# rows of triangles or edges that a per-cell map, the assembly or a solution's
# gradients evaluate at once, so that their temporaries are bounded by the
# block, not by the mesh; at 4096 the blocked maps run as fast as whole-mesh
# ones at level 5, and 8192 lifted the n = 128 manufactured peak from 337 to
# 383 bytes per triangle
BLOCK_ROWS = 4096


def row_blocks(rows):
    """Slices of at most ``BLOCK_ROWS`` consecutive rows covering ``range(rows)``."""
    return [slice(start, start + BLOCK_ROWS) for start in range(0, rows, BLOCK_ROWS)]


@dataclass
class TriMesh:
    """Conforming triangulation with full edge and adjacency structure.

    The index tables are int32, which holds every mesh up to ``MAX_LEVEL``
    and halves their memory; numbers formed from two indices, such as the
    edge codes, are formed in int64.

    Parameters
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int32 array, counterclockwise vertex triples
    edges : (ne, 2) int32 array, vertex pairs with the lower index first
    edge_tris : (ne, 2) int32 array, adjacent triangles (second entry -1 on
        boundary edges; first entry is always the lower triangle index)
    boundary_vertex : (nv,) bool array
    domain : 'square' or 'lshape'
    n : grid resolution (cells per unit length)
    level : refinement index (equals n for square meshes)

    Derived arrays (filled by the builder): per-triangle areas, the bool
    ``edge_flips``, true where an edge's normal is its lo -> hi edge turned a
    quarter counterclockwise (else clockwise), and the int32
    triangle-to-edge incidence ``tri_edges`` ordered so that edge ``j`` is
    opposite local vertex ``j``.  The P1 basis gradients, the edge signs and
    the edge lengths and normals follow from these tables; their readers form
    them per block of rows (``basis_gradients``, ``edge_signs``,
    ``edge_geometry``), so the mesh holds none of them.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    edge_tris: np.ndarray
    boundary_vertex: np.ndarray
    domain: str
    n: int
    level: int
    areas: np.ndarray
    edge_flips: np.ndarray
    tri_edges: np.ndarray

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def interior_vertices(self):
        return np.flatnonzero(~self.boundary_vertex)

    @cached_property
    def coarser(self):
        """``(coarse, p, r)``: the mesh this one refines once (the L-shape one
        level down, or the square of n / 2 cells), ``prolongation(coarse,
        self)`` restricted to the interior rows and columns, and its transpose
        stored as CSR; None when there is none.  None of it depends on a
        weight, so it is built on first read and lives as long as this mesh;
        each coarse mesh holds its own ``coarser``, and none refers back."""
        if self.domain == "lshape" and self.level > 0:
            coarse = build_lshape(self.level - 1)
        elif self.domain == "square" and self.n % 2 == 0:
            coarse = build_unit_square(self.n // 2)
        else:
            return None
        p = prolongation(coarse, self)[self.interior_vertices][:, coarse.interior_vertices]
        return coarse, p, p.T.tocsr()

    @cached_property
    def dirichlet(self):
        """``fem.Dirichlet`` of this mesh: the part of its Dirichlet systems
        that no weight enters (the reduced CSR pattern, the grid lines and the
        reduced mass), built on first read and kept for the systems that
        repeat on this mesh, the oracle's; its ``stiffness(alpha)`` builds
        each V-cycle level.  It refers to the mesh weakly."""
        from .fem import Dirichlet  # fem, not the mesh, knows the systems

        return Dirichlet(self)


def _twice_signed_areas(x, y):
    return (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0])


def _edge_codes(triangles, nv):
    """Edge j of every triangle (opposite local vertex j) as the integer
    ``lo * nv + hi`` of its sorted vertex pair; sorting the codes sorts the
    pairs lexicographically."""
    a, b = triangles[:, [1, 2, 0]], triangles[:, [2, 0, 1]]
    codes = np.minimum(a, b).astype(np.int64)  # nv**2 passes 2**31 from level 4
    codes *= nv
    codes += np.maximum(a, b)
    return codes


def basis_gradients(mesh, rows):
    """(t, 3, 2) gradients of the P1 basis functions on the triangles ``rows``
    (a slice): the gradient of basis j is the edge from corner j + 1 to corner
    j + 2 turned a quarter counterclockwise, over twice the signed area.
    ``2 * areas`` is that doubled area exactly, and each component is one
    subtraction (``x - x`` is +0.0, where a negated difference is -0.0), so
    the bits do not depend on how the rows are split into blocks."""
    # whole vertex rows: np.take of a strided column copies the column on every call
    corners = np.take(mesh.vertices, mesh.triangles[rows], axis=0)
    x, y = corners[:, :, 0], corners[:, :, 1]
    grads = np.empty_like(corners)
    for j in range(3):
        np.subtract(y[:, (j + 1) % 3], y[:, (j + 2) % 3], out=grads[:, j, 0])
        np.subtract(x[:, (j + 2) % 3], x[:, (j + 1) % 3], out=grads[:, j, 1])
    grads /= (2.0 * mesh.areas[rows])[:, None, None]
    return grads


def edge_signs(mesh, rows):
    """(t, 3) float64 signs of the edges of the triangles ``rows`` (a slice),
    edge j opposite corner j: -1.0 where the triangle is the edge's second
    entry in ``edge_tris``, into which its stored normal points, else +1.0."""
    second = np.take(mesh.edge_tris, mesh.tri_edges[rows], axis=0)[:, :, 1]
    own = np.arange(*rows.indices(mesh.num_triangles), dtype=np.int32)
    return np.where(second == own[:, None], -1.0, 1.0)


def edge_geometry(mesh, rows):
    """``(lengths, normals)`` of the edges ``rows`` (a slice): the (e,) float64
    lengths and the (e, 2) unit normals, each the lo -> hi edge turned a
    quarter clockwise, or counterclockwise where ``edge_flips``, so that it
    points out of the edge's lower triangle.  ``a / -b == -(a / b)`` exactly,
    so a flipped normal takes its sign from the divisor, and the bits do not
    depend on how the edges are split into blocks."""
    # whole vertex rows: np.take of a strided column copies the column on every call
    ends = np.take(mesh.vertices, mesh.edges[rows], axis=0)
    tx, ty = (np.subtract(ends[:, 1, k], ends[:, 0, k]) for k in (0, 1))
    lengths = np.hypot(tx, ty)
    signed = np.where(mesh.edge_flips[rows], -lengths, lengths)
    normals = np.empty((len(lengths), 2))
    np.divide(ty, signed, out=normals[:, 0])
    np.divide(np.negative(tx, out=tx), signed, out=normals[:, 1])
    return lengths, normals


def _columns(out, views, mask):
    """``out`` with column k set to ``views[k][mask]``, one column at a time."""
    for column, view in zip(out.T, views):
        column[...] = view[mask]
    return out


def _grid_mesh(cells, domain, level):
    """The mesh of the cells (i, j) of an n x n grid with ``cells[j, i]``, every
    table read from the grid's lattice of points (i, j) / n.

    Vertices and cells are numbered row by row from y = 0 (``j`` outer, ``i``
    inner); cell c gives the triangles 2c = (a, b, c) and 2c + 1 = (a, c, d) of
    its corners a, b, c, d counterclockwise from the lower left.  A point's
    right, up and diagonal edges, in that order, are the edges of which it is
    the lower vertex, ordered by their higher one, so numbering them point by
    point lists the edges by their (lo, hi) pairs, as a sort of the pairs
    would.  An edge's lower triangle lies in the cell below a horizontal edge
    or left of a vertical one where there is such a cell, else in the cell
    above or right of it; a diagonal's lies in its own cell.  The normal is
    flipped where that triangle runs the edge hi -> lo: below a horizontal
    edge, on a vertical edge with no cell left of it, and on every diagonal.

    Every lattice is int32 or bool, and each table is written column by column
    through boolean masks, so no index pairs are formed, and each lattice is
    freed once read: the build peaks at 73 bytes per triangle at level 4, of
    which the mesh keeps 66 (without the frees: 120)."""
    n = len(cells)
    # the triangles 2c and 2c + 1 of the cell whose lower-left corner is each
    # point, -1 where none, padded by a ring so that a point's neighbours are views
    t0 = np.full((n + 2, n + 2), -1, dtype=np.int32)
    t0[1:-1, 1:-1][cells] = np.arange(0, 2 * np.count_nonzero(cells), 2, dtype=np.int32)
    t1 = np.where(t0 >= 0, t0 + 1, -1)
    at, below, left = np.s_[1:, 1:], np.s_[:-1, 1:], np.s_[1:, :-1]
    # each point's right, up and diagonal edge: its triangles on the lower and upper side
    lower = np.stack((t1[below], t0[left], t0[at]), axis=-1)
    upper = np.stack((t0[at], t1[at], t1[at]), axis=-1)
    exists = (lower >= 0) | (upper >= 0)
    edge_flips = ((lower >= 0) ^ [False, True, False])[exists]
    alone = lower < 0  # an edge's one triangle comes first
    np.copyto(lower, upper, where=alone)
    upper[alone] = -1
    edge_tris = _columns(np.empty((np.count_nonzero(exists), 2), np.int32), (lower, upper), exists)
    around = [t0[k] >= 0 for k in (at, below, left, np.s_[:-1, :-1])]  # the cells at each point
    del t0, t1, lower, upper, alone
    used = np.logical_or.reduce(around)
    boundary = (used & ~np.logical_and.reduce(around))[used]
    del around
    vertex = np.full((n + 2, n + 2), -1, dtype=np.int32)
    vertex[:-1, :-1][used] = np.arange(len(boundary), dtype=np.int32)
    hi = np.stack((vertex[:-1, 1:], vertex[1:, :-1], vertex[1:, 1:]), axis=-1)
    lo = np.broadcast_to(vertex[:-1, :-1, None], hi.shape)
    edges = _columns(np.empty_like(edge_tris), (lo, hi), exists)
    del lo, hi
    a, b, c, d = vertex[:n, :n], vertex[:n, 1:-1], vertex[1:-1, 1:-1], vertex[1:-1, :n]
    triangles = _columns(np.empty((np.count_nonzero(cells), 6), np.int32), (a, b, c, a, c, d), cells)
    del vertex, a, b, c, d
    ids = np.cumsum(exists, dtype=np.int32).reshape(exists.shape) - 1  # each edge's number
    del exists
    right, up, diagonal = np.moveaxis(ids[:n, :n], -1, 0)
    # edge j of each triangle lies opposite its corner j
    opposite = (ids[:n, 1:, 1], diagonal, right, ids[1:, :n, 0], up, diagonal)
    tri_edges = _columns(np.empty_like(triangles), opposite, cells)
    del ids, right, up, diagonal, opposite
    grid = np.arange(n + 1) / n
    vertices = _columns(np.empty((len(boundary), 2)), np.meshgrid(grid, grid, copy=False), used)
    triangles, tri_edges = triangles.reshape(-1, 3), tri_edges.reshape(-1, 3)
    areas = np.empty(len(triangles))
    for rows in row_blocks(len(areas)):
        corners = np.take(vertices, triangles[rows], axis=0)
        areas[rows] = _twice_signed_areas(corners[..., 0], corners[..., 1])
    areas *= 0.5
    return TriMesh(
        vertices, triangles, edges, edge_tris, boundary, domain, n, level, areas, edge_flips, tri_edges
    )


def triangle_count(domain, size):
    """Triangles of ``build_lshape(size)`` (domain ``"lshape"``) or of
    ``build_unit_square(size)`` (``"square"``).  The one place where the sizes
    the builders accept are decided: a size they refuse raises their
    ``MeshError`` here."""
    if domain == "lshape":
        if not 0 <= size <= MAX_LEVEL:
            raise MeshError(f"level must lie in 0..{MAX_LEVEL}, got {size}")
        return 384 * 4**size
    if size < 1:
        raise MeshError(f"n must be at least 1, got {size}")
    if size > 16 * 2**MAX_LEVEL:
        raise MeshError(f"n = {size} exceeds the refinement guard")
    return 2 * size * size


def build_lshape(level):
    """Uniform L-shape triangulation with step 1/(16 * 2**level)."""
    triangle_count("lshape", level)
    n = 16 * 2**level
    cells = np.ones((n, n), dtype=bool)
    cells[: n // 2, n // 2 :] = False  # the lower-right quadrant
    return _grid_mesh(cells, "lshape", level)


def build_unit_square(n):
    """Uniform unit-square triangulation with n x n cells."""
    n = int(n)
    triangle_count("square", n)
    return _grid_mesh(np.ones((n, n), dtype=bool), "square", n)


def prolongation(coarse, fine):
    """CSR matrix (fine x coarse vertices) of exact P1 interpolation onto a
    nested refinement.  With ``r = fine.n / coarse.n``, a coarse triangle
    with lattice corners ``p_k`` holds the fine lattice points
    ``sum_k (b_k / r) p_k``, ``b_k >= 0``, ``sum_k b_k = r``; each fine
    vertex takes the weights ``b / r`` of the first triangle holding it."""
    import scipy.sparse as sp  # here, not at the top: the closed-form bounds never need it

    if fine.domain != coarse.domain:
        raise MeshError("meshes triangulate different domains")
    r = fine.n // coarse.n
    not_nested = MeshError(f"mesh with n={fine.n} is not a nested refinement of n={coarse.n}")
    if r * coarse.n != fine.n:
        raise not_nested
    # the vertex (i, j) / fine.n has the key i + j * (fine.n + 1)
    key = (fine.n, fine.n * (fine.n + 1))
    vertex_keys = np.rint(fine.vertices @ key).astype(np.int64)
    corner_keys = np.take(np.rint(coarse.vertices @ key).astype(np.int64), coarse.triangles)
    lo, hi = np.triu_indices(r + 1)
    b = np.column_stack((lo, hi - lo, r - hi))
    found, first = np.unique(corner_keys @ b.T // r, return_index=True)
    if not np.array_equal(found, np.sort(vertex_keys)):
        raise not_nested
    tri, bary = np.divmod(first[np.searchsorted(found, vertex_keys)], len(b))
    rows = np.repeat(np.arange(fine.num_vertices), 3)
    shape = (fine.num_vertices, coarse.num_vertices)
    p = sp.csr_matrix((b[bary].ravel() / r, (rows, coarse.triangles[tri].ravel())), shape)
    p.eliminate_zeros()
    return p


def validate(m):
    """Check all mesh invariants; returns a list of violation messages."""
    signed = 0.5 * _twice_signed_areas(*(np.take(m.vertices[:, k], m.triangles) for k in (0, 1)))
    problems = [
        f"triangle {t} has nonpositive signed area {signed[t]}"
        for t in np.flatnonzero(signed <= 0.0)
    ]

    # recount adjacency from the triangle list itself
    nv = m.num_vertices
    found, counts = np.unique(_edge_codes(m.triangles, nv), return_counts=True)
    if len(found) != m.num_edges:
        problems.append(
            f"edge table has {m.num_edges} edges but triangles span {len(found)}"
        )
    problems += [
        f"edge ({found[k] // nv}, {found[k] % nv}) borders {counts[k]} triangles (want 1 or 2)"
        for k in np.flatnonzero(counts > 2)
    ]

    euler = m.num_vertices - m.num_edges + m.num_triangles
    if euler != 1:
        problems.append(f"Euler relation violated: V - E + T = {euler}, want 1")

    # both vertices of every edge must be corners of each adjacent triangle
    adjacent = m.edge_tris >= 0
    c0, c1, c2 = np.take(m.triangles.T, np.where(adjacent, m.edge_tris, 0), axis=1)
    has_lo, has_hi = ((c0 == v) | (c1 == v) | (c2 == v) for v in (m.edges[:, :1], m.edges[:, 1:]))
    problems += [
        f"conformity violated: edge {e} = ({m.edges[e, 0]},{m.edges[e, 1]}) not a "
        f"vertex pair of its adjacent triangle {m.edge_tris[e, s]}"
        for e, s in np.argwhere(adjacent & ~(has_lo & has_hi))
    ]
    return problems


def _rows(table):
    """The rows of a 2-D string array, their entries joined by spaces."""
    return [" ".join(row) for row in table.tolist()]


def dump_mesh(m):
    """Plain-text dump: $vertices / $triangles / $edges sections,
    one entity per line, 0-based indices; an edge line lists its second
    triangle only when it has one."""
    t0, t1 = m.edge_tris.T.astype(str)
    tris = np.where(m.edge_tris[:, 1] < 0, t0, _rows(np.column_stack((t0, t1))))
    lines = np.hstack(
        (
            "$vertices", _rows(m.vertices.astype(str)),
            "$triangles", _rows(m.triangles.astype(str)),
            "$edges", _rows(np.column_stack((m.edges.astype(str), tris))),
        )
    )
    return "\n".join(lines.tolist()) + "\n"
