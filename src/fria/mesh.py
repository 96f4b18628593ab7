"""Structured conforming triangulations of the unit square and L-shape.

Both builders lay a uniform grid of square cells of step ``h = 1/n`` and
split every cell along the diagonal from its lower-left to its upper-right
corner, giving counterclockwise triangles.  The L-shape is the unit square
with the closed lower-right quadrant removed; level ``L`` uses
``n = 16 * 2**L`` and therefore ``384 * 4**L`` triangles.

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


def _finalize(vertices, triangles, domain, n, level):
    """Edges, adjacency and areas of any counterclockwise triangle list, whose
    order alone fixes the edge normals (``edge_flips``).  The areas use two (t, 3)
    arrays of corner x and y: (t, 3, 2) corner rows and their strided parts take
    twice the time."""
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int32)
    nv = len(vertices)
    nt = len(triangles)

    codes = _edge_codes(triangles, nv).ravel()
    # flat index k is local edge k % 3 of triangle k // 3, so in the stable
    # order an edge's first occurrence lies in its lower triangle
    order = np.argsort(codes, kind="stable")
    codes = np.take(codes, order)
    # where each run of equal codes starts, and the end; built in place: small
    # temporary arrays here raised the peak resident memory of repeated runs
    # (likely numpy's reuse of small buffers keeping the heap top in use)
    bounds = np.empty(3 * nt + 1, dtype=bool)
    bounds[0] = bounds[-1] = True
    np.not_equal(codes[1:], codes[:-1], out=bounds[1:-1])
    bounds = np.flatnonzero(bounds)
    start, counts = bounds[:-1], np.diff(bounds)
    if counts.max() > 2:
        raise MeshError("edge shared by more than two triangles")
    edges = np.empty((len(start), 2), dtype=np.int32)
    np.divmod(np.take(codes, start), nv, out=(edges[:, 0], edges[:, 1]))
    inverse = np.empty(3 * nt, dtype=np.int32)
    inverse[order] = np.repeat(np.arange(len(start), dtype=np.int32), counts)
    first = np.take(order, start)
    shared = np.flatnonzero(counts == 2)
    later = np.take(order, np.take(start, shared) + 1)  # each shared edge in its higher triangle
    del codes, order, start, bounds
    edge_tris = np.full((len(edges), 2), -1, dtype=np.int32)
    edge_tris[:, 0] = first // 3
    edge_tris[shared, 1] = later // 3
    # the lower triangle runs its edge j counterclockwise from corner j + 1 (flat
    # index first + 1, or first - 2 for j = 2), so the lo -> hi normal points out
    # of it unless that corner is hi
    flip = np.take(triangles, first + 1 - 3 * (first % 3 == 2)) == edges[:, 1]
    del first, later, shared

    vx, vy = vertices[:, 0], vertices[:, 1]
    x, y = np.take(vx, triangles), np.take(vy, triangles)
    areas = _twice_signed_areas(x, y)
    areas *= 0.5
    del x, y

    boundary_vertex = np.zeros(nv, dtype=bool)
    boundary_vertex[edges[counts == 1].ravel()] = True

    return TriMesh(
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        edge_tris=edge_tris,
        boundary_vertex=boundary_vertex,
        domain=domain,
        n=n,
        level=level,
        areas=areas,
        edge_flips=flip,
        tri_edges=inverse.reshape(nt, 3),
    )


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


def _build_grid(n, keep):
    """``(vertices, triangles)`` of the cells ``(i, j)`` of an n x n grid with
    ``keep[i, j]``, for ``_finalize``: the lattice and corner columns made
    here are freed before it runs.

    Vertices and cells are numbered row by row from y = 0 (``j`` outer,
    ``i`` inner); each cell gives the triangles (a, b, c) and (a, c, d) of
    its corners a, b, c, d counterclockwise from the lower left.
    """
    cells = keep.T
    # a vertex is used when any of the (up to) four cells around it is kept
    pad = np.pad(cells, 1)
    used = pad[1:, 1:] | pad[1:, :-1] | pad[:-1, 1:] | pad[:-1, :-1]
    index = np.full((n + 1, n + 1), -1, dtype=np.int32)
    index[used] = np.arange(np.count_nonzero(used), dtype=np.int32)
    vj, vi = np.nonzero(used)
    vertices = np.column_stack((vi / n, vj / n))
    cj, ci = np.nonzero(cells)
    a = index[cj, ci]
    b = index[cj, ci + 1]
    c = index[cj + 1, ci + 1]
    d = index[cj + 1, ci]
    return vertices, np.column_stack((a, b, c, a, c, d)).reshape(-1, 3)


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
    keep = np.ones((n, n), dtype=bool)
    keep[n // 2 :, : n // 2] = False
    return _finalize(*_build_grid(n, keep), "lshape", n, level)


def build_unit_square(n):
    """Uniform unit-square triangulation with n x n cells."""
    n = int(n)
    triangle_count("square", n)
    return _finalize(*_build_grid(n, np.ones((n, n), dtype=bool)), "square", n, n)


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
