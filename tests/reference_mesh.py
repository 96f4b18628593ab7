"""The general mesh builder: edges, adjacency and areas of any
counterclockwise triangle list, found by sorting the edges' vertex pairs.

The package builds every mesh from its grid's lattice in closed form
(``mesh._grid_mesh``); this is the reference that it is checked against, bit
for bit, and the builder of the meshes no grid gives: the squares listed from
another corner of every triangle, the soup of tiny triangles and the single
triangle.
"""

import numpy as np

from fria.mesh import MeshError, TriMesh, _edge_codes, _twice_signed_areas


def finalize(vertices, triangles, domain, n, level):
    """Edges, adjacency and areas of any counterclockwise triangle list, whose
    order alone fixes the edge normals (``edge_flips``)."""
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int32)
    nv = len(vertices)
    nt = len(triangles)

    codes = _edge_codes(triangles, nv).ravel()
    # flat index k is local edge k % 3 of triangle k // 3, so in the stable
    # order an edge's first occurrence lies in its lower triangle
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    bounds = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1], [True])))
    start, counts = bounds[:-1], np.diff(bounds)
    if counts.max() > 2:
        raise MeshError("edge shared by more than two triangles")
    edges = np.column_stack(np.divmod(codes[start], nv)).astype(np.int32)
    inverse = np.empty(3 * nt, dtype=np.int32)
    inverse[order] = np.repeat(np.arange(len(start), dtype=np.int32), counts)
    first = order[start]
    shared = np.flatnonzero(counts == 2)
    later = order[start[shared] + 1]  # each shared edge in its higher triangle
    edge_tris = np.full((len(edges), 2), -1, dtype=np.int32)
    edge_tris[:, 0] = first // 3
    edge_tris[shared, 1] = later // 3
    # the lower triangle runs its edge j counterclockwise from corner j + 1 (flat
    # index first + 1, or first - 2 for j = 2), so the lo -> hi normal points out
    # of it unless that corner is hi
    flip = triangles.ravel()[first + 1 - 3 * (first % 3 == 2)] == edges[:, 1]

    x, y = (np.take(vertices[:, k], triangles) for k in (0, 1))
    areas = _twice_signed_areas(x, y)
    areas *= 0.5

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


def grid(n, keep):
    """``(vertices, triangles)`` of the cells ``(i, j)`` of an n x n grid with
    ``keep[i, j]``, numbered row by row from y = 0 (``j`` outer, ``i``
    inner); each cell gives the triangles (a, b, c) and (a, c, d) of its
    corners a, b, c, d counterclockwise from the lower left."""
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


def lshape(level):
    """The L-shape of ``mesh.build_lshape(level)``, built by the edge sort."""
    n = 16 * 2**level
    keep = np.ones((n, n), dtype=bool)
    keep[n // 2 :, : n // 2] = False
    return finalize(*grid(n, keep), "lshape", n, level)


def unit_square(n):
    """The square of ``mesh.build_unit_square(n)``, built by the edge sort."""
    return finalize(*grid(n, np.ones((n, n), dtype=bool)), "square", n, n)
