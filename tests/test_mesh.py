import dataclasses
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fria import mesh
from fria.mesh import (
    MeshError,
    build_lshape,
    build_unit_square,
    dump_mesh,
    prolongation,
    triangle_count,
    validate,
)
from fria.weights import DiagonalWeight, FullWeight
import reference_mesh
from reference_quadrature import rolled_square, tiny_triangle_soup

DIGESTS = Path(__file__).with_name("mesh_digests.json")
# grids by level or n, and the triangle lists no grid gives: the n = 8 square
# listed from corner 1 or 2 of every triangle, and the soup of tiny triangles
DIGEST_MESHES = (
    [("lshape", k) for k in range(6)]
    + [("square", n) for n in (1, 2, 3, 8, 33, 64, 128)]
    + [("rolled8", 1), ("rolled8", 2), ("soup", 200)]
)
# squares whose lattice tables are checked against the edge sort's: the
# smallest, odd and even sizes, and one of more than one block of rows
SORT_SQUARES = (1, 2, 3, 8, 33, 100, 128)
# meshes whose edge table must put each normal and sign on the lower triangle
ORIENTATION_MESHES = {
    "lshape0": lambda cache: cache("lshape", 0),
    "lshape2": lambda cache: cache("lshape", 2),
    "square5": lambda cache: cache("square", 5),
    "rolled8-1": lambda cache: rolled_square(8, 1),
    "rolled8-2": lambda cache: rolled_square(8, 2),
    "soup1e-7": lambda cache: tiny_triangle_soup(),
}


def lattice_counts_lshape(n):
    """Independent enumeration of the L-shape lattice at resolution n."""
    kept = [
        (i, j)
        for i in range(n + 1)
        for j in range(n + 1)
        if not (i > n // 2 and j < n // 2)
    ]
    boundary = []
    for i, j in kept:
        x, y = i / n, j / n
        on = (
            x == 0.0
            or y == 1.0
            or (y == 0.0 and x <= 0.5)
            or (x == 1.0 and y >= 0.5)
            or (x == 0.5 and y <= 0.5)
            or (y == 0.5 and x >= 0.5)
        )
        if on:
            boundary.append((i, j))
    return len(kept), len(boundary)


class TestLShape:
    def test_level0_counts(self, mesh_cache):
        m = mesh_cache("lshape", 0)
        nv, nb = lattice_counts_lshape(16)
        assert m.num_triangles == 384
        assert m.num_vertices == nv == 225
        assert int(m.boundary_vertex.sum()) == nb == 64
        assert m.num_vertices - m.num_edges + m.num_triangles == 1

    def test_triangle_count_formula(self, mesh_cache):
        for level in (0, 1, 2):
            assert mesh_cache("lshape", level).num_triangles == 384 * 4**level

    def test_level4_count(self, mesh_cache):
        assert mesh_cache("lshape", 4).num_triangles == 98304

    def test_level_recorded(self, mesh_cache):
        # the benchmark trace labels each L-shape solve by its mesh's level
        for level in (0, 1, 2):
            assert mesh_cache("lshape", level).level == level

    def test_total_area(self, mesh_cache):
        for level in (0, 1, 2):
            assert mesh_cache("lshape", level).areas.sum() == pytest.approx(0.75, abs=1e-12)

    def test_level_guard(self):
        with pytest.raises(MeshError):
            build_lshape(9)
        with pytest.raises(MeshError):
            build_lshape(-1)


class TestTriangleCount:
    def test_counts_what_the_builders_build(self, mesh_cache):
        for level in range(4):
            assert triangle_count("lshape", level) == mesh_cache("lshape", level).num_triangles
        for n in range(1, 21):
            assert triangle_count("square", n) == build_unit_square(n).num_triangles
        assert triangle_count("lshape", 8) == 25165824
        assert triangle_count("square", 4096) == 33554432

    @pytest.mark.parametrize(
        "domain, size, message",
        [
            ("lshape", -1, "level must lie in 0..8, got -1"),
            ("lshape", 9, "level must lie in 0..8, got 9"),
            ("square", 0, "n must be at least 1, got 0"),
            ("square", -100000, "n must be at least 1, got -100000"),
            ("square", 4097, "n = 4097 exceeds the refinement guard"),
        ],
    )
    def test_refuses_with_the_builders_message(self, domain, size, message):
        build = build_lshape if domain == "lshape" else build_unit_square
        for call in (lambda: triangle_count(domain, size), lambda: build(size)):
            with pytest.raises(MeshError) as refused:
                call()
            assert str(refused.value) == message

    def test_builders_check_their_size_through_it(self, monkeypatch):
        asked = []
        monkeypatch.setattr(mesh, "triangle_count", lambda *size: asked.append(size))
        build_lshape(0)
        build_unit_square(3)
        assert asked == [("lshape", 0), ("square", 3)]


class TestMemory:
    """Bytes per triangle of the level-4 L-shape, counted by tracemalloc."""

    def test_mesh_and_stiffness_bytes_per_triangle(self):
        # the first assembly imports scipy.sparse: keep the module out of the count
        import scipy.sparse  # noqa: F401

        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            m = build_lshape(4)
            resident, build_peak = (b - start for b in tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            m.dirichlet.stiffness(DiagonalWeight((1.0, 1e-4)))
            assembly_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        nt = m.num_triangles
        # int32 index tables hold 66 (with the edge lengths and normals kept:
        # 101; the basis gradients and float64 edge signs too: 173; int64
        # tables too: 221)
        assert resident / nt <= 68
        # the tables read from the lattice peak at 73 in all, the int32 and bool
        # lattices beside the kept tables (the edge sort of 3 nt int64 codes
        # before: 165, with the grid's lattice and corner columns freed first;
        # gradients and signs built: 223; the lattice kept alive too: 251;
        # np.unique's sort with its index, inverse and counts, and a masked
        # normal flip: 263; int64 tables: 322)
        assert build_peak / nt <= 76
        # assembly on the interior pattern peaks at 92, the entries summed and
        # the CSR values gathered per block (the values gathered at once: 113;
        # whole-mesh entries too: 118; the Neumann COO and its two-step slice:
        # 151; the 9-triplet scatter: 308)
        assert assembly_peak / nt <= 95


class TestUnitSquare:
    def test_single_cell(self):
        m = build_unit_square(1)
        assert m.num_triangles == 2
        assert m.num_vertices == 4

    def test_two_cells_each_way(self):
        m = build_unit_square(2)
        assert (m.num_vertices, m.num_edges, m.num_triangles) == (9, 16, 8)
        assert m.num_vertices - m.num_edges + m.num_triangles == 1

    def test_counts_scale(self):
        m = build_unit_square(64)
        assert m.num_triangles == 8192
        assert m.num_vertices == 65**2

    def test_total_area(self):
        for n in (1, 2, 8):
            assert build_unit_square(n).areas.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(MeshError):
            build_unit_square(0)


class TestValidate:
    def test_clean_meshes(self, mesh_cache):
        assert validate(mesh_cache("lshape", 0)) == []
        assert validate(mesh_cache("square", 8)) == []

    def test_edge_codes_beyond_int32(self, mesh_cache):
        # from level 4 on nv**2 exceeds 2**31: the int32 triangles must form
        # the edge codes lo * nv + hi in int64
        m = mesh_cache("lshape", 4)
        assert m.triangles.dtype == np.int32
        assert m.num_vertices**2 > 2**31
        assert validate(m) == []
        assert m.num_vertices - m.num_edges + m.num_triangles == 1

    def test_flipped_triangle_detected(self, mesh_cache):
        m = mesh_cache("lshape", 0)
        bad_tris = m.triangles.copy()
        bad_tris[5, [0, 1]] = bad_tris[5, [1, 0]]
        bad = dataclasses.replace(m, triangles=bad_tris)
        problems = validate(bad)
        assert any("nonpositive signed area" in p for p in problems)

    def test_conformity_reported_edge_major(self, mesh_cache):
        m = mesh_cache("square", 2)
        edge_tris = m.edge_tris.copy()
        edge_tris[[0, 5]] = edge_tris[[5, 0]]
        assert validate(dataclasses.replace(m, edge_tris=edge_tris)) == [
            "conformity violated: edge 0 = (0,1) not a vertex pair of its adjacent triangle 2",
            "conformity violated: edge 0 = (0,1) not a vertex pair of its adjacent triangle 3",
            "conformity violated: edge 5 = (1,5) not a vertex pair of its adjacent triangle 0",
        ]

    def test_overshared_edge_detected(self, mesh_cache):
        m = mesh_cache("square", 2)
        bad = dataclasses.replace(m, triangles=np.vstack([m.triangles, m.triangles[:1]]))
        # triangle 0 = (0, 1, 4): its two interior edges now border three
        assert validate(bad)[:2] == [
            "edge (0, 4) borders 3 triangles (want 1 or 2)",
            "edge (1, 4) borders 3 triangles (want 1 or 2)",
        ]

    def test_euler_violation_detected(self, mesh_cache):
        m = mesh_cache("square", 2)
        bad = dataclasses.replace(
            m,
            vertices=np.vstack([m.vertices, [[9.0, 9.0]]]),
            boundary_vertex=np.append(m.boundary_vertex, True),
        )
        assert any("Euler" in p for p in validate(bad))


class TestStructure:
    def test_deterministic_build(self):
        a = build_lshape(0)
        b = build_lshape(0)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.edge_tris, b.edge_tris)

    @pytest.mark.parametrize(
        "domain, k", [("lshape", k) for k in range(5)] + [("square", n) for n in SORT_SQUARES]
    )
    def test_lattice_tables_are_the_edge_sort_tables(self, mesh_cache, domain, k):
        # the builders read every table from the grid's lattice; the general
        # builder sorts the triangles' vertex pairs into the same tables
        m = mesh_cache(domain, k)
        reference = reference_mesh.lshape(k) if domain == "lshape" else reference_mesh.unit_square(k)
        for f in dataclasses.fields(m):
            got, want = getattr(m, f.name), getattr(reference, f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), f.name
            else:
                assert got == want, f.name

    @pytest.mark.parametrize("name", ORIENTATION_MESHES)
    def test_edge_adjacency_orientation(self, mesh_cache, name):
        m = ORIENTATION_MESHES[name](mesh_cache)
        interior = m.edge_tris[:, 1] >= 0
        assert (m.edge_tris[interior, 0] < m.edge_tris[interior, 1]).all()
        # the normals point out of the first adjacent triangle
        mids = 0.5 * (m.vertices[m.edges[:, 0]] + m.vertices[m.edges[:, 1]])
        centroids = m.vertices[m.triangles].mean(axis=1)
        _, normals = mesh.edge_geometry(m, slice(None))
        dots = np.einsum("ex,ex->e", mids - centroids[m.edge_tris[:, 0]], normals)
        assert (dots > 0.0).all()
        # sign +1 in an edge's lower triangle, -1 in its higher one
        t = np.arange(m.num_triangles)[:, None]
        lower = m.edge_tris[m.tri_edges, 0] == t
        assert np.array_equal(m.edge_tris[m.tri_edges, 1] == t, ~lower)
        assert np.array_equal(mesh.edge_signs(m, slice(None)), np.where(lower, 1.0, -1.0))

    def test_opposite_vertex_convention(self, mesh_cache):
        m = mesh_cache("square", 4)
        for t in range(m.num_triangles):
            for j in range(3):
                edge = set(m.edges[m.tri_edges[t, j]])
                assert m.triangles[t, j] not in edge
                assert edge <= set(m.triangles[t])

    def test_boundary_edges_outward(self, mesh_cache):
        m = mesh_cache("square", 4)
        b = np.flatnonzero(m.edge_tris[:, 1] < 0)
        signs = mesh.edge_signs(m, slice(None))
        # all boundary edge signs are +1 for their single triangle
        for e in b:
            t = m.edge_tris[e, 0]
            j = list(m.tri_edges[t]).index(e)
            assert signs[t, j] == 1.0


def test_dump_format(mesh_cache):
    m = build_unit_square(1)
    text = dump_mesh(m)
    lines = text.splitlines()
    assert lines[:3] == ["$vertices", "0.0 0.0", "1.0 0.0"]
    v_end = lines.index("$triangles")
    e_start = lines.index("$edges")
    assert v_end - 1 == m.num_vertices
    assert e_start - v_end - 1 == m.num_triangles
    assert len(lines) - e_start - 1 == m.num_edges
    # boundary edges carry one triangle, the interior diagonal two
    edge_fields = [line.split() for line in lines[e_start + 1 :]]
    assert sorted(len(f) for f in edge_fields) == [3, 3, 3, 3, 4]


NESTED_PAIRS = [
    ("lshape", 0, 1),
    ("lshape", 0, 3),
    ("lshape", 1, 3),
    ("square", 16, 48),
    ("square", 8, 64),
    ("square", 8, 8),
    ("lshape", 2, 2),
]


def linear(v):
    return 2.0 * v[:, 0] - 3.0 * v[:, 1] + 0.5


def brute_force_interpolation(coarse, fine, values):
    """P1 interpolant at every fine vertex by a barycentric test against
    every coarse triangle."""
    corners = coarse.vertices[coarse.triangles]
    edges = np.stack((corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]), axis=2)
    rel = fine.vertices[:, None, :] - corners[None, :, 0, :]
    lam12 = np.einsum("tab,vtb->vta", np.linalg.inv(edges), rel)
    lam = np.concatenate((1.0 - lam12.sum(axis=2, keepdims=True), lam12), axis=2)
    inside = (lam >= -1e-12).all(axis=2)
    assert inside.any(axis=1).all()
    tri = inside.argmax(axis=1)
    chosen = lam[np.arange(fine.num_vertices), tri]
    return np.einsum("vk,vk->v", chosen, values[coarse.triangles[tri]])


class TestProlongation:
    @pytest.mark.parametrize("domain,lo,hi", NESTED_PAIRS)
    def test_reproduces_linear_functions(self, mesh_cache, domain, lo, hi):
        coarse, fine = mesh_cache(domain, lo), mesh_cache(domain, hi)
        p = prolongation(coarse, fine)
        assert p.shape == (fine.num_vertices, coarse.num_vertices)
        assert np.abs(p @ linear(coarse.vertices) - linear(fine.vertices)).max() <= 1e-14

    @pytest.mark.parametrize("domain,lo,hi", NESTED_PAIRS)
    def test_rows_sum_to_one(self, mesh_cache, domain, lo, hi):
        p = prolongation(mesh_cache(domain, lo), mesh_cache(domain, hi))
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-15
        assert p.data.min() > 0.0

    @pytest.mark.parametrize("domain,k", [("square", 8), ("lshape", 0), ("lshape", 2)])
    def test_identity_at_ratio_one(self, mesh_cache, domain, k):
        m = mesh_cache(domain, k)
        p = prolongation(m, m)
        assert p.nnz == m.num_vertices
        assert np.array_equal(p.toarray(), np.eye(m.num_vertices))

    @pytest.mark.parametrize("domain,lo,hi", [("lshape", 0, 2), ("square", 16, 48)])
    @pytest.mark.parametrize(
        "alpha", [DiagonalWeight((1.0, 1e-4)), FullWeight(((2.0, 0.5), (0.5, 1.0)))]
    )
    def test_galerkin_coarse_operators(self, mesh_cache, domain, lo, hi, alpha):
        coarse, fine = mesh_cache(domain, lo), mesh_cache(domain, hi)
        p = prolongation(coarse, fine)[fine.interior_vertices][:, coarse.interior_vertices]
        for assemble in (lambda m: m.dirichlet.stiffness(alpha)[1], lambda m: m.dirichlet.mass):
            want = assemble(coarse)
            got = (p.T @ assemble(fine) @ p).toarray()
            assert np.abs(got - want.toarray()).max() <= 1e-14 * np.abs(want).max()

    def test_agrees_with_brute_force_location(self, mesh_cache):
        coarse, fine = mesh_cache("lshape", 0), mesh_cache("lshape", 1)
        values = np.random.default_rng(5).standard_normal(coarse.num_vertices)
        want = brute_force_interpolation(coarse, fine, values)
        assert np.abs(prolongation(coarse, fine) @ values - want).max() <= 1e-14

    @pytest.mark.parametrize(
        "pair, match",
        [
            ((("square", 16), ("square", 24)), "nested"),
            ((("square", 16), ("square", 8)), "nested"),
            ((("lshape", 1), ("lshape", 0)), "nested"),
            ((("lshape", 0), ("square", 16)), "domain"),
        ],
    )
    def test_rejects_non_nested(self, mesh_cache, pair, match):
        (dc, kc), (df, kf) = pair
        with pytest.raises(MeshError, match=match):
            prolongation(mesh_cache(dc, kc), mesh_cache(df, kf))


class TestCoarser:
    @pytest.mark.parametrize(
        "domain,k,down", [("lshape", 1, 0), ("lshape", 3, 2), ("square", 8, 4), ("square", 64, 32)]
    )
    def test_one_level_down(self, mesh_cache, domain, k, down):
        coarse = mesh_cache(domain, k).coarser[0]
        assert mesh_digest(coarse) == mesh_digest(build(domain, down))

    @pytest.mark.parametrize("domain,k", [("lshape", 0), ("square", 33), ("square", 1)])
    def test_none_without_a_coarser_mesh(self, mesh_cache, domain, k):
        assert mesh_cache(domain, k).coarser is None

    @pytest.mark.parametrize("domain,k", [("lshape", 2), ("square", 16)])
    def test_interior_transfers(self, mesh_cache, domain, k):
        fine = mesh_cache(domain, k)
        coarse, p, r = fine.coarser
        want = prolongation(coarse, fine)[fine.interior_vertices][:, coarse.interior_vertices]
        assert p.shape == (len(fine.interior_vertices), len(coarse.interior_vertices))
        assert (p != want).nnz == 0
        assert r.format == "csr" and (r != p.T).nnz == 0
        rows = np.split(r.indices, r.indptr[1:-1])
        assert all(np.all(np.diff(row) > 0) for row in rows)
        assert fine.coarser is fine.coarser  # built once


def build(domain, k):
    if domain == "rolled8":
        return rolled_square(8, k)
    if domain == "soup":
        return tiny_triangle_soup()
    return build_lshape(k) if domain == "lshape" else build_unit_square(k)


def mesh_digest(m):
    """Field name -> "dtype shape sha256" for arrays, repr for scalars.  The
    basis gradients, edge lengths and normals and edge signs, which the mesh
    no longer holds, are hashed whole under the names of the fields that once
    held them, in their places; the normals' ``edge_flips`` are hashed through
    the normals alone."""
    values = {}
    for f in dataclasses.fields(m):
        if f.name == "edge_flips":
            values["edge_lengths"], values["edge_normals"] = mesh.edge_geometry(m, slice(None))
        else:
            values[f.name] = getattr(m, f.name)
        if f.name == "areas":
            values["grads"] = mesh.basis_gradients(m, slice(None))
    values["tri_edge_signs"] = mesh.edge_signs(m, slice(None))
    out = {}
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            sha = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
            out[name] = f"{value.dtype} {value.shape} {sha}"
        else:
            out[name] = repr(value)
    return out


@pytest.fixture(scope="module")
def recorded_digests():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("domain,k", DIGEST_MESHES, ids=lambda v: str(v))
def test_mesh_arrays_match_recorded_digest(recorded_digests, domain, k):
    # pins vertex order, edge order, adjacency and the RT0 normal signs
    m = build(domain, k)
    assert mesh_digest(m) == recorded_digests[f"{domain}:{k}"]
    # strided arrays would cost copies in every einsum of the solve layer
    assert all(
        getattr(m, f.name).flags.c_contiguous
        for f in dataclasses.fields(m)
        if isinstance(getattr(m, f.name), np.ndarray)
    )


if __name__ == "__main__":
    # re-record after an intended change of mesh numbering or geometry:
    # PYTHONPATH=src python tests/test_mesh.py  (from the repository root)
    records = {f"{domain}:{k}": mesh_digest(build(domain, k)) for domain, k in DIGEST_MESHES}
    DIGESTS.write_text(json.dumps(records, indent=1) + "\n")
    print(f"recorded {len(records)} meshes in {DIGESTS}")
