"""The per-cell maps of the certification path, evaluated in blocks of rows:
the same bits as the whole-mesh formulas, and bounded temporaries."""

import math
import tracemalloc

import numpy as np
import pytest

import reference_cellmaps as reference
from fria import fem, flux, manufactured, mesh
from fria.weights import DiagonalWeight, FullWeight

ANISO = DiagonalWeight((1.0, 1e-4))
FULL = FullWeight(((2.0, 0.5), (0.5, 1.0)))


def test_blocks_cover_the_rows_in_order():
    blocks = mesh.row_blocks(2 * mesh.BLOCK_ROWS + 5)
    assert [(b.start, b.stop) for b in blocks] == [
        (0, mesh.BLOCK_ROWS),
        (mesh.BLOCK_ROWS, 2 * mesh.BLOCK_ROWS),
        (2 * mesh.BLOCK_ROWS, 3 * mesh.BLOCK_ROWS),
    ]
    assert np.arange(2 * mesh.BLOCK_ROWS + 5)[blocks[-1]].size == 5
    assert mesh.row_blocks(0) == []


# several blocks of triangles and of edges, the last block of edges partial
# (and on the square the last block of triangles too)
SIZES = {"square100": ("square", 100), "L4": ("lshape", 4)}


@pytest.fixture(scope="module", params=sorted(SIZES))
def solved(request, mesh_cache):
    m = mesh_cache(*SIZES[request.param])
    assert m.num_triangles > 2 * mesh.BLOCK_ROWS and m.num_edges % mesh.BLOCK_ROWS
    return m, {alpha: fem.solve_diffusion(m, alpha, 1.0) for alpha in (ANISO, FULL)}


@pytest.mark.parametrize("alpha", [ANISO, FULL], ids=["aniso", "full"])
def test_flux_maps_keep_the_bits_of_the_whole_mesh_formulas(solved, alpha):
    _, solutions = solved
    s = solutions[alpha]
    field = flux.rt_average(s, alpha)
    assert np.array_equal(field.dofs, reference.rt_average(s, alpha).dofs)
    assert flux.residual_norm(field, 1.0) == reference.residual_norm(field, 1.0)
    assert flux.defect_norm(field, s, alpha) == reference.defect_norm(field, s, alpha)


def test_manufactured_maps_keep_the_bits_of_the_whole_mesh_formulas(mesh_cache):
    m = mesh_cache("square", 100)
    assert np.array_equal(manufactured.grad_u_integrals(m), reference.grad_u_integrals(m))
    moments = manufactured.source_moments(m)
    for produced, expected in zip(moments, reference.source_moments(m)):
        assert np.array_equal(produced, expected)
    field = flux.rt_average(manufactured.solve(m), manufactured.IDENTITY2)
    assert flux.residual_norm(field, moments) == reference.residual_norm(field, moments)


@pytest.mark.parametrize("rows", [1, 7])
def test_any_block_size_keeps_the_bits(monkeypatch, mesh_cache, rows):
    # blocks of one row, and blocks that split neither count evenly
    monkeypatch.setattr(mesh, "BLOCK_ROWS", rows)
    m = mesh_cache("square", 9)
    s = fem.solve_diffusion(m, FULL, 1.0)
    field = flux.rt_average(s, FULL)
    assert np.array_equal(field.dofs, reference.rt_average(s, FULL).dofs)
    moments = manufactured.source_moments(m)
    assert flux.residual_norm(field, moments) == reference.residual_norm(field, moments)
    assert flux.defect_norm(field, s, FULL) == reference.defect_norm(field, s, FULL)
    assert np.array_equal(manufactured.grad_u_integrals(m), reference.grad_u_integrals(m))


@pytest.mark.parametrize(
    "size, rows", [(("square", 100), None), (("lshape", 2), None), (("square", 12), 7)],
    ids=["square100", "L2", "square12-rows7"],
)
def test_per_block_mesh_tables_and_sums_keep_the_whole_mesh_bits(
    monkeypatch, mesh_cache, size, rows
):
    # triangle and edge counts that no block size divides: 20000 triangles and
    # 30200 edges, and 6144 and 9344, in blocks of 4096; 288 and 456 in blocks
    # of 7, whose last blocks are one row
    if rows is not None:
        monkeypatch.setattr(mesh, "BLOCK_ROWS", rows)
    m = mesh_cache(*size)
    assert m.num_triangles % mesh.BLOCK_ROWS and m.num_edges % mesh.BLOCK_ROWS
    whole, blocks = slice(None), mesh.row_blocks(m.num_triangles)
    for table in (mesh.basis_gradients, mesh.edge_signs):
        per_block = np.concatenate([table(m, block) for block in blocks])
        assert per_block.tobytes() == table(m, whole).tobytes()
    edge_blocks = [mesh.edge_geometry(m, block) for block in mesh.row_blocks(m.num_edges)]
    for per_block, want in zip(zip(*edge_blocks), mesh.edge_geometry(m, whole)):
        assert np.concatenate(per_block).tobytes() == want.tobytes()
    values = np.random.default_rng(9).standard_normal(m.num_vertices)
    corners = np.take(values, m.triangles)
    want = np.einsum("tj,tjx->tx", corners, mesh.basis_gradients(m, whole))
    assert fem.P1Solution(m, values).gradients.tobytes() == want.tobytes()
    nv = m.num_vertices
    for entries in (fem._stiffness_entries(m, np.asarray(FULL.matrix)), fem._mass_entries(m)):
        diagonal, edge = entries(whole)
        want = np.concatenate(
            [
                np.bincount(m.triangles.ravel(), diagonal.ravel(), nv),
                np.bincount(m.tri_edges.ravel(), edge.ravel(), m.num_edges),
            ]
        )
        assert fem._sums(m, entries).tobytes() == want.tobytes()


def _stage_peaks(build, stages):
    """tracemalloc peak of each stage in bytes per triangle, counted from
    before ``build()``, so the mesh and every array kept alive are included."""
    import scipy.sparse  # noqa: F401  (loaded before the count, as in TestMemory)

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        m, *kept = build()
        peaks = []
        for stage in stages:
            tracemalloc.reset_peak()
            stage(*kept)
            peaks.append((tracemalloc.get_traced_memory()[1] - start) / m.num_triangles)
    finally:
        tracemalloc.stop()
    return peaks


class TestMemory:
    """Bytes per triangle at each stage of the certification path, mesh
    included.  The whole-mesh temporaries read the figures in brackets."""

    def test_manufactured_square_n128(self):
        def build():
            m = mesh.build_unit_square(128)
            s = manufactured.solve(m)
            return m, s, flux.rt_average(s, manufactured.IDENTITY2)

        c = 1.0 / (math.pi * math.sqrt(2.0))
        majorant, exact = _stage_peaks(
            build,
            [
                lambda s, field: manufactured.majorant_total(c, s, field),
                lambda s, field: manufactured.exact_energy_error(s),
            ],
        )
        # the moments and the majorant peak at 233, the exact error at 153 (the
        # mesh's own edge lengths and normals: 264 and 187; its gradients and
        # signs too: 337 and 256; whole-mesh temporaries too: 761 and 424)
        assert majorant <= 237
        assert exact <= 157

    def test_lshape_level4(self):
        def build():
            m = mesh.build_lshape(4)
            return m, m

        kept = []
        solve, average, norms = _stage_peaks(
            build,
            [
                lambda m: kept.append(fem.solve_diffusion(m, ANISO, 1.0)),
                lambda m: kept.append(flux.rt_average(kept[0], ANISO)),
                lambda m: flux.flux_defect_norms(kept[1], kept[0], ANISO, 1.0),
            ],
        )
        # the solve peaks at 166, in the line layout and factor and as high as
        # the build (the mesh's own edge lengths and normals, and the whole
        # pattern's values gathered at once: 221; its gradients and signs too: 298)
        assert solve <= 170
        # edge averaging peaks at 123, the norms at 118 (the mesh's own edge
        # lengths and normals: 154 and 153; its gradients and signs too: 225 and
        # 224; whole-mesh temporaries too: 281 and 317)
        assert average <= 126
        assert norms <= 121
