import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fria.fem import (
    P1Solution,
    SolverError,
    conjugate_gradients,
    energy_norm,
    lumped_load,
    multigrid_stiffness,
    solve_diffusion,
)
from fria.friedrichs import best_bound
import fria
from fria import fem
from fria.weights import DiagonalWeight, DInterval, FullWeight
from reference_assembly import mass_by_triplets, reduce_system, row_sums, stiffness_by_triplets
from reference_quadrature import rolled_square, tiny_triangle_soup

IDENT = DiagonalWeight((1.0, 1.0))
ANISO = DiagonalWeight((1.0, 1e-4))
ANISO_Y = DiagonalWeight((1e-4, 1.0))
FULL = FullWeight(((2.0, 0.5), (0.5, 1.0)))
# eigenvalues 1 and 1e-4 along the diagonals: equal diagonal entries
ROTATED = FullWeight(((0.50005, 0.49995), (0.49995, 0.50005)))
# a weight whose optimized stiffness contraction rounds differently
SKEWED = FullWeight(((3.0, -1.2), (-1.2, 0.7)))

# meshes on which the direct reduced assembly must equal the sliced triplet scatter
ASSEMBLY_MESHES = {
    "lshape0": lambda c: c("lshape", 0),
    "lshape1": lambda c: c("lshape", 1),
    "lshape2": lambda c: c("lshape", 2),
    "lshape3": lambda c: c("lshape", 3),
    "square1": lambda c: c("square", 1),
    "square3": lambda c: c("square", 3),
    "square8": lambda c: c("square", 8),
    "rolled8-1": lambda c: rolled_square(8, 1),
    "rolled8-2": lambda c: rolled_square(8, 2),
    "soup1e-7": lambda c: tiny_triangle_soup(),
}
# The triplet scatter adds a vertex's diagonal terms in the order scipy's
# unstable in-row sort leaves them, the edge table in triangle order.  The
# orders give the same bits on the L-shapes and the power-of-two squares
# the commands build, but not on these meshes, where they differ in the last bit.
ORDER_SENSITIVE = {"square3", "rolled8-1"}

# the two entry points that assemble a stiffness, as (mesh, weight) -> result
ENTRIES = [lambda m, w: solve_diffusion(m, w, 1.0), lambda m, w: fria.estimate_cfa(m, w)]

# n -> infinity energy of -div grad u = 1 on the unit square, computed on
# the n=256 mesh (the independent Fourier series gives 0.18746801)
SQUARE_UNIT_LOAD_ENERGY = 0.18746336


def interpolant(mesh, fn):
    values = fn(mesh.vertices[:, 0], mesh.vertices[:, 1])
    return P1Solution(mesh, values)


class TestSolve:
    def test_zero_load_gives_zero_solution(self, mesh_cache):
        s = solve_diffusion(mesh_cache("lshape", 0), ANISO, 0.0)
        assert np.all(s.values == 0.0)
        assert s.iterations == 0

    def test_boundary_values_exactly_zero(self, mesh_cache):
        m = mesh_cache("lshape", 0)
        s = solve_diffusion(m, ANISO, 1.0)
        assert np.all(s.values[m.boundary_vertex] == 0.0)
        assert np.any(s.values != 0.0)

    def test_gradient_cache_consistent(self, mesh_cache):
        m = mesh_cache("square", 8)
        s = solve_diffusion(m, IDENT, 1.0)
        rng = np.random.default_rng(1)
        for t in rng.integers(0, m.num_triangles, size=10):
            pts = m.vertices[m.triangles[t]]
            basis = np.column_stack([np.ones(3), pts])
            coeff = np.linalg.solve(basis, s.values[m.triangles[t]])
            assert np.allclose(coeff[1:], s.gradients[t], atol=1e-12)

    @pytest.mark.parametrize(
        "build", [lambda c: c("lshape", 1), lambda c: rolled_square(8, 1)], ids=["L1", "rolled"]
    )
    def test_gradients_derived_from_values(self, mesh_cache, build):
        m = build(mesh_cache)
        values = np.random.default_rng(3).normal(size=m.num_vertices)
        s = P1Solution(m, values)
        corners = values[m.triangles]
        by_triangle = sum(corners[:, j, None] * m.grads[:, j] for j in range(3))
        assert np.array_equal(s.gradients, by_triangle)
        # a copy with other values derives its own gradients, never a stale one
        doubled = dataclasses.replace(s, values=2.0 * s.values)
        assert np.array_equal(doubled.gradients, 2.0 * s.gradients)

    def test_energy_reference_from_fine_grid(self, mesh_cache):
        energies = []
        for n in (16, 32, 64):
            s = solve_diffusion(mesh_cache("square", n), IDENT, 1.0)
            energies.append(energy_norm(s, IDENT))
        # Galerkin energies increase towards the reference value
        assert energies == sorted(energies)
        assert all(e <= SQUARE_UNIT_LOAD_ENERGY for e in energies)
        assert energies[-1] >= 0.999 * SQUARE_UNIT_LOAD_ENERGY

    def test_refinement_monotonicity_lshape(self, mesh_cache):
        energies = [
            energy_norm(solve_diffusion(mesh_cache("lshape", lvl), ANISO, 1.0), ANISO)
            for lvl in (0, 1, 2)
        ]
        assert energies == sorted(energies)

    @pytest.mark.parametrize("domain, k", [("lshape", 0), ("square", 8)])
    def test_callable_source_matches_constant(self, mesh_cache, domain, k):
        m = mesh_cache(domain, k)
        a = solve_diffusion(m, ANISO, 1.0)
        b = solve_diffusion(m, ANISO, lambda x, y: np.full_like(x, 1.0))
        assert np.array_equal(a.values, b.values)

    def test_power_of_two_weight_scaling_is_exact(self, mesh_cache):
        # 2^1020 FULL overflows g alpha g^T unless the weight is scaled into
        # float range first; the source 2^20 keeps the scaled-back values normal
        m = mesh_cache("lshape", 0)
        k = 1020
        big = FullWeight(tuple(tuple(2.0**k * a for a in row) for row in FULL.matrix))
        one = solve_diffusion(m, FULL, 2.0**20)
        huge = solve_diffusion(m, big, 2.0**20)
        assert huge.iterations == one.iterations
        assert np.array_equal(huge.values, one.values / 2.0**k)
        assert np.all(np.abs(huge.values[huge.values != 0.0]) >= np.finfo(float).tiny)

    def test_continuous_dependence_on_load(self, mesh_cache):
        m = mesh_cache("lshape", 0)
        s = solve_diffusion(m, ANISO, 1.0)
        bound = best_bound(DInterval((1.0, 1.0)), ANISO).value
        norm_f = math.sqrt(0.75)
        assert energy_norm(s, ANISO) <= bound * norm_f


class TestAssembly:
    def test_stiffness_rows_sum_to_zero(self, mesh_cache):
        for dom, k, alpha in [
            ("lshape", 0, ANISO),
            ("lshape", 1, ANISO),
            ("square", 8, FullWeight(((2.0, 0.5), (0.5, 1.0)))),
        ]:
            assert np.abs(row_sums(mesh_cache(dom, k), alpha)).max() <= 1e-12

    @pytest.mark.parametrize("alpha", [ANISO, FULL, SKEWED], ids=["aniso", "full", "skewed"])
    @pytest.mark.parametrize("mesh_name", ["rolled", "lshape1"])
    def test_stiffness_matches_per_triangle_loop(self, mesh_cache, mesh_name, alpha):
        m = rolled_square(6, 1) if mesh_name == "rolled" else mesh_cache("lshape", 1)
        a = np.asarray(alpha.matrix)
        nv = m.num_vertices
        # sum of |T| grad phi_i^T alpha grad phi_j, and of its magnitudes
        want, scale = np.zeros((nv, nv)), np.zeros((nv, nv))
        for tri, area, g in zip(m.triangles, m.areas, m.grads):
            for i in range(3):
                for j in range(3):
                    value = area * (g[i] @ a @ g[j])
                    want[tri[i], tri[j]] += value
                    scale[tri[i], tri[j]] += abs(value)
        s, k, _ = m.dirichlet.stiffness(alpha)
        free = m.interior_vertices
        got = s * k.toarray()  # exact: s is a power of two
        assert np.all(np.abs(got - want[np.ix_(free, free)]) <= 1e-15 * scale[np.ix_(free, free)])

    @pytest.mark.parametrize(
        "alpha", [IDENT, ANISO, ANISO_Y, FULL, ROTATED, SKEWED],
        ids=["ident", "aniso", "aniso_y", "full", "rotated", "skewed"],
    )
    @pytest.mark.parametrize("mesh_name", list(ASSEMBLY_MESHES))
    def test_direct_reduced_stiffness_is_the_sliced_one(self, mesh_cache, mesh_name, alpha):
        m = ASSEMBLY_MESHES[mesh_name](mesh_cache)
        s, got, _ = m.dirichlet.stiffness(alpha)
        scaled = FullWeight(tuple(tuple(a / s for a in row) for row in alpha.matrix))
        want = reduce_system(stiffness_by_triplets(m, scaled), m)
        assert got.shape == want.shape
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.indptr, want.indptr)
        if mesh_name not in ORDER_SENSITIVE:
            assert np.array_equal(got.data, want.data)
            return
        diagonal = got.indices == np.repeat(np.arange(got.shape[0]), np.diff(got.indptr))
        assert np.array_equal(got.data[~diagonal], want.data[~diagonal])
        ulps = np.abs(got.data - want.data) / np.spacing(np.abs(want.data))
        assert ulps.max() <= 2.0

    @pytest.mark.parametrize(
        "alpha", [ANISO, ANISO_Y, FULL, ROTATED, SKEWED],
        ids=["aniso", "aniso_y", "full", "rotated", "skewed"],
    )
    @pytest.mark.parametrize("mesh_name", list(ASSEMBLY_MESHES))
    def test_stiffness_bits_match_triplet_scatter(self, mesh_cache, mesh_name, alpha):
        # the per-vertex and per-edge sums on the whole mesh, boundary included
        m = ASSEMBLY_MESHES[mesh_name](mesh_cache)
        sums = fem._sums(m, fem._stiffness_entries(m, np.asarray(alpha.matrix, dtype=float)))
        got, want = _edge_table(sums, m), _edge_table_of(stiffness_by_triplets(m, alpha), m)
        if mesh_name not in ORDER_SENSITIVE:
            assert got.tobytes() == want.tobytes()
            return
        nv = m.num_vertices
        assert np.array_equal(got[nv:], want[nv:])
        ulps = np.abs(got[:nv] - want[:nv]) / np.spacing(np.abs(want[:nv]))
        assert ulps.max() <= 2.0

    @pytest.mark.parametrize("mesh_name", list(ASSEMBLY_MESHES))
    def test_mass_bits_match_triplet_scatter(self, mesh_cache, mesh_name):
        m = ASSEMBLY_MESHES[mesh_name](mesh_cache)
        got = _edge_table(fem._sums(m, fem._mass_entries(m)), m)
        assert got.tobytes() == _edge_table_of(mass_by_triplets(m), m).tobytes()

    @pytest.mark.parametrize("mesh_name", list(ASSEMBLY_MESHES))
    def test_direct_reduced_mass_is_the_sliced_one(self, mesh_cache, mesh_name):
        m = ASSEMBLY_MESHES[mesh_name](mesh_cache)
        _assert_same_csr(m.dirichlet.mass, reduce_system(mass_by_triplets(m), m))

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("entry", ENTRIES, ids=["solve", "oracle"])
    def test_weight_not_2d_refused_before_any_layout(self, monkeypatch, entry, d):
        layouts = []
        monkeypatch.setattr(fem, "_line_layout", lambda *args: layouts.append(args))
        m = fria.build_unit_square(8)  # a fresh mesh: no kept layout
        with pytest.raises(ValueError, match="^diffusion assembly needs a 2x2 weight$"):
            entry(m, DiagonalWeight((1.0,) * d))
        assert layouts == []

    @pytest.mark.parametrize("entry", ENTRIES, ids=["solve", "oracle"])
    def test_weight_that_overflows_when_scaled_is_refused_unwarned(self, mesh_cache, entry):
        # lambda_max = 1e-310 gives s = 2**-1030, and -1e10 / s overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="not positive definite"):
                entry(mesh_cache("square", 4), DiagonalWeight((1e-310, -1e10)))

    def test_kept_pattern_is_read_only(self, mesh_cache):
        # the matrices of every weight share it: an in-place edit of one raises
        m = mesh_cache("square", 8)
        k = m.dirichlet.stiffness(ANISO)[1]
        assert not any(part.flags.writeable for part in m.dirichlet.pattern)
        assert np.shares_memory(k.indices, m.dirichlet.pattern[1])

    def test_solve_keeps_nothing_on_the_mesh(self):
        m = fria.build_lshape(1)
        solve_diffusion(m, ANISO, 1.0)
        assert "dirichlet" not in vars(m)

    @pytest.mark.parametrize(
        "use",
        [lambda d: d.mass, lambda d: d.lines(0), lambda d: d.stiffness(IDENT)],
        ids=["mass", "lines", "stiffness"],
    )
    def test_dirichlet_of_a_freed_mesh_says_so(self, use):
        dirichlet = fria.build_unit_square(2).dirichlet  # the mesh is freed here
        with pytest.raises(ReferenceError, match="no longer exists"):
            use(dirichlet)

    def test_reduced_system_exactly_symmetric(self, mesh_cache):
        m = mesh_cache("square", 8)
        a = m.dirichlet.stiffness(ANISO)[1]
        assert (a - a.T).nnz == 0
        assert a.shape == (len(m.interior_vertices),) * 2

    def test_galerkin_orthogonality(self, mesh_cache):
        m = mesh_cache("lshape", 0)
        s = solve_diffusion(m, ANISO, 1.0)
        scale, k, _ = m.dirichlet.stiffness(ANISO)
        free = m.interior_vertices
        residual = lumped_load(m, 1.0)[free] - scale * (k @ s.values[free])
        assert np.abs(residual).max() <= 1e-8

    def test_load_is_exact_for_constant_f(self, mesh_cache):
        m = mesh_cache("square", 4)
        load = lumped_load(m, 2.0)
        assert load.sum() == pytest.approx(2.0 * 1.0, rel=1e-13)

    @pytest.mark.parametrize(
        "domain, k", [("lshape", 0), ("lshape", 1), ("lshape", 2), ("lshape", 3), ("square", 7)]
    )
    def test_load_matches_unbuffered_scatter(self, mesh_cache, domain, k):
        m = mesh_cache(domain, k)
        nodal_f = np.random.default_rng(k).standard_normal(m.num_vertices)
        expected = np.zeros(m.num_vertices)
        np.add.at(expected, m.triangles.ravel(), np.repeat(m.areas / 3.0, 3))
        assert np.array_equal(lumped_load(m, nodal_f), expected * nodal_f)


def _edge_table(sums, mesh):
    """``fem._sums`` laid out as ``_edge_table_of`` lays out a full matrix:
    the diagonal, then each edge (lo, hi)'s entry, then its mirror's."""
    nv = mesh.num_vertices
    return np.concatenate([sums[:nv], sums[nv:], sums[nv:]])


def _edge_table_of(matrix, mesh):
    """The diagonal of the full CSR ``matrix``, then its entries at each edge
    (lo, hi) and at (hi, lo); it must hold no other entry."""
    lo, hi = mesh.edges.T
    assert matrix.nnz == mesh.num_vertices + 2 * mesh.num_edges
    return np.concatenate(
        [matrix.diagonal(), np.asarray(matrix[lo, hi]).ravel(), np.asarray(matrix[hi, lo]).ravel()]
    )


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    assert got.data.tobytes() == want.data.tobytes()
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.indptr, want.indptr)
    assert got.has_canonical_format and want.has_canonical_format


class TestEnergyNorm:
    def test_zero(self, mesh_cache):
        m = mesh_cache("square", 4)
        zero = interpolant(m, lambda x, y: 0.0 * x)
        assert energy_norm(zero, IDENT) == 0.0

    def test_linear_interpolant(self, mesh_cache):
        m = mesh_cache("square", 4)
        s = interpolant(m, lambda x, y: x)
        assert energy_norm(s, IDENT) == pytest.approx(1.0, rel=1e-14)

    def test_weight_scaling(self, mesh_cache):
        m = mesh_cache("square", 4)
        s = interpolant(m, lambda x, y: x * y + 0.3 * x)
        w = FullWeight(((2.0, 0.5), (0.5, 1.0)))
        w2 = FullWeight(((4.0, 1.0), (1.0, 2.0)))
        assert energy_norm(s, w2) == pytest.approx(math.sqrt(2.0) * energy_norm(s, w), rel=1e-14)


class TestConjugateGradients:
    def test_nonconvergence_raises(self, mesh_cache, monkeypatch):
        m = mesh_cache("square", 8)
        _, system, precondition = m.dirichlet.stiffness(IDENT)
        b = np.ones(system.shape[0])
        monkeypatch.setattr(fem, "_ITERS_PER_UNKNOWN", 0)
        with pytest.raises(SolverError, match="did not reach rtol=1e-10 within 0 iterations"):
            conjugate_gradients(system, b, precondition)

    def test_overflowing_inner_product_raises(self, mesh_cache):
        m = mesh_cache("square", 8)
        _, system, precondition = m.dirichlet.stiffness(IDENT)
        b = np.full(system.shape[0], 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="float range"):
                conjugate_gradients(system, b, precondition)

    def test_indefinite_detected(self):
        system = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(SolverError, match="curvature"):
            conjugate_gradients(system, np.array([1.0, -1.0]), lambda r: r)

    def test_achieved_residual_matches_request(self, mesh_cache):
        m = mesh_cache("lshape", 1)
        s = solve_diffusion(m, ANISO, 1.0)
        assert s.residual <= 1.0000001e-10


def _system(m, alpha):
    return reduce_system(stiffness_by_triplets(m, alpha), m)


class TestLinePreconditioner:
    # weight -> the coordinate that is constant along its lines
    CROSS = [(ANISO, 1), (ANISO_Y, 0), (FULL, 1), (ROTATED, 1)]

    @pytest.mark.parametrize("domain, k", [("lshape", 0), ("square", 8)])
    @pytest.mark.parametrize("alpha, cross", CROSS, ids=["x", "y", "full", "tie"])
    def test_solves_the_line_blocks(self, mesh_cache, domain, k, alpha, cross):
        m = mesh_cache(domain, k)
        _, system, apply = m.dirichlet.stiffness(alpha)
        y = m.vertices[m.interior_vertices, cross]
        blocks = np.where(y[:, None] == y[None, :], system.toarray(), 0.0)
        r = np.random.default_rng(k).standard_normal(system.shape[0])
        expected = np.linalg.solve(blocks, r)
        z = apply(r)
        assert np.linalg.norm(z - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("domain, k", [("lshape", 1), ("square", 9)])
    @pytest.mark.parametrize("alpha", [ANISO, ANISO_Y, FULL], ids=["x", "y", "full"])
    def test_symmetric(self, mesh_cache, domain, k, alpha):
        m = mesh_cache(domain, k)
        apply = m.dirichlet.stiffness(alpha)[2]
        r1, r2 = np.random.default_rng(3).standard_normal((2, len(m.interior_vertices)))
        z1, z2 = apply(r1), apply(r2)
        assert r2 @ z1 == pytest.approx(r1 @ z2, rel=1e-13)
        assert r1 @ z1 > 0.0 and r2 @ z2 > 0.0

    def test_repeated_applies_agree(self, mesh_cache):
        m = mesh_cache("lshape", 1)
        apply = m.dirichlet.stiffness(ANISO_Y)[2]
        r1, r2 = np.random.default_rng(4).standard_normal((2, len(m.interior_vertices)))
        first = apply(r1)
        apply(r2)
        assert np.array_equal(apply(r1), first)

    def test_nonpositive_pivot_raises(self, mesh_cache):
        # the pivots run 1, 0 on every x-line: raised before dividing by 0
        with pytest.raises(SolverError, match="not positive definite"):
            solve_diffusion(mesh_cache("square", 8), DiagonalWeight((1.0, -0.5)), 1.0)

    @pytest.mark.parametrize("pivot", ["zero", "negative"])
    def test_first_nonpositive_pivot_in_a_middle_row_raises(self, mesh_cache, pivot):
        # the x-line y = 1/2 of square 8 gets a 4th pivot of 0 or below; a zero
        # one fills the rows after it with inf and nan, and no warning escapes
        m = mesh_cache("square", 8)
        system = _system(m, ANISO)
        coords = m.vertices[m.interior_vertices]
        line = np.flatnonzero(coords[:, 1] == 0.5)
        line = line[np.argsort(coords[line, 0])]
        block = system[line][:, line].toarray()
        piv = block[0, 0]
        for i in range(1, 3):
            low = block[i - 1, i] / piv
            piv = block[i, i] - low * low * piv
        low = block[2, 3] / piv
        system[line[3], line[3]] = low * low * piv if pivot == "zero" else -1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="not positive definite"):
                fem._line_factor(system, m.dirichlet.lines(0))  # along x, as for ANISO

    def test_pivot_too_small_to_invert_raises(self, mesh_cache):
        # the pivots are subnormal, so their reciprocals overflow
        m = mesh_cache("square", 4)
        tiny = DiagonalWeight((1e-310, 1e-310))
        system = _system(m, tiny)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="too small to invert"):
                fem._line_factor(system, m.dirichlet.lines(0))  # along x, the tie

    def test_anisotropic_iterations_do_not_depend_on_the_axis(self, mesh_cache):
        counts = [
            [solve_diffusion(mesh_cache("lshape", lvl), w, 1.0).iterations for lvl in range(5)]
            for w in (ANISO, ANISO_Y)
        ]
        assert counts[0] == counts[1]
        assert counts[0][-1] <= 25

    @pytest.mark.parametrize(
        "alpha", [ANISO, ANISO_Y, IDENT, FULL, ROTATED], ids=["x", "y", "ident", "full", "rotated"]
    )
    def test_matches_direct_solve(self, mesh_cache, alpha):
        m = mesh_cache("lshape", 3)
        s = solve_diffusion(m, alpha, 1.0)
        free = m.interior_vertices
        expected = spla.spsolve(_system(m, alpha).tocsc(), lumped_load(m, 1.0)[free])
        error = np.linalg.norm(s.values[free] - expected)
        assert error <= 1e-8 * np.linalg.norm(expected)

    def test_solve_loads_no_scipy_linalg(self):
        code = (
            "import sys\n"
            "import fria\n"
            "fria.solve_diffusion(fria.build_lshape(0), fria.DiagonalWeight((1.0, 1e-4)), 1.0)\n"
            "fria.estimate_cfa(fria.build_lshape(1), fria.DiagonalWeight((1.0, 1e-4)))\n"
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.linalg', 'scipy.sparse.linalg'))))\n"
        )
        assert _fresh_python(code) == "[]\n"


def _fresh_python(code):
    """stdout of ``code`` run by a new interpreter with ``PYTHONPATH=src``."""
    src = str(Path(fem.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return out.stdout


# every name the package exported eagerly before its array half was loaded
# on first access, by home module; the module ``manufactured`` is the 44th
EXPORTS = {
    "fem": ["P1Solution", "SolverError", "energy_norm", "solve_diffusion"],
    "flux": ["RT0Field", "flux_defect_norms", "rt_average", "rt_divergence"],
    "friedrichs": [
        "BoundReport", "BoundUnavailable", "best_bound", "coarse_bound", "coercivity_threshold",
        "diagonal_bound", "full_bound", "mikhlin_bound", "semidef_bound", "sharp_bound",
    ],
    "majorant": ["MajorantBreakdown", "evaluate_majorant", "run_refinement_experiment"],
    "maxwell": [
        "MaxwellInput", "maxwell_bound", "maxwell_coarse", "maxwell_diagonal",
        "maxwell_from_parts", "maxwell_full", "poincare_convex_bound",
    ],
    "mesh": ["TriMesh", "build_lshape", "build_unit_square", "dump_mesh", "prolongation", "validate"],
    "oracle": ["EigenEstimate", "estimate_cfa", "reference_energy_error"],
    "weights": [
        "DiagonalWeight", "DInterval", "FullWeight", "WeightError", "parse_weight",
        "tilde_reduction",
    ],
}
# prints the array packages the program loaded
LOADED = "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))\n"


class TestColdStart:
    @pytest.mark.parametrize("statement", ["import fria", "from fria import cli"])
    def test_import_loads_no_numpy(self, statement):
        assert _fresh_python(f"import sys\n{statement}\n" + LOADED) == "[]\n"

    @pytest.mark.parametrize(
        "verb, code, loaded",
        [
            ("bounds friedrichs --lengths 1,1 --weight diag:1,1e-4", 0, []),
            ("bounds friedrichs --lengths 1,2", 0, []),
            ("bounds maxwell --lengths 1,1,1", 0, []),
            ("table 1", 0, []),
            ("table 3", 0, []),
            ("bounds friedrichs --lengths 1,x", 1, []),
            # eigvalsh needs numpy; scipy still stays out
            ("bounds friedrichs --lengths 1,1 --weight full:2,0.5,1", 0, ["numpy"]),
        ],
    )
    def test_closed_form_verbs_load_no_numpy(self, verb, code, loaded):
        program = (
            "import contextlib, io, sys\n"
            "from fria.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    print(main({verb.split()!r}), file=sys.__stdout__)\n" + LOADED
        )
        assert _fresh_python(program) == f"{code}\n{loaded}\n"

    def test_every_export_resolves_on_first_access(self):
        assert sum(map(len, EXPORTS.values())) + 1 == 44
        # manufactured first: its lazy import must not probe the package for itself
        program = (
            "import importlib, sys\n"
            "import fria\n"
            f"exports = {EXPORTS!r}\n"
            "names = {'manufactured', *(n for ns in exports.values() for n in ns)}\n"
            "print(names <= set(dir(fria)))\n"
            "try:\n"
            "    fria.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n" + LOADED +
            "print(fria.manufactured is importlib.import_module('fria.manufactured'))\n"
            "home = {n: importlib.import_module('fria.' + m) for m, ns in exports.items() for n in ns}\n"
            "print(sorted(n for n, m in home.items() if getattr(fria, n) is not getattr(m, n)))\n"
        )
        assert _fresh_python(program) == (
            "True\nmodule 'fria' has no attribute 'no_such_name'\n[]\nTrue\n[]\n"
        )

    def test_closed_form_verbs_load_no_scipy(self):
        code = (
            "import contextlib, io, sys\n"
            "import fria, fria.cli\n"
            "verbs = [\n"
            "    'bounds friedrichs --lengths 1,1 --weight diag:1,1e-4',\n"
            "    'bounds friedrichs --lengths 1,2 --weight full:2,0.5,1',\n"
            "    'bounds maxwell --lengths 1,1,1',\n"
            "    'table 1',\n"
            "    'table 3',\n"
            "    'experiment table2 --levels 9',\n"
            "]\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    codes = [fria.cli.main(v.split()) for v in verbs]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "fria.solve_diffusion(fria.build_lshape(0), fria.DiagonalWeight((1.0, 1e-4)), 1.0)\n"
            "print('scipy.sparse' in sys.modules)\n"
        )
        assert _fresh_python(code) == "[0, 0, 0, 0, 0, 1] []\nTrue\n"

    @pytest.mark.parametrize(
        "call",
        [
            "fria.prolongation(square, fria.build_unit_square(4))",
            "square.dirichlet.mass",
        ],
        ids=["prolongation", "dirichlet_mass"],
    )
    def test_sparse_constructor_works_first(self, call):
        # square is named: a Dirichlet holds its mesh by a weak reference
        code = (
            "import json, sys\n"
            "import fria\n"
            "square = fria.build_unit_square(2)\n"
            "assert 'scipy' not in sys.modules\n"
            f"m = {call}\n"
            "print(json.dumps([m.shape, m.indptr.tolist(), m.indices.tolist(), m.data.tolist()]))\n"
        )
        shape, indptr, indices, data = json.loads(_fresh_python(code))
        want = eval(call, {"fria": fria, "square": fria.build_unit_square(2)})
        assert tuple(shape) == want.shape
        assert np.array_equal(indptr, want.indptr) and np.array_equal(indices, want.indices)
        assert np.array_equal(data, want.data)


class TestMultigrid:
    # square 50 stops at the odd n = 25 (576 unknowns): its coarsest level is smoothed
    @pytest.mark.parametrize("domain, k", [("square", 32), ("lshape", 2), ("square", 50)])
    @pytest.mark.parametrize("alpha", [ANISO, IDENT, FULL, ROTATED], ids=["x", "ident", "full", "rotated"])
    def test_vcycle_is_symmetric_positive(self, mesh_cache, domain, k, alpha):
        m = mesh_cache(domain, k)
        _, system, apply = multigrid_stiffness(m, alpha)
        line = m.dirichlet.stiffness(alpha)[2]
        x, y = np.random.default_rng(5).standard_normal((2, system.shape[0]))
        bx, by = apply(x), apply(y)
        assert abs(x @ by - y @ bx) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(by)
        assert x @ bx > 0.0 and y @ by > 0.0
        assert not np.allclose(bx, line(x))  # a V-cycle, not the line apply

    @pytest.mark.parametrize(
        "build",
        [
            lambda c: c("lshape", 0),
            lambda c: c("square", 8),
            lambda c: rolled_square(8, 1),
            lambda c: c("square", 33),
        ],
        ids=["L0", "n8", "rolled", "n33"],
    )
    def test_one_level_cycle_is_the_line_apply(self, mesh_cache, build):
        m = build(mesh_cache)
        apply = multigrid_stiffness(m, ANISO)[2]
        line = m.dirichlet.stiffness(ANISO)[2]
        x = np.random.default_rng(7).standard_normal(len(m.interior_vertices))
        assert np.array_equal(apply(x), line(x))

    def test_repeated_applies_agree(self, mesh_cache):
        m = mesh_cache("lshape", 2)
        apply = multigrid_stiffness(m, ANISO)[2]
        r1, r2 = np.random.default_rng(6).standard_normal((2, len(m.interior_vertices)))
        first = apply(r1)
        apply(r2)
        assert np.array_equal(apply(r1), first)

    def test_indefinite_coarsest_level_raises(self, mesh_cache, monkeypatch):
        build = fem.Dirichlet.stiffness

        def negated_on_n16(self, alpha):
            s, k, line = build(self, alpha)
            return (s, -k, line) if self._mesh.n == 16 else (s, k, line)

        monkeypatch.setattr(fem.Dirichlet, "stiffness", negated_on_n16)
        with pytest.raises(SolverError, match="not positive definite"):
            multigrid_stiffness(mesh_cache("square", 32), IDENT)
