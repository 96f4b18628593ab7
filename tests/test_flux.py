import math
import tracemalloc

import numpy as np
import pytest

from fria.fem import P1Solution, energy_norm, solve_diffusion
from fria.flux import (
    RT0Field,
    defect_norm,
    flux_defect_norms,
    residual_norm,
    rt_average,
    rt_divergence,
)
from fria.mesh import _finalize, build_unit_square
from fria.weights import DiagonalWeight, FullWeight
from reference_quadrature import MIDPOINT3, defect_by_rule, rolled_square

IDENT = DiagonalWeight((1.0, 1.0))
ANISO = DiagonalWeight((1.0, 1e-4))
FULL = FullWeight(((2.0, 0.5), (0.5, 1.0)))

# 7-point degree-5 rule on the reference triangle (barycentric points,
# weights summing to 1), an independent cross-check of the closed form
_A1, _B1 = 0.059715871789770, 0.470142064105115
_A2, _B2 = 0.797426985353087, 0.101286507323456
DEGREE5 = (
    np.array(
        [
            [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
            [_A1, _B1, _B1],
            [_B1, _A1, _B1],
            [_B1, _B1, _A1],
            [_A2, _B2, _B2],
            [_B2, _A2, _B2],
            [_B2, _B2, _A2],
        ]
    ),
    np.array([0.225] + [0.132394152788506] * 3 + [0.125939180544827] * 3),
)


def interpolant(mesh, fn):
    values = fn(mesh.vertices[:, 0], mesh.vertices[:, 1])
    return P1Solution(mesh, values)


def single_reference_triangle():
    return _finalize(
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)], "square", 1, 1
    )


class TestAverage:
    def test_constant_gradient_is_fixed_point(self, mesh_cache):
        m = mesh_cache("square", 4)
        alpha = FullWeight(((2.0, 1.0), (1.0, 3.0)))
        s = interpolant(m, lambda x, y: 2.0 * x + 3.0 * y)
        field = rt_average(s, alpha)
        q = np.asarray(alpha.matrix) @ np.array([2.0, 3.0])
        expected = m.edge_lengths * (m.edge_normals @ q)
        assert np.allclose(field.dofs, expected, atol=1e-13)

    def test_zero_solution_gives_zero_field(self, mesh_cache):
        m = mesh_cache("square", 4)
        s = interpolant(m, lambda x, y: 0.0 * x)
        assert np.all(rt_average(s, IDENT).dofs == 0.0)

    def test_normal_continuity_is_structural(self, mesh_cache):
        # one dof per edge: both adjacent triangles see the same normal flux
        m = mesh_cache("lshape", 0)
        s = solve_diffusion(m, ANISO, 1.0)
        field = rt_average(s, ANISO)
        assert field.dofs.shape == (m.num_edges,)


class TestDivergence:
    def test_constant_flux_is_divergence_free(self, mesh_cache):
        m = mesh_cache("square", 4)
        s = interpolant(m, lambda x, y: 1.5 * x - 0.5 * y)
        div = rt_divergence(rt_average(s, IDENT))
        assert np.abs(div).max() <= 1e-11

    def test_unit_outflow_single_triangle(self):
        m = single_reference_triangle()
        field = RT0Field(m, m.edge_lengths.copy())
        perimeter = m.edge_lengths.sum()
        area = m.areas[0]
        assert rt_divergence(field)[0] == pytest.approx(perimeter / area, rel=1e-14)

    def test_finite_difference_oracle(self, mesh_cache):
        # the field is affine inside each triangle, so central differences
        # at the centroid recover the divergence exactly
        m = mesh_cache("square", 4)
        rng = np.random.default_rng(8)
        field = RT0Field(m, rng.normal(size=m.num_edges))
        div = rt_divergence(field)
        centroid = np.full((1, 3), 1.0 / 3.0)
        h = 0.01 / m.n
        deltas = []
        for dx, dy in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)):
            corners = m.vertices[m.triangles]
            pts = np.einsum("kb,tbx->tkx", centroid, corners)
            pts += np.array([dx, dy])
            # evaluate by the same barycentric formula shifted in space
            coeff = field.dofs[m.tri_edges] * m.tri_edge_signs
            coeff = coeff / (2.0 * m.areas[:, None])
            diff = pts[:, :, None, :] - corners[:, None, :, :]
            deltas.append(np.einsum("tj,tkjx->tkx", coeff, diff)[:, 0, :])
        fd = (deltas[0][:, 0] - deltas[1][:, 0]) / (2 * h) + (
            (deltas[2][:, 1] - deltas[3][:, 1]) / (2 * h)
        )
        assert np.allclose(fd, div, atol=1e-9)

    def test_global_divergence_theorem(self, mesh_cache):
        m = mesh_cache("lshape", 0)
        rng = np.random.default_rng(13)
        field = RT0Field(m, rng.normal(size=m.num_edges))
        total = float(np.sum(m.areas * rt_divergence(field)))
        boundary = np.flatnonzero(m.edge_tris[:, 1] < 0)
        assert total == pytest.approx(field.dofs[boundary].sum(), abs=1e-12)


class TestNorms:
    def test_bytes_per_triangle(self, mesh_cache):
        # each (t, 3) temporary is dropped once read: the norms peak at 112
        # bytes per triangle above the mesh, solution and flux (keeping all: 208)
        m = mesh_cache("lshape", 4)
        s = interpolant(m, lambda x, y: x * y)
        field = rt_average(s, ANISO)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            flux_defect_norms(field, s, ANISO, 1.0)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        nt = m.num_triangles
        assert peak / nt <= 150

    def test_exact_flux_gives_zero(self, mesh_cache):
        m = mesh_cache("square", 4)
        alpha = FullWeight(((2.0, 1.0), (1.0, 3.0)))
        s = interpolant(m, lambda x, y: 2.0 * x + 3.0 * y)
        field = rt_average(s, alpha)
        res, defect = flux_defect_norms(field, s, alpha, 0.0)
        assert res <= 1e-11
        assert defect <= 1e-11

    def test_zero_flux_decomposition(self):
        m = build_unit_square(1)
        s = solve_diffusion(m, IDENT, 1.0)
        field = RT0Field(m, np.zeros(m.num_edges))
        res, defect = flux_defect_norms(field, s, IDENT, 1.0)
        assert res == pytest.approx(1.0, rel=1e-14)
        assert defect == pytest.approx(energy_norm(s, IDENT), abs=1e-14)

    def test_zero_flux_defect_equals_energy(self, mesh_cache):
        m = mesh_cache("square", 8)
        s = solve_diffusion(m, IDENT, 1.0)
        field = RT0Field(m, np.zeros(m.num_edges))
        assert defect_norm(field, s, IDENT) == pytest.approx(
            energy_norm(s, IDENT), rel=1e-13
        )

    @pytest.mark.parametrize("rule", [DEGREE5, MIDPOINT3], ids=["degree5", "midpoint"])
    @pytest.mark.parametrize("alpha", [FULL, ANISO], ids=["full", "aniso"])
    @pytest.mark.parametrize(
        "domain, k",
        [("square", n) for n in (4, 5, 8, 32, 64, 128)]
        + [("lshape", level) for level in range(5)]
        + [("rolled", 5)],
    )
    def test_defect_matches_quadrature(self, mesh_cache, domain, k, alpha, rule):
        # both rules integrate the quadratic integrand exactly; the midpoint
        # rule is the one the closed form replaced
        m = rolled_square(k, 1) if domain == "rolled" else mesh_cache(domain, k)
        rng = np.random.default_rng(21)
        s = interpolant(m, lambda x, y: rng.normal(size=x.shape))
        field = rt_average(s, alpha)
        oracle = defect_by_rule(field, s, alpha, rule)
        assert defect_norm(field, s, alpha) == pytest.approx(oracle, rel=1e-12)

    def test_residual_against_quadrature_oracle(self, mesh_cache):
        m = mesh_cache("lshape", 0)
        s = solve_diffusion(m, ANISO, 1.0)
        field = rt_average(s, ANISO)
        produced = residual_norm(field, 1.0)
        bary, wq = DEGREE5
        div = rt_divergence(field)
        vals = (1.0 + div[:, None]) * np.ones((1, len(wq)))
        oracle = math.sqrt(np.einsum("tk,k,t->", vals * vals, wq, m.areas))
        assert produced == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("domain, k", [("lshape", 0), ("square", 8)])
    def test_residual_of_constant_moments_is_the_constant(self, mesh_cache, domain, k):
        m = mesh_cache(domain, k)
        s = solve_diffusion(m, ANISO, 1.0)
        field = rt_average(s, ANISO)
        moments = (np.full(m.num_triangles, 1.0), np.zeros(m.num_triangles))
        assert residual_norm(field, moments) == residual_norm(field, 1.0)

    def test_singular_weight_rejected(self, mesh_cache):
        m = mesh_cache("square", 4)
        s = interpolant(m, lambda x, y: x)
        field = RT0Field(m, np.zeros(m.num_edges))
        with pytest.raises(ValueError, match="singular"):
            defect_norm(field, s, DiagonalWeight((1.0, 0.0)))

    def test_mismatched_meshes_rejected(self, mesh_cache):
        m1 = mesh_cache("square", 4)
        m2 = mesh_cache("square", 8)
        s = interpolant(m1, lambda x, y: x)
        field = RT0Field(m2, np.zeros(m2.num_edges))
        with pytest.raises(ValueError, match="different meshes"):
            flux_defect_norms(field, s, IDENT, 0.0)


def test_rt_values_normal_flux_reproduction(mesh_cache):
    # integrating the normal component over each edge returns the dof
    m = single_reference_triangle()
    rng = np.random.default_rng(34)
    field = RT0Field(m, rng.normal(size=m.num_edges))
    for e in range(m.num_edges):
        a, b = m.vertices[m.edges[e]]
        ts = np.linspace(0.0, 1.0, 5)[:, None]
        pts = a + ts * (b - a)
        corners = m.vertices[m.triangles[0]]
        coeff = field.dofs[m.tri_edges[0]] * m.tri_edge_signs[0] / (2.0 * m.areas[0])
        vals = np.einsum("j,kjx->kx", coeff, pts[:, None, :] - corners[None, :, :])
        fluxes = vals @ m.edge_normals[e]
        # constant along the edge and equal to dof / |e|
        assert np.allclose(fluxes, field.dofs[e] / m.edge_lengths[e], atol=1e-12)
