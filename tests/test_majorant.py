import math
import weakref

import numpy as np
import pytest

from fria import majorant, manufactured
from fria.fem import P1Solution, solve_diffusion
from fria.flux import RT0Field, rt_average
from fria.majorant import evaluate_majorant, run_refinement_experiment
from fria.mesh import build_lshape, build_unit_square, validate
from fria.weights import DiagonalWeight
from reference_mesh import finalize
from reference_quadrature import (
    gauss_collapsed,
    integrate,
    physical_points,
    residual_by_rule,
    rolled_square,
    tiny_triangle_soup,
)

IDENT = DiagonalWeight((1.0, 1.0))
ANISO = DiagonalWeight((1.0, 1e-4))


def interpolant(mesh, fn):
    values = fn(mesh.vertices[:, 0], mesh.vertices[:, 1])
    return P1Solution(mesh, values)


class TestEvaluate:
    def test_zero_problem(self, mesh_cache):
        m = mesh_cache("lshape", 0)
        s = solve_diffusion(m, ANISO, 0.0)
        field = RT0Field(m, np.zeros(m.num_edges))
        bd = evaluate_majorant(0.5, s, field, ANISO, 0.0)
        assert bd.total == 0.0

    def test_breakdown_additivity_exact(self, mesh_cache):
        m = mesh_cache("lshape", 0)
        s = solve_diffusion(m, ANISO, 1.0)
        field = rt_average(s, ANISO)
        bd = evaluate_majorant(0.31829, s, field, ANISO, 1.0)
        assert bd.total == 0.31829 * bd.residual_norm + bd.defect_norm

    def test_strictly_increasing_in_constant(self, mesh_cache):
        m = mesh_cache("lshape", 0)
        s = solve_diffusion(m, ANISO, 1.0)
        field = rt_average(s, ANISO)
        small = evaluate_majorant(0.1, s, field, ANISO, 1.0)
        large = evaluate_majorant(0.2, s, field, ANISO, 1.0)
        assert small.residual_norm > 0.0
        assert large.total > small.total

    def test_constant_irrelevant_when_residual_vanishes(self, mesh_cache):
        # a divergence-free flux with f = 0 kills the residual term, and
        # the majorant becomes independent of the constant bound
        m = mesh_cache("square", 4)
        linear = interpolant(m, lambda x, y: 2.0 * x - y)
        field = rt_average(linear, IDENT)
        other = solve_diffusion(m, IDENT, 1.0)
        a = evaluate_majorant(0.1, other, field, IDENT, 0.0)
        b = evaluate_majorant(123.0, other, field, IDENT, 0.0)
        assert a.residual_norm <= 1e-11
        assert a.defect_norm > 0.0
        assert abs(a.total - b.total) <= 1e-9

    def test_rejects_nonpositive_constant(self, mesh_cache):
        m = mesh_cache("square", 4)
        s = solve_diffusion(m, IDENT, 1.0)
        field = rt_average(s, IDENT)
        with pytest.raises(ValueError):
            evaluate_majorant(0.0, s, field, IDENT, 1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                evaluate_majorant(bad, s, field, IDENT, 1.0)


class TestExperiment:
    def test_matches_session_fixture_level0(self, table2_experiment):
        rows, _ = table2_experiment
        assert rows[0].level == 0
        assert rows[0].elements == 384

    def test_duplicate_constants_give_identical_columns(self):
        rows = run_refinement_experiment([0], ANISO, 1.0, [0.31829, 0.31829])
        assert rows[0].majorants[0] == rows[0].majorants[1]

    def test_columns_strictly_decrease(self, table2_experiment):
        rows, _ = table2_experiment
        for col in range(2):
            values = [r.majorants[col] for r in rows]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_norms_computed_once_per_level(self, monkeypatch):
        calls = []
        norms = majorant.flux_defect_norms
        monkeypatch.setattr(
            majorant, "flux_defect_norms", lambda *a: calls.append(1) or norms(*a)
        )
        rows = run_refinement_experiment([0, 1], ANISO, 1.0, [22.50791, 0.31829, 1.0])
        assert len(calls) == 2
        s = solve_diffusion(build_lshape(1), ANISO, 1.0)
        field = rt_average(s, ANISO)
        assert rows[1].majorants == tuple(
            evaluate_majorant(c, s, field, ANISO, 1.0).total for c in (22.50791, 0.31829, 1.0)
        )

    def test_rejects_nonpositive_constant_before_solving(self, monkeypatch):
        monkeypatch.setattr(majorant, "build_lshape", None)
        with pytest.raises(ValueError, match="positive"):
            run_refinement_experiment([0], ANISO, 1.0, [0.31829, 0.0])
        with pytest.raises(ValueError, match="finite"):
            run_refinement_experiment([0], ANISO, 1.0, [math.nan])

    def test_previous_level_freed_before_next_build(self, monkeypatch):
        # reference counting alone frees each level: no cycle waits for the collector
        built, alive_at_build = [], []

        def build(level):
            alive_at_build.append([ref() is not None for ref in built])
            mesh = build_lshape(level)
            built.append(weakref.ref(mesh))
            return mesh

        monkeypatch.setattr(majorant, "build_lshape", build)
        run_refinement_experiment([0, 1, 2], ANISO, 1.0, [0.31829])
        assert alive_at_build == [[], [False], [False, False]]

    def test_determinism(self):
        a = run_refinement_experiment([0], ANISO, 1.0, [0.31829])
        b = run_refinement_experiment([0], ANISO, 1.0, [0.31829])
        assert a[0].majorants == b[0].majorants


class TestManufactured:
    @pytest.mark.parametrize("first_corner", [0, 1], ids=["square", "rolled"])
    def test_gradient_integrals_match_quadrature(self, first_corner):
        # a valid mesh may list each triangle from any of its corners
        square = build_unit_square(5)
        rolled = np.roll(square.triangles, first_corner, axis=1)
        m = finalize(square.vertices, rolled, "square", 5, 5)
        assert validate(m) == []
        produced = manufactured.grad_u_integrals(m)
        bary, wq = gauss_collapsed(14)
        pts = physical_points(m, bary)
        gx = np.pi * np.cos(np.pi * pts[:, :, 0]) * np.sin(np.pi * pts[:, :, 1])
        gy = np.pi * np.sin(np.pi * pts[:, :, 0]) * np.cos(np.pi * pts[:, :, 1])
        oracle = np.stack(
            [
                np.einsum("tk,k,t->t", gx, wq, m.areas),
                np.einsum("tk,k,t->t", gy, wq, m.areas),
            ],
            axis=1,
        )
        assert np.abs(produced - oracle).max() <= 1e-13

    def test_gradient_integrals_sum_to_zero(self, mesh_cache):
        # u vanishes on the whole boundary, so int grad u = 0
        total = manufactured.grad_u_integrals(mesh_cache("square", 16)).sum(axis=0)
        assert np.abs(total).max() <= 1e-12

    def test_exact_error_decreases_linearly(self, mesh_cache):
        errs = []
        for n in (16, 32):
            s = manufactured.solve(mesh_cache("square", n))
            errs.append(manufactured.exact_energy_error(s))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.02)

    def test_guaranteed_upper_bound(self, mesh_cache):
        m = mesh_cache("square", 16)
        s = manufactured.solve(m)
        field = rt_average(s, IDENT)
        c = 1.0 / (math.pi * math.sqrt(2.0))
        bd = manufactured.majorant_total(c, s, field)
        assert bd.total >= manufactured.exact_energy_error(s)

    @pytest.mark.parametrize("order", [12, 16])
    @pytest.mark.parametrize("n", [5, 8, 32, 64, 128, "rolled"])
    def test_source_moments_match_quadrature(self, mesh_cache, n, order):
        m = rolled_square(5, 1) if n == "rolled" else mesh_cache("square", n)
        mean, osc = manufactured.source_moments(m)
        rule = gauss_collapsed(order)
        pts = physical_points(m, rule[0])
        vals = manufactured.source(pts[:, :, 0], pts[:, :, 1])
        integral = integrate(m, vals, rule[1])
        assert np.abs(mean * m.areas - integral).max() <= 1e-12 * np.abs(integral).max()
        spread = integrate(m, (vals - (integral / m.areas)[:, None]) ** 2, rule[1])
        assert osc.sum() == pytest.approx(spread.sum(), rel=1e-10)
        assert np.all(osc >= 0.0)
        s = manufactured.solve(m)
        field = rt_average(s, IDENT)
        produced = manufactured.majorant_total(0.5, s, field).residual_norm
        oracle = residual_by_rule(field, manufactured.source, rule)
        assert produced == pytest.approx(oracle, rel=1e-12)

    def test_source_oscillation_clamped_on_tiny_triangles(self):
        # at h = 1e-7 the rounding of int f^2 - |T| mean^2 exceeds the true
        # oscillation and is negative on most triangles without the clamp
        m = tiny_triangle_soup()
        mean, osc = manufactured.source_moments(m)
        assert np.all(osc >= 0.0)
        centroid = m.vertices[m.triangles].mean(axis=1)
        f = manufactured.source(centroid[:, 0], centroid[:, 1])
        assert np.abs(mean - f).max() <= 1e-6

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_majorant_total_rejects_bad_constant(self, mesh_cache, bad):
        m = mesh_cache("square", 8)
        s = manufactured.solve(m)
        field = rt_average(s, IDENT)
        with pytest.raises(ValueError, match="finite and positive"):
            manufactured.majorant_total(bad, s, field)

    def test_majorant_total_computes_norms_once(self, mesh_cache, monkeypatch):
        m = mesh_cache("square", 8)
        s = manufactured.solve(m)
        field = rt_average(s, IDENT)
        calls = []
        real = majorant.flux_defect_norms

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(majorant, "flux_defect_norms", counted)
        manufactured.majorant_total(0.5, s, field)
        assert len(calls) == 1

    def test_majorant_total_rejects_flux_of_another_mesh(self, mesh_cache):
        s = manufactured.solve(mesh_cache("square", 8))
        other = rt_average(manufactured.solve(mesh_cache("square", 4)), IDENT)
        with pytest.raises(ValueError, match="different meshes"):
            manufactured.majorant_total(0.5, s, other)

    def test_rejects_lshape(self, mesh_cache):
        with pytest.raises(ValueError):
            manufactured.solve(mesh_cache("lshape", 0))

    # the closed forms hold on the unit square only: on the L-shape of level 0,
    # with the square's constant 1/(pi sqrt 2), which holds on the L-shape
    # inside it, they read an exact error of 1.862 above a majorant of 1.828
    @pytest.mark.parametrize("closed_form", ["source_moments", "grad_u_integrals"])
    def test_closed_form_rejects_lshape(self, mesh_cache, closed_form):
        with pytest.raises(ValueError, match="posed on the unit square"):
            getattr(manufactured, closed_form)(mesh_cache("lshape", 0))

    def test_exact_error_rejects_lshape(self, mesh_cache):
        s = solve_diffusion(mesh_cache("lshape", 0), IDENT, manufactured.source)
        with pytest.raises(ValueError, match="posed on the unit square"):
            manufactured.exact_energy_error(s)

    def test_majorant_total_rejects_lshape(self, mesh_cache):
        s = solve_diffusion(mesh_cache("lshape", 0), IDENT, manufactured.source)
        with pytest.raises(ValueError, match="posed on the unit square"):
            manufactured.majorant_total(0.5, s, rt_average(s, IDENT))
