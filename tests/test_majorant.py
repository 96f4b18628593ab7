import math

import numpy as np
import pytest

from fria import majorant, manufactured
from fria.fem import P1Solution, nodal_gradients, solve_diffusion
from fria.flux import RT0Field, rt_average
from fria.majorant import evaluate_majorant, run_refinement_experiment
from fria.mesh import _finalize, build_lshape, build_unit_square, validate
from fria.quadrature import gauss_collapsed, physical_points
from fria.weights import DiagonalWeight

IDENT = DiagonalWeight((1.0, 1.0))
ANISO = DiagonalWeight((1.0, 1e-4))


def interpolant(mesh, fn):
    values = fn(mesh.vertices[:, 0], mesh.vertices[:, 1])
    return P1Solution(mesh, values, nodal_gradients(mesh, values))


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
        assert bd.total == bd.constant_used * bd.residual_norm + bd.defect_norm

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
        m = _finalize(square.vertices, rolled, "square", 5, 5)
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

    def test_residual_quadrature_converged(self, mesh_cache, monkeypatch):
        # order 12 and order 16 collapsed rules agree to machine precision
        m = mesh_cache("square", 8)
        s = manufactured.solve(m)
        field = rt_average(s, IDENT)
        assert manufactured._QUAD_ORDER == 12
        a = manufactured.majorant_total(0.5, s, field)
        monkeypatch.setattr(manufactured, "_QUAD_ORDER", 16)
        b = manufactured.majorant_total(0.5, s, field)
        assert a.residual_norm == pytest.approx(b.residual_norm, rel=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_majorant_total_rejects_bad_constant(self, mesh_cache, bad):
        m = mesh_cache("square", 8)
        s = manufactured.solve(m)
        field = rt_average(s, IDENT)
        with pytest.raises(ValueError, match="finite and positive"):
            manufactured.majorant_total(bad, s, field)

    def test_rejects_lshape(self, mesh_cache):
        with pytest.raises(ValueError):
            manufactured.solve(mesh_cache("lshape", 0))
