import gc
import math
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg

from fria import fem, manufactured, mesh, oracle
from fria.fem import SolverError, solve_diffusion
from fria.flux import rt_average
from fria.friedrichs import coarse_bound, diagonal_bound, full_bound
from fria.majorant import evaluate_majorant
from fria.mesh import build_lshape, build_unit_square, prolongation
from fria.oracle import estimate_cfa, reference_energy_error
from fria.weights import DiagonalWeight, DInterval, FullWeight
from reference_assembly import mass_by_triplets, reduce_system, stiffness_by_triplets
from reference_quadrature import rolled_square

IDENT = DiagonalWeight((1.0, 1.0))
ANISO = DiagonalWeight((1.0, 1e-4))
UNIT_SQUARE = DInterval((1.0, 1.0))


def rotated(degrees, lam1, lam2):
    """Weight with eigenvalues lam1, lam2 along axes turned by ``degrees``."""
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    q = np.array([[c, -s], [s, c]])
    return FullWeight(tuple(map(tuple, q @ np.diag([lam1, lam2]) @ q.T)))


class TestEigenEstimate:
    def test_unit_square_identity(self, mesh_cache):
        est = estimate_cfa(mesh_cache("square", 64), IDENT)
        bound = 1.0 / (math.pi * math.sqrt(2.0))
        assert est.c_estimate <= bound
        assert est.c_estimate >= 0.99 * bound
        # discrete eigenvalue overestimates the true 2 pi^2
        assert est.lambda_min >= 2.0 * math.pi**2
        assert est.c_estimate == 1.0 / np.sqrt(est.lambda_min)

    def test_separable_anisotropy(self, mesh_cache):
        delta = 1e-2
        est = estimate_cfa(mesh_cache("square", 64), DiagonalWeight((1.0, delta)))
        bound = 1.0 / (math.pi * math.sqrt(1.0 + delta))
        assert 0.99 * bound <= est.c_estimate <= bound

    def test_scaling(self, mesh_cache):
        m = mesh_cache("square", 16)
        one = estimate_cfa(m, IDENT)
        four = estimate_cfa(m, DiagonalWeight((4.0, 4.0)))
        assert four.c_estimate == pytest.approx(0.5 * one.c_estimate, rel=1e-9)

    def test_gap_to_bound_shrinks_under_refinement(self, mesh_cache):
        # the bound is attained on the full box, so the estimate converges to it
        bound = 1.0 / (math.pi * math.sqrt(2.0))
        gaps = [
            bound - estimate_cfa(mesh_cache("square", n), IDENT).c_estimate
            for n in (16, 32, 64)
        ]
        assert all(g > 0.0 for g in gaps)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 0.01 * bound

    def test_residual_below_tolerance(self, mesh_cache):
        m = mesh_cache("square", 32)
        est = estimate_cfa(m, ANISO)
        assert est.residual <= 1e-8 * est.lambda_min
        assert est.iterations <= oracle._STEPS_PER_UNKNOWN * len(m.interior_vertices)

    # square 32 and L1 run the V-cycle, square 8 and L0 the line apply alone
    @pytest.mark.parametrize("domain,k", [("square", 8), ("lshape", 0), ("square", 32), ("lshape", 1)])
    @pytest.mark.parametrize(
        "w",
        [DiagonalWeight((1.0, 1e-2)), FullWeight(((2.0, 0.5), (0.5, 1.0))), rotated(30, 1.0, 1e-8)],
        ids=["diag", "full", "rotated"],
    )
    def test_matches_dense_generalized_eigensolve(self, mesh_cache, domain, k, w):
        m = mesh_cache(domain, k)
        stiffness = reduce_system(stiffness_by_triplets(m, w), m).toarray()
        mass = reduce_system(mass_by_triplets(m), m).toarray()
        lams = scipy.linalg.eigh(stiffness, mass, eigvals_only=True)
        # the dense solve is accurate to a small multiple of eps * lambda_max
        rounding = 4.0 * np.finfo(float).eps * lams[-1]
        est = estimate_cfa(m, w)
        assert est.lambda_min == pytest.approx(lams[0], rel=1e-12)
        assert est.c_estimate <= 1.0 / math.sqrt(lams[0] - rounding)

    @pytest.mark.parametrize("delta", [1e-2, 1.0, 1e2])
    def test_vcycle_steps_bounded(self, mesh_cache, delta):
        # the line apply alone takes 87, 143 and 87 steps here, a count that grows with 1/h
        assert estimate_cfa(mesh_cache("square", 64), DiagonalWeight((1.0, delta))).iterations <= 40

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
    def test_no_coarser_level_keeps_the_line_apply_bits(self, mesh_cache, monkeypatch, build):
        m = build(mesh_cache)
        w = DiagonalWeight((1.0, 1e-2))
        est = estimate_cfa(m, w)
        monkeypatch.setattr(
            oracle, "multigrid_stiffness", lambda grid, alpha: grid.dirichlet.stiffness(alpha)
        )
        line = estimate_cfa(m, w)
        assert est == line

    def test_hierarchy_freed_without_the_cycle_collector(self):
        m = build_unit_square(64)  # not from the shared cache, which keeps its meshes
        gc.collect()
        gc.disable()
        try:
            estimate_cfa(m, DiagonalWeight((1.0, 1e-2)))
            assert gc.collect() == 0
            chain = [m, m.coarser[0], m.coarser[0].coarser[0]]
            kept = [weakref.ref(x) for x in chain[1:] + [c.dirichlet for c in chain]]
            del m, chain
            assert [ref() for ref in kept] == [None] * 5
        finally:
            gc.enable()

    def test_one_chain_per_mesh(self, monkeypatch):
        m = build_unit_square(64)
        built, grid_mesh = [], mesh._grid_mesh

        def counted(cells, *args):
            built.append(len(cells))
            return grid_mesh(cells, *args)

        monkeypatch.setattr(mesh, "_grid_mesh", counted)
        for delta in (1e-2, 1.0, 1e2):
            estimate_cfa(m, DiagonalWeight((1.0, delta)))
        assert built == [32, 16]

    def test_one_structure_per_chain_mesh(self, monkeypatch):
        m = build_unit_square(64)
        patterns, masses = [], []
        pattern, mass_entries = fem._pattern, fem._mass_entries

        def counted_pattern(mesh):
            patterns.append(mesh.n)
            return pattern(mesh)

        def counted_mass(mesh):
            masses.append(mesh.n)
            return mass_entries(mesh)

        monkeypatch.setattr(fem, "_pattern", counted_pattern)
        monkeypatch.setattr(fem, "_mass_entries", counted_mass)
        for delta in (1e-2, 1.0, 1e2):
            estimate_cfa(m, DiagonalWeight((1.0, delta)))
        assert patterns == [64, 32, 16]
        assert masses == [64]

    # repr of each estimate at 5afc0a4, before the direct reduced assembly
    PARENT_REPRS = {
        "square128": [
            "EigenEstimate(lambda_min=9.969801690102912, iterations=26, residual=3.851326786122471e-12)",
            "EigenEstimate(lambda_min=19.742181571488192, iterations=12, residual=1.97239082724679e-12)",
            "EigenEstimate(lambda_min=996.9801690102622, iterations=26, residual=3.8513434441556196e-10)",
        ],
        "L3": [
            "EigenEstimate(lambda_min=10.262376749597285, iterations=20, residual=1.4502801436256053e-12)",
            "EigenEstimate(lambda_min=38.60166527716623, iterations=14, residual=9.805384166809737e-12)",
            "EigenEstimate(lambda_min=1026.2376749597024, iterations=20, residual=1.450276701410971e-10)",
        ],
        "rolled8-1": [
            "EigenEstimate(lambda_min=10.355247655428462, iterations=12, residual=2.0120056046973196e-10)",
            "EigenEstimate(lambda_min=20.505544897707896, iterations=19, residual=2.3868575163143775e-09)",
            "EigenEstimate(lambda_min=1035.5247655428457, iterations=12, residual=2.01200744429474e-08)",
        ],
    }
    PARENT_MESHES = {
        "square128": lambda c: c("square", 128),
        "L3": lambda c: c("lshape", 3),
        "rolled8-1": lambda c: rolled_square(8, 1),
    }

    @pytest.mark.parametrize("name", list(PARENT_REPRS))
    def test_estimates_keep_their_bits(self, mesh_cache, name):
        m = self.PARENT_MESHES[name](mesh_cache)
        got = [repr(estimate_cfa(m, DiagonalWeight((1.0, delta)))) for delta in (1e-2, 1.0, 1e2)]
        assert got == self.PARENT_REPRS[name]

    def test_no_weight_state_in_the_chain(self):
        weights = [
            DiagonalWeight((1.0, 1e-2)),
            FullWeight(((2.0, 0.5), (0.5, 1.0))),
            DiagonalWeight((1.0, 1e2)),
        ]

        def bits(estimates):
            return [(e.lambda_min.hex(), e.iterations, e.residual.hex()) for e in estimates]

        def kept(m):
            """Every array that the chain of m keeps in its ``dirichlet``, as bytes."""
            out = []
            while m is not None:
                d = vars(m.dirichlet)
                assert set(d) <= {"_mesh", "pattern", "_lines", "mass"}
                arrays = list(d["pattern"])
                for along in sorted(d["_lines"]):
                    arrays += d["_lines"][along]
                if "mass" in d:
                    arrays.append(d["mass"].data)
                out.append([np.asarray(x).tobytes() for x in arrays])
                m = m.coarser and m.coarser[0]
            return out

        shared = build_lshape(2)
        forward = bits(estimate_cfa(shared, w) for w in weights)
        forward_kept = kept(shared)
        shared = build_lshape(2)
        backward = bits(estimate_cfa(shared, w) for w in weights[::-1])[::-1]
        assert kept(shared) == forward_kept
        fresh = bits(estimate_cfa(build_lshape(2), w) for w in weights)
        assert forward == backward == fresh

    def test_exhausted_budget_raises(self, mesh_cache, monkeypatch):
        monkeypatch.setattr(oracle, "_STEPS_PER_UNKNOWN", 0)
        with pytest.raises(SolverError, match="did not converge"):
            estimate_cfa(mesh_cache("square", 8), IDENT)

    @pytest.mark.parametrize(
        "w", [FullWeight(((1.0, 2.0), (2.0, 1.0))), DiagonalWeight((1.0, -0.5))]
    )
    def test_indefinite_stiffness_raises(self, mesh_cache, w):
        with pytest.raises(SolverError, match="not positive definite"):
            estimate_cfa(mesh_cache("square", 8), w)

    def test_indefinite_stiffness_raises_through_the_vcycle(self, mesh_cache):
        # every line block and the coarse level are definite here, so the
        # hierarchy builds and the Rayleigh quotient finds the sign
        with pytest.raises(SolverError, match="not positive definite"):
            estimate_cfa(mesh_cache("square", 32), DiagonalWeight((1.0, -0.0035)))

    def test_bound_domination(self, mesh_cache):
        m = mesh_cache("square", 32)
        rng = np.random.default_rng(19)
        for _ in range(3):
            w = DiagonalWeight(tuple(rng.uniform(0.1, 10.0, size=2)))
            est = estimate_cfa(m, w)
            assert est.c_estimate <= diagonal_bound(UNIT_SQUARE, w).value
            assert est.c_estimate <= coarse_bound(UNIT_SQUARE, w).value

    def test_bound_domination_full_matrix(self, mesh_cache):
        m = mesh_cache("square", 32)
        w = FullWeight(((2.0, 0.5), (0.5, 1.0)))
        est = estimate_cfa(m, w)
        assert est.c_estimate <= full_bound(UNIT_SQUARE, w).value
        assert est.c_estimate <= coarse_bound(UNIT_SQUARE, w).value

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
    def test_extreme_magnitudes(self, mesh_cache, scale):
        # the constant scales as 1/sqrt(alpha); no numpy warning on the way
        m = mesh_cache("square", 8)
        one = estimate_cfa(m, IDENT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_cfa(m, DiagonalWeight((scale, scale)))
        assert est.c_estimate == pytest.approx(one.c_estimate / math.sqrt(scale), rel=1e-15)
        assert est.lambda_min == pytest.approx(one.lambda_min * scale, rel=1e-15)

    def test_power_of_two_scaling_is_exact(self, mesh_cache):
        w = FullWeight(((2.0, 0.5), (0.5, 1.0)))
        for n in (8, 32):  # at n = 32 every V-cycle level shares the scale
            m = mesh_cache("square", n)
            one = estimate_cfa(m, w)
            big = estimate_cfa(m, FullWeight(((2.0**600, 2.0**598), (2.0**598, 2.0**599))))
            assert big.lambda_min == one.lambda_min * 2.0**599
            assert big.iterations == one.iterations

    @pytest.mark.parametrize(
        "w", [DiagonalWeight((0.0, 0.0)), FullWeight(((-1.0, 0.0), (0.0, -1.0)))]
    )
    def test_no_positive_eigenvalue_raises(self, mesh_cache, w):
        with pytest.raises(SolverError, match="no positive eigenvalue"):
            estimate_cfa(mesh_cache("square", 8), w)

    def test_eigenvalue_beyond_float_range_raises(self, mesh_cache):
        with pytest.raises(SolverError, match="overflows"):
            estimate_cfa(mesh_cache("square", 8), DiagonalWeight((1e307, 1e307)))


class TestReferenceError:
    def test_same_mesh_gives_zero(self, mesh_cache):
        s = solve_diffusion(mesh_cache("square", 8), IDENT, 1.0)
        assert reference_energy_error(s, s, IDENT) == 0.0

    def test_manufactured_against_analytic(self, mesh_cache):
        coarse = manufactured.solve(mesh_cache("square", 16))
        reference = manufactured.solve(mesh_cache("square", 128))
        via_reference = reference_energy_error(coarse, reference, IDENT)
        analytic = manufactured.exact_energy_error(coarse)
        assert via_reference == pytest.approx(analytic, rel=0.05)

    def test_lshape_error_below_majorant(self, mesh_cache):
        coarse = solve_diffusion(mesh_cache("lshape", 0), ANISO, 1.0)
        reference = solve_diffusion(mesh_cache("lshape", 3), ANISO, 1.0)
        err = reference_energy_error(coarse, reference, ANISO)
        field = rt_average(coarse, ANISO)
        bd = evaluate_majorant(0.31829, coarse, field, ANISO, 1.0)
        assert err <= bd.total

    def test_prolongation_is_exact_interpolation(self, mesh_cache):
        # a P1 function is reproduced exactly on the nested refinement
        m_c = mesh_cache("lshape", 0)
        m_f = mesh_cache("lshape", 1)
        values = m_c.vertices[:, 0] * 2.0 + m_c.vertices[:, 1]
        lifted = prolongation(m_c, m_f) @ values
        expected = m_f.vertices[:, 0] * 2.0 + m_f.vertices[:, 1]
        assert np.allclose(lifted, expected, atol=1e-13)

    def test_nonnested_rejected(self, mesh_cache):
        s16 = solve_diffusion(mesh_cache("square", 16), IDENT, 1.0)
        s24 = solve_diffusion(mesh_cache("square", 24), IDENT, 1.0)
        with pytest.raises(ValueError, match="nested"):
            reference_energy_error(s16, s24, IDENT)

    def test_different_domains_rejected(self, mesh_cache):
        s_sq = solve_diffusion(mesh_cache("square", 16), IDENT, 1.0)
        s_l = solve_diffusion(mesh_cache("lshape", 0), IDENT, 1.0)
        with pytest.raises(ValueError, match="domain"):
            reference_energy_error(s_l, s_sq, IDENT)
