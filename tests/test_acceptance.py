"""Acceptance suite: every shipped guarantee at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.
"""

import math
import time

import numpy as np
import pytest

from fria import manufactured
from fria.fem import solve_diffusion
from fria.flux import rt_average
from fria.friedrichs import (
    coarse_bound,
    coercivity_threshold,
    diagonal_bound,
    full_bound,
    table1_rows,
)
from fria.maxwell import table3_rows
from fria.mesh import validate
from fria.oracle import estimate_cfa
from fria.weights import DiagonalWeight, DInterval, FullWeight, tilde_reduction
from reference_assembly import row_sums

ANISO = DiagonalWeight((1.0, 1e-4))
UNIT_SQUARE = DInterval((1.0, 1.0))

TABLE1_REFERENCE = {
    "coarse": [225.07908, 22.50791, 2.25079, 0.22508, 0.22508, 0.22508, 0.22508],
    "thmA": [0.31831, 0.31829, 0.31673, 0.22508, 0.03167, 0.00318, 0.00032],
}
TABLE2_REFERENCE = {
    "elements": [384, 1536, 6144, 24576, 98304],
    "coarse": [18.4444, 17.1419, 16.1891, 14.9832, 13.2664],
    "thmA": [1.5563, 0.9166, 0.5705, 0.3809, 0.2695],
}
TABLE3_REFERENCE = {
    "coarse": [183.77630, 18.37763, 1.83776, 0.55133],
    "thmA": [0.55133, 0.55133, 0.55133, 0.55133],
}


def report(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_criterion_01_table1_reproduction():
    t0 = time.perf_counter()
    rows = dict(table1_rows())
    elapsed = time.perf_counter() - t0
    for name, reference in TABLE1_REFERENCE.items():
        for computed, printed in zip(rows[name], reference):
            assert abs(round(computed, 5) - printed) <= 5e-6 + 1e-12
    assert elapsed < 1.0
    report(1, f"table 1, 14 values, {elapsed * 1e3:.1f} ms")


def test_criterion_02_full_matrix_example():
    w = FullWeight(((3.0, 1.0, 1.0), (1.0, 300.0, 1.0), (1.0, 1.0, 3.0)))
    box = DInterval((1.0, 1.0, 1.0))
    assert tilde_reduction(w).entries == (1.0, 298.0, 1.0)
    coarse = coarse_bound(box, w).value
    sharp = full_bound(box, w).value
    assert coarse == pytest.approx(1.0 / (math.pi * math.sqrt(6.0)), rel=1e-12)
    assert sharp == pytest.approx(1.0 / (math.pi * math.sqrt(300.0)), rel=1e-12)
    report(2, "tilde reduction and both bounds")


def test_criterion_03_semidefinite_direction():
    from fria.friedrichs import semidef_bound

    rep = semidef_bound(DInterval((2.0, 2.0, 2.0)), DiagonalWeight((0.0, 0.0, 1.0)))
    assert rep.value == pytest.approx(2.0 / math.pi, rel=1e-12)
    report(3, "single positive direction bound 2/pi")


def test_criterion_04_table3_reproduction():
    rows = dict(table3_rows())
    for name, reference in TABLE3_REFERENCE.items():
        for computed, printed in zip(rows[name], reference):
            assert abs(round(computed, 5) - printed) <= 5e-6 + 1e-12
    report(4, "table 3, delta <= 1 columns")


def test_criterion_05_table2_reproduction(table2_experiment):
    rows, elapsed = table2_experiment
    assert [r.elements for r in rows] == TABLE2_REFERENCE["elements"]
    for idx, key in enumerate(("coarse", "thmA")):
        values = [r.majorants[idx] for r in rows]
        for computed, printed in zip(values, TABLE2_REFERENCE[key]):
            assert abs(computed - printed) <= 0.15 * printed
        assert all(a > b for a, b in zip(values, values[1:]))
    for r in rows:
        assert r.majorants[0] / r.majorants[1] > 10.0
    assert elapsed <= 120.0
    report(5, f"table 2, five levels in {elapsed:.1f} s")


def test_criterion_06_coercivity_thresholds():
    w = DiagonalWeight((1.0, 100.0))
    coarse = coarse_bound(UNIT_SQUARE, w)
    sharp = diagonal_bound(UNIT_SQUARE, w)
    for eps in (0.1, 0.5, 0.9):
        assert coercivity_threshold(coarse, eps) == pytest.approx(
            -eps * 2.0 * math.pi**2, rel=1e-10
        )
        assert coercivity_threshold(sharp, eps) == pytest.approx(
            -eps * 101.0 * math.pi**2, rel=1e-10
        )
    report(6, "coercivity thresholds for three eps")


def test_criterion_07_spectral_oracle_sharpness(mesh_cache):
    mesh = mesh_cache("square", 64)
    for delta in (1e-2, 1.0, 1e2):
        est = estimate_cfa(mesh, DiagonalWeight((1.0, delta)))
        bound = 1.0 / (math.pi * math.sqrt(1.0 + delta))
        assert est.c_estimate <= bound
        assert est.c_estimate >= 0.99 * bound
    report(7, "eigen estimate within 1% below the bound, three anisotropies")


def test_criterion_08_guaranteed_bound(mesh_cache):
    c_tilde = 1.0 / (math.pi * math.sqrt(2.0))
    margins = []
    for n in (16, 32, 64):
        s = manufactured.solve(mesh_cache("square", n))
        field = rt_average(s, manufactured.IDENTITY2)
        majorant = manufactured.majorant_total(c_tilde, s, field).total
        error = manufactured.exact_energy_error(s)
        assert majorant >= error
        margins.append(majorant / error)
    report(8, f"majorant/error ratios {[f'{m:.2f}' for m in margins]}")


def test_criterion_09_property_suites():
    rng = np.random.default_rng(1234)

    for _ in range(1000):
        d = int(rng.integers(1, 4))
        box = DInterval(tuple(rng.uniform(0.2, 5.0, size=d)))
        w = DiagonalWeight(tuple(rng.uniform(1e-3, 1e3, size=d)))
        assert diagonal_bound(box, w).value <= coarse_bound(box, w).value * (1 + 1e-13)

    for _ in range(1000):
        d = int(rng.integers(1, 4))
        box = DInterval(tuple(rng.uniform(0.2, 5.0, size=d)))
        w = DiagonalWeight(tuple(rng.uniform(1e-2, 1e2, size=d)))
        c = float(rng.uniform(0.01, 100.0))
        scaled = DiagonalWeight(tuple(c * a for a in w.entries))
        lhs = diagonal_bound(box, scaled).value
        rhs = diagonal_bound(box, w).value / math.sqrt(c)
        assert abs(lhs - rhs) <= 1e-12 * rhs

    for _ in range(1000):
        d = int(rng.integers(2, 4))
        m = rng.normal(size=(d, d))
        m = 0.5 * (m + m.T)
        w = FullWeight(tuple(tuple(row) for row in m))
        t = np.diag(tilde_reduction(w).entries)
        v = rng.normal(size=d)
        quad_w = v @ m @ v
        assert v @ t @ v <= quad_w + 1e-12 * max(1.0, abs(quad_w))

    from fria.maxwell import MaxwellInput, maxwell_coarse, maxwell_diagonal

    for k in range(1000):
        box = DInterval(tuple(rng.uniform(0.3, 3.0, size=3)))
        if k % 2 == 0:
            eps = DiagonalWeight(tuple(rng.uniform(1e-3, 1e3, size=3)))
        else:
            c = float(rng.uniform(1e-2, 1e2))
            eps = DiagonalWeight((c, c, c))
        inp = MaxwellInput(box, eps)
        lo = maxwell_diagonal(inp).value
        hi = maxwell_coarse(inp).value
        assert lo <= hi * (1 + 1e-13)
        if k % 2 == 1:
            assert lo == pytest.approx(hi, rel=1e-13)

    report(9, "four property suites, 1000 randomized instances each")


def test_criterion_10_mesh_and_solver_infrastructure(mesh_cache):
    for level in range(5):
        mesh = mesh_cache("lshape", level)
        assert validate(mesh) == []
        assert np.abs(row_sums(mesh, ANISO)).max() <= 1e-12
    for n in (16, 32, 64):
        assert validate(mesh_cache("square", n)) == []
    solution = solve_diffusion(mesh_cache("lshape", 4), ANISO, 1.0)
    assert solution.residual <= 1e-10
    report(10, f"level-4 CG converged in {solution.iterations} iterations")
