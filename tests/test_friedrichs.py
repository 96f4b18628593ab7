import math

import numpy as np
import pytest

from fria.cli import main
from fria.friedrichs import (
    FORMULAS,
    METHODS,
    BoundReport,
    BoundUnavailable,
    best_bound,
    coarse_bound,
    coercivity_threshold,
    diagonal_bound,
    full_bound,
    mikhlin_bound,
    semidef_bound,
    table1_rows,
)
from fria.weights import DiagonalWeight, DInterval, FullWeight, tilde_reduction

UNIT_SQUARE = DInterval((1.0, 1.0))
UNIT_CUBE = DInterval((1.0, 1.0, 1.0))
CALPHA2 = FullWeight(((3.0, 1.0, 1.0), (1.0, 300.0, 1.0), (1.0, 1.0, 3.0)))


class TestMikhlin:
    def test_unit_square(self):
        rep = mikhlin_bound(UNIT_SQUARE)
        assert rep.method == "mikhlin"
        assert round(rep.value, 5) == 0.22508
        assert rep.value == pytest.approx(1.0 / (math.pi * math.sqrt(2.0)), rel=1e-15)

    def test_unit_cube(self):
        assert mikhlin_bound(UNIT_CUBE).value == pytest.approx(
            1.0 / (math.pi * math.sqrt(3.0)), rel=1e-15
        )

    def test_one_dimensional(self):
        length = 2.5
        assert mikhlin_bound(DInterval((length,))).value == pytest.approx(
            length / math.pi, rel=1e-15
        )


class TestCoarse:
    def test_strong_anisotropy(self):
        rep = coarse_bound(UNIT_SQUARE, DiagonalWeight((1.0, 1e-6)))
        assert round(rep.value, 5) == 225.07908

    def test_large_entries_capped_by_min(self):
        rep = coarse_bound(UNIT_SQUARE, DiagonalWeight((1.0, 1e6)))
        assert round(rep.value, 5) == 0.22508

    def test_full_matrix(self):
        rep = coarse_bound(UNIT_CUBE, CALPHA2)
        assert rep.value == pytest.approx(1.0 / (math.pi * math.sqrt(6.0)), rel=1e-12)

    def test_rejects_semidefinite(self):
        with pytest.raises(BoundUnavailable, match="coarse"):
            coarse_bound(UNIT_SQUARE, DiagonalWeight((0.0, 1.0)))


class TestDiagonal:
    def test_small_delta(self):
        rep = diagonal_bound(UNIT_SQUARE, DiagonalWeight((1.0, 1e-2)))
        assert round(rep.value, 5) == 0.31673

    def test_large_delta(self):
        rep = diagonal_bound(UNIT_SQUARE, DiagonalWeight((1.0, 1e2)))
        assert round(rep.value, 5) == 0.03167

    def test_identity_reduces_to_mikhlin_exactly(self):
        rep = diagonal_bound(UNIT_SQUARE, DiagonalWeight((1.0, 1.0)))
        assert rep.value == mikhlin_bound(UNIT_SQUARE).value

    def test_rejects_zero_entry(self):
        with pytest.raises(BoundUnavailable, match="semidef"):
            diagonal_bound(UNIT_SQUARE, DiagonalWeight((1.0, 0.0)))


class TestFull:
    def test_reference_matrix(self):
        rep = full_bound(UNIT_CUBE, CALPHA2)
        assert rep.method == "thmA2"
        assert rep.value == pytest.approx(1.0 / (math.pi * math.sqrt(300.0)), rel=1e-12)

    def test_diagonal_input(self):
        w = FullWeight(((2.0, 0, 0), (0, 2.0, 0), (0, 0, 2.0)))
        assert full_bound(UNIT_CUBE, w).value == pytest.approx(
            1.0 / (math.pi * math.sqrt(6.0)), rel=1e-15
        )

    def test_anisotropic_box(self):
        box = DInterval((1.0, 2.0, 3.0))
        w = FullWeight(((5.0, 1.0, 0.0), (1.0, 5.0, 1.0), (0.0, 1.0, 5.0)))
        # tilde reduction is diag(4, 3, 4)
        expected = 1.0 / (math.pi * math.sqrt(4.0 / 1.0 + 3.0 / 4.0 + 4.0 / 9.0))
        assert full_bound(box, w).value == pytest.approx(expected, rel=1e-14)

    def test_rejects_indefinite_tilde(self):
        w = FullWeight(((1.0, 5.0, 0.0), (5.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
        with pytest.raises(BoundUnavailable, match="tilde not positive definite"):
            full_bound(UNIT_CUBE, w)


class TestSemidef:
    def test_single_direction(self):
        rep = semidef_bound(DInterval((2.0, 2.0, 2.0)), DiagonalWeight((0.0, 0.0, 1.0)))
        assert rep.value == pytest.approx(2.0 / math.pi, rel=1e-12)
        assert rep.seminorm

    def test_all_positive_matches_diagonal(self):
        w = DiagonalWeight((1.0, 1.0))
        rep = semidef_bound(UNIT_SQUARE, w)
        assert rep.value == diagonal_bound(UNIT_SQUARE, w).value
        assert not rep.seminorm

    def test_weighted_single_direction(self):
        rep = semidef_bound(DInterval((1.0, 2.0)), DiagonalWeight((4.0, 0.0)))
        assert rep.value == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_rejects_all_zero(self):
        with pytest.raises(BoundUnavailable):
            semidef_bound(UNIT_SQUARE, DiagonalWeight((0.0, 0.0)))

    def test_rejects_negative(self):
        with pytest.raises(BoundUnavailable):
            semidef_bound(UNIT_SQUARE, DiagonalWeight((-1.0, 1.0)))


class TestFormulaTable:
    @pytest.mark.parametrize(
        "tag, w",
        [
            ("thmA", DiagonalWeight((2.0, 3.0))),
            ("thmA2", FullWeight(((2.0, 0.5), (0.5, 1.0)))),
            ("semidef", DiagonalWeight((0.0, 1.0))),
            ("coarse", DiagonalWeight((2.0, 3.0))),
            ("mikhlin", DiagonalWeight((2.0, 3.0))),
        ],
    )
    def test_each_tag_reports_itself(self, tag, w):
        assert FORMULAS[tag](UNIT_SQUARE, w).method == tag

    def test_methods_are_the_table_tags(self):
        assert METHODS == tuple(FORMULAS)

    def test_cli_method_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["bounds", "friedrichs", "--help"])
        assert "--method {" + ",".join(("auto", *METHODS)) + "}" in capsys.readouterr().out


class TestBestBound:
    def test_anisotropic_picks_diagonal_route(self):
        rep = best_bound(UNIT_SQUARE, DiagonalWeight((1.0, 1e-6)))
        assert rep.method == "thmA"
        assert round(rep.value, 5) == 0.31831

    def test_tie_prefers_diagonal_route(self):
        rep = best_bound(UNIT_SQUARE, DiagonalWeight((1.0, 1.0)))
        assert rep.method == "thmA"
        assert rep.value == pytest.approx(1.0 / (math.pi * math.sqrt(2.0)), rel=1e-15)

    def test_full_matrix_prefers_tilde_route(self):
        rep = best_bound(UNIT_CUBE, CALPHA2)
        assert rep.method == "thmA2"
        assert rep.value == pytest.approx(1.0 / (math.pi * math.sqrt(300.0)), rel=1e-12)

    def test_semidefinite_tilde_route(self):
        w = FullWeight(((2.0, 2.0, 0.0), (2.0, 2.0, 0.0), (0.0, 0.0, 5.0)))
        rep = best_bound(DInterval((1.0, 1.0, 0.5)), w)
        assert rep.method == "semidef"
        assert rep.seminorm
        assert rep.value == pytest.approx(1.0 / (math.pi * math.sqrt(5.0 / 0.25)), rel=1e-14)

    def test_nothing_applies(self):
        w = FullWeight(((1.0, 5.0), (5.0, 1.0)))
        with pytest.raises(BoundUnavailable, match="no bound applies"):
            best_bound(UNIT_SQUARE, w)

    def test_sum_out_of_float_range_is_refused(self):
        # 1e-300 / 1e300 underflows to 0: the bound would divide by zero
        box = DInterval((1e150, 1e150))
        tiny = DiagonalWeight((1e-300, 1e-300))
        for formula in (diagonal_bound, coarse_bound, semidef_bound):
            with pytest.raises(BoundUnavailable, match="floating-point range"):
                formula(box, tiny)
        with pytest.raises(BoundUnavailable, match="floating-point range"):
            best_bound(box, tiny)
        # 1e300 / 1e-20 overflows to inf
        with pytest.raises(BoundUnavailable, match="floating-point range"):
            diagonal_bound(DInterval((1e-10, 1.0)), DiagonalWeight((1e300, 1.0)))

    def test_underflowing_coarse_leaves_the_sharp_bound(self):
        box = DInterval((1e150, 1e150))
        rep = best_bound(box, DiagonalWeight((1e-300, 1.0)))
        assert rep.method == "thmA"
        assert rep.value == 1.0 / (math.pi * math.sqrt(1e-300))


class TestCoercivity:
    def test_coarse_threshold(self):
        rep = coarse_bound(UNIT_SQUARE, DiagonalWeight((1.0, 100.0)))
        for eps in (0.1, 0.5, 0.9):
            assert coercivity_threshold(rep, eps) == pytest.approx(
                -eps * 2.0 * math.pi**2, rel=1e-12
            )

    def test_diagonal_threshold(self):
        rep = diagonal_bound(UNIT_SQUARE, DiagonalWeight((1.0, 100.0)))
        for eps in (0.1, 0.5, 0.9):
            assert coercivity_threshold(rep, eps) == pytest.approx(
                -eps * 101.0 * math.pi**2, rel=1e-12
            )

    def test_unit_bound(self):
        rep = BoundReport(1.0, "thmA")
        assert coercivity_threshold(rep, 0.3) == pytest.approx(-0.3, rel=1e-15)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(ValueError):
            coercivity_threshold(BoundReport(1.0, "thmA"), eps)


class TestProperties:
    def test_diagonal_never_exceeds_coarse(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            d = int(rng.integers(1, 4))
            box = DInterval(tuple(rng.uniform(0.2, 5.0, size=d)))
            w = DiagonalWeight(tuple(rng.uniform(1e-3, 1e3, size=d)))
            lo = diagonal_bound(box, w).value
            hi = coarse_bound(box, w).value
            assert lo <= hi * (1.0 + 1e-13)

    def test_scaling_law(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            d = int(rng.integers(1, 4))
            box = DInterval(tuple(rng.uniform(0.2, 5.0, size=d)))
            w = DiagonalWeight(tuple(rng.uniform(1e-2, 1e2, size=d)))
            c = float(rng.uniform(0.01, 100.0))
            scaled = DiagonalWeight(tuple(c * a for a in w.entries))
            assert diagonal_bound(box, scaled).value == pytest.approx(
                diagonal_bound(box, w).value / math.sqrt(c), rel=1e-12
            )

    def test_monotonicity(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            d = int(rng.integers(1, 4))
            lengths = rng.uniform(0.2, 5.0, size=d)
            entries = rng.uniform(1e-2, 1e2, size=d)
            base = diagonal_bound(DInterval(tuple(lengths)), DiagonalWeight(tuple(entries))).value
            i = int(rng.integers(0, d))
            bigger = entries.copy()
            bigger[i] *= 1.0 + float(rng.uniform(0.0, 2.0))
            assert (
                diagonal_bound(DInterval(tuple(lengths)), DiagonalWeight(tuple(bigger))).value
                <= base * (1.0 + 1e-13)
            )
            shorter = lengths.copy()
            shorter[i] *= 1.0 - float(rng.uniform(0.0, 0.9))
            assert (
                diagonal_bound(DInterval(tuple(shorter)), DiagonalWeight(tuple(entries))).value
                <= base * (1.0 + 1e-13)
            )

    def test_full_bound_composes_tilde_and_diagonal(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 200:
            m = rng.normal(size=(3, 3))
            m = 0.5 * (m + m.T) + 4.0 * np.eye(3)
            w = FullWeight(tuple(tuple(row) for row in m))
            t = tilde_reduction(w)
            if min(t.entries) <= 0.0:
                continue
            box = DInterval(tuple(rng.uniform(0.2, 5.0, size=3)))
            assert full_bound(box, w).value == diagonal_bound(box, t).value
            checked += 1


def test_table1_matches_reference_values():
    expected = {
        "coarse": [225.07908, 22.50791, 2.25079, 0.22508, 0.22508, 0.22508, 0.22508],
        "thmA": [0.31831, 0.31829, 0.31673, 0.22508, 0.03167, 0.00318, 0.00032],
    }
    for name, values in table1_rows():
        assert [round(v, 5) for v in values] == expected[name]


def test_bound_report_validation():
    with pytest.raises(ValueError):
        BoundReport(1.0, "magic")
    with pytest.raises(ValueError):
        BoundReport(-1.0, "thmA")
    with pytest.raises(ValueError):
        BoundReport(math.inf, "coarse")
