import math

import numpy as np
import pytest

from fria.weights import (
    DiagonalWeight,
    DInterval,
    FullWeight,
    WeightError,
    parse_weight,
    tilde_reduction,
)

CALPHA2 = FullWeight(((3.0, 1.0, 1.0), (1.0, 300.0, 1.0), (1.0, 1.0, 3.0)))


def random_symmetric(rng, d, scale=1.0):
    m = rng.normal(size=(d, d)) * scale
    m = 0.5 * (m + m.T)
    return FullWeight(tuple(tuple(row) for row in m))


class TestDInterval:
    def test_valid(self):
        box = DInterval((1.0, 2.0, 3.0))
        assert box.d == 3
        assert box.diagonal == pytest.approx(math.sqrt(14.0), rel=1e-15)
        assert box.inverse_square_sum() == pytest.approx(1 + 0.25 + 1 / 9, rel=1e-15)

    @pytest.mark.parametrize(
        "lengths",
        [(), (1.0,) * 4, (0.0,), (-1.0, 1.0), (math.inf, 1.0), (1e-200, 1.0), (1.0, 1e200)],
    )
    def test_invalid(self, lengths):
        with pytest.raises(WeightError):
            DInterval(lengths)


class TestSmallestEigenvalue:
    def test_diagonal_is_min_entry(self):
        assert DiagonalWeight((1.0, 1e-2)).eigenvalues[0] == 1e-2

    def test_reference_full_matrix(self):
        # eigenvector (1, 0, -1) gives the exact eigenvalue 2
        assert CALPHA2.eigenvalues[0] == pytest.approx(2.0, rel=1e-12)

    def test_identity(self):
        assert FullWeight(((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0))).eigenvalues[0] == 1.0

    def test_rejects_nonsymmetric(self):
        with pytest.raises(WeightError, match="not symmetric"):
            FullWeight(((1.0, 2.0), (3.0, 4.0)))

    def test_pinned_against_50_digit_reference(self):
        # the trigonometric closed form returned 0.014190648176518947 here
        # (4.0e-5 relative); LAPACK's error is about eps * max|lambda|
        w = parse_weight(
            "full:72.2373557980888,195.61206341018206,-112.79494324047118,"
            "529.8176080452685,-305.4982675479622,176.17234646954554"
        )
        lam_max = w.eigenvalues[-1]
        assert w.eigenvalues[0] == pytest.approx(
            0.014191210514586532, rel=0, abs=1e-12 * lam_max
        )

    def test_against_mpmath_reference(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(7)
        weights = []
        for _ in range(150):
            d = int(rng.integers(2, 4))
            weights.append(random_symmetric(rng, d, scale=float(10.0 ** rng.integers(-3, 4))))
        for _ in range(150):
            # a nearly repeated pair, split by 1e-14 .. 1e-6 relative
            d = int(rng.integers(2, 4))
            lam = 10.0 ** rng.uniform(-3.0, 3.0, d) * rng.choice([-1.0, 1.0], d)
            lam[1] = lam[0] * (1.0 + 10.0 ** rng.uniform(-14.0, -6.0))
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            m = (q * lam) @ q.T
            m = 0.5 * (m + m.T)
            weights.append(FullWeight(tuple(tuple(row) for row in m)))
        for w in weights:
            with mpmath.workdps(50):
                # the float entries converted exactly, solved to 50 digits
                ref = sorted(float(e) for e in mpmath.eigsy(mpmath.matrix(w.matrix))[0])
            ours = w.eigenvalues
            scale = max(abs(v) for v in ref)
            assert max(abs(a - b) for a, b in zip(ours, ref)) <= 1e-12 * scale

    def test_full_weight_solves_once(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        w = FullWeight(CALPHA2.entries)
        assert w.eigenvalues[0] < w.eigenvalues[-1]
        assert len(calls) == 1
        assert all(type(v) is float for v in w.eigenvalues)

    def test_magnitudes_near_the_float_limits(self):
        # the squared entries of a closed form overflow here
        w = parse_weight("full:1e160,1e159,0,1e160,0,1e160")
        assert w.eigenvalues == pytest.approx((9e159, 1e160, 1.1e160), rel=1e-14)
        w = parse_weight("full:-1e191,-1e108,1e110,1.16,-0.634,2.54")
        assert w.eigenvalues[0] == pytest.approx(-1e191, rel=1e-14)

    def test_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            w = random_symmetric(rng, 3)
            c = float(rng.uniform(0.1, 10.0))
            scaled = FullWeight(tuple(tuple(c * v for v in row) for row in w.matrix))
            assert scaled.eigenvalues[0] == pytest.approx(
                c * w.eigenvalues[0], rel=1e-12, abs=1e-13
            )

    def test_largest(self):
        assert DiagonalWeight((1.0, 5.0, 2.0)).eigenvalues[-1] == 5.0
        ref = np.linalg.eigvalsh(np.asarray(CALPHA2.matrix))[-1]
        assert CALPHA2.eigenvalues[-1] == pytest.approx(ref, rel=1e-13)


class TestTildeReduction:
    def test_reference_matrix(self):
        t = tilde_reduction(CALPHA2)
        assert t.entries == (1.0, 298.0, 1.0)

    def test_diagonal_fixed_point(self):
        w = DiagonalWeight((2.0, 5.0, 7.0))
        assert tilde_reduction(w) is w
        full = FullWeight(((2.0, 0, 0), (0, 5.0, 0), (0, 0, 7.0)))
        assert tilde_reduction(full).entries == (2.0, 5.0, 7.0)

    def test_semidefinite_result(self):
        w = FullWeight(((2.0, 2.0, 0.0), (2.0, 2.0, 0.0), (0.0, 0.0, 5.0)))
        assert tilde_reduction(w).entries == (0.0, 0.0, 5.0)

    def test_two_dimensional(self):
        w = FullWeight(((3.0, -1.0), (-1.0, 2.0)))
        assert tilde_reduction(w).entries == (2.0, 1.0)

    def test_entries_may_go_negative(self):
        w = FullWeight(((1.0, 5.0), (5.0, 1.0)))
        assert tilde_reduction(w).entries == (-4.0, -4.0)

    def test_row_sums_in_index_order(self):
        # each row subtracts its off-diagonal magnitudes summed left to right
        rng = np.random.default_rng(12)
        for _ in range(500):
            w = random_symmetric(rng, 3, scale=float(10.0 ** rng.integers(-3, 4)))
            m = w.matrix
            a12, a13, a23 = abs(m[0][1]), abs(m[0][2]), abs(m[1][2])
            expected = (m[0][0] - (a12 + a13), m[1][1] - (a12 + a23), m[2][2] - (a13 + a23))
            assert tilde_reduction(w).entries == expected

    def test_computed_once_per_weight(self):
        assert tilde_reduction(CALPHA2) is tilde_reduction(CALPHA2)

    def test_quadratic_form_ordering(self):
        # v^T (tilde w) v <= v^T w v for every v
        rng = np.random.default_rng(11)
        for _ in range(1000):
            d = int(rng.integers(2, 4))
            w = random_symmetric(rng, d)
            t = np.diag(tilde_reduction(w).entries)
            m = np.asarray(w.matrix)
            v = rng.normal(size=d)
            assert v @ t @ v <= v @ m @ v + 1e-12 * max(1.0, abs(v @ m @ v))


def dominates(w, t):
    """True iff the quadratic form of ``w - t`` is positive semi-definite."""
    diff = np.asarray(w.matrix) - np.asarray(t.matrix)
    scale = max(1.0, float(np.abs(diff).max()))
    return np.linalg.eigvalsh(diff)[0] >= -1e-12 * scale


class TestDominates:
    def test_reference_matrix(self):
        assert dominates(CALPHA2, tilde_reduction(CALPHA2))

    def test_zero_difference(self):
        w = DiagonalWeight((1.0, 1.0, 1.0))
        assert dominates(w, w)

    def test_random_tilde_always_dominated(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            d = int(rng.integers(2, 4))
            w = random_symmetric(rng, d, scale=float(10.0 ** rng.integers(-1, 2)))
            t = tilde_reduction(w)
            assert dominates(w, t)
            # independent check on a random direction
            v = rng.normal(size=d)
            diff = np.asarray(w.matrix) - np.diag(t.entries)
            assert v @ diff @ v >= -1e-12 * max(1.0, float(np.abs(diff).max()))

    def test_detects_violation(self):
        w = DiagonalWeight((1.0, 1.0))
        t = DiagonalWeight((2.0, 0.0))
        assert not dominates(w, t)


class TestFromUpper:
    @pytest.mark.parametrize("upper", [(4.0,), (5.0, 1.0, 2.0), (3.0, 1.0, -2.0, 300.0, 0.5, 3.0)])
    def test_layout(self, upper):
        rows = FullWeight.from_upper(upper).entries
        d = len(rows)
        assert all(rows[i][j] == rows[j][i] for i in range(d) for j in range(d))
        assert tuple(rows[i][j] for i in range(d) for j in range(i, d)) == upper

    @pytest.mark.parametrize("count", [0, 2, 4, 5, 7])
    def test_wrong_count_refused(self, count):
        with pytest.raises(WeightError, match="upper triangle needs 1, 3 or 6 values"):
            FullWeight.from_upper([1.0] * count)


class TestParseWeight:
    def test_diagonal(self):
        w = parse_weight("diag:1,1e-6")
        assert isinstance(w, DiagonalWeight)
        assert w.entries == (1.0, 1e-6)

    def test_full_upper_triangle(self):
        w = parse_weight("full:3,1,1,300,1,3")
        assert w.entries == CALPHA2.entries

    def test_full_2d(self):
        w = parse_weight("full:5,1,2")
        assert w.entries == ((5.0, 1.0), (1.0, 2.0))

    @pytest.mark.parametrize(
        "bad",
        [
            "diag:", "full:1,2", "full:1,2,3,4", "diag:1,-2", "spam:1", "diag:a,b", "1,2",
            "diag:1,,2", "diag:1,2,", "full:1,,2",
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(WeightError):
            parse_weight(bad)
