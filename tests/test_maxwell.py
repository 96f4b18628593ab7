import json
import math

import numpy as np
import pytest

from fria.cli import main
from fria.friedrichs import (
    FORMULAS,
    BoundUnavailable,
    best_bound,
    coarse_bound,
    diagonal_bound,
    sharp_bound,
)
from fria.maxwell import (
    MaxwellInput,
    maxwell_bound,
    maxwell_coarse,
    maxwell_diagonal,
    maxwell_full,
    table3_rows,
)
from fria.weights import DiagonalWeight, DInterval, FullWeight, WeightError, parse_weight

UNIT_CUBE = DInterval((1.0, 1.0, 1.0))
SQRT3 = math.sqrt(3.0)
CALPHA2 = FullWeight(((3.0, 1.0, 1.0), (1.0, 300.0, 1.0), (1.0, 1.0, 3.0)))


class TestPoincareArm:
    """The second arm sqrt(eps_max) * diam / pi, seen where it wins."""

    def test_unit_cube_diameter(self):
        inp = MaxwellInput(UNIT_CUBE, DiagonalWeight((1.0, 1.0, 1.0)))
        assert round(maxwell_bound(inp, FORMULAS["mikhlin"]).value, 5) == 0.55133

    def test_pi(self):
        box = DInterval((math.pi, 1.0, 1.0))
        inp = MaxwellInput(box, DiagonalWeight((1.0, 1.0, 1.0)), diam=math.pi)
        assert maxwell_bound(inp, FORMULAS["mikhlin"]).value == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_input_rejects_bad_diameter(self, bad):
        with pytest.raises(WeightError, match="diameter"):
            MaxwellInput(UNIT_CUBE, DiagonalWeight((1.0, 1.0, 1.0)), diam=bad)


class TestComposition:
    def test_poincare_arm_wins(self):
        inp = MaxwellInput(UNIT_CUBE, DiagonalWeight((1.0, 1.0, 1.0)))
        assert maxwell_bound(inp, coarse_bound).value == SQRT3 / math.pi

    def test_friedrichs_arm_wins(self):
        inp = MaxwellInput(UNIT_CUBE, DiagonalWeight((1.0, 1.0, 1e-6)))
        rep = maxwell_bound(inp, coarse_bound)
        assert rep.value == coarse_bound(UNIT_CUBE, inp.eps).value > SQRT3 / math.pi

    def test_isotropic_cube(self):
        inp = MaxwellInput(UNIT_CUBE, DiagonalWeight((1.0, 1.0, 1.0)))
        assert maxwell_bound(inp, sharp_bound).value == pytest.approx(SQRT3 / math.pi, rel=1e-15)

    @pytest.mark.parametrize("eps", ["diag:0,0,0", "full:-1,0,0,-1,0,-2"])
    def test_nonpositive_eps_max_is_refused_past_a_weightless_arm(self, eps):
        # mikhlin ignores the weight, so only the composition sees eps_max <= 0
        inp = MaxwellInput(UNIT_CUBE, parse_weight(eps))
        with pytest.raises(ValueError, match="eps_max"):
            maxwell_bound(inp, FORMULAS["mikhlin"])


class TestMaxwellInput:
    def test_defaults(self):
        inp = MaxwellInput(UNIT_CUBE, DiagonalWeight((1.0, 2.0, 3.0)))
        assert inp.diam == pytest.approx(SQRT3, rel=1e-15)
        assert inp.eps_max == 3.0

    def test_full_matrix_default_eps_max(self):
        inp = MaxwellInput(UNIT_CUBE, CALPHA2)
        ref = np.linalg.eigvalsh(np.asarray(CALPHA2.matrix))[-1]
        assert inp.eps_max == pytest.approx(ref, rel=1e-13)

    def test_rejects_oversized_diameter(self):
        with pytest.raises(WeightError, match="diagonal"):
            MaxwellInput(UNIT_CUBE, DiagonalWeight((1.0, 1.0, 1.0)), diam=2.0)

    def test_rejects_small_eps_max(self):
        with pytest.raises(WeightError, match="eps_max"):
            MaxwellInput(UNIT_CUBE, DiagonalWeight((1.0, 1.0, 1.0)), eps_max=0.5)
        # at or above the smallest eigenvalue but below the largest
        with pytest.raises(WeightError, match="eps_max"):
            MaxwellInput(UNIT_CUBE, DiagonalWeight((1.0, 1.0, 0.0)), eps_max=0.0)
        # rounding slack of 1e-12 relative, as for the diameter; the bound uses lambda_max
        inp = MaxwellInput(UNIT_CUBE, DiagonalWeight((1.0, 1.0, 1.0)), eps_max=1.0 - 1e-13)
        assert inp.eps_max == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_eps_max(self, bad):
        with pytest.raises(WeightError, match="finite"):
            MaxwellInput(UNIT_CUBE, DiagonalWeight((1.0, 1.0, 1.0)), eps_max=bad)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(WeightError):
            MaxwellInput(DInterval((1.0, 1.0)), DiagonalWeight((1.0, 1.0)))


class TestCoarse:
    @pytest.mark.parametrize(
        "delta,expected",
        [(1e-6, 183.77630), (1e-2, 1.83776), (1.0, 0.55133)],
    )
    def test_reference_values(self, delta, expected):
        inp = MaxwellInput(UNIT_CUBE, DiagonalWeight((1.0, 1.0, delta)), diam=SQRT3)
        assert round(maxwell_coarse(inp).value, 5) == expected

    def test_rejects_semidefinite(self):
        inp = MaxwellInput(UNIT_CUBE, DiagonalWeight((1.0, 1.0, 0.0)), eps_max=1.0)
        with pytest.raises(BoundUnavailable):
            maxwell_coarse(inp)


class TestDiagonal:
    @pytest.mark.parametrize("delta", [1e-6, 1e-4, 1.0])
    def test_reference_values(self, delta):
        inp = MaxwellInput(UNIT_CUBE, DiagonalWeight((1.0, 1.0, delta)), diam=SQRT3, eps_max=1.0)
        assert round(maxwell_diagonal(inp).value, 5) == 0.55133

    def test_eps_max_in_the_slack_keeps_the_bound(self):
        # an eps_max accepted just below lambda_max must not lower the bound under its formula
        w = DiagonalWeight((1.0, 1.0, 1e-6))
        below = maxwell_diagonal(MaxwellInput(UNIT_CUBE, w, eps_max=0.9999999999995))
        assert below.value == maxwell_diagonal(MaxwellInput(UNIT_CUBE, w)).value
        assert below.value >= 0.5513288954217921

    def test_semidefinite_direction_falls_back(self):
        inp = MaxwellInput(UNIT_CUBE, DiagonalWeight((1.0, 1.0, 0.0)), eps_max=1.0)
        rep = maxwell_diagonal(inp)
        assert rep.method == "semidef"
        assert rep.seminorm
        assert rep.value == pytest.approx(SQRT3 / math.pi, rel=1e-14)

    def test_composes_from_parts(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            eps = DiagonalWeight(tuple(rng.uniform(1e-3, 1e3, size=3)))
            box = DInterval(tuple(rng.uniform(0.3, 3.0, size=3)))
            inp = MaxwellInput(box, eps)
            expected = max(
                diagonal_bound(box, eps).value, math.sqrt(inp.eps_max) * (inp.diam / math.pi)
            )
            assert maxwell_diagonal(inp).value == expected


class TestFull:
    def test_reference_full_matrix(self):
        inp = MaxwellInput(UNIT_CUBE, CALPHA2, diam=SQRT3)
        eps_max = np.linalg.eigvalsh(np.asarray(CALPHA2.matrix))[-1]
        expected = max(1.0 / math.sqrt(300.0), math.sqrt(eps_max) * SQRT3) / math.pi
        assert maxwell_full(inp).value == pytest.approx(expected, rel=1e-12)
        assert maxwell_full(inp).method == "thmA2"

    def test_diagonal_matrix_matches_diagonal_route(self):
        w_full = FullWeight(((1.0, 0, 0), (0, 1.0, 0), (0, 0, 0.25)))
        w_diag = DiagonalWeight((1.0, 1.0, 0.25))
        a = maxwell_full(MaxwellInput(UNIT_CUBE, w_full))
        b = maxwell_diagonal(MaxwellInput(UNIT_CUBE, w_diag))
        assert a.value == b.value

    def test_exactly_diagonal_matrix_reports_diagonal_route(self):
        # the same rule as best_bound: an exactly diagonal full matrix is diagonal
        w_full = FullWeight(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1e-6)))
        w_diag = DiagonalWeight((1.0, 1.0, 1e-6))
        rep = maxwell_full(MaxwellInput(UNIT_CUBE, w_full))
        assert rep.method == "thmA" and not rep.seminorm
        assert rep.value == maxwell_diagonal(MaxwellInput(UNIT_CUBE, w_diag)).value

    def test_scalar_matrix(self):
        w = FullWeight(((4.0, 0, 0), (0, 4.0, 0), (0, 0, 4.0)))
        inp = MaxwellInput(UNIT_CUBE, w, diam=SQRT3)
        assert maxwell_full(inp).value == pytest.approx(2.0 * SQRT3 / math.pi, rel=1e-14)

    def test_semidefinite_tilde_falls_back(self):
        w = FullWeight(((2.0, 2.0, 0.0), (2.0, 2.0, 0.0), (0.0, 0.0, 5.0)))
        inp = MaxwellInput(UNIT_CUBE, w, eps_max=5.0)
        rep = maxwell_full(inp)
        assert rep.method == "semidef"
        assert rep.seminorm

    def test_rejects_unusable_tilde(self):
        w = FullWeight(((1.0, 5.0, 5.0), (5.0, 1.0, 5.0), (5.0, 5.0, 1.0)))
        inp = MaxwellInput(UNIT_CUBE, w, eps_max=11.0)
        with pytest.raises(BoundUnavailable):
            maxwell_full(inp)


class TestProperties:
    def test_diagonal_never_exceeds_coarse(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            eps = DiagonalWeight(tuple(rng.uniform(1e-3, 1e3, size=3)))
            box = DInterval(tuple(rng.uniform(0.3, 3.0, size=3)))
            inp = MaxwellInput(box, eps)
            assert maxwell_diagonal(inp).value <= maxwell_coarse(inp).value * (1.0 + 1e-13)

    def test_scalar_permittivity_coincides(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            c = float(rng.uniform(1e-2, 1e2))
            eps = DiagonalWeight((c, c, c))
            box = DInterval(tuple(rng.uniform(0.3, 3.0, size=3)))
            inp = MaxwellInput(box, eps)
            a = maxwell_diagonal(inp).value
            b = maxwell_coarse(inp).value
            assert a == pytest.approx(b, rel=1e-13)


class TestRouter:
    def test_best_arm_gives_the_smaller_maxwell_bound(self):
        # small diameters keep the Poincare arm from deciding every case
        rng = np.random.default_rng(43)
        outcomes = set()
        for _ in range(500):
            b = rng.normal(size=(3, 3))
            a = b @ b.T + 10.0 ** rng.uniform(-1.0, 1.5) * np.eye(3)
            eps = FullWeight(tuple(map(tuple, a)))
            box = DInterval(tuple(10.0 ** rng.uniform(-1.0, 1.0, size=3)))
            inp = MaxwellInput(box, eps, diam=box.diagonal * 10.0 ** rng.uniform(-3.0, 0.0))
            coarse = maxwell_coarse(inp).value
            try:
                sharp = maxwell_full(inp).value
            except BoundUnavailable:
                sharp = None
            rep = maxwell_bound(inp, best_bound)
            if sharp is None:
                outcomes.add("refused")
                assert rep.value == coarse and rep.method == "coarse"
                continue
            outcomes.add("tie" if sharp == coarse else "sharp" if sharp < coarse else "coarse")
            assert rep.value == min(coarse, sharp)
        assert outcomes == {"refused", "tie", "sharp", "coarse"}

    @pytest.mark.parametrize(
        "argv,value",
        [
            (["--lengths", "1,1,1", "--eps", "full:1,2,0,5,0,1"], 1.33102569666),
            (["--lengths", "10,10,10", "--eps", "full:4,1,1,4,1,4", "--diam", "1"], 1.06103295395),
        ],
    )
    def test_cli_auto_takes_the_best_arm(self, capsys, argv, value):
        assert main(["bounds", "maxwell", *argv]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "coarse" and payload["value"] == value

    def test_cli_without_any_arm_is_one_line_error(self, capsys):
        assert main(["bounds", "maxwell", "--lengths", "1,1,1", "--eps", "diag:0,0,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fria: no bound applies: ")
        assert captured.err.count("\n") == 1


def test_table3_matches_reference_values():
    expected = {
        "coarse": [183.77630, 18.37763, 1.83776, 0.55133],
        "thmA": [0.55133, 0.55133, 0.55133, 0.55133],
    }
    for name, values in table3_rows():
        assert [round(v, 5) for v in values] == expected[name]
