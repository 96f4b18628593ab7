"""Constant coefficient matrices and their spectral helpers.

All weights are real and constant over the domain.  Diagonal weights are
stored as their diagonal, full weights as an exactly symmetric d x d tuple
matrix with d <= 3.  A full weight's eigenvalues come from LAPACK
(``numpy.linalg.eigvalsh``); they and its tilde reduction are computed
once per weight and cached.  numpy is imported when a full weight's
eigenvalues are first read, never before: diagonal weights and the
closed-form bounds on them run without it.
"""

import functools
import math
from dataclasses import dataclass


class WeightError(ValueError):
    """Invalid weight or box data."""


@dataclass(frozen=True)
class DInterval:
    """Axis-parallel open box prod_i (0, l_i) enclosing the domain."""

    lengths: tuple

    def __post_init__(self):
        lengths = tuple(float(l) for l in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if not 1 <= len(lengths) <= 3:
            raise WeightError(f"box dimension must be 1, 2 or 3, got {len(lengths)}")
        for l in lengths:
            if not l > 0.0:
                raise WeightError(f"box side lengths must be positive, got {l}")
            # every bound formula divides by l^2
            if not 0.0 < l * l < math.inf:
                raise WeightError(f"box side length {l} squares to {l * l}, out of the float range")

    @property
    def d(self):
        return len(self.lengths)

    @property
    def diagonal(self):
        """Length of the box diagonal, sqrt(sum l_i^2)."""
        return math.sqrt(sum(l * l for l in self.lengths))

    def inverse_square_sum(self):
        return sum(1.0 / (l * l) for l in self.lengths)

    def digest(self):
        return {"lengths": list(self.lengths)}


@dataclass(frozen=True)
class DiagonalWeight:
    """Constant diagonal coefficient matrix diag(a_1..a_d).

    Entries may be negative only as the output of :func:`tilde_reduction`;
    every bound formula checks the sign condition it actually needs.
    """

    entries: tuple

    def __post_init__(self):
        entries = tuple(float(a) for a in self.entries)
        object.__setattr__(self, "entries", entries)
        if not 1 <= len(entries) <= 3:
            raise WeightError(f"weight dimension must be 1, 2 or 3, got {len(entries)}")
        for a in entries:
            if not math.isfinite(a):
                raise WeightError("weight entries must be finite")

    @property
    def d(self):
        return len(self.entries)

    @property
    def matrix(self):
        return tuple(
            tuple(self.entries[i] if i == j else 0.0 for j in range(self.d))
            for i in range(self.d)
        )

    @property
    def eigenvalues(self):
        """The entries, ascending."""
        return tuple(sorted(self.entries))

    def digest(self):
        return {"diag": list(self.entries)}


@dataclass(frozen=True)
class FullWeight:
    """Constant symmetric d x d coefficient matrix, symmetry held exactly."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(float(v) for v in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        d = len(rows)
        if not 1 <= d <= 3 or any(len(row) != d for row in rows):
            raise WeightError("full weight must be a square 1x1, 2x2 or 3x3 matrix")
        for i in range(d):
            for j in range(d):
                if not math.isfinite(rows[i][j]):
                    raise WeightError("weight entries must be finite")
                if rows[i][j] != rows[j][i]:
                    raise WeightError(
                        f"matrix not symmetric: entry ({i},{j})={rows[i][j]} "
                        f"differs from ({j},{i})={rows[j][i]}"
                    )

    @classmethod
    def from_upper(cls, values):
        """Build from the upper triangle in row-major order.

        1, 3 or 6 values for d = 1, 2, 3.
        """
        values = [float(v) for v in values]
        if len(values) not in (1, 3, 6):
            raise WeightError(
                f"upper triangle needs 1, 3 or 6 values (d = 1, 2, 3), got {len(values)}"
            )
        d = (1, 3, 6).index(len(values)) + 1
        rows = [[0.0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                rows[i][j] = rows[j][i] = values.pop(0)
        return cls(rows)

    @property
    def d(self):
        return len(self.entries)

    @property
    def matrix(self):
        return self.entries

    @functools.cached_property
    def eigenvalues(self):
        """All eigenvalues, ascending, from one LAPACK call per weight."""
        import numpy as np  # here, not at the top: diagonal weights never need it

        return tuple(float(v) for v in np.linalg.eigvalsh(self.entries))

    @functools.cached_property
    def is_diagonal(self):
        return all(
            self.entries[i][j] == 0.0
            for i in range(self.d)
            for j in range(self.d)
            if i != j
        )

    def diagonal_part(self):
        return DiagonalWeight(tuple(self.entries[i][i] for i in range(self.d)))

    @functools.cached_property
    def _tilde(self):
        # tilde_reduction, once per weight: the bound routes ask for it repeatedly
        m, d = self.entries, self.d
        return DiagonalWeight(
            [m[i][i] - sum(abs(m[i][j]) for j in range(d) if j != i) for i in range(d)]
        )

    def digest(self):
        return {"full": [list(row) for row in self.entries]}


def tilde_reduction(w):
    """Diagonal minorant: each diagonal entry minus its row's off-diagonal
    magnitudes.  Entries of the result may be negative."""
    return w if isinstance(w, DiagonalWeight) else w._tilde


def parse_weight(text):
    """Parse the CLI matrix syntax.

    ``diag:a,b,c`` gives a diagonal weight; ``full:a11,a12,a13,a22,a23,a33``
    gives a symmetric matrix from its upper triangle (row-major).
    """
    head, sep, body = text.partition(":")
    if not sep:
        raise WeightError(
            f"weight {text!r} must look like 'diag:...' or 'full:...'"
        )
    try:
        values = [float(v) for v in body.split(",")]
    except ValueError as exc:
        raise WeightError(f"weight {text!r}: {exc}") from None
    if head == "diag":
        if any(v < 0.0 for v in values):
            raise WeightError("diagonal weight entries must be nonnegative")
        return DiagonalWeight(tuple(values))
    if head == "full":
        return FullWeight.from_upper(values)
    raise WeightError(f"unknown weight kind {head!r}, expected 'diag' or 'full'")
