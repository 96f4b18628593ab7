"""Upper bounds for the tangential Maxwell constant on convex 3-D domains.

Each bound is the maximum of a Friedrichs arm (controlling gradients) and
a Poincare arm sqrt(eps_max) * diam / pi (controlling rotations).
Convexity of the domain is a caller-asserted precondition; it is not
verified here.
"""

import math
from dataclasses import dataclass

from .friedrichs import FORMULAS, BoundReport, coarse_bound, sharp_bound
from .weights import DiagonalWeight, DInterval, FullWeight, WeightError


@dataclass(frozen=True)
class MaxwellInput:
    """Box, permittivity, domain diameter and largest permittivity eigenvalue.

    ``diam`` defaults to the box diagonal and ``eps_max`` to the largest
    eigenvalue of the constant matrix, matching a domain that fills its box.
    """

    box: DInterval
    eps: object
    diam: float = None
    eps_max: float = None

    def __post_init__(self):
        if self.box.d != 3:
            raise WeightError("Maxwell bounds need a 3-dimensional box")
        if self.eps.d != 3:
            raise WeightError("Maxwell bounds need a 3x3 permittivity")
        diam = self.box.diagonal if self.diam is None else float(self.diam)
        if not (math.isfinite(diam) and diam > 0.0):
            raise WeightError(f"diameter must be positive, got {diam}")
        if diam > self.box.diagonal * (1.0 + 1e-12):
            raise WeightError(
                f"diameter {diam} exceeds the box diagonal {self.box.diagonal}"
            )
        lam_max = self.eps.eigenvalues[-1]
        eps_max = lam_max if self.eps_max is None else float(self.eps_max)
        if not math.isfinite(eps_max):
            raise WeightError(f"eps_max must be finite, got {eps_max}")
        if not eps_max >= lam_max - 1e-12 * abs(lam_max):
            raise WeightError(
                f"eps_max {eps_max} is below the largest permittivity eigenvalue {lam_max}"
            )
        object.__setattr__(self, "diam", diam)
        object.__setattr__(self, "eps_max", max(eps_max, lam_max))  # slack never lowers a bound

    def digest(self):
        return {
            "lengths": list(self.box.lengths),
            "eps": self.eps.digest(),
            "diam": self.diam,
            "eps_max": self.eps_max,
        }


def poincare_convex_bound(diam):
    """Poincare constant bound diam/pi for convex domains."""
    diam = float(diam)
    if not (math.isfinite(diam) and diam > 0.0):
        raise WeightError(f"diameter must be positive, got {diam}")
    return diam / math.pi


def maxwell_from_parts(c_feps, eps_max, c_p):
    """Maxwell bound max(c_feps, sqrt(eps_max) * c_p) from its two arms."""
    if not all(0.0 < x < math.inf for x in (c_feps, eps_max, c_p)):
        raise ValueError("all inputs must be finite and positive")
    return max(c_feps, math.sqrt(eps_max) * c_p)


def maxwell_bound(inp, formula):
    """Maxwell bound with any Friedrichs formula ``formula(box, w)`` as its first arm."""
    arm = formula(inp.box, inp.eps)
    value = maxwell_from_parts(arm.value, inp.eps_max, poincare_convex_bound(inp.diam))
    return BoundReport(value, arm.method, inp.digest(), seminorm=arm.seminorm)


def maxwell_coarse(inp):
    """Coarse bound using only the smallest permittivity eigenvalue."""
    return maxwell_bound(inp, coarse_bound)


def maxwell_diagonal(inp):
    """Per-direction bound for diagonal permittivity.

    Zero directions are tolerated by switching the Friedrichs arm to the
    positive-directions-only bound; the report carries that flag.
    """
    if not isinstance(inp.eps, DiagonalWeight):
        raise WeightError("maxwell_diagonal needs a diagonal permittivity")
    return maxwell_bound(inp, sharp_bound)


def maxwell_full(inp):
    """Bound for full symmetric permittivity via the tilde reduction."""
    if not isinstance(inp.eps, FullWeight):
        raise WeightError("maxwell_full needs a full symmetric permittivity")
    return maxwell_bound(inp, sharp_bound)


# Only the columns where the largest permittivity eigenvalue is 1; for
# larger anisotropy the Poincare arm grows with sqrt(eps_max) and the
# printed reference values no longer follow the stated bounds.
TABLE3_DELTAS = (1e-6, 1e-4, 1e-2, 1.0)


def table3_rows():
    """Coarse and per-direction Maxwell bounds on the unit cube for
    permittivity diag(1, 1, delta), delta <= 1."""
    box = DInterval((1.0, 1.0, 1.0))
    inputs = [MaxwellInput(box, DiagonalWeight((1.0, 1.0, d))) for d in TABLE3_DELTAS]
    return [
        (tag, [maxwell_bound(inp, FORMULAS[tag]).value for inp in inputs])
        for tag in ("coarse", "thmA")
    ]
