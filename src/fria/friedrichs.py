"""Computable upper bounds for the weighted Friedrichs constant.

Every bound applies to functions vanishing on the whole boundary of a
domain enclosed in the axis-parallel box ``DInterval``.  The diagonal
route sharpens the coarse smallest-eigenvalue route and stays finite when
single directions degenerate; full matrices go through the tilde
reduction first.
"""

import math
from dataclasses import dataclass, field

from .weights import (
    DiagonalWeight,
    DInterval,
    FullWeight,
    WeightError,
    tilde_reduction,
)

class BoundUnavailable(ValueError):
    """The requested bound formula does not apply to the given weight."""


@dataclass(frozen=True)
class BoundReport:
    """A computed constant bound plus the formula that produced it.

    ``seminorm`` is set when zero weight directions were dropped, in which
    case the weighted gradient expression on the right-hand side of the
    inequality is only a seminorm.
    """

    value: float
    method: str
    inputs: dict = field(default_factory=dict)
    seminorm: bool = False

    def __post_init__(self):
        if self.method not in FORMULAS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise ValueError(f"bound value must be finite and positive, got {self.value}")


def _digest(box, w=None):
    out = box.digest()
    if w is not None:
        out["weight"] = w.digest()
    return out


def _check_dims(box, w):
    if box.d != w.d:
        raise WeightError(f"box is {box.d}-dimensional but weight is {w.d}-dimensional")


def _inverse_root(s, method):
    """1 / (pi sqrt(s)) for the sum ``s`` of weights over squared lengths,
    refused when ``s`` underflowed to 0 or overflowed to inf."""
    if not 0.0 < s < math.inf:
        raise BoundUnavailable(f"{method} bound out of floating-point range: sum {s}")
    return 1.0 / (math.pi * math.sqrt(s))


def mikhlin_bound(box):
    """Unweighted box bound 1 / (pi sqrt(sum 1/l_i^2))."""
    value = _inverse_root(box.inverse_square_sum(), "mikhlin")
    return BoundReport(value, "mikhlin", _digest(box))


def coarse_bound(box, w):
    """Smallest-eigenvalue bound 1 / (pi sqrt(a_min sum 1/l_i^2)).

    Blows up as the smallest eigenvalue of the weight approaches zero.
    """
    _check_dims(box, w)
    amin = w.eigenvalues[0]
    if amin <= 0.0:
        raise BoundUnavailable(
            f"coarse bound undefined: smallest eigenvalue {amin} is not positive"
        )
    value = _inverse_root(amin * box.inverse_square_sum(), "coarse")
    return BoundReport(value, "coarse", _digest(box, w))


def _as_diagonal(w):
    """An exactly diagonal full weight as its diagonal part; others unchanged."""
    return w.diagonal_part() if isinstance(w, FullWeight) and w.is_diagonal else w


def _reduced_bound(box, w, method):
    """1 / (pi sqrt(sum d_i/l_i^2)) over the positive entries d_i of the tilde
    reduction d of ``w``, refused unless d suits ``method``: thmA and thmA2
    need every d_i > 0, semidef no d_i < 0 and some d_i > 0.  A semidef
    report is flagged as a seminorm when a direction was dropped or ``w``
    was reduced."""
    _check_dims(box, w)
    t = tilde_reduction(w)
    d = t.entries
    if method != "semidef" and min(d) <= 0.0:
        raise BoundUnavailable(
            f"tilde not positive definite: reduction diag{d} has a nonpositive entry"
            if method == "thmA2"
            else "diagonal bound needs strictly positive entries; "
            "route nonnegative weights through semidef_bound"
        )
    if min(d) < 0.0:
        raise BoundUnavailable(f"semidef bound needs nonnegative entries, got diag{d}")
    if max(d) <= 0.0:
        raise BoundUnavailable("semidef bound needs at least one positive entry")
    value = _inverse_root(sum(a / (l * l) for a, l in zip(d, box.lengths) if a > 0.0), method)
    seminorm = method == "semidef" and (t is not w or 0.0 in d)
    return BoundReport(value, method, _digest(box, w), seminorm=seminorm)


def diagonal_bound(box, w):
    """Per-direction bound 1 / (pi sqrt(sum a_i/l_i^2)) for positive diagonals.

    An exactly diagonal full weight is taken as its diagonal part.
    """
    w = _as_diagonal(w)
    if not isinstance(w, DiagonalWeight):
        raise WeightError("diagonal bound needs a diagonal weight")
    return _reduced_bound(box, w, "thmA")


def full_bound(box, w):
    """Diagonal bound applied to the tilde reduction of a full matrix."""
    if not isinstance(w, FullWeight):
        raise WeightError("full bound needs a full symmetric weight")
    return _reduced_bound(box, w, "thmA2")


def semidef_bound(box, w):
    """Diagonal bound summed over the strictly positive directions only.

    Needs a nonnegative diagonal with at least one positive entry; a full
    weight is replaced by its tilde reduction first.  With exactly one
    positive entry this is the single-direction bound l_i / (pi sqrt(a_i)).
    The report is flagged when directions were dropped or the weight was
    reduced: the right-hand side is then only a seminorm.
    """
    return _reduced_bound(box, w, "semidef")


def sharp_bound(box, w):
    """The sharp formula the weight's tilde reduction qualifies for.

    A positive reduction takes the per-direction bound (thmA for diagonal
    weights, exactly diagonal full ones included; thmA2 for full ones), any
    other the semidef bound of the reduction.
    """
    w = _as_diagonal(w)
    if min(tilde_reduction(w).entries) > 0.0:
        return _reduced_bound(box, w, "thmA" if isinstance(w, DiagonalWeight) else "thmA2")
    return _reduced_bound(box, w, "semidef")


# tag -> formula(box, w), in the order best_bound prefers at equal values
FORMULAS = {
    "thmA": diagonal_bound,
    "thmA2": full_bound,
    "semidef": semidef_bound,
    "coarse": coarse_bound,
    "mikhlin": lambda box, w: mikhlin_bound(box),
}
METHODS = tuple(FORMULAS)


def best_bound(box, w):
    """Smaller of the sharp and the coarse bound; ties follow ``METHODS``.

    An exactly diagonal full weight is routed as its diagonal part.
    """
    w = _as_diagonal(w)
    cands = []
    refusals = []
    for formula in (sharp_bound, coarse_bound):
        try:
            cands.append(formula(box, w))
        except BoundUnavailable as exc:
            refusals.append(str(exc))
    if not cands:
        raise BoundUnavailable("no bound applies: " + "; ".join(refusals))
    return min(cands, key=lambda r: (r.value, METHODS.index(r.method)))


def coercivity_threshold(bound, eps):
    """Lower limit for the reaction coefficient keeping the
    reaction-diffusion form coercive.

    Any reaction coefficient above ``-eps / bound.value**2`` (with the
    split parameter ``eps`` in (0,1)) certifies unique solvability.
    """
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie strictly between 0 and 1, got {eps}")
    return -eps / (bound.value * bound.value)


TABLE1_DELTAS = (1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6)


def table1_rows():
    """Coarse and diagonal bound values on the unit square for
    anisotropy diag(1, delta) over the standard delta grid."""
    box = DInterval((1.0, 1.0))
    grid = [DiagonalWeight((1.0, delta)) for delta in TABLE1_DELTAS]
    return [(tag, [FORMULAS[tag](box, w).value for w in grid]) for tag in ("coarse", "thmA")]
