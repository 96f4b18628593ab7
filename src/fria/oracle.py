"""Brute-force verification: discrete spectral estimation of the true
weighted Friedrichs constant, and reference-based energy errors.

The smallest generalized eigenvalue of (stiffness, consistent mass) on
the interior vertices is found by block-size-1 LOBPCG (Knyazev, SIAM J.
Sci. Comput. 23(2), 2001), preconditioned by a V-cycle with line smoothing
(Trottenberg, Oosterlee and Schueller, Multigrid, 2001).  Conforming
Rayleigh quotients overestimate the eigenvalue, so the returned constant
estimate 1/sqrt(lambda) underestimates the true constant at every
iterate; it is used one-sidedly against the closed-form bounds.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fem import P1Solution, SolverError, energy_norm, multigrid_stiffness
from .mesh import prolongation


@dataclass(frozen=True)
class EigenEstimate:
    """Smallest discrete eigenvalue; the constant estimate 1/sqrt(lambda) is
    derived from it."""

    lambda_min: float
    iterations: int
    residual: float

    @property
    def c_estimate(self):
        return 1.0 / np.sqrt(self.lambda_min)


# convergence: ||K v - lambda M v|| <= TOL * lambda * ||M v||
TOL = 1e-8
_STEPS_PER_UNKNOWN = 10  # LOBPCG step budget


def _ritz(v):
    """Coefficients of the smallest Ritz vector in the span of the rows v[0],
    whose K and M products are v[1] and v[2]; M-normalised."""
    inv = np.linalg.inv(np.linalg.cholesky(v[0] @ v[2].T))  # LinAlgError if rows are dependent
    return inv.T @ np.linalg.eigh(inv @ (v[0] @ v[1].T) @ inv.T)[1][:, 0]


def estimate_cfa(mesh, alpha):
    """Constant estimate from the smallest (stiffness, mass) eigenvalue.

    Each step is a Rayleigh-Ritz step on the iterate x, the residual
    preconditioned by a V-cycle with line smoothing (``multigrid_stiffness``;
    the line apply alone on a mesh with no coarser level) and the previous
    direction p, which is dropped when numerically dependent.  v[0], v[1],
    v[2] hold these rows, their K and their M products, which follow the
    rows' combinations, so a step costs one product with each matrix and one
    preconditioner apply.  The iteration runs on the stiffness of alpha / s,
    so any weight magnitude stays in float range and the eigenvalue is
    exactly s times the scaled one.
    """
    m = mesh.dirichlet.mass  # kept by the mesh; before the hierarchy: their peaks do not add
    s, k, precondition = multigrid_stiffness(mesh, alpha)
    n = k.shape[0]
    if n == 0:
        raise SolverError("mesh has no interior vertices: refine it")
    v = np.zeros((3, 3, n))
    v[0, 0] = 1.0
    v[1:, 0] = k @ v[0, 0], m @ v[0, 0]
    for it in range(_STEPS_PER_UNKNOWN * n):
        x, kx, mx = v[:, 0]
        lam = float(x @ kx) / float(x @ mx)
        if not lam > 0.0:  # a Rayleigh quotient <= 0 proves K indefinite
            raise SolverError("stiffness is not positive definite")
        r = kx - lam * mx
        if np.linalg.norm(r) <= TOL * lam * np.linalg.norm(mx):
            kx, mx = k @ x, m @ x  # the returned quotient comes from fresh products
            lam = float(x @ kx) / float(x @ mx)
            if not lam * s < math.inf:
                raise SolverError(f"smallest eigenvalue {lam} * {s} overflows")
            res = float(np.linalg.norm(kx - lam * mx)) / float(np.linalg.norm(x))
            return EigenEstimate(lam * s, it, s * res)
        v[0, 1] = precondition(r)
        v[1:, 1] = k @ v[0, 1], m @ v[0, 1]
        try:
            y = _ritz(v)
        except np.linalg.LinAlgError:  # no p yet, or p numerically dependent: drop it
            y = np.append(_ritz(v[:, :2]), 0.0)
        v[:, ::2] = np.array([y, [0.0, y[1], y[2]]]) @ v  # new x and p, and their products
    raise SolverError(f"LOBPCG did not converge in {_STEPS_PER_UNKNOWN * n} steps")


def reference_energy_error(coarse_solution, reference_solution, alpha):
    """Energy norm of (prolonged coarse - reference) on the reference mesh."""
    fine = reference_solution.mesh
    lifted = prolongation(coarse_solution.mesh, fine) @ coarse_solution.values
    diff = lifted - reference_solution.values
    return energy_norm(P1Solution(fine, diff), alpha)
