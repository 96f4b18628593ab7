"""Brute-force verification: discrete spectral estimation of the true
weighted Friedrichs constant, and reference-based energy errors.

The smallest generalized eigenvalue of (stiffness, consistent mass) on
the interior vertices is found by shifted inverse power iteration with
conjugate-gradient inner solves.  Conforming Rayleigh quotients
overestimate the eigenvalue, so the returned constant estimate
1/sqrt(lambda) underestimates the true constant at every iterate; it is
used one-sidedly against the closed-form bounds.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fem import (
    P1Solution,
    SolverError,
    assemble_mass,
    assemble_stiffness,
    conjugate_gradients,
    energy_norm,
    nodal_gradients,
    reduce_system,
)
from .mesh import prolongation
from .weights import FullWeight, largest_eigenvalue


@dataclass(frozen=True)
class EigenEstimate:
    """Smallest discrete eigenvalue and the constant estimate 1/sqrt(lambda)."""

    lambda_min: float
    c_estimate: float
    iterations: int
    residual: float


# convergence: ||K v - lambda M v|| <= TOL * lambda * ||M v||
TOL = 1e-8
MAX_OUTER = 500


def estimate_cfa(mesh, alpha):
    """Constant estimate from the smallest (stiffness, mass) eigenvalue.

    The shift trails the Rayleigh quotient with a safety margin tied to
    the current relative eigen-residual; if a shift overshoots the target
    eigenvalue the inner CG detects the indefinite system and the shift
    backs off.  The iteration runs on alpha / s for the power of two
    s <= lambda_max(alpha) < 2 s, so any weight magnitude stays in float
    range; stiffness and every iterate scale exactly by s.
    """
    top = largest_eigenvalue(alpha)
    if not top > 0.0:
        raise SolverError(f"weight has no positive eigenvalue (largest {top})")
    s = math.ldexp(1.0, math.frexp(top)[1] - 1)
    scaled = FullWeight(tuple(tuple(a / s for a in row) for row in alpha.matrix))
    k = reduce_system(assemble_stiffness(mesh, scaled), mesh)
    m = reduce_system(assemble_mass(mesh), mesh)
    if k.shape[0] == 0:
        raise SolverError("mesh has no interior vertices: refine it")

    v = np.ones(k.shape[0])
    v /= np.sqrt(v @ (m @ v))
    sigma = sigma_safe = 0.0
    system, rel = k, 1.0
    for it in range(1, MAX_OUTER + 1):
        inner_tol = max(1e-11, min(1e-4, 0.02 * rel))
        try:
            x, _ = conjugate_gradients(system, m @ v, rtol=inner_tol)
        except SolverError:
            sigma = 0.5 * (sigma + sigma_safe)
            system = k - sigma * m
            continue
        sigma_safe = sigma
        v = x / np.sqrt(x @ (m @ x))
        kv = k @ v
        mv = m @ v
        lam = float(v @ kv)
        res = float(np.linalg.norm(kv - lam * mv))
        rel = res / (lam * float(np.linalg.norm(mv)))
        if rel <= TOL:
            if not lam * s < math.inf:
                raise SolverError(f"smallest eigenvalue {lam} * {s} overflows")
            return EigenEstimate(
                lam * s, 1.0 / np.sqrt(lam * s), it, s * res / float(np.linalg.norm(v))
            )
        # margin 6 covers the mass-conditioning factor between the
        # 2-norm residual and the eigenvalue error bound
        if 6.0 * rel < 0.9 and lam * (1.0 - 6.0 * rel) > sigma:
            sigma = lam * (1.0 - 6.0 * rel)
            system = k - sigma * m
    raise SolverError(f"inverse iteration did not converge in {MAX_OUTER} steps")


def reference_energy_error(coarse_solution, reference_solution, alpha):
    """Energy norm of (prolonged coarse - reference) on the reference mesh."""
    fine = reference_solution.mesh
    lifted = prolongation(coarse_solution.mesh, fine) @ coarse_solution.values
    diff = lifted - reference_solution.values
    return energy_norm(P1Solution(fine, diff, nodal_gradients(fine, diff)), alpha)
