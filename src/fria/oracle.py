"""Brute-force verification: discrete spectral estimation of the true
weighted Friedrichs constant, and reference-based energy errors.

The smallest generalized eigenvalue of (stiffness, consistent mass) on
the interior vertices is found by shifted inverse power iteration with
conjugate-gradient inner solves.  Conforming Rayleigh quotients
overestimate the eigenvalue, so the returned constant estimate
1/sqrt(lambda) underestimates the true constant at every iterate; it is
used one-sidedly against the closed-form bounds.
"""

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


@dataclass(frozen=True)
class EigenEstimate:
    """Smallest discrete eigenvalue and the constant estimate 1/sqrt(lambda)."""

    lambda_min: float
    c_estimate: float
    iterations: int
    residual: float


def estimate_cfa(mesh, alpha, tol=1e-8, max_outer=500):
    """Constant estimate from the smallest (stiffness, mass) eigenvalue.

    The shift trails the Rayleigh quotient with a safety margin tied to
    the current relative eigen-residual; if a shift overshoots the target
    eigenvalue the inner CG detects the indefinite system and the shift
    backs off.  Convergence: ||K v - lambda M v|| <= tol * lambda * ||M v||.
    """
    k = reduce_system(assemble_stiffness(mesh, alpha), mesh)
    m = reduce_system(assemble_mass(mesh), mesh)
    if k.shape[0] == 0:
        raise SolverError("mesh has no interior vertices: refine it")

    v = np.ones(k.shape[0])
    v /= np.sqrt(v @ (m @ v))
    sigma = 0.0
    sigma_safe = 0.0
    system = k
    rel = 1.0
    for it in range(1, max_outer + 1):
        rhs = m @ v
        inner_tol = max(1e-11, min(1e-4, 0.02 * rel))
        try:
            x, _ = conjugate_gradients(system, rhs, rtol=inner_tol)
        except SolverError:
            sigma = 0.5 * (sigma + sigma_safe)
            system = k - sigma * m
            continue
        sigma_safe = sigma
        v = x / np.sqrt(x @ (m @ x))
        kv = k @ v
        mv = m @ v
        lam = float(v @ kv)
        r = kv - lam * mv
        res = float(np.linalg.norm(r))
        rel = res / (lam * float(np.linalg.norm(mv)))
        if rel <= tol:
            return EigenEstimate(
                lam, 1.0 / np.sqrt(lam), it, res / float(np.linalg.norm(v))
            )
        # margin 6 covers the mass-conditioning factor between the
        # 2-norm residual and the eigenvalue error bound
        if 6.0 * rel < 0.9:
            new_sigma = lam * (1.0 - 6.0 * rel)
            if new_sigma > sigma:
                sigma = new_sigma
                system = k - sigma * m
    raise SolverError(f"inverse iteration did not converge in {max_outer} steps")


def _locate_in_coarse(fine, coarse):
    """Map fine vertices to (coarse triangle, interpolation weights)."""
    ratio = fine.n // coarse.n
    fi = np.rint(fine.vertices[:, 0] * fine.n).astype(np.int64)
    fj = np.rint(fine.vertices[:, 1] * fine.n).astype(np.int64)
    ci = np.minimum(fi // ratio, coarse.n - 1)
    cj = np.minimum(fj // ratio, coarse.n - 1)
    if coarse.domain == "lshape":
        # vertices on the vertical reentrant line x = 1/2 with y < 1/2 must
        # resolve into the kept cell on their left, not the removed one
        half = coarse.n // 2
        on_line = fi == (fine.n // 2)
        ci = np.where(on_line & (cj < half) & (ci >= half), half - 1, ci)
    u = (fi - ci * ratio) / ratio
    v = (fj - cj * ratio) / ratio
    return ci, cj, u, v


def prolong(coarse_solution, fine_mesh):
    """Exact P1 interpolation of a coarse solution onto a nested mesh."""
    coarse = coarse_solution.mesh
    if fine_mesh.domain != coarse.domain:
        raise ValueError("meshes triangulate different domains")
    if fine_mesh.n % coarse.n != 0 or fine_mesh.n < coarse.n:
        raise ValueError(
            f"mesh with n={fine_mesh.n} is not a nested refinement of n={coarse.n}"
        )
    ci, cj, u, v = _locate_in_coarse(fine_mesh, coarse)
    # nodal values at the coarse cell corners
    corners = np.empty((fine_mesh.num_vertices, 4))
    grid = _vertex_grid(coarse)
    corners[:, 0] = coarse_solution.values[grid[ci, cj]]
    corners[:, 1] = coarse_solution.values[grid[ci + 1, cj]]
    corners[:, 2] = coarse_solution.values[grid[ci + 1, cj + 1]]
    corners[:, 3] = coarse_solution.values[grid[ci, cj + 1]]
    lower = v <= u
    vals_lower = corners[:, 0] * (1.0 - u) + corners[:, 1] * (u - v) + corners[:, 2] * v
    vals_upper = corners[:, 0] * (1.0 - v) + corners[:, 2] * u + corners[:, 3] * (v - u)
    values = np.where(lower, vals_lower, vals_upper)
    return P1Solution(fine_mesh, values, nodal_gradients(fine_mesh, values))


def _vertex_grid(mesh):
    """(n+1, n+1) lattice of vertex indices (-1 where absent)."""
    n = mesh.n
    grid = np.full((n + 1, n + 1), -1, dtype=np.int64)
    i = np.rint(mesh.vertices[:, 0] * n).astype(np.int64)
    j = np.rint(mesh.vertices[:, 1] * n).astype(np.int64)
    grid[i, j] = np.arange(mesh.num_vertices)
    return grid


def reference_energy_error(coarse_solution, reference_solution, alpha):
    """Energy norm of (prolonged coarse - reference) on the reference mesh."""
    fine = reference_solution.mesh
    lifted = prolong(coarse_solution, fine)
    diff = lifted.values - reference_solution.values
    sol = P1Solution(fine, diff, nodal_gradients(fine, diff))
    return energy_norm(sol, alpha)
