"""Manufactured smooth problem on the unit square for certification tests.

The exact solution is u = sin(pi x) sin(pi y) with unit diffusion and
source f = 2 pi^2 u.  The source enters the discrete load by nodal
interpolation with the standard lumped weights, and the majorant by its
cell moments.  Those moments and the energy error against the exact
solution evaluate in closed form: by the divergence theorem each
integral over a triangle is a sum of elementary trigonometric edge terms.
"""

import math

import numpy as np

from .fem import solve_diffusion
from .majorant import evaluate_majorant
from .weights import DiagonalWeight

IDENTITY2 = DiagonalWeight((1.0, 1.0))

# squared energy norm of the exact solution, int |grad u|^2
EXACT_ENERGY_SQ = math.pi**2 / 2.0


def exact_solution(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def source(x, y):
    return 2.0 * np.pi**2 * exact_solution(x, y)


def solve(mesh):
    """P1 solve with the nodally interpolated, lumped source."""
    if mesh.domain != "square":
        raise ValueError("manufactured problem is posed on the unit square")
    return solve_diffusion(mesh, IDENTITY2, source)


def _edge_means(mesh, waves, trig):
    """Mean of trig(pi k.x) along every edge, for each column k of waves.

    k.x is affine along an edge, so the mean of cos or sin of it is the
    value at the midpoint times sinc of half the increment.
    """
    ends = np.take(mesh.vertices, mesh.edges, axis=0)
    mid = (0.5 * (ends[:, 0] + ends[:, 1])) @ waves
    step = (ends[:, 1] - ends[:, 0]) @ waves
    return trig(np.pi * mid) * np.sinc(0.5 * step)


def grad_u_integrals(mesh):
    """Closed-form int_T grad u dA for every triangle of a triangulation of
    the unit square.

    By the divergence theorem int_T grad u = sum over the edges e of T of
    the outward normal times int_e u ds, with u = [cos pi(x-y) -
    cos pi(x+y)] / 2.
    """
    cosines = _edge_means(mesh, np.array([[1.0, 1.0], [-1.0, 1.0]]), np.cos)
    along = 0.5 * mesh.edge_lengths * (cosines[:, 0] - cosines[:, 1])
    flux = along[:, None] * mesh.edge_normals
    return np.einsum("te,tex->tx", mesh.tri_edge_signs, np.take(flux, mesh.tri_edges, axis=0))


def source_moments(mesh):
    """Closed-form cell mean of f and oscillation int_T (f - mean)^2 for
    every triangle of a triangulation of the unit square.

    f = pi^2 [cos pi(x-y) - cos pi(x+y)] and f^2 = pi^4 [1 + cos 2pi(x-y)/2
    + cos 2pi(x+y)/2 - cos 2pi x - cos 2pi y].  By the divergence theorem
    int_T cos(pi k.x) = sum_e (k.n_e) int_e sin(pi k.x) ds / (pi |k|^2)
    over the outward normals.  Rounding may leave a tiny negative
    oscillation; it is clamped to 0, which can only raise the majorant.
    """
    waves = np.array([[1.0, 1.0, 2.0, 2.0, 2.0, 0.0], [-1.0, 1.0, -2.0, 2.0, 0.0, 2.0]])
    along = mesh.edge_lengths[:, None] * _edge_means(mesh, waves, np.sin)
    per_edge = along * (mesh.edge_normals @ waves) / (np.pi * np.sum(waves * waves, axis=0))
    cosines = np.einsum("te,tek->tk", mesh.tri_edge_signs, np.take(per_edge, mesh.tri_edges, axis=0))
    integral = np.pi**2 * (cosines[:, 0] - cosines[:, 1])
    square = np.pi**4 * (
        mesh.areas + 0.5 * (cosines[:, 2] + cosines[:, 3]) - cosines[:, 4] - cosines[:, 5]
    )
    mean = integral / mesh.areas
    return mean, np.maximum(square - integral * mean, 0.0)


def exact_energy_error(solution):
    """Energy norm of u - u~ with the cross term in closed form."""
    mesh = solution.mesh
    g = solution.gradients
    cross = np.einsum("tx,tx->", g, grad_u_integrals(mesh))
    own = np.einsum("t,tx,tx->", mesh.areas, g, g, optimize=True)
    return float(math.sqrt(max(EXACT_ENERGY_SQ - 2.0 * cross + own, 0.0)))


def majorant_total(c_tilde, solution, field):
    """Error majorant of the smooth problem; the source enters the residual
    through its closed-form cell moments."""
    return evaluate_majorant(c_tilde, solution, field, IDENTITY2, source_moments(solution.mesh))
