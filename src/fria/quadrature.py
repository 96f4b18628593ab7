"""Quadrature rules on triangles.

``MIDPOINT3`` (edge midpoints, degree 2) is the production rule for the
quadratic flux-defect integrand; the collapsed tensor Gauss rule serves
smooth non-polynomial integrands.
"""

import numpy as np

# barycentric coordinates and weights (weights sum to 1, scale by area)

MIDPOINT3 = (
    np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
    np.array([1.0, 1.0, 1.0]) / 3.0,
)


def gauss_collapsed(order):
    """Tensor Gauss-Legendre rule collapsed onto the reference triangle.

    Not polynomially sharp per point count, but converges spectrally for
    smooth integrands; order 12 is effectively exact in double precision
    for the trigonometric integrands used here.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    xi, eta = np.meshgrid(x, x, indexing="ij")
    wx, wy = np.meshgrid(w, w, indexing="ij")
    u = xi.ravel()
    v = (eta * (1.0 - xi)).ravel()
    weights = (wx * wy * (1.0 - xi)).ravel() * 2.0
    bary = np.column_stack((1.0 - u - v, u, v))
    return bary, weights


def physical_points(mesh, bary):
    """Map barycentric points onto every triangle.

    Returns an array of shape (num_triangles, num_points, 2).
    """
    corners = mesh.vertices[mesh.triangles]
    return np.einsum("kb,tbx->tkx", bary, corners)
