"""Inputs that several test modules share."""

import numpy as np


def cube_vertices(d):
    """The 2^d vertices of the cube [-1, 1]^d, one a row."""
    return np.array(np.meshgrid(*[[-1.0, 1.0]] * d)).reshape(d, -1).T


def plane_landing(P, h, N, g):
    """Where Brownian motion from each row p of P first hits the plane below
    it at excess h with unit normal n, given d standard normals g: the jump
    formula p + t g - (h + t g.n) n with t = h / |g.n|, in the order of the
    walks' own arithmetic."""
    gn = g[:, 0] * N[:, 0]
    for k in range(1, g.shape[1]):
        gn = gn + g[:, k] * N[:, k]
    t = h / np.abs(gn)
    return P + t[:, None] * g - (gn * t + h)[:, None] * N
