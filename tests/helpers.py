"""Inputs that several test modules share."""

import numpy as np


def cube_vertices(d):
    """The 2^d vertices of the cube [-1, 1]^d, one a row."""
    return np.array(np.meshgrid(*[[-1.0, 1.0]] * d)).reshape(d, -1).T
