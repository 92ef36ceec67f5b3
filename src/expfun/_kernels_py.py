"""The numpy back-substitution sweep of the discrete integral equation.

The outer loop is sequential by nature; each step reduces to one dot
product against the weight vector, O(N^2) multiply-adds in all.
"""

import numpy as np


def back_substitute(nodes, widths, weights, denoms, q, start):
    """Solve the homogeneous discrete integral equation from the top down.

    nodes[n] is the left edge of cell n, widths[n] its width, weights[m]
    the kernel weight for an index offset of m, denoms[n] the diagonal
    1 - c x_n - x_n W_0 - q w_n.  Cell ``start`` gets the provisional
    height 1; cells above it stay 0.  Returns the unnormalized heights.
    """
    n_cells = widths.shape[0]
    y = np.zeros(n_cells)
    y[start] = 1.0
    suffix = y[start] * widths[start]
    for n in range(start - 1, -1, -1):
        kernel = nodes[n] * np.dot(y[n + 1 : start + 1], weights[1 : start - n + 1])
        y[n] = (kernel + q * suffix) / denoms[n]
        suffix += y[n] * widths[n]
    return y
