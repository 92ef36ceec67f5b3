"""The numpy back-substitution sweep of the discrete integral equation.

Row n of the system is

    denoms[n] y[n] = x_n (sum_{m>=1} W_m y[n+m] + top[n] y[start])
                     + q sum_{j>n} w_j y[j].

In the reversed index r = start - n the kernel part is a causal
convolution of the values with the weights, plus one known column:
``top`` holds what the Toeplitz weights cannot, the coupling of every
row to the node above the top cell, which equals the start node.  The
sweep solves it by the relaxed (online) convolution of Hairer, Lubich &
Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985): the rows are cut into
leaves of ``_LEAF`` rows, each leaf is one BLAS triangular solve
(``dtrsv``), and a finished block of 2**k leaves hands its contribution
to the next 2**k leaves in one FFT convolution.  O(N log^2 N) operations
in all, against O(N^2) multiply-adds for the row-by-row loop.  A row
whose far-field sum the FFT rounding could spoil, such as the tiny values
near x -> 0, is summed directly instead (``_GUARD_RTOL``).
"""

import math

import numpy as np
from scipy.linalg.blas import dtrsv

# Rows per leaf.  Median of 7 alternating calls of the whole sweep on a
# 2-core Xeon (numpy 2.4.6, scipy 1.17.1) for powered_gamma_a1,
# stretched_exp_n1 and stable_with_drift: at N = 36000, 32 rows 81/79/90 ms,
# 64 rows 48/42/53 ms, 128 rows 34/38/38 ms, 256 rows 37/40/46 ms; at
# N = 4500, 32 rows 10/11/10 ms, 64 rows 5.9/6.9/5.9 ms, 128 rows
# 5.0/5.5/5.0 ms, 256 rows 6.8/6.2/5.6 ms.  Below 128 the fixed Python and
# FFT cost of each leaf dominates, above it the near field, which costs
# O(leaf) per row to build and to solve.
_LEAF = 128

# A row whose far-field sum may carry FFT rounding above this fraction of
# its diagonal term is summed directly instead.  At 1e-11 no refine recipe
# (powered_gamma_a1/a_half, lamperti_killed, stable_with_drift,
# stretched_exp_n1) recomputes a row at N = 4500..36000, stretched_exp_n2
# and n3 recompute 22% and 32% of theirs, and all eight recipes stay within
# 2.5e-13 of the row-by-row loop.  At 1e-12 stable_with_drift recomputes
# 3577 rows at N = 36000 while its largest difference from the loop only
# moves from 3.5e-14 to 2.4e-14.
_GUARD_RTOL = 1e-11

# c eps in the rounding bound c eps log2(P) |z_block| |W_seg| of one
# length-P FFT convolution (2-norms).  Over every convolution of all eight
# recipes at N = 4500..18000 the largest error is 0.385 of the bound with
# c = 1; c = 4 keeps a factor 10.  With c = 1 the stretched_exp_n2/n3
# heights near x -> 0 differ from the loop by up to 9.7e-13, with c = 4 by
# 2.5e-13.
_FFT_ERR = 4.0 * np.finfo(float).eps

# Finished heights above this are rescaled by a power of two.  The guard
# squares a block of up to N/2 heights, which for N < 2**18 overflows once
# they pass 2**503; the bound leaves 2**203 for the growth within the next leaf.
# The largest growth of one leaf's peak over all earlier heights is 2**71.6
# on the repro of ``test_solve_rescales_heights_that_would_overflow``
# (N = 72000), well inside that margin; it grows with the leaf (2**38.2 at
# 64 rows).  No recipe reaches the bound at N = 4500..36000, so their
# heights do not change.
_RESCALE_ABOVE = 2.0**300


def back_substitute(nodes, widths, weights, denoms, q, start, top):
    """Solve the homogeneous discrete integral equation from the top down.

    nodes[n] is the n-th node, widths[n] the kill term's weight of y[n],
    weights[m] the kernel weight for an index offset of m, denoms[n] the
    diagonal and top[n] the kernel weight of y[start] in row n on top of
    weights[start - n] (:func:`expfun.solver.sweep_inputs` builds them
    all).  Nodes above ``start`` stay 0.  The system is homogeneous, so
    the values are known only up to a positive factor: the sweep starts
    node ``start`` at 1 and divides all finished values by a power of two
    whenever they pass ``_RESCALE_ABOVE``.  Returns the unnormalized
    values.
    """
    return relaxed_sweep(nodes, widths, weights, denoms, q, start, top)[0]


def relaxed_sweep(nodes, widths, weights, denoms, q, start, top):
    """``back_substitute`` plus the number of rows whose far-field sum the
    accuracy guard recomputed directly."""
    rows = start + 1
    leaf = min(_LEAF, rows)
    y = np.zeros(widths.shape[0])
    # everything below is in the reversed index r = start - n; z is a view
    # of y
    z = y[start::-1]
    w = widths[start::-1]
    x = nodes[start::-1].copy()
    d = denoms[start::-1].copy()
    # kernel sum over the rows of earlier leaves, starting with the known
    # column times z_0 = 1
    known = top[start::-1]
    far = known.copy()
    err = np.zeros(rows)  # bound on the FFT rounding carried in ``far``
    # row 0 has no coupling; a unit diagonal and right-hand side give it
    # the provisional top height z_0 = 1
    x[0] = d[0] = far[0] = 1.0

    offset = np.subtract.outer(np.arange(leaf), np.arange(leaf))
    lower = offset > 0
    # minus the near-field couplings: x_r W_(r-i) and q w_i for i < r
    neg_near = np.where(lower, -weights[np.maximum(offset, 0)], 0.0)
    neg_q = np.where(lower, -q, 0.0)
    spectra = {}
    prefix = 0.0  # sum of w_i z_i over the rows of earlier leaves
    recomputed = 0

    n_leaves = -(-rows // leaf)
    for j in range(n_leaves):
        a, b = j * leaf, min((j + 1) * leaf, rows)
        m = b - a
        mat = x[a:b, None] * neg_near[:m, :m]
        if q:
            mat += neg_q[:m, :m] * w[a:b]
        mat.flat[:: m + 1] = d[a:b]
        # mat.T is Fortran-ordered and upper triangular, so f2py passes it
        # without a copy and trans=1 solves mat zb = rhs
        zb = dtrsv(mat.T, x[a:b] * far[a:b] + q * prefix, lower=0, trans=1)
        bad = np.nonzero(x[a:b] * err[a:b] > _GUARD_RTOL * d[a:b] * np.abs(zb))[0]
        if bad.size:
            recent = z[a - 1 :: -1]  # contiguous in y, for a fast dot
            for r in a + bad:
                far[r] = np.dot(weights[r - a + 1 : r + 1], recent) + known[r] * z[0]
            recomputed += bad.size
            zb = dtrsv(mat.T, x[a:b] * far[a:b] + q * prefix, lower=0, trans=1)
        z[a:b] = zb
        prefix += np.dot(w[a:b], zb)
        peak = np.max(np.abs(zb))
        if peak > _RESCALE_ABOVE:
            # a power of two scales exactly
            factor = 2.0 ** -math.frexp(peak)[1]
            z[:b] *= factor
            far[b:] *= factor
            err[b:] *= factor
            prefix *= factor

        # leaves [done - span, done) form a finished left half; add their
        # sums to the right half [done, done + span)
        done = j + 1
        if done == n_leaves:
            break
        span = (done & -done) * leaf
        hi = min(b + span, rows)
        size_fft = 2 * span
        if size_fft not in spectra:
            seg = weights[1 : size_fft + 1]  # rfft pads it with zeros
            spectra[size_fft] = (np.fft.rfft(seg, size_fft), math.sqrt(np.dot(seg, seg)))
        spectrum, kern_norm = spectra[size_fft]
        src = z[b - span : b]
        prod = np.fft.rfft(src, size_fft)
        prod *= spectrum
        conv = np.fft.irfft(prod, size_fft)
        far[b:hi] += conv[span - 1 : span - 1 + hi - b]
        err[b:hi] += (
            _FFT_ERR * math.log2(size_fft) * math.sqrt(np.dot(src, src)) * kern_norm
        )

    return y, recomputed
