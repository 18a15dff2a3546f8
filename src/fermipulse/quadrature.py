"""Nested fixed rules: a family of integrals refined level by level.

A rule is a sequence of levels (nodes, weights).  nodes are the level's
new nodes only; weights are its weights on every node so far, the first
level's nodes first, then each later level's in turn.  Two rules serve
every integral: the trapezoid rule on an interval, halving its step, and
Clenshaw-Curtis on [0, 1], doubling its number of intervals (weights by
the inverse FFT of Waldvogel, BIT 46, 195 (2006)).  weighted() folds a
known weight function into a rule.
"""

import numpy as np

# the absolute floor of nested(), per unit integral of the weight
_TINY = np.finfo(np.float64).tiny


class QuadratureFailure(Exception):
    """A row's last two levels still disagree after the rule's last level.

    row is the first such row of a nested() family, err its last
    difference.
    """

    def __init__(self, message, err=None, row=None):
        super().__init__(message)
        self.err = err
        self.row = row


def nested(f, levels, n_rows, rel_tol):
    """Integrate n_rows integrands by the nested levels of one fixed rule.

    f(rows, nodes) takes two 1-D arrays of one length, integer row
    indices and float nodes, and returns the value of integrand rows[i]
    at nodes[i] for each i.  Each level calls f once, on its new nodes
    for every row still open, row by row.  A row closes at the first
    level that agrees with the one before within rel_tol of its value,
    or within the smallest normal double times the integral of the
    weight (the sum of the level's weights).  Each row is reduced on its
    own, so a row of a family equals its one-row call bit for bit.
    Returns the array of the n_rows integrals; raises QuadratureFailure
    naming the first open row after the last level.
    """
    out = np.empty(n_rows)
    rows = np.arange(n_rows)
    values = np.empty((n_rows, 0))
    last = diff = None
    for nodes, weights in levels:
        if not rows.size:
            return out
        new = np.asarray(f(np.repeat(rows, nodes.size), np.tile(nodes, rows.size)), dtype=np.float64)
        # a constant integrand may return a scalar
        new = np.broadcast_to(new, (rows.size * nodes.size,)).reshape(rows.size, nodes.size)
        values = np.concatenate([values, new], axis=1)
        est = np.add.reduce(values * weights, axis=1)
        if last is not None:
            diff = np.abs(est - last)
            done = diff <= np.maximum(rel_tol * np.abs(est), _TINY * weights.sum())
            out[rows[done]] = est[done]
            rows, values, est, diff = rows[~done], values[~done], est[~done], diff[~done]
        last = est
    if rows.size:
        raise QuadratureFailure(
            f"row {rows[0]} unresolved after {len(levels)} levels "
            f"(last difference {diff[0]:.3g}, value {est[0]:.3g})",
            err=float(diff[0]),
            row=int(rows[0]),
        )
    return out


def _levels(n, refinements, node, weights):
    """The levels of a rule on m = n, 2n, ... n 2^refinements intervals:
    node(j, m) is node j of m, weights(m) the weights of all m + 1."""
    finest = n << refinements
    levels, index = [], []
    for k in range(refinements + 1):
        m = n << k
        j = np.arange(m + 1) if k == 0 else np.arange(1, m, 2)
        # every node so far by its index on the finest level
        index.append(j * (finest // m))
        levels.append((node(j, m), weights(m)[np.concatenate(index) // (finest // m)]))
    return levels


def trapezoid(a, b, n, halvings):
    """Nested trapezoid levels on [a, b], from n intervals."""

    def weights(m):
        w = np.full(m + 1, (b - a) / m)
        w[[0, m]] *= 0.5
        return w

    return _levels(n, halvings, lambda j, m: a + (b - a) / m * j, weights)


def _cc_weights(m):
    """Clenshaw-Curtis weights on [-1, 1] at cos(j pi / m), j = 0..m, m even."""
    c = 2.0 / np.concatenate([[1.0], 1.0 - np.arange(2, m + 1, 2) ** 2.0])
    w = np.fft.ifft(np.concatenate([c, c[m // 2 - 1 : 0 : -1]])).real
    return np.concatenate([[0.5 * w[0]], w[1:], [0.5 * w[0]]])


def clenshaw_curtis(n, doublings):
    """Nested Clenshaw-Curtis levels on [0, 1], from n intervals (n even):
    the nodes sin^2(j pi / 2m) of m intervals crowd towards both ends."""
    return _levels(n, doublings, lambda j, m: np.sin(0.5 * np.pi * j / m) ** 2, lambda m: 0.5 * _cc_weights(m))


def weighted(levels, weight):
    """The levels for the integrand times weight(node): each level's
    weights multiplied by it, and the nodes where it vanishes dropped."""
    out, w = [], []
    for nodes, weights in levels:
        w.append(weight(nodes))
        all_w = np.concatenate(w)
        out.append((nodes[w[-1] != 0.0], (weights * all_w)[all_w != 0.0]))
    return out
